"""CLI behaviour: formats, exit codes, warnings, and output determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import re
import subprocess
import sys

import pytest

from adaptmeter.cli import _use_color, main
from adaptmeter.parsing import load_aspects
from adaptmeter.report import render_compare_text, render_text
from conftest import FIXTURES_DIR, REPO_ROOT, SRC_DIR

TRAVEL = str(FIXTURES_DIR / "travel_booking.bpel")
LINEAR = str(FIXTURES_DIR / "travel_booking_linear.bpel")
MINI = str(FIXTURES_DIR / "booking_mini.bpel")
ASPECTS_DIR = str(FIXTURES_DIR / "aspects")
VERIFY = str(FIXTURES_DIR / "verify_request.aspect.xml")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_example_text(self, capsys):
        code, out, err = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR)
        assert code == 0
        assert "PAM = 0.2917 (7/24)" in out
        assert "vd=0.8333 (5/6)" in out
        assert err == ""

    def test_no_aspects_scores_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", TRAVEL)
        assert code == 0
        assert "PAM = 0.0000" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["process"] == "TravelBooking"
        assert payload["pam_exact"] == "7/24"
        assert payload["reference_value"] == 3
        assert abs(payload["pam"] - 7 / 24) < 1e-9
        assert payload["warnings"] == []
        by_path = {node["path"]: node for node in payload["nodes"]}
        assert len(by_path) == 9
        switch = by_path["/process/sequence[0]/switch[2]"]
        assert switch["kind"] == "switch"
        assert switch["join_point"] is False
        assert switch["n_used"] == 2
        assert abs(switch["vd"] - 5 / 6) < 1e-9
        domestic = by_path["/process/sequence[0]/switch[2]/invoke[0]"]
        assert domestic["join_point"] is True
        assert domestic["vv"] == 3
        assert domestic["vd"] == 1.0

    def test_json_round_trips_every_node_vd(self, capsys, travel_process, travel_aspects, config):
        from adaptmeter import bind_aspects, process_adaptability

        _, out, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json")
        payload = json.loads(out)
        profile = bind_aspects(travel_process, travel_aspects, config)
        result = process_adaptability(travel_process, profile, config)
        expected = {str(node.path): node for node in result.nodes}
        assert abs(payload["pam"] - float(result.pam)) < 1e-9
        assert len(payload["nodes"]) == len(expected)
        for entry in payload["nodes"]:
            node = expected[entry["path"]]
            assert abs(entry["vd"] - float(node.vd)) < 1e-9
            assert entry["vv"] == node.vv
            assert entry["n_used"] == node.n_used

    def test_text_and_json_agree_on_displayed_pam(self, capsys):
        _, text_out, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR)
        _, json_out, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json")
        pam = json.loads(json_out)["pam"]
        assert f"PAM = {pam:.4f}" in text_out

    def test_branch_wrappers_and_declarations_are_not_kept(self, tmp_path, capsys):
        from adaptmeter import parse_process

        body = (
            '<sequence><switch name="s">{case}<invoke name="a"/>{end_case}{other}<reply name="b"/>{end_other}'
            '</switch><pick name="k">{message}<receive name="c"/>{end_message}{alarm}<invoke name="d"/>'
            "{end_alarm}</pick></sequence>"
        )
        first = (
            '<process name="p"><partnerLinks><partnerLink name="client" myRole="r"/></partnerLinks>'
            '<variables><variable name="v" messageType="m"/></variables>'
            + body.format(case='<case condition="a">', end_case="</case>",
                          other="<otherwise>", end_other="</otherwise>",
                          message='<onMessage operation="m">', end_message="</onMessage>",
                          alarm="<onAlarm>", end_alarm="</onAlarm>")
            + "</process>"
        )
        second = (
            '<process name="p"><variables/>'
            + body.format(case="<otherwise>", end_case="</otherwise>",
                          other='<case condition="b">', end_other="</case>",
                          message='<onAlarm for="PT1S">', end_message="</onAlarm>",
                          alarm='<onMessage partnerLink="x">', end_alarm="</onMessage>")
            + "</process>"
        )
        assert parse_process(first) == parse_process(second)
        aspect = tmp_path / "aspect.xml"
        aspect.write_text('<aspect name="A"><pointcut>//switch//invoke</pointcut><pointcut>//pick//receive'
                          '</pointcut><advice type="before"><invoke/></advice></aspect>', encoding="utf-8")
        outputs = []
        for index, text in enumerate((first, second)):
            (tmp_path / str(index)).mkdir()
            process = tmp_path / str(index) / "p.bpel"
            process.write_text(text, encoding="utf-8")
            outputs.append([run_cli(capsys, "analyze", str(process), "--aspects", str(aspect), *fmt)
                            for fmt in ((), ("--format", "json"))])
        assert outputs[0] == outputs[1]
        assert "PAM = 0.1667 (1/6)" in outputs[0][0][1]

    def test_missing_file_exits_2_with_empty_stdout(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "no_such_file.bpel")
        assert code == 2
        assert out == ""
        assert "no_such_file.bpel" in err

    def test_error_lines_spell_paths_as_pathlib_does(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "sub").mkdir()
        (tmp_path / "bad.bpel").write_text("<process name='p'>\n<sequence>", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "analyze", "./fixtures/nope.bpel") == (
            2, "", "error: [Errno 2] No such file or directory: 'fixtures/nope.bpel'\n")
        for raw, shown in (("./bad.bpel", "bad.bpel"), ("sub/../bad.bpel", "sub/../bad.bpel")):
            assert run_cli(capsys, "analyze", raw) == (1, "", f"error: {shown}:2: no element found: line 2, column 10\n")

    def test_parse_error_exits_1_with_file_line_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.bpel"
        bad.write_text('<process name="p">\n<sequence>\n<foreach/>\n</sequence>\n</process>', encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert f"{bad}:3:" in err
        assert "foreach" in err

    def test_branch_structure_error_names_the_switch_line(self, tmp_path, capsys):
        bad = tmp_path / "twice.bpel"
        bad.write_text(
            '<process name="p">\n<sequence>\n<switch>\n'
            "<otherwise><invoke/></otherwise>\n<otherwise><invoke/></otherwise>\n"
            "</switch>\n</sequence>\n</process>",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}:3: <switch> allows at most one <otherwise> branch\n"

    def test_malformed_xml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.bpel"
        bad.write_text('<process name="p">\n<sequence>\n</process>', encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert f"{bad}:3:" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "analyze", TRAVEL, "--frobnicate")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_bad_join_points_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", TRAVEL, "--join-points", "sequence")
        assert code == 1
        assert "basic" in err

    def test_reference_value_too_small_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--reference-value", "2")
        assert code == 1
        assert "reference value" in err

    def test_raw_clamped_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR,
            "--reference-value", "1", "--count-mode", "raw-clamped",
        )
        assert code == 0
        # each bound invoke clamps to VV=1=R, so VD=1 at three of five
        # join points: (0 + 1 + 1 + 0) / 4
        assert "PAM = 0.5000 (1/2)" in out

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        aspect = tmp_path / "nowhere.xml"
        aspect.write_text(
            '<aspect name="Nowhere"><pointcut>//invoke[@operation="cancel"]</pointcut>'
            '<advice type="before"><invoke/></advice></aspect>',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "analyze", TRAVEL, "--aspects", str(aspect))
        assert code == 0
        assert "matched no activities" in err
        assert "matched no activities" not in out

    def test_aspect_directory_discovery_skips_non_aspects(self, tmp_path, capsys):
        (tmp_path / "a_process.xml").write_text('<process name="x"><sequence/></process>', encoding="utf-8")
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"),
                                             encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not xml", encoding="utf-8")
        (tmp_path / "old.xml").mkdir()
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(tmp_path))
        assert code == 0
        assert err == ""
        # only the aspect file binds: one before advice at weight 1/4 of VD 1/3
        assert "PAM = 0.0833 (1/12)" in out

    def test_aspect_directory_skips_unreadable_xml_with_a_warning(self, tmp_path, capsys):
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"),
                                             encoding="utf-8")
        broken = tmp_path / "broken.xml"
        broken.write_text("<aspect name='x'>", encoding="utf-8")
        latin = tmp_path / "latin.xml"
        latin.write_bytes('<aspect name="caf\u00e9"/>'.encode("latin-1"))
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(tmp_path))
        assert code == 0
        assert "PAM = 0.0833 (1/12)" in out
        first, second = err.splitlines()
        assert first.startswith(f"warning: skipping {broken}: ")
        assert second.startswith(f"warning: skipping {latin}: not UTF-8 text: ")

    def test_directly_named_non_utf8_aspect_file_is_an_error(self, tmp_path, capsys):
        latin = tmp_path / "latin.xml"
        latin.write_bytes('<aspect name="caf\u00e9"/>'.encode("latin-1"))
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(latin))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {latin}: not UTF-8 text: ")

    def test_directly_named_non_aspect_file_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", TRAVEL, "--aspects", LINEAR)
        assert code == 1
        assert out == ""
        assert "expected <aspect>" in err

    def test_doctype_process_file_exits_1_with_its_line(self, tmp_path, capsys):
        bad = tmp_path / "entity.bpel"
        bad.write_text(
            '<?xml version="1.0"?>\n<!DOCTYPE process [<!ENTITY x "hello">]>\n'
            '<process name="&x;"><sequence><invoke/></sequence></process>\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}:2: <!DOCTYPE> declarations are not allowed\n"

    def test_directly_named_doctype_aspect_file_exits_1(self, tmp_path, capsys):
        aspect = tmp_path / "dtd.xml"
        aspect.write_text("<!DOCTYPE aspect>\n"
                          + (FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(aspect))
        assert code == 1
        assert out == ""
        assert err == f"error: {aspect}:1: <!DOCTYPE> declarations are not allowed\n"

    def test_aspect_directory_skips_doctype_file_with_a_warning(self, tmp_path, capsys):
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"),
                                             encoding="utf-8")
        dtd = tmp_path / "dtd.xml"
        dtd.write_text("<!DOCTYPE aspect>\n" + (FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"),
                       encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(tmp_path))
        assert code == 0
        assert "PAM = 0.0833 (1/12)" in out
        assert err == f"warning: skipping {dtd}: <!DOCTYPE> declarations are not allowed\n"

    def test_deep_nesting_analyzes(self, tmp_path, capsys):
        deep = tmp_path / "deep.bpel"
        depth = 1200
        deep.write_text(f'<process name="deep">{"<sequence>" * depth}<invoke/>{"</sequence>" * depth}</process>',
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(deep))
        assert code == 0, err
        assert "PAM = 0.0000" in out

    def test_nesting_limit_exits_1_with_bounded_memory(self, tmp_path):
        deep = tmp_path / "deep.bpel"
        deep.write_text(f'<process name="deep">{"<sequence>" * 10**5}<invoke/>{"</sequence>" * 10**5}</process>',
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        with subprocess.Popen([sys.executable, "-m", "adaptmeter", "analyze", str(deep)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            _, status, usage = os.wait4(child.pid, 0)  # the child's own peak memory
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen does not wait
            out, err = child.stdout.read(), child.stderr.read()
        assert child.returncode == 1
        assert out == b""
        assert err.decode() == f"error: {deep}:1: nesting deeper than 2000\n"
        assert usage.ru_maxrss < 100 * 1024  # kilobytes

    def test_include_disabled_flag(self, tmp_path, capsys):
        aspect = tmp_path / "off.xml"
        aspect.write_text(
            '<aspect name="Off" enabled="false"><pointcut>//invoke[@operation="bookFlight"]</pointcut>'
            '<advice type="before"><invoke/></advice></aspect>',
            encoding="utf-8",
        )
        _, out_default, _ = run_cli(capsys, "analyze", LINEAR, "--aspects", str(aspect))
        assert "PAM = 0.0000" in out_default
        _, out_included, _ = run_cli(capsys, "analyze", LINEAR, "--aspects", str(aspect), "--include-disabled")
        assert "PAM = 0.0833 (1/12)" in out_included


class TestSweepCommand:
    def test_three_cases_csv_shape(self, capsys):
        code, out, err = run_cli(capsys, "sweep", TRAVEL, "--cases", "3", "--seed", "42")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "case_id,count,pam"
        assert len(lines) == 1 + 3 * 16
        for case_id in range(3):
            case_rows = [line for line in lines[1:] if line.startswith(f"{case_id},")]
            assert len(case_rows) == 16
            assert case_rows[0] == f"{case_id},0,0.000000"
            assert case_rows[-1] == f"{case_id},15,1.000000"

    def test_rows_sorted_by_case_then_count(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", MINI, "--cases", "2", "--seed", "1")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        keys = [(int(case_id), int(count)) for case_id, count, _ in rows]
        assert keys == sorted(keys)

    def test_join_point_free_process(self, tmp_path, capsys):
        inert = tmp_path / "inert.bpel"
        inert.write_text('<process name="inert"><sequence><assign/></sequence></process>', encoding="utf-8")
        code, out, _ = run_cli(capsys, "sweep", str(inert), "--cases", "1")
        assert code == 0
        assert out.splitlines() == ["case_id,count,pam", "0,0,0.000000"]

    def test_exhaustive_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", MINI, "--exhaustive")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count,min_pam,mean_pam,max_pam"
        assert len(lines) == 11
        for line in lines[1:]:
            _, low, mean, high = line.split(",")
            assert float(low) <= float(mean) <= float(high)

    def test_exhaustive_travel_fixture_has_no_slot_limit(self, capsys):
        code, out, err = run_cli(capsys, "sweep", TRAVEL, "--exhaustive")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1 + 16
        assert lines[1] == "0,0.000000,0.000000,0.000000"
        assert lines[-1] == "15,1.000000,1.000000,1.000000"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, "sweep", MINI, "--cases", "1", "--seed", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text(encoding="utf-8")
        assert content.startswith("case_id,count,pam\n")
        assert content.endswith("0,9,1.000000\n")

    def test_cases_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "sweep", MINI, "--cases", "0")
        assert code == 1
        assert "--cases" in err

    def test_aspects_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", MINI, "--cases", "1", "--aspects", ASPECTS_DIR)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --aspects" in err


class TestCompareCommand:
    def test_aspects2_requires_a_value(self, capsys):
        code, _, _ = run_cli(capsys, "compare", TRAVEL, TRAVEL, "--aspects", ASPECTS_DIR, "--aspects2")
        assert code == 1

    def test_delta_against_zero_aspect_process(self, tmp_path, capsys):
        empty_dir = tmp_path / "none"
        empty_dir.mkdir()
        code, out, _ = run_cli(
            capsys, "compare", TRAVEL, TRAVEL,
            "--aspects", ASPECTS_DIR, "--aspects2", str(empty_dir),
        )
        assert code == 0
        assert "delta (right - left) = -0.2917 (-7/24)" in out

    def test_extra_aspect_increases_right_side(self, tmp_path, capsys):
        # right side gets the same aspects plus one more join-point type
        extra_dir = tmp_path / "extra"
        extra_dir.mkdir()
        for path in (FIXTURES_DIR / "aspects").glob("*.xml"):
            (extra_dir / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        (extra_dir / "zz_more.xml").write_text(
            '<aspect name="AuditReply"><pointcut>//reply</pointcut>'
            '<advice type="after"><invoke/></advice></aspect>',
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "compare", TRAVEL, TRAVEL,
            "--aspects", ASPECTS_DIR, "--aspects2", str(extra_dir),
        )
        assert code == 0
        # the reply join point has weight 1/4, one advice type adds 1/4 * 1/3
        delta_line = next(line for line in out.splitlines() if line.startswith("delta"))
        assert "+0.0833 (1/12)" in delta_line

    def test_identical_inputs_zero_delta(self, capsys):
        code, out, _ = run_cli(capsys, "compare", TRAVEL, TRAVEL, "--aspects", ASPECTS_DIR)
        assert code == 0
        assert "delta (right - left) = +0.0000" in out

    def test_exit_zero_when_left_is_larger(self, capsys):
        code, _, _ = run_cli(capsys, "compare", TRAVEL, MINI, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY)
        assert code == 0

    def test_json_compare(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", TRAVEL, TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 0.0
        assert payload["delta_exact"] == "0"
        assert payload["left"]["pam_exact"] == "7/24"
        assert len(payload["join_points"]) == 5
        for row in payload["join_points"]:
            assert row["delta"] == 0.0

    def test_json_compare_disjoint_trees_uses_nulls(self, capsys):
        code, out, _ = run_cli(capsys, "compare", TRAVEL, MINI, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        paths = {row["path"] for row in payload["join_points"]}
        mini_only = "/process/sequence[0]/switch[1]/invoke[0]"
        assert mini_only in paths
        row = next(r for r in payload["join_points"] if r["path"] == mini_only)
        assert row["left_vd"] is None
        assert row["delta"] is None

    def test_rows_follow_preorder_when_the_sides_differ_in_kind(self, tmp_path, capsys):
        # Sibling indices order first, then kinds; plain text order would put
        # flow[1]/invoke[0] before invoke[1].
        left, right = tmp_path / "left.bpel", tmp_path / "right.bpel"
        left.write_text('<process name="L"><sequence><receive/><flow><invoke/></flow><invoke/></sequence></process>',
                        encoding="utf-8")
        right.write_text('<process name="R"><sequence><receive/><invoke/><reply/></sequence></process>',
                         encoding="utf-8")
        code, out, _ = run_cli(capsys, "compare", str(left), str(right), "--format", "json")
        assert code == 0
        rows = json.loads(out)["join_points"]
        assert [(row["path"], row["left_vd"] is None, row["right_vd"] is None) for row in rows] == [
            ("/process/sequence[0]/receive[0]", False, False),
            ("/process/sequence[0]/invoke[1]", True, False),
            ("/process/sequence[0]/flow[1]/invoke[0]", False, True),
            ("/process/sequence[0]/invoke[2]", False, True),
            ("/process/sequence[0]/reply[2]", True, False),
        ]
        _, text, _ = run_cli(capsys, "compare", str(left), str(right))
        assert [line.split()[0] for line in text.splitlines()[5:]] == [row["path"] for row in rows]

    def test_without_aspects2_loads_the_aspects_once(self, monkeypatch, capsys):
        import adaptmeter.cli

        calls = []

        def counting(paths):
            calls.append(paths)
            return load_aspects(paths)

        monkeypatch.setattr(adaptmeter.cli, "load_aspects", counting)
        reused = run_cli(capsys, "compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR)
        assert len(calls) == 1
        loaded_twice = run_cli(capsys, "compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", ASPECTS_DIR)
        assert len(calls) == 3
        assert reused == loaded_twice

    def test_per_join_point_table(self, capsys):
        _, out, _ = run_cli(capsys, "compare", TRAVEL, TRAVEL, "--aspects", ASPECTS_DIR)
        assert "join point" in out
        assert "/process/sequence[0]/switch[2]/invoke[0]" in out


@pytest.mark.parametrize("argv, renderer, kept", [
    (["analyze", TRAVEL, "--aspects", ASPECTS_DIR], "render_text", {"ProcessModel"}),
    (["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"], "render_json", set()),
    (["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY], "render_compare_text", set()),
    (["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY, "--format", "json"],
     "render_compare_json", set()),
], ids=["analyze-text", "analyze-json", "compare-text", "compare-json"])
def test_inputs_a_report_does_not_read_are_freed_before_it_renders(monkeypatch, capsys, argv, renderer, kept):
    # The text report reads the process's activity names; no other report
    # reads a process, and none reads the aspects.
    import adaptmeter.cli
    import adaptmeter.report
    from adaptmeter import ProcessModel, parse_process
    from adaptmeter.parsing import Aspect

    inputs: set[int] = set()  # the ids of the parsed inputs, so that no reference keeps them alive
    live: list[str] = []

    def parsing(text):
        process = parse_process(text)
        inputs.add(id(process))
        return process

    def loading(paths):
        aspects, notes = load_aspects(paths)
        inputs.update(map(id, aspects))
        return aspects, notes

    def rendering(*args, **kwargs):
        live.extend(type(obj).__name__ for obj in gc.get_objects()
                    if id(obj) in inputs and isinstance(obj, (Aspect, ProcessModel)))
        return render(*args, **kwargs)

    render = getattr(adaptmeter.report, renderer)
    monkeypatch.setattr(adaptmeter.cli, "parse_process", parsing)
    monkeypatch.setattr(adaptmeter.cli, "load_aspects", loading)
    monkeypatch.setattr(adaptmeter.report, renderer, rendering)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert inputs
    assert set(live) == kept


class TestClosedStdout:
    """A reader that stops early (``| head -c 10``) ends the report silently, with status 0."""

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        # Every report of this process is larger than a 64 KB pipe buffer.
        path = tmp_path_factory.mktemp("closed") / "big.bpel"
        invokes = "".join(f'<invoke name="call{i}" operation="op{i}"/>' for i in range(2000))
        path.write_text(f'<process name="big"><sequence>{invokes}</sequence></process>', encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["analyze", "sweep", "compare"])
    def test_exit_zero_and_no_error(self, big, command, unbuffered):
        argv = {"analyze": ["analyze", big], "sweep": ["sweep", big, "--cases", "1"],
                "compare": ["compare", big, big]}[command]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen([sys.executable, "-m", "adaptmeter", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read()
        assert child.returncode == 0
        assert err == b""


def _adapt_meter_env(unbuffered: bool, **extra: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


_CLOSED_STREAM_CASES = [
    pytest.param(["analyze", LINEAR, "--aspects", "NOWHERE"], "stderr", 0, id="warnings"),
    pytest.param(["analyze", "nope.bpel"], "stderr", 2, id="missing-file"),
    pytest.param(["analyze"], "stderr", 1, id="usage-error"),
    pytest.param(["sweep", "--help"], "stdout", 0, id="help"),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestClosedStreams:
    """A standard stream closed before the process starts never changes the exit status."""

    def _run(self, tmp_path, argv, unbuffered, **streams) -> subprocess.CompletedProcess:
        aspect = tmp_path / "nowhere.xml"
        aspect.write_text('<aspect name="N"><pointcut>//reply[@name="x"]</pointcut>'
                          '<advice type="before"><invoke/></advice></aspect>', encoding="utf-8")
        argv = [str(aspect) if arg == "NOWHERE" else arg for arg in argv]
        return subprocess.run([sys.executable, "-m", "adaptmeter", *argv], env=_adapt_meter_env(unbuffered),
                              **{"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL, **streams})

    @pytest.mark.parametrize("argv, stream, status", _CLOSED_STREAM_CASES)
    def test_pipe_closed_by_its_reader(self, tmp_path, argv, stream, status, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = self._run(tmp_path, argv, unbuffered, **{stream: write_end})
        finally:
            os.close(write_end)
        assert child.returncode == status

    @pytest.mark.parametrize("argv, stream, status", [
        *_CLOSED_STREAM_CASES,
        pytest.param(["analyze", TRAVEL, "--aspects", ASPECTS_DIR], "stdout", 0, id="report"),
    ])
    def test_stream_open_only_for_reading(self, tmp_path, argv, stream, status, unbuffered):
        # As ``2>&-`` reaches Python through a shell-script launcher: the
        # descriptor is open, on the script, for reading only.
        with open(os.devnull, "rb") as read_only:
            child = self._run(tmp_path, argv, unbuffered, **{"stderr": subprocess.PIPE, stream: read_only})
        assert child.returncode == status
        assert not child.stderr

    def test_no_stdout_at_all(self, unbuffered):
        # As ``adapt-meter analyze ... >&-`` runs it: sys.stdout is None.
        child = subprocess.run(["/bin/sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "adaptmeter",
                                "analyze", TRAVEL, "--aspects", ASPECTS_DIR],
                               stderr=subprocess.PIPE, env=_adapt_meter_env(unbuffered))
        assert child.returncode == 0
        assert child.stderr == b""


@pytest.mark.parametrize("argv", [["analyze", "PROCESS"], ["compare", "PROCESS", "PROCESS"]])
def test_unencodable_report_characters_are_backslash_escaped(tmp_path, argv):
    process = tmp_path / "p.bpel"
    process.write_text('<process name="p\u00e9"><sequence><invoke name="a"/></sequence></process>',
                       encoding="utf-8")
    argv = [str(process) if arg == "PROCESS" else arg for arg in argv]
    child = subprocess.run([sys.executable, "-m", "adaptmeter", *argv], capture_output=True,
                           env=_adapt_meter_env(False, PYTHONIOENCODING="ascii"))
    assert child.returncode == 0
    assert child.stderr == b""
    assert rb"p\xe9" in child.stdout
    if argv[0] == "analyze":
        assert child.stdout.startswith(rb"process: p\xe9" + b"\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", TRAVEL, "--aspects", ASPECTS_DIR],
            ["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"],
            ["sweep", TRAVEL, "--cases", "3", "--seed", "42"],
            ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY],
        ],
    )
    def test_repeat_runs_are_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def _python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports adaptmeter from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run([sys.executable, *args], capture_output=True, encoding="utf-8", env=env, check=check)


def _readme_public_names() -> list[str]:
    """The names listed under README's "Library use" as the package's exports."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1].split("\n## ")[0]
    listing = section.split("The package exports these", 1)[1].split("\n\n")[1]
    return re.findall(r"`(\w+)`", listing)


def _modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter loads running ``code``, on top of what site preloads."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nsys.stderr.write(' '.join(set(sys.modules) - before))"
    return set(_python("-c", script).stderr.split())


class TestStartup:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        loaded = _modules_loaded_by("import adaptmeter.cli")
        assert "adaptmeter.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"})

    def test_package_import_loads_no_submodule(self):
        loaded = _modules_loaded_by("import adaptmeter")
        assert "adaptmeter" in loaded
        assert not {name for name in loaded if name.startswith("adaptmeter.")}

    def test_text_analyze_loads_neither_sweep_nor_random_nor_json(self):
        loaded = _modules_loaded_by(
            f"from adaptmeter.cli import main\nassert main(['analyze', {TRAVEL!r}, '--aspects', {ASPECTS_DIR!r}]) == 0"
        )
        assert {"adaptmeter.matching", "adaptmeter.metrics", "adaptmeter.report"} <= loaded
        assert loaded.isdisjoint({"adaptmeter.sweep", "random", "json"})

    def test_exhaustive_sweep_loads_neither_matching_nor_selectors_nor_json(self):
        loaded = _modules_loaded_by(f"from adaptmeter.cli import main\nassert main(['sweep', {MINI!r}, '--exhaustive']) == 0")
        assert "adaptmeter.sweep" in loaded
        assert loaded.isdisjoint({"adaptmeter.matching", "adaptmeter.selectors", "json"})

    @pytest.mark.parametrize("argv", [
        ["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"],
        ["sweep", MINI, "--cases", "2", "--seed", "7"],
        ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY],
    ], ids=["analyze", "sweep", "compare"])
    def test_canonical_command_lines_load_no_argparse(self, argv):
        loaded = _modules_loaded_by(f"from adaptmeter.cli import main\nassert main({argv!r}) == 0")
        assert loaded.isdisjoint({"argparse", "gettext", "locale"})

    def test_help_loads_argparse(self):
        code = "from adaptmeter.cli import main\ntry:\n    main(['sweep', '--help'])\nexcept SystemExit:\n    pass"
        assert "argparse" in _modules_loaded_by(code)

    def test_abbreviated_option_reads_as_the_full_one(self, capsys):
        abbreviated = run_cli(capsys, "sweep", MINI, "--exh")
        assert abbreviated[0] == 0
        assert abbreviated == run_cli(capsys, "sweep", MINI, "--exhaustive")

    def test_unknown_package_name_raises_and_dir_lists_every_public_name(self):
        import adaptmeter

        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            adaptmeter.no_such_name
        listed = dir(adaptmeter)
        assert listed == sorted(listed)
        assert set(adaptmeter.__all__) | {"__version__"} <= set(listed)

    def test_every_public_name_resolves_and_star_import_binds_it(self):
        documented = _readme_public_names()
        assert len(documented) == len(set(documented))
        code = (
            "import adaptmeter\n"
            "namespace = {}\n"
            "exec('from adaptmeter import *', namespace)\n"
            f"assert adaptmeter.__all__ == {sorted(documented)!r}, adaptmeter.__all__\n"
            "for name in adaptmeter.__all__:\n"
            "    assert namespace[name] is getattr(adaptmeter, name), name\n"
            "assert not hasattr(adaptmeter, 'no_such_name')\n"
        )
        _python("-c", code)

    def test_process_entry_freezes_the_heap_before_exit(self):
        code = (
            "import gc, runpy, sys\n"
            f"sys.argv = ['adapt-meter', 'analyze', {TRAVEL!r}]\n"
            "try:\n"
            "    runpy.run_module('adaptmeter', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    sys.stderr.write(f'{exc.code} {gc.get_freeze_count()}')\n"
        )
        status, frozen = _python("-c", code).stderr.split()
        assert status == "0"
        assert int(frozen) > 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    def test_process_entry_runs_the_command_without_the_collector(self, enabled):
        # A gc callback counts the collections that start while run() runs
        # the command; afterwards the collector is on or off as before.
        code = (
            "import gc, sys\n"
            "from adaptmeter.cli import run\n"
            f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
            f"sys.argv = ['adapt-meter', 'analyze', {TRAVEL!r}, '--aspects', {ASPECTS_DIR!r}]\n"
            "status = run()\n"
            "sys.stderr.write(f'{status} {len(starts)} {gc.isenabled()}')\n"
        )
        assert _python("-c", code).stderr.split() == ["0", "0", str(enabled)]

    @pytest.mark.parametrize(
        "argv, status",
        [(["analyze", TRAVEL], 0), (["analyze", VERIFY], 1), (["analyze", str(FIXTURES_DIR / "missing.bpel")], 2)],
    )
    def test_process_exit_status(self, argv, status):
        proc = _python("-m", "adaptmeter", *argv, check=False)
        assert proc.returncode == status
        assert proc.stderr.startswith("error: ") == (status != 0)

    def test_in_process_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        code, out, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR)
        assert code == 0
        assert "PAM = 0.2917 (7/24)" in out
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    def test_in_process_main_leaves_the_collector_alone(self, capsys, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run_cli(capsys, "analyze", TRAVEL, "--aspects", ASPECTS_DIR)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == 0


class _RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["analyze", TRAVEL, "--aspects", ASPECTS_DIR],
    ["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"],
    ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR],
    ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--format", "json"],
])
def test_each_report_reaches_stdout_in_one_write(monkeypatch, argv):
    # A report and its newline written apart could meet a closed pipe in between.
    stdout = _RecordingStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.writes == [stdout.getvalue()]
    assert stdout.getvalue().endswith("}\n" if "json" in argv else "\n")


def test_each_call_writes_its_warnings_in_one_write(monkeypatch, tmp_path):
    # A reader that closed stderr after the first of several writes made
    # the exit status depend on timing.
    (tmp_path / "assign.xml").write_text(
        '<aspect name="Assign"><pointcut>//assign</pointcut><advice type="after"><invoke/></advice></aspect>',
        encoding="utf-8",
    )
    (tmp_path / "bad.xml").write_bytes(b"<aspect name='\xff'/>")
    (tmp_path / "none.xml").write_text(
        '<aspect name="None"><pointcut>//reply[@name="x"]</pointcut><advice type="before"><invoke/></advice></aspect>',
        encoding="utf-8",
    )
    stderr = _RecordingStream()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(["analyze", LINEAR, "--aspects", str(tmp_path)]) == 0
    assert stderr.writes == [stderr.getvalue()]
    lines = stderr.getvalue().splitlines()
    assert lines[0].startswith(f"warning: skipping {tmp_path / 'bad.xml'}: not UTF-8 text")
    assert [line.split("'")[1] for line in lines[1:]] == ["Assign", "Assign", "None"]

    compared = _RecordingStream()
    monkeypatch.setattr(sys, "stderr", compared)
    assert main(["compare", LINEAR, LINEAR, "--aspects", str(tmp_path)]) == 0
    assert compared.writes == [compared.getvalue()]
    assert compared.getvalue().splitlines() == [
        line.replace("warning: ", f"warning: {side}: ", 1) for side in ("left", "right") for line in lines
    ]


class TestColor:
    def test_ansi_gated_by_tty_and_env(self, monkeypatch):
        plain = io.StringIO()
        monkeypatch.setattr(sys, "stdout", plain)
        assert _use_color() is False

        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setattr(sys, "stdout", FakeTty())
        monkeypatch.delenv("ADAPT_METER_NO_COLOR", raising=False)
        assert _use_color() is True
        monkeypatch.setenv("ADAPT_METER_NO_COLOR", "1")
        assert _use_color() is False

    def test_render_text_color_switch(self, travel_process, config):
        from adaptmeter import process_adaptability
        from adaptmeter.matching import VariabilityProfile

        result = process_adaptability(travel_process, VariabilityProfile(), config)
        assert "\x1b[1m" in render_text(result, travel_process, color=True)
        assert "\x1b" not in render_text(result, travel_process, color=False)

    def test_render_compare_text_color_switch(self, travel_process, linear_process, config):
        from adaptmeter import process_adaptability
        from adaptmeter.matching import VariabilityProfile

        left, right = (process_adaptability(process, VariabilityProfile(), config)
                       for process in (travel_process, linear_process))
        colored = render_compare_text(left, right, "a", "b", color=True)
        assert "\x1b[1mdelta (right - left) = +0.0000\x1b[0m" in colored.splitlines()
        plain = render_compare_text(left, right, "a", "b", color=False)
        assert "\x1b" not in plain
        assert colored.replace("\x1b[1m", "").replace("\x1b[0m", "") == plain


class TestLineBreaksInNames:
    """XML character references let a name hold a line break or a tab; text
    output and diagnostics escape them, so every row and message is one line."""

    PROCESS = ('<process name="p&#10;q"><sequence name="s&#13;t">'
               '<invoke name="a&#10;b" operation="x"/><invoke name="c&#9;d"/></sequence></process>')
    ASPECT = ('<aspect name="A&#10;X"><pointcut name="pc">//reply</pointcut>'
              '<advice type="before"><invoke/></advice></aspect>')

    def _files(self, tmp_path):
        process, aspect = tmp_path / "p.bpel", tmp_path / "a.xml"
        process.write_text(self.PROCESS, encoding="utf-8")
        aspect.write_text(self.ASPECT, encoding="utf-8")
        return str(process), str(aspect)

    def test_text_rows_and_warnings_stay_on_one_line(self, tmp_path, capsys):
        process, aspect = self._files(tmp_path)
        code, out, err = run_cli(capsys, "analyze", process, "--aspects", aspect)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == r"process: p\nq"
        assert lines[5:8] == [
            r"sequence[0] 's\rt'  vd=0.0000  n=2",
            r"  invoke[0] 'a\nb'  vd=0.0000  vv=0 *",
            r"  invoke[1] 'c\td'  vd=0.0000  vv=0 *",
        ]
        assert err == "warning: aspect 'A\\nX' pointcut 'pc': selector matched no activities\n"

    def test_unicode_line_separators_are_escaped_too(self, tmp_path, capsys):
        # str.splitlines also breaks at U+0085, U+2028 and U+2029, which a name may hold.
        process = tmp_path / "u.bpel"
        process.write_text('<process name="p"><sequence><invoke name="c&#x2028;d"/><invoke name="e&#x85;f"/>'
                           '<invoke name="g&#x2029;h"/><invoke/></sequence></process>', encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", str(process))
        assert code == 0
        assert out.splitlines() == out.split("\n")[:-1]
        assert out.splitlines()[6:9] == [
            r"  invoke[0] 'c\u2028d'  vd=0.0000  vv=0 *",
            r"  invoke[1] 'e\x85f'    vd=0.0000  vv=0 *",
            r"  invoke[2] 'g\u2029h'  vd=0.0000  vv=0 *",
        ]

    def test_c1_controls_are_escaped_too(self, tmp_path, capsys):
        # XML allows U+0080-U+009F, and U+009B is CSI on terminals that act on C1 controls.
        process, aspect = tmp_path / "c.bpel", tmp_path / "c.xml"
        process.write_text('<process name="P&#x9b;2J"><sequence><invoke name="a&#x80;b"/><invoke name="c&#x9f;d"/>'
                           '</sequence></process>', encoding="utf-8")
        aspect.write_text('<aspect name="A&#x9b;X"><pointcut name="p&#x90;c">//reply</pointcut>'
                          '<advice type="before"><invoke/></advice></aspect>', encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(process), "--aspects", str(aspect))
        assert code == 0
        assert not any("\x80" <= char <= "\x9f" for char in out + err)
        lines = out.splitlines()
        assert lines[0] == r"process: P\x9b2J"
        assert lines[6:8] == [
            r"  invoke[0] 'a\x80b'  vd=0.0000  vv=0 *",
            r"  invoke[1] 'c\x9fd'  vd=0.0000  vv=0 *",
        ]
        assert err == "warning: aspect 'A\\x9bX' pointcut 'p\\x90c': selector matched no activities\n"

    def test_every_escaped_character_is_unprintable(self):
        # The text report passes a printable name by without translating it.
        from adaptmeter.model import _ONE_LINE

        assert not any(chr(code).isprintable() for code in _ONE_LINE)

    def test_json_keeps_the_names_as_they_are(self, tmp_path, capsys):
        process, aspect = self._files(tmp_path)
        code, out, _ = run_cli(capsys, "analyze", process, "--aspects", aspect, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["process"] == "p\nq"
        assert payload["warnings"] == ["aspect 'A\nX' pointcut 'pc': selector matched no activities"]

    def test_compare_headers_stay_on_one_line(self, tmp_path, capsys):
        process, _ = self._files(tmp_path)
        tabbed = tmp_path / "t\tab.bpel"
        tabbed.write_text(self.PROCESS, encoding="utf-8")
        code, out, _ = run_cli(capsys, "compare", process, str(tabbed))
        assert code == 0
        assert out.splitlines()[:2] == [
            f"left:  p\\nq  PAM = 0.0000  [{process}]",
            f"right: p\\nq  PAM = 0.0000  [{tmp_path}/t\\tab.bpel]",
        ]

    @pytest.mark.parametrize("argv, expected", [
        (["analyze", TRAVEL, "--join-points", "a\nb"],
         "error: join-point kinds must be basic activity kinds, got: a\\nb\n"),
        (["analyze", TRAVEL, "--frob\rx"], "error: adapt-meter: unrecognized arguments: --frob\\rx\n"),
    ], ids=["config", "usage"])
    def test_error_lines_stay_on_one_line(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", expected)

    def test_a_parse_error_in_a_file_named_with_a_line_break(self, tmp_path, capsys):
        bad = tmp_path / "x\ny.bpel"
        bad.write_text("<process name='p'>\n<sequence>", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {tmp_path}/x\\ny.bpel:2: ")
        assert err.count("\n") == 1
