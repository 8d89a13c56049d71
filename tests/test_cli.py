"""CLI behaviour: formats, exit codes, warnings, and output determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from adaptmeter.cli import _use_color, main
from adaptmeter.report import render_text
from conftest import FIXTURES_DIR, SRC_DIR

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
        expected = {str(node.path): node for node in result.root.walk()}
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

    def test_missing_file_exits_2_with_empty_stdout(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "no_such_file.bpel")
        assert code == 2
        assert out == ""
        assert "no_such_file.bpel" in err

    def test_parse_error_exits_1_with_file_line_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.bpel"
        bad.write_text('<process name="p">\n<sequence>\n<foreach/>\n</sequence>\n</process>')
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
            "</switch>\n</sequence>\n</process>"
        )
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}:3: <switch> allows at most one <otherwise> branch\n"

    def test_malformed_xml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.bpel"
        bad.write_text('<process name="p">\n<sequence>\n</process>')
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
            '<advice type="before"><invoke/></advice></aspect>'
        )
        code, out, err = run_cli(capsys, "analyze", TRAVEL, "--aspects", str(aspect))
        assert code == 0
        assert "matched no activities" in err
        assert "matched no activities" not in out

    def test_aspect_directory_discovery_skips_non_aspects(self, tmp_path, capsys):
        (tmp_path / "a_process.xml").write_text('<process name="x"><sequence/></process>')
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text())
        (tmp_path / "notes.txt").write_text("not xml")
        code, out, _ = run_cli(capsys, "analyze", LINEAR, "--aspects", str(tmp_path))
        assert code == 0
        # only the aspect file binds: one before advice at weight 1/4 of VD 1/3
        assert "PAM = 0.0833 (1/12)" in out

    def test_aspect_directory_skips_unreadable_xml_with_a_warning(self, tmp_path, capsys):
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text())
        broken = tmp_path / "broken.xml"
        broken.write_text("<aspect name='x'>")
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
            '<process name="&x;"><sequence><invoke/></sequence></process>\n'
        )
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}:2: <!DOCTYPE> declarations are not allowed\n"

    def test_directly_named_doctype_aspect_file_exits_1(self, tmp_path, capsys):
        aspect = tmp_path / "dtd.xml"
        aspect.write_text("<!DOCTYPE aspect>\n" + (FIXTURES_DIR / "verify_request.aspect.xml").read_text())
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(aspect))
        assert code == 1
        assert out == ""
        assert err == f"error: {aspect}:1: <!DOCTYPE> declarations are not allowed\n"

    def test_aspect_directory_skips_doctype_file_with_a_warning(self, tmp_path, capsys):
        (tmp_path / "verify.xml").write_text((FIXTURES_DIR / "verify_request.aspect.xml").read_text())
        dtd = tmp_path / "dtd.xml"
        dtd.write_text("<!DOCTYPE aspect>\n" + (FIXTURES_DIR / "verify_request.aspect.xml").read_text())
        code, out, err = run_cli(capsys, "analyze", LINEAR, "--aspects", str(tmp_path))
        assert code == 0
        assert "PAM = 0.0833 (1/12)" in out
        assert err == f"warning: skipping {dtd}: <!DOCTYPE> declarations are not allowed\n"

    def test_deep_nesting_analyzes(self, tmp_path, capsys):
        deep = tmp_path / "deep.bpel"
        depth = 1200
        deep.write_text(f'<process name="deep">{"<sequence>" * depth}<invoke/>{"</sequence>" * depth}</process>')
        code, out, err = run_cli(capsys, "analyze", str(deep))
        assert code == 0, err
        assert "PAM = 0.0000" in out

    def test_include_disabled_flag(self, tmp_path, capsys):
        aspect = tmp_path / "off.xml"
        aspect.write_text(
            '<aspect name="Off" enabled="false"><pointcut>//invoke[@operation="bookFlight"]</pointcut>'
            '<advice type="before"><invoke/></advice></aspect>'
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
        inert.write_text('<process name="inert"><sequence><assign/></sequence></process>')
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

    def test_exhaustive_rejects_large_processes(self, capsys):
        code, out, err = run_cli(capsys, "sweep", TRAVEL, "--exhaustive")
        assert code == 1
        assert out == ""
        assert "15 slots" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, "sweep", MINI, "--cases", "1", "--seed", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
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
            (extra_dir / path.name).write_text(path.read_text())
        (extra_dir / "zz_more.xml").write_text(
            '<aspect name="AuditReply"><pointcut>//reply</pointcut>'
            '<advice type="after"><invoke/></advice></aspect>'
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

    def test_per_join_point_table(self, capsys):
        _, out, _ = run_cli(capsys, "compare", TRAVEL, TRAVEL, "--aspects", ASPECTS_DIR)
        assert "join point" in out
        assert "/process/sequence[0]/switch[2]/invoke[0]" in out


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


class TestStartup:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # Compare module sets before and after, since site may preload modules.
        code = (
            "import sys; before = set(sys.modules); import adaptmeter.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        loaded = set(proc.stdout.split())
        assert "adaptmeter.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"})


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
        from adaptmeter import VariabilityProfile, process_adaptability

        result = process_adaptability(travel_process, VariabilityProfile.empty(), config)
        assert "\x1b[1m" in render_text(result, travel_process, color=True)
        assert "\x1b" not in render_text(result, travel_process, color=False)
