"""Process/aspect document parsing and canonical serialization."""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
import time

import pytest

from adaptmeter import (
    AdaptMeterError,
    BadAdviceType,
    MalformedXml,
    MissingPointcut,
    SelectorSyntax,
    StructuralError,
    UnsupportedElement,
    load_aspects,
    parse_aspect,
    parse_process,
)
from adaptmeter.parsing import MAX_NESTING, serialize_process
from conftest import FIXTURES_DIR
from randtrees import random_process

MINIMAL_PROCESS = '<process name="p"><sequence/></process>'


def _aspect_doc(body: str, name: str = "A", extra: str = "") -> str:
    return f'<aspect name="{name}"{extra}>{body}</aspect>'


class TestParseProcess:
    def test_linear_fixture(self, linear_process):
        assert linear_process.name == "TravelBooking"
        root = linear_process.root
        assert root.kind == "sequence"
        assert root.name == "mainSequence"
        assert [child.kind for child in root.children] == ["receive", "assign", "invoke", "invoke", "assign", "reply"]
        operations = [child.attributes.get("operation") for child in root.children if child.kind == "invoke"]
        assert operations == ["bookFlight", "bookHotel"]

    def test_process_attributes_kept(self, travel_process):
        assert travel_process.attributes == {"targetNamespace": "urn:example:travel"}

    def test_minimal_process(self):
        process = parse_process(MINIMAL_PROCESS)
        assert process.name == "p"
        assert process.root.kind == "sequence"
        assert process.root.children == ()

    def test_unsupported_activity_rejected(self):
        doc = '<process name="p"><sequence>\n<foreach/></sequence></process>'
        with pytest.raises(UnsupportedElement) as excinfo:
            parse_process(doc)
        assert excinfo.value.line == 2

    def test_basic_root_rejected(self):
        doc = '<process name="p">\n<partnerLinks/>\n<invoke name="i">\n<opaque/>\n</invoke>\n</process>'
        with pytest.raises(StructuralError) as excinfo:
            parse_process(doc)
        assert str(excinfo.value) == "process root activity must be structured, got <invoke>"
        assert excinfo.value.line == 3  # the root activity's start tag

    def test_two_root_activities_rejected(self):
        with pytest.raises(StructuralError):
            parse_process('<process name="p"><sequence/><sequence/></process>')

    def test_missing_root_activity_rejected(self):
        with pytest.raises(StructuralError):
            parse_process('<process name="p"><partnerLinks/></process>')

    def test_missing_name_rejected(self):
        with pytest.raises(StructuralError):
            parse_process("<process><sequence/></process>")

    def test_unknown_process_child_rejected(self):
        with pytest.raises(UnsupportedElement):
            parse_process('<process name="p"><faultHandlers/><sequence/></process>')

    def test_wrong_document_root_rejected(self):
        with pytest.raises(StructuralError):
            parse_process("<workflow><sequence/></workflow>")

    def test_multi_activity_branch_rejected(self):
        doc = '<process name="p"><sequence><switch><case condition="c"><invoke/><invoke/></case></switch></sequence></process>'
        with pytest.raises(StructuralError):
            parse_process(doc)

    def test_empty_branch_rejected(self):
        doc = '<process name="p"><sequence><switch><case condition="c"/></switch></sequence></process>'
        with pytest.raises(StructuralError):
            parse_process(doc)

    def test_empty_switch_rejected(self):
        doc = '<process name="p"><sequence><switch/></sequence></process>'
        with pytest.raises(StructuralError):
            parse_process(doc)

    def test_double_otherwise_rejected(self):
        doc = (
            '<process name="p"><sequence><switch>'
            "<otherwise><invoke/></otherwise><otherwise><invoke/></otherwise>"
            "</switch></sequence></process>"
        )
        with pytest.raises(StructuralError):
            parse_process(doc)

    def test_empty_branching_activity_error_carries_its_line(self):
        for kind in ("switch", "pick"):
            doc = f'<process name="p">\n<sequence>\n<invoke/>\n<{kind}>\n</{kind}>\n</sequence>\n</process>'
            with pytest.raises(StructuralError) as excinfo:
                parse_process(doc)
            assert str(excinfo.value) == f"<{kind}> requires at least one branch"
            assert excinfo.value.line == 4

    def test_double_otherwise_error_carries_the_switch_line(self):
        doc = (
            '<process name="p">\n<sequence>\n<receive/>\n'
            '<switch name="s">\n<case condition="c">\n<invoke/>\n</case>\n'
            "<otherwise><invoke/></otherwise>\n<otherwise><reply/></otherwise>\n"
            "</switch>\n</sequence>\n</process>"
        )
        with pytest.raises(StructuralError) as excinfo:
            parse_process(doc)
        assert str(excinfo.value) == "<switch> allows at most one <otherwise> branch"
        assert excinfo.value.line == 4

    def test_nested_branch_error_keeps_the_inner_line(self):
        doc = (
            '<process name="p">\n<sequence>\n<pick>\n<onMessage operation="m">\n'
            "<switch>\n</switch>\n</onMessage>\n</pick>\n</sequence>\n</process>"
        )
        with pytest.raises(StructuralError) as excinfo:
            parse_process(doc)
        assert excinfo.value.line == 5

    def test_pick_branch_elements_checked(self):
        doc = '<process name="p"><sequence><pick>\n<case condition="c"><invoke/></case></pick></sequence></process>'
        with pytest.raises(UnsupportedElement) as excinfo:
            parse_process(doc)
        assert str(excinfo.value) == "<pick> branches must be <onMessage> or <onAlarm>, got <case>"
        assert excinfo.value.line == 2

    def test_namespace_prefixes_ignored(self):
        doc = (
            '<bpel:process xmlns:bpel="urn:x" name="p">'
            '<bpel:sequence><bpel:invoke bpel:operation="bookFlight"/></bpel:sequence>'
            "</bpel:process>"
        )
        process = parse_process(doc)
        assert process.name == "p"
        assert process.root.children[0].attributes["operation"] == "bookFlight"

    def test_basic_activity_content_is_opaque(self):
        doc = '<process name="p"><sequence><assign><copy><from/><to/></copy></assign><invoke/></sequence></process>'
        process = parse_process(doc)
        assert [child.kind for child in process.root.children] == ["assign", "invoke"]
        assert process.root.children[0].children == ()

    def test_long_literal_parses_in_linear_time(self):
        # Growing an element's text by concatenation took 3.5 s at 160,000 lines.
        literal = "x = 1;\n" * 400_000
        doc = f'<process name="p"><sequence><assign>{literal}</assign><invoke/></sequence></process>'
        start = time.perf_counter()
        process = parse_process(doc)
        assert time.perf_counter() - start < 2.0
        assert [child.kind for child in process.root.children] == ["assign", "invoke"]

    def test_malformed_xml_reports_line(self):
        with pytest.raises(MalformedXml) as excinfo:
            parse_process('<process name="p">\n<sequence>\n</process>')
        assert excinfo.value.line == 3

    def test_not_xml_at_all(self):
        with pytest.raises(MalformedXml):
            parse_process("pam: 0.29")


class TestParseAspect:
    def test_verify_request_fixture(self, verify_aspect):
        assert verify_aspect.name == "VerifyRequest"
        assert verify_aspect.enabled
        assert verify_aspect.advice_type == "before"
        assert len(verify_aspect.pointcuts) == 1
        pointcut = verify_aspect.pointcuts[0]
        assert pointcut.name == "crosscut1"
        assert [element for element, _ in pointcut.selector.steps] == ["process", "invoke"]

    def test_bad_declaration_child_rejected_with_its_line(self):
        for section, wrong in (("partnerLinks", "variable"), ("variables", "partnerLink")):
            doc = _aspect_doc(f'<{section}>\n<{wrong} name="x"/></{section}><pointcut>//invoke</pointcut>'
                              '<advice type="before"><invoke/></advice>')
            with pytest.raises(UnsupportedElement) as excinfo:
                parse_aspect(doc)
            assert excinfo.value.line == 2
            assert str(excinfo.value) == f"unsupported element <{wrong}> in <{section}>"

    def test_around_advice(self):
        doc = _aspect_doc(
            '<pointcut name="p1">//invoke[@operation="bookHotel"]</pointcut>'
            '<advice type="around"><invoke name="alt"/></advice>'
        )
        aspect = parse_aspect(doc)
        assert aspect.advice_type == "around"

    def test_bad_advice_type(self):
        doc = _aspect_doc(
            "<pointcut>//invoke</pointcut>" '<advice type="during"><invoke/></advice>'
        )
        with pytest.raises(BadAdviceType):
            parse_aspect(doc)

    def test_missing_pointcut(self):
        doc = _aspect_doc('<advice type="before"><invoke/></advice>')
        with pytest.raises(MissingPointcut):
            parse_aspect(doc)

    def test_exactly_one_advice_required(self):
        two = _aspect_doc(
            "<pointcut>//invoke</pointcut>"
            '<advice type="before"><invoke/></advice><advice type="after"><invoke/></advice>'
        )
        with pytest.raises(StructuralError):
            parse_aspect(two)
        none = _aspect_doc("<pointcut>//invoke</pointcut>")
        with pytest.raises(StructuralError):
            parse_aspect(none)

    def test_advice_wraps_exactly_one_activity(self):
        doc = _aspect_doc(
            "<pointcut>//invoke</pointcut>" '<advice type="before"><invoke/><invoke/></advice>'
        )
        with pytest.raises(StructuralError):
            parse_aspect(doc)

    def test_enabled_flag(self):
        doc = _aspect_doc(
            "<pointcut>//invoke</pointcut>" '<advice type="before"><invoke/></advice>',
            extra=' enabled="false"',
        )
        assert parse_aspect(doc).enabled is False

    def test_bad_enabled_value(self):
        doc = _aspect_doc(
            "<pointcut>//invoke</pointcut>" '<advice type="before"><invoke/></advice>',
            extra=' enabled="maybe"',
        )
        with pytest.raises(StructuralError):
            parse_aspect(doc)

    def test_unnamed_pointcuts_get_defaults(self):
        doc = _aspect_doc(
            "<pointcut>//invoke</pointcut><pointcut>//receive</pointcut>"
            '<advice type="before"><invoke/></advice>'
        )
        aspect = parse_aspect(doc)
        assert [pointcut.name for pointcut in aspect.pointcuts] == ["pointcut1", "pointcut2"]

    def test_selector_error_carries_pointcut_context(self):
        doc = _aspect_doc(
            '<pointcut name="bad">//invoke[position()=1]</pointcut>'
            '<advice type="before"><invoke/></advice>'
        )
        with pytest.raises(SelectorSyntax) as excinfo:
            parse_aspect(doc)
        assert "bad" in str(excinfo.value)

    def test_pointcut_text_split_by_markup_is_joined(self):
        split = parse_aspect(_aspect_doc(
            '<pointcut>\n  //invoke<!-- flights -->[@operation=<![CDATA["bookFlight"]]>]\n</pointcut>'
            '<advice type="before"><invoke/></advice>'))
        plain = parse_aspect(_aspect_doc(
            '<pointcut>//invoke[@operation="bookFlight"]</pointcut><advice type="before"><invoke/></advice>'))
        assert split.pointcuts == plain.pointcuts

    def test_aspect_name_required(self):
        doc = "<aspect><pointcut>//invoke</pointcut><advice type=\"before\"><invoke/></advice></aspect>"
        with pytest.raises(StructuralError):
            parse_aspect(doc)

    def test_wrong_root_rejected(self):
        with pytest.raises(StructuralError):
            parse_aspect(MINIMAL_PROCESS)


class TestLoadAspects:
    GOOD = _aspect_doc('<pointcut>//invoke</pointcut><advice type="before"><invoke/></advice>')

    def test_directory_scan(self, tmp_path):
        (tmp_path / "b.xml").write_text(self.GOOD.replace('name="A"', 'name="B"'), encoding="utf-8")
        (tmp_path / "a.xml").write_text(self.GOOD, encoding="utf-8")
        (tmp_path / "notes.txt").write_text(self.GOOD, encoding="utf-8")
        (tmp_path / "process.xml").write_text(MINIMAL_PROCESS, encoding="utf-8")
        (tmp_path / "broken.xml").write_text("<aspect name='x'>", encoding="utf-8")
        (tmp_path / "latin.xml").write_bytes(b"<aspect name='\xe9'/>")
        (tmp_path / "dir.xml").mkdir()
        (tmp_path / "dir.xml" / "c.xml").write_text(self.GOOD.replace('name="A"', 'name="C"'), encoding="utf-8")
        aspects, notes = load_aspects([str(tmp_path)])
        assert [aspect.name for aspect in aspects] == ["A", "B"]
        broken, latin = tmp_path / "broken.xml", tmp_path / "latin.xml"
        assert notes == [f"skipping {broken}: no element found: line 1, column 17",
                         f"skipping {latin}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 14: "
                         "invalid continuation byte"]

    def test_directly_named_files_must_parse(self, tmp_path):
        named = tmp_path / "named.xml"
        named.write_text(self.GOOD, encoding="utf-8")
        assert load_aspects([named, named]) == ([parse_aspect(self.GOOD)] * 2, [])
        for text, error in ((MINIMAL_PROCESS, StructuralError), ("<aspect", MalformedXml)):
            named.write_text(text, encoding="utf-8")
            with pytest.raises(error) as excinfo:
                load_aspects([named])
            assert excinfo.value.source == str(named)

    def test_scanned_file_errors_name_their_file(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text(_aspect_doc('<advice type="before"><invoke/></advice>'), encoding="utf-8")
        with pytest.raises(MissingPointcut) as excinfo:
            load_aspects([tmp_path])
        assert (excinfo.value.source, excinfo.value.line) == (str(bad), 1)

    def test_a_lone_path_is_refused(self, tmp_path):
        # iterating a str would read each character as a path
        (tmp_path / "a.xml").write_text(self.GOOD, encoding="utf-8")
        for lone in (str(tmp_path), tmp_path):
            with pytest.raises(TypeError, match="^load_aspects takes a list of paths, not one path: "):
                load_aspects(lone)
        assert [aspect.name for aspect in load_aspects((tmp_path,))[0]] == ["A"]


    def test_path_spellings_in_notes(self, tmp_path, monkeypatch):
        # The notes spell a path as pathlib does: "./" and repeated or
        # trailing slashes go, ".." stays, and a dot-file is scanned too.
        directory = tmp_path / "d"
        (directory / "sub").mkdir(parents=True)
        (directory / "a.xml").write_text(self.GOOD, encoding="utf-8")
        (directory / ".hidden.xml").write_text(self.GOOD.replace('name="A"', 'name="H"'), encoding="utf-8")
        (directory / "zz_broken.xml").write_text("<aspect name='x'>", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for raw, shown in (("./d/", "d"), ("d//", "d"), ("d/sub/..", "d/sub/..")):
            aspects, notes = load_aspects([raw])
            assert [aspect.name for aspect in aspects] == ["H", "A"]
            assert notes == [f"skipping {shown}/zz_broken.xml: no element found: line 1, column 17"]


class TestSerializeProcess:
    def test_fixture_round_trip(self, travel_process, linear_process, mini_process):
        for process in (travel_process, linear_process, mini_process):
            assert parse_process(serialize_process(process)) == process

    def test_random_tree_round_trip(self):
        rng = random.Random(4242)
        for _ in range(30):
            process = random_process(rng)
            assert parse_process(serialize_process(process)) == process

    def test_canonical_form(self):
        doc = (
            '<process name="p"><partnerLinks><partnerLink name="airline"/></partnerLinks><sequence>'
            '<invoke operation="book" partnerLink="airline" name="call"/>'
            '<switch name="s"><case condition="c"><reply/></case><otherwise><flow><assign/></flow></otherwise></switch>'
            '<pick><onAlarm for="PT1S"><receive/></onAlarm></pick>'
            "</sequence></process>"
        )
        expected = (
            '<?xml version="1.0" encoding="utf-8"?>\n'
            '<process name="p">\n'
            "  <sequence>\n"
            '    <invoke name="call" operation="book" partnerLink="airline"/>\n'
            '    <switch name="s">\n'
            "      <case>\n"
            "        <reply/>\n"
            "      </case>\n"
            "      <case>\n"
            "        <flow>\n"
            "          <assign/>\n"
            "        </flow>\n"
            "      </case>\n"
            "    </switch>\n"
            "    <pick>\n"
            "      <onMessage>\n"
            "        <receive/>\n"
            "      </onMessage>\n"
            "    </pick>\n"
            "  </sequence>\n"
            "</process>\n"
        )
        assert serialize_process(parse_process(doc)) == expected
        assert parse_process(expected) == parse_process(doc)

    def test_canonical_form_escapes_attribute_values(self):
        doc = (
            '<process name="a&amp;b"><sequence>'
            '<invoke operation="x &lt; y &gt; z" note="say &quot;hi&quot; &amp; go"'
            ' text="line1&#10;line2&#13;&#9;tab"/>'
            "</sequence></process>"
        )
        expected = (
            '<?xml version="1.0" encoding="utf-8"?>\n'
            '<process name="a&amp;b">\n'
            "  <sequence>\n"
            '    <invoke note="say &quot;hi&quot; &amp; go" operation="x &lt; y &gt; z"'
            ' text="line1&#10;line2&#13;&#9;tab"/>\n'
            "  </sequence>\n"
            "</process>\n"
        )
        process = parse_process(doc)
        assert process.root.children[0].attributes["note"] == 'say "hi" & go'
        assert process.root.children[0].attributes["text"] == "line1\nline2\r\ttab"
        assert serialize_process(process) == expected
        assert parse_process(expected) == process

    def test_serialization_is_stable(self, travel_process):
        assert serialize_process(travel_process) == serialize_process(travel_process)

    def test_deep_nesting_serializes(self):
        depth = 1200
        doc = f'<process name="deep">{"<sequence>" * depth}<invoke name="x"/>{"</sequence>" * depth}</process>'
        text = serialize_process(parse_process(doc))
        lines = text.splitlines()
        assert len(lines) == 2 * depth + 4
        assert lines[depth + 1] == "  " * depth + "<sequence>"
        assert lines[depth + 2] == "  " * (depth + 1) + '<invoke name="x"/>'
        assert lines[-2] == "  </sequence>"
        # Record equality recurses too, so compare the canonical text.
        assert serialize_process(parse_process(text)) == text


def _chain(depth: int) -> str:
    return f'{"<sequence>" * depth}<invoke/>{"</sequence>" * depth}'


class TestNestingLimit:
    @pytest.mark.parametrize("depth", [10**4, 10**5])
    def test_deep_chains_are_refused_quickly(self, depth):
        documents = (
            (parse_process, f'<process name="deep">{_chain(depth)}</process>'),
            (parse_aspect, _aspect_doc(f'<pointcut>//invoke</pointcut><advice type="before">{_chain(depth)}</advice>')),
        )
        for parse, doc in documents:
            start = time.perf_counter()
            with pytest.raises(StructuralError, match=f"^nesting deeper than {MAX_NESTING}$") as info:
                parse(doc)
            assert time.perf_counter() - start < 1.0
            assert info.value.line == 1

    def test_the_root_element_is_at_depth_one(self):
        # process, then MAX_NESTING - 2 sequences, then the invoke
        assert parse_process(f'<process name="p">{_chain(MAX_NESTING - 2)}</process>').name == "p"
        with pytest.raises(StructuralError, match="nesting deeper than"):
            parse_process(f'<process name="p">{_chain(MAX_NESTING - 1)}</process>')

    def test_opaque_content_is_not_counted(self):
        opaque = "<x>" * (2 * MAX_NESTING) + "</x>" * (2 * MAX_NESTING)
        assert parse_process(f'<process name="p"><sequence><invoke>{opaque}</invoke></sequence></process>').name == "p"

    def test_malformed_xml_still_outranks_the_limit(self):
        with pytest.raises(MalformedXml):
            parse_process(f'<process name="p">{_chain(10**4)}')


class TestFirstBrokenRule:
    """The first broken rule read is reported; malformed XML still outranks it."""

    def test_a_bad_activity_in_a_branch_outranks_the_branch_count(self):
        doc = '<process name="P">\n<switch>\n<case>\n<invoke/>\n<bogus/>\n</case>\n</switch>\n</process>'
        with pytest.raises(UnsupportedElement, match="^<bogus> is not a supported activity$") as info:
            parse_process(doc)
        assert info.value.line == 5

    def test_a_bad_activity_in_an_advice_outranks_the_advice_count(self):
        doc = _aspect_doc('\n<pointcut>//invoke</pointcut>\n<advice type="before">\n'
                          '<invoke/>\n<reply><x/></reply>\n<scope/>\n</advice>\n')
        with pytest.raises(UnsupportedElement, match="^<scope> is not a supported activity$") as info:
            parse_aspect(doc)
        assert info.value.line == 6

    def test_a_branch_of_two_valid_activities_reports_its_count(self):
        doc = '<process name="P">\n<switch>\n<case>\n<invoke/>\n<reply/>\n</case>\n</switch>\n</process>'
        with pytest.raises(StructuralError, match="^<case> must wrap exactly one activity, found 2$") as info:
            parse_process(doc)
        assert info.value.line == 3

    def test_malformed_xml_after_a_rule_error_still_wins(self):
        doc = '<process name="P">\n<sequence>\n<bogus/>\n<invoke>\n</sequence>\n</process>'
        with pytest.raises(MalformedXml) as info:
            parse_process(doc)
        assert info.value.line == 5

    @pytest.mark.parametrize("head, body, tail", [
        ("<sequence><bogus/>", "<invoke/>", "</sequence>"),
        ("<switch><case><invoke/><bogus/></case>", "<case><invoke/></case>", "</switch>"),
    ], ids=["sequence", "switch"])
    def test_no_python_runs_after_the_first_error(self, head, body, tail):
        # A deterministic cost gate: the calls a failing parse makes do not
        # grow with the document after its first error. The collector is off
        # while the parse is profiled, so that the calls of a gc callback
        # (Hypothesis installs one) that a collection runs are not counted.
        def calls(n: int) -> int:
            profile = cProfile.Profile()
            gc.disable()
            try:
                with pytest.raises(AdaptMeterError):
                    profile.runcall(parse_process, f'<process name="P">{head}{body * n}{tail}</process>')
            finally:
                gc.enable()
            return pstats.Stats(profile).total_calls

        assert calls(1000) == calls(2000)


def test_parsing_leaves_no_cyclic_garbage():
    # Each parsed document's node tree is freed when parsing returns, not
    # left for the cyclic collector.
    processes = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES_DIR.glob("*.bpel"))]
    aspects = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES_DIR.glob("**/*.xml"))]
    gc.collect()
    gc.disable()
    try:
        for text in processes:
            parse_process(text)
        for text in aspects:
            parse_aspect(text)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("parse, text", [
    (parse_process, '<process name="P"><sequence><invoke/><invoke/></sequence><bogus/></process>'),
    (parse_process, '<process name="P"><sequence><invoke/><switch/></sequence></process>'),
    (parse_aspect, '<aspect name="A"><pointcut>//invoke[</pointcut><advice type="before"><invoke/></advice></aspect>'),
    (parse_process, '<process name="P"><sequence><invoke/></sequence>'),
], ids=["rule", "activity", "selector", "malformed"])
def test_a_failing_parse_leaves_no_cyclic_garbage(parse, text):
    # The error's traceback holds the parser's frames, which must not hold
    # the error in turn: the tree read so far goes with the error.
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(AdaptMeterError):
            parse(text)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
