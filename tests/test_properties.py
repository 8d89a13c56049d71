"""Hypothesis property tests: matcher, aggregator and exhaustive sweep
against the oracles, PAM's range and monotonicity, and parser robustness
on generated XML.

Every test runs derandomized (a fixed seed per test, no example
database), so the suite draws the same examples on every run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptmeter import (
    Activity,
    AdaptMeterError,
    AnalysisConfig,
    ProcessModel,
    exhaustive_sweep,
    parse_aspect,
    parse_process,
    process_adaptability,
)
from adaptmeter.matching import VariabilityProfile, match_selector
from adaptmeter.model import ADVICE_TYPES, find_join_points
from adaptmeter.parsing import Aspect, serialize_process
from adaptmeter.selectors import PointcutSelector, SelectorStep
import oracles

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                        suppress_health_check=[HealthCheck.too_slow])

BASIC = ("receive", "invoke", "reply", "assign")
STRUCTURED = ("sequence", "switch", "pick", "flow", "while")
NAMES = (None, "n0", "n1")
OPERATIONS = ("op0", "op1")


_basic = st.builds(
    lambda kind, name, operation: Activity(kind, name, {"operation": operation} if operation else {}),
    st.sampled_from(BASIC), st.sampled_from(NAMES), st.sampled_from((None, *OPERATIONS)),
)
activities = st.recursive(
    _basic,
    lambda inner: st.builds(lambda kind, name, children: Activity(kind, name, {}, tuple(children)),
                            st.sampled_from(STRUCTURED), st.sampled_from(NAMES), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=12,
)
processes = activities.map(
    lambda root: ProcessModel("p", root if root.is_structured else Activity("sequence", children=(root,)))
)
selectors = st.lists(
    st.builds(
        SelectorStep,
        st.sampled_from(("process", *BASIC, *STRUCTURED)),
        st.lists(st.tuples(st.sampled_from(("name", "operation")), st.sampled_from(("p", *NAMES[1:], *OPERATIONS))),
                 max_size=2).map(tuple),
    ),
    min_size=1, max_size=3,
).map(lambda steps: PointcutSelector(tuple(steps)))
configs = st.builds(
    AnalysisConfig,
    reference_value=st.integers(1, 5),
    join_point_kinds=st.sampled_from((frozenset({"invoke", "receive", "reply"}), frozenset({"invoke"}),
                                      frozenset({"assign", "reply"}))),
    count_mode=st.sampled_from(("set", "raw-clamped")),
)


def _assignments(data, process: ProcessModel, config: AnalysisConfig) -> list:
    """Advice on the config's join points, types repeating at will."""
    paths = [path for path, _ in find_join_points(process, config)]
    if not paths:
        return []
    return data.draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(ADVICE_TYPES)), max_size=12))


def _outcome(compute):
    try:
        return compute()
    except AdaptMeterError as exc:
        return type(exc), str(exc)


@DERANDOMIZED
@given(processes, selectors)
def test_matcher_equals_the_oracle(process, selector):
    assert match_selector(selector, process) == oracles.match_selector(selector, process)


@DERANDOMIZED
@given(processes, configs, st.data())
def test_aggregator_equals_the_oracle(process, config, data):
    profile = VariabilityProfile.from_assignments(_assignments(data, process, config))
    expected = _outcome(lambda: oracles.aggregate_process(process, profile, config))
    assert _outcome(lambda: process_adaptability(process, profile, config).nodes) == expected


@DERANDOMIZED
@given(processes, configs, st.data())
def test_pam_stays_in_the_unit_interval_and_grows_with_advice(process, config, data):
    if config.count_mode == "set" and config.reference_value < len(ADVICE_TYPES):
        # set mode may see more distinct types than R allows; raw-clamped never fails
        config = AnalysisConfig(reference_value=len(ADVICE_TYPES), join_point_kinds=config.join_point_kinds)
    before = _assignments(data, process, config)
    after = before + _assignments(data, process, config)
    low = process_adaptability(process, VariabilityProfile.from_assignments(before), config).pam
    high = process_adaptability(process, VariabilityProfile.from_assignments(after), config).pam
    assert 0 <= low <= high <= 1


@DERANDOMIZED
@given(processes, configs)
def test_exhaustive_sweep_equals_the_fold(process, config):
    expected = _outcome(lambda: oracles.exhaustive_fold(process, config))
    assert _outcome(lambda: exhaustive_sweep(process, config)) == expected


# Pieces of process and aspect documents: grammar elements, strangers,
# namespaces, entities, DOCTYPEs and broken markup.
_XML_PIECES = (
    "<sequence>", "</sequence>", "<switch>", "</switch>", "<case>", "</case>", "<otherwise/>", "<pick>", "</pick>",
    "<onMessage>", "</onMessage>", "<flow>", "</flow>", "<while>", "</while>", "<invoke/>", '<invoke name="x">',
    "</invoke>", "<receive/>", "<reply/>", "<assign/>", "<scope>", "</scope>", "<partnerLinks>", "</partnerLinks>",
    '<partnerLink name="a"/>', "<variables>", "</variables>", '<bpel:invoke xmlns:bpel="urn:b"/>',
    "<pointcut>", "</pointcut>", "//invoke", "//sequence[@name='x']", "//x[", '<advice type="before">',
    '<advice type="never">', "</advice>", "<process>", '<process name="p">', "</process>", "<aspect>",
    '<aspect name="a" enabled="maybe">', "</aspect>", "<!DOCTYPE x>", "&amp;", "&bogus;", "<", ">", "text", "\n",
)
documents = st.one_of(
    st.lists(st.sampled_from(_XML_PIECES), max_size=20).map("".join),
    st.tuples(st.sampled_from(('<process name="p">', '<aspect name="a">')),
              st.lists(st.sampled_from(_XML_PIECES), max_size=20).map("".join),
              st.sampled_from(("</process>", "</aspect>", ""))).map("".join),
    processes.map(serialize_process).flatmap(
        lambda text: st.tuples(st.integers(0, len(text)), st.integers(0, 3), st.sampled_from(_XML_PIECES)).map(
            lambda cut: text[:cut[0]] + cut[2] + text[cut[0] + cut[1]:])
    ),
    st.text(max_size=40),
)


@settings(DERANDOMIZED, max_examples=300)  # cheap examples; fewer miss whole branches of the parser
@given(documents)
def test_parsers_raise_only_library_errors(text):
    for parse, kind in ((parse_process, ProcessModel), (parse_aspect, Aspect)):
        try:
            assert isinstance(parse(text), kind)
        except AdaptMeterError:
            pass
