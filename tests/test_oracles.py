"""Seeded differential tests: index-based layers against the naive walkers in oracles.py."""

from __future__ import annotations

import math
import random

import pytest

from adaptmeter import (
    Activity,
    AdaptMeterError,
    AnalysisConfig,
    MetricsResult,
    ProcessModel,
    ReferenceTooSmall,
    bind_aspects,
    process_adaptability,
)
from adaptmeter.matching import VariabilityProfile, match_selector
from adaptmeter.metrics import join_point_weights, variability_value
from adaptmeter.model import ADVICE_TYPES, ActivityPath, iter_activities
from adaptmeter.parsing import Aspect, Pointcut
from adaptmeter.report import render_text
from adaptmeter.selectors import PointcutSelector, parse_selector, render_selector
from adaptmeter.sweep import enumerate_slots, run_sweep, sweep_case
import oracles
from randtrees import random_process

SELECTOR_ELEMENTS = ("process", "case", "sequence", "switch", "pick", "flow", "while",
                     "receive", "invoke", "reply", "assign")

CONFIGS = [
    AnalysisConfig(join_point_kinds=frozenset(kinds), reference_value=r, count_mode=mode)
    for kinds in ({"invoke", "receive", "reply"}, {"invoke"}, {"assign", "reply"})
    for r in (1, 2, 5)
    for mode in ("set", "raw-clamped")
]


def _random_step(rng: random.Random, process, element: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    predicates = []
    if element == "process" and rng.random() < 0.5:
        predicates.append(("name", process.name if rng.random() < 0.7 else "other"))
    elif rng.random() < 0.25:
        activities = [activity for _, activity in iter_activities(process)]
        source = activities[rng.randrange(len(activities))]
        if source.name and rng.random() < 0.5:
            predicates.append(("name", source.name))
        elif source.attributes and rng.random() < 0.7:
            predicates.append(("operation", source.attributes.get("operation", "op0")))
        else:
            predicates.append(("operation", f"op{rng.randrange(50)}"))
    return element, tuple(predicates)


def _random_selector(rng: random.Random, process) -> PointcutSelector:
    size = rng.randint(1, 4)
    paths = [path for path, _ in iter_activities(process)]
    chain = ["process"] + [kind for kind, _ in paths[rng.randrange(len(paths))].steps]
    if rng.random() < 0.6 and len(chain) >= size:
        # steps along one real root-to-node chain, so multi-step selectors hit
        elements = [chain[i] for i in sorted(rng.sample(range(len(chain)), size))]
    else:
        elements = [SELECTOR_ELEMENTS[rng.randrange(len(SELECTOR_ELEMENTS))] for _ in range(size)]
    if elements[0] == "case":
        elements[0] = "process"
    if rng.random() < 0.2 and len(elements) > 1:
        elements[1] = elements[0]  # repeated kind: //switch//switch
    selector = PointcutSelector(tuple(_random_step(rng, process, element) for element in elements))
    return parse_selector(render_selector(selector))


def _outcome(compute):
    """The result, or the type and message of the library error raised instead."""
    try:
        return compute()
    except AdaptMeterError as exc:
        return type(exc), str(exc)


def _random_assignments(rng: random.Random, process, config: AnalysisConfig):
    """Join-point assignments with repeats, plus a few on non-join-points."""
    assignments = []
    for path, activity in iter_activities(process):
        repeats = rng.randrange(5) if activity.kind in config.join_point_kinds else rng.randrange(2)
        assignments += [(path, rng.choice(ADVICE_TYPES)) for _ in range(repeats)]
    return assignments


def test_match_selector_agrees_with_naive_matcher():
    rng = random.Random(60601)
    hits = 0
    for _ in range(1500):
        process = random_process(rng, max_depth=5, max_nodes=25)
        for _ in range(5):
            selector = _random_selector(rng, process)
            expected = oracles.match_selector(selector, process)
            assert match_selector(selector, process) == expected, str(selector)
            hits += bool(expected)
    assert hits > 1500


def _random_aspects(rng: random.Random, process, config: AnalysisConfig) -> list[Aspect]:
    """One to four aspects from small name pools, so names repeat; about one in four is disabled.

    Half the pointcuts are ``//kind`` for a kind in the tree, mostly a
    join-point kind, so many calls bind several advice to one join point.
    """
    kinds = sorted({activity.kind for _, activity in iter_activities(process)})
    join_point_kinds = [kind for kind in kinds if kind in config.join_point_kinds]
    if join_point_kinds and rng.random() < 0.8:
        kinds = join_point_kinds

    def selector() -> PointcutSelector:
        if rng.random() < 0.5:
            return _random_selector(rng, process)
        return PointcutSelector(((rng.choice(kinds), ()),))

    return [
        Aspect(f"aspect{rng.randrange(2)}",
               tuple(Pointcut(f"pc{rng.randrange(2)}", selector()) for _ in range(rng.randint(1, 3))),
               rng.choice(ADVICE_TYPES), enabled=rng.random() < 0.75)
        for _ in range(rng.randint(1, 4))
    ]


def test_bind_aspects_agrees_with_naive_binder():
    rng = random.Random(31337)
    shared = 0
    for _ in range(300):
        process = random_process(rng, max_depth=5, max_nodes=25)
        config = AnalysisConfig(join_point_kinds=rng.choice(CONFIGS).join_point_kinds,
                                include_disabled_aspects=rng.random() < 0.5)
        aspects = _random_aspects(rng, process, config)
        profile = bind_aspects(process, aspects, config)
        assert (profile.bindings, profile.warnings) == oracles.bind_aspects(process, aspects, config)
        shuffled = list(profile.bindings)
        rng.shuffle(shuffled)
        assert VariabilityProfile(shuffled, profile.warnings).raw_counts == profile.raw_counts
        shared += any(sum(counts.values()) > 1 for counts in profile.raw_counts.values())
    assert shared > 100


@pytest.mark.parametrize("count_mode", ["set", "raw-clamped"])
def test_counts_and_metrics_do_not_depend_on_aspect_order(count_mode):
    rng = random.Random(4242)
    reordered = 0
    for _ in range(150):
        process = random_process(rng, max_depth=5, max_nodes=25)
        config = AnalysisConfig(join_point_kinds=rng.choice(CONFIGS).join_point_kinds, count_mode=count_mode,
                                include_disabled_aspects=rng.random() < 0.5)
        aspects = _random_aspects(rng, process, config)
        shuffled = list(aspects)
        rng.shuffle(shuffled)
        profile, other = bind_aspects(process, aspects, config), bind_aspects(process, shuffled, config)
        assert other.raw_counts == profile.raw_counts
        assert sorted(other.warnings) == sorted(profile.warnings)
        result = process_adaptability(process, profile, config)
        assert process_adaptability(process, other, config).nodes == result.nodes
        reordered += other.bindings != profile.bindings
    assert reordered > 10


# Small value pools, so attribute values repeat across nodes and kinds
# (``operation`` on invoke, receive and reply alike).
ATTRIBUTE_VALUES = {"name": ("n0", "n1", "n2"), "operation": ("op0", "op1", "op2"), "partnerLink": ("pl0", "pl1")}


def _decorated(rng: random.Random, activity: Activity) -> Activity:
    """The tree with names and attributes redrawn from ATTRIBUTE_VALUES.

    Each attribute is present on about half the nodes, so every kind has
    nodes that lack it. Uses its own rng: randtrees' draws stay as they are.
    """
    drawn = {attribute: values[rng.randrange(len(values))]
             for attribute, values in ATTRIBUTE_VALUES.items() if rng.random() < 0.5}
    name = drawn.pop("name", None)
    children = tuple(_decorated(rng, child) for child in activity.children)
    return Activity(activity.kind, name, drawn, children)


def _conjunctive_step(rng: random.Random, process, element: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Zero to three predicates, mostly read off one node of the kind.

    An attribute may repeat with another value, and ``condition`` is on
    no activity at all.
    """
    nodes = [process] if element == "process" else [a for _, a in iter_activities(process) if a.kind == element]
    source = nodes[rng.randrange(len(nodes))] if nodes and rng.random() < 0.8 else None
    predicates = []
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
        if predicates and rng.random() < 0.2:
            attribute = predicates[-1][0]  # same attribute again, value drawn anew
            source = None
        else:
            attribute = rng.choice(("name", "operation", "operation", "partnerLink", "condition"))
        actual = source and (source.name if attribute == "name" else source.attributes.get(attribute))
        values = ATTRIBUTE_VALUES.get(attribute, ("c0",))
        predicates.append((attribute, actual or values[rng.randrange(len(values))]))
    return element, tuple(predicates)


def test_match_selector_with_conjunctive_predicates_agrees_with_naive_matcher():
    rng = random.Random(60605)
    tallies = dict.fromkeys(("hits", "multi_hits", "conflicts", "shared", "reused"), 0)
    for _ in range(500):
        source = random_process(rng, max_depth=5, max_nodes=25)
        process = ProcessModel(source.name, _decorated(rng, source.root), attributes={"operation": "op0"})
        paths = [path for path, _ in iter_activities(process)]
        looked_up: dict[tuple[str, str], set[str]] = {}
        for _ in range(24):
            chain = ["process"] + [kind for kind, _ in paths[rng.randrange(len(paths))].steps]
            size = min(rng.randint(1, 3), len(chain))
            if rng.random() < 0.7:
                elements = [chain[i] for i in sorted(rng.sample(range(len(chain)), size))]
            else:
                elements = [SELECTOR_ELEMENTS[rng.randrange(len(SELECTOR_ELEMENTS))] for _ in range(size)]
            selector = PointcutSelector(tuple(_conjunctive_step(rng, process, element) for element in elements))
            expected = oracles.match_selector(selector, process)
            assert match_selector(selector, process) == expected, str(selector)
            tallies["hits"] += bool(expected)
            tallies["multi_hits"] += bool(expected) and any(len(predicates) > 1 for _, predicates in selector.steps)
            for element, predicates in selector.steps:
                attributes = [attribute for attribute, _ in predicates]
                tallies["conflicts"] += len(set(predicates)) > len(set(attributes))
                if predicates:
                    looked_up.setdefault((element, attributes[0]), set()).add(predicates[0][1])
        kinds_by_operation = {kind for kind, attribute in looked_up if attribute == "operation"}
        tallies["shared"] += len(kinds_by_operation & {"invoke", "receive", "reply"}) > 1
        tallies["reused"] += any(len(values) > 1 for values in looked_up.values())
    assert tallies["hits"] > 1000 and tallies["multi_hits"] > 300, tallies
    assert tallies["conflicts"] > 1000 and tallies["shared"] > 150 and tallies["reused"] > 450, tallies


def test_process_adaptability_agrees_with_recursive_aggregate():
    rng = random.Random(60602)
    raised = 0
    for _ in range(2000):
        process = random_process(rng, max_depth=5, max_nodes=25)
        config = CONFIGS[rng.randrange(len(CONFIGS))]
        profile = VariabilityProfile.from_assignments(_random_assignments(rng, process, config))
        expected = _outcome(lambda: oracles.aggregate_process(process, profile, config))
        assert _outcome(lambda: process_adaptability(process, profile, config).nodes) == expected
        assert join_point_weights(process, config) == oracles.join_point_weights(process, config)
        raised += isinstance(expected[0], type)  # an error outcome starts with the error class
    assert 0 < raised < 2000


PRIMES = [p for p in range(2, 180) if all(p % d for d in range(2, p))]  # the first 40 primes


def _branch(rng: random.Random) -> Activity:
    """A join point, an inert assign, or a sequence that may hold either."""
    kind = rng.choice(("invoke", "receive", "reply", "assign", "sequence"))
    if kind == "sequence":
        return Activity("sequence", children=(Activity("assign"), Activity(rng.choice(("invoke", "assign")))))
    return Activity(kind)


def _prime_switches(rng: random.Random, nested: bool) -> ProcessModel:
    """Switches and picks with the first 40 primes as branch counts, in shuffled order:
    side by side in one sequence, or each in a branch of the one before."""
    primes = rng.sample(PRIMES, len(PRIMES))
    if not nested:
        switches = [Activity(rng.choice(("switch", "pick")), children=tuple(_branch(rng) for _ in range(p)))
                    for p in primes]
        return ProcessModel("wide", Activity("sequence", children=(Activity("assign"), *switches)))
    inner = Activity("invoke")
    for p in primes:
        branches = [_branch(rng) for _ in range(p - 1)]
        branches.insert(rng.randrange(p), Activity("sequence", children=(Activity("assign"), inner)))
        inner = Activity(rng.choice(("switch", "pick")), children=tuple(branches))
    return ProcessModel("nested", Activity("flow", children=(inner, Activity("reply"))))


@pytest.mark.parametrize("nested", [False, True], ids=["wide", "nested"])
def test_aggregation_agrees_with_the_oracles_at_hundreds_of_bits(nested):
    rng = random.Random(60620 + nested)
    process = _prime_switches(rng, nested)
    clamped = AnalysisConfig(reference_value=2, join_point_kinds={"invoke", "assign"}, count_mode="raw-clamped")
    for config in (AnalysisConfig(), clamped):
        profile = VariabilityProfile.from_assignments(_random_assignments(rng, process, config))
        expected = oracles.aggregate_process(process, profile, config)
        assert process_adaptability(process, profile, config).nodes == expected
        weights = join_point_weights(process, config)
        assert weights == oracles.join_point_weights(process, config)
        # the weights' common denominator: the big-integer path is taken
        assert math.lcm(*(weight.denominator for weight in weights.values())).bit_length() > 200


@pytest.mark.parametrize("count_mode", ["set", "raw-clamped"])
@pytest.mark.parametrize("reference_value", [1, 2, 3, 5])
def test_integer_aggregation_and_shared_details_agree_with_node_by_node_oracles(reference_value, count_mode):
    rng = random.Random(60610 + reference_value)
    config = AnalysisConfig(reference_value=reference_value, count_mode=count_mode)
    rendered = raised = 0
    for _ in range(250):
        process = random_process(rng, max_depth=5, max_nodes=25)
        profile = VariabilityProfile.from_assignments(_random_assignments(rng, process, config))
        expected = _outcome(lambda: oracles.aggregate_process(process, profile, config))
        actual = _outcome(lambda: process_adaptability(process, profile, config))
        if not isinstance(actual, MetricsResult):
            # the first join point in document order whose VV exceeds R
            first = next(vv for vv in (variability_value(profile, path, config)
                                       for path, activity in oracles.walk(process)
                                       if activity.kind in config.join_point_kinds) if vv > reference_value)
            assert actual == expected == (ReferenceTooSmall, f"variability value {first} exceeds reference value "
                                                             f"{reference_value}")
            raised += 1
            continue
        assert actual.nodes == expected
        for color in (False, True):
            assert render_text(actual, process, color) == oracles.render_text(actual, process, color)
        rendered += 1
    assert rendered > 25
    assert raised > 0 if count_mode == "set" and reference_value < 3 else raised == 0


def _random_order(rng: random.Random, process, config: AnalysisConfig) -> list[tuple[ActivityPath, str]]:
    order = enumerate_slots(process, config)
    rng.shuffle(order)
    return order


def test_sweep_case_agrees_with_per_count_reaggregation():
    rng = random.Random(60603)
    raised = 0
    for _ in range(1000):
        process = random_process(rng, max_depth=4, max_nodes=14)
        config = CONFIGS[rng.randrange(len(CONFIGS))]
        order = _random_order(rng, process, config)
        expected = _outcome(lambda: oracles.sweep_series(process, order, config))
        actual = _outcome(lambda: list(sweep_case(join_point_weights(process, config), order, config).series))
        assert actual == expected
        raised += isinstance(expected, tuple)
    assert raised > 0


@pytest.mark.parametrize("reference_value", [1, 2])
def test_sweep_raises_at_the_same_slot_below_three(reference_value):
    process = random_process(random.Random(60604), live_branches=True)
    config = AnalysisConfig(reference_value=reference_value)
    order = enumerate_slots(process, config)
    for count in range(len(order) + 1):
        expected = _outcome(lambda: oracles.sweep_series(process, order[:count], config))
        actual = _outcome(lambda: list(sweep_case(join_point_weights(process, config), order[:count], config).series))
        assert actual == expected


def test_run_sweep_agrees_with_per_count_reaggregation():
    # The production path: one weight table per sweep, cases in draw order.
    # The draws depend only on the slots, so a config with the same kinds
    # and R = 3, which no sweep can exceed, shows every order drawn.
    rng = random.Random(60605)
    configs = [*CONFIGS, AnalysisConfig()]
    outcomes = {"cases": 0, "raised": 0}
    for number in range(5 * len(configs)):
        process = random_process(rng, max_depth=4, max_nodes=14)
        config = configs[number % len(configs)]
        drawn = run_sweep(process, 3, number, AnalysisConfig(join_point_kinds=config.join_point_kinds))
        expected = []
        for order in (case.order for case in drawn):
            series = _outcome(lambda: oracles.sweep_series(process, order, config))
            if isinstance(series, tuple):  # run_sweep stops at the first case that raises
                expected = series
                break
            expected.append((order, series))
        actual = _outcome(lambda: [(case.order, list(case.series)) for case in run_sweep(process, 3, number, config)])
        assert actual == expected
        outcomes["raised" if isinstance(expected, tuple) else "cases"] += 1
    assert outcomes["cases"] > 40 and outcomes["raised"] > 10, outcomes
