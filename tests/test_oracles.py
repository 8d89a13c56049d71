"""Seeded differential tests: index-based layers against the naive walkers in oracles.py."""

from __future__ import annotations

import random

import pytest

from adaptmeter import (
    ADVICE_TYPES,
    Activity,
    AdaptMeterError,
    AnalysisConfig,
    PointcutSelector,
    ProcessModel,
    SelectorStep,
    VariabilityProfile,
    VariabilitySlot,
    enumerate_slots,
    iter_activities,
    join_point_weights,
    match_selector,
    parse_selector,
    process_adaptability,
    render_selector,
    sweep_case,
)
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


def _random_step(rng: random.Random, process, element: str) -> SelectorStep:
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
    return SelectorStep(element, tuple(predicates))


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
    return Activity(activity.kind, name, drawn, children, activity.branch_labels)


def _conjunctive_step(rng: random.Random, process, element: str) -> SelectorStep:
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
    return SelectorStep(element, tuple(predicates))


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
            tallies["multi_hits"] += bool(expected) and any(len(step.predicates) > 1 for step in selector.steps)
            for step in selector.steps:
                attributes = [attribute for attribute, _ in step.predicates]
                tallies["conflicts"] += len(set(step.predicates)) > len(set(attributes))
                if step.predicates:
                    looked_up.setdefault((step.element, attributes[0]), set()).add(step.predicates[0][1])
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
        assert _outcome(lambda: process_adaptability(process, profile, config).root) == expected
        assert join_point_weights(process, config) == oracles.join_point_weights(process, config)
        raised += isinstance(expected, tuple)
    assert 0 < raised < 2000


def _random_order(rng: random.Random, process, config: AnalysisConfig) -> list[VariabilitySlot]:
    order = enumerate_slots(process, config)
    order += [order[rng.randrange(len(order))] for _ in range(rng.randrange(4))] if order else []
    paths = [path for path, activity in iter_activities(process) if activity.kind not in config.join_point_kinds]
    order += [VariabilitySlot(paths[rng.randrange(len(paths))], "before") for _ in range(2)] if paths else []
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
        actual = _outcome(lambda: list(sweep_case(process, order, config).series))
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
        actual = _outcome(lambda: list(sweep_case(process, order[:count], config).series))
        assert actual == expected
