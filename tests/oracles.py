"""Naive tree walkers kept as test oracles.

Each function recomputes, by walking the activity tree directly, a
result that the library derives from the shared pre-order process
index. They are slow on purpose and easy to check by hand.
"""

from __future__ import annotations

from fractions import Fraction

from adaptmeter import (
    Activity,
    ActivityPath,
    AnalysisConfig,
    NodeVD,
    PointcutSelector,
    ProcessModel,
    SelectorStep,
    VariabilityProfile,
    is_join_point,
    variability_degree,
    variability_value,
)

BRANCHING = ("switch", "pick")


def walk(process: ProcessModel):
    """Every (path, activity) pair in pre-order, by recursion."""

    def visit(path: ActivityPath, activity: Activity):
        yield path, activity
        for index, child in enumerate(activity.children):
            yield from visit(path.child(child.kind, index), child)

    yield from visit(ActivityPath.root(process.root.kind), process.root)


def is_ancestor_of(path: ActivityPath, other: ActivityPath) -> bool:
    """True when ``path`` is a proper prefix of ``other``."""
    return len(path.steps) < len(other.steps) and other.steps[: len(path.steps)] == path.steps


def is_eligible_child(activity: Activity, config: AnalysisConfig) -> bool:
    """A join point, or a structured activity with a join-point descendant."""
    if is_join_point(activity, config):
        return True
    return any(is_eligible_child(child, config) for child in activity.children)


def divisor(activity: Activity, config: AnalysisConfig) -> int:
    if activity.kind in BRANCHING:
        return len(activity.children)
    return sum(1 for child in activity.children if is_eligible_child(child, config))


def aggregate(
    activity: Activity, path: ActivityPath, profile: VariabilityProfile, config: AnalysisConfig
) -> NodeVD:
    """Recursively compute the VD tree rooted at one activity."""
    if activity.is_basic:
        if is_join_point(activity, config):
            vv = variability_value(profile, path, config)
            return NodeVD(path, activity.kind, variability_degree(vv, config.reference_value), vv=vv)
        return NodeVD(path, activity.kind, Fraction(0))
    children = tuple(
        aggregate(child, path.child(child.kind, index), profile, config)
        for index, child in enumerate(activity.children)
    )
    n = divisor(activity, config)
    total = sum((child.vd for child in children), Fraction(0))
    return NodeVD(path, activity.kind, total / n if n else Fraction(0), n_used=n, children=children)


def aggregate_process(process: ProcessModel, profile: VariabilityProfile, config: AnalysisConfig) -> NodeVD:
    return aggregate(process.root, ActivityPath.root(process.root.kind), profile, config)


def join_point_weights(process: ProcessModel, config: AnalysisConfig) -> dict[ActivityPath, Fraction]:
    """Product of 1/n over each join point's proper ancestors."""
    nodes = dict(walk(process))
    weights = {}
    for path, activity in nodes.items():
        if is_join_point(activity, config):
            weight = Fraction(1)
            for depth in range(1, len(path.steps)):
                weight /= divisor(nodes[ActivityPath(path.steps[:depth])], config)
            weights[path] = weight
    return weights


def _step_holds(step: SelectorStep, kind: str, name, attributes) -> bool:
    if step.element != kind:
        return False
    return all((name if key == "name" else attributes.get(key)) == value for key, value in step.predicates)


def match_selector(selector: PointcutSelector, process: ProcessModel) -> list[ActivityPath]:
    """Descendant-or-self location steps by rescanning the tree per context."""
    nodes = list(walk(process))
    contexts: list[ActivityPath | None] = [None]  # None is the <process> element
    for step in selector.steps:
        matched: dict[ActivityPath | None, None] = {}
        for context in contexts:
            if context is None and _step_holds(step, "process", process.name, process.attributes):
                matched.setdefault(None)
            for path, activity in nodes:
                inside = context is None or path == context or is_ancestor_of(context, path)
                if inside and _step_holds(step, activity.kind, activity.name, activity.attributes):
                    matched.setdefault(path)
        contexts = list(matched)
    return sorted((path for path in contexts if path is not None), key=lambda p: p.order_key)


def sweep_series(process: ProcessModel, order, config: AnalysisConfig) -> list[tuple[int, Fraction]]:
    """PAM after each slot, re-aggregating the whole tree at every count."""
    series = []
    for count in range(len(order) + 1):
        profile = VariabilityProfile.from_assignments((slot.path, slot.advice_type) for slot in order[:count])
        series.append((count, aggregate_process(process, profile, config).vd))
    return series
