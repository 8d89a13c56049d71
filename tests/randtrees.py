"""Seeded random process trees and profiles for property tests."""

from __future__ import annotations

import random

from adaptmeter import Activity, AnalysisConfig, ProcessModel
from adaptmeter.matching import VariabilityProfile
from adaptmeter.model import ADVICE_TYPES, BASIC_KINDS, is_join_point, iter_activities

BASIC = ("receive", "invoke", "reply", "assign")
STRUCTURED = ("sequence", "switch", "pick", "flow", "while")

_MESSAGING = frozenset({"receive", "invoke", "reply"})


def random_process(
    rng: random.Random,
    max_depth: int = 4,
    max_nodes: int = 20,
    live_branches: bool = False,
) -> ProcessModel:
    """A random well-formed process with at most ``max_nodes`` activities.

    ``live_branches`` forces every switch/pick branch to contain at least
    one messaging activity, so saturating the default join points drives
    the process metric all the way to 1.
    """
    cap = rng.randint(2, max_nodes)
    root, _ = _subtree(rng, depth=1, cap=cap, max_depth=max_depth, force_structured=True)
    if live_branches:
        root = _with_live_branches(root)
    return ProcessModel(name=f"random-{rng.randrange(1_000_000)}", root=root)


def _subtree(
    rng: random.Random, depth: int, cap: int, max_depth: int, force_structured: bool = False
) -> tuple[Activity, int]:
    """Build a subtree of at most ``cap`` nodes; returns (activity, node count)."""
    structured_ok = cap >= 2 and depth < max_depth
    if not structured_ok or (not force_structured and rng.random() < 0.55):
        kind = BASIC[rng.randrange(len(BASIC))]
        attributes = {}
        if kind == "invoke" and rng.random() < 0.5:
            attributes["operation"] = f"op{rng.randrange(50)}"
        name = f"a{rng.randrange(1000)}" if rng.random() < 0.3 else None
        return Activity(kind, name, attributes), 1

    kind = STRUCTURED[rng.randrange(len(STRUCTURED))]
    used = 1
    n = rng.randint(1, min(3, cap - 1))
    children = []
    for i in range(n):
        remaining_siblings = n - i - 1
        child_cap = cap - used - remaining_siblings
        child, child_used = _subtree(rng, depth + 1, child_cap, max_depth)
        children.append(child)
        used += child_used
    # Draws that once chose branch wrappers, which the model no longer
    # keeps; still made so that every seed yields the same tree.
    if kind == "switch":
        rng.random()
    elif kind == "pick":
        for _ in range(n):
            rng.random()
    return Activity(kind, children=tuple(children)), used


def _has_messaging(activity: Activity) -> bool:
    if activity.kind in _MESSAGING:
        return True
    return any(_has_messaging(child) for child in activity.children)


def _with_live_branches(activity: Activity) -> Activity:
    """Swap kinds so every switch/pick branch contains a messaging activity."""
    if activity.kind in BASIC_KINDS:
        return activity
    children = list(activity.children)
    for index, child in enumerate(children):
        child = _with_live_branches(child)
        if activity.kind in ("switch", "pick") and not _has_messaging(child):
            child = _inject_messaging(child)
        children[index] = child
    return Activity(activity.kind, activity.name, activity.attributes, tuple(children))


def _inject_messaging(activity: Activity) -> Activity:
    if activity.kind in BASIC_KINDS:
        return Activity("invoke", activity.name, dict(activity.attributes))
    children = (_inject_messaging(activity.children[0]),) + activity.children[1:]
    return Activity(activity.kind, activity.name, activity.attributes, children)


def random_profile(
    rng: random.Random, process: ProcessModel, config: AnalysisConfig, density: float = 0.4
) -> VariabilityProfile:
    """Attach a random subset of advice types to each join point."""
    assignments = [
        (path, advice_type)
        for path, activity in iter_activities(process)
        if is_join_point(activity, config)
        for advice_type in ADVICE_TYPES
        if rng.random() < density
    ]
    return VariabilityProfile.from_assignments(assignments)


def shuffled_clone(activity: Activity, rng: random.Random) -> Activity:
    """Recursively permute children; basic leaves are shared, not copied."""
    if activity.kind in BASIC_KINDS:
        return activity
    order = list(range(len(activity.children)))
    rng.shuffle(order)
    children = tuple(shuffled_clone(activity.children[i], rng) for i in order)
    return Activity(activity.kind, activity.name, activity.attributes, children)


def shuffle_with_profile(
    process: ProcessModel, profile: VariabilityProfile, rng: random.Random
) -> tuple[ProcessModel, VariabilityProfile]:
    """Permute every structured node's children and carry the profile along.

    Advice assignments follow the leaf objects (shared between the two
    trees) to their new paths.
    """
    types_by_leaf = {}
    for path, activity in iter_activities(process):
        types = frozenset(profile.raw_counts.get(path, ()))
        if types:
            types_by_leaf[id(activity)] = sorted(types, key=ADVICE_TYPES.index)
    shuffled = ProcessModel(name=process.name, root=shuffled_clone(process.root, rng), attributes=process.attributes)
    assignments = [
        (path, advice_type)
        for path, activity in iter_activities(shuffled)
        if id(activity) in types_by_leaf
        for advice_type in types_by_leaf[id(activity)]
    ]
    return shuffled, VariabilityProfile.from_assignments(assignments)
