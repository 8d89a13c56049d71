"""Selector evaluation and the advice-binding profile.

Evaluating a pointcut selector against a process yields activity paths;
binding a set of aspects turns those matches into a VariabilityProfile,
the map from join-point path to attached advice types that the metrics
engine consumes. Matches on activities that cannot carry advice are
collected as warnings rather than errors, as are selectors that match
nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping, Sequence

from .model import ADVICE_TYPES, Activity, ActivityPath, AnalysisConfig, ProcessModel, Record, _set
from .parsing import Aspect
from .selectors import PointcutSelector


class JoinPointBinding(Record):
    """One advice attachment: which aspect/pointcut bound which advice type where."""

    __slots__ = ("aspect_name", "pointcut_name", "path", "advice_type")

    def __init__(self, aspect_name: str, pointcut_name: str, path: ActivityPath, advice_type: str) -> None:
        _set(self, "aspect_name", aspect_name)
        _set(self, "pointcut_name", pointcut_name)
        _set(self, "path", path)
        _set(self, "advice_type", advice_type)


class VariabilityProfile(Record):
    """Advice attachments per join point.

    ``entries`` maps each bound path to the set of advice types present
    there; ``raw_counts`` keeps per-type multiplicities for reporting and
    for the raw-clamped count mode; ``bindings`` is the provenance.
    """

    __slots__ = ("entries", "bindings", "raw_counts", "warnings")

    def __init__(
        self,
        entries: Mapping[ActivityPath, frozenset[str]],
        bindings: tuple[JoinPointBinding, ...],
        raw_counts: Mapping[ActivityPath, Mapping[str, int]],
        warnings: tuple[str, ...] = (),
    ) -> None:
        _set(self, "entries", entries)
        _set(self, "bindings", bindings)
        _set(self, "raw_counts", raw_counts)
        _set(self, "warnings", warnings)

    def advice_types(self, path: ActivityPath) -> frozenset[str]:
        return self.entries.get(path, frozenset())

    @classmethod
    def empty(cls) -> "VariabilityProfile":
        return cls({}, (), {})

    @classmethod
    def from_assignments(cls, assignments: Iterable[tuple[ActivityPath, str]]) -> "VariabilityProfile":
        """Build a profile directly from (path, advice type) pairs.

        Used when attachments are chosen programmatically (sweeps, tests)
        rather than matched from aspect files; provenance is synthetic.
        """
        bindings = tuple(
            JoinPointBinding("direct", f"slot{index}", path, advice_type)
            for index, (path, advice_type) in enumerate(assignments)
        )
        return cls._from_bindings(bindings, ())

    @classmethod
    def _from_bindings(
        cls, bindings: Sequence[JoinPointBinding], warnings: tuple[str, ...]
    ) -> "VariabilityProfile":
        ordered = sorted(
            bindings,
            key=lambda b: (b.path.order_key, b.aspect_name, b.pointcut_name, ADVICE_TYPES.index(b.advice_type)),
        )
        entries: dict[ActivityPath, frozenset[str]] = {}
        raw_counts: dict[ActivityPath, dict[str, int]] = {}
        for binding in ordered:
            entries[binding.path] = entries.get(binding.path, frozenset()) | {binding.advice_type}
            counts = raw_counts.setdefault(binding.path, {})
            counts[binding.advice_type] = counts.get(binding.advice_type, 0) + 1
        return cls(entries, tuple(ordered), raw_counts, warnings)


def _predicates_hold(predicates: Sequence[tuple[str, str]], target: Activity | ProcessModel) -> bool:
    for attribute, value in predicates:
        actual = target.name if attribute == "name" else target.attributes.get(attribute)
        if actual != value:
            return False
    return True


def _within(ranks: Sequence[int], contexts: Sequence[int], ends: Sequence[int]) -> list[int]:
    """The ranks that lie in some context's subtree; both lists ascending."""
    # Subtrees nest or are disjoint, so the outermost contexts cover the
    # rest: their rank ranges are disjoint and sorted.
    starts: list[int] = []
    stops: list[int] = []
    for context in contexts:
        if not stops or context >= stops[-1]:
            starts.append(context)
            stops.append(ends[context])
    return [rank for rank in ranks if (i := bisect_right(starts, rank)) and rank < stops[i - 1]]


def match_selector(selector: PointcutSelector, process: ProcessModel) -> list[ActivityPath]:
    """All activities reached by the selector, in pre-order.

    Each step is a descendant-or-self search from the previous step's
    matches; the first step searches from the document root, which a
    ``process`` step may match itself. A final match on the document
    root has no activity path and is dropped from the result.

    A step's first predicate picks its candidates from the index's
    postings (`ProcessIndex.ranks_with`) and only the rest are tested on
    them; a step without predicates takes every rank of its kind.
    """
    index = process.index
    # The document root (the <process> element) contains every activity.
    at_root = True
    ranks: Sequence[int] = ()
    for step in selector.steps:
        found = index.by_kind.get(step.element, ())
        if step.predicates:
            (attribute, value), *rest = step.predicates
            found = index.ranks_with(step.element, attribute, value)
            if rest:
                found = [rank for rank in found if _predicates_hold(rest, index.activities[rank])]
        ranks = found if at_root else _within(found, ranks, index.ends)
        at_root = at_root and step.element == "process" and _predicates_hold(step.predicates, process)
        if not ranks and not at_root:
            break
    return [index.paths[rank] for rank in ranks]


def bind_aspects(
    process: ProcessModel, aspects: Sequence[Aspect], config: AnalysisConfig
) -> VariabilityProfile:
    """Match every pointcut of every active aspect and assemble the profile.

    Each matched join point yields one binding carrying the aspect's
    advice type. Disabled aspects are skipped unless the config says
    otherwise; matches on non-join-point activities become warnings.
    """
    bindings: list[JoinPointBinding] = []
    warnings: list[str] = []
    for aspect in aspects:
        if not aspect.enabled and not config.include_disabled_aspects:
            continue
        for pointcut in aspect.pointcuts:
            paths = match_selector(pointcut.selector, process)
            if not paths:
                warnings.append(f"aspect '{aspect.name}' pointcut '{pointcut.name}': selector matched no activities")
                continue
            for path in paths:
                if path.kind in config.join_point_kinds:
                    bindings.append(JoinPointBinding(aspect.name, pointcut.name, path, aspect.advice_type))
                else:
                    warnings.append(
                        f"aspect '{aspect.name}' pointcut '{pointcut.name}': "
                        f"match at {path} is not a join point (<{path.kind}>); skipped"
                    )
    return VariabilityProfile._from_bindings(bindings, tuple(warnings))
