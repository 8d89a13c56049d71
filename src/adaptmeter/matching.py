"""Selector evaluation and the advice-binding profile.

Evaluating a pointcut selector against a process yields activity paths;
binding a set of aspects turns those matches into a VariabilityProfile,
the map from join-point path to attached advice types that the metrics
engine consumes. Matches on activities that cannot carry advice are
collected as warnings rather than errors, as are selectors that match
nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .model import Activity, AnalysisConfig, ProcessModel, Record, _set, attribute_value, check_advice_type, path_kind

if TYPE_CHECKING:
    from .parsing import Aspect
    from .selectors import PointcutSelector


class JoinPointBinding(Record):
    """One advice attachment: which aspect/pointcut bound which advice type where."""

    __slots__ = ("aspect_name", "pointcut_name", "path", "advice_type")

    def __init__(self, aspect_name: str, pointcut_name: str, path: str, advice_type: str) -> None:
        check_advice_type(advice_type)
        _set(self, "aspect_name", aspect_name)
        _set(self, "pointcut_name", pointcut_name)
        _set(self, "path", path)
        _set(self, "advice_type", advice_type)


class VariabilityProfile(Record):
    """Advice attachments per join point: the bindings and the warnings binding raised.

    The bindings keep the order they are given in, since PAM reads only
    the counts. ``raw_counts`` is a read-only view of the per-path
    ``{advice type: count}`` maps derived from them, in first-found order.
    """

    __slots__ = ("bindings", "warnings", "_counts")

    def __init__(self, bindings: Iterable[JoinPointBinding] = (), warnings: tuple[str, ...] = ()) -> None:
        bindings = tuple(bindings)
        counts: dict[str, dict[str, int]] = {}
        for binding in bindings:
            at_path = counts.setdefault(binding.path, {})
            at_path[binding.advice_type] = at_path.get(binding.advice_type, 0) + 1
        _set(self, "bindings", bindings)
        _set(self, "warnings", warnings)
        _set(self, "_counts", MappingProxyType({path: MappingProxyType(at_path) for path, at_path in counts.items()}))

    @property
    def raw_counts(self) -> Mapping[str, Mapping[str, int]]:
        return self._counts

    @classmethod
    def from_assignments(cls, assignments: Iterable[tuple[str, str]]) -> "VariabilityProfile":
        """Build a profile directly from (path, advice type) pairs.

        Used when attachments are chosen programmatically (tests)
        rather than matched from aspect files; provenance is synthetic.
        """
        return cls(
            JoinPointBinding("direct", f"slot{index}", path, advice_type)
            for index, (path, advice_type) in enumerate(assignments)
        )


def _predicates_hold(predicates: Sequence[tuple[str, str]], target: Activity | ProcessModel) -> bool:
    return all(attribute_value(target, attribute) == value for attribute, value in predicates)


def _within(ranks: Sequence[int], contexts: Sequence[int], ends: Sequence[int]) -> list[int]:
    """The ranks that are proper descendants of some context; both lists ascending."""
    # A staircase join (Grust, van Keulen and Teubner, VLDB 2003): subtrees
    # nest or are disjoint, so only the outermost contexts count, and each
    # takes the slice of ranks inside its own subtree.
    found: list[int] = []
    stop = 0
    for context in contexts:
        if context >= stop:
            stop = ends[context]
            found += ranks[bisect_right(ranks, context):bisect_left(ranks, stop)]
    return found


def match_selector(selector: PointcutSelector, process: ProcessModel) -> list[str]:
    """All activities reached by the selector, in pre-order.

    Each step searches the proper descendants of the previous step's
    matches, as XPath's ``//`` does. The first step searches the whole
    document, so only it may match the <process> element itself; a final
    match there has no activity path and is dropped from the result.

    A step's first predicate picks its candidates from the index's
    postings (`ProcessIndex.ranks_with`) and only the rest are tested on
    them; a step without predicates takes every rank of its kind.
    """
    index = process.index
    # While the contexts hold the document or its <process> element, they
    # contain every activity.
    at_root = True
    ranks: Sequence[int] = ()
    for position, (element, predicates) in enumerate(selector.steps):
        found = index.by_kind.get(element, ())
        if predicates:
            (attribute, value), *rest = predicates
            found = index.ranks_with(element, attribute, value)
            if rest:
                found = [rank for rank in found if _predicates_hold(rest, index.activities[rank])]
        ranks = found if at_root else _within(found, ranks, index.ends)
        at_root = position == 0 and element == "process" and _predicates_hold(predicates, process)
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
    Bindings come aspect by aspect, then pointcut by pointcut, and each
    pointcut's matches in pre-order.
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
                kind = path_kind(path)
                if kind in config.join_point_kinds:
                    bindings.append(JoinPointBinding(aspect.name, pointcut.name, path, aspect.advice_type))
                else:
                    warnings.append(
                        f"aspect '{aspect.name}' pointcut '{pointcut.name}': "
                        f"match at {path} is not a join point (<{kind}>); skipped"
                    )
    return VariabilityProfile(bindings, tuple(warnings))
