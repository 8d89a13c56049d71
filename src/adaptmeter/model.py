"""Activity-tree model of a BPEL-style process.

A process is a named tree of activities. Basic activities (receive,
invoke, reply, assign) are atomic leaves; structured activities
(sequence, switch, pick, flow, while) order their members and are the
only nodes with children. Every node has a stable address, its path: a
plain ``str`` of the form ``/process/sequence[0]/switch[2]/invoke[0]``,
used as the key for advice bindings and per-node metric results.
`path_kind` reads the kind of its last step and `path_order` sorts
paths in the tree's order. The model keeps only what the metric and the
selectors read: the XML syntax around the tree (branch wrappers,
declaration sections) is checked by the parser, not kept.

Every record of the package is an immutable slotted value object (see
`Record`), and a path is an immutable string, so the model is safe to
share across threads. Each process builds one pre-order `ProcessIndex`
as it is constructed, and every layer reads its nodes from there
instead of walking the tree.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import ConfigError, StructuralError

BASIC_KINDS = frozenset({"receive", "invoke", "reply", "assign"})
STRUCTURED_KINDS = frozenset({"sequence", "switch", "pick", "flow", "while"})
ACTIVITY_KINDS = BASIC_KINDS | STRUCTURED_KINDS

# The structured kinds whose children are alternative branches rather
# than co-executed members.
BRANCHING_KINDS = frozenset({"switch", "pick"})

# Canonical advice-type order, used everywhere sets of advice types are
# counted, enumerated, or displayed.
ADVICE_TYPES = ("before", "around", "after")

DEFAULT_JOIN_POINT_KINDS = frozenset({"invoke", "receive", "reply"})

# XML character references let a name hold a line break, a tab or a C1
# control (U+0080-U+009F; U+009B is CSI on some terminals). Text output
# and diagnostics spell them as escapes through this str.translate table,
# so each row and each message stays on one line, also for readers that
# split lines as str.splitlines does, and no name sends a control
# sequence to a terminal. Every character it escapes is unprintable, so a
# text for which str.isprintable holds passes through it unchanged.
_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r", "\t": "\\t", "\u2028": "\\u2028", "\u2029": "\\u2029",
                           **{chr(code): f"\\x{code:x}" for code in range(0x80, 0xA0)}})


# Sets a record field from ``__init__``, past Record.__setattr__.
_set = object.__setattr__


class Record:
    """Base of the package's immutable value records.

    A record's fields are its ``__slots__`` in order, except private
    (``_``-prefixed) slots, which may cache derived values. ``__init__``
    sets each field once with `_set`; afterwards assigning or deleting an
    attribute raises AttributeError. Equality (same class, equal field
    values), the hash, the repr (``Name(field=value, ...)``) and pickling
    and copying (which rebuild through ``__init__``) derive from the fields.
    `Activity` and `ProcessModel` hold ``attributes`` as a read-only
    mapping over their own copy, so assigning an item raises TypeError.
    Those two records are unhashable: a mapping has no hash, and a hash
    over ``children`` would recurse through a deep tree.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # One C call reads every field: the tuple, or the value of a lone field.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # A read-only mapping does not pickle or copy; its plain dict does.
        values = map(self.__getattribute__, self._fields)
        return self.__class__, tuple(dict(value) if isinstance(value, MappingProxyType) else value for value in values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _unnamed(attributes: Mapping[str, str] | None) -> Mapping[str, str]:
    """A read-only view of a record's own copy of ``attributes``, which must not hold the name."""
    copy = dict(attributes or {})
    if "name" in copy:
        raise StructuralError("a name goes in the name field, not in attributes")
    return MappingProxyType(copy)


class Activity(Record):
    """One node of the activity tree.

    ``kind`` is in `BASIC_KINDS` (a leaf) or `STRUCTURED_KINDS`; callers
    test those sets. ``attributes`` holds everything except ``name``
    (e.g. ``operation`` and ``partnerLink`` on messaging activities); a
    ``"name"`` key there raises StructuralError. A switch's or pick's
    children are its branches; the <case>/<otherwise> or
    <onMessage>/<onAlarm> elements that wrap them in XML are not kept.
    An activity has no hash (see `Record`).
    """

    __slots__ = ("kind", "name", "attributes", "children")
    __hash__ = None

    def __init__(
        self,
        kind: str,
        name: str | None = None,
        attributes: Mapping[str, str] | None = None,
        children: tuple[Activity, ...] = (),
    ) -> None:
        if kind not in ACTIVITY_KINDS:
            raise StructuralError(f"unknown activity kind <{kind}>")
        if kind in BASIC_KINDS and children:
            raise StructuralError(f"basic activity <{kind}> cannot have children")
        if kind in BRANCHING_KINDS and not children:
            raise StructuralError(f"<{kind}> requires at least one branch")
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "attributes", _unnamed(attributes))
        _set(self, "children", children)


def path_kind(path: str) -> str:
    """The kind of the activity at ``path``: the name of its last step."""
    return path[path.rindex("/") + 1 : path.rindex("[")]


def path_order(path: str) -> tuple:
    """Sort key of a path in the tree's depth-first pre-order.

    ``<`` on paths compares their plain text, which is not the tree's
    order. This key compares the sibling indices step by step, which for
    paths of one tree is pre-order, and breaks ties between trees by the
    text.
    """
    return tuple(map(int, re.findall(r"\[(\d+)\]", path))), path


class ProcessIndex(Record):
    """Pre-order ranks of one activity tree, shared by every layer.

    ``ProcessIndex(root)`` indexes the tree under ``root`` in one
    iterative pre-order pass, which builds each child's path text from
    its parent's with one f-string. Rank 0 is the root. The node at rank
    r has address ``paths[r]``, activity ``activities[r]`` and parent rank
    ``parents[r]`` (-1 at the root); its subtree is exactly the ranks
    r .. ``ends[r]`` - 1. ``by_kind`` lists each kind's ranks in
    ascending order. So u is a descendant-or-self of v iff
    v <= u < ends[v]: the pre/post-plane containment test of Grust,
    "Accelerating XPath Location Steps" (SIGMOD 2002). `ranks_with` adds
    its value index: one posting table per (kind, attribute), built on
    the first lookup. Two indexes are equal only when they are the same
    object, and a repr names only the object; a copy or a pickle indexes
    the same root again, with no postings yet.
    """

    __slots__ = ("paths", "activities", "parents", "ends", "by_kind", "_postings")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __repr__ = object.__repr__

    def __init__(self, root: Activity) -> None:
        paths, activities, parents = [], [], []
        by_kind: dict[str, list[int]] = {}
        # Each entry carries the node's path text; each child's is built once, here.
        stack = [(f"/process/{root.kind}[0]", root, -1)]
        while stack:
            text, activity, parent = stack.pop()
            rank = len(activities)
            paths.append(text)
            activities.append(activity)
            parents.append(parent)
            by_kind.setdefault(activity.kind, []).append(rank)
            if activity.children:
                stack += reversed([(f"{text}/{child.kind}[{index}]", child, rank)
                                   for index, child in enumerate(activity.children)])
        ends = list(range(1, len(activities) + 1))
        # Descendants outrank their ancestors, so sweeping ranks downwards
        # closes every subtree before it extends its parent's.
        for rank in range(len(activities) - 1, 0, -1):
            ends[parents[rank]] = max(ends[parents[rank]], ends[rank])
        _set(self, "paths", tuple(paths))
        _set(self, "activities", tuple(activities))
        _set(self, "parents", tuple(parents))
        _set(self, "ends", tuple(ends))
        _set(self, "by_kind", {kind: tuple(ranks) for kind, ranks in by_kind.items()})
        _set(self, "_postings", {})

    def __reduce__(self):
        return self.__class__, (self.activities[0],)

    def ranks_with(self, kind: str, attribute: str, value: str) -> tuple[int, ...]:
        """Ascending ranks of ``kind`` whose ``attribute`` (``name``: the
        activity's name) equals ``value``. Each (kind, attribute) table is
        built whole on first use, then published: a race only rebuilds it.
        """
        table = self._postings.get((kind, attribute))
        if table is None:
            table = {}
            for rank in self.by_kind.get(kind, ()):
                actual = attribute_value(self.activities[rank], attribute)
                if actual is not None:
                    table.setdefault(actual, []).append(rank)
            table = self._postings[kind, attribute] = {key: tuple(ranks) for key, ranks in table.items()}
        return table.get(value, ())


class ProcessModel(Record):
    """A parsed process: its name and the rooted activity tree.

    ``attributes`` keeps the process element's own attributes other than
    ``name`` so selector predicates can match against them. The
    <partnerLinks> and <variables> sections are not kept. The tree's
    `ProcessIndex` is built with the model, once its checks pass.
    """

    __slots__ = ("name", "root", "attributes", "_index")
    __hash__ = None

    def __init__(self, name: str, root: Activity, attributes: Mapping[str, str] | None = None) -> None:
        if not name:
            raise StructuralError("process requires a non-empty name")
        if root.kind not in STRUCTURED_KINDS:
            raise StructuralError(f"process root activity must be structured, got <{root.kind}>")
        _set(self, "name", name)
        _set(self, "root", root)
        _set(self, "attributes", _unnamed(attributes))
        _set(self, "_index", ProcessIndex(root))

    @property
    def index(self) -> ProcessIndex:
        """The tree's pre-order index."""
        return self._index


class AnalysisConfig(Record):
    """Knobs for join-point classification and metric evaluation.

    ``reference_value`` is the per-activity advice maximum R used to
    normalise variability values into [0, 1]. ``count_mode`` picks how
    repeated advice types at one join point are counted: ``set``
    collapses duplicates, ``raw-clamped`` counts them but clamps at R.
    """

    __slots__ = ("reference_value", "join_point_kinds", "count_mode", "include_disabled_aspects")

    def __init__(
        self,
        reference_value: int = 3,
        join_point_kinds: frozenset[str] = DEFAULT_JOIN_POINT_KINDS,
        count_mode: str = "set",
        include_disabled_aspects: bool = False,
    ) -> None:
        if type(reference_value) is not int or reference_value < 1:
            raise ConfigError("reference value must be an integer >= 1")
        try:
            # A lone string is iterable too, but its items are letters.
            kinds = None if isinstance(join_point_kinds, (str, bytes)) else frozenset(join_point_kinds)
        except TypeError:  # not iterable, or an unhashable item
            kinds = None
        if kinds is None or not all(isinstance(kind, str) for kind in kinds):
            raise ConfigError(f"join-point kinds must be a collection of kind names, got {join_point_kinds!r}")
        if not kinds:
            raise ConfigError("join-point kinds must not be empty")
        bad = kinds - BASIC_KINDS
        if bad:
            raise ConfigError(f"join-point kinds must be basic activity kinds, got: {', '.join(sorted(bad))}")
        if count_mode not in ("set", "raw-clamped"):
            raise ConfigError(f"count mode must be 'set' or 'raw-clamped', got {count_mode!r}")
        if type(include_disabled_aspects) is not bool:
            raise ConfigError(f"include disabled aspects must be True or False, got {include_disabled_aspects!r}")
        _set(self, "reference_value", reference_value)
        _set(self, "join_point_kinds", kinds)
        _set(self, "count_mode", count_mode)
        _set(self, "include_disabled_aspects", include_disabled_aspects)


def attribute_value(target: Activity | ProcessModel, attribute: str) -> str | None:
    """The value a selector predicate on ``attribute`` tests: ``name`` is the name."""
    return target.name if attribute == "name" else target.attributes.get(attribute)


def iter_activities(process: ProcessModel) -> Iterator[tuple[str, Activity]]:
    """Every (path, activity) pair in depth-first pre-order, root first."""
    index = process.index
    return zip(index.paths, index.activities)


def resolve_path(process: ProcessModel, path: str) -> Activity:
    """Return the unique activity addressed by ``path``.

    Raises ValueError when the path does not resolve in this process.
    """
    index = process.index
    # The index's paths are in path_order, so the path can only be at its bisection point.
    rank = bisect_left(index.paths, path_order(path), key=path_order)
    if rank == len(index.paths) or index.paths[rank] != path:
        raise ValueError(f"path {path} does not resolve in process {process.name!r}")
    return index.activities[rank]


def find_join_points(process: ProcessModel, config: AnalysisConfig) -> list[tuple[str, Activity]]:
    """All join-point activities in pre-order."""
    return [(path, activity) for path, activity in iter_activities(process) if activity.kind in config.join_point_kinds]
