"""Activity-tree model of a BPEL-style process.

A process is a named tree of activities. Basic activities (receive,
invoke, reply, assign) are atomic leaves; structured activities
(sequence, switch, pick, flow, while) order their members and are the
only nodes with children. Every node has a stable address of the form
``/process/sequence[0]/switch[2]/invoke[0]`` used as the key for advice
bindings and per-node metric results.

The model is immutable after construction and safe to share across
threads. Each process builds one pre-order `ProcessIndex` on first use,
and every layer reads its nodes from there instead of walking the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .errors import ConfigError, StructuralError

BASIC_KINDS = frozenset({"receive", "invoke", "reply", "assign"})
STRUCTURED_KINDS = frozenset({"sequence", "switch", "pick", "flow", "while"})
ACTIVITY_KINDS = BASIC_KINDS | STRUCTURED_KINDS

# Structured kinds whose children are alternative branches rather than
# co-executed members.
BRANCHING_KINDS = frozenset({"switch", "pick"})

# Canonical advice-type order, used everywhere sets of advice types are
# counted, enumerated, or displayed.
ADVICE_TYPES = ("before", "around", "after")

DEFAULT_JOIN_POINT_KINDS = frozenset({"invoke", "receive", "reply"})

_SWITCH_BRANCH_ELEMENTS = frozenset({"case", "otherwise"})
_PICK_BRANCH_ELEMENTS = frozenset({"onMessage", "onAlarm"})


@dataclass(frozen=True)
class BranchLabel:
    """Wrapper element of one switch/pick branch.

    ``element`` is case, otherwise, onMessage, or onAlarm; ``attributes``
    keeps the wrapper's own attributes (condition text, message or alarm
    descriptor) verbatim. They are never evaluated.
    """

    element: str
    attributes: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Activity:
    """One node of the activity tree.

    ``attributes`` holds everything except ``name`` (e.g. ``operation``
    and ``partnerLink`` on messaging activities). ``branch_labels`` is
    set only on switch/pick and has one entry per child.
    """

    kind: str
    name: str | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)
    children: tuple[Activity, ...] = ()
    branch_labels: tuple[BranchLabel, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ACTIVITY_KINDS:
            raise StructuralError(f"unknown activity kind <{self.kind}>")
        if self.kind in BASIC_KINDS:
            if self.children:
                raise StructuralError(f"basic activity <{self.kind}> cannot have children")
            if self.branch_labels is not None:
                raise StructuralError(f"basic activity <{self.kind}> cannot have branch labels")
            return
        if self.kind in BRANCHING_KINDS:
            if not self.children:
                raise StructuralError(f"<{self.kind}> requires at least one branch")
            labels = self.branch_labels or ()
            if len(labels) != len(self.children):
                raise StructuralError(f"<{self.kind}> requires one branch label per child")
            allowed = _SWITCH_BRANCH_ELEMENTS if self.kind == "switch" else _PICK_BRANCH_ELEMENTS
            for label in labels:
                if label.element not in allowed:
                    raise StructuralError(f"<{label.element}> is not a valid <{self.kind}> branch")
            if self.kind == "switch":
                if sum(1 for label in labels if label.element == "otherwise") > 1:
                    raise StructuralError("<switch> allows at most one <otherwise> branch")
        elif self.branch_labels is not None:
            raise StructuralError(f"<{self.kind}> does not take branch labels")

    @property
    def is_basic(self) -> bool:
        return self.kind in BASIC_KINDS

    @property
    def is_structured(self) -> bool:
        return self.kind in STRUCTURED_KINDS


_PATH_STEP_RE = re.compile(r"([A-Za-z]+)\[(\d+)\]")


@dataclass(frozen=True)
class ActivityPath:
    """Stable address of one activity: (kind, sibling index) steps from the root.

    Paths order by depth-first pre-order of the tree, which for sibling
    indices is plain lexicographic order.
    """

    steps: tuple[tuple[str, int], ...]

    @classmethod
    def root(cls, kind: str) -> ActivityPath:
        return cls(((kind, 0),))

    @classmethod
    def from_text(cls, text: str) -> ActivityPath:
        """Parse the canonical ``/process/sequence[0]/invoke[2]`` form."""
        prefix = "/process/"
        if not text.startswith(prefix):
            raise ValueError(f"activity path must start with {prefix!r}: {text!r}")
        steps = []
        for part in text[len(prefix):].split("/"):
            match = _PATH_STEP_RE.fullmatch(part)
            if match is None:
                raise ValueError(f"bad path step {part!r} in {text!r}")
            steps.append((match.group(1), int(match.group(2))))
        if not steps:
            raise ValueError(f"empty activity path: {text!r}")
        return cls(tuple(steps))

    def child(self, kind: str, index: int) -> ActivityPath:
        return ActivityPath(self.steps + ((kind, index),))

    @property
    def kind(self) -> str:
        return self.steps[-1][0]

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def order_key(self) -> tuple:
        return (tuple(index for _, index in self.steps), self.steps)

    def __lt__(self, other: ActivityPath) -> bool:
        return self.order_key < other.order_key

    def __str__(self) -> str:
        return "/process/" + "/".join(f"{kind}[{index}]" for kind, index in self.steps)


@dataclass(frozen=True, eq=False)
class ProcessIndex:
    """Pre-order ranks of one activity tree, shared by every layer.

    Rank 0 is the root. The node at rank r has address ``paths[r]``,
    activity ``activities[r]`` and parent rank ``parents[r]`` (-1 at the
    root); its subtree is exactly the ranks r .. ``ends[r]`` - 1.
    ``by_kind`` lists each kind's ranks in ascending order. So u is a
    descendant-or-self of v iff v <= u < ends[v]: the pre/post-plane
    containment test of Grust, "Accelerating XPath Location Steps"
    (SIGMOD 2002).
    """

    paths: tuple[ActivityPath, ...]
    activities: tuple[Activity, ...]
    parents: tuple[int, ...]
    ends: tuple[int, ...]
    by_kind: Mapping[str, tuple[int, ...]]

    @classmethod
    def build(cls, root: Activity) -> ProcessIndex:
        """Index a tree in one iterative pre-order pass."""
        paths, activities, parents = [], [], []
        by_kind: dict[str, list[int]] = {}
        stack = [(ActivityPath.root(root.kind), root, -1)]
        while stack:
            path, activity, parent = stack.pop()
            rank = len(activities)
            paths.append(path)
            activities.append(activity)
            parents.append(parent)
            by_kind.setdefault(activity.kind, []).append(rank)
            children = reversed(tuple(enumerate(activity.children)))
            stack.extend((path.child(child.kind, index), child, rank) for index, child in children)
        ends = list(range(1, len(activities) + 1))
        # Descendants outrank their ancestors, so sweeping ranks downwards
        # closes every subtree before it extends its parent's.
        for rank in range(len(activities) - 1, 0, -1):
            ends[parents[rank]] = max(ends[parents[rank]], ends[rank])
        kinds = {kind: tuple(ranks) for kind, ranks in by_kind.items()}
        return cls(tuple(paths), tuple(activities), tuple(parents), tuple(ends), kinds)

    def children(self, rank: int) -> Iterator[int]:
        """Ranks of the node's children, in order."""
        child = rank + 1
        while child < self.ends[rank]:
            yield child
            child = self.ends[child]


@dataclass(frozen=True)
class ProcessModel:
    """A parsed process: declarations plus the rooted activity tree.

    ``attributes`` keeps the process element's own attributes other than
    ``name`` so selector predicates can match against them.
    """

    name: str
    root: Activity
    partner_links: tuple[tuple[str, Mapping[str, str]], ...] = ()
    variables: tuple[tuple[str, Mapping[str, str]], ...] = ()
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise StructuralError("process requires a non-empty name")
        if not self.root.is_structured:
            raise StructuralError("process root activity must be structured")

    @cached_property
    def index(self) -> ProcessIndex:
        """The tree's pre-order index, built on first use."""
        return ProcessIndex.build(self.root)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for join-point classification and metric evaluation.

    ``reference_value`` is the per-activity advice maximum R used to
    normalise variability values into [0, 1]. ``count_mode`` picks how
    repeated advice types at one join point are counted: ``set``
    collapses duplicates, ``raw-clamped`` counts them but clamps at R.
    """

    reference_value: int = 3
    join_point_kinds: frozenset[str] = DEFAULT_JOIN_POINT_KINDS
    count_mode: str = "set"
    include_disabled_aspects: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.reference_value, int) or self.reference_value < 1:
            raise ConfigError("reference value must be an integer >= 1")
        kinds = frozenset(self.join_point_kinds)
        if not kinds:
            raise ConfigError("join-point kinds must not be empty")
        bad = kinds - BASIC_KINDS
        if bad:
            raise ConfigError(f"join-point kinds must be basic activity kinds, got: {', '.join(sorted(bad))}")
        object.__setattr__(self, "join_point_kinds", kinds)
        if self.count_mode not in ("set", "raw-clamped"):
            raise ConfigError(f"count mode must be 'set' or 'raw-clamped', got {self.count_mode!r}")


def iter_activities(process: ProcessModel) -> Iterator[tuple[ActivityPath, Activity]]:
    """Every (path, activity) pair in depth-first pre-order, root first."""
    index = process.index
    return zip(index.paths, index.activities)


def resolve_path(process: ProcessModel, path: ActivityPath) -> Activity:
    """Return the unique activity addressed by ``path``.

    Raises ValueError when the path does not resolve in this process.
    """
    kind, index = path.steps[0]
    if (kind, index) != (process.root.kind, 0):
        raise ValueError(f"path {path} does not resolve: root is <{process.root.kind}>")
    node = process.root
    for kind, index in path.steps[1:]:
        if index >= len(node.children):
            raise ValueError(f"path {path} does not resolve: no child {index} under <{node.kind}>")
        node = node.children[index]
        if node.kind != kind:
            raise ValueError(f"path {path} does not resolve: child {index} is <{node.kind}>, not <{kind}>")
    return node


def is_join_point(activity: Activity, config: AnalysisConfig) -> bool:
    """True when advice can attach to this activity."""
    return activity.kind in config.join_point_kinds


def find_join_points(process: ProcessModel, config: AnalysisConfig) -> list[tuple[ActivityPath, Activity]]:
    """All join-point activities in pre-order."""
    return [(path, activity) for path, activity in iter_activities(process) if is_join_point(activity, config)]
