"""Seeded input generator for the adapt-meter benchmark.

The generator builds process trees and aspect sets in its own small
model, writes them as XML files, and derives every expected result from
its own construction: which join points each pointcut selects is known
from the bookkeeping done while building the tree, and PAM comes from an
evaluator below that follows the aggregation rules README states. It
never imports adaptmeter, so a defect in the program cannot leak into
the expected values.

No selector repeats a step kind, so the expected matches are the same
under descendant and descendant-or-self step semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from pathlib import Path

JOIN_KINDS = frozenset({"invoke", "receive", "reply"})
BRANCHING = frozenset({"switch", "pick"})
ADVICE_TYPES = ("before", "around", "after")
R = 3


class Node:
    """One activity; ``labels`` holds (element, attrs) per switch/pick branch."""

    __slots__ = ("kind", "attrs", "children", "labels")

    def __init__(self, kind, attrs=None, children=(), labels=None):
        self.kind = kind
        self.attrs = dict(attrs or {})
        self.children = list(children)
        self.labels = labels


@dataclass
class Process:
    name: str
    root: Node
    path: Path | None = None

    def join_points(self) -> list[Node]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind in JOIN_KINDS:
                out.append(node)
            stack.extend(node.children)
        return out


@dataclass
class Aspect:
    name: str
    advice: str
    pointcuts: list[tuple[str, list[Node]]]  # (selector text, expected join points)
    path: Path | None = None


# ---------------------------------------------------------------- evaluator


def _live(node: Node) -> bool:
    return node.kind in JOIN_KINDS or any(_live(child) for child in node.children)


def degree(node: Node, vv: dict[int, int]) -> Fraction:
    """VD of ``node`` given the variability value of each join point (by id)."""
    if node.kind in JOIN_KINDS:
        return Fraction(vv.get(id(node), 0), R)
    if not node.children:
        return Fraction(0)
    total = sum((degree(child, vv) for child in node.children), Fraction(0))
    n = len(node.children) if node.kind in BRANCHING else sum(_live(child) for child in node.children)
    return total / n if n else Fraction(0)


def saturated(process: Process) -> Fraction:
    return degree(process.root, {id(jp): R for jp in process.join_points()})


def slot_values(process: Process) -> list[Fraction]:
    """PAM gained by each single advice slot: weight(join point) / R, three per join point."""
    values = []

    def walk(node: Node, weight: Fraction) -> None:
        if node.kind in JOIN_KINDS:
            values.extend([weight / R] * R)
            return
        n = len(node.children) if node.kind in BRANCHING else sum(_live(child) for child in node.children)
        for child in node.children:
            if _live(child):
                walk(child, weight / n)

    walk(process.root, Fraction(1))
    return values


def expected_pam(process: Process, aspects: list[Aspect]) -> Fraction:
    types: dict[int, set[str]] = {}
    for aspect in aspects:
        for _, matched in aspect.pointcuts:
            for node in matched:
                types.setdefault(id(node), set()).add(aspect.advice)
    return degree(process.root, {key: len(value) for key, value in types.items()})


# --------------------------------------------------------------- XML output


def _attr_text(attrs: dict[str, str]) -> str:
    return "".join(f' {key}="{value}"' for key, value in attrs.items())


def _emit(node: Node, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if not node.children:
        out.append(f"{pad}<{node.kind}{_attr_text(node.attrs)}/>")
        return
    out.append(f"{pad}<{node.kind}{_attr_text(node.attrs)}>")
    if node.labels is not None:
        for (element, attrs), child in zip(node.labels, node.children):
            out.append(f"{pad}  <{element}{_attr_text(attrs)}>")
            _emit(child, depth + 2, out)
            out.append(f"{pad}  </{element}>")
    else:
        for child in node.children:
            _emit(child, depth + 1, out)
    out.append(f"{pad}</{node.kind}>")


def write_process(process: Process, path: Path) -> None:
    out = ['<?xml version="1.0" encoding="utf-8"?>', f'<process name="{process.name}">']
    _emit(process.root, 1, out)
    out.append("</process>")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    process.path = path


def write_aspect(aspect: Aspect, path: Path) -> None:
    out = ['<?xml version="1.0" encoding="utf-8"?>', f'<aspect name="{aspect.name}">']
    for index, (selector, _) in enumerate(aspect.pointcuts):
        out.append(f'  <pointcut name="pc{index}">{selector}</pointcut>')
    out.append(f'  <advice type="{aspect.advice}">')
    out.append(f'    <invoke name="advise{aspect.name}" partnerLink="advisor" operation="advise"/>')
    out.append("  </advice>")
    out.append("</aspect>")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    aspect.path = path


# --------------------------------------------------------- tree templates


@dataclass
class _Factory:
    """Hands out unique operation names and keeps per-invoke bookkeeping."""

    rng: random.Random
    links: tuple[str, ...] = ("pl0", "pl1", "pl2", "pl3", "pl4", "pl5", "pl6", "pl7")
    serial: count = field(default_factory=count)
    invokes: list[dict] = field(default_factory=list)

    def invoke(self, **tags) -> Node:
        node = Node("invoke", {"name": f"call{next(self.serial)}",
                               "partnerLink": self.links[self.rng.randrange(len(self.links))],
                               "operation": ""})
        self.invokes.append({"node": node, **tags})
        return node

    def number_operations(self) -> None:
        # Operation numbers are a seeded permutation, so a selector's
        # target says nothing about where in the tree it sits.
        numbers = self.rng.sample(range(len(self.invokes)), len(self.invokes))
        for record, number in zip(self.invokes, numbers):
            record["node"].attrs["operation"] = f"op{number}"


def _assign(b: _Factory) -> Node:
    return Node("assign", {"name": f"set{next(b.serial)}"})


def _messaging(b: _Factory, kind: str) -> Node:
    return Node(kind, {"name": f"{kind}{next(b.serial)}", "partnerLink": "client", "operation": "start"})


def _branch_labels(kind: str, n: int) -> list[tuple[str, dict]]:
    if kind == "switch":
        return [("case", {"condition": f"c{i}"}) for i in range(n - 1)] + [("otherwise", {})]
    return [("onMessage", {"operation": f"m{i}"}) for i in range(n - 1)] + [("onAlarm", {"for": "PT1S"})]


def _tpl_switch(b: _Factory, tags) -> Node:  # 3 join points; the last branch has none
    children = [Node("sequence", {}, [b.invoke(**tags), _assign(b), b.invoke(**tags)]),
                b.invoke(**tags), Node("sequence", {}, [_assign(b)])]
    return Node("switch", {"name": f"sw{next(b.serial)}"}, children, _branch_labels("switch", 3))


def _tpl_pick(b: _Factory, tags) -> Node:  # 5 join points
    tags = {**tags, "in_pick": True}
    children = [Node("sequence", {}, [_messaging(b, "receive"), b.invoke(**tags), _messaging(b, "reply")]),
                Node("flow", {}, [b.invoke(**tags), b.invoke(**tags)])]
    return Node("pick", {"name": f"pk{next(b.serial)}"}, children, _branch_labels("pick", 2))


def _tpl_flow(b: _Factory, tags) -> Node:  # 3 join points
    return Node("flow", {"name": f"fl{next(b.serial)}"}, [
        b.invoke(**tags),
        Node("sequence", {}, [_assign(b), b.invoke(**tags)]),
        Node("while", {}, [Node("sequence", {}, [b.invoke(**tags), _assign(b)])]),
    ])


def _tpl_while(b: _Factory, tags) -> Node:  # 4 join points
    inner = Node("switch", {}, [b.invoke(**tags), Node("flow", {}, [b.invoke(**tags), b.invoke(**tags)])],
                 _branch_labels("switch", 2))
    return Node("while", {"name": f"wh{next(b.serial)}"},
                [Node("sequence", {}, [_messaging(b, "receive"), inner, _assign(b)])])


def _tpl_scaffold(b: _Factory, tags) -> Node:  # no join points: not eligible
    return Node("sequence", {"name": f"sc{next(b.serial)}"}, [_assign(b), Node("while", {}, [_assign(b)])])


TEMPLATES = {"switch": _tpl_switch, "pick": _tpl_pick, "flow": _tpl_flow,
             "while": _tpl_while, "scaffold": _tpl_scaffold}


def _container(b: _Factory, kind: str, children: list[Node]) -> Node:
    labels = _branch_labels(kind, len(children)) if kind in BRANCHING else None
    return Node(kind, {"name": f"g{next(b.serial)}"}, children, labels)


# ------------------------------------------------------------ wide shape

# Pointcut mix of the wide workload: (template, count), 100 in all. The
# counts are fixed so every seed costs the same to bind; the seed only
# picks targets and advice types. The two broad multi-step templates
# (flow-op, deep-op) rescan the tree once per context and carry most of
# the binding cost; there are few enough of them that a call takes under
# two seconds, so a run holds more calls.
WIDE_POINTCUTS = (("op", 40), ("link", 4), ("switch-link", 20), ("flow-op", 8),
                  ("deep-op", 10), ("scoped-op", 12), ("assign", 4), ("edge", 2))


def wide_process(rng: random.Random, switches: int, pairs: int = 10, fanout: int = 10):
    """Root sequence of switches; each has a case branch that is a sequence
    of invoke/assign pairs and an otherwise branch that is a flow of invokes."""
    b = _Factory(rng)
    receive = _messaging(b, "receive")
    reply = _messaging(b, "reply")
    body = [receive]
    for i in range(switches):
        steps = []
        for _ in range(pairs):
            steps += [b.invoke(switch=i, branch="steps"), _assign(b)]
        flow = [b.invoke(switch=i, branch="fanout") for _ in range(fanout)]
        body.append(Node("switch", {"name": f"route{i}"},
                         [Node("sequence", {"name": f"steps{i}"}, steps),
                          Node("flow", {"name": f"fanout{i}"}, flow)],
                         [("case", {"condition": f"c{i}"}), ("otherwise", {})]))
    body.append(reply)
    b.number_operations()
    return Process("Wide", Node("sequence", {"name": "main"}, body)), b.invokes, (receive, reply)


def _wide_pointcut(rng: random.Random, template: str, invokes: list[dict], edges, switches: int):
    def op(record):
        return record["node"].attrs["operation"]

    pick = invokes[rng.randrange(len(invokes))]
    if template == "op":
        return f'//invoke[@operation="{op(pick)}"]', [pick["node"]]
    if template == "link":
        link = pick["node"].attrs["partnerLink"]
        return (f'//invoke[@partnerLink="{link}"]',
                [r["node"] for r in invokes if r["node"].attrs["partnerLink"] == link])
    if template == "switch-link":
        link = pick["node"].attrs["partnerLink"]
        return (f'//switch[@name="route{pick["switch"]}"]//invoke[@partnerLink="{link}"]',
                [r["node"] for r in invokes if r["switch"] == pick["switch"] and r["node"].attrs["partnerLink"] == link])
    if template == "flow-op":
        fanout = [r for r in invokes if r["branch"] == "fanout"]
        pick = fanout[rng.randrange(len(fanout))]
        return f'//flow//invoke[@operation="{op(pick)}"]', [pick["node"]]
    if template == "deep-op":
        return f'//sequence//switch//invoke[@operation="{op(pick)}"]', [pick["node"]]
    if template == "scoped-op":
        steps = [r for r in invokes if r["branch"] == "steps"]
        pick = steps[rng.randrange(len(steps))]
        return (f'//process[@name="Wide"]//sequence[@name="steps{pick["switch"]}"]//invoke[@operation="{op(pick)}"]',
                [pick["node"]])
    if template == "assign":
        # Matches assigns only: each match is a "not a join point" warning.
        return f'//sequence[@name="steps{rng.randrange(switches)}"]//assign', []
    edge = edges[rng.randrange(2)]
    return f'//{edge.kind}[@operation="start"]', [edge]


def wide_aspects(rng: random.Random, invokes, edges, switches: int, per_aspect: int = 2) -> list[Aspect]:
    plan = [template for template, n in WIDE_POINTCUTS for _ in range(n)]
    rng.shuffle(plan)
    aspects = []
    for index in range(0, len(plan), per_aspect):
        pointcuts = [_wide_pointcut(rng, template, invokes, edges, switches) for template in plan[index:index + per_aspect]]
        aspects.append(Aspect(f"Aspect{index // per_aspect}", ADVICE_TYPES[rng.randrange(3)], pointcuts))
    return aspects


# ---------------------------------------------------------- nested shape

# Block multiset of the nested workload at full size: 100 join points
# (300 advice slots) with the root receive and reply. Halving the
# counts halves the process.
NESTED_BLOCKS = (("switch", 8), ("pick", 8), ("flow", 6), ("while", 4), ("scaffold", 6))
GROUP_KINDS = ("sequence", "flow", "while", "switch", "pick")


def nested_process(rng: random.Random, half: bool = False, per_group: int = 4) -> Process:
    """Seeded groups of four template blocks under a root sequence.

    The seed orders the blocks and picks each group's kind (switch, pick,
    flow, while or sequence); the block counts, and so the join points,
    are fixed.
    """
    b = _Factory(rng)
    plan = [kind for kind, n in NESTED_BLOCKS for _ in range(n // 2 if half else n)]
    rng.shuffle(plan)
    blocks = [TEMPLATES[kind](b, {}) for kind in plan]
    groups = [_container(b, GROUP_KINDS[rng.randrange(len(GROUP_KINDS))], blocks[i:i + per_group])
              for i in range(0, len(blocks), per_group)]
    body = [_messaging(b, "receive")] + groups + [_messaging(b, "reply")]
    b.number_operations()
    return Process("Nested", Node("sequence", {"name": "main"}, body))


# ----------------------------------------------------------- small shapes


def small_process(rng: random.Random, name: str, half: bool = False):
    """About ten join points: receive, a pick, one other block, scaffolding
    and a reply. The half size keeps the receive, the pick and the
    scaffolding: about six."""
    b = _Factory(rng, links=("pl0", "pl1", "pl2"))
    kinds = ["pick", "scaffold"] + ([] if half else [("switch", "flow", "while")[rng.randrange(3)]])
    rng.shuffle(kinds)
    body = [_messaging(b, "receive")] + [TEMPLATES[kind](b, {"in_pick": False}) for kind in kinds]
    if not half:
        body.append(_messaging(b, "reply"))
    b.number_operations()
    root_kind = ("sequence", "flow")[rng.randrange(2)]
    return Process(name, Node(root_kind, {"name": "main"}, body)), b.invokes


def small_aspects(rng: random.Random, process: Process, invokes: list[dict], prefix: str) -> list[Aspect]:
    """Three aspects mixing one-, two- and three-step selectors."""
    def op(record):
        return record["node"].attrs["operation"]

    def any_invoke():
        return invokes[rng.randrange(len(invokes))]

    in_pick = [r for r in invokes if r["in_pick"]]
    link = in_pick[rng.randrange(len(in_pick))]["node"].attrs["partnerLink"]
    scoped = any_invoke()
    pointcut_sets = [
        [(f'//invoke[@operation="{op(r)}"]', [r["node"]]) for r in (any_invoke(), any_invoke())],
        [(f'//process[@name="{process.name}"]//invoke[@operation="{op(scoped)}"]', [scoped["node"]])],
        [(f'//process[@name="{process.name}"]//pick//invoke[@partnerLink="{link}"]',
          [r["node"] for r in in_pick if r["node"].attrs["partnerLink"] == link])],
    ]
    return [Aspect(f"{prefix}A{i}", ADVICE_TYPES[rng.randrange(3)], pointcuts)
            for i, pointcuts in enumerate(pointcut_sets)]


def tiny_process(rng: random.Random, name: str) -> Process:
    """Four join points (twelve slots): the largest an exhaustive sweep accepts."""
    b = _Factory(rng, links=("pl0",))
    branches = [b.invoke(), Node("flow", {}, [b.invoke(), _assign(b)])]
    rng.shuffle(branches)
    kind = ("switch", "pick")[rng.randrange(2)]
    body = [_messaging(b, "receive"), Node(kind, {}, branches, _branch_labels(kind, 2)),
            _messaging(b, "reply"), _assign(b)]
    rng.shuffle(body)
    b.number_operations()
    return Process(name, Node(("sequence", "flow", "while")[rng.randrange(3)], {"name": "main"}, body))
