"""Naive tree walkers kept as test oracles.

Each function recomputes, by walking the activity tree directly, a
result that the library derives from the shared pre-order process
index, or, for the exhaustive sweep envelope, from order statistics.
They are slow on purpose and easy to check by hand.
`match_selector_elementpath` instead hands selectors to CPython's
ElementPath, an implementation written by other hands.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ElementTree
from fractions import Fraction
from xml.parsers import expat

from adaptmeter import (
    Activity,
    AnalysisConfig,
    BadAdviceType,
    MalformedXml,
    MissingPointcut,
    NodeVD,
    ProcessModel,
    SelectorSyntax,
    StructuralError,
    UnsupportedElement,
)
from adaptmeter.matching import JoinPointBinding, VariabilityProfile
from adaptmeter.metrics import variability_degree, variability_value
from adaptmeter.model import ADVICE_TYPES, BASIC_KINDS, STRUCTURED_KINDS, path_kind, path_order
from adaptmeter.parsing import Aspect, Pointcut, serialize_process
from adaptmeter.selectors import PointcutSelector, parse_selector

BRANCHING = ("switch", "pick")
BRANCHING_KINDS = frozenset(BRANCHING)
ACTIVITY_KINDS = BASIC_KINDS | STRUCTURED_KINDS
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_PATH_STEP_RE = re.compile(r"([A-Za-z]+)\[(\d+)\]")


def activity_path(text: str) -> str:
    """Check the ``/process/sequence[0]/invoke[2]`` form of a path and return it."""
    steps_of(text)  # raises ValueError on anything else
    return text


def steps_of(path: str) -> tuple[tuple[str, int], ...]:
    """The (kind, sibling index) steps from the root that ``path`` addresses."""
    prefix = "/process/"
    if not path.startswith(prefix):
        raise ValueError(f"activity path must start with {prefix!r}: {path!r}")
    steps = []
    for part in path[len(prefix):].split("/"):
        match = _PATH_STEP_RE.fullmatch(part)
        if match is None:
            raise ValueError(f"bad path step {part!r} in {path!r}")
        steps.append((match.group(1), int(match.group(2))))
    return tuple(steps)


def path_of(steps: tuple[tuple[str, int], ...]) -> str:
    """The path of (kind, sibling index) steps from the root, formatted here, step by step."""
    return "/process/" + "/".join(f"{kind}[{index}]" for kind, index in steps)


def twin_of(path: str) -> str:
    """An equal path that is another object: ``str(path)`` and ``copy`` hand back ``path`` itself."""
    return path.encode().decode()


def walk(process: ProcessModel):
    """Every (path, activity) pair in pre-order, by recursion."""

    def visit(steps: tuple[tuple[str, int], ...], activity: Activity):
        yield path_of(steps), activity
        for index, child in enumerate(activity.children):
            yield from visit(steps + ((child.kind, index),), child)

    yield from visit(((process.root.kind, 0),), process.root)


def is_ancestor_of(path: str, other: str) -> bool:
    """True when ``path``'s steps are a proper prefix of ``other``'s."""
    steps, others = steps_of(path), steps_of(other)
    return len(steps) < len(others) and others[: len(steps)] == steps


def is_eligible_child(activity: Activity, config: AnalysisConfig) -> bool:
    """A join point, or a structured activity with a join-point descendant."""
    if activity.kind in config.join_point_kinds:
        return True
    return any(is_eligible_child(child, config) for child in activity.children)


def divisor(activity: Activity, config: AnalysisConfig) -> int:
    if activity.kind in BRANCHING:
        return len(activity.children)
    return sum(1 for child in activity.children if is_eligible_child(child, config))


def aggregate(
    activity: Activity, steps: tuple[tuple[str, int], ...], profile: VariabilityProfile, config: AnalysisConfig
) -> list[NodeVD]:
    """Recursively compute the VDs of the subtree rooted at one activity, at ``steps``, in pre-order."""
    path = path_of(steps)
    if activity.kind in BASIC_KINDS:
        if activity.kind in config.join_point_kinds:
            vv = variability_value(profile, path, config)
            return [NodeVD(path, variability_degree(vv, config.reference_value), vv=vv)]
        return [NodeVD(path, Fraction(0))]
    subtrees = [
        aggregate(child, steps + ((child.kind, index),), profile, config)
        for index, child in enumerate(activity.children)
    ]
    n = divisor(activity, config)
    total = sum((subtree[0].vd for subtree in subtrees), Fraction(0))
    node = NodeVD(path, total / n if n else Fraction(0), n_used=n)
    return [node] + [descendant for subtree in subtrees for descendant in subtree]


def aggregate_process(
    process: ProcessModel, profile: VariabilityProfile, config: AnalysisConfig
) -> tuple[NodeVD, ...]:
    """Every node's VD in pre-order, root first: what `MetricsResult.nodes` holds."""
    return tuple(aggregate(process.root, ((process.root.kind, 0),), profile, config))


def join_point_weights(process: ProcessModel, config: AnalysisConfig) -> dict[str, Fraction]:
    """Product of 1/n over each join point's proper ancestors."""
    nodes = dict(walk(process))
    weights = {}
    for path, activity in nodes.items():
        if activity.kind in config.join_point_kinds:
            weight = Fraction(1)
            steps = steps_of(path)
            for depth in range(1, len(steps)):
                weight /= divisor(nodes[path_of(steps[:depth])], config)
            weights[path] = weight
    return weights


def _step_holds(step: tuple[str, tuple[tuple[str, str], ...]], kind: str, name, attributes) -> bool:
    element, predicates = step
    if element != kind:
        return False
    return all((name if key == "name" else attributes.get(key)) == value for key, value in predicates)


def match_selector(selector: PointcutSelector, process: ProcessModel) -> list[str]:
    """Proper-descendant location steps by rescanning the tree per context."""
    nodes = list(walk(process))
    # None is the document before the first step and the <process> element after it.
    contexts: list[str | None] = [None]
    for position, step in enumerate(selector.steps):
        matched: dict[str | None, None] = {}
        for context in contexts:
            if context is None and position == 0 and _step_holds(step, "process", process.name, process.attributes):
                matched.setdefault(None)
            for path, activity in nodes:
                inside = context is None or is_ancestor_of(context, path)
                if inside and _step_holds(step, activity.kind, activity.name, activity.attributes):
                    matched.setdefault(path)
        contexts = list(matched)
    return sorted((path for path in contexts if path is not None), key=path_order)


def _elementpath_step(element: str, predicates: tuple[tuple[str, str], ...]) -> str:
    """One selector step as an ElementPath ``.//element[@a='x'][@b="y"]``.

    ElementPath has no ``and``, so each predicate gets its own bracket. It
    has no escapes either, so no value may hold both quote characters.
    """
    brackets = []
    for attribute, value in predicates:
        quote = "'" if '"' in value else '"'
        brackets.append(f"[@{attribute}={quote}{value}{quote}]")
    return f".//{element}{''.join(brackets)}"


def match_selector_elementpath(selector: PointcutSelector, process: ProcessModel) -> list[str]:
    """The selector run by CPython's ElementPath on the process's canonical XML.

    Each step is a ``.//step`` search from every element the previous step
    found. The first step searches from a document element wrapped around
    <process>, so it may match <process> itself. The found activity
    elements map to paths by their document order among activity elements,
    which skips <process> and the branch wrappers.
    """
    document = ElementTree.Element("document")
    document.append(ElementTree.fromstring(serialize_process(process)))
    contexts = [document]
    for element, predicates in selector.steps:
        step = _elementpath_step(element, predicates)
        found = {id(match) for context in contexts for match in context.iterfind(step)}
        contexts = [node for node in document.iter() if id(node) in found]
    ranks = {id(node): rank for rank, node in enumerate(node for node in document.iter() if node.tag in ACTIVITY_KINDS)}
    paths = [path for path, _ in walk(process)]
    return [paths[ranks[id(node)]] for node in contexts if id(node) in ranks]


def bind_aspects(
    process: ProcessModel, aspects, config: AnalysisConfig
) -> tuple[tuple[JoinPointBinding, ...], tuple[str, ...]]:
    """The bindings and warnings of binding ``aspects``, by rescanning per pointcut.

    Bindings come aspect by aspect and pointcut by pointcut; each
    pointcut's matches are ordered by their position in `walk`.
    """
    position = {path: rank for rank, (path, _) in enumerate(walk(process))}
    bindings, warnings = [], []
    for aspect in aspects:
        if not aspect.enabled and not config.include_disabled_aspects:
            continue
        for pointcut in aspect.pointcuts:
            paths = sorted(match_selector(pointcut.selector, process), key=position.__getitem__)
            if not paths:
                warnings.append(f"aspect '{aspect.name}' pointcut '{pointcut.name}': selector matched no activities")
            for path in paths:
                if path_kind(path) in config.join_point_kinds:
                    bindings.append(JoinPointBinding(aspect.name, pointcut.name, path, aspect.advice_type))
                else:
                    warnings.append(f"aspect '{aspect.name}' pointcut '{pointcut.name}': "
                                    f"match at {path} is not a join point (<{path_kind(path)}>); skipped")
    return tuple(bindings), tuple(warnings)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect_name(self, what: str) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            raise SelectorSyntax(f"expected {what} at position {self.pos} in {self.text!r}")
        self.pos = match.end()
        return match.group(0)

    def expect_quoted(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):
            raise SelectorSyntax(f"expected quoted value at position {self.pos} in {self.text!r}")
        end = self.text.find(quote, self.pos + 1)
        if end < 0:
            raise SelectorSyntax(f"unterminated string at position {self.pos} in {self.text!r}")
        value = self.text[self.pos + 1 : end]
        self.pos = end + 1
        return value


def _parse_predicates(scanner: _Scanner) -> tuple[tuple[str, str], ...]:
    predicates: list[tuple[str, str]] = []
    while scanner.peek() == "[":
        scanner.take("[")
        while True:
            scanner.skip_ws()
            if not scanner.take("@"):
                raise SelectorSyntax(
                    f"only attribute-equality predicates are supported, at position {scanner.pos} in {scanner.text!r}"
                )
            attribute = scanner.expect_name("attribute name")
            scanner.skip_ws()
            if not scanner.take("="):
                raise SelectorSyntax(f"expected '=' after @{attribute} in {scanner.text!r}")
            scanner.skip_ws()
            value = scanner.expect_quoted()
            predicates.append((attribute, value))
            scanner.skip_ws()
            if scanner.take("]"):
                break
            if scanner.take("and"):
                continue
            raise SelectorSyntax(f"expected ']' or 'and' at position {scanner.pos} in {scanner.text!r}")
    return tuple(predicates)


def parse_selector_scanning(text: str) -> PointcutSelector:
    """The selector parser as a character scanner object, the form the library's one loop replaced."""
    scanner = _Scanner(text)
    steps: list[tuple[str, tuple[tuple[str, str], ...]]] = []
    scanner.skip_ws()
    if scanner.at_end():
        raise SelectorSyntax("empty selector")
    while not scanner.at_end():
        if not scanner.take("//"):
            raise SelectorSyntax(f"expected descendant axis '//' at position {scanner.pos} in {text!r}")
        element = scanner.expect_name("element name")
        steps.append((element, _parse_predicates(scanner)))
        scanner.skip_ws()
    first = steps[0][0]
    if first != "process" and first not in ACTIVITY_KINDS:
        raise SelectorSyntax(f"selector must start at //process or an activity kind, got //{first}")
    return PointcutSelector(tuple(steps))


def sweep_series(process: ProcessModel, order, config: AnalysisConfig) -> list[Fraction]:
    """PAM after each count of slots, re-aggregating the whole tree at every count."""
    return [aggregate_process(process, VariabilityProfile.from_assignments(order[:count]), config)[0].vd
            for count in range(len(order) + 1)]


def exhaustive_fold(process: ProcessModel, config: AnalysisConfig) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(min, mean, max) over every slot subset of each count, folding in one join point at a time.

    A subset's PAM is the sum over join points of weight * VD(c), where c
    is how many of the join point's slots the subset holds. For each count
    the fold keeps the min, max and sum of PAM over the subsets so far and
    their number; a join point adds term c in comb(3, c) ways. O(J * S)
    for J join points and S slots.
    """
    per_join_point = len(ADVICE_TYPES)
    reference = config.reference_value
    clamp = config.count_mode == "raw-clamped"
    envelope = [(Fraction(0), Fraction(0), Fraction(0), 1)]  # (min, max, sum, number) per count
    for weight in join_point_weights(process, config).values():
        merged: list[list[tuple[Fraction, Fraction, Fraction, int]]] = [
            [] for _ in range(len(envelope) + per_join_point)
        ]
        for c in range(per_join_point + 1):
            term = weight * variability_degree(min(c, reference) if clamp else c, reference)
            ways = math.comb(per_join_point, c)
            for count, (low, high, total, number) in enumerate(envelope):
                merged[count + c].append((low + term, high + term, ways * (total + number * term), ways * number))
        envelope = [
            (min(lows), max(highs), sum(totals, Fraction(0)), sum(numbers))
            for lows, highs, totals, numbers in (zip(*group) for group in merged)
        ]
    return [(low, total / number, high) for low, high, total, number in envelope]


# The two-pass document reader the streaming parser replaced: expat builds
# an element tree first, then a recursive-descent walk (made iterative)
# checks and converts it. The differential parser tests hold the streaming
# parser to its models and to its first error (class, message and line).


class _XmlNode:
    """One element while a document is read; its children and text grow as it is parsed.

    ``text`` holds the element's own character data in the chunks the
    parser delivered; join them to read it.
    """

    __slots__ = ("tag", "attributes", "line", "children", "text")

    def __init__(self, tag: str, attributes: dict[str, str], line: int) -> None:
        self.tag = tag
        self.attributes = attributes
        self.line = line
        self.children: list[_XmlNode] = []
        self.text: list[str] = []


def _local(name: str) -> str:
    return name.rpartition(":")[2]


def local_attributes(attrs: dict[str, str]) -> dict[str, str]:
    """An element's attributes keyed by local name, namespace declarations dropped.

    Every key is rewritten, whatever it holds; where two prefixed names
    share a local name, the later one wins.
    """
    return {_local(key): value for key, value in attrs.items() if key != "xmlns" and not key.startswith("xmlns:")}


def _load_xml(text: str) -> _XmlNode:
    """Parse XML text into a namespace-stripped node tree with line numbers."""
    parser = expat.ParserCreate()
    root: list[_XmlNode] = []
    stack: list[_XmlNode] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        node = _XmlNode(_local(tag), local_attributes(attrs), parser.CurrentLineNumber)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        stack.pop()

    def chars(data: str) -> None:
        if stack:
            stack[-1].text.append(data)

    def doctype(*_) -> None:
        # The grammar needs no DTD; refusing one also refuses entity declarations.
        raise MalformedXml("<!DOCTYPE> declarations are not allowed", line=parser.CurrentLineNumber)

    parser.buffer_text = True
    parser.StartDoctypeDeclHandler = doctype
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc), line=exc.lineno) from exc
    finally:
        # The handlers refer to the parser, a cycle that would keep the
        # whole node tree alive until the cyclic collector runs.
        parser.StartDoctypeDeclHandler = parser.StartElementHandler = None
        parser.EndElementHandler = parser.CharacterDataHandler = None
    if not root:
        raise MalformedXml("document has no root element")
    return root[0]


def _check_declarations(container: _XmlNode, entry_tag: str) -> None:
    for child in container.children:
        if child.tag != entry_tag:
            raise UnsupportedElement(f"unsupported element <{child.tag}> in <{container.tag}>", line=child.line)


def _frame(node: _XmlNode) -> tuple[_XmlNode, list[Activity], list[str]]:
    if node.tag not in ACTIVITY_KINDS:
        raise UnsupportedElement(f"<{node.tag}> is not a supported activity", line=node.line)
    return node, [], []


def _parse_activity(root: _XmlNode) -> Activity:
    """Build the activity under ``root`` without recursion, so nesting depth is unbounded."""
    # Elements are checked in document order and activities built bottom-up, as in a
    # recursive descent, so a bad document fails at the same element. A frame holds an
    # element, the activities of its children built so far and their branch wrapper tags.
    stack = [_frame(root)]
    while True:
        node, children, wrappers = stack[-1]
        if node.tag not in BASIC_KINDS and len(children) < len(node.children):
            child = node.children[len(children)]
            if node.tag in BRANCHING_KINDS:
                # switch / pick: children are branch wrappers, each holding one activity
                allowed = ("case", "otherwise") if node.tag == "switch" else ("onMessage", "onAlarm")
                if child.tag not in allowed:
                    raise UnsupportedElement(
                        f"<{node.tag}> branches must be {' or '.join(f'<{a}>' for a in allowed)}, got <{child.tag}>",
                        line=child.line,
                    )
                if len(child.children) != 1:
                    for activity in child.children:  # checked before the count; only this error path recurses
                        _parse_activity(activity)
                    raise StructuralError(
                        f"<{child.tag}> must wrap exactly one activity, found {len(child.children)}",
                        line=child.line,
                    )
                wrappers.append(child.tag)
                child = child.children[0]
            stack.append(_frame(child))
            continue
        stack.pop()
        attributes = dict(node.attributes)
        name = attributes.pop("name", None)
        if wrappers.count("otherwise") > 1:
            raise StructuralError("<switch> allows at most one <otherwise> branch", line=node.line)
        try:
            activity = Activity(node.tag, name, attributes, tuple(children))
        except StructuralError as exc:
            exc.line = node.line
            raise
        if not stack:
            return activity
        stack[-1][1].append(activity)


def parse_process_two_pass(text: str) -> ProcessModel:
    """Parse a process document into a ProcessModel.

    The document root must be <process> with a non-empty name, holding
    optional <partnerLinks> and <variables> sections, which are checked
    but not kept, and exactly one structured root activity.
    """
    root = _load_xml(text)
    if root.tag != "process":
        raise StructuralError(f"expected <process> document root, got <{root.tag}>", line=root.line)
    name = root.attributes.get("name", "")
    if not name:
        raise StructuralError("<process> requires a non-empty name attribute", line=root.line)
    body: list[tuple[Activity, int]] = []
    for child in root.children:
        if child.tag in ("partnerLinks", "variables"):
            _check_declarations(child, child.tag[:-1])  # each entry tag is the section tag without its "s"
        elif child.tag in ACTIVITY_KINDS:
            body.append((_parse_activity(child), child.line))
        else:
            raise UnsupportedElement(f"unsupported element <{child.tag}> in <process>", line=child.line)
    if len(body) != 1:
        raise StructuralError(f"<process> must contain exactly one root activity, found {len(body)}", line=root.line)
    activity, line = body[0]
    if activity.kind not in STRUCTURED_KINDS:
        raise StructuralError(f"process root activity must be structured, got <{activity.kind}>", line=line)
    attributes = {key: value for key, value in root.attributes.items() if key != "name"}
    return ProcessModel(name=name, root=activity, attributes=attributes)


_TRUE_WORDS = frozenset({"true", "1", "yes"})
_FALSE_WORDS = frozenset({"false", "0", "no"})


def _parse_enabled(value: str, line: int) -> bool:
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise StructuralError(f"bad enabled value {value!r} (expected true/false)", line=line)


def parse_aspect_two_pass(text: str) -> Aspect:
    """Parse an aspect document: pointcuts plus exactly one typed advice."""
    root = _load_xml(text)
    if root.tag != "aspect":
        raise StructuralError(f"expected <aspect> document root, got <{root.tag}>", line=root.line)
    return _aspect_from_node(root)


def _aspect_from_node(root: _XmlNode) -> Aspect:
    name = root.attributes.get("name", "")
    if not name:
        raise StructuralError("<aspect> requires a non-empty name attribute", line=root.line)
    enabled = True
    if "enabled" in root.attributes:
        enabled = _parse_enabled(root.attributes["enabled"], root.line)
    pointcuts: list[Pointcut] = []
    advices: list[str] = []
    for child in root.children:
        if child.tag in ("partnerLinks", "variables"):
            _check_declarations(child, child.tag[:-1])
        elif child.tag == "pointcut":
            pointcut_name = child.attributes.get("name") or f"pointcut{len(pointcuts) + 1}"
            try:
                selector = parse_selector("".join(child.text))
            except SelectorSyntax as exc:
                raise SelectorSyntax(f"pointcut '{pointcut_name}': {exc}", line=child.line) from exc
            pointcuts.append(Pointcut(pointcut_name, selector))
        elif child.tag == "advice":
            advice_type = child.attributes.get("type", "")
            if advice_type not in ADVICE_TYPES:
                raise BadAdviceType(
                    f"advice type must be one of {', '.join(ADVICE_TYPES)}, got {advice_type!r}",
                    line=child.line,
                )
            for activity in child.children:  # checked, not kept, before the count
                _parse_activity(activity)
            if len(child.children) != 1:
                raise StructuralError(
                    f"<advice> must wrap exactly one activity, found {len(child.children)}",
                    line=child.line,
                )
            advices.append(advice_type)
        else:
            raise UnsupportedElement(f"unsupported element <{child.tag}> in <aspect>", line=child.line)
    if not pointcuts:
        raise MissingPointcut(f"aspect '{name}' declares no pointcut", line=root.line)
    if len(advices) != 1:
        raise StructuralError(f"aspect '{name}' must declare exactly one advice, found {len(advices)}", line=root.line)
    return Aspect(name=name, pointcuts=tuple(pointcuts), advice_type=advices[0], enabled=enabled)


def render_text(result, process: ProcessModel, color: bool = False) -> str:
    """The text report formatted node by node, as before details were shared."""
    from adaptmeter.report import format_vd

    def label(node: NodeVD, name) -> str:
        steps = steps_of(node.path)
        kind, index = steps[-1]
        text = f"{'  ' * (len(steps) - 1)}{kind}[{index}]"
        return f"{text} '{name}'" if name else text

    def detail(node: NodeVD) -> str:
        text = f"vd={format_vd(node.vd)}"
        if node.join_point:
            return f"{text}  vv={node.vv} *"
        return f"{text}  n={node.n_used}" if node.n_used is not None else text

    config = result.config_used
    lines = [
        f"process: {result.process_name}",
        f"reference value (R): {config.reference_value}",
        f"join-point kinds: {', '.join(sorted(config.join_point_kinds))}",
        f"count mode: {config.count_mode}",
        "",
    ]
    labels = [label(node, activity.name) for node, activity in zip(result.nodes, process.index.activities)]
    width = max(len(text) for text in labels) + 2
    lines += [f"{text:<{width}}{detail(node)}" for text, node in zip(labels, result.nodes)]
    pam_line = f"PAM = {format_vd(result.pam)}"
    lines += ["(* join point)", "", f"\x1b[1m{pam_line}\x1b[0m" if color else pam_line]
    return "\n".join(lines)
