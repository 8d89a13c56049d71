"""Readers for process and aspect XML, plus the canonical serializer.

Matching is namespace-blind: element and attribute names are reduced to
their local part, so both bare listings and engine-exported documents
parse the same way. Elements in activity position must be one of the
nine supported kinds; the inner content of basic activities (copy
specs, payload literals) is treated as opaque and ignored.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING
from xml.parsers import expat

from .errors import BadAdviceType, MalformedXml, MissingPointcut, SelectorSyntax, StructuralError, UnsupportedElement
from .model import (
    ACTIVITY_KINDS,
    ADVICE_TYPES,
    BASIC_KINDS,
    BRANCHING_KINDS,
    STRUCTURED_KINDS,
    Activity,
    BranchLabel,
    ProcessModel,
    Record,
    _set,
)

if TYPE_CHECKING:
    from .selectors import PointcutSelector


class Pointcut(Record):
    __slots__ = ("name", "selector")

    def __init__(self, name: str, selector: PointcutSelector) -> None:
        _set(self, "name", name)
        _set(self, "selector", selector)


class Aspect(Record):
    """One adaptation unit: pointcut selectors plus a single typed advice.

    ``enabled`` mirrors the ability to switch aspects on and off without
    touching the process; disabled aspects are ignored by default.
    """

    __slots__ = ("name", "pointcuts", "advice_type", "advice_body", "enabled")

    def __init__(
        self, name: str, pointcuts: tuple[Pointcut, ...], advice_type: str, advice_body: Activity, enabled: bool = True
    ) -> None:
        _set(self, "name", name)
        _set(self, "pointcuts", pointcuts)
        _set(self, "advice_type", advice_type)
        _set(self, "advice_body", advice_body)
        _set(self, "enabled", enabled)


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


def _load_xml(text: str) -> _XmlNode:
    """Parse XML text into a namespace-stripped node tree with line numbers."""
    parser = expat.ParserCreate()
    root: list[_XmlNode] = []
    stack: list[_XmlNode] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        cleaned = {
            _local(key): value
            for key, value in attrs.items()
            if key != "xmlns" and not key.startswith("xmlns:")
        }
        node = _XmlNode(_local(tag), cleaned, parser.CurrentLineNumber)
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


def _read(source: str | IO[str]) -> str:
    if isinstance(source, str):
        return source
    return source.read()


def _parse_declarations(container: _XmlNode, entry_tag: str) -> list[tuple[str, dict[str, str]]]:
    entries = []
    for child in container.children:
        if child.tag != entry_tag:
            raise UnsupportedElement(f"unsupported element <{child.tag}> in <{container.tag}>", line=child.line)
        attributes = dict(child.attributes)
        entries.append((attributes.pop("name", ""), attributes))
    return entries


def _frame(node: _XmlNode) -> tuple[_XmlNode, list[Activity], list[BranchLabel]]:
    if node.tag not in ACTIVITY_KINDS:
        raise UnsupportedElement(f"<{node.tag}> is not a supported activity", line=node.line)
    return node, [], []


def _parse_activity(root: _XmlNode) -> Activity:
    """Build the activity under ``root`` without recursion, so nesting depth is unbounded."""
    # Elements are checked in document order and activities built bottom-up, as in a
    # recursive descent, so a bad document fails at the same element. A frame holds an
    # element and the activities and branch labels of its children built so far.
    stack = [_frame(root)]
    while True:
        node, children, labels = stack[-1]
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
                    raise StructuralError(
                        f"<{child.tag}> must wrap exactly one activity, found {len(child.children)}",
                        line=child.line,
                    )
                labels.append(BranchLabel(child.tag, dict(child.attributes)))
                child = child.children[0]
            stack.append(_frame(child))
            continue
        stack.pop()
        attributes = dict(node.attributes)
        name = attributes.pop("name", None)
        branch_labels = tuple(labels) if node.tag in BRANCHING_KINDS else None
        try:
            activity = Activity(node.tag, name, attributes, tuple(children), branch_labels)
        except StructuralError as exc:
            exc.line = node.line
            raise
        if not stack:
            return activity
        stack[-1][1].append(activity)


def parse_process(source: str | IO[str]) -> ProcessModel:
    """Parse a process document into a ProcessModel.

    The document root must be <process> with a non-empty name, holding
    optional <partnerLinks> and <variables> sections and exactly one
    structured root activity.
    """
    root = _load_xml(_read(source))
    if root.tag != "process":
        raise StructuralError(f"expected <process> document root, got <{root.tag}>", line=root.line)
    name = root.attributes.get("name", "")
    if not name:
        raise StructuralError("<process> requires a non-empty name attribute", line=root.line)
    partner_links: list[tuple[str, dict[str, str]]] = []
    variables: list[tuple[str, dict[str, str]]] = []
    body: list[tuple[Activity, int]] = []
    for child in root.children:
        if child.tag == "partnerLinks":
            partner_links.extend(_parse_declarations(child, "partnerLink"))
        elif child.tag == "variables":
            variables.extend(_parse_declarations(child, "variable"))
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
    return ProcessModel(
        name=name,
        root=activity,
        partner_links=tuple(partner_links),
        variables=tuple(variables),
        attributes=attributes,
    )


_TRUE_WORDS = frozenset({"true", "1", "yes"})
_FALSE_WORDS = frozenset({"false", "0", "no"})


def _parse_enabled(value: str, line: int) -> bool:
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise StructuralError(f"bad enabled value {value!r} (expected true/false)", line=line)


def parse_aspect(source: str | IO[str]) -> Aspect:
    """Parse an aspect document: pointcuts plus exactly one typed advice."""
    root = _load_xml(_read(source))
    if root.tag != "aspect":
        raise StructuralError(f"expected <aspect> document root, got <{root.tag}>", line=root.line)
    return _aspect_from_node(root)


def _aspect_from_node(root: _XmlNode) -> Aspect:
    from .selectors import parse_selector

    name = root.attributes.get("name", "")
    if not name:
        raise StructuralError("<aspect> requires a non-empty name attribute", line=root.line)
    enabled = True
    if "enabled" in root.attributes:
        enabled = _parse_enabled(root.attributes["enabled"], root.line)
    pointcuts: list[Pointcut] = []
    advices: list[tuple[str, Activity]] = []
    for child in root.children:
        if child.tag in ("partnerLinks", "variables"):
            # checked like a process's declarations (each entry tag is the
            # section tag without its "s"), but not kept
            _parse_declarations(child, child.tag[:-1])
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
            if len(child.children) != 1:
                raise StructuralError(
                    f"<advice> must wrap exactly one activity, found {len(child.children)}",
                    line=child.line,
                )
            advices.append((advice_type, _parse_activity(child.children[0])))
        else:
            raise UnsupportedElement(f"unsupported element <{child.tag}> in <aspect>", line=child.line)
    if not pointcuts:
        raise MissingPointcut(f"aspect '{name}' declares no pointcut", line=root.line)
    if len(advices) != 1:
        raise StructuralError(f"aspect '{name}' must declare exactly one advice, found {len(advices)}", line=root.line)
    advice_type, advice_body = advices[0]
    return Aspect(
        name=name,
        pointcuts=tuple(pointcuts),
        advice_type=advice_type,
        advice_body=advice_body,
        enabled=enabled,
    )


# Whitespace other than a space is escaped too: a parser turns a literal
# newline, carriage return or tab in an attribute value into a space.
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                                "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _attr_text(attributes: dict[str, str]) -> str:
    return "".join(f' {key}="{attributes[key].translate(_ATTR_ESCAPES)}"' for key in sorted(attributes))


def _named_attrs(name: str | None, attributes) -> dict[str, str]:
    merged = dict(attributes)
    if name:
        merged["name"] = name
    return merged


def _emit_activity(root: Activity, indent: int, lines: list[str]) -> None:
    # An explicit stack, so nesting depth is not bounded by the recursion
    # limit. Its entries are (activity, indent) pairs still to emit and
    # ready lines (closing and branch-wrapper tags), popped in document order.
    stack: list[tuple[Activity, int] | str] = [(root, indent)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        activity, indent = entry
        pad = "  " * indent
        attrs = _attr_text(_named_attrs(activity.name, activity.attributes))
        if not activity.children:
            lines.append(f"{pad}<{activity.kind}{attrs}/>")
            continue
        lines.append(f"{pad}<{activity.kind}{attrs}>")
        stack.append(f"{pad}</{activity.kind}>")
        if activity.branch_labels is not None:
            for label, child in reversed(tuple(zip(activity.branch_labels, activity.children))):
                wrapper_attrs = _attr_text(dict(label.attributes))
                stack += (f"{pad}  </{label.element}>", (child, indent + 2), f"{pad}  <{label.element}{wrapper_attrs}>")
        else:
            stack += ((child, indent + 1) for child in reversed(activity.children))


def serialize_process(process: ProcessModel) -> str:
    """Canonical XML form: two-space indent, attributes sorted by name.

    Re-parsing the output yields a structurally equal ProcessModel.
    """
    lines = ['<?xml version="1.0" encoding="utf-8"?>']
    attrs = _attr_text(_named_attrs(process.name, process.attributes))
    lines.append(f"<process{attrs}>")
    for section, entry_tag, entries in (
        ("partnerLinks", "partnerLink", process.partner_links),
        ("variables", "variable", process.variables),
    ):
        if entries:
            lines.append(f"  <{section}>")
            for entry_name, entry_attrs in entries:
                lines.append(f"    <{entry_tag}{_attr_text(_named_attrs(entry_name or None, entry_attrs))}/>")
            lines.append(f"  </{section}>")
    _emit_activity(process.root, 1, lines)
    lines.append("</process>")
    return "\n".join(lines) + "\n"
