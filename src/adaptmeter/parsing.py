"""Readers for process and aspect XML, plus the canonical serializer.

Matching is namespace-blind: element and attribute names are reduced to
their local part, so both bare listings and engine-exported documents
parse the same way. Elements in activity position must be one of the
nine supported kinds; the inner content of basic activities (copy
specs, payload literals) is treated as opaque and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO
from xml.parsers import expat

from .errors import BadAdviceType, MalformedXml, MissingPointcut, SelectorSyntax, StructuralError, UnsupportedElement
from .model import (
    ACTIVITY_KINDS,
    ADVICE_TYPES,
    BASIC_KINDS,
    STRUCTURED_KINDS,
    Activity,
    BranchLabel,
    ProcessModel,
)
from .selectors import PointcutSelector, parse_selector


@dataclass(frozen=True)
class Pointcut:
    name: str
    selector: PointcutSelector


@dataclass(frozen=True)
class Aspect:
    """One adaptation unit: pointcut selectors plus a single typed advice.

    ``enabled`` mirrors the ability to switch aspects on and off without
    touching the process; disabled aspects are ignored by default.
    """

    name: str
    pointcuts: tuple[Pointcut, ...]
    advice_type: str
    advice_body: Activity
    enabled: bool = True


@dataclass
class _XmlNode:
    tag: str
    attributes: dict[str, str]
    line: int
    children: list["_XmlNode"] = field(default_factory=list)
    text: str = ""


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
            stack[-1].text += data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc), line=exc.lineno) from exc
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


def _parse_activity(node: _XmlNode) -> Activity:
    if node.tag not in ACTIVITY_KINDS:
        raise UnsupportedElement(f"<{node.tag}> is not a supported activity", line=node.line)
    attributes = dict(node.attributes)
    name = attributes.pop("name", None)
    if node.tag in BASIC_KINDS:
        return Activity(node.tag, name, attributes)
    if node.tag in ("sequence", "flow", "while"):
        children = tuple(_parse_activity(child) for child in node.children)
        return Activity(node.tag, name, attributes, children)
    # switch / pick: children are branch wrappers, each holding one activity
    allowed = ("case", "otherwise") if node.tag == "switch" else ("onMessage", "onAlarm")
    children = []
    labels = []
    for branch in node.children:
        if branch.tag not in allowed:
            raise UnsupportedElement(
                f"<{node.tag}> branches must be {' or '.join(f'<{a}>' for a in allowed)}, got <{branch.tag}>",
                line=branch.line,
            )
        if len(branch.children) != 1:
            raise StructuralError(
                f"<{branch.tag}> must wrap exactly one activity, found {len(branch.children)}",
                line=branch.line,
            )
        children.append(_parse_activity(branch.children[0]))
        labels.append(BranchLabel(branch.tag, dict(branch.attributes)))
    try:
        return Activity(node.tag, name, attributes, tuple(children), tuple(labels))
    except StructuralError as exc:
        exc.line = node.line
        raise


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
                selector = parse_selector(child.text)
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


def _attr_text(attributes: dict[str, str]) -> str:
    parts = []
    for key in sorted(attributes):
        value = attributes[key].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        parts.append(f' {key}="{value}"')
    return "".join(parts)


def _named_attrs(name: str | None, attributes) -> dict[str, str]:
    merged = dict(attributes)
    if name:
        merged["name"] = name
    return merged


def _emit_activity(activity: Activity, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    attrs = _attr_text(_named_attrs(activity.name, activity.attributes))
    if not activity.children:
        lines.append(f"{pad}<{activity.kind}{attrs}/>")
        return
    lines.append(f"{pad}<{activity.kind}{attrs}>")
    if activity.branch_labels is not None:
        for label, child in zip(activity.branch_labels, activity.children):
            wrapper_attrs = _attr_text(dict(label.attributes))
            lines.append(f"{pad}  <{label.element}{wrapper_attrs}>")
            _emit_activity(child, indent + 2, lines)
            lines.append(f"{pad}  </{label.element}>")
    else:
        for child in activity.children:
            _emit_activity(child, indent + 1, lines)
    lines.append(f"{pad}</{activity.kind}>")


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
