"""Readers for process and aspect XML, plus the canonical serializer.

Matching is namespace-blind: element and attribute names are reduced to
their local part, so both bare listings and engine-exported documents
parse the same way. Elements in activity position must be one of the
nine supported kinds; the inner content of basic activities (copy
specs, payload literals) is treated as opaque and ignored. Switch and
pick branch wrappers, with their conditions, and the <partnerLinks> and
<variables> sections are checked but not kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping
from xml.parsers import expat

from .errors import AdaptMeterError, MalformedXml, MissingPointcut, SelectorSyntax, StructuralError, UnsupportedElement
from .model import ACTIVITY_KINDS, BASIC_KINDS, STRUCTURED_KINDS, Activity, ProcessModel, Record, _set
from .model import check_advice_type

if TYPE_CHECKING:
    import os
    from pathlib import Path

    from .selectors import PointcutSelector


class Pointcut(Record):
    __slots__ = ("name", "selector")

    def __init__(self, name: str, selector: PointcutSelector) -> None:
        _set(self, "name", name)
        _set(self, "selector", selector)


class Aspect(Record):
    """One adaptation unit: pointcut selectors plus a single typed advice.

    ``enabled`` mirrors the ability to switch aspects on and off without
    touching the process; disabled aspects are ignored by default. The
    advice's activity is checked when the aspect is parsed, but not kept.
    An advice type outside `model.ADVICE_TYPES` raises BadAdviceType, and an
    ``enabled`` that is not a bool raises StructuralError.
    """

    __slots__ = ("name", "pointcuts", "advice_type", "enabled")

    def __init__(self, name: str, pointcuts: tuple[Pointcut, ...], advice_type: str, enabled: bool = True) -> None:
        check_advice_type(advice_type)
        if type(enabled) is not bool:
            raise StructuralError(f"enabled must be True or False, got {enabled!r}")
        _set(self, "name", name)
        _set(self, "pointcuts", pointcuts)
        _set(self, "advice_type", advice_type)
        _set(self, "enabled", enabled)


# The elements that may wrap each branch of a switch or pick.
BRANCH_ELEMENTS = {"switch": ("case", "otherwise"), "pick": ("onMessage", "onAlarm")}
_ENABLED = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


# The role of an open element, which decides what its children may be.
# Roles up to _ROOT hold activities; a _WRAPPER (a switch/pick branch or
# an <advice>) must hold exactly one.
_ACTIVITY, _WRAPPER, _ROOT, _ASPECT, _BRANCHING, _SECTION, _POINTCUT, _DOCUMENT = range(8)
# An open element's frame is a list with these slots. _NAME holds its name
# attribute and _ATTRS its other attributes, but an aspect's _ATTRS holds
# its enabled flag. _KIDS collects its content: activities, pointcuts or a
# pointcut's text. _MORE collects a branching activity's wrapper tags, a
# process's root-activity lines or an aspect's advice types.
_ROLE, _TAG, _LINE, _NAME, _ATTRS, _KIDS, _MORE = range(7)
_SECTIONS = {"partnerLinks": "partnerLink", "variables": "variable"}
# The deepest element nesting a document may have, its root element being
# at depth 1; opaque content is not counted. A report grows with the sum of
# its nodes' depths, so a chain N deep would cost O(N^2) time and memory.
MAX_NESTING = 2000


def _build(text: str, root_tag: str, other_roots: bool = False):
    """Read a process or aspect document in one streaming pass.

    Each element is checked when its start or end tag arrives: the rules of
    a start tag when it opens, and an element's counts when it closes. Each
    activity is built when its element closes. The first broken rule read
    is the one reported. Malformed XML outranks it, so after it expat still
    reads the rest of the document, with no handlers. Each handler hands
    its error to ``fail`` with the line that locates it: ``start`` the
    start tag's, ``end`` the line where the closing element opened. Only a
    basic root activity is located at its own line instead. The advice
    type is checked by `model.check_advice_type`, as a binding's is.

    Returns the ProcessModel or Aspect, or None for a document whose root
    is not ``root_tag`` when ``other_roots`` is set.
    """
    if root_tag == "aspect":
        from .selectors import parse_selector
    parser = expat.ParserCreate()
    stack: list = [[_DOCUMENT, None, 0, None, None, [], None]]
    skip = 0  # open elements inside opaque content: basic activities, declarations, pointcut children
    error: AdaptMeterError | None = None
    result = None

    def fail(exc: AdaptMeterError, line: int) -> None:
        # An error with no line of its own is located at ``line``. With no
        # handlers, expat only checks the rest is well-formed XML.
        nonlocal error
        if exc.line is None:
            exc.line = line
        error = exc
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal skip
        if skip:
            skip += 1
            return
        # Only a prefixed name needs its prefix cut. expat hands each element
        # a fresh dict, which already holds only local names unless some
        # name has a prefix or is a bare xmlns.
        if ":" in tag:
            tag = tag.rpartition(":")[2]
        if attrs and (":" in "".join(attrs) or "xmlns" in attrs):
            attrs = {key.rpartition(":")[2]: value for key, value in attrs.items()
                     if key != "xmlns" and not key.startswith("xmlns:")}
        parent = stack[-1]
        role = parent[_ROLE]
        try:
            if len(stack) > MAX_NESTING:  # the stack holds the document and every open element
                raise StructuralError(f"nesting deeper than {MAX_NESTING}")
            if role == _ROOT and tag not in _SECTIONS:
                if tag not in ACTIVITY_KINDS:
                    raise UnsupportedElement(f"unsupported element <{tag}> in <process>")
                parent[_MORE].append(parser.CurrentLineNumber)
            elif role >= _ROOT:
                line = parser.CurrentLineNumber
                if role <= _ASPECT and tag in _SECTIONS:
                    stack.append([_SECTION, tag, line, None, None, None, None])
                elif role == _ASPECT and tag == "pointcut":
                    name = attrs.get("name") or f"pointcut{len(parent[_KIDS]) + 1}"
                    stack.append([_POINTCUT, tag, line, name, None, [], None])
                    parser.CharacterDataHandler = stack[-1][_KIDS].append
                elif role == _ASPECT:
                    if tag != "advice":
                        raise UnsupportedElement(f"unsupported element <{tag}> in <aspect>")
                    check_advice_type(attrs.get("type", ""))
                    stack.append([_WRAPPER, tag, line, None, attrs, [], None])
                elif role == _BRANCHING:
                    allowed = BRANCH_ELEMENTS[parent[_TAG]]
                    if tag not in allowed:
                        raise UnsupportedElement(f"<{parent[_TAG]}> branches must be "
                                                 f"{' or '.join(f'<{a}>' for a in allowed)}, got <{tag}>")
                    stack.append([_WRAPPER, tag, line, None, None, [], None])
                elif role == _SECTION:
                    if tag != _SECTIONS[parent[_TAG]]:
                        raise UnsupportedElement(f"unsupported element <{tag}> in <{parent[_TAG]}>")
                    skip = 1
                elif role == _POINTCUT:
                    parser.CharacterDataHandler = None
                    skip = 1
                elif tag != root_tag:
                    if not other_roots:
                        raise StructuralError(f"expected <{root_tag}> document root, got <{tag}>")
                    parser.StartElementHandler = parser.EndElementHandler = None
                else:
                    name = attrs.pop("name", "")
                    if not name:
                        raise StructuralError(f"<{tag}> requires a non-empty name attribute")
                    if tag == "process":
                        stack.append([_ROOT, tag, line, name, attrs, [], []])
                    else:
                        enabled = _ENABLED.get(attrs.get("enabled", "true").strip().lower())
                        if enabled is None:
                            raise StructuralError(f"bad enabled value {attrs['enabled']!r} (expected true/false)")
                        stack.append([_ASPECT, tag, line, name, enabled, [], []])
                return
            # an activity, in a structured activity, a wrapper or the process
            if tag in BASIC_KINDS:
                parent[_KIDS].append(Activity(tag, attrs.pop("name", None), attrs))
                skip = 1
            elif tag in STRUCTURED_KINDS:
                role = _BRANCHING if tag in BRANCH_ELEMENTS else _ACTIVITY
                stack.append([role, tag, parser.CurrentLineNumber, attrs.pop("name", None), attrs, [], []])
            else:
                raise UnsupportedElement(f"<{tag}> is not a supported activity")
        except AdaptMeterError as exc:
            fail(exc, parser.CurrentLineNumber)

    def end(tag: str) -> None:
        nonlocal skip, result
        if skip:
            skip -= 1
            if not skip and stack[-1][_ROLE] == _POINTCUT:
                parser.CharacterDataHandler = stack[-1][_KIDS].append
            return
        role, tag, line, name, attributes, children, more = stack.pop()
        parent = stack[-1]
        try:
            if role == _ACTIVITY or role == _BRANCHING:
                if more.count("otherwise") > 1:
                    raise StructuralError("<switch> allows at most one <otherwise> branch")
                parent[_KIDS].append(Activity(tag, name, attributes, children))
            elif role == _WRAPPER:
                if len(children) != 1:
                    raise StructuralError(f"<{tag}> must wrap exactly one activity, found {len(children)}")
                if parent[_ROLE] == _BRANCHING:
                    parent[_MORE].append(tag)
                    parent[_KIDS].append(children[0])
                else:  # an <advice>: its activity is checked, not kept
                    parent[_MORE].append(attributes["type"])
            elif role == _POINTCUT:
                parser.CharacterDataHandler = None
                try:
                    parent[_KIDS].append(Pointcut(name, parse_selector("".join(children))))
                except SelectorSyntax as exc:
                    raise SelectorSyntax(f"pointcut '{name}': {exc}") from exc
            elif role == _ROOT:
                if len(children) != 1:
                    raise StructuralError(f"<process> must contain exactly one root activity, found {len(children)}")
                try:
                    result = ProcessModel(name, children[0], attributes)
                except StructuralError as exc:  # a basic root activity
                    exc.line = more[0]
                    raise
            elif role == _ASPECT:
                if not children:
                    raise MissingPointcut(f"aspect '{name}' declares no pointcut")
                if len(more) != 1:
                    raise StructuralError(f"aspect '{name}' must declare exactly one advice, found {len(more)}")
                result = Aspect(name, tuple(children), more[0], attributes)  # the enabled flag
        except AdaptMeterError as exc:
            fail(exc, line)

    def doctype(*_) -> None:
        # The grammar needs no DTD; refusing one also refuses entity declarations.
        raise MalformedXml("<!DOCTYPE> declarations are not allowed", line=parser.CurrentLineNumber)

    parser.buffer_text = True
    parser.StartDoctypeDeclHandler = doctype
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc), line=exc.lineno) from exc
    finally:
        # The handlers refer to the parser, a cycle that would keep the
        # frames alive until the cyclic collector runs.
        parser.StartDoctypeDeclHandler = parser.StartElementHandler = None
        parser.EndElementHandler = parser.CharacterDataHandler = None
    if error is not None:
        try:
            raise error
        finally:
            # The error's traceback holds the handlers' frames and this one,
            # and through them the variable that holds the error: a cycle
            # that would keep the whole tree read so far alive.
            error = None
    return result


def parse_process(text: str) -> ProcessModel:
    """Parse the text of a process document into a ProcessModel, indexed.

    The document root must be <process> with a non-empty name, holding
    optional <partnerLinks> and <variables> sections, which are checked
    but not kept, and exactly one structured root activity. For a file,
    pass ``path.read_text(encoding="utf-8")``.
    """
    return _build(text, "process")


def parse_aspect(text: str) -> Aspect:
    """Parse the text of an aspect document: pointcuts plus exactly one typed advice."""
    return _build(text, "aspect")


def _load(path: Path, parse: Callable[[str], object]):
    """``parse`` the UTF-8 text of a file; an error's ``source`` names the file."""
    try:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedXml(f"not UTF-8 text: {exc}") from exc
        return parse(text)
    except AdaptMeterError as exc:
        exc.source = str(path)
        raise


def load_aspects(paths: Iterable[str | os.PathLike[str]]) -> tuple[list[Aspect], list[str]]:
    """Read aspect files and directories; return the aspects and notes on skipped files.

    A directory contributes its ``*.xml`` files (not its subdirectories),
    in name order. There, a file whose root is not <aspect> is skipped,
    and one that is not well-formed UTF-8 XML is skipped with a note. A
    file named directly must parse. An error's ``source`` names its file.
    """
    import os
    from pathlib import Path

    if isinstance(paths, (str, os.PathLike)):
        raise TypeError(f"load_aspects takes a list of paths, not one path: {paths!r}")
    aspects: list[Aspect] = []
    notes: list[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_dir():
            aspects.append(_load(path, parse_aspect))
            continue
        for candidate in sorted(path.glob("*.xml")):
            if not candidate.is_file():
                continue
            try:
                aspect = _load(candidate, lambda text: _build(text, "aspect", other_roots=True))
            except MalformedXml as exc:
                notes.append(f"skipping {candidate}: {exc}")
                continue
            if aspect is not None:
                aspects.append(aspect)
    return aspects, notes


# Whitespace other than a space is escaped too: a parser turns a literal
# newline, carriage return or tab in an attribute value into a space.
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                                "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _attr_text(name: str | None, attributes: Mapping[str, str]) -> str:
    """A start tag's attributes, with ``name`` among them, sorted by name and escaped."""
    if name:
        attributes = {**attributes, "name": name}
    return "".join(f' {key}="{attributes[key].translate(_ATTR_ESCAPES)}"' for key in sorted(attributes))


def serialize_process(process: ProcessModel) -> str:
    """Canonical XML form: two-space indent, attributes sorted by name.

    Each switch branch is wrapped in a bare <case>, each pick branch in a
    bare <onMessage>, and no declaration section is written: the model
    keeps neither. Re-parsing the output yields an equal ProcessModel.
    """
    lines = ['<?xml version="1.0" encoding="utf-8"?>', f"<process{_attr_text(process.name, process.attributes)}>"]
    # An explicit stack, so nesting depth is not bounded by the recursion
    # limit. Its entries are (activity, indent) pairs still to emit and
    # ready lines (closing and branch-wrapper tags), popped in document order.
    stack: list[tuple[Activity, int] | str] = ["</process>", (process.root, 1)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        activity, indent = entry
        pad = "  " * indent
        tag = f"{pad}<{activity.kind}{_attr_text(activity.name, activity.attributes)}"
        if not activity.children:
            lines.append(f"{tag}/>")
            continue
        lines.append(f"{tag}>")
        stack.append(f"{pad}</{activity.kind}>")
        if activity.kind in BRANCH_ELEMENTS:
            wrapper = BRANCH_ELEMENTS[activity.kind][0]
            for child in reversed(activity.children):
                stack += (f"{pad}  </{wrapper}>", (child, indent + 2), f"{pad}  <{wrapper}>")
        else:
            stack += ((child, indent + 1) for child in reversed(activity.children))
    return "\n".join(lines) + "\n"
