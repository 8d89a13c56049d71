"""Pointcut selector mini-language.

A selector is one or more descendant steps, each ``//element``
optionally followed by attribute-equality predicates:

    //process[@name="TravelBooking"]//invoke[@operation="bookFlight"]

Steps match by local element name; predicates are conjunctive string
comparisons against the target's name and attributes, written either as
chained brackets ``[@a="x"][@b="y"]`` or joined with ``and`` inside one
bracket. Quotes may be single or double, and whitespace between steps
is tolerated. Anything outside this grammar (other axes, functions,
positional tests) raises SelectorSyntax rather than being ignored.
"""

from __future__ import annotations

import re

from .errors import SelectorSyntax
from .model import ACTIVITY_KINDS, Record, _set

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_SPACE_RE = re.compile(r"\s*")  # \s matches what str.isspace does


class PointcutSelector(Record):
    """A parsed selector: one ``(element, predicates)`` pair per step.

    Each step's predicates are a tuple of ``(attribute, value)`` pairs,
    all of which must hold.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]) -> None:
        _set(self, "steps", steps)

    def __str__(self) -> str:
        return render_selector(self)


def _name(text: str, pos: int, what: str) -> tuple[str, int]:
    match = _NAME_RE.match(text, pos)
    if match is None:
        raise SelectorSyntax(f"expected {what} at position {pos} in {text!r}")
    return match.group(), match.end()


def parse_selector(text: str) -> PointcutSelector:
    """Parse selector text into structured steps."""
    skip = _SPACE_RE.match  # skip(text, pos).end() is pos past any whitespace
    pos = skip(text).end()
    if pos == len(text):
        raise SelectorSyntax("empty selector")
    steps = []
    while pos < len(text):
        if not text.startswith("//", pos):
            raise SelectorSyntax(f"expected descendant axis '//' at position {pos} in {text!r}")
        element, pos = _name(text, pos + 2, "element name")
        predicates = []
        while text.startswith("[", pos):
            pos += 1
            while True:  # one @attribute="value" per turn, after "[" or "and"
                pos = skip(text, pos).end()
                if not text.startswith("@", pos):
                    raise SelectorSyntax(
                        f"only attribute-equality predicates are supported, at position {pos} in {text!r}"
                    )
                attribute, pos = _name(text, pos + 1, "attribute name")
                pos = skip(text, pos).end()
                if not text.startswith("=", pos):
                    raise SelectorSyntax(f"expected '=' after @{attribute} in {text!r}")
                pos = skip(text, pos + 1).end()
                quote = text[pos : pos + 1]
                if quote not in ("'", '"'):
                    raise SelectorSyntax(f"expected quoted value at position {pos} in {text!r}")
                end = text.find(quote, pos + 1)
                if end < 0:
                    raise SelectorSyntax(f"unterminated string at position {pos} in {text!r}")
                predicates.append((attribute, text[pos + 1 : end]))
                pos = skip(text, end + 1).end()
                if text.startswith("]", pos):
                    break
                if not text.startswith("and", pos):
                    raise SelectorSyntax(f"expected ']' or 'and' at position {pos} in {text!r}")
                pos += 3
            pos += 1
        steps.append((element, tuple(predicates)))
        pos = skip(text, pos).end()
    first = steps[0][0]
    if first != "process" and first not in ACTIVITY_KINDS:
        raise SelectorSyntax(f"selector must start at //process or an activity kind, got //{first}")
    return PointcutSelector(tuple(steps))


def render_selector(selector: PointcutSelector) -> str:
    """Canonical text form; parse_selector(render_selector(s)) == s.

    Only a selector built in Python can lack a text form: one with no
    steps, a name outside the grammar, a first step that is neither
    //process nor an activity kind, or a predicate value holding both
    quote characters (the grammar has no escape). The text is parsed
    back, so each raises SelectorSyntax, as does text that would read
    back as a different selector.
    """
    parts = []
    for element, predicates in selector.steps:
        parts.append(f"//{element}")
        for attribute, value in predicates:
            quote = "'" if '"' in value else '"'
            if quote in value:
                raise SelectorSyntax(f"predicate value {value!r} holds both quote characters, which no selector "
                                     f"text can write")
            parts.append(f"[@{attribute}={quote}{value}{quote}]")
    text = "".join(parts)
    if parse_selector(text) != selector:
        raise SelectorSyntax(f"{text!r} reads back as a different selector")
    return text
