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


class SelectorStep(Record):
    __slots__ = ("element", "predicates")

    def __init__(self, element: str, predicates: tuple[tuple[str, str], ...] = ()) -> None:
        _set(self, "element", element)
        _set(self, "predicates", predicates)


class PointcutSelector(Record):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[SelectorStep, ...]) -> None:
        _set(self, "steps", steps)

    def __str__(self) -> str:
        return render_selector(self)


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


def parse_selector(text: str) -> PointcutSelector:
    """Parse selector text into structured steps."""
    scanner = _Scanner(text)
    steps: list[SelectorStep] = []
    scanner.skip_ws()
    if scanner.at_end():
        raise SelectorSyntax("empty selector")
    while not scanner.at_end():
        if not scanner.take("//"):
            raise SelectorSyntax(f"expected descendant axis '//' at position {scanner.pos} in {text!r}")
        element = scanner.expect_name("element name")
        steps.append(SelectorStep(element, _parse_predicates(scanner)))
        scanner.skip_ws()
    first = steps[0].element
    if first != "process" and first not in ACTIVITY_KINDS:
        raise SelectorSyntax(f"selector must start at //process or an activity kind, got //{first}")
    return PointcutSelector(tuple(steps))


def render_selector(selector: PointcutSelector) -> str:
    """Canonical text form; parse_selector(render_selector(s)) == s."""
    parts = []
    for step in selector.steps:
        parts.append(f"//{step.element}")
        for attribute, value in step.predicates:
            quote = "'" if '"' in value else '"'
            parts.append(f"[@{attribute}={quote}{value}{quote}]")
    return "".join(parts)
