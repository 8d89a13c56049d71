"""Pointcut selector parsing and rendering."""

from __future__ import annotations

import random
import time

import pytest

import oracles
from adaptmeter import SelectorSyntax
from adaptmeter.selectors import PointcutSelector, parse_selector, render_selector

FLIGHT_SELECTOR = '//process[@name="TravelBooking"]//invoke[@operation="bookFlight"]'


class TestParseSelector:
    def test_two_step_selector(self):
        selector = parse_selector(FLIGHT_SELECTOR)
        assert selector.steps == (
            ("process", (("name", "TravelBooking"),)),
            ("invoke", (("operation", "bookFlight"),)),
        )

    def test_bare_element(self):
        selector = parse_selector("//receive")
        assert selector.steps == (("receive", ()),)

    def test_single_quotes(self):
        selector = parse_selector("//invoke[@operation='bookHotel']")
        assert selector.steps[0][1] == (("operation", "bookHotel"),)

    def test_whitespace_between_steps(self):
        selector = parse_selector('//process[@name="TravelBooking"]\n    //invoke[@operation="bookFlight"]')
        assert len(selector.steps) == 2

    def test_conjunction_with_and(self):
        selector = parse_selector('//invoke[@operation="book" and @partnerLink="airline"]')
        assert selector.steps[0][1] == (("operation", "book"), ("partnerLink", "airline"))

    def test_chained_bracket_predicates(self):
        selector = parse_selector('//invoke[@operation="book"][@partnerLink="airline"]')
        assert selector.steps[0][1] == (("operation", "book"), ("partnerLink", "airline"))

    def test_function_predicate_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('//invoke[contains(@operation,"book")]')

    def test_child_axis_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('/invoke[@operation="book"]')

    def test_empty_selector_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector("   ")

    def test_unterminated_string_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('//invoke[@operation="book]')

    def test_missing_equals_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('//invoke[@operation]')

    def test_first_step_must_be_process_or_activity(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('//partnerLink[@name="client"]')
        # later steps are unconstrained; they simply may not match anything
        parse_selector('//process//partnerLink')

    def test_trailing_junk_rejected(self):
        with pytest.raises(SelectorSyntax):
            parse_selector('//invoke/text()')


class TestRenderSelector:
    @pytest.mark.parametrize(
        "text",
        [
            FLIGHT_SELECTOR,
            "//receive",
            '//invoke[@operation="book" and @partnerLink="airline"]',
            "//switch//invoke[@operation='x y']",
        ],
    )
    def test_parse_render_round_trip(self, text):
        selector = parse_selector(text)
        assert parse_selector(render_selector(selector)) == selector

    def test_render_uses_single_quotes_for_values_with_double_quotes(self):
        selector = parse_selector("//invoke[@operation='say \"hi\"']")
        rendered = render_selector(selector)
        assert "'say \"hi\"'" in rendered
        assert parse_selector(rendered) == selector

    def test_render_refuses_a_value_with_both_quotes(self):
        value = 'it\'s "x"'
        selector = PointcutSelector((("invoke", (("name", value),)),))
        with pytest.raises(SelectorSyntax, match="both quote characters") as excinfo:
            render_selector(selector)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize(
        "selector",
        [
            PointcutSelector((("in voke", ()),)),
            PointcutSelector((("invoke", (("op name", "x"),)),)),
            PointcutSelector((("foo", ()),)),
            PointcutSelector(()),
            PointcutSelector((("invoke ", ()),)),
        ],
        ids=["space-in-element", "space-in-attribute", "first-step-not-an-activity", "no-steps", "reads-back-trimmed"],
    )
    def test_render_refuses_a_selector_without_text(self, selector):
        with pytest.raises(SelectorSyntax):
            render_selector(selector)

    def test_str_is_the_rendered_text(self):
        selector = parse_selector(FLIGHT_SELECTOR)
        assert str(selector) == render_selector(selector) == FLIGHT_SELECTOR


# Pieces of selector text, valid and not: Unicode whitespace that
# str.isspace accepts (and a zero-width space it does not), names with
# the characters a name may hold after its first, and stray punctuation.
_PIECES = ("//", "/", "[", "]", "@", "=", "and", "an", " ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u200b",
           '"', "'", "invoke", "process", "partnerLink", "sequence", "op-1.x", "_n", "9", "(", ")", "*", "][")


def _near_grammar(rng: random.Random) -> str:
    """A selector in the grammar, then perhaps one character dropped, doubled or swapped for a piece."""

    def space() -> str:
        return rng.choice(("", "", " ", "\n  ", "\t", "\xa0"))

    text = space()
    for _ in range(rng.randint(1, 3)):
        text += "//" + rng.choice(("process", "invoke", "sequence", "switch", "case", "x.y-z"))
        for _ in range(rng.choice((0, 0, 1, 2))):
            terms = []
            for _ in range(rng.randint(1, 2)):
                quote = rng.choice(("'", '"'))
                value = rng.choice(("book", "a b", "say 'hi'", 'say "hi"', ""))
                terms.append(f"{space()}@{rng.choice(('name', 'operation'))}{space()}={space()}{quote}{value}{quote}")
            text += "[" + f"{space()}and".join(terms) + space() + "]"
        text += space()
    if text and rng.random() < 0.7:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(("", text[at] * 2, rng.choice(_PIECES))) + text[at + 1:]
    return text


def _parsed(parse, text: str):
    """The selector, or the message of the SelectorSyntax raised instead."""
    try:
        return parse(text)
    except SelectorSyntax as exc:
        return str(exc)


def test_parser_agrees_with_the_scanner_it_replaced():
    rng = random.Random(20240)
    texts = [_near_grammar(rng) for _ in range(12_000)]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 10))) for _ in range(12_000)]
    start = time.perf_counter()
    parsed = [_parsed(parse_selector, text) for text in texts]
    elapsed = time.perf_counter() - start
    for text, result in zip(texts, parsed):
        assert result == _parsed(oracles.parse_selector_scanning, text), text
    valid = sum(not isinstance(result, str) for result in parsed)
    assert 2_000 < valid < 20_000  # both parsers see selectors and errors in number
    assert elapsed < 1.0
