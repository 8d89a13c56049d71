"""Selectors against CPython's ElementPath, an XPath subset written by other hands.

README says selectors behave like the XPath subset ``//step[@a="v"]...``.
`oracles.match_selector_elementpath` runs each selector through
``xml.etree.ElementTree`` on the process's canonical XML, and
`match_selector` must find the same activities in the same order.
"""

from __future__ import annotations

import random

from adaptmeter import ProcessModel
from adaptmeter.matching import match_selector
from adaptmeter.model import ACTIVITY_KINDS
from adaptmeter.selectors import parse_selector
import oracles
from randtrees import random_process

PROCESSES = 600
SELECTORS_PER_PROCESS = 10
KINDS = sorted(ACTIVITY_KINDS)
ATTRIBUTES = ("name", "operation", "version")
# Values no random tree holds: markup characters, spaces, one quote kind,
# non-ASCII text, the empty string, and both quote kinds (skipped).
ODD_VALUES = ("", "op 1", "<&>", "it's", 'say "hi"', "café", "a]b", "a/b", "both'\"")


def _random_predicates(rng: random.Random, target, pool: list[str]) -> list[tuple[str, str]]:
    """Mostly the target's own name and attributes, so that steps hit; else any pair."""
    own = [("name", target.name)] if target.name else []
    own += sorted(target.attributes.items())
    predicates = []
    for _ in range(rng.choice((0, 0, 1, 1, 2) if own else (0, 0, 0, 1))):
        if own and rng.random() < 0.7:
            predicates.append(rng.choice(own))
        else:
            value = rng.choice(pool) if rng.random() < 0.7 else rng.choice(ODD_VALUES)
            predicates.append((rng.choice(ATTRIBUTES), value))
    return predicates


def _random_selector_text(rng: random.Random, process: ProcessModel, pool: list[str]) -> str | None:
    """Chained-bracket selector text, or None when a value holds both quote kinds.

    Most selectors follow a real chain from <process> down to one node, so
    multi-step selectors often match.
    """
    index = process.index
    rank = rng.randrange(len(index.activities))
    chain = []
    # A node is at most len(parents) steps below the root, whose parent is -1.
    for _ in index.parents:
        chain.append(index.activities[rank])
        rank = index.parents[rank]
        if rank < 0:
            break
    assert rank == -1, f"walking up {len(index.parents)} parents ended at rank {rank}, not -1"
    chain = [process, *reversed(chain)]
    size = rng.randint(1, 3)
    if rng.random() < 0.7 and len(chain) >= size:
        targets = [chain[i] for i in sorted(rng.sample(range(len(chain)), size))]
    else:
        targets = [rng.choice(chain) for _ in range(size)]
    parts = []
    for position, target in enumerate(targets):
        element = "process" if target is process else target.kind
        if rng.random() < 0.15 and (position or element != "process"):
            element = rng.choice(KINDS)
        parts.append(f"//{element}")
        for attribute, value in _random_predicates(rng, target, pool):
            if "'" in value and '"' in value:
                return None
            quote = "'" if '"' in value else '"'
            parts.append(f"[@{attribute}={quote}{value}{quote}]")
    return "".join(parts)


def _values(process: ProcessModel) -> list[str]:
    """The names and attribute values in the tree, plus the process's own."""
    values = {process.name, *process.attributes.values()}
    for activity in process.index.activities:
        values.update(filter(None, (activity.name, *activity.attributes.values())))
    return sorted(values)


def test_match_selector_agrees_with_elementpath():
    rng = random.Random(20260)
    checked = hits = 0
    for _ in range(PROCESSES):
        process = random_process(rng, max_depth=5, max_nodes=25)
        if rng.random() < 0.3:  # a process attribute for //process predicates to test
            process = ProcessModel(process.name, process.root, {"version": rng.choice(("1", "2"))})
        pool = _values(process)
        for _ in range(SELECTORS_PER_PROCESS):
            text = _random_selector_text(rng, process, pool)
            if text is None:
                continue
            selector = parse_selector(text)
            expected = oracles.match_selector_elementpath(selector, process)
            assert match_selector(selector, process) == expected, text
            checked += 1
            hits += bool(expected)
    # Most selectors are checked and a good share match something.
    assert checked > 0.9 * PROCESSES * SELECTORS_PER_PROCESS
    assert hits > 0.3 * checked


README_SELECTORS = (
    "//invoke",
    "//invoke//invoke",
    "//sequence//invoke",
    "//switch//invoke",
    "//process//sequence",
    '//process[@name="TravelBooking"]//invoke[@operation="bookFlight"]',
    '//process[@name="Other"]//invoke',
    '//sequence[@name="mainSequence"]//reply',
    '//invoke[@name="invokeFlightBooking"]',
    "//process",
)


def test_readme_selectors_agree_with_elementpath_on_the_fixtures(travel_process, linear_process, mini_process):
    for process in (travel_process, linear_process, mini_process):
        for text in README_SELECTORS:
            selector = parse_selector(text)
            assert match_selector(selector, process) == oracles.match_selector_elementpath(selector, process), text
