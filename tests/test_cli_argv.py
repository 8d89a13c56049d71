"""How the CLI reads its command line: argparse's help and usage bytes
stay pinned, and the argparse-free reader of canonical command lines
agrees with argparse wherever it accepts one.

The Hypothesis test runs derandomized (a fixed seed, no example
database), so the suite draws the same command lines on every run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptmeter.cli import _COMMANDS, _read_canonical, build_parser, main

# Help and usage bytes (COLUMNS=80) as argparse wrote them before its
# parser was built from the option table; the same on Python 3.10-3.13.
GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(case["argv"]) or "no-arguments" for case in GOLDEN])
def test_help_and_usage_bytes_are_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(list(case["argv"]))
    except SystemExit as exc:  # help exits through argparse
        status = exc.code
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (case["status"], case["stdout"], case["stderr"])


OPTIONS = sorted({name for _, _, arguments in _COMMANDS.values() for name, _ in arguments if name.startswith("-")})
PREFIXES = sorted({option[:end] for option in OPTIONS for end in range(3, len(option))} - set(OPTIONS))
INTS = ["0", "3", "17", " 4", "+2", "1_0", "-1", "-5"]
WORDS = ["a.bpel", "b.bpel", "dir", "", "3", "json", "set", "analyze"]
VALUES = [*INTS, *WORDS, "x", "raw-clamped", "text", "bogus", "-", "-x", "--x"]
TOKENS = st.sampled_from(
    ["analyze", "sweep", "compare", "analyse", "help", "--", "-h", "--help", "-a", *OPTIONS, *PREFIXES, *VALUES]
    + [f"{option}={value}" for option in OPTIONS for value in ("json", "2", "x", "")]
)


def _values_for(keywords: dict):
    likely = keywords.get("choices") or (INTS if keywords.get("type") is int else WORDS)
    return st.one_of(st.sampled_from(likely), st.sampled_from(VALUES))


@st.composite
def command_lines(draw):
    """Mostly a subcommand's own positionals and options in any order, at times with one
    token spoilt; sometimes any tokens at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(TOKENS, max_size=8))
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    arguments = dict(_COMMANDS[command][2])
    positionals = [name for name in arguments if not name.startswith("-")]
    count = draw(st.sampled_from([len(positionals)] * 4 + [len(positionals) - 1, len(positionals) + 1]))
    pieces = [[draw(st.sampled_from(WORDS))] for _ in range(count)]
    for option in draw(st.lists(st.sampled_from(sorted(set(arguments) - set(positionals))), max_size=6)):
        keywords = arguments[option]
        pieces.append([option] if keywords.get("action") == "store_true" else [option, draw(_values_for(keywords))])
    argv = [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_reader_agrees_with_argparse_wherever_it_accepts(argv):
    args = _read_canonical(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["analyze", "p.bpel"],
    ["analyze", "--format", "json", "p.bpel", "--aspects", "a", "--aspects", "b", "--include-disabled"],
    ["sweep", "p.bpel", "--cases", "7", "--seed", "+3", "--exhaustive", "--out", "", "--count-mode", "raw-clamped"],
    ["compare", "a.bpel", "--aspects2", "x", "b.bpel", "--reference-value", "4", "--join-points", "invoke"],
])
def test_reader_accepts_canonical_command_lines(argv):
    args = _read_canonical(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["analyse", "p.bpel"], ["analyze"], ["analyze", "p.bpel", "q.bpel"], ["analyze", "p.bpel", "--format"],
    ["analyze", "p.bpel", "--format", "xml"], ["analyze", "p.bpel", "--format=json"], ["analyze", "p.bpel", "--form", "json"],
    ["analyze", "--", "p.bpel"], ["analyze", "-h"], ["sweep", "p.bpel", "--seed", "-1"], ["sweep", "p.bpel", "--cases", "x"],
    ["sweep", "p.bpel", "--aspects", "a"], ["compare", "a.bpel", "-b.bpel"],
])
def test_reader_leaves_every_other_command_line_to_argparse(argv):
    assert _read_canonical(argv) is None
