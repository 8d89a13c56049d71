"""Deterministic cost gates: each command's cost grows linearly with its input.

Each family runs one command in-process through ``cli.main`` on inputs
of size n, 2n and 4n, and compares cProfile's ``total_calls`` of a
warmed call, and for most families the ``tracemalloc`` peak, between
consecutive sizes. Both measures are the same on every run, so timing
noise cannot move them. Only ratios are asserted: absolute counts differ
across Python versions (PEP 709 inlines comprehensions from 3.12 on).
A linear cost grows at most ×2 per doubling; GROWTH leaves a little room
for costs such as sorting that grow slightly faster. The cyclic garbage a
command leaves must not grow with its input at all.

Left out, for now:
- Memory on deep chains: the index holds each node's whole path text.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import importlib
import io
import pstats
import random
import tracemalloc
from pathlib import Path

import pytest

from adaptmeter import cli
from conftest import REPO_ROOT

GROWTH = 2.2


@pytest.fixture(scope="module")
def gen():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        yield importlib.import_module("gen")


def _run(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


def _costs(args: list[str]) -> tuple[int, int]:
    """cProfile's total calls and the tracemalloc peak of one warmed ``cli.main(args)``."""
    assert _run(args) == 0  # the first call also pays for lazy imports
    profile = cProfile.Profile()
    profile.runcall(_run, args)
    # A full collection empties the interpreter's free lists, so objects
    # that earlier tests left there cannot hide the call's allocations.
    gc.collect()
    tracemalloc.start()
    try:
        _run(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pstats.Stats(profile).total_calls, peak


def _assert_linear(measure: str, costs: tuple[int, ...]) -> None:
    ratios = [later / earlier for earlier, later in zip(costs, costs[1:])]
    assert max(ratios) <= GROWTH, f"{measure} {costs}: ×{', ×'.join(f'{r:.2f}' for r in ratios)}"


def _wide(gen, directory, switches: int, seed: int = 1) -> tuple[str, str]:
    """A `gen.wide_process` file and a directory of its `gen.wide_aspects` files."""
    rng = random.Random(seed)
    process, invokes, edges = gen.wide_process(rng, switches)
    aspects = directory / f"aspects{switches}_{seed}"
    aspects.mkdir()
    gen.write_process(process, directory / f"wide{switches}_{seed}.bpel")
    for aspect in gen.wide_aspects(rng, invokes, edges, switches):
        gen.write_aspect(aspect, aspects / f"{aspect.name}.xml")
    return str(process.path), str(aspects)


WIDE_COMMANDS = {
    "analyze-text": lambda left, right: ["analyze", left[0], "--aspects", left[1]],
    "analyze-json": lambda left, right: ["analyze", left[0], "--aspects", left[1], "--format", "json"],
    "sweep-cases": lambda left, right: ["sweep", left[0], "--cases", "3"],
    "sweep-exhaustive": lambda left, right: ["sweep", left[0], "--exhaustive"],
    "compare": lambda left, right: ["compare", left[0], right[0], "--aspects", left[1], "--aspects2", right[1]],
}


@pytest.mark.parametrize("command", WIDE_COMMANDS)
def test_wide_processes(command, gen, tmp_path):
    arguments = [WIDE_COMMANDS[command](_wide(gen, tmp_path, switches), _wide(gen, tmp_path, switches, seed=2))
                 for switches in (4, 8, 16)]
    calls, peaks = zip(*map(_costs, arguments))
    _assert_linear("calls", calls)
    _assert_linear("peak", peaks)


def test_many_pointcuts(gen, tmp_path):
    # One 8-switch process; each aspect file holds one pointcut.
    rng = random.Random(1)
    process, invokes, edges = gen.wide_process(rng, 8)
    gen.write_process(process, tmp_path / "wide.bpel")
    arguments = []
    for rounds in (1, 2, 4):
        aspects = tmp_path / f"aspects{rounds}"
        aspects.mkdir()
        for round_ in range(rounds):
            for aspect in gen.wide_aspects(random.Random(round_), invokes, edges, 8, per_aspect=1):
                aspect.name = f"Round{round_}{aspect.name}"
                gen.write_aspect(aspect, aspects / f"{aspect.name}.xml")
        arguments.append(["analyze", str(process.path), "--aspects", str(aspects)])
    calls, peaks = zip(*map(_costs, arguments))
    _assert_linear("calls", calls)
    _assert_linear("peak", peaks)


def _chains(directory) -> list[tuple[str, str]]:
    """Chains of nested <sequence>s, one <invoke> at each level, 250, 500
    and 1,000 levels deep, each with one pointcut that binds every invoke
    but the outermost: a (process, aspect) pair per depth."""
    aspect = directory / "every_level.xml"
    aspect.write_text('<aspect name="EveryLevel"><pointcut name="pc">//sequence//sequence//invoke</pointcut>'
                      '<advice type="before"><invoke/></advice></aspect>', encoding="utf-8")
    chains = []
    for depth in (250, 500, 1000):
        process = directory / f"chain{depth}.bpel"
        process.write_text(f'<process name="Chain">{"<sequence><invoke/>" * depth}{"</sequence>" * depth}</process>',
                           encoding="utf-8")
        chains.append((str(process), str(aspect)))
    return chains


def test_deep_chain_text_analyze(tmp_path):
    calls, _ = zip(*(_costs(["analyze", process, "--aspects", aspect]) for process, aspect in _chains(tmp_path)))
    _assert_linear("calls", calls)


DEEP_COMMANDS = {
    "analyze-json": lambda process, aspect: ["analyze", process, "--aspects", aspect, "--format", "json"],
    "compare-text": lambda process, aspect: ["compare", process, process, "--aspects", aspect, "--aspects2", aspect],
    "compare-json": lambda process, aspect: ["compare", process, process, "--aspects", aspect, "--aspects2", aspect,
                                             "--format", "json"],
}


@pytest.mark.parametrize("command", DEEP_COMMANDS)
def test_deep_chains(command, tmp_path):
    # Each path is printed once per report, from text the index built once.
    calls, _ = zip(*(_costs(DEEP_COMMANDS[command](*chain)) for chain in _chains(tmp_path)))
    _assert_linear("calls", calls)


GC_COMMANDS = {
    "analyze-text": lambda wide, broken: (0, ["analyze", wide[0], "--aspects", wide[1]]),
    "analyze-json": lambda wide, broken: (0, ["analyze", wide[0], "--aspects", wide[1], "--format", "json"]),
    "compare": lambda wide, broken: (0, ["compare", wide[0], wide[0], "--aspects", wide[1]]),
    "sweep-cases": lambda wide, broken: (0, ["sweep", wide[0], "--cases", "100"]),
    "sweep-exhaustive": lambda wide, broken: (0, ["sweep", wide[0], "--exhaustive"]),
    "parse-error": lambda wide, broken: (1, ["analyze", broken, "--aspects", wide[1]]),
    "reference-too-small": lambda wide, broken: (1, ["analyze", wide[0], "--aspects", wide[1],
                                                     "--reference-value", "1"]),
}


@pytest.mark.parametrize("command", GC_COMMANDS)
def test_cyclic_garbage_does_not_grow_with_the_input(command, gen, tmp_path):
    # `cli.run` keeps the cyclic collector off for a command. That holds
    # memory flat only if what a command leaves for the collector does not
    # grow with its input: the same count at 4 and 16 switches.
    found = []
    for switches in (4, 16):
        wide = _wide(gen, tmp_path, switches)
        broken = tmp_path / f"broken{switches}.bpel"
        text = Path(wide[0]).read_text(encoding="utf-8")
        broken.write_text(text.replace("</process>", "<bogus/></process>"), encoding="utf-8")
        status, args = GC_COMMANDS[command](wide, str(broken))
        assert _run(args) == status  # the first call also pays for lazy imports
        gc.disable()
        try:
            gc.collect()
            assert _run(args) == status
            found.append(gc.collect())
        finally:
            gc.enable()
    assert found[0] == found[1]
