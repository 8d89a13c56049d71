"""The benchmark's generated workloads as an end-to-end oracle.

``perfbench/gen.py`` derives each expected result on its own, from the
weights it built the process with, so running its calls through
``cli.main`` checks parsing, binding, aggregation, sweeps and the
renderers against a second implementation. The calls name their inputs
by paths relative to the checkout root, so each test runs in a scratch
directory that holds a copy of ``fixtures/``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil

import pytest

from adaptmeter import cli
from conftest import FIXTURES_DIR, REPO_ROOT

SEEDS = range(100, 140)


@pytest.mark.parametrize("name", ["small-batch", "nested-sweep"])
def test_generated_calls_print_what_the_generator_derived(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    shutil.copytree(FIXTURES_DIR, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    failures, runs = [], 0
    for seed in SEEDS:
        for call in workloads.build(name, seed, half=True).calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(call.args)
            problem = f"exit {status}" if status else call.check(out.getvalue())
            if problem is not None:
                failures.append(f"seed {seed}: {' '.join(call.args)}: {problem}")
            runs += 1
    assert runs and failures == []
