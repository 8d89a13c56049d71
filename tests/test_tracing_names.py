"""The traced benchmark wraps library functions by name and reads their results.

Each spanned name must exist, and the counters must still read the shapes
the library returns.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io

from adaptmeter import cli
from conftest import FIXTURES_DIR, REPO_ROOT


def _spanned() -> dict[str, tuple[str, ...]]:
    """SPANNED from perfbench/tracing.py, read without importing the harness."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "SPANNED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANNED")


def test_every_spanned_name_resolves_in_its_layer():
    spanned = _spanned()
    assert spanned
    for layer, names in spanned.items():
        module = importlib.import_module(f"adaptmeter.{layer}")
        for name in names:
            owner, _, attribute = name.rpartition(".")
            # the tracer patches a dotted name in the class __dict__
            namespace = vars(getattr(module, owner)) if owner else vars(module)
            assert attribute in namespace, f"adaptmeter.{layer} has no {name}"


def test_counters_read_the_results_of_the_fixture_commands(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    travel, aspects = str(FIXTURES_DIR / "travel_booking.bpel"), str(FIXTURES_DIR / "aspects")
    calls = [
        ["analyze", travel, "--aspects", aspects],
        ["sweep", travel, "--cases", "3", "--seed", "42"],
        ["sweep", str(FIXTURES_DIR / "booking_mini.bpel"), "--exhaustive"],
        ["compare", travel, str(FIXTURES_DIR / "travel_booking_linear.bpel"), "--aspects", aspects,
         "--aspects2", str(FIXTURES_DIR / "verify_request.aspect.xml")],
    ]
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in calls] == [0, 0, 0, 0]
    counters = tracing.counters(tracer)
    assert {key: counters[key] for key in ("parsing.nodes", "selectors.steps", "matching.matches",
                                           "matching.bindings")} == {
        "parsing.nodes": 39, "selectors.steps": 20, "matching.matches": 13, "matching.bindings": 13,
    }
    assert counters["model.join_points"] > 0 and counters["matching.useful_ratio"] > 0
    # The sweeps' series and envelope rows are read, whatever the count comes to mean.
    assert counters["sweep.pam_evaluations"] > 0
