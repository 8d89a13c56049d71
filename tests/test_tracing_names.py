"""The traced benchmark wraps library functions by name; each name must exist."""

from __future__ import annotations

import ast
import importlib

from conftest import REPO_ROOT


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
