"""The bytes every report writes stay pinned.

Each call runs `cli.main` in-process, from a directory that holds a copy
of the fixtures, seeded `randtrees` processes and a few aspects that
bind on them, all named by relative paths. SHA-256 digests of its
standard output, standard error, exit code and any ``--out`` file are
compared with ``report_bytes_golden.json``. To rewrite that file after a
deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from adaptmeter.cli import main
from adaptmeter.parsing import serialize_process
from randtrees import random_process

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "report_bytes_golden.json"
FIXTURES = HERE.parent / "fixtures"

README_CALLS = [
    ["analyze", "fixtures/travel_booking.bpel", "--aspects", "fixtures/aspects"],
    ["analyze", "fixtures/travel_booking.bpel", "--aspects", "fixtures/aspects", "--format", "json"],
    ["sweep", "fixtures/travel_booking.bpel", "--cases", "3", "--seed", "42", "--out", "series.csv"],
    ["sweep", "fixtures/booking_mini.bpel", "--exhaustive"],
    ["compare", "fixtures/travel_booking.bpel", "fixtures/travel_booking_linear.bpel",
     "--aspects", "fixtures/aspects", "--aspects2", "fixtures/verify_request.aspect.xml"],
]

# Pointcuts that bind on random trees: repeated advice types, nested
# steps, a predicate, and a match that is not a join point.
ASPECTS = {
    "before_invoke": ("before", "//invoke"),
    "around_receive": ("around", "//receive"),
    "after_branch_reply": ("after", "//switch//reply"),
    "after_op7": ("after", '//invoke[@operation="op7"]'),
    "before_flow_invoke": ("before", "//flow//invoke"),
    "around_while_assign": ("around", "//while//assign"),
}

CONFIGS = [
    ["--reference-value", "1"],
    ["--reference-value", "2", "--count-mode", "raw-clamped"],
    ["--join-points", "invoke,assign"],
    ["--count-mode", "raw-clamped"],
]

PROCESSES = 20


def _aspect_document(name: str, advice_type: str, selector: str) -> str:
    return (f'<aspect name="{name}">\n  <pointcut name="p">{selector}</pointcut>\n'
            f'  <advice type="{advice_type}"><assign/></advice>\n</aspect>\n')


def write_inputs(root: Path) -> list[list[str]]:
    """Write the inputs under ``root``; return every call, as argv relative to ``root``."""
    shutil.copytree(FIXTURES, root / "fixtures")
    (root / "aspects").mkdir()
    for name, (advice_type, selector) in ASPECTS.items():
        (root / "aspects" / f"{name}.xml").write_text(_aspect_document(name, advice_type, selector), encoding="utf-8")
    calls = list(README_CALLS)
    rng = random.Random(2024)
    for number in range(PROCESSES):
        large = number % 5 == 4
        process = random_process(rng, max_depth=6 if large else 4, max_nodes=60 if large else 20)
        path = f"p{number:02}.bpel"
        (root / path).write_text(serialize_process(process), encoding="utf-8")
        calls += [
            ["analyze", path, "--aspects", "aspects"],
            ["analyze", path, "--aspects", "aspects", "--format", "json"],
            ["sweep", path, "--cases", "2", "--seed", str(number)],
            ["sweep", path, "--exhaustive"],
        ]
        config = CONFIGS[number % len(CONFIGS)]
        calls += [
            ["analyze", path, "--aspects", "aspects", *config],
            ["sweep", path, "--exhaustive", *config],
            ["sweep", path, "--cases", "2", "--seed", str(number), *config],
        ]
        if number % 5 == 1:
            compare = ["compare", path, f"p{number - 1:02}.bpel", "--aspects", "aspects"]
            calls += [compare, [*compare, "--format", "json"]]
    return calls


def _sha256(data: str | bytes | None) -> str | None:
    if data is None:
        return None
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def digest(argv: list[str], root: Path) -> dict:
    """Run one call in-process from ``root``; digest what it wrote."""
    out_file = root / argv[argv.index("--out") + 1] if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(argv)
    return {
        "argv": argv,
        "status": status,
        "stdout": _sha256(stdout.getvalue()),
        "stderr": _sha256(stderr.getvalue()),
        "out": _sha256(out_file.read_bytes() if out_file else None),
    }


# Missing, the golden file pins no call, and the call-list test fails.
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-bytes")
    return root, write_inputs(root)


def test_calls_are_the_pinned_ones(inputs):
    _, calls = inputs
    assert calls == [case["argv"] for case in GOLDEN]


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN])
def test_report_bytes_are_unchanged(monkeypatch, inputs, case):
    root, _ = inputs
    monkeypatch.chdir(root)
    assert digest(case["argv"], root) == case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        previous = os.getcwd()
        os.chdir(root)
        try:
            cases = [digest(argv, root) for argv in write_inputs(root)]
        finally:
            os.chdir(previous)
    # One case a line, so a diff names the calls whose bytes changed.
    GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
