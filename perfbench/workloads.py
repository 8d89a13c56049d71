"""The benchmark's workloads: CLI call sequences with expected outputs.

A workload is a fixed list of ``adapt-meter`` calls over inputs that
``gen`` writes from the seed. Each call carries the number of join
points it processes and a check of its standard output against the
value ``gen`` derived on its own.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

WORKLOADS = ("wide-analyze", "nested-sweep", "small-batch")
SWEEP_CASES = 1


@dataclass
class Call:
    args: list[str]
    join_points: int
    check: Callable[[str], str | None]  # stdout -> mismatch description, or None


@dataclass
class Workload:
    name: str
    calls: list[Call]

    @property
    def join_points(self) -> int:
        return sum(call.join_points for call in self.calls)


# ------------------------------------------------------------------ checks


def fmt(value: Fraction, signed: bool = False) -> str:
    """README's display form: four decimals, exact fraction when inexact."""
    text = f"{float(value):+.4f}" if signed else f"{float(value):.4f}"
    return text + (f" ({value})" if value.denominator > 1 else "")


def analyze_text(pam: Fraction):
    want = f"PAM = {fmt(pam)}"

    def check(out: str):
        got = out.rstrip("\n").rpartition("\n")[2]
        return None if got == want else f"last line {got!r}, expected {want!r}"
    return check


def analyze_json(pam: Fraction):
    def check(out: str):
        try:
            report = json.loads(out)
        except ValueError as exc:
            return f"not JSON: {exc}"
        got = (report.get("pam_exact"), report.get("pam"))
        return None if got == (str(pam), float(pam)) else f"pam {got}, expected {str(pam)}"
    return check


def compare_text(left: Fraction, right: Fraction):
    want = (f"PAM = {fmt(left)}  [", f"PAM = {fmt(right)}  [",
            f"delta (right - left) = {fmt(right - left, signed=True)}")

    def check(out: str):
        lines = out.split("\n")[:3]
        if len(lines) == 3 and want[0] in lines[0] and want[1] in lines[1] and lines[2] == want[2]:
            return None
        return f"header {lines}, expected {want}"
    return check


def compare_json(left: Fraction, right: Fraction):
    def check(out: str):
        try:
            report = json.loads(out)
            got = (report["left"]["pam_exact"], report["right"]["pam_exact"], report["delta_exact"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad compare JSON: {exc!r}"
        want = (str(left), str(right), str(right - left))
        return None if got == want else f"got {got}, expected {want}"
    return check


def sweep_series(cases: int, slots: int, final: Fraction):
    """Row count cases x (slots + 1), each series from 0 to ``final`` and never decreasing."""
    last = f"{float(final):.6f}"

    def check(out: str):
        lines = out.rstrip("\n").split("\n")
        if lines[0] != "case_id,count,pam" or len(lines) != 1 + cases * (slots + 1):
            return f"{len(lines) - 1} rows under {lines[0]!r}, expected {cases * (slots + 1)}"
        rows = [line.split(",") for line in lines[1:]]
        for case in range(cases):
            series = rows[case * (slots + 1):(case + 1) * (slots + 1)]
            if [(int(c), int(n)) for c, n, _ in series] != [(case, n) for n in range(slots + 1)]:
                return f"case {case}: bad case_id/count columns"
            values = [float(v) for _, _, v in series]
            if values[0] != 0 or any(b < a for a, b in zip(values, values[1:])):
                return f"case {case}: series does not rise from 0"
            if series[-1][2] != last:
                return f"case {case}: final {series[-1][2]}, expected {last}"
        return None
    return check


def exhaustive_envelope(values: list[Fraction]):
    """The whole CSV: PAM is linear in the filled slots, so for k slots the
    minimum sums the k smallest slot values, the maximum the k largest, and
    the mean is k/S of their total."""
    ordered = sorted(values)
    total = sum(ordered, Fraction(0))
    lines = ["count,min_pam,mean_pam,max_pam"]
    for k in range(len(ordered) + 1):
        low = sum(ordered[:k], Fraction(0))
        high = sum(ordered[len(ordered) - k:], Fraction(0))
        mean = total * k / len(ordered)
        lines.append(f"{k},{float(low):.6f},{float(mean):.6f},{float(high):.6f}")
    want = "\n".join(lines) + "\n"

    def check(out: str):
        return None if out == want else "envelope differs from the slot-value derivation"
    return check


# ------------------------------------------------------------- call lists


def _aspect_args(aspects, flag="--aspects") -> list[str]:
    return [arg for aspect in aspects for arg in (flag, str(aspect.path))]


def _write(process, aspects, directory: Path) -> None:
    gen.write_process(process, directory / f"{process.name}.bpel")
    for aspect in aspects:
        gen.write_aspect(aspect, directory / f"{aspect.name}.xml")


def _wide(rng: random.Random, directory: Path, half: bool) -> list[Call]:
    switches = 25 if half else 50
    process, invokes, edges = gen.wide_process(rng, switches)
    aspects = gen.wide_aspects(rng, invokes, edges, switches)
    _write(process, aspects, directory)
    args = ["analyze", str(process.path)] + _aspect_args(aspects)
    return [Call(args, len(process.join_points()), analyze_text(gen.expected_pam(process, aspects)))]


def _nested(rng: random.Random, directory: Path, half: bool, seed: int) -> list[Call]:
    process = gen.nested_process(rng, half)
    _write(process, [], directory)
    join_points = len(process.join_points())
    args = ["sweep", str(process.path), "--cases", str(SWEEP_CASES), "--seed", str(seed)]
    return [Call(args, join_points * SWEEP_CASES,
                 sweep_series(SWEEP_CASES, gen.R * join_points, gen.saturated(process)))]


def _fixture_calls() -> list[Call]:
    """README's commands on the bundled fixtures, with hand-derived results.

    travel_booking with fixtures/aspects is README's worked example, 7/24.
    travel_booking_linear with verify_request.aspect.xml puts one advice on
    bookFlight among four eligible join points: 1/3 / 4 = 1/12.
    booking_mini: the root sequence halves receive (weight 1/2) and the
    switch, whose two invokes get 1/4 each; a slot is weight / 3.
    """
    travel = "fixtures/travel_booking.bpel"
    worked = Fraction(7, 24)
    mini = [Fraction(1, 6)] * 3 + [Fraction(1, 12)] * 6
    return [
        Call(["analyze", travel, "--aspects", "fixtures/aspects"], 5, analyze_text(worked)),
        Call(["analyze", travel, "--aspects", "fixtures/aspects", "--format", "json"], 5, analyze_json(worked)),
        Call(["compare", travel, "fixtures/travel_booking_linear.bpel", "--aspects", "fixtures/aspects",
              "--aspects2", "fixtures/verify_request.aspect.xml"], 9, compare_text(worked, Fraction(1, 12))),
        Call(["sweep", travel, "--cases", "3", "--seed", "42"], 15, sweep_series(3, 15, Fraction(1))),
        Call(["sweep", "fixtures/booking_mini.bpel", "--exhaustive"], 3, exhaustive_envelope(mini)),
    ]


def _small(rng: random.Random, directory: Path, half: bool) -> list[Call]:
    """Sixteen analyze calls (JSON and text), four compares, four
    exhaustive sweeps, and the fixture commands."""
    calls = []
    made = []
    for i in range(16):
        process, invokes = gen.small_process(rng, f"Small{i}", half)
        aspects = gen.small_aspects(rng, process, invokes, f"S{i}")
        _write(process, aspects, directory)
        made.append((process, aspects, gen.expected_pam(process, aspects)))
        args = ["analyze", str(process.path)] + _aspect_args(aspects)
        jps = len(process.join_points())
        if i % 2:
            calls.append(Call(args, jps, analyze_text(made[-1][2])))
        else:
            calls.append(Call(args + ["--format", "json"], jps, analyze_json(made[-1][2])))
    for i in range(0, 8, 2):
        (left, left_aspects, left_pam), (right, right_aspects, right_pam) = made[i], made[i + 1]
        args = (["compare", str(left.path), str(right.path)] + _aspect_args(left_aspects)
                + _aspect_args(right_aspects, "--aspects2"))
        jps = len(left.join_points()) + len(right.join_points())
        if i % 4:
            calls.append(Call(args + ["--format", "json"], jps, compare_json(left_pam, right_pam)))
        else:
            calls.append(Call(args, jps, compare_text(left_pam, right_pam)))
    for i in range(4):
        # Exhaustive inputs stay at the 12-slot limit at either size.
        process = gen.tiny_process(rng, f"Tiny{i}")
        _write(process, [], directory)
        calls.append(Call(["sweep", str(process.path), "--exhaustive"], len(process.join_points()),
                          exhaustive_envelope(gen.slot_values(process))))
    return calls + _fixture_calls()


def build(name: str, seed: int, half: bool = False) -> Workload:
    """Write the inputs of workload ``name`` and return its calls.

    Inputs go under perfbench/out/inputs/ and the calls name them by
    paths relative to the working directory, which must be the checkout
    root, so outputs do not depend on where the checkout lives. ``half``
    halves the join points of the generated processes; it is used to
    measure how each layer grows.
    """
    directory = Path("perfbench", "out", "inputs", f"{name}-{seed}{'-half' if half else ''}")
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "wide-analyze":
        calls = _wide(rng, directory, half)
    elif name == "nested-sweep":
        calls = _nested(rng, directory, half, seed)
    elif name == "small-batch":
        calls = _small(rng, directory, half)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, calls)
