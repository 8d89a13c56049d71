"""End-to-end measurement: the real CLI as child processes, in a closed loop.

One client makes one call at a time and starts the next only when the
previous one has exited, so nothing runs in parallel with the call being
timed. Each call's resource usage comes from ``os.wait4`` on that child
alone, so one call's peak RSS is never merged with another's.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

# The speed of a shared machine drifts, by about 20% within minutes on
# a two-core virtual machine, and every call drifts with it.
# So a fixed task that does not touch adaptmeter runs in a fresh
# interpreter between calls all through the run, and the time metrics
# are also given in units of its median time ("ref"), which cancels the
# drift. Set-up is sampled at the same points. Sampling happens at most
# once per SAMPLE_EVERY seconds and at least SAMPLES times.
SAMPLES = 9
SAMPLE_EVERY = 1.5
# The standard-library modules adaptmeter's own import pulls in, without
# adaptmeter: the same kind of work as set-up, so it drifts the same way.
REFERENCE_TASK = "import argparse, dataclasses, fractions, json, pathlib, random, re, xml.parsers.expat, xml.sax.saxutils"
# A tail is reported at the highest of these percentiles that leaves at
# least ten calls beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class CallRecord:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout_sha256: str
    stderr_sha256: str
    error: str | None


def run_child(argv: list[str], env: dict[str, str], scratch: Path):
    """Run one child to completion; return (wall, rusage, exit code, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, usage, proc.returncode, out.read(), err.read()


def child_time(code: str, env: dict[str, str], scratch: Path) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    wall, _, status, _, err = run_child([sys.executable, "-c", code], env, scratch)
    if status != 0:
        raise RuntimeError(f"python -c {code!r} failed: {err.decode(errors='replace')[-500:]}")
    return wall


def call_once(call, env, scratch) -> CallRecord:
    wall, usage, code, out, err = run_child([sys.executable, "-m", "adaptmeter", *call.args], env, scratch)
    if code != 0:
        error = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
    else:
        error = call.check(out.decode("utf-8", errors="replace"))
    return CallRecord(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code,
                      hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(), error)


def tail(walls: list[float]):
    """(percentile, value) at the highest listed percentile with ten calls beyond it, else None."""
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = max(1, -(-len(ordered) * p // 100))  # nearest rank
            return p, ordered[int(rank) - 1]
    return None


def measure(workload: Workload, seconds: float, root: Path, scratch: Path) -> dict:
    """Repeat the workload's call sequence until ``seconds`` have passed.

    Every sequence runs whole. A call fails on a non-zero exit, on
    output that differs from the expected value, or on output whose
    bytes differ from the same call's output in the first sequence.
    """
    env = child_env(root)
    child_time("import adaptmeter.cli", env, scratch)  # warm-up: byte-code caches and the page cache
    setup: list[float] = []
    reference: list[float] = []

    def sample() -> None:
        setup.append(child_time("import adaptmeter.cli", env, scratch))
        reference.append(child_time(REFERENCE_TASK, env, scratch))

    last_sample = -SAMPLE_EVERY
    sequences: list[list[CallRecord]] = []
    start = time.perf_counter()
    while not sequences or time.perf_counter() - start < seconds:
        sequence = []
        for call in workload.calls:
            if time.perf_counter() - last_sample >= SAMPLE_EVERY:
                sample()
                last_sample = time.perf_counter()
            sequence.append(call_once(call, env, scratch))
        if sequences:
            for first, record in zip(sequences[0], sequence):
                if record.error is None and (record.stdout_sha256, record.stderr_sha256, record.code) != (
                        first.stdout_sha256, first.stderr_sha256, first.code):
                    record.error = "output bytes differ from the first sequence"
        sequences.append(sequence)
    while len(setup) < SAMPLES:
        sample()
    records = [record for sequence in sequences for record in sequence]
    walls = [record.wall for record in records]
    sequence_walls = [sum(record.wall for record in sequence) for sequence in sequences]
    failed = [record for record in records if record.error]
    digest = hashlib.sha256("".join(
        f"{r.code}:{r.stdout_sha256}:{r.stderr_sha256}\n" for r in sequences[0]).encode()).hexdigest()
    values = {
        "setup_s": statistics.median(setup),
        "reference_s": statistics.median(reference),
        "wall_s": statistics.median(sequence_walls),
        "call_p50_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(record.cpu for record in sequence) for sequence in sequences),
        "jp_per_s": statistics.median(workload.join_points / wall for wall in sequence_walls),
        "peak_rss_mb": max(record.rss_kb for record in records) / 1024,
    }
    for name in ("wall", "call_p50", "cpu"):
        values[f"{name}_ref"] = values[f"{name}_s"] / values["reference_s"]
    values["jp_per_ref"] = values["jp_per_s"] * values["reference_s"]
    return {
        "values": values,
        "tail": tail(walls),
        "attempted": len(records),
        "failed": len(failed),
        "first_errors": sorted({record.error for record in failed})[:5],
        "sequences": len(sequences),
        "setup_samples": setup,
        "reference_samples": reference,
        "output_digest": digest,
        "calls": [
            {"args": call.args, "exit_code": r.code, "stdout_sha256": r.stdout_sha256,
             "stderr_sha256": r.stderr_sha256}
            for call, r in zip(workload.calls, sequences[0])
        ],
    }
