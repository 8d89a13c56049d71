"""adapt-meter benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide-analyze --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; ``--workload all`` runs every
workload in turn. With ``--trace 0`` it times the real CLI as child
processes and reports the end-to-end metrics; with ``--trace 1`` it
runs the workload in-process with spans around each layer and reports
the per-layer metrics. BENCHMARK.json at the root
names the metrics of each mode and their units. A readable report goes
first; the last line of standard output is the result as one JSON
object. Full details, per-call output hashes and the spans are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

import e2e
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _missing() -> str | None:
    for needed in ("src/adaptmeter/cli.py", "fixtures/travel_booking.bpel", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return needed
    return None


def _end_to_end(name: str, seed: int, seconds: float) -> dict:
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, seed)
    result = e2e.measure(workload, seconds, ROOT, scratch)
    values = result["values"]
    print(f"{name} seed {seed}: {result['attempted']} calls in {result['sequences']} sequences "
          f"of {len(workload.calls)}, closed loop, one client; {workload.join_points} join points per sequence")
    print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(result['setup_samples'])} fresh imports")
    print(f"  wall_s       {values['wall_s']:.4f} s   median sequence")
    print(f"  call_p50_s   {values['call_p50_s']:.4f} s   n={result['attempted']}")
    if result["tail"]:
        percentile, value = result["tail"]
        print(f"  call_tail_s  {value:.4f} s   p{percentile:g}, n={result['attempted']}")
    else:
        print(f"  call_tail_s  not reported: {result['attempted']} calls leave fewer than ten beyond p90")
    print(f"  cpu_s        {values['cpu_s']:.4f} s   children user+system, median sequence")
    print(f"  jp_per_s     {values['jp_per_s']:.1f} 1/s")
    print(f"  reference_s  {values['reference_s']:.4f} s   median of the fixed reference task")
    for name in ("wall", "call_p50", "cpu"):
        print(f"  {name + '_ref':<12} {values[name + '_ref']:.4f} ref  {name}_s / reference_s")
    print(f"  jp_per_ref   {values['jp_per_ref']:.3f} 1/ref  jp_per_s * reference_s")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.2f} MB  largest single call")
    print(f"  error_rate   {result['failed'] / result['attempted']:.4f} ratio  {result['failed']}/{result['attempted']} calls")
    print(f"  output digest sha256:{result['output_digest']}")
    return result


def _traced(name: str, seed: int, seconds: float) -> dict:
    result = tracing.measure(name, seed, seconds, ROOT, OUT, e2e.child_env(ROOT))
    print(f"{name} seed {seed}: traced in-process run, {result['rounds']} rounds, "
          f"{result['attempted']} calls, {result['spans']} spans written")
    values = result["values"]
    for metric, value in sorted(values.items()):
        print(f"  {metric:<34} {value:.6g}")
    tops = ", ".join(f"{module} {spent * 1000:.1f} ms" for module, spent in result["top_imports"])
    print(f"  import self-time top 3: {tops}")
    shares = ", ".join(f"{metric} {value / values['trace.main_s']:.0%}" for metric, value in sorted(values.items())
                       if metric.endswith("_s") and not metric.startswith(("cli.", "trace."))
                       and not metric.endswith(".self_s") and value >= values["trace.main_s"] / 4)
    print(f"  share of traced cli.main: {shares}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = _missing()
    if missing:
        print(f"error: {missing} not found; run from the root of an adapt-meter checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for name in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        result = (_traced if args.trace else _end_to_end)(name, args.seed, args.seconds)
        for error in result["first_errors"]:
            print(f"  failure: {error}")
        mode = "trace" if args.trace else "e2e"
        (OUT / f"result-{mode}-{name}-{args.seed}.json").write_text(json.dumps(result, indent=1) + "\n")
        metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
