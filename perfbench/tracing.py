"""Traced in-process run: spans around each layer's public functions.

The layers are the modules of ``src/adaptmeter``. The tracer replaces
each listed function, in every adaptmeter module that refers to it, by a
wrapper that records a span (name ``module.function``, start, end,
parent span, run id) and puts the originals back afterwards; nothing
under ``src/`` changes. Spans stay in memory and are written out at the
end. A span's self time is its busy time minus its child spans' busy
time; a layer's self time sums its spans' self times.

Hot per-node helpers (is_join_point, is_eligible_child, aggregate,
variability_value, variability_degree, format_vd) get no span: wrapping
them would cost more than they do, so their time counts in the self
time of the function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

LAYERS = ("parsing", "selectors", "matching", "model", "metrics", "sweep", "report", "cli")
SPANNED = {
    "parsing": ("parse_process", "parse_aspect", "serialize_process"),
    "selectors": ("parse_selector", "render_selector"),
    "matching": ("match_selector", "bind_aspects", "VariabilityProfile.from_assignments"),
    "model": ("iter_activities", "find_join_points", "resolve_path"),
    "metrics": ("process_adaptability", "join_point_weights", "linear_weight_oracle"),
    "sweep": ("enumerate_slots", "sweep_case", "run_sweep", "exhaustive_sweep"),
    "report": ("render_text", "render_json", "render_compare_text", "render_compare_json",
               "sweep_csv", "exhaustive_csv"),
    "cli": ("main",),
}
# Functions whose results the counters read after the run.
COUNTED = frozenset({"parsing.parse_process", "selectors.parse_selector", "matching.match_selector",
                     "matching.bind_aspects", "sweep.sweep_case", "sweep.exhaustive_sweep"})
IMPORT_SAMPLES = 5


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "busy", "mark")

    def __init__(self, name, parent, run):
        self.name, self.parent, self.run = name, parent, run
        self.start = self.end = self.busy = self.mark = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = ""
        self.results: dict[str, list] = {}

    def open(self, name: str) -> int:
        self.spans.append(Span(name, self.stack[-1] if self.stack else -1, self.run))
        return len(self.spans) - 1

    def enter(self, index: int) -> None:
        span = self.spans[index]
        self.stack.append(index)
        span.mark = time.perf_counter()
        if not span.start:
            span.start = span.mark

    def leave(self, index: int) -> None:
        now = time.perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span.end = now
        span.busy += now - span.mark

    def wrap(self, name: str, fn):
        keep = name in COUNTED
        if inspect.isgeneratorfunction(fn):
            # A generator's span is busy only while it runs: the time its
            # consumer spends between items belongs to the consumer.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                index = self.open(name)
                iterator = fn(*args, **kwargs)
                while True:
                    self.enter(index)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.leave(index)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            self.enter(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(index)
            if keep:
                self.results.setdefault(name, []).append(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every spanned function for its wrapper while the block runs."""
        modules = [importlib.import_module(f"adaptmeter.{layer}") for layer in LAYERS]
        namespaces = [sys.modules["adaptmeter"], *modules]
        undo = []
        for layer, module in zip(LAYERS, modules):
            for name in SPANNED[layer]:
                if "." in name:
                    owner_name, attribute = name.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attribute]
                    setattr(owner, attribute, classmethod(self.wrap(f"{layer}.{name}", original.__func__)))
                    undo.append((owner, attribute, original))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attribute, wrapper)
                            undo.append((namespace, attribute, original))
        try:
            yield
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)


def run_pass(workload, label: str, tracer: Tracer | None = None):
    """Call ``main(argv)`` in-process for each call; return (seconds, failures, stdout bytes)."""
    cli = importlib.import_module("adaptmeter.cli")
    elapsed, failures, output = 0.0, [], 0
    for index, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.run = f"{label}:{index}"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.args))
        except Exception as exc:  # a traceback from the program is a failed call
            code, problem = None, f"raised {exc!r}"
        elapsed += time.perf_counter() - start
        if code is not None:
            problem = call.check(out.getvalue()) if code == 0 else f"exit {code}: {err.getvalue().strip()[-300:]}"
        if problem:
            failures.append(problem)
        output += len(out.getvalue().encode("utf-8"))
    return elapsed, failures, output


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Busy time per spanned function and self time per layer."""
    child_busy = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            child_busy[span.parent] += span.busy
    values = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer in LAYERS:
        for name in SPANNED[layer]:
            values[f"{layer}.{name.rpartition('.')[2]}_s"] = 0.0
    for span, inner in zip(tracer.spans, child_busy):
        layer, _, function = span.name.partition(".")
        values[f"{layer}.{function.rpartition('.')[2]}_s"] += span.busy
        values[f"{layer}.self_s"] += span.busy - inner
    values["trace.main_s"] = values.pop("cli.main_s")  # cli.main_s is the untraced time
    return values


def _walk(activity):
    stack = [activity]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def counters(tracer: Tracer) -> dict[str, float]:
    results = tracer.results
    nodes = [node for process in results.get("parsing.parse_process", []) for node in _walk(process.root)]
    profiles = results.get("matching.bind_aspects", [])
    matches = sum(len(paths) for paths in results.get("matching.match_selector", []))
    bindings = sum(len(profile.bindings) for profile in profiles)
    return {
        "parsing.nodes": len(nodes),
        "model.join_points": sum(node.kind in ("invoke", "receive", "reply") for node in nodes),
        "selectors.steps": sum(len(selector.steps) for selector in results.get("selectors.parse_selector", [])),
        "matching.matches": matches,
        "matching.bindings": bindings,
        "matching.useful_ratio": bindings / matches if matches else 0.0,
        "matching.warnings": sum(len(profile.warnings) for profile in profiles),
        "sweep.pam_evaluations": sum(len(case.series) for case in results.get("sweep.sweep_case", []))
        + sum(2 ** (len(rows) - 1) for rows in results.get("sweep.exhaustive_sweep", [])),
    }


def import_profile(root: Path, env: dict[str, str]):
    """Median ``import adaptmeter.cli`` time under -X importtime, and the
    three modules with the most self time (median over runs, in seconds)."""
    totals, selfs = [], {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import adaptmeter.cli"],
                              env=env, capture_output=True, text=True, check=True)
        pending = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            pending.append((name.strip(), int(own)))
            if name.startswith("  "):
                continue
            if name.strip() == "adaptmeter.cli":
                totals.append(int(cumulative) / 1e6)
                for module, micro in pending:
                    selfs.setdefault(module, []).append(micro / 1e6)
            pending = []
    top = sorted(((statistics.median(v), k) for k, v in selfs.items()), reverse=True)[:3]
    return statistics.median(totals), [(name, seconds) for seconds, name in top]


def measure(name: str, seed: int, seconds: float, root: Path, out_dir: Path, env: dict[str, str]) -> dict:
    """In-process passes over the workload, repeated for ``seconds``.

    After an untraced half-size pass to warm up, each round makes an
    untraced full pass (cli.main_s), a traced full pass (layer times and
    counters) and a traced half pass (growth exponents). Times are
    medians over the rounds; counters and the written spans come from
    the first round.
    """
    sys.path.insert(0, str(root / "src"))
    full = workloads.build(name, seed)
    half = workloads.build(name, seed, half=True)
    _, failures, _ = run_pass(half, "warm")
    attempted = len(half.calls)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        label = f"round{len(rounds)}"
        untraced, plain_failures, _ = run_pass(full, f"{label}-plain")
        tracer, half_tracer = Tracer(), Tracer()
        with tracer.installed():
            _, traced_failures, output = run_pass(full, f"{label}-full", tracer)
        with half_tracer.installed():
            _, half_failures, _ = run_pass(half, f"{label}-half", half_tracer)
        failures += plain_failures + traced_failures + half_failures
        attempted += 2 * len(full.calls) + len(half.calls)
        rounds.append((untraced, layer_times(tracer), layer_times(half_tracer)))
        if len(rounds) == 1:
            first, first_half, first_output = tracer, half_tracer, output
    values = {key: statistics.median(r[1][key] for r in rounds) for key in rounds[0][1]}
    for layer in LAYERS:
        big = values[f"{layer}.self_s"]
        small = statistics.median(r[2][f"{layer}.self_s"] for r in rounds)
        values[f"{layer}.growth"] = math.log2(big / small) if big > 0 and small > 0 else 0.0
    values.update(counters(first))
    values["report.output_bytes"] = first_output
    values["cli.main_s"] = statistics.median(r[0] for r in rounds)
    values["trace.overhead_s"] = values["trace.main_s"] - values["cli.main_s"]
    values["cli.import_s"], top_imports = import_profile(root, env)
    spans = []
    for tracer in (first, first_half):
        offset = len(spans)
        spans += [{"name": s.name, "start": s.start, "end": s.end, "busy": s.busy, "run": s.run,
                   "parent": s.parent + offset if s.parent >= 0 else -1} for s in tracer.spans]
    (out_dir / f"spans-{name}-{seed}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return {"values": values, "top_imports": top_imports, "attempted": attempted, "failed": len(failures),
            "first_errors": sorted(set(failures))[:5], "spans": len(spans), "rounds": len(rounds)}
