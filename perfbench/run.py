"""Benchmark runner for the `crooked` library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  One
single-threaded process sets up the workload's inputs several times (fresh
imports plus input generation), then runs checked operations on the seeded
input sequence until `--seconds` have passed.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

With `--trace 0` the metrics are the end-to-end ones: the median set-up
time, the per-phase medians over the operations, and peak memory.  Times are
seconds at a reference machine speed, sampled while they are measured (see
speed.py); the raw medians go to standard error.  With `--trace 1` untraced
and traced operations alternate on the same inputs; the metrics are
per-layer statistics per traced operation, the exact counts of the run's
first input, cap headroom, and the tracing overhead.

An operation fails when it raises, when a check on its output is false, when
its output bytes differ from the digest recorded in digests.json, or when
the workload stopped doing its job (see workloads.py).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "crooked"
MODULES = ("lattice", "folang", "sigma", "metric_graph", "surgery", "tower")
SETUP_REPEATS = 9
PHASES = ("build", "io", "verify", "thread")

CELLS_KEY = "metric_graph.arrangement_cells.max_cells"
COVER_CELLS_KEY = "cap.cover_search_cells"
ELEMENTS_KEY = "lattice.generate_sublattice.max_elements"
LATTICE_KEY = "folang.eval_formula.max_lattice_size"
FAILED_KEY = "tower.search_dim_cover.failed"


def _cells(t, args, kwargs, result):
    t.observe_max(CELLS_KEY, len(result))


def _cover_cells(t, args, kwargs, result):
    # the cover search holds the refined cell count against the cell cap
    t.observe_max(COVER_CELLS_KEY, len(result))


def _elements(t, args, kwargs, result):
    t.observe_max(ELEMENTS_KEY, result.size)


def _lattice(t, args, kwargs, result):
    lattice = args[1] if len(args) > 1 else kwargs["L"]
    t.observe_max(LATTICE_KEY, lattice.size)


def _cover(t, args, kwargs, result):
    t.observe_count(FAILED_KEY, result is None)


# (module, qualname, observer) for every traced function.  wallman, render
# and the CLI are left out: they take milliseconds in every workload.
TARGETS = (
    ("metric_graph", "PLMap.preimage_of", None),
    ("metric_graph", "PLMap.image_of", None),
    ("metric_graph", "PLMap.then", None),
    ("metric_graph", "ClosedSet.__and__", None),
    ("metric_graph", "ClosedSet.__or__", None),
    ("metric_graph", "MetricGraph.components_of", None),
    ("metric_graph", "distance_to_set", None),
    ("metric_graph", "urysohn", None),
    ("metric_graph", "arrangement_cells", _cells),
    ("metric_graph", "extract_sublattice", None),
    ("surgery", "witness_fragment", None),
    ("surgery", "triangle_step", None),
    ("surgery", "crooked_step", None),
    ("surgery", "verify_on_sublattice", None),
    ("surgery", "eval_ground_geometric", None),
    ("surgery", "lift_connected", None),
    ("tower", "build_tower", None),
    ("tower", "dim_step", None),
    ("tower", "crooked_step_stage", None),
    ("tower", "search_dim_cover", _cover),
    ("tower", "_refine_midpoints", _cover_cells),
    ("tower", "lift_through", None),
    ("tower", "Tower.composed_map", None),
    ("tower", "save_tower", None),
    ("tower", "load_tower", None),
    ("tower", "verify_tower", None),
    ("tower", "weak_confluence_witness", None),
    ("lattice", "generate_sublattice", _elements),
    ("lattice", "FiniteLattice.__init__", None),
    ("folang", "eval_formula", _lattice),
    ("sigma", "SigmaGenerator.generate_through", None),
)

COUNT_KEYS = (
    "surgery.surgeries", "surgery.nudges", "surgery.useful_ratio",
    *(f"tower.modes.{m}" for m in workloads.MODES),
    "final.vertices", "final.edges", "final.max_den_bits",
)


def load_library() -> SimpleNamespace:
    """Import the package afresh, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    source = os.path.join(ROOT, "src", PACKAGE)
    if not os.path.samefile(os.path.dirname(lib.tower.__file__), source):
        raise ImportError(f"{PACKAGE} was imported from {lib.tower.__file__}, not {source}")
    return lib


def set_up(workload, keys):
    lib = load_library()
    shared = workload.prepare_shared(lib)
    return lib, [workload.prepare(lib, shared, key) for key in keys]


class Phases:
    """Records when each phase of one operation ran, as tracer spans when
    tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.intervals: list[tuple[str, float, float]] = []

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(name):
                    yield
        finally:
            self.intervals.append((name, start, time.perf_counter()))

    def seconds(self, probe) -> dict[str, float]:
        """Per-phase seconds at the reference machine speed."""
        out = dict.fromkeys(PHASES, 0.0)
        for name, start, end in self.intervals:
            out[name] += probe.normalized(start, end)
        return out


class Runner:
    def __init__(self, workload, lib, keys, inputs, digests, workdir):
        self.workload = workload
        self.lib = lib
        self.keys = keys
        self.inputs = inputs
        self.digests = digests
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def set_up_one(self, i: int):
        """The input generation for input i alone, for the traced run."""
        shared = self.workload.prepare_shared(self.lib)
        return self.workload.prepare(self.lib, shared, self.keys[i % len(self.keys)])

    def operation(self, i: int, tracer=None):
        """One checked operation on input i of the sequence; returns the
        phase timings and the outcome, or None when it failed."""
        key = self.keys[i % len(self.keys)]
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        # start every operation from an empty collector, so that a full
        # collection of the previous operation's garbage does not land in a
        # short phase of this one
        gc.collect()
        phases = Phases(tracer)
        self.attempted += 1
        try:
            outcome = self.workload.run(self.lib, self.inputs[i % len(self.inputs)],
                                        self.workdir, phases)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = None
        else:
            outcome.require(outcome.digest == self.digests.get(key),
                            f"digest {outcome.digest} differs from the recorded "
                            f"{self.digests.get(key)}")
            for problem in outcome.problems:
                print(f"{self.workload.name} {key}: {problem}", file=sys.stderr)
        if outcome is None or outcome.problems:
            self.failed += 1
            return None
        return phases, outcome


def _median_metric(samples, unit):
    return {"value": statistics.median(samples), "unit": unit}


def end_to_end(runner, seconds, probe, setups):
    done = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        result = runner.operation(i)
        i += 1
        if result is not None:
            done.append(result[0])
    if not done:
        return None
    timings = [phases.seconds(probe) for phases in done]
    metrics = {"setup_s": _median_metric([probe.normalized(*s) for s in setups], "s")}
    for p in ("build", "io", "verify"):
        metrics[f"{p}_s"] = _median_metric([t[p] for t in timings], "s")
    raw = {p: statistics.median(sum(e - s for n, s, e in ph.intervals if n == p) for ph in done)
           for p in ("build", "io", "verify")}
    print(f"raw medians {raw}, slowdown {probe.slowdown():.3f}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return metrics


def per_layer(runner, seconds, probe):
    untraced, traced, counts = [], [], None
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        plain = runner.operation(i)
        undo = tracing.install(tracer, PACKAGE, TARGETS)
        try:
            with tracer.span("setup"):
                runner.set_up_one(i)
            done = runner.operation(i, tracer)
        finally:
            tracing.uninstall(undo)
        i += 1
        if plain is None or done is None:
            continue
        untraced.append(sum(plain[0].seconds(probe).values()))
        traced.append(sum(done[0].seconds(probe).values()))
        if counts is None:
            counts = done[1].counts
    if not traced:
        return None
    n = len(traced)
    unit = {"calls": "count", "self_s": "s", "total_s": "s"}
    metrics = {}
    by_name = tracer.by_name()
    for module, qualname, _ in TARGETS:
        name = tracing.metric_name(module, qualname)
        calls, self_s, total_s = by_name.get(name, (0, 0.0, 0.0))
        for field, value in zip(("calls", "self_s", "total_s"), (calls, self_s, total_s)):
            metrics[f"{name}.{field}"] = {"value": value / n, "unit": unit[field]}
    for module in MODULES:
        self_s = sum(v[1] for k, v in by_name.items() if k.startswith(module + "."))
        metrics[f"layer.{module}.self_s"] = {"value": self_s / n, "unit": "s"}
    module_of = lambda name: name.split(".")[0]  # noqa: E731
    shares = {
        "share.build.metric_graph_surgery": tracer.phase_self(
            "build", lambda s: module_of(s) in ("metric_graph", "surgery")),
        "share.verify.compose": tracer.phase_self(
            "verify", lambda s: s in ("metric_graph.PLMap.then", "tower.Tower.composed_map")),
        "share.verify.lattice_folang": tracer.phase_self(
            "verify", lambda s: module_of(s) in ("lattice", "folang")),
    }
    for key, value in shares.items():
        total = tracer.phase_total(key.split(".")[1])
        metrics[key] = {"value": value / total if total else 0.0, "unit": "ratio"}
    for key in (CELLS_KEY, COVER_CELLS_KEY, ELEMENTS_KEY, LATTICE_KEY):
        metrics[key] = {"value": tracer.observed.get(key, 0), "unit": "count"}
    metrics[FAILED_KEY] = {"value": tracer.observed.get(FAILED_KEY, 0) / n, "unit": "count"}
    cell_cap = runner.lib.tower.DEFAULT_CELL_CAP
    metrics["cap.cell_cap_used"] = {
        "value": tracer.observed.get(COVER_CELLS_KEY, 0) / cell_cap, "unit": "ratio"}
    metrics["cap.element_cap_used"] = {
        "value": tracer.observed.get(ELEMENTS_KEY, 0) / workloads.ELEMENT_CAP, "unit": "ratio"}
    for key in COUNT_KEYS:
        unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = {"value": counts.get(key, 0), "unit": unit}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": overhead / statistics.median(untraced), "unit": "ratio"}
    metrics["machine.slowdown"] = {"value": probe.slowdown(), "unit": "ratio"}
    metrics["failed_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)[workload.name]
    keys = workloads.sequence(workload, args.seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    setups = []
    try:
        with speed.SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                lib, inputs = set_up(workload, keys)
                setups.append((start, time.perf_counter()))
            runner = Runner(workload, lib, keys, inputs, digests, workdir)
            if args.trace:
                metrics = per_layer(runner, args.seconds, probe)
            else:
                metrics = end_to_end(runner, args.seconds, probe, setups)
    except ImportError as exc:
        print(f"cannot import the library from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if metrics is None:
        print("no operation succeeded", file=sys.stderr)
        metrics = {}
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
