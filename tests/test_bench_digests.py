"""A fixed sample of the benchmark's inputs must still produce the bytes
recorded in perfbench/digests.json.

perfbench/run.py fails an operation whose output digest differs from the
recorded one; this test rebuilds a sample of those outputs (all thirty
fragment-surgery keys, all fifteen tower-deep keys, thirty tower-crooked
keys) so that a change to any output byte fails the test suite first.  The
library is the already-imported `crooked` package: `run.load_library` would
import it afresh and leave other tests holding classes of the old import.
"""

import importlib
import json
import os
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from test_bench_targets import ROOT, _load

RUN = _load("run")
LIB = SimpleNamespace(**{m: importlib.import_module(f"{RUN.PACKAGE}.{m}") for m in RUN.MODULES})
WORKLOADS = RUN.workloads.WORKLOADS
with open(os.path.join(ROOT, "perfbench", "digests.json"), encoding="utf-8") as fh:
    RECORDED = json.load(fh)

SAMPLE_SIZES = {"fragment-surgery": 30, "tower-deep": 15, "tower-crooked": 30}


def _sample(name: str) -> list[str]:
    """Keys spread evenly over the workload's pool, first key included."""
    pool = WORKLOADS[name].pool()
    stride = len(pool) // SAMPLE_SIZES[name]
    return pool[::stride][: SAMPLE_SIZES[name]]


@pytest.mark.parametrize("name", sorted(SAMPLE_SIZES))
def test_sampled_outputs_match_recorded_digests(name, tmp_path):
    workload = WORKLOADS[name]
    shared = workload.prepare_shared(LIB)
    keys = _sample(name)
    assert len(keys) == SAMPLE_SIZES[name]
    mismatched = []
    for i, key in enumerate(keys):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        inp = workload.prepare(LIB, shared, key)
        _, paths = workload.produce(LIB, inp, str(workdir), lambda _: nullcontext())
        if RUN.workloads.digest_files(paths) != RECORDED[name][key]:
            mismatched.append(key)
    assert not mismatched


@pytest.mark.parametrize("name", sorted(SAMPLE_SIZES))
def test_first_sampled_operation_passes_its_checks(name, tmp_path):
    # the whole operation perfbench/run.py times and checks (build, io,
    # verify and, for towers, threads) on the first sampled key: a change
    # that would fail it there as incorrect output fails the test suite first
    workload = WORKLOADS[name]
    key = _sample(name)[0]
    inp = workload.prepare(LIB, workload.prepare_shared(LIB), key)
    out = workload.run(LIB, inp, str(tmp_path), lambda _: nullcontext())
    assert out.problems == []
    assert out.digest == RECORDED[name][key]


def test_fragment_sample_reloads_to_the_built_sets(tmp_path):
    # the digests pin the bytes written; this pins what loading them reads
    workload = WORKLOADS["fragment-surgery"]
    inp = workload.prepare(LIB, workload.prepare_shared(LIB), _sample("fragment-surgery")[0])
    result, paths = workload.produce(LIB, inp, str(tmp_path), lambda _: nullcontext())
    graph, sets = LIB.metric_graph.load_graph(paths[0])
    assert (graph.vertices, graph.edges) == (result.graph.vertices, result.graph.edges)
    assert sorted(sets) == sorted(result.interpretation)
    for name, built in result.interpretation.items():
        got = sets[name]
        assert (got.vertices, got.intervals, got.whole) == (
            built.vertices, built.intervals, built.whole), name
    assert any(s.whole for s in sets.values())
