"""Self-test of the span tracer.

    python3 -m pytest perfbench/test_tracer.py
"""

import itertools
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tracing  # noqa: E402


def ticking_clock():
    """A clock that advances by one on every reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def test_recursion_counts_each_interval_once():
    t = tracing.Tracer(clock=ticking_clock())

    def leaf():
        return 0

    def rec(n):
        return leaf() if n == 0 else rec(n - 1)

    leaf = t.wrap("m.leaf", leaf)
    rec = t.wrap("m.rec", rec)
    with t.span("root"):
        rec(3)
    root = t.phase_total("root")
    stats = t.by_name()
    assert stats["m.rec"][0] == 4
    assert stats["m.leaf"][0] == 1
    # self times partition the root span
    assert sum(entry[1] for entry in stats.values()) == root
    # the outermost rec span covers the nested ones; the nested ones add nothing
    assert stats["m.rec"][2] == root - 2
    assert stats["m.leaf"][2] == stats["m.leaf"][1] == 1


def test_phase_is_outermost_span():
    t = tracing.Tracer(clock=ticking_clock())
    f = t.wrap("m.f", lambda: None)
    with t.span("build"):
        f()
    with t.span("verify"):
        f()
        f()
    assert t.stats[("build", "m.f")][0] == 1
    assert t.stats[("verify", "m.f")][0] == 2
    assert t.phase_self("verify", lambda name: name == "m.f") == 2


def test_metric_name_strips_dunders():
    assert tracing.metric_name("metric_graph", "ClosedSet.__and__") == "metric_graph.ClosedSet.and"
    assert tracing.metric_name("lattice", "FiniteLattice.__init__") == "lattice.FiniteLattice.init"
    assert tracing.metric_name("tower", "save_tower") == "tower.save_tower"


def test_library_recursion_and_from_import_bindings():
    crooked_mg = pytest.importorskip("crooked.metric_graph")
    from crooked import folang, surgery

    original_eval = surgery.eval_ground_geometric
    original_extract = crooked_mg.extract_sublattice
    g = crooked_mg.unit_segment()
    sets = {
        "a": g.point_closed_set([("v", "a")]),
        "b": g.point_closed_set([("e", "seg", Fraction(1, 2))]),
    }
    # (a ^ b = 0) & ((a v b != 0) | (a = 1)): eval_ground_geometric recurses
    f = folang.parse("a ^ b = 0 & (a v b != 0 | a = 1)", constants={"a", "b"})
    t = tracing.Tracer()
    undo = tracing.install(t, "crooked", (
        ("surgery", "eval_ground_geometric", None),
        ("surgery", "verify_on_sublattice", None),
        ("metric_graph", "extract_sublattice", None),
        ("metric_graph", "ClosedSet.__and__", None),
        ("metric_graph", "ClosedSet.__or__", None),
    ))
    try:
        # the `from .metric_graph import extract_sublattice` binding is traced too
        assert surgery.extract_sublattice is crooked_mg.extract_sublattice
        assert surgery.extract_sublattice is not original_extract
        with t.span("root"):
            assert surgery.eval_ground_geometric(f, sets, g)
            assert surgery.verify_on_sublattice(f, sets, g)
    finally:
        tracing.uninstall(undo)
    assert surgery.eval_ground_geometric is original_eval
    assert surgery.extract_sublattice is original_extract
    assert crooked_mg.ClosedSet.__and__.__name__ == "__and__"
    stats = t.by_name()
    root = t.phase_total("root")
    assert stats["surgery.eval_ground_geometric"][0] > 1
    assert stats["metric_graph.extract_sublattice"][0] == 1
    assert sum(entry[1] for entry in stats.values()) == pytest.approx(root, rel=1e-9)
    for calls, self_s, total_s in stats.values():
        assert 0 <= self_s <= total_s + 1e-12 <= root + 1e-12
    # the outermost recursive span is counted once, not once per level
    recursive_total = stats["surgery.eval_ground_geometric"][2]
    assert recursive_total <= root - stats["surgery.verify_on_sublattice"][2] + 1e-12


def test_missing_target_fails():
    crooked_mg = pytest.importorskip("crooked.metric_graph")
    original_then = crooked_mg.PLMap.then
    for missing in (
        ("metric_graph", "no_such_function", None),
        ("metric_graph", "NoSuchClass.method", None),
        ("metric_graph", "PLMap.no_such_method", None),
        ("no_such_module", "f", None),
    ):
        with pytest.raises(LookupError):
            tracing.install(tracing.Tracer(), "crooked", (
                ("metric_graph", "PLMap.then", None), missing))
        # nothing stays wrapped when a later target is missing
        assert crooked_mg.PLMap.then is original_then
