import itertools
import signal
from fractions import Fraction as F
from functools import cached_property

import pytest

from crooked import folang, lattice, metric_graph
from crooked.metric_graph import ClosedSet, unit_segment
from crooked.tower import build_tower, theta_candidates, zeta_candidates


@pytest.fixture
def closure_calls(monkeypatch):
    """A list that gains one entry per `generate_sublattice` call, through
    either module binding, for the rest of the test."""
    calls = []
    generate = lattice.generate_sublattice

    def counting(*args, **kwargs):
        calls.append(1)
        return generate(*args, **kwargs)

    for module in (lattice, metric_graph):
        monkeypatch.setattr(module, "generate_sublattice", counting)
    return calls


@pytest.fixture
def fibre_builds(monkeypatch):
    """A list that gains the map itself each time a `PLMap` builds the
    inverse index behind `preimage_of`, for the rest of the test."""
    builds = []
    build = metric_graph.PLMap._fibres.func

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(metric_graph.PLMap, "_fibres")
    monkeypatch.setattr(metric_graph.PLMap, "_fibres", prop)
    return builds


@pytest.fixture
def split_builds(monkeypatch):
    """A list that gains the set itself each time a `ClosedSet` computes the
    split behind its cell footprints, for the rest of the test."""
    builds = []
    build = metric_graph.ClosedSet._edge_split

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(metric_graph.ClosedSet, "_edge_split", counting)
    return builds


@pytest.fixture
def walks(monkeypatch):
    """A list that gains the node itself each time `folang._walk` visits
    one, the walk's own recursive calls included, for the rest of the
    test."""
    visited = []
    walk = folang._walk

    def counting(node, bound):
        visited.append(node)
        return walk(node, bound)

    monkeypatch.setattr(folang, "_walk", counting)
    return visited


@pytest.fixture
def deadline():
    """Ten seconds for the rest of the test: past them it fails with
    TimeoutError instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 10 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def shortcut_tower():
    """A builder of towers of a given depth whose every stage keeps graph 0.
    The base is the tower-deep benchmark's plus the empty set `e`, and the
    schedules steer each stage onto an instance of its own with `e` as an
    operand: the triples ("e", s, t), and the quads ("e", "e", "e", s) of
    sorted names.  `resolve_shortcut` answers each with "shortcut", which
    binds whole and empty witnesses and keeps the graph.  Each instance is
    found by name, so the steering holds under any candidate order that
    lists it."""
    def build(depth):
        g = unit_segment()
        interval = lambda lo, hi: ClosedSet(g, {"seg": [(lo, hi)]}, set())  # noqa: E731
        base = {
            "p": interval(F(0), F(1, 4)), "q": interval(F(3, 4), F(1)), "r": interval(F(3, 8), F(5, 8)),
            "left": interval(F(0), F(1, 2)), "right": interval(F(1, 2), F(1)),
            "mid": interval(F(1, 4), F(1, 2)), "pt": g.point_closed_set([("e", "seg", F(3, 16))]),
            "e": g.empty_set(),
        }
        names = sorted(base)
        triples = [("e", *pair) for pair in itertools.combinations(names[1:], 2)]
        quads = [("e", "e", "e", name) for name in names]
        zetas, thetas = list(zeta_candidates(base)), list(theta_candidates(base))
        return build_tower(
            g, base, {"whole": g.whole_set(), "mid": base["mid"]}, depth,
            schedules=(lambda j: (0, zetas.index(triples[j - 1])),
                       lambda j: (0, thetas.index(quads[j]))),
        )

    return build
