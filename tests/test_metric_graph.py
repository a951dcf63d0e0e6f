import heapq
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crooked.errors import InputError, PreconditionError, UsageError
from crooked.folang import Const, conn, parse
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, PLMap, _cell_in_set, distance_to_set,
    dump_graph, extract_sublattice, graph_from_dict, graph_to_dict, kappa_map,
    point_distance, unit_segment, urysohn,
)


@pytest.fixture
def seg():
    return unit_segment()


@pytest.fixture
def theta():
    # two vertices joined by three edges of different lengths
    return MetricGraph(
        ["x", "y"],
        [Edge("e1", "x", "y", F(1)), Edge("e2", "x", "y", F(3, 2)), Edge("e3", "x", "y", F(2))],
    )


def rational_set(graph, rng, denom=64):
    intervals = {}
    for eid, e in graph.edges.items():
        items = []
        for _ in range(rng.randint(0, 2)):
            a = F(rng.randint(0, denom), denom) * e.length
            b = F(rng.randint(0, denom), denom) * e.length
            a, b = min(a, b), max(a, b)
            items.append((a, b))
        if items:
            intervals[eid] = items
    verts = {v for v in graph.vertices if rng.random() < 0.3}
    return ClosedSet(graph, intervals, verts)


# ------------------------------------------------------------- closed sets

def test_closed_set_normalization(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 4)), (F(1, 4), F(1, 2))]}, set())
    assert s.intervals["seg"] == ((F(0), F(1, 2)),)
    assert "a" in s.vertices  # interval touches parameter 0
    t = ClosedSet(seg, {"seg": [(F(1), F(1))]}, set())
    assert not t.intervals and t.vertices == frozenset({"b"})


def test_closed_set_ops(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    t = ClosedSet(seg, {"seg": [(F(1, 2), F(1))]}, set())
    u = s | t
    assert u == seg.whole_set()
    i = s & t
    assert i.intervals["seg"] == ((F(1, 2), F(1, 2)),)
    assert not i.vertices
    assert s.is_subset_of(u)
    assert s.contains_point(("e", "seg", F(1, 4)))
    assert not s.contains_point(("v", "b"))


def test_interval_validation(seg):
    with pytest.raises(InputError):
        ClosedSet(seg, {"seg": [(F(1, 2), F(1, 4))]}, set())
    with pytest.raises(InputError):
        ClosedSet(seg, {"seg": [(F(0), F(2))]}, set())
    with pytest.raises(InputError):
        ClosedSet(seg, {"nope": [(F(0), F(1))]}, set())


# ------------------------------------------------------------- distances

def test_distance_unit_segment_from_origin(seg):
    a = seg.point_closed_set([("v", "a")])
    f = distance_to_set(seg, a)
    for t in (F(0), F(1, 3), F(1, 2), F(1)):
        assert f.eval(("e", "seg", t)) == t


def test_distance_to_whole_graph_is_zero(theta):
    f = distance_to_set(theta, theta.whole_set())
    for eid in theta.edges:
        assert f.per_edge[eid] == ((F(0), F(0)), (theta.edges[eid].length, F(0)))


def test_distance_to_empty_set_rejected(seg):
    with pytest.raises(PreconditionError):
        distance_to_set(seg, seg.empty_set())


def _grid_oracle_distance(graph, source_points, n=256):
    """Dijkstra over a 2^-8 subdivision; exact Fractions throughout."""
    nodes = {}
    adj = {}

    def node(key):
        if key not in nodes:
            nodes[key] = len(nodes)
            adj[nodes[key]] = []
        return nodes[key]

    for vid in graph.vertices:
        node(("v", vid))
    for eid, e in graph.edges.items():
        prev = node(("v", e.u))
        for i in range(1, n):
            cur = node(("g", eid, i))
            adj[prev].append((cur, e.length / n))
            adj[cur].append((prev, e.length / n))
            prev = cur
        last = node(("v", e.v))
        adj[prev].append((last, e.length / n))
        adj[last].append((prev, e.length / n))
    dist = {}
    heap = []
    for key in source_points:
        heapq.heappush(heap, (F(0), node(key)))
    while heap:
        d, i = heapq.heappop(heap)
        if i in dist:
            continue
        dist[i] = d
        for j, w in adj[i]:
            if j not in dist:
                heapq.heappush(heap, (d + w, j))
    return nodes, dist


def test_distance_matches_grid_oracle_on_theta(theta):
    f = distance_to_set(theta, theta.point_closed_set([("v", "x")]))
    nodes, dist = _grid_oracle_distance(theta, [("v", "x")])
    for eid, e in theta.edges.items():
        for i in range(1, 256):
            t = e.length * i / 256
            assert f.eval(("e", eid, t)) == dist[nodes[("g", eid, i)]]
    assert f.eval(("v", "y")) == dist[nodes[("v", "y")]] == F(1)


def test_distance_with_interval_sources_matches_grid(theta):
    target = ClosedSet(theta, {"e3": [(F(1, 4), F(1, 2))]}, set())
    f = distance_to_set(theta, target)
    # oracle: grid points inside the interval are sources
    sources = []
    for i in range(0, 257):
        t = theta.edges["e3"].length * i / 256
        if F(1, 4) <= t <= F(1, 2):
            key = ("g", "e3", i) if 0 < i < 256 else ("v", "x" if i == 0 else "y")
            sources.append(key)
    nodes, dist = _grid_oracle_distance(theta, sources)
    for eid, e in theta.edges.items():
        for i in range(1, 256, 7):
            t = e.length * i / 256
            assert f.eval(("e", eid, t)) == dist[nodes[("g", eid, i)]]


def test_metric_axioms_random_triples(theta):
    rng = random.Random(11)
    pts = []
    for _ in range(12):
        eid = rng.choice(list(theta.edges))
        t = F(rng.randint(0, 16), 16) * theta.edges[eid].length
        pts.append(theta.normalize_point(("e", eid, t)))
    for _ in range(100):
        p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        dpq = point_distance(theta, p, q)
        assert dpq == point_distance(theta, q, p)
        assert dpq >= 0 and (dpq == 0) == (p == q)
        assert dpq <= point_distance(theta, p, r) + point_distance(theta, r, q)


# ------------------------------------------------------------- kappa

def test_kappa_hand_values(seg):
    a = seg.point_closed_set([("v", "a")])
    b = seg.point_closed_set([("v", "b")])
    c = seg.point_closed_set([("e", "seg", F(1, 2))])
    km = kappa_map(seg, a, b, c)
    ka, kb, kc = km.values(("v", "a"))
    assert (ka, kb, kc) == (F(0), F(2, 3), F(1, 3))
    assert km.values(("e", "seg", F(1, 2)))[2] == 0


def test_kappa_sum_identity_random_points(seg):
    a = ClosedSet(seg, {"seg": [(F(0), F(1, 8))]}, set())
    b = ClosedSet(seg, {"seg": [(F(7, 8), F(1))]}, set())
    c = seg.point_closed_set([("e", "seg", F(1, 2))])
    km = kappa_map(seg, a, b, c)
    rng = random.Random(3)
    for _ in range(50):
        t = F(rng.randint(0, 240), 240)
        p = seg.normalize_point(("e", "seg", t))
        vals = km.values(p)
        assert sum(vals) == 1
        assert all(0 <= v <= 1 for v in vals)


def test_kappa_precondition_errors(seg):
    a = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    b = ClosedSet(seg, {"seg": [(F(1, 4), F(3, 4))]}, set())
    c = ClosedSet(seg, {"seg": [(F(1, 2), F(1))]}, set())
    with pytest.raises(PreconditionError):
        kappa_map(seg, a, b, c)  # triple intersection {1/2}
    with pytest.raises(PreconditionError):
        kappa_map(seg, seg.empty_set(), b, c)


def test_kappa_barycenter_locus_on_y_graph():
    g = MetricGraph(
        ["c", "ta", "tb", "tc"],
        [Edge("la", "c", "ta", F(1)), Edge("lb", "c", "tb", F(1)), Edge("lc", "c", "tc", F(1))],
    )
    km = kappa_map(
        g,
        g.point_closed_set([("v", "ta")]),
        g.point_closed_set([("v", "tb")]),
        g.point_closed_set([("v", "tc")]),
    )
    locus = km.barycenter_locus()
    assert locus == g.point_closed_set([("v", "c")])
    # min regions cover and agree with legs
    x, y, z = km.min_region(0), km.min_region(1), km.min_region(2)
    assert (x | y | z) == g.whole_set()
    assert x.contains_point(("v", "ta")) and not x.contains_point(("v", "tb"))


# ------------------------------------------------------------- components

def test_components_two_intervals(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]}, set())
    comps = seg.components_of(s)
    assert len(comps) == 2
    assert comps[0] | comps[1] == s
    assert (comps[0] & comps[1]).is_empty()


def test_components_whole_connected(theta):
    assert len(theta.components_of(theta.whole_set())) == 1
    assert theta.is_connected()


def _grid_components(graph, s, n=256):
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def key(eid, i, e):
        if i == 0:
            return ("v", e.u)
        if i == n:
            return ("v", e.v)
        return ("g", eid, i)

    members = []
    for vid in graph.vertices:
        if s.contains_point(("v", vid)):
            parent.setdefault(("v", vid), ("v", vid))
            members.append(("v", vid))
    for eid, e in graph.edges.items():
        for i in range(n + 1):
            t = e.length * i / n
            if s.contains_point(graph.normalize_point(("e", eid, t))):
                k = key(eid, i, e)
                parent.setdefault(k, k)
    for eid, e in graph.edges.items():
        for i in range(n):
            k1, k2 = key(eid, i, e), key(eid, i + 1, e)
            if k1 in parent and k2 in parent:
                union(k1, k2)
    return len({find(k) for k in parent})


def test_components_match_grid_oracle_on_six_edge_graph():
    g = MetricGraph(
        ["a", "b", "c", "d"],
        [
            Edge("e1", "a", "b", F(1)),
            Edge("e2", "b", "c", F(1, 2)),
            Edge("e3", "c", "d", F(2)),
            Edge("e4", "d", "a", F(1)),
            Edge("e5", "a", "c", F(3, 4)),
            Edge("e6", "b", "d", F(5, 4)),
        ],
    )
    rng = random.Random(17)
    for _ in range(25):
        s = rational_set(g, rng)
        assert len(g.components_of(s)) == _grid_components(g, s)


# ------------------------------------------------------------- urysohn

def test_urysohn_identity_on_segment(seg):
    a = seg.point_closed_set([("v", "a")])
    b = seg.point_closed_set([("v", "b")])
    f = urysohn(seg, a, b)
    assert f.per_edge["seg"] == ((F(0), F(0)), (F(1), F(1)))


def test_urysohn_disjointness_required(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    t = ClosedSet(seg, {"seg": [(F(1, 2), F(1))]}, set())
    with pytest.raises(PreconditionError):
        urysohn(seg, s, t & s)
    with pytest.raises(PreconditionError):
        urysohn(seg, s, t)  # they share the point 1/2


def test_urysohn_pins_on_star():
    g = MetricGraph(
        ["o", "pa", "pb", "pc", "pd"],
        [
            Edge("ea", "o", "pa", F(1)),
            Edge("eb", "o", "pb", F(1)),
            Edge("ec", "o", "pc", F(1)),
            Edge("ed", "o", "pd", F(1)),
        ],
    )
    a = g.point_closed_set([("v", "pa")])
    b = g.point_closed_set([("v", "pb")])
    c = ClosedSet(g, {"ec": [(F(1, 2), F(1))]}, set())
    d = ClosedSet(g, {"ed": [(F(1, 2), F(1))]}, set())
    f = urysohn(g, a, b, pin_low=c, pin_high=d)
    assert f.max_over(a) == 0 and f.min_over(a) == 0
    assert f.max_over(b) == 1 and f.min_over(b) == 1
    assert f.max_over(c) <= F(1, 2)
    assert f.min_over(d) >= F(1, 2)
    for eid, bp in f.per_edge.items():
        assert all(0 <= y <= 1 for _, y in bp)


def test_urysohn_empty_sides(seg):
    f = urysohn(seg, seg.empty_set(), seg.empty_set())
    assert f.eval(("e", "seg", F(1, 3))) == F(1, 2)
    z = ClosedSet(seg, {"seg": [(F(0), F(1, 4))]}, set())
    f0 = urysohn(seg, z, seg.empty_set())
    assert f0.max_over(seg.whole_set()) == 0


# ------------------------------------------------------------- PL functions

def test_level_and_sublevel_sets(seg):
    f = PLFunction(seg, {"seg": [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))]})
    sub = f.sublevel_set(F(1, 2))
    assert sub.intervals["seg"] == ((F(0), F(1, 4)), (F(3, 4), F(1)))
    level = f.level_set(F(1))
    assert not level.vertices
    assert level.intervals["seg"] == ((F(1, 2), F(1, 2)),)
    assert f.extrema_over(seg.whole_set()) == (F(0), F(1))


def test_plfunction_continuity_enforced(theta):
    per_edge = {
        "e1": [(F(0), F(0)), (F(1), F(1))],
        "e2": [(F(0), F(0)), (F(3, 2), F(1))],
        "e3": [(F(0), F(1)), (F(2), F(1))],  # disagrees at vertex x
    }
    with pytest.raises(InputError):
        PLFunction(theta, per_edge)


# ------------------------------------------------------------- PL maps

def test_plmap_identity_and_composition(theta):
    ident = PLMap.identity(theta)
    assert ident.is_surjective()
    s = ClosedSet(theta, {"e1": [(F(1, 4), F(1, 2))]}, set())
    assert ident.image_of(s) == s
    assert ident.preimage_of(s) == s
    twice = ident.then(ident)
    assert twice.image_of(s) == s


def test_plmap_fold_segment(seg):
    # fold [0,1] onto [0,1/2]: t -> t/2 on a copy
    half = MetricGraph(["a", "b"], [Edge("seg", "a", "b", F(1, 2))])
    fold = PLMap(
        seg, half,
        {"a": ("v", "a"), "b": ("v", "b")},
        {"seg": ("affine", "seg", F(0), F(1, 2))},
    )
    assert fold.is_surjective()
    assert fold.image_point(("e", "seg", F(1, 2))) == ("e", "seg", F(1, 4))
    back = fold.preimage_of(half.point_closed_set([("e", "seg", F(1, 4))]))
    assert back == seg.point_closed_set([("e", "seg", F(1, 2))])


def test_plmap_const_edges(seg):
    point = MetricGraph(["p", "q"], [Edge("pe", "p", "q", F(1))])
    collapse = PLMap(
        seg, point,
        {"a": ("v", "p"), "b": ("v", "p")},
        {"seg": ("const", ("v", "p"))},
    )
    img = collapse.image_of(seg.whole_set())
    assert img == point.point_closed_set([("v", "p")])
    assert not collapse.is_surjective()
    pre = collapse.preimage_of(point.point_closed_set([("v", "p")]))
    assert pre == seg.whole_set()


# ------------------------------------------------------------- extraction

def test_extract_single_set(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    res = extract_sublattice(seg, {"s": s})
    assert res.lattice.size <= 4
    elt = res.interpretation.value("s")
    assert res.closed_set_of(elt) == s
    assert res.closed_set_of(res.lattice.top) == seg.whole_set()


def test_extract_no_sets(seg):
    res = extract_sublattice(seg, {})
    assert res.lattice.size <= 2


def test_extract_footprints_respect_meet_join(theta):
    rng = random.Random(23)
    for _ in range(40):
        s = rational_set(theta, rng, denom=8)
        t = rational_set(theta, rng, denom=8)
        res = extract_sublattice(theta, {"s": s, "t": t})
        es, et = res.interpretation.value("s"), res.interpretation.value("t")
        assert res.closed_set_of(es.meet(et)) == (s & t)
        assert res.closed_set_of(es.join(et)) == (s | t)


TWO_EDGES = MetricGraph(
    ["x", "y", "z"], [Edge("e1", "x", "y", F(1)), Edge("e2", "y", "z", F(3, 2))]
)


@st.composite
def two_edge_sets(draw):
    """One to four named closed sets on TWO_EDGES, endpoints at eighths."""
    sets = {}
    for name in "stuv"[:draw(st.integers(min_value=1, max_value=4))]:
        intervals = {}
        for eid, e in TWO_EDGES.edges.items():
            ends = st.tuples(st.integers(0, 8), st.integers(0, 8))
            items = [tuple(sorted(pair)) for pair in draw(st.lists(ends, max_size=3))]
            if items:
                intervals[eid] = [(F(lo, 8) * e.length, F(hi, 8) * e.length) for lo, hi in items]
        verts = draw(st.sets(st.sampled_from(TWO_EDGES.vertices)))
        sets[name] = ClosedSet(TWO_EDGES, intervals, verts)
    return sets


@settings(max_examples=100, deadline=None)
@given(two_edge_sets())
def test_bisected_footprints_match_cell_membership(sets):
    res = extract_sublattice(TWO_EDGES, sets)
    assert res.full == (1 << len(res.cells)) - 1
    for name, s in sets.items():
        expected = sum(1 << i for i, cell in enumerate(res.cells) if _cell_in_set(cell, s))
        assert res.masks[name] == expected, name


def test_extract_closes_the_lattice_only_when_read(seg, closure_calls):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    res = extract_sublattice(seg, {"s": s})
    assert res.decide(parse("s v 1 = 1 & s != 0", constants={"s"}))
    # conn(t) is decided on the masks too; any other quantifier raises
    assert res.decide(conn(Const("s")))
    with pytest.raises(UsageError):
        res.decide(parse("exists x. x != s", constants={"s"}))
    assert closure_calls == []
    assert res.closed_set_of(res.interpretation.value("s")) == s
    assert res.lattice.size == 3
    assert closure_calls == [1]


# ------------------------------------------------------------- serialization

def test_graph_roundtrip_bit_exact(theta):
    sets = {
        "s": ClosedSet(theta, {"e1": [(F(1, 3), F(2, 3))]}, {"y"}),
        "t": theta.point_closed_set([("e", "e2", F(3, 4))]),
    }
    text = dump_graph(theta, sets)
    g2, sets2 = graph_from_dict(json.loads(text))
    text2 = dump_graph(g2, sets2)
    assert text == text2
    assert sorted(g2.edges) == sorted(theta.edges)
    assert sets2["s"].intervals["e1"] == ((F(1, 3), F(2, 3)),)


def test_scaling_bounds_diameter(theta):
    g = theta.normalized()
    assert g.total_length() <= 1


# ------------------------------------------------------- set algebra laws

from hypothesis import given, settings, strategies as st

_HYP_GRAPH = MetricGraph(
    ["a", "b", "c"],
    [Edge("e1", "a", "b", F(1)), Edge("e2", "b", "c", F(1)), Edge("e3", "a", "c", F(1))],
)


@st.composite
def closed_sets(draw):
    intervals = {}
    for eid in ("e1", "e2", "e3"):
        pieces = draw(st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=2,
        ))
        items = [(F(min(p, q), 12), F(max(p, q), 12)) for p, q in pieces]
        if items:
            intervals[eid] = items
    verts = draw(st.sets(st.sampled_from(["a", "b", "c"])))
    return ClosedSet(_HYP_GRAPH, intervals, verts)


@settings(max_examples=80, deadline=None)
@given(closed_sets(), closed_sets(), closed_sets())
def test_closed_set_lattice_laws(s, t, u):
    assert (s & t) == (t & s)
    assert (s | t) == (t | s)
    assert (s & (t | u)) == ((s & t) | (s & u))
    assert (s | (t & u)) == ((s | t) & (s | u))
    assert (s & (s | t)) == s
    assert (s | (s & t)) == s
    assert (s & s) == s and (s | s) == s


@settings(max_examples=50, deadline=None)
@given(closed_sets(), closed_sets())
def test_closed_set_components_partition(s, t):
    comps = _HYP_GRAPH.components_of(s)
    total = _HYP_GRAPH.empty_set()
    for comp in comps:
        total = total | comp
    assert total == s
    for i, c1 in enumerate(comps):
        for c2 in comps[i + 1:]:
            assert (c1 & c2).is_empty()
