import heapq
import json
import random
import re
from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crooked import metric_graph, surgery, tower
from crooked.errors import InputError, PreconditionError, ResourceLimitError, UsageError
from crooked.folang import Const, conn, constants_of, is_ground, parse
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, PLMap, _arrangement, _bp_clamp, _bp_combine,
    _bp_eval, _bp_min, _bp_simplify, _cell_in_set, cells_closed_set, distance_to_set, dump_graph,
    dump_json, extract_sublattice, frac, graph_from_dict, graph_to_dict, kappa_map, unit_segment,
    urysohn,
)
from test_surgery import nudged_triangle_fragment, surgery_rich_fragment
from test_tower import steered_crooked_tower


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


def test_edge_id_vertices_is_rejected():
    # a closed set's file entry keeps its vertex list under "vertices" beside
    # its intervals keyed by edge id, so such an edge's intervals would be lost
    with pytest.raises(InputError, match="vertices"):
        MetricGraph(["a", "b"], [Edge("vertices", "a", "b", F(1))])
    data = {
        "vertices": ["a", "b"],
        "edges": [{"id": "vertices", "u": "a", "v": "b", "len": "1/1"}],
    }
    with pytest.raises(InputError, match="vertices"):
        graph_from_dict(data)


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

    def dist(s, t):
        return distance_to_set(theta, theta.point_closed_set([s])).eval(t)

    for _ in range(100):
        p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        dpq = dist(p, q)
        assert dpq == dist(q, p)
        assert dpq >= 0 and (dpq == 0) == (p == q)
        assert dpq <= dist(p, r) + dist(r, q)


# ------------------------------------------------------------- kappa

def kappa_triple(km, p):
    """The normalized distance quotients toward a, b, c at `p`."""
    ds = (km.d_a.eval(p), km.d_b.eval(p), km.d_c.eval(p))
    return tuple(d / sum(ds) for d in ds)


def test_kappa_hand_values(seg):
    a = seg.point_closed_set([("v", "a")])
    b = seg.point_closed_set([("v", "b")])
    c = seg.point_closed_set([("e", "seg", F(1, 2))])
    km = kappa_map(seg, a, b, c)
    ka, kb, kc = kappa_triple(km, ("v", "a"))
    assert (ka, kb, kc) == (F(0), F(2, 3), F(1, 3))
    assert kappa_triple(km, ("e", "seg", F(1, 2)))[2] == 0


def test_kappa_sum_identity_random_points(seg):
    a = ClosedSet(seg, {"seg": [(F(0), F(1, 8))]}, set())
    b = ClosedSet(seg, {"seg": [(F(7, 8), F(1))]}, set())
    c = seg.point_closed_set([("e", "seg", F(1, 2))])
    km = kappa_map(seg, a, b, c)
    rng = random.Random(3)
    for _ in range(50):
        t = F(rng.randint(0, 240), 240)
        p = seg.normalize_point(("e", "seg", t))
        vals = kappa_triple(km, p)
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
    assert km.barycenter_locus == g.point_closed_set([("v", "c")])
    # min regions cover and agree with legs
    x, y, z = km.min_regions
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


def test_a_graph_with_no_vertices_is_not_connected():
    # no base space: zero components, not one
    assert not MetricGraph([], []).is_connected()


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
    f = urysohn(seg, a, b, seg.empty_set(), seg.empty_set())
    assert f.per_edge["seg"] == ((F(0), F(0)), (F(1), F(1)))


def test_urysohn_disjointness_required(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    t = ClosedSet(seg, {"seg": [(F(1, 2), F(1))]}, set())
    with pytest.raises(PreconditionError):
        urysohn(seg, s, t & s, seg.empty_set(), seg.empty_set())
    with pytest.raises(PreconditionError):
        urysohn(seg, s, t, seg.empty_set(), seg.empty_set())  # they share the point 1/2


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
    none = seg.empty_set()
    f = urysohn(seg, none, none, none, none)
    assert f.eval(("e", "seg", F(1, 3))) == F(1, 2)
    z = ClosedSet(seg, {"seg": [(F(0), F(1, 4))]}, set())
    f0 = urysohn(seg, z, none, none, none)
    assert f0.max_over(seg.whole_set()) == 0


# ------------------------------------------------------------- PL functions

def test_level_and_sublevel_sets(seg):
    f = PLFunction(seg, {"seg": [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))]})
    sub = f.sublevel_set(F(1, 2))
    assert sub.intervals["seg"] == ((F(0), F(1, 4)), (F(3, 4), F(1)))
    level = f.sublevel_set(F(1)) & f.superlevel_set(F(1))
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


def bp_combine_by_eval(a, b, fn):
    """The pointwise reference for `_bp_combine`: evaluate both lists from
    the start at every x of the union."""
    xs = sorted({x for x, _ in a} | {x for x, _ in b})
    return _bp_simplify([(x, fn(_bp_eval(a, x), _bp_eval(b, x))) for x in xs])


def bp_min_by_eval(a, b):
    """The pointwise reference for `_bp_min`."""
    xs = sorted({x for x, _ in a} | {x for x, _ in b})
    pts = []
    for x0, x1 in zip(xs, xs[1:]):
        d0 = _bp_eval(a, x0) - _bp_eval(b, x0)
        d1 = _bp_eval(a, x1) - _bp_eval(b, x1)
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            xc = x0 + (x1 - x0) * d0 / (d0 - d1)
            if x0 < xc < x1 and xc not in xs:
                pts.append(xc)
    xs = sorted(set(xs) | set(pts))
    return _bp_simplify([(x, min(_bp_eval(a, x), _bp_eval(b, x))) for x in xs])


def bp_clamp_by_eval(bp, lo, hi):
    """The pointwise reference for `_bp_clamp`."""
    xs = {x for x, _ in bp}
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        for level in (lo, hi):
            if (y0 - level) * (y1 - level) < 0:
                xs.add(x0 + (x1 - x0) * (level - y0) / (y1 - y0))
    return _bp_simplify([(x, min(hi, max(lo, _bp_eval(bp, x)))) for x in sorted(xs)])


@st.composite
def breakpoint_lists(draw):
    """A breakpoint list at twelfths over a random span inside [0, 4], with
    quarter-step values, so that two lists may overlap only in part."""
    xs = sorted(draw(st.sets(st.integers(0, 48), min_size=2, max_size=7)))
    return tuple((F(x, 12), F(draw(st.integers(-8, 8)), 4)) for x in xs)


@settings(max_examples=200, deadline=None)
@given(breakpoint_lists(), breakpoint_lists(), st.integers(-4, 4), st.integers(0, 4))
def test_breakpoint_merge_walks_match_pointwise_eval(a, b, lo, width):
    lo, hi = F(lo, 4), F(lo + width, 4)
    assert _bp_combine(a, b, lambda p, q: p + q) == bp_combine_by_eval(a, b, lambda p, q: p + q)
    assert _bp_combine(a, b, lambda p, q: p - q) == bp_combine_by_eval(a, b, lambda p, q: p - q)
    assert _bp_min(a, b) == bp_min_by_eval(a, b)
    assert _bp_clamp(a, lo, hi) == bp_clamp_by_eval(a, lo, hi)


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


@pytest.mark.parametrize("vertex_map, entry, message", [
    ({"a": ("v", "a"), "b": ("v", "a")}, ("const", ("e", "seg", F(1, 2))),
     "discontinuous at edge 'seg'"),
    ({"a": ("v", "a"), "b": ("v", "b")}, ("affine", "seg", F(1, 4), F(1)),
     "discontinuous at edge 'seg'"),
    ({"a": ("v", "a"), "b": ("v", "b")}, ("affine", "seg", F(0), F(3, 4)),
     "discontinuous at edge 'seg'"),
    ({"a": ("v", "a"), "b": ("v", "b")}, ("affine", "seg", F(0), F(2)),
     "affine image outside edge 'seg'"),
    ({"a": ("e", "seg", F(1, 2)), "b": ("e", "seg", F(1, 2))},
     ("affine", "seg", F(1, 2), F(1, 2)), "degenerate affine entry"),
], ids=["const-point", "affine-s0", "affine-s1", "affine-outside", "affine-degenerate"])
def test_plmap_rejects_an_invalid_edge_entry(seg, vertex_map, entry, message):
    # negative controls for the checks `PLMap.__init__` makes on every edge
    with pytest.raises(InputError, match=message):
        PLMap(seg, seg, vertex_map, {"seg": entry})


def test_plmap_continuity_reads_each_end_off_the_entry(seg):
    # a reversed affine entry meets its ends swapped, and a const entry
    # given as an edge point at an end is that end's vertex
    flip = PLMap(seg, seg, {"a": ("v", "b"), "b": ("v", "a")}, {"seg": ("affine", "seg", 1, 0)})
    assert flip.image_point(("e", "seg", F(1, 4))) == ("e", "seg", F(3, 4))
    crush = PLMap(seg, seg, {"a": ("v", "b"), "b": ("v", "b")}, {"seg": ("const", ("e", "seg", 1))})
    assert crush.edge_map["seg"] == ("const", ("v", "b"))


# ------------------------------------------------------------- extraction

def closed_set_of(res, element):
    """Geometric realization of an element of `res.lattice`: the union of
    its cells."""
    return cells_closed_set(res.graph, [res.cells[i] for i in element])


def test_extract_single_set(seg):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    res = extract_sublattice(seg, {"s": s})
    assert res.lattice.size <= 4
    elt = res.interpretation["s"]
    assert closed_set_of(res, elt) == s
    assert closed_set_of(res, res.lattice.elements[res.lattice.top_index]) == seg.whole_set()


def test_extract_no_sets(seg):
    res = extract_sublattice(seg, {})
    assert res.lattice.size <= 2


def test_extract_footprints_respect_meet_join(theta):
    rng = random.Random(23)
    for _ in range(40):
        s = rational_set(theta, rng, denom=8)
        t = rational_set(theta, rng, denom=8)
        res = extract_sublattice(theta, {"s": s, "t": t})
        es, et = res.interpretation["s"], res.interpretation["t"]
        assert {es & et, es | et} <= set(res.lattice.elements)
        assert closed_set_of(res, es & et) == (s & t)
        assert closed_set_of(res, es | et) == (s | t)


def test_extract_interpretation_closes_nothing(seg, closure_calls):
    # three points and the whole segment close to 9 elements, over a cap of 4
    ts = {f"p{i}": F(i, 4) for i in (1, 2, 3)}
    res = extract_sublattice(
        seg, {name: seg.point_closed_set([("e", "seg", t)]) for name, t in ts.items()}, cap=4
    )
    assert res.interpretation == {
        name: frozenset({res.cells.index(("p", "seg", t))}) for name, t in ts.items()
    }
    assert closure_calls == []
    with pytest.raises(ResourceLimitError):
        res.lattice


def extract_by_bisection(graph, named_sets):
    """The extraction before per-set splits, kept as an oracle: cut every edge
    at every interval endpoint of every set, read each edge's breakpoints
    back off the cells, and bisect every interval into them."""
    cuts = {eid: set() for eid in graph.edges}
    for s in named_sets.values():
        for eid, items in s.intervals.items():
            e = graph.edges[eid]
            for lo, hi in items:
                for t in (lo, hi):
                    if 0 < t < e.length:
                        cuts[eid].add(t)
    cells = [("v", v) for v in graph.vertices]
    for eid in sorted(graph.edges):
        marks = [F(0)] + sorted(cuts[eid]) + [graph.edges[eid].length]
        for t in marks[1:-1]:
            cells.append(("p", eid, t))
        for lo, hi in zip(marks, marks[1:]):
            cells.append(("o", eid, lo, hi))
    layout = {}
    for i, cell in enumerate(cells):
        if cell[0] == "v":
            continue
        if cell[1] not in layout:
            layout[cell[1]] = (i, [F(0)])
        if cell[0] == "o":
            layout[cell[1]][1].append(cell[3])
    vertex_bit = {v: i for i, v in enumerate(graph.vertices)}
    masks = {}
    for name, s in named_sets.items():
        mask = 0
        for v in s.vertices:
            mask |= 1 << vertex_bit[v]
        for eid, items in s.intervals.items():
            start, marks = layout[eid]
            points = len(marks) - 2
            for lo, hi in items:
                i, k = bisect_left(marks, lo), bisect_left(marks, hi)
                first, last = max(i, 1), min(k, points)
                if first <= last:
                    mask |= ((1 << (last - first + 1)) - 1) << (start + first - 1)
                if i < k:
                    mask |= ((1 << (k - i)) - 1) << (start + points + i)
        masks[name] = mask
    return cells, masks


EXTRACTION_GRAPHS = (
    MetricGraph(["x", "y", "z"], [Edge("e1", "x", "y", F(1)), Edge("e2", "y", "z", F(3, 2))]),
    # a triangle and an isolated vertex
    MetricGraph(
        ["p", "q", "r", "w"],
        [Edge("a", "p", "q", F(1, 3)), Edge("b", "q", "r", F(2)), Edge("c", "p", "r", F(5, 4))],
    ),
    # a path with a branch and an isolated vertex: six edges, so whole and
    # uncut edges fall before, between and after the cut ones
    MetricGraph(
        ["v0", "v1", "v2", "v3", "v4", "w", "z"],
        [Edge("a", "v0", "v1", F(1)), Edge("b", "v1", "v2", F(1, 2)),
         Edge("c", "v2", "v3", F(3)), Edge("d", "v3", "v4", F(2, 3)),
         Edge("e", "v2", "w", F(5, 4)), Edge("f", "v4", "w", F(7, 5))],
    ),
)


@st.composite
def edge_sets(draw, graph, names):
    """Closed sets on `graph` under `names`, endpoints at eighths of an edge.
    A quarter of them are vertex-only; on each edge the others have nothing,
    the whole edge, up to three intervals or up to three points, each as
    often, so whole-edge, partial and point-only sets are all common."""
    eighths = st.integers(0, 8)
    sets = {}
    for name in names:
        intervals = {}
        if draw(st.integers(0, 3)):
            for eid, e in graph.edges.items():
                shape = draw(st.sampled_from(("none", "whole", "intervals", "points")))
                if shape == "whole":
                    intervals[eid] = [(0, e.length)]
                elif shape == "intervals":
                    pairs = draw(st.lists(st.tuples(eighths, eighths), min_size=1, max_size=3))
                    intervals[eid] = [(F(min(p), 8) * e.length, F(max(p), 8) * e.length)
                                      for p in pairs]
                elif shape == "points":
                    ts = draw(st.lists(eighths, min_size=1, max_size=3))
                    intervals[eid] = [(F(t, 8) * e.length,) * 2 for t in ts]
        verts = draw(st.sets(st.sampled_from(graph.vertices)))
        sets[name] = ClosedSet(graph, intervals, verts)
    return sets


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bisected_footprints_match_cell_membership(data):
    graph = data.draw(st.sampled_from(EXTRACTION_GRAPHS))
    sets = data.draw(edge_sets(graph, "stuv"[:data.draw(st.integers(1, 4))]))
    # the same set objects again among other companions: a split cached by
    # the first extraction must fit the second arrangement too
    kept = data.draw(st.sets(st.sampled_from(sorted(sets))))
    companions = data.draw(edge_sets(graph, "wx"[:data.draw(st.integers(0, 2))]))
    # several names for one set object, next to a fresh copy of that set:
    # the names share one footprint, which must be the copy's
    aliased = data.draw(st.sets(st.sampled_from(sorted(sets)), min_size=1))
    with_aliases = dict(sets)
    for n in aliased:
        with_aliases.update({n + "1": sets[n], n + "2": sets[n],
                        n + "c": ClosedSet(graph, sets[n].intervals, sets[n].vertices)})
    for family in (sets, {**{n: sets[n] for n in kept}, **companions}, with_aliases):
        res = extract_sublattice(graph, family)
        assert (res.cells, res.masks) == extract_by_bisection(graph, family)
        assert res.full == (1 << len(res.cells)) - 1
        for name, s in family.items():
            expected = sum(1 << i for i, cell in enumerate(res.cells) if _cell_in_set(cell, s))
            assert res.masks[name] == expected, name
    for n in aliased:
        assert res.masks[n] == res.masks[n + "1"] == res.masks[n + "2"] == res.masks[n + "c"]


def test_extraction_lays_out_only_the_cut_edges():
    # a long path: one set covers every edge whole, three others cut the
    # first, a middle and the last edge
    n = 500
    path = MetricGraph([f"v{i:03d}" for i in range(n + 1)],
                       [Edge(f"e{i:03d}", f"v{i:03d}", f"v{i + 1:03d}", F(1)) for i in range(n)])
    family = {
        "all": path.whole_set(),
        "first": ClosedSet(path, {"e000": [(0, F(1, 2))]}, ()),
        "middle": ClosedSet(path, {"e250": [(F(1, 3), F(1, 3))]}, ()),
        "last": ClosedSet(path, {"e499": [(F(1, 4), F(3, 4))]}, ["v500"]),
    }
    cells, layout = _arrangement(path, [s.split for s in family.values()])
    assert list(layout) == ["e000", "e250", "e499"]
    assert len(cells) == (n + 1) + n + 2 + 2 + 4
    res = extract_sublattice(path, family)
    assert res.cells == cells
    assert (res.cells, res.masks) == extract_by_bisection(path, family)
    assert res.masks["all"] == res.full


def _reloaded_w1_model():
    """The W1 fragment and its witnessed model, reloaded from its file."""
    frag, g, interp0 = surgery_rich_fragment()
    result = surgery.witness_fragment(frag, g, interp0)
    assert result.ok
    graph, sets = graph_from_dict(json.loads(dump_graph(result.graph, result.interpretation)))
    return frag, graph, sets


def test_w1_extractions_match_bisection(monkeypatch):
    # every extraction the witnessing makes (surgery checks, line checks, the
    # report) and every ground sentence decided on the reloaded model
    checked = []

    def checking(graph, named_sets, **kwargs):
        res = extract_sublattice(graph, named_sets, **kwargs)
        assert (res.cells, res.masks) == extract_by_bisection(graph, named_sets)
        checked.append(len(named_sets))
        return res

    monkeypatch.setattr(surgery, "extract_sublattice", checking)
    frag, graph, sets = _reloaded_w1_model()
    built = len(checked)
    for rec in frag:
        if is_ground(rec.formula):
            assert surgery.verify_on_sublattice(rec.formula, sets, graph)
    assert built and len(checked) > built


def test_deciding_w1_splits_each_set_once(split_builds):
    frag, graph, sets = _reloaded_w1_model()
    ground = [rec.formula for rec in frag if is_ground(rec.formula)]
    split_builds.clear()
    for _ in range(2):
        assert all(surgery.verify_on_sublattice(f, sets, graph) for f in ground)
    named = {id(sets[c]) for f in ground for c in constants_of(f)}
    assert sorted(map(id, split_builds)) == sorted(named)


def test_extract_closes_the_lattice_only_when_read(seg, closure_calls):
    s = ClosedSet(seg, {"seg": [(F(0), F(1, 2))]}, set())
    res = extract_sublattice(seg, {"s": s})
    assert res.decide(parse("s v 1 = 1 & s != 0", constants={"s"}))
    # conn(t) is decided on the masks too; any other quantifier raises
    assert res.decide(conn(Const("s")))
    with pytest.raises(UsageError):
        res.decide(parse("exists x. x != s", constants={"s"}))
    assert closure_calls == []
    assert closed_set_of(res, res.interpretation["s"]) == s
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


# ------------------------------------------------------- set algebra laws

from hypothesis import given, settings, strategies as st

_HYP_GRAPH = MetricGraph(
    ["a", "b", "c"],
    [Edge("e1", "a", "b", F(1)), Edge("e2", "b", "c", F(1)), Edge("e3", "a", "c", F(1))],
)


@st.composite
def closed_sets(draw, max_pieces=2):
    intervals = {}
    for eid in ("e1", "e2", "e3"):
        pieces = draw(st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=max_pieces,
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


def meet_by_nested_loop(s, t):
    """The reference for `ClosedSet.__and__`: every pair of intervals on a
    shared edge."""
    intervals = {}
    for eid in set(s.intervals) & set(t.intervals):
        out = []
        for lo1, hi1 in s.intervals[eid]:
            for lo2, hi2 in t.intervals[eid]:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo <= hi:
                    out.append((lo, hi))
        if out:
            intervals[eid] = out
    return ClosedSet(s.graph, intervals, s.vertices & t.vertices)


@settings(max_examples=150, deadline=None)
@given(closed_sets(max_pieces=6), closed_sets(max_pieces=6))
def test_closed_set_meet_walk_matches_nested_loop(s, t):
    meet, oracle = s & t, meet_by_nested_loop(s, t)
    assert meet == oracle
    assert (meet.vertices, meet.intervals) == (oracle.vertices, oracle.intervals)


@st.composite
def pl_functions(draw):
    """A PL function on `_HYP_GRAPH` with small integer values at vertices
    and breakpoints, so flat pieces and levels at vertices are common."""
    value = st.integers(-2, 2)
    at = {v: F(draw(value)) for v in _HYP_GRAPH.vertices}
    per_edge = {}
    for eid, e in _HYP_GRAPH.edges.items():
        xs = sorted(draw(st.sets(st.integers(1, 7), max_size=4)))
        inner = [(F(x, 8) * e.length, F(draw(value))) for x in xs]
        per_edge[eid] = [(F(0), at[e.u]), *inner, (e.length, at[e.v])]
    return PLFunction(_HYP_GRAPH, per_edge)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_level_set_matches_point_evaluation(data):
    f = data.draw(pl_functions())
    levels = sorted({y for bp in f.per_edge.values() for _, y in bp})
    level = data.draw(st.sampled_from(levels))
    sub, sup = f.sublevel_set(level), f.superlevel_set(level)
    ls = sub & sup
    probes = [("v", v) for v in _HYP_GRAPH.vertices]
    for eid, bp in f.per_edge.items():
        for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
            probes += [("e", eid, x0), ("e", eid, (x0 + x1) / 2)]
            if (y0 - level) * (y1 - level) < 0:
                probes.append(("e", eid, x0 + (x1 - x0) * (level - y0) / (y1 - y0)))
    for p in probes:
        assert ls.contains_point(p) == (f.eval(p) == level), p
        assert sub.contains_point(p) == (f.eval(p) <= level), p
        assert sup.contains_point(p) == (f.eval(p) >= level), p
    for eid, items in ls.intervals.items():
        for lo, hi in items:
            if lo < hi:
                # PL, so flat iff level at both ends and every breakpoint between
                assert f.eval(("e", eid, lo)) == f.eval(("e", eid, hi)) == level
                assert all(y == level for x, y in f.per_edge[eid] if lo < x < hi)


# ------------------------------------------------------------- pullbacks

def preimage_by_scan(m, t):
    """The pullback by a scan of every domain vertex and edge: the reference
    the fibre-indexed `PLMap.preimage_of` must equal."""
    intervals = {}
    verts = set()
    for v in m.domain.vertices:
        if t.contains_point(m.vertex_map[v]):
            verts.add(v)
    for eid, e in m.domain.edges.items():
        entry = m.edge_map[eid]
        if entry[0] == "const":
            if t.contains_point(entry[1]):
                intervals.setdefault(eid, []).append((F(0), e.length))
            continue
        _, target, s0, s1 = entry
        L = e.length
        lo_t, hi_t = min(s0, s1), max(s0, s1)
        for lo, hi in t.intervals.get(target, ()):
            lo2, hi2 = max(lo, lo_t), min(hi, hi_t)
            if lo2 > hi2:
                continue
            a = (lo2 - s0) * L / (s1 - s0)
            b = (hi2 - s0) * L / (s1 - s0)
            intervals.setdefault(eid, []).append((min(a, b), max(a, b)))
    return ClosedSet(m.domain, intervals, verts)


@st.composite
def pl_maps(draw):
    """A PL map from a random tree onto _HYP_GRAPH, grown one edge at a
    time from an existing vertex: the new edge is `const` at the image of
    that vertex or `affine` along a codomain edge through it to another
    twelfth, in either orientation, so vertices, constants and affine ends
    land on codomain vertices and inside codomain edges alike.  Up to two
    isolated vertices ride along, the only ones no incident edge's
    pullback brings in."""
    points = st.builds(
        _HYP_GRAPH.point, st.sampled_from(sorted(_HYP_GRAPH.edges)),
        st.integers(0, 12).map(lambda n: F(n, 12)),
    )
    vertex_map = {f"i{k}": draw(points) for k in range(draw(st.integers(0, 2)))}
    vertex_map["d0"] = draw(points)
    edges, edge_map = [], {}
    for k in range(1, draw(st.integers(1, 8)) + 1):
        parent = draw(st.sampled_from(sorted(v for v in vertex_map if v[0] == "d")))
        p = vertex_map[parent]
        if draw(st.booleans()):
            edge_map[f"f{k}"], q = ("const", p), p
        else:
            if p[0] == "v":
                target, end = draw(st.sampled_from(_HYP_GRAPH.adjacency[p[1]]))
                s0 = F(end)
            else:
                target, s0 = p[1], p[2]
            s1 = F(draw(st.integers(0, 12).filter(lambda n: F(n, 12) != s0)), 12)
            edge_map[f"f{k}"], q = ("affine", target, s0, s1), _HYP_GRAPH.point(target, s1)
        edges.append(Edge(f"f{k}", parent, f"d{k}", F(draw(st.integers(1, 4)), 2)))
        vertex_map[f"d{k}"] = q
    return PLMap(MetricGraph(vertex_map, edges), _HYP_GRAPH, vertex_map, edge_map)


def pullback_probes(m, extra=()):
    """Sets on the codomain of `m` to pull back: empty, whole, vertex-only,
    each image point of a domain vertex or `const` edge alone and all of
    them together, then `extra`."""
    g = m.codomain
    images = list(m.vertex_map.values())
    images += [entry[1] for entry in m.edge_map.values() if entry[0] == "const"]
    return [
        g.empty_set(), g.whole_set(), ClosedSet(g, {}, {"a", "c"}), g.point_closed_set(images),
        *(g.point_closed_set([p]) for p in images), *extra,
    ]


@settings(max_examples=150, deadline=None)
@given(pl_maps(), closed_sets(max_pieces=3), closed_sets(max_pieces=3))
def test_preimage_matches_full_scan(m, t, u):
    for s in pullback_probes(m, (t, u, t | u)):
        assert m.preimage_of(s) == preimage_by_scan(m, s), s


def test_preimage_over_each_kind_of_piece():
    # f1 const onto vertex a, f2 affine a -> e1@1/3, f3 const onto the
    # interior point e1@1/3, f4 affine on to b, f5 reversed along all of e1,
    # f6 affine a -> e3@2/3, whose end d6 lies inside a codomain edge
    g = _HYP_GRAPH
    third = ("e", "e1", F(1, 3))
    dom = MetricGraph(
        [f"d{k}" for k in range(7)],
        [Edge(f"f{k}", f"d{k - 1}", f"d{k}", F(k, 2)) for k in range(1, 7)],
    )
    m = PLMap(
        dom, g,
        {"d0": ("v", "a"), "d1": ("v", "a"), "d2": third, "d3": third,
         "d4": ("v", "b"), "d5": ("v", "a"), "d6": ("e", "e3", F(2, 3))},
        {"f1": ("const", ("v", "a")), "f2": ("affine", "e1", 0, F(1, 3)),
         "f3": ("const", third), "f4": ("affine", "e1", F(1, 3), 1),
         "f5": ("affine", "e1", 1, 0), "f6": ("affine", "e3", 0, F(2, 3))},
    )
    two = ClosedSet(g, {"e1": [(F(0), F(1, 4)), (F(1, 2), F(3, 4))], "e3": [(F(1, 2), F(1))]}, set())
    for s in pullback_probes(m, (two,)):
        assert m.preimage_of(s) == preimage_by_scan(m, s), s
    assert m.preimage_of(g.whole_set()) == dom.whole_set()
    # the point e1@1/3 pulls back to all of f3 and one point each of f2,
    # f4 (at its start) and the reversed f5
    back = m.preimage_of(g.point_closed_set([third]))
    assert back == ClosedSet(
        dom, {"f3": [(F(0), F(3, 2))], "f5": [(F(5, 3), F(5, 3))]}, {"d2", "d3"}
    )


def test_surgery_stage_pullback_matches_full_scan(monkeypatch):
    # every base set a surgery stage pulls back through its new bonding
    # equals the full scan: staircase and fibre bondings of the steered
    # tower and the surgery-rich fragment, and a bonding with two nudges
    # folded in
    pulled = []
    stage_fn = surgery.instance_stage

    def checking(prev, instance):
        stage = stage_fn(prev, instance)
        for cid, s in prev.base.items():
            if cid not in instance["witnesses"]:
                assert stage.base[cid] == preimage_by_scan(stage.bonding, s), cid
        pulled.append((stage.kind, len(stage.nudges), len(prev.base)))
        return stage

    monkeypatch.setattr(surgery, "instance_stage", checking)
    monkeypatch.setattr(tower, "instance_stage", checking)
    steered_crooked_tower(4)
    surgery.witness_fragment(*surgery_rich_fragment())
    surgery.witness_fragment(*nudged_triangle_fragment())
    kinds = [kind for kind, _, _ in pulled]
    assert kinds.count("triangle") >= 3 and kinds.count("crooked") >= 4
    assert any(nudges for _, nudges, _ in pulled)
    assert all(size for _, _, size in pulled)


# ------------------------------------------------------------- whole edges

def whole_by_points(s):
    """The edges `s` covers entirely, read from its intervals alone."""
    return {eid for eid, items in s.intervals.items()
            if items == ((0, s.graph.edges[eid].length),)}


@st.composite
def covering_specs(draw):
    """(intervals, vertices, whole ids) on `_HYP_GRAPH`: each edge is left
    out, named whole by id, covered by two pieces that meet, or given up to
    three pieces at twelfths, so whole edges are common either way."""
    twelfths = st.integers(0, 12).map(lambda n: F(n, 12))
    intervals, whole = {}, []
    for eid in sorted(_HYP_GRAPH.edges):
        shape = draw(st.sampled_from(("none", "id", "meeting", "pieces")))
        if shape == "id":
            whole.append(eid)
        elif shape == "meeting":
            cut = draw(twelfths)
            intervals[eid] = [(cut, F(1)), (F(0), cut)]
        elif shape == "pieces":
            pairs = draw(st.lists(st.tuples(twelfths, twelfths), min_size=1, max_size=3))
            intervals[eid] = [(min(p), max(p)) for p in pairs]
    return intervals, draw(st.sets(st.sampled_from(_HYP_GRAPH.vertices))), whole


def covering_set(spec, by_id=True):
    """The set of a `covering_specs` spec, its whole edges passed by id or
    as the interval (0, L)."""
    intervals, verts, whole = spec
    if by_id:
        return ClosedSet(_HYP_GRAPH, intervals, verts, whole)
    full = {eid: [(F(0), _HYP_GRAPH.edges[eid].length)] for eid in whole}
    return ClosedSet(_HYP_GRAPH, {**intervals, **full}, verts)


@settings(max_examples=150, deadline=None)
@given(covering_specs(), covering_specs(), pl_maps(), st.data())
def test_whole_is_the_edges_covered_entirely(spec_s, spec_t, m, data):
    s, t = covering_set(spec_s), covering_set(spec_t)
    for spec, x in ((spec_s, s), (spec_t, t)):
        y = covering_set(spec, by_id=False)
        assert x == y and hash(x) == hash(y)
        assert x.whole == y.whole
    f = data.draw(pl_functions())
    level = data.draw(st.sampled_from(sorted({y for bp in f.per_edge.values() for _, y in bp})))
    g = _HYP_GRAPH
    pulled = m.preimage_of(s)
    produced = [
        s, t, s & t, s | t, g.whole_set(), g.empty_set(), *g.components_of(s | t),
        f.sublevel_set(level), f.superlevel_set(level),
        f.sublevel_set(level) & f.superlevel_set(level),
        ClosedSet.from_dict(g, s.to_dict()), pulled, m.preimage_of(t & s),
        *m.domain.components_of(pulled), m.image_of(pulled), m.image_of(m.domain.whole_set()),
    ]
    for x in produced:
        assert x.whole == whole_by_points(x), x
    # the oracles read intervals and vertices only, never `whole`
    assert s & t == meet_by_nested_loop(s, t)
    # image_of is the lower adjoint of preimage_of, whose oracle is the scan
    assert m.image_of(pulled).is_subset_of(s)
    for x in (pulled, m.domain.whole_set()):
        assert x.is_subset_of(preimage_by_scan(m, m.image_of(x))), x
    for x in (s, t, s | t, s & t):
        assert m.preimage_of(x) == preimage_by_scan(m, x), x


def test_whole_rejects_an_unknown_edge(seg):
    with pytest.raises(InputError, match="nope"):
        ClosedSet(seg, {}, set(), whole=["nope"])
    s = ClosedSet(seg, {}, set(), whole=["seg"])
    assert s == seg.whole_set() and s.vertices == {"a", "b"}


def test_load_reads_every_spelling_of_a_rational():
    g, sets = graph_from_dict({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e1", "u": "a", "v": "b", "len": "2/2"},
                  {"id": "e2", "u": "b", "v": "c", "len": 2}],
        "closed_sets": {
            "unreduced": {"e1": [["0/3", "2/4"]], "e2": [["3/3", "4/2"]]},
            "integers": {"e1": [[0, 1]], "e2": [[1, 1]]},
            "overlapping": {"e1": [["0", "1/2"], ["1/4", "1"]]},
            **{f"shared{k}": {"e1": [["1/3", "1/3"]], "e2": [["1/3", "2"]]} for k in range(4)},
        },
    })
    assert (g.edges["e1"].length, g.edges["e2"].length) == (1, 2)
    half, third = F(1, 2), F(1, 3)
    expected = {
        "unreduced": ClosedSet(g, {"e1": [(F(0), half)], "e2": [(F(1), F(2))]}, set()),
        "integers": ClosedSet(g, {"e2": [(F(1), F(1))]}, set(), whole=["e1"]),
        "overlapping": ClosedSet(g, {"e1": [(F(0), F(1))]}, set()),
        **{f"shared{k}": ClosedSet(g, {"e1": [(third, third)], "e2": [(third, F(2))]}, set())
           for k in range(4)},
    }
    assert sets == expected
    for name, s in sets.items():
        assert s.whole == whole_by_points(s) == expected[name].whole, name
    assert sets["integers"].whole == sets["overlapping"].whole == {"e1"}
    assert sets["unreduced"].vertices == {"a", "c"}


def test_a_rational_too_long_to_write_back_is_refused(monkeypatch):
    # Fraction computes 10**exponent before any check of its own, so an
    # exponent of five digits or more must be refused before parsing
    parsed = []

    class Spy(F):
        def __new__(cls, value):
            parsed.append(value)
            return super().__new__(cls, value)

    monkeypatch.setattr(metric_graph, "Frac", Spy)
    for spelling in ("1e10000", "1E-0_10000", "0e+10000"):
        with pytest.raises(InputError, match=re.escape(repr(spelling))):
            frac(spelling)
    assert parsed == []
    # parsed, but a numerator or denominator of 4301 digits
    for spelling in ("1e4300", "1e-4300", "0." + "0" * 4299 + "1"):
        with pytest.raises(InputError, match="at most 4300 digits"):
            frac(spelling)
    assert frac("1e4299") == 10**4299 and frac("1e-04_299") == F(1, 10**4299)
    assert frac("0." + "0" * 4298 + "1") == F(1, 10**4299)


@pytest.mark.parametrize("entry", [
    [["0", "1/2"]], [[0, "1/2"]], [["0/1", "2/4"]], [["0/1", "1/4"], ["1/4", "1/2"]],
], ids=["zero-string", "zero-int", "unreduced-length", "two-pieces"])
def test_load_reads_any_spelling_of_a_whole_edge(entry):
    g, sets = graph_from_dict({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b", "len": "1/2"}],
        "closed_sets": {"s": {"e": entry, "vertices": []}},
    })
    assert sets["s"] == g.whole_set() and sets["s"].whole == {"e"}
    # every set covering the edge whole hands out the one file entry
    assert sets["s"].to_dict()["e"] == [["0/1", "1/2"]]
    assert sets["s"].to_dict()["e"] is g.whole_set().to_dict()["e"]


@pytest.mark.parametrize("entry", [
    {"0/1": "1/2"}, {"0/1": 0, "1/2": 1}, [["0/1", "1/2", "1/2"]], [["0/1"]], ["0/1", "1/2"],
    [["0/1", "1/2"], "x"],
], ids=["dict", "dict-of-endpoints", "triple", "single", "flat", "trailing-junk"])
def test_load_rejects_a_whole_entry_of_another_shape(entry):
    with pytest.raises(InputError, match="must be \\[lo, hi\\] pairs"):
        graph_from_dict({
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "u": "a", "v": "b", "len": "1/2"}],
            "closed_sets": {"s": {"e": entry}},
        })


def _segment_file(closed_sets_text: str) -> dict:
    """A one-edge graph file whose closed sets are the given JSON text, each
    entry decoded to an object of its own as `json.loads` does."""
    return json.loads(
        '{"vertices": ["a", "b"], "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1/1"}], '
        f'"closed_sets": {closed_sets_text}}}'
    )


@pytest.mark.parametrize("entry, message", [
    ("3", "a closed set must be an object, not 3"),
    ('{"vertices": 3}', "closed-set vertices must be a list of strings: 3"),
    ('{"vertices": [3]}', "closed-set vertices must be a list of strings: [3]"),
    ('{"seg": "01", "vertices": ["a"]}', "intervals on edge 'seg' must be [lo, hi] pairs: '01'"),
], ids=["non-object", "vertices-not-a-list", "non-string-vertex", "seg-a-string"])
def test_load_rejects_a_bad_entry_alike_under_one_or_two_names(entry, message):
    # the bucket an entry is interned in is read off the entry before
    # `ClosedSet.from_dict` has checked it, and must not fail first
    for text in (f'{{"s": {entry}}}', f'{{"s": {entry}, "t": {entry}}}'):
        with pytest.raises(InputError) as info:
            graph_from_dict(_segment_file(text))
        assert str(info.value) == message


def test_reload_loads_one_set_per_distinct_entry(monkeypatch):
    frag, g, interp0 = surgery_rich_fragment()
    result = surgery.witness_fragment(frag, g, interp0)
    data = json.loads(dump_graph(result.graph, result.interpretation))
    loaded = []
    from_dict = ClosedSet.from_dict

    def counting(graph, spec, *args):
        loaded.append(spec)
        return from_dict(graph, spec, *args)

    monkeypatch.setattr(ClosedSet, "from_dict", staticmethod(counting))
    graph, sets = graph_from_dict(data)
    names_by_entry: dict[str, list[str]] = {}
    for name, spec in data["closed_sets"].items():
        names_by_entry.setdefault(json.dumps(spec, sort_keys=True), []).append(name)
    assert len(names_by_entry) < len(sets)
    assert len(loaded) == len(names_by_entry)
    assert len({id(s) for s in sets.values()}) == len(set(sets.values())) == len(names_by_entry)
    # names with equal entries share one object, and unequal entries stay
    # separate objects
    objects = [{id(sets[name]) for name in names} for names in names_by_entry.values()]
    assert all(len(ids) == 1 for ids in objects)
    assert len(set.union(*objects)) == len(names_by_entry)
    for name, s in sets.items():
        assert s.to_dict() == data["closed_sets"][name]


def test_load_keeps_entries_of_one_bucket_apart():
    # same length and vertex count, other intervals
    graph, sets = graph_from_dict(_segment_file(
        '{"s": {"seg": [["1/4", "1/2"]], "vertices": []},'
        ' "t": {"seg": [["1/4", "3/4"]], "vertices": []},'
        ' "u": {"seg": [["1/4", "1/2"]], "vertices": []}}'
    ))
    assert sets["s"] is sets["u"]
    assert sets["s"] != sets["t"]
    assert sets["t"].intervals == {"seg": ((F(1, 4), F(3, 4)),)}


def test_a_set_hashes_once(seg, monkeypatch):
    fraction_hash = F.__hash__
    hashed = []

    def counting(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counting)
    s = ClosedSet(seg, {"seg": [(F(1, 4), F(1, 2))]}, ())
    h = hash(s)
    assert hashed
    hashed.clear()
    assert hash(s) == h
    assert hashed == []
    # two equal sets built apart hash alike
    t = ClosedSet(seg, {"seg": [(F(2, 8), F(1, 2))]}, ())
    assert t is not s and hash(t) == h


def test_dump_graph_renders_a_set_bound_to_two_names_as_the_stdlib_does(seg):
    s = ClosedSet(seg, {"seg": [(F(1, 4), F(1, 2))]}, ["a"])
    sets = {"s": s, "t": s, "w": seg.whole_set()}
    payload = graph_to_dict(seg, sets)
    assert payload["closed_sets"]["s"] is payload["closed_sets"]["t"]
    assert dump_graph(seg, sets) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(',:[]{}"\\\n\t\x00\x7f')))
_JSON_SCALARS = st.one_of(
    _JSON_TEXT, st.integers(), st.integers(-2 ** 200, 2 ** 200), st.booleans(), st.none(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
_JSON_TREES = st.recursive(_JSON_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_JSON_TEXT, kids, max_size=4), st.dictionaries(st.integers(), kids, max_size=3),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES, st.lists(_JSON_TREES, max_size=3))
def test_dump_json_is_the_stdlib_indented_text(tree, items):
    shared = [*items, "shared"]
    entry = {"items": items, "name": "shared"}
    # one list and one dict, each at depths 1, 2 (twice) and 3, as whole-edge
    # entries and sets bound to several names recur
    nested = [
        shared, entry, {"a": shared, "b": [shared], "c": entry, "d": [entry]}, (shared, entry),
    ]
    for obj in (tree, nested):
        assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [
    F(1, 2), {"a": [1, F(1, 2)]}, {(1, 2): 0}, [{1, 2}], {"a": 0, 1: 0},
], ids=["fraction", "nested-fraction", "tuple-key", "set", "mixed-keys"])
def test_dump_json_rejects_what_json_cannot_encode(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dump_json(obj)
