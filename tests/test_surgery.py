import dataclasses
import hashlib
import json
import re
from fractions import Fraction as F

import pytest

from crooked.errors import (
    DegeneracyError, EvaluationError, InputError, InvariantViolationError, PreconditionError, UsageError,
)
from crooked.folang import And, Const, Eq, Meet, Var, Zero, conn, eval_formula, psi, zeta
from crooked import surgery, tower
from crooked.lattice import generate_sublattice
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, PLMap, dump_graph, dump_json, extract_sublattice,
    kappa_map, unit_segment,
)
from crooked.sigma import SentenceRecord, SigmaGenerator, fragment
from crooked.surgery import (
    CrookedStep, TriangleStep, base_interpretation, check_monotone, crooked_step,
    disjunctivity_point, eval_ground_geometric, lift_connected, normal_cocover, nudge_edge_length,
    stretch_map, triangle_step, verify_on_sublattice, witness_fragment,
)
from test_tower import STAIRCASE_QUAD, UNCHANGED_MODES, staircase_base


def seg():
    return unit_segment()


def y_graph():
    return MetricGraph(
        ["c", "ta", "tb", "tc"],
        [Edge("la", "c", "ta", F(1)), Edge("lb", "c", "tb", F(1)), Edge("lc", "c", "tc", F(1))],
    )


def zeta_ground():
    return zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))


def psi_ground():
    return psi(*(Const(k) for k in ("a", "b", "c", "d", "x", "y", "z")))


# ------------------------------------------------------------- triangle

def test_triangle_no_locus_reinterprets_in_place():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = g.point_closed_set([("e", "seg", F(1, 2))])
    step = triangle_step(g, a, b, c)
    assert step.output_graph is g
    assert step.locus == []
    assert step.witnesses["x"].intervals["seg"] == ((F(0), F(1, 4)),)
    assert step.witnesses["y"].intervals["seg"] == ((F(3, 4), F(1)),)
    assert step.witnesses["z"].intervals["seg"] == ((F(1, 4), F(3, 4)),)
    assert step.bonding.preimage_of(a) == a


def test_triangle_inserts_fiber_on_y_graph():
    g = y_graph()
    a = g.point_closed_set([("v", "ta")])
    b = g.point_closed_set([("v", "tb")])
    c = g.point_closed_set([("v", "tc")])
    step = triangle_step(g, a, b, c)
    out = step.output_graph
    assert step.locus == [("v", "c")]
    assert len(out.edges) == 9  # three legs plus a six-edge circle
    assert len(out.vertices) == 9
    assert step.bonding.is_surjective()
    assert check_monotone(step)
    # the leg toward each tip closes up at the matching side midpoint
    assert out.edges["la"].v == "ta" and out.edges["la"].u == "fib0.mA"
    assert out.edges["lb"].u == "fib0.mB"
    assert out.edges["lc"].u == "fib0.mC"
    # independent check of the dimension schema
    sets = {
        "a": step.bonding.preimage_of(a),
        "b": step.bonding.preimage_of(b),
        "c": step.bonding.preimage_of(c),
        "x": step.witnesses["x"],
        "y": step.witnesses["y"],
        "z": step.witnesses["z"],
    }
    assert verify_on_sublattice(zeta_ground(), sets, out)
    assert ((sets["x"] & sets["y"]) & sets["z"]).is_empty()


def surgery_stage(monkeypatch, kind, base, override):
    """One `instance_stage` surgery on the names of `base` in sorted order as
    operands, with the step's witnesses updated by `override(step)`."""
    real = surgery.surgery_with_nudges

    def overridden(*args):
        step, bonding, nudged = real(*args)
        return dataclasses.replace(step, witnesses={**step.witnesses, **override(step)}), bonding, nudged

    monkeypatch.setattr(surgery, "surgery_with_nudges", overridden)
    prev = surgery.Stage(next(iter(base.values())).graph, None, dict(base), "base")
    instance = {"kind": kind, "operands": sorted(base), "witnesses": ["x0", "y0", "z0"]}
    return surgery.instance_stage(prev, instance)


@pytest.mark.parametrize("fault", ["input uncovered", "common point", "space uncovered"])
def test_triangle_postcondition_rejects_a_bad_witness(monkeypatch, fault):
    g = y_graph()
    a, b, c = (g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc"))
    bad = {
        "input uncovered": lambda step: {"x": step.output_graph.empty_set()},
        "common point": lambda step: {"x": step.output_graph.whole_set()},
        "space uncovered": lambda step: {"z": step.bonding.preimage_of(c)},
    }[fault]
    with pytest.raises(InvariantViolationError, match="triangle surgery failed"):
        surgery_stage(monkeypatch, "zeta", {"A": a, "B": b, "C": c}, bad)


def test_triangle_preserves_prior_sentences():
    g = y_graph()
    a = g.point_closed_set([("v", "ta")])
    b = g.point_closed_set([("v", "tb")])
    c = g.point_closed_set([("v", "tc")])
    interp = {"A": a, "B": b, "C": c, "AB": a | b}
    from crooked.folang import And, Eq, Join, Meet, Zero
    prior = [
        Eq(Meet(Const("A"), Const("B")), Zero()),
        Eq(Join(Const("A"), Const("B")), Const("AB")),
    ]
    for f in prior:
        assert eval_ground_geometric(f, interp, g)
    step = triangle_step(g, a, b, c)
    lifted = {cid: step.bonding.preimage_of(s) for cid, s in interp.items()}
    for f in prior:
        assert eval_ground_geometric(f, lifted, step.output_graph)
        assert verify_on_sublattice(f, lifted, step.output_graph)


def test_triangle_two_fibers_on_barbell():
    # symmetric barbell: both junction vertices are barycenter points
    g = MetricGraph(
        ["u", "v", "ta", "tb", "tc", "td"],
        [
            Edge("m", "u", "v", F(2)),
            Edge("la", "u", "ta", F(1)),
            Edge("lb", "u", "tb", F(1)),
            Edge("lc", "v", "tc", F(1)),
            Edge("ld", "v", "td", F(1)),
        ],
    )
    a = g.point_closed_set([("v", "ta"), ("v", "tc")])
    b = g.point_closed_set([("v", "tb"), ("v", "td")])
    c = g.point_closed_set([("e", "m", F(1))])
    step = triangle_step(g, a, b, c)
    assert step.locus == [("v", "u"), ("v", "v")]
    assert len(step.output_graph.meta["fibers"]) == 2
    assert step.bonding.is_surjective()
    assert check_monotone(step)
    sets = {
        "a": step.bonding.preimage_of(a),
        "b": step.bonding.preimage_of(b),
        "c": step.bonding.preimage_of(c),
        "x": step.witnesses["x"],
        "y": step.witnesses["y"],
        "z": step.witnesses["z"],
    }
    assert verify_on_sublattice(zeta_ground(), sets, step.output_graph)


def fib0_instance():
    """A Y graph that already carries a fiber-style edge name, `fib0.A0`, as
    an earlier step would leave, with its three tips as operands."""
    g = MetricGraph(
        ["c", "ta", "tb", "tc", "u", "w"],
        [
            Edge("la", "c", "ta", F(1)),
            Edge("lb", "c", "tb", F(1)),
            Edge("lc", "c", "tc", F(1)),
            Edge("fib0.A0", "ta", "u", F(1)),
            Edge("x1", "u", "w", F(1)),
        ],
    )
    return (g, *(g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc")))


def test_triangle_fiber_ids_skip_existing():
    # a graph that already carries fiber-style names (from an earlier step)
    # must get fresh fiber indices, not duplicates
    step = triangle_step(*fib0_instance())
    assert step.locus == [("v", "c")]
    out = step.output_graph
    assert "fib0.A0" in out.edges  # the pre-existing edge is untouched
    assert any(eid.startswith("fib1.") for eid in out.edges)
    assert check_monotone(step)


def non_monotone_step(flaw: str) -> TriangleStep:
    """A bonding onto the unit segment with one flaw that `check_monotone`
    must refuse, each caught by a different test of a fiber."""
    g = seg()
    if flaw == "fold":
        # out and back: two points over every regular point
        out = MetricGraph(["p", "m", "q"], [Edge("out", "p", "m", F(1)), Edge("back", "m", "q", F(1))])
        bonding = PLMap(
            out, g, {"p": ("v", "a"), "m": ("v", "b"), "q": ("v", "a")},
            {"out": ("affine", "seg", 0, 1), "back": ("affine", "seg", 1, 0)},
        )
        return TriangleStep(out, bonding, {}, [])
    if flaw == "point-over-locus":
        # a claimed blown-up point whose fiber is still one point
        return TriangleStep(g, PLMap.identity(g), {}, [("e", "seg", F(1, 2))])
    # a whistle: an edge crushed onto the regular midpoint
    mid = ("e", "seg", F(1, 2))
    out = MetricGraph(
        ["a", "m", "b", "t"],
        [Edge("l", "a", "m", F(1, 2)), Edge("r", "m", "b", F(1, 2)), Edge("h", "m", "t", F(1))],
    )
    bonding = PLMap(
        out, g, {"a": ("v", "a"), "m": mid, "b": ("v", "b"), "t": mid},
        {"l": ("affine", "seg", 0, F(1, 2)), "r": ("affine", "seg", F(1, 2), 1), "h": ("const", mid)},
    )
    return TriangleStep(out, bonding, {}, [])


@pytest.mark.parametrize("flaw", ["fold", "point-over-locus", "const-over-regular"])
def test_check_monotone_refuses_a_bad_fiber(flaw):
    assert check_monotone(non_monotone_step(flaw)) is False


def test_triangle_requires_nonempty_inputs():
    g = seg()
    with pytest.raises(PreconditionError):
        triangle_step(g, g.empty_set(), g.whole_set(), g.whole_set())


@pytest.mark.parametrize("case", ["a empty", "b empty", "c empty", "triple meet"])
def test_triangle_premises_raise(case):
    g = y_graph()
    ops = [g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc")]
    if case == "triple meet":
        ops = [s | g.point_closed_set([("v", "c")]) for s in ops]
    else:
        ops["abc".index(case[0])] = g.empty_set()
    with pytest.raises(PreconditionError):
        triangle_step(g, *ops)


def triangle_transport_oracle(step, regions):
    """The triangle witnesses as the step once built them by hand: each
    kappa min-region cut into the segments the bonding's `affine` entries
    name, less the locus (an isolated point at a cut is the removed
    barycenter point), joined with the witness's arc of every new fiber,
    the bonding's `const` edges."""
    out, bonding = step.output_graph, step.bonding
    segments = {}
    for seg_id, entry in sorted(bonding.edge_map.items()):
        if entry[0] == "affine":
            _, eid, lo, hi = entry
            segments.setdefault(eid, []).append((seg_id, lo, hi))
    locus_vertices = {p[1] for p in step.locus if p[0] == "v"}
    cuts = {p[1:] for p in step.locus if p[0] == "e"}
    fibers = [eid for eid, entry in bonding.edge_map.items() if entry[0] == "const"]
    witnesses = {}
    for name, region, letter in zip("xyz", regions, "ABC"):
        intervals = {}
        for eid, items in region.intervals.items():
            for seg_id, lo, hi in segments[eid]:
                for slo, shi in items:
                    plo, phi = max(slo, lo), min(shi, hi)
                    if plo > phi or (plo == phi and (eid, plo) in cuts):
                        continue
                    intervals.setdefault(seg_id, []).append((plo - lo, phi - lo))
        arcs = {eid: [(F(0), F(1, 6))] for eid in fibers if eid.rsplit(".", 1)[1][0] == letter}
        witnesses[name] = ClosedSet(out, intervals, region.vertices - locus_vertices) | ClosedSet(
            out, arcs, ())
    return witnesses


@pytest.fixture
def caught_triangles(monkeypatch):
    """Every triangle step that completes while the test runs, with its
    operands, however the library reaches it."""
    caught, real = [], surgery.triangle_step

    def catching(graph, a, b, c):
        step = real(graph, a, b, c)
        caught.append((graph, a, b, c, step))
        return step

    monkeypatch.setattr(surgery, "triangle_step", catching)
    return caught


def random_triangle_batch(seed=0x7A1, count=240):
    """Dimension instances on small graphs, each operand one or two points
    or short intervals at eighths of an edge, triple meet empty."""
    import random

    cycle = MetricGraph(
        ["A", "B", "C"],
        [Edge("ab", "A", "B", F(1)), Edge("bc", "B", "C", F(1)), Edge("ca", "C", "A", F(1))],
    )
    theta = MetricGraph(
        ["p", "q"], [Edge("e1", "p", "q", F(1)), Edge("e2", "p", "q", F(3, 2)), Edge("e3", "p", "q", F(2))]
    )
    graphs = [seg(), y_graph(), cycle, theta]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.choice(graphs)

        def piece():
            eid = rng.choice(sorted(g.edges))
            L = g.edges[eid].length
            k = rng.randrange(9)
            if rng.random() < 0.2:
                return g.point_closed_set([("v", rng.choice(sorted(g.vertices)))])
            if rng.random() < 0.6:
                return g.point_closed_set([g.normalize_point(("e", eid, L * k / 8))])
            lo = L * min(k, 7) / 8
            return ClosedSet(g, {eid: [(lo, lo + L / 8)]}, ())

        ops = [piece() if rng.random() < 0.5 else piece() | piece() for _ in range(3)]
        if ((ops[0] & ops[1]) & ops[2]).is_empty():
            out.append((g, *ops))
    return out


@pytest.mark.parametrize("source", ["acceptance", "fib0", "fragment", "random"])
def test_triangle_witnesses_match_the_transport_oracle(caught_triangles, source):
    from test_acceptance import triangle_instances

    if source == "fragment":
        assert witness_fragment(*surgery_rich_fragment()).ok
        assert len(caught_triangles) == 2
    else:
        instances = {
            "acceptance": triangle_instances, "fib0": lambda: [fib0_instance()],
            "random": random_triangle_batch,
        }[source]()
        for g, a, b, c in instances:
            try:
                surgery.surgery_with_nudges("zeta", g, [a, b, c])
            except DegeneracyError:
                pass  # still degenerate after the last nudge
    # fibers over vertices ("v") and over edge interiors ("e") are compared
    kinds = {p[0] for *_, step in caught_triangles for p in step.locus}
    assert kinds == {"fib0": {"v"}, "fragment": {"e"}}.get(source, {"v", "e"})
    for g, a, b, c, step in caught_triangles:
        expected = triangle_transport_oracle(step, kappa_map(g, a, b, c).min_regions)
        for name in "xyz":
            got, want = step.witnesses[name], expected[name]
            assert (got.vertices, got.intervals, got.whole) == (
                want.vertices, want.intervals, want.whole), (source, name)


def test_triangle_degenerate_locus_reports_edge():
    # three unit legs at a hub plus a long tail: all three distances grow in
    # lockstep along the tail, so the barycenter locus contains the tail
    g = MetricGraph(
        ["u", "w1", "w2", "w3", "v"],
        [
            Edge("k1", "u", "w1", F(1)),
            Edge("k2", "u", "w2", F(1)),
            Edge("k3", "u", "w3", F(1)),
            Edge("tail", "u", "v", F(5)),
        ],
    )
    a = g.point_closed_set([("v", "w1")])
    b = g.point_closed_set([("v", "w2")])
    c = g.point_closed_set([("v", "w3")])
    with pytest.raises(DegeneracyError) as exc:
        triangle_step(g, a, b, c)
    assert exc.value.edge_id == "tail"
    # the documented denominator-doubling nudge on a symmetry-breaking edge
    g2 = nudge_edge_length(g, "k1")
    assert g2.edges["k1"].length == F(3, 2)
    a2 = g2.point_closed_set([("v", "w1")])
    b2 = g2.point_closed_set([("v", "w2")])
    c2 = g2.point_closed_set([("v", "w3")])
    step = triangle_step(g2, a2, b2, c2)
    assert len(step.locus) == 1
    assert check_monotone(step)


# ------------------------------------------------------------- crooked

def crooked_identity_instance():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    d = ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set())
    return g, a, b, c, d


@pytest.mark.parametrize("fault", ["x meets z", "y empty", "z empty"])
def test_crooked_postcondition_rejects_a_bad_witness(monkeypatch, fault):
    g, a, b, c, d = crooked_identity_instance()
    bad = {
        "x meets z": lambda step: {"x": step.output_graph.whole_set()},
        "y empty": lambda step: {"y": step.output_graph.empty_set()},
        "z empty": lambda step: {"z": step.output_graph.empty_set()},
    }[fault]
    with pytest.raises(InvariantViolationError, match="crooked surgery failed"):
        surgery_stage(monkeypatch, "theta", {"A": a, "B": b, "C": c, "D": d}, bad)


def test_crooked_postcondition_rejects_a_vacuous_pullback(monkeypatch):
    # a pullback that sends b onto the whole space breaks the premise a#b on
    # the new stage, so the implication would hold vacuously; the step
    # decides the conclusion and still rejects it
    g, a, b, c, d = crooked_identity_instance()
    real = PLMap.preimage_of
    monkeypatch.setattr(
        PLMap, "preimage_of", lambda self, s: self.domain.whole_set() if s is b else real(self, s)
    )
    with pytest.raises(InvariantViolationError, match="crooked surgery failed"):
        surgery_stage(monkeypatch, "theta", {"A": a, "B": b, "C": c, "D": d}, lambda step: {})


def test_crooked_identity_reproduces_staircase():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    # the separating function on this instance is the identity
    assert step.separating.per_edge["seg"] == ((F(0), F(0)), (F(1), F(1)))
    out = step.output_graph
    assert step.component_count == 1
    assert len(out.edges) == 5  # five maximal segments
    degs = sorted(len(out.adjacency[v]) for v in out.vertices)
    assert degs.count(1) == 2 and set(degs) <= {1, 2}  # an arc
    assert step.bonding.is_surjective()


def test_crooked_bonding_is_the_projection_restricted(monkeypatch):
    projections = []
    restrict = PLMap.restrict

    def spy(self, sub):
        projections.append(self)
        return restrict(self, sub)

    monkeypatch.setattr(PLMap, "restrict", spy)
    # a separating function with a valley back below 2/3 threads a
    # staircase of two components
    g = seg()
    valley = PLFunction(g, {"seg": [(F(0), F(0)), (F(1, 4), F(1)), (F(3, 8), F(2, 5)),
                                    (F(1, 2), F(1)), (F(1), F(1))]})
    monkeypatch.setattr(surgery, "urysohn", lambda *args, **kwargs: valley)
    none = g.empty_set()
    step = crooked_step(g, g.point_closed_set([("v", "a")]), g.point_closed_set([("v", "b")]),
                        none, none)
    (projection,) = projections
    out = step.output_graph
    assert projection.domain is step.staircase_graph and step.component_count == 2
    assert len(out.edges) < len(projection.domain.edges)
    # the restriction keeps the entries a map checked through __init__ has
    checked = PLMap(out, g, {v: projection.vertex_map[v] for v in out.vertices},
                    {eid: projection.edge_map[eid] for eid in out.edges})
    assert (step.bonding.domain, step.bonding.codomain) == (out, g)
    assert step.bonding.vertex_map == checked.vertex_map
    assert step.bonding.edge_map == checked.edge_map
    # a graph that is not a subgraph of the domain: other vertices, or an
    # edge of the domain's at another length
    with pytest.raises(UsageError):
        projection.restrict(g)
    first = min(out.edges)
    stretched = MetricGraph(out.vertices, [
        Edge(e.eid, e.u, e.v, 2 * e.length if e.eid == first else e.length) for e in out.edges.values()
    ])
    with pytest.raises(UsageError):
        projection.restrict(stretched)


def test_then_maps_as_image_point_on_a_nudge_chain():
    # the nudged fragment's chain as `nudge_chain_reference` composes it: two
    # stretches, then a triangle step whose fibre circles map by `const`
    _, g, interp0 = nudged_triangle_fragment()
    g1 = nudge_edge_length(g, "tail")
    g2 = nudge_edge_length(g1, "k1")
    s1, s2 = stretch_map(g1, g), stretch_map(g2, g1)
    step = triangle_step(g2, *(s2.preimage_of(s1.preimage_of(interp0[n])) for n in "ABC"))
    renorm = s2.then(s1)
    assert any(entry[0] == "const" for entry in step.bonding.edge_map.values())
    for f, h in ((s2, s1), (step.bonding, s2), (step.bonding, renorm)):
        composed = f.then(h)
        points = [("v", v) for v in f.domain.vertices] + [
            ("e", eid, f.domain.edges[eid].length / 2)
            for eid, entry in f.edge_map.items() if entry[0] == "const"
        ]
        for p in points:
            assert composed.image_point(p) == h.image_point(f.image_point(p))


def test_crooked_membership_fiber_over_zero_level():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    # points with separating value 0 lift only to the first vertical level
    lifted_a = step.bonding.preimage_of(a)
    assert len(lifted_a.vertices) == 1
    (v,) = lifted_a.vertices
    assert v.startswith("t14|")
    assert not lifted_a.intervals


def test_crooked_witnesses_satisfy_psi():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    out = step.output_graph
    sets = {
        "a": step.bonding.preimage_of(a),
        "b": step.bonding.preimage_of(b),
        "c": step.bonding.preimage_of(c),
        "d": step.bonding.preimage_of(d),
        "x": step.witnesses["x"],
        "y": step.witnesses["y"],
        "z": step.witnesses["z"],
    }
    assert verify_on_sublattice(psi_ground(), sets, out)
    # a's lift sits inside x and misses y and z
    assert sets["a"].is_subset_of(sets["x"])
    assert (sets["a"] & (sets["y"] | sets["z"])).is_empty()


def test_crooked_t_band_witnesses_fail_psi():
    # The staircase bands cut by the new coordinate hit the pinned sets in
    # the double intersections; this pins the choice of value-cut witnesses.
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    out = step.output_graph
    t_of_prefix = {"t14": F(1, 4), "t12": F(1, 2), "t34": F(3, 4)}

    def t_band(lo, hi):
        intervals = {}
        verts = set()
        for eid, e in out.edges.items():
            prefix = eid.split("|", 1)[0]
            if prefix in t_of_prefix:
                t = t_of_prefix[prefix]
                if lo <= t <= hi:
                    intervals[eid] = [(F(0), e.length)]
                    verts.update((e.u, e.v))
            else:  # horizontal edge: parameter runs over the new coordinate
                t0 = F(1, 4) if prefix == "h23" else F(1, 2)
                seg_lo, seg_hi = max(lo - t0, F(0)), min(hi - t0, F(1, 4))
                if seg_lo <= seg_hi:
                    intervals[eid] = [(seg_lo, seg_hi)]
        return ClosedSet(out, intervals, verts)

    bands = {
        "x": t_band(F(0), F(3, 8)),
        "y": t_band(F(3, 8), F(5, 8)),
        "z": t_band(F(5, 8), F(1)),
    }
    sets = {
        "a": step.bonding.preimage_of(a),
        "b": step.bonding.preimage_of(b),
        "c": step.bonding.preimage_of(c),
        "d": step.bonding.preimage_of(d),
        **bands,
    }
    assert not verify_on_sublattice(psi_ground(), sets, out)
    assert not ((bands["x"] & bands["y"]) & sets["d"]).is_empty()


def test_crooked_unique_onto_component_among_many(monkeypatch):
    # A valley dipping from above 2/3 to 2/5 and back creates an isolated
    # low+mid cycle in the staircase with no contact with the 1/3 level.
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    f = PLFunction(
        g,
        {"seg": [(F(0), F(0)), (F(1, 4), F(1)), (F(3, 8), F(2, 5)),
                 (F(1, 2), F(1)), (F(1), F(1))]},
    )
    monkeypatch.setattr(surgery, "urysohn", lambda *args, **kwargs: f)
    step = crooked_step(g, a, b, g.empty_set(), g.empty_set())
    assert step.component_count == 2
    assert step.bonding.is_surjective()


def test_crooked_degenerate_level_set(monkeypatch):
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    f = PLFunction(
        g, {"seg": [(F(0), F(0)), (F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1))]}
    )
    monkeypatch.setattr(surgery, "urysohn", lambda *args, **kwargs: f)
    with pytest.raises(DegeneracyError) as exc:
        crooked_step(g, a, b, g.empty_set(), g.empty_set())
    assert exc.value.edge_id == "seg"


def test_surgeries_take_each_region_once(monkeypatch):
    # a crooked step takes each half-set of its separating function once,
    # one per (level, side); a triangle step takes each pairwise difference
    # of its three distances once, and each difference's two half-sets at 0
    regions, diffs = [], []
    real_region, real_sub = PLFunction._region, PLFunction.__sub__

    def counting_region(self, level, side):
        regions.append((self, level, side))
        return real_region(self, level, side)

    def counting_sub(self, other):
        diffs.append(real_sub(self, other))
        return diffs[-1]

    monkeypatch.setattr(PLFunction, "_region", counting_region)
    monkeypatch.setattr(PLFunction, "__sub__", counting_sub)
    step = crooked_step(*crooked_identity_instance())
    assert {f for f, _, _ in regions} == {step.separating}
    assert sorted((level, side) for _, level, side in regions) == sorted(
        (F(n, d), side) for n, d in ((1, 3), (2, 3), (3, 8), (5, 8)) for side in ("ge", "le")
    )
    regions.clear()
    diffs.clear()
    g = y_graph()
    triangle_step(g, *(g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc")))
    assert len(diffs) == 3
    assert sorted((id(f), level, side) for f, level, side in regions) == sorted(
        (id(f), 0, side) for f in diffs for side in ("ge", "le")
    )


def test_crooked_phi_precondition():
    g, a, b, c, d = crooked_identity_instance()
    with pytest.raises(PreconditionError):
        crooked_step(g, a, b, d, c)  # swapped pins violate a # d


@pytest.mark.parametrize("case", ["a meets b", "a meets d", "b meets c", "a empty", "b empty"])
def test_crooked_premises_raise(case):
    # each case breaks one premise only
    g, a, b, c, d = crooked_identity_instance()
    half, none = g.point_closed_set([("e", "seg", F(1, 2))]), g.empty_set()
    ops = {
        "a meets b": (a | half, b | half, none, none),
        "a meets d": (a, b, none, a),
        "b meets c": (a, b, b, none),
        "a empty": (none, b, c, d),
        "b empty": (a, none, c, d),
    }[case]
    with pytest.raises(PreconditionError):
        crooked_step(g, *ops)


@pytest.mark.parametrize("moved", ["all", "first"])
@pytest.mark.parametrize("kind", ["zeta", "theta"])
def test_surgeries_reject_operands_on_another_graph(kind, moved):
    # nonempty, premise-satisfying operands, all of them or only the first
    # one on an equal copy of the input graph
    if kind == "zeta":
        g, step = y_graph(), triangle_step
        ops = [g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc")]
    else:
        (g, *ops), step = crooked_identity_instance(), crooked_step
    other = MetricGraph(g.vertices, g.edges.values())
    moved_ops = [ClosedSet(other, s.intervals, s.vertices) for s in ops]
    if moved == "first":
        moved_ops = moved_ops[:1] + ops[1:]
    with pytest.raises(UsageError):
        step(g, *moved_ops)


# ------------------------------------------------------------- lifts

def test_lift_connected_whole_and_point():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    whole = lift_connected(step, g.whole_set(), step.bonding.preimage_of(g.whole_set()))
    assert whole == step.output_graph.whole_set()
    pt = lift_connected(step, a, step.bonding.preimage_of(a))
    assert step.bonding.image_of(pt) == a


def test_lift_connected_case_one_interval():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    low = ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set())
    lifted = lift_connected(step, low, step.bonding.preimage_of(low))
    assert step.bonding.image_of(lifted) == low
    assert len(step.output_graph.components_of(lifted)) == 1
    # the lift lives on the first vertical level
    assert all(eid.startswith("t14|") for eid in lifted.intervals)


def test_lift_connected_triangle_full_preimage():
    g = y_graph()
    a = g.point_closed_set([("v", "ta")])
    b = g.point_closed_set([("v", "tb")])
    c = g.point_closed_set([("v", "tc")])
    step = triangle_step(g, a, b, c)
    sub = ClosedSet(g, {"la": [(F(0), F(1, 2))], "lb": [(F(0), F(1, 2))]}, {"c"})
    lifted = lift_connected(step, sub, step.bonding.preimage_of(sub))
    assert step.bonding.image_of(lifted) == sub
    assert len(step.output_graph.components_of(lifted)) == 1
    with pytest.raises(PreconditionError):
        lift_connected(step, a | b, step.bonding.preimage_of(a | b))  # disconnected input


# ------------------------------------------------------------- fresh sets

def test_reinterpret_meet_join():
    from crooked.folang import Eq, Join, Meet
    g = seg()
    s = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    t = ClosedSet(g, {"seg": [(F(1, 4), F(1))]}, set())
    records = [
        SentenceRecord(1, 0, 0, kind, Eq(op(Const("s"), Const("t")), Const(fresh)),
                       operands=("s", "t"), fresh=(fresh,))
        for kind, op, fresh in (("meet", Meet, "k"), ("join", Join, "j"))
    ]
    result = witness_fragment(records, g, {"s": s, "t": t})
    assert result.ok
    interp = result.interpretation
    assert interp["k"] == (s & t)
    assert interp["j"] == (s | t)


def test_reinterpret_normality_bisectors():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    k1, k2 = normal_cocover(g, a, b)
    # k1 misses b (the larger constant), k2 misses a
    assert k1 == ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    assert k2 == ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set())
    assert (k1 | k2) == g.whole_set()


def test_reinterpret_normality_vacuous():
    g = seg()
    s = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    k1, k2 = normal_cocover(g, s, s)
    assert k1.is_empty() and k2.is_empty()


def test_reinterpret_disjunctivity_point():
    g = seg()
    a = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    b = g.point_closed_set([("v", "a")])
    k = disjunctivity_point(g, a, b)
    assert not k.is_empty()
    assert k.is_subset_of(a)
    assert (k & b).is_empty()


# ------------------------------------------------------------- fragments

def chain3_setup():
    base = generate_sublattice({1, 2}, [{1}, {1, 2}])
    g = seg()
    gen_sets = {
        "0": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "1": g.whole_set(),
    }
    from crooked.surgery import base_interpretation
    interp0 = base_interpretation(base, gen_sets, g)
    return base, g, interp0


def test_base_interpretation_replays_derivations():
    base, g, interp0 = chain3_setup()
    assert len(interp0) == base.size
    assert interp0[f"k(-1,{base.bottom_index})"].is_empty()
    assert interp0[f"k(-1,{base.top_index})"] == g.whole_set()


def test_witness_fragment_full_pipeline():
    base, g, interp0 = chain3_setup()
    gen = SigmaGenerator(base, budget=16)
    records = gen.generate_through(5)
    frag = fragment(records, 38)
    kinds = {r.kind for r in frag}
    assert "zeta" in kinds and "theta" in kinds
    result = witness_fragment(frag, g, interp0)
    assert result.ok, [line for line, ok in result.report if not ok]
    # determinism: a second run produces identical report and trace
    result2 = witness_fragment(frag, g, interp0)
    assert result.report == result2.report
    assert result.trace == result2.trace


@pytest.mark.parametrize(
    "kind", ["hat-zero", "meet", "join", "normal", "disj0", "disj1", "zeta", "theta"]
)
def test_witness_fragment_binds_each_fresh_name_once(kind):
    # a name a line binds (a fresh name, or the constant a hat-zero line
    # zeroes) that is already bound (here by the input) is an input error
    # naming it, never a silent replacement of the bound set
    base, g, interp0 = chain3_setup()
    hat = {"hat_size": 1} if kind == "hat-zero" else {}
    records = SigmaGenerator(base, budget=16, **hat).generate_through(5)
    rec = next(r for r in records if r.kind == kind)
    upto = [r for r in records[: records.index(rec) + 1] if not r.ignorable]
    taken = (rec.fresh or rec.operands)[-1]
    with pytest.raises(InputError, match=re.escape(repr(taken))):
        witness_fragment(upto, g, {**interp0, taken: g.empty_set()})
    assert witness_fragment(upto, g, interp0).ok


def test_witness_fragment_keeps_a_disconnected_hat_conn_constant():
    # k(-2,0) is declared connected but is two points of the base graph: its
    # lift through each surgery raises PreconditionError, the build keeps its
    # full preimage, and the report's hat-conn line is the one false line,
    # false for the two components alone (the set lies under its k(-1,0))
    base = generate_sublattice({0, 1, 2}, [{0}, {2}, {0, 1, 2}], names=["g0", "g1", "g2"])
    g = seg()
    gen_sets = {
        "g0": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
        "g1": g.point_closed_set([("v", "b")]),
        "g2": g.whole_set(),
    }
    interp0 = base_interpretation(base, gen_sets, g)
    interp0["k(-2,0)"] = g.point_closed_set([("v", "a"), ("e", "seg", F(1, 4))])
    records = SigmaGenerator(base, budget=8, continuum_constants=1, hat_size=1).generate_through(5)
    result = witness_fragment([r for r in records if not r.ignorable], g, interp0)
    assert "triangle" in [t["action"] for t in result.trace]
    (hat,) = [r for r in records if r.kind == "hat-conn"]
    assert hat.line().startswith("S-1^0 0:")
    assert [line for line, ok in result.report if not ok] == [hat.line()]
    k = result.interpretation["k(-2,0)"]
    assert len(result.graph.components_of(k)) == 2
    assert k.is_subset_of(result.interpretation["k(-1,0)"])


def surgery_rich_fragment(budget=96):
    """The fragment through stage 5 of the three-point base at `budget`,
    with its base graph and interpretation."""
    base = generate_sublattice({0, 1, 2}, [{0}, {2}, {0, 1, 2}], names=["g0", "g1", "g2"])
    g = seg()
    gen_sets = {
        "g0": g.point_closed_set([("v", "a")]),
        "g1": g.point_closed_set([("v", "b")]),
        "g2": g.whole_set(),
    }
    interp0 = base_interpretation(base, gen_sets, g)
    records = SigmaGenerator(base, budget=budget).generate_through(5)
    usable = len([r for r in records if not r.ignorable])
    return fragment(records, usable), g, interp0


def test_witness_fragment_surgery_rich_pipeline(closure_calls):
    # diagram through both schemata with enough budget that satisfiable
    # instances exist: two fiber insertions and two staircases, everything
    # re-verified true, deterministic across runs
    frag, g, interp0 = surgery_rich_fragment()
    closure_calls.clear()
    result = witness_fragment(frag, g, interp0, cap=8192)
    assert result.ok, [line for line, ok in result.report if not ok][:3]
    # every sentence is ground: surgery checks and report decide on cell masks
    assert closure_calls == []
    actions = [t["action"] for t in result.trace]
    assert actions.count("triangle") >= 2
    assert actions.count("crooked") >= 2
    assert result.graph.meta.get("fibers")
    result2 = witness_fragment(frag, g, interp0, cap=8192)
    assert result.report == result2.report and result.trace == result2.trace
    # the model and trace bytes are pinned, so a refactor of the drivers
    # must reproduce the same construction exactly
    model = dump_graph(result.graph, result.interpretation).encode()
    trace = json.dumps(result.trace, sort_keys=True).encode()
    assert hashlib.sha256(model).hexdigest() == (
        "ba3fe87139a9811bea0d5063c887ed788e381fc2a0d182e0644472dba9c81780"
    )
    assert hashlib.sha256(trace).hexdigest() == (
        "a29db4fcc02f66c346bce21fa174cce2312a5333e6dc45e7aee92ea0a468fe07"
    )



def test_witness_fragment_builds_each_pullback_index_once(fibre_builds):
    # every bonding, stretch and renormalised map indexes its fibres at most
    # once, however many constants are pulled back through it
    frag, g, interp0 = surgery_rich_fragment()
    result = witness_fragment(frag, g, interp0)
    assert result.ok
    assert fibre_builds
    assert len({id(m) for m in fibre_builds}) == len(fibre_builds)


def test_instance_stage_pulls_back_each_distinct_set_once(monkeypatch):
    # a base with names aliasing one set object and with equal but distinct
    # objects, through two staircases: each name's set is the per-name
    # pullback, equal sets share one preimage object, and `preimage_of` runs
    # once per distinct point set
    g, a, b, c, d = crooked_identity_instance()
    mid = ClosedSet(g, {"seg": [(F(1, 3), F(2, 3))]}, set())
    base = {
        "A": a, "A2": a, "B": b, "C": c, "D": d,
        "M1": mid, "M2": mid, "M3": ClosedSet(g, {"seg": [(F(1, 3), F(2, 3))]}, set()),
        "E1": g.empty_set(), "E2": g.empty_set(),
        "W1": g.whole_set(), "W2": ClosedSet(g, {"seg": [(F(0), F(1))]}, set()),
    }
    real_preimage, real_hash = PLMap.preimage_of, ClosedSet.__hash__
    real_surgery = surgery.surgery_with_nudges
    calls, hashed = [], []

    def counting_preimage(self, t):
        calls.append(t)
        return real_preimage(self, t)

    def counting_hash(self):
        hashed.append(self)
        return real_hash(self)

    def surgery_then_count(*args):
        # the surgery's own preimages are not the pullback
        out = real_surgery(*args)
        calls.clear()
        hashed.clear()
        return out

    monkeypatch.setattr(PLMap, "preimage_of", counting_preimage)
    monkeypatch.setattr(ClosedSet, "__hash__", counting_hash)
    monkeypatch.setattr(surgery, "surgery_with_nudges", surgery_then_count)
    prev = surgery.Stage(g, None, base, "base")
    for n in (1, 2):
        instance = {"kind": "theta", "operands": list("ABCD"),
                    "witnesses": [f"w{n}.x", f"w{n}.y", f"w{n}.z"]}
        stage = surgery.instance_stage(prev, instance)
        looked_up = [id(s) for s in hashed]
        assert stage.kind == "crooked"
        assert len(calls) == len(set(prev.base.values())) == len(set(calls))
        for cid, s in prev.base.items():
            assert stage.base[cid] == real_preimage(stage.bonding, s), cid
            for other, t in prev.base.items():
                assert (stage.base[cid] is stage.base[other]) == (s == t), (cid, other)
        # the value lookups meet each distinct object of the base, and from
        # the second surgery on equal sets are one object
        assert set(looked_up) == {id(s) for s in prev.base.values()}
        prev = stage
    assert len(prev.base) == len(base) + 6


@pytest.mark.parametrize("kind", ["zeta", "theta"])
def test_instance_stage_pulls_back_each_operand_once(monkeypatch, kind):
    # the surgery's schema check reads the operands from the pulled-back
    # base, so no operand crosses the bonding a second time
    if kind == "zeta":
        g = y_graph()
        ops = [g.point_closed_set([("v", v)]) for v in ("ta", "tb", "tc")]
    else:
        ops = list(crooked_identity_instance()[1:])
    real = PLMap.preimage_of
    calls = []

    def counting(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(PLMap, "preimage_of", counting)
    stage = surgery_stage(monkeypatch, kind, dict(zip("ABCD", ops)), lambda step: {})
    assert stage.kind == ("triangle" if kind == "zeta" else "crooked")
    assert [sum(t is s for t in calls) for s in ops] == [1] * len(ops)


def test_both_drivers_take_every_path_through_the_one_step(monkeypatch):
    # every instance of either driver goes through `instance_stage`, which
    # returns the stage it is given for an instance that needs no surgery
    # and a new stage for a surgery, each mode with the stage kind that
    # UNCHANGED_MODES names.  The tower's instances are listed by name, one
    # per path, so no candidate order is assumed; a fragment has no cover
    # probe and no noop
    seen = []
    real = surgery.instance_stage

    def recording(stage, instance, *rest):
        out = real(stage, instance, *rest)
        assert (out is stage) == (instance["mode"] != "surgery")
        seen.append((instance["mode"], out.kind))
        return out

    monkeypatch.setattr(surgery, "instance_stage", recording)
    monkeypatch.setattr(tower, "instance_stage", recording)
    g = seg()
    base = {**staircase_base(g), "e": g.empty_set(),
            "mid": ClosedSet(g, {"seg": [(F(3, 8), F(5, 8))]}, set())}
    steps = [
        ("theta", [("p", "p", "p", "p")], None),
        ("zeta", [("mid", "p", "q")], tower.search_dim_cover),
        ("zeta", [("e", "p", "q")], tower.search_dim_cover),
        ("theta", [STAIRCASE_QUAD], None),
        ("theta", [], None),
    ]
    t = tower.Tower([surgery.Stage(g, None, base, "base")], {})
    for n, (kind, listed, cover) in enumerate(steps, 1):
        t.stages.append(tower._scheduled_stage(t, n, (0, 0), kind, lambda b, c=listed: iter(c), cover))
    joins = {(mode, kind) for kind, mode in UNCHANGED_MODES.items() if mode is not None}
    assert set(seen) == joins | {("surgery", "crooked")} and len(seen) == 4
    assert [st.kind for st in t.stages] == ["base", "vacuous", "identity", "shortcut", "crooked", "noop"]
    seen.clear()
    assert witness_fragment(*surgery_rich_fragment()).ok
    assert set(seen) == joins - {("existing-cover", "identity")} | {
        ("surgery", "triangle"), ("surgery", "crooked")}


def test_witness_fragment_builds_a_stage_per_surgery_only(monkeypatch):
    # an instance that needs no surgery joins the current stage, so the
    # fragment builds its base stage and one stage per surgery, no more
    frag, g, interp0 = surgery_rich_fragment()
    built = []
    init = surgery.Stage.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.kind)

    monkeypatch.setattr(surgery.Stage, "__init__", counting)
    result = witness_fragment(frag, g, interp0)
    surgeries = [t["action"] for t in result.trace if t["action"] != "nudge"]
    assert built == ["base", *surgeries]
    assert len(surgeries) >= 4
    assert sum(rec.kind in ("zeta", "theta") for rec in frag) > len(surgeries)


def test_an_emptied_shortcut_turns_the_tower_red_too(monkeypatch, shortcut_tower):
    # the tower resolves its shortcuts through `surgery.resolve_shortcut`,
    # as the fragment does, so emptying their witnesses turns every instance
    # line of a tower of shortcuts red, and no other line
    resolve = surgery.resolve_shortcut

    def emptied(kind, graph, ops):
        resolved = resolve(kind, graph, ops)
        return None if resolved is None else (resolved[0], (graph.empty_set(),) * 3)

    monkeypatch.setattr(surgery, "resolve_shortcut", emptied)
    t = shortcut_tower(4)
    assert [st.instance["mode"] for st in t.stages[1:]] == ["shortcut"] * 4
    report = tower.verify_tower(t)
    red = [label for label, ok in report if not ok]
    assert red == [label for label, _ in report if " schedule=" in label]
    assert len(red) == 7


def test_witness_fragment_triangle_trace():
    g = y_graph()
    interp0 = {
        "A": g.point_closed_set([("v", "ta")]),
        "B": g.point_closed_set([("v", "tb")]),
        "C": g.point_closed_set([("v", "tc")]),
    }
    rec = SentenceRecord(
        4, None, 0, "zeta",
        zeta(Const("A"), Const("B"), Const("C"), Const("x0"), Const("y0"), Const("z0")),
        operands=("A", "B", "C"), fresh=("x0", "y0", "z0"),
    )
    result = witness_fragment([rec], g, interp0)
    assert result.ok
    assert [t["action"] for t in result.trace] == ["triangle"]
    assert len(result.graph.edges) == 9


def test_witness_fragment_recheck_catches_a_broken_sentence(monkeypatch):
    # a surgery that moves an earlier constant falsifies a processed ground
    # sentence; the re-check on the new stage's cell masks reports it
    g = y_graph()
    interp0 = {
        "A": g.point_closed_set([("v", "ta")]),
        "B": g.point_closed_set([("v", "tb")]),
        "C": g.point_closed_set([("v", "tc")]),
    }
    diagram = SentenceRecord(
        0, None, 0, "diagram-meet", Eq(Meet(Const("A"), Const("B")), Zero()), operands=("A", "B"),
    )
    rec = SentenceRecord(
        4, None, 0, "zeta",
        zeta(Const("A"), Const("B"), Const("C"), Const("x0"), Const("y0"), Const("z0")),
        operands=("A", "B", "C"), fresh=("x0", "y0", "z0"),
    )
    real = surgery.instance_stage

    def moving(*args):
        stage = real(*args)
        stage.base["A"] = stage.base["B"]
        return stage

    monkeypatch.setattr(surgery, "instance_stage", moving)
    with pytest.raises(InvariantViolationError, match="previously satisfied") as exc:
        witness_fragment([diagram, rec], g, interp0)
    assert str(exc.value).endswith(diagram.line())


def test_witness_fragment_crooked_trace_and_eval():
    g, a, b, c, d = crooked_identity_instance()
    # the staircase's full preimage of K has three components; declared
    # connected by a hat-conn line, K is lifted as one of them
    K = ClosedSet(g, {"seg": [(F(2, 5), F(3, 5))]}, set())
    interp0 = {"A": a, "B": b, "C": c, "D": d, "K": K}
    from crooked.folang import theta
    k = Const("K")
    hat = SentenceRecord(-1, None, 0, "hat-conn", And(conn(k), Eq(Meet(k, k), k)), operands=("K", "K"))
    rec = SentenceRecord(
        5, None, 0, "theta",
        theta(*(Const(k) for k in ("A", "B", "C", "D", "x0", "y0", "z0"))),
        operands=("A", "B", "C", "D"), fresh=("x0", "y0", "z0"),
    )
    result = witness_fragment([hat, rec], g, interp0)
    assert result.ok
    assert [t["action"] for t in result.trace] == ["crooked"]
    assert len(result.graph.components_of(result.interpretation["K"])) == 1


def test_witness_fragment_vacuous_and_shortcut():
    g = seg()
    s = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    interp0 = {"A": g.empty_set(), "B": s, "C": g.whole_set()}
    rec = SentenceRecord(
        4, None, 0, "zeta",
        zeta(Const("A"), Const("B"), Const("C"), Const("x0"), Const("y0"), Const("z0")),
        operands=("A", "B", "C"), fresh=("x0", "y0", "z0"),
    )
    result = witness_fragment([rec], g, interp0)
    assert result.ok
    assert result.trace == []  # shortcut, no surgery
    assert result.interpretation["x0"].is_empty()
    assert result.interpretation["y0"] == g.whole_set()


def test_witness_fragment_rejects_an_instance_on_an_unbound_constant():
    # the fragment's order check holds for instances too: an operand that no
    # earlier line bound is an evaluation error, not a lookup failure
    g = seg()
    rec = SentenceRecord(
        4, None, 0, "zeta",
        zeta(Const("A"), Const("B"), Const("C"), Const("x0"), Const("y0"), Const("z0")),
        operands=("A", "B", "C"), fresh=("x0", "y0", "z0"),
    )
    with pytest.raises(EvaluationError, match="'C' is not interpreted"):
        witness_fragment([rec], g, {"A": g.empty_set(), "B": g.whole_set()})


def hat_conn_fragment():
    """A hat-conn catalog constant k(-2,0) under its holder k(-1,0), then
    one crooked surgery on the identity instance."""
    from crooked.folang import theta
    g, a, b, c, d = crooked_identity_instance()
    sub = ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set())
    holder = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    interp0 = {
        "A": a, "B": b, "C": c, "D": d,
        "k(-2,0)": sub, "k(-1,0)": holder,
    }
    hat = SentenceRecord(
        -1, 0, 0, "hat-conn",
        And(conn(Const("k(-2,0)")),
            Eq(Meet(Const("k(-2,0)"), Const("k(-1,0)")), Const("k(-2,0)"))),
        operands=("k(-2,0)", "k(-1,0)"),
    )
    thet = SentenceRecord(
        5, None, 0, "theta",
        theta(*(Const(k) for k in ("A", "B", "C", "D", "x0", "y0", "z0"))),
        operands=("A", "B", "C", "D"), fresh=("x0", "y0", "z0"),
    )
    return [hat, thet], g, interp0


def test_witness_fragment_hat_constant_lifts_connected():
    result = witness_fragment(*hat_conn_fragment())
    assert result.ok, result.report
    lifted = result.interpretation["k(-2,0)"]
    # the catalog constant stays connected and under its holder
    assert len(result.graph.components_of(lifted)) == 1
    assert lifted.is_subset_of(result.interpretation["k(-1,0)"])
    # plain pullback of the subcontinuum would be disconnected here: the
    # staircase puts two verticals over [0, 1/4]
    pulled = result.interpretation["C"] & result.interpretation["k(-1,0)"]
    assert not lifted == pulled


def test_hat_constant_lift_reuses_the_stage_pullback(monkeypatch):
    # the surgery's stage already holds the preimage of k(-2,0), so lifting
    # it pulls nothing back again
    calls, per_lift = [], []
    preimage_of, lift = PLMap.preimage_of, surgery.lift_connected

    def counting_preimage(self, s):
        calls.append(s)
        return preimage_of(self, s)

    def counting_lift(*args):
        before = len(calls)
        lifted = lift(*args)
        per_lift.append(len(calls) - before)
        return lifted

    monkeypatch.setattr(PLMap, "preimage_of", counting_preimage)
    monkeypatch.setattr(surgery, "lift_connected", counting_lift)
    assert witness_fragment(*hat_conn_fragment()).ok
    assert per_lift == [0]


def test_surgery_outputs_model_connectivity_sentence():
    from crooked.folang import LIBRARY
    from crooked.metric_graph import extract_sublattice
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    named = {cid: step.bonding.preimage_of(s) for cid, s in zip("ABCD", (a, b, c, d))}
    named.update(step.witnesses)
    res = extract_sublattice(step.output_graph, named)
    assert eval_formula(LIBRARY["CONN1"], res.lattice).value
    assert step.output_graph.is_connected()


def nudged_triangle_fragment():
    """A hat-conn line and one dimension instance whose barycenter locus
    runs along an edge until two edges are nudged, with its base graph and
    interpretation."""
    g = MetricGraph(
        ["u", "w1", "w2", "w3", "v"],
        [
            Edge("k1", "u", "w1", F(1)),
            Edge("k2", "u", "w2", F(1)),
            Edge("k3", "u", "w3", F(1)),
            Edge("tail", "u", "v", F(5)),
        ],
    )
    interp0 = {
        "A": g.point_closed_set([("v", "w1")]),
        "B": g.point_closed_set([("v", "w2")]),
        "C": g.point_closed_set([("v", "w3")]),
        "W": g.whole_set(),
        # a connected constant over both nudged edges
        "K": ClosedSet(g, {"k1": [(F(0), F(1))], "tail": [(F(0), F(5))]}, set()),
    }
    K, W = Const("K"), Const("W")
    # the hat-conn line declares K connected: conn(K) & K ^ W = K
    hat = SentenceRecord(-1, None, 0, "hat-conn", And(conn(K), Eq(Meet(K, W), K)), operands=("K", "W"))
    rec = SentenceRecord(
        4, None, 0, "zeta",
        zeta(Const("A"), Const("B"), Const("C"), Const("x0"), Const("y0"), Const("z0")),
        operands=("A", "B", "C"), fresh=("x0", "y0", "z0"),
    )
    return [hat, rec], g, interp0


def test_witness_fragment_nudges_degenerate_instance(closure_calls):
    frag, g, interp0 = nudged_triangle_fragment()
    result = witness_fragment(frag, g, interp0)
    # the hat-conn line is decided by Birkhoff duality on the final masks
    assert result.ok and result.report[0][1]
    assert closure_calls == []
    assert [(t["action"], t.get("edge")) for t in result.trace] == [
        ("nudge", "tail"), ("nudge", "k1"), ("triangle", None),
    ]
    # sets are pulled back through the stretch onto the input graph, so a set
    # covering the space still covers it after edges are lengthened
    assert result.interpretation["W"] == result.graph.whole_set()
    # the connected constant is lifted through the nudges and the triangle
    # as one piece
    lifted = result.interpretation["K"]
    assert not lifted.is_empty()
    assert len(result.graph.components_of(lifted)) == 1


# sha256 of the model and trace bytes `witness_fragment` writes for
# `nudged_triangle_fragment()`; no benchmark workload nudges, so the
# recorded digests cannot see this path
NUDGED_FRAGMENT_SHA256 = "d0e53b0f5f7bcaa1c4ac4baec124a1811ec80127ce7822fcf0f2a986c75400eb"


def test_the_nudged_fragment_writes_its_pinned_bytes():
    result = witness_fragment(*nudged_triangle_fragment())
    text = dump_graph(result.graph, result.interpretation) + dump_json(result.trace)
    assert hashlib.sha256(text.encode()).hexdigest() == NUDGED_FRAGMENT_SHA256


def nudge_chain_reference(graph, ops, targets):
    """The nudged space, operands and `renorm` as a chain of stretches: each
    nudge lengthens the last graph, stretches it onto the last graph, moves
    the operands through that one stretch and composes it into `renorm`."""
    renorm = None
    for target in targets:
        lengthened = nudge_edge_length(graph, target)
        stretch = stretch_map(lengthened, graph)
        ops = [stretch.preimage_of(s) for s in ops]
        renorm = stretch if renorm is None else stretch.then(renorm)
        graph = lengthened
    return graph, ops, renorm


def nudged_instance(case):
    """(kind, graph, operands, forced degeneracies, expected nudges)."""
    if case == "fragment":
        _, g, interp0 = nudged_triangle_fragment()
        return "zeta", g, [interp0[n] for n in "ABC"], 0, ["tail", "k1"]
    if case == "acceptance":
        from test_acceptance import triangle_instances
        g, *ops = triangle_instances()[4]
        return "zeta", g, ops, 0, ["s4", "s1"]
    # a staircase over the Y graph, made to nudge three times from "lb":
    # the targets rotate through the sorted others
    g = y_graph()
    ops = [g.point_closed_set([("v", "ta")]), g.point_closed_set([("v", "tb")]),
           ClosedSet(g, {"lc": [(F(0), F(1))]}, set()), g.point_closed_set([("v", "tc")])]
    return "theta", g, ops, 3, ["lb", "la", "lc"]


@pytest.mark.parametrize("case", ["fragment", "acceptance", "crooked"])
def test_one_stretch_per_nudge_matches_the_stretch_chain(monkeypatch, case):
    kind, graph, ops, forced, expected = nudged_instance(case)
    name = "triangle_step" if kind == "zeta" else "crooked_step"
    real = getattr(surgery, name)
    calls, stretches = [], []

    def step(space, *space_ops):
        calls.append((space, space_ops))
        if len(calls) <= forced:
            raise DegeneracyError("forced", "lb")
        return real(space, *space_ops)

    def stretch(nudged, original):
        stretches.append(stretch_map(nudged, original))
        return stretches[-1]

    monkeypatch.setattr(surgery, name, step)
    monkeypatch.setattr(surgery, "stretch_map", stretch)
    _, bonding, nudged = surgery.surgery_with_nudges(kind, graph, ops)
    assert nudged == expected
    space, space_ops = calls[-1]
    ref_graph, ref_ops, ref_renorm = nudge_chain_reference(graph, ops, nudged)
    assert (space.vertices, space.edges) == (ref_graph.vertices, ref_graph.edges)
    assert stretches[-1].codomain is graph
    assert stretches[-1].to_dict() == ref_renorm.to_dict()
    assert [s.to_dict() for s in space_ops] == [s.to_dict() for s in ref_ops]
    assert bonding.to_dict() == real(ref_graph, *ref_ops).bonding.then(ref_renorm).to_dict()
