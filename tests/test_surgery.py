import hashlib
import json
import re
from fractions import Fraction as F

import pytest

from crooked.errors import DegeneracyError, InputError, InvariantViolationError, PreconditionError
from crooked.folang import And, Const, Eq, Meet, Var, Zero, conn, eval_formula, psi, zeta
from crooked import surgery
from crooked.lattice import generate_sublattice
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, dump_graph, extract_sublattice,
    unit_segment,
)
from crooked.sigma import SentenceRecord, SigmaGenerator, fragment
from crooked.surgery import (
    CrookedStep, TriangleStep, base_interpretation, check_monotone, crooked_step,
    disjunctivity_point, eval_ground_geometric, lift_connected, normal_cocover, nudge_edge_length,
    triangle_step, verify_on_sublattice, witness_fragment,
)


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
    assert len(step.fibers) == 2
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


def test_triangle_fiber_ids_skip_existing():
    # a graph that already carries fiber-style names (from an earlier step)
    # must get fresh fiber indices, not duplicates
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
    a = g.point_closed_set([("v", "ta")])
    b = g.point_closed_set([("v", "tb")])
    c = g.point_closed_set([("v", "tc")])
    step = triangle_step(g, a, b, c)
    assert step.locus == [("v", "c")]
    out = step.output_graph
    assert "fib0.A0" in out.edges  # the pre-existing edge is untouched
    assert any(eid.startswith("fib1.") for eid in out.edges)
    assert check_monotone(step)


def test_triangle_requires_nonempty_inputs():
    g = seg()
    with pytest.raises(PreconditionError):
        triangle_step(g, g.empty_set(), g.whole_set(), g.whole_set())


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


def test_crooked_unique_onto_component_among_many():
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
    step = crooked_step(g, a, b, g.empty_set(), g.empty_set(), separating=f)
    assert step.component_count == 2
    assert step.bonding.is_surjective()


def test_crooked_degenerate_level_set():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    f = PLFunction(
        g, {"seg": [(F(0), F(0)), (F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1))]}
    )
    with pytest.raises(DegeneracyError) as exc:
        crooked_step(g, a, b, g.empty_set(), g.empty_set(), separating=f)
    assert exc.value.edge_id == "seg"


def test_crooked_phi_precondition():
    g, a, b, c, d = crooked_identity_instance()
    with pytest.raises(PreconditionError):
        crooked_step(g, a, b, d, c)  # swapped pins violate a # d


# ------------------------------------------------------------- lifts

def test_lift_connected_whole_and_point():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    whole = lift_connected(step, g.whole_set())
    assert whole == step.output_graph.whole_set()
    pt = lift_connected(step, a)
    assert step.bonding.image_of(pt) == a


def test_lift_connected_case_one_interval():
    g, a, b, c, d = crooked_identity_instance()
    step = crooked_step(g, a, b, c, d)
    low = ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set())
    lifted = lift_connected(step, low)
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
    lifted = lift_connected(step, sub)
    assert step.bonding.image_of(lifted) == sub
    assert len(step.output_graph.components_of(lifted)) == 1
    with pytest.raises(PreconditionError):
        lift_connected(step, a | b)  # disconnected input


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


@pytest.mark.parametrize("kind", ["meet", "join", "normal", "disj0", "disj1", "zeta", "theta"])
def test_witness_fragment_binds_each_fresh_name_once(kind):
    # a fresh name that is already bound (here by the input) is an input
    # error naming it, never a silent replacement of the bound set
    base, g, interp0 = chain3_setup()
    records = SigmaGenerator(base, budget=16).generate_through(5)
    rec = next(r for r in records if r.kind == kind)
    upto = [r for r in records[: records.index(rec) + 1] if not r.ignorable]
    taken = rec.fresh[-1]
    with pytest.raises(InputError, match=re.escape(repr(taken))):
        witness_fragment(upto, g, {**interp0, taken: g.empty_set()})
    assert witness_fragment(upto, g, interp0).ok


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
    # every sentence is ground: post-checks and report decide on cell masks
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


def test_witness_fragment_hat_constant_lifts_connected():
    from crooked.folang import And, Eq, Meet, conn, theta
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
    result = witness_fragment([hat, thet], g, interp0)
    assert result.ok, result.report
    lifted = result.interpretation["k(-2,0)"]
    # the catalog constant stays connected and under its holder
    assert len(result.graph.components_of(lifted)) == 1
    assert lifted.is_subset_of(result.interpretation["k(-1,0)"])
    # plain pullback of the subcontinuum would be disconnected here: the
    # staircase puts two verticals over [0, 1/4]
    pulled = result.interpretation["C"] & result.interpretation["k(-1,0)"]
    assert not lifted == pulled


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
    # sets are transported along each nudge's stretch, so a set covering the
    # space still covers it after an edge is lengthened
    assert result.interpretation["W"] == result.graph.whole_set()
    # the connected constant is lifted through the nudges and the triangle
    # as one piece
    lifted = result.interpretation["K"]
    assert not lifted.is_empty()
    assert len(result.graph.components_of(lifted)) == 1
