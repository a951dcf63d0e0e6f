import dataclasses
import hashlib
import itertools
import json
import math
import random
from contextlib import nullcontext
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import crooked.tower as tower_module
from crooked import metric_graph, surgery
from crooked.cli import main
from crooked.errors import PreconditionError
from crooked.folang import LIBRARY, Const, psi, zeta
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLMap, extract_sublattice, load_graph, unit_segment,
)
from crooked.surgery import (
    GROUND, Stage, crooked_step, instance_sets, lift_through, verify_on_sublattice, witness_fragment,
)
from crooked.tower import (
    Tower, build_tower, crooked_step_stage, dim_step,
    load_tower, save_tower, schedule_s, schedule_t, search_dim_cover, search_her_indec_cover, triple_enum,
    theta_candidates, verify_tower, weak_confluence_witness, zeta_candidates,
)
from test_bench_targets import _load


def seg():
    return unit_segment()


def base_family(g):
    return {
        "p": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
        "q": ClosedSet(g, {"seg": [(F(3, 4), F(1))]}, set()),
        "r": g.whole_set(),
    }


# ------------------------------------------------------------- schedules

def test_triple_enum_is_onto_and_injective_on_window():
    seen = {}
    for n in range(500):
        t = triple_enum(n)
        assert t not in seen
        seen[t] = n
    for p in range(4):
        for q in range(4):
            for r in range(4):
                assert (p, q, r) in seen


def test_schedule_s_basics():
    assert schedule_s(0) == (0, 0)
    for n in range(2000):
        p, q = schedule_s(n)
        assert n >= max(p, q)
        p, q = schedule_t(n)
        assert n >= max(p, q)


def test_schedule_s_onto_window():
    hits = set()
    for n in range(10_000):
        hits.add(schedule_s(n))
    for a in range(5):
        for b in range(5):
            assert (a, b) in hits


# ------------------------------------------------------------- oracles

def test_search_dim_cover_on_disjoint_triple():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = g.point_closed_set([("e", "seg", F(1, 2))])
    cover = search_dim_cover(g, a, b, c)
    assert cover is not None
    x, y, z = cover
    sets = {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}
    ground = zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))
    assert verify_on_sublattice(ground, sets, g)


def three_cycle() -> MetricGraph:
    return MetricGraph(
        ["u", "v", "w"],
        [Edge("e1", "u", "v", F(1)), Edge("e2", "v", "w", F(1)), Edge("e3", "u", "w", F(1))],
    )


def three_cycle_hang():
    """The 3-cycle and a dimension instance on it (a, b, c in this order)
    on which a cover search that prunes a 0-cell on bans only backtracked
    for minutes below its 64-cell cap."""
    g = three_cycle()
    return g, {
        "a": g.point_closed_set([("v", "w"), ("e", "e1", F(1, 8))]),
        "b": g.point_closed_set([("v", "u"), ("e", "e3", F(5, 8))]),
        "c": g.point_closed_set([("v", "u"), ("v", "w"), ("e", "e1", F(3, 8))]),
    }


def cover_digest(covers) -> str:
    """One hash of the exact covers a search returned, None included."""
    payload = [None if cover is None else [s.to_dict() for s in cover] for cover in covers]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def random_disjoint_instances():
    """The pairwise disjoint triples of `test_search_dim_cover_random_disjoint_instances`."""
    rng = random.Random(99)
    g = three_cycle()
    for _ in range(20):
        marks = sorted(rng.sample(range(1, 12), 6))
        pieces = [
            ClosedSet(g, {rng.choice(["e1", "e2", "e3"]): [(F(m, 12), F(m, 12))]}, set())
            for m in marks
        ]
        a = pieces[0] | pieces[3]
        b = pieces[1] | pieces[4]
        c = pieces[2] | pieces[5]
        if (a & b).is_empty() and (a & c).is_empty() and (b & c).is_empty():
            yield g, a, b, c


def test_search_dim_cover_random_disjoint_instances():
    found = 0
    for g, a, b, c in random_disjoint_instances():
        cover = search_dim_cover(g, a, b, c)
        assert cover is not None
        x, y, z = cover
        sets = {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}
        ground = zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))
        assert verify_on_sublattice(ground, sets, g)
        found += 1
    assert found >= 10


# The first covers in search order on `random_disjoint_instances`, as
# recorded from the search with the hand-written conditions that
# `_cell_rules` replaced.
RANDOM_DISJOINT_COVERS = "82bbee9577bfb1e450e1a95f7b9d83e687cb4327f8d635db1a5e8f6c605d703f"


def test_search_dim_cover_random_covers_are_pinned():
    covers = [search_dim_cover(g, a, b, c) for g, a, b, c in random_disjoint_instances()]
    assert cover_digest(covers) == RANDOM_DISJOINT_COVERS


def test_search_dim_cover_on_the_three_cycle_returns(deadline):
    g, sets = three_cycle_hang()
    cover = search_dim_cover(g, sets["a"], sets["b"], sets["c"])
    assert cover is not None
    sets.update(zip("xyz", cover))
    ground = zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))
    assert verify_on_sublattice(ground, sets, g)


def test_cell_rules_are_the_ground_conclusions():
    """`_cell_rules` reads each cell's allowed class sets (x = 1, y = 2,
    z = 4) off `GROUND`; here they are stated by hand, for every pattern
    of operand memberships (bit i for role "abcd"[i])."""
    from crooked.tower import _cell_rules

    def zeta_rule(a, b, c, e):
        return (e & 1 or not a) and (e & 2 or not b) and (e & 4 or not c) and e != 7

    def theta_rule(a, b, c, d, e):
        return ((e == 1 or not a) and (e == 4 or not b) and not (c and e & 6 == 6)
                and not (d and e & 3 == 3) and e & 5 != 5)

    for kind, roles, rule in (("zeta", 3, zeta_rule), ("theta", 4, theta_rule)):
        for pattern in range(1 << roles):
            bits = [pattern >> i & 1 for i in range(roles)]
            allowed, below = _cell_rules(kind, pattern)
            assert allowed == {e for e in range(1, 8) if rule(*bits, e)}, (kind, bits)
            assert below == {e for e in range(8) if any(e & f == e for f in allowed)}


def test_cover_searches_check_their_premise():
    g = seg()
    half, empty = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()), g.empty_set()
    with pytest.raises(PreconditionError, match="empty triple intersection"):
        search_dim_cover(g, half, half, half)
    # a meets b, a meets d, b meets c
    for ops in ((half, half, empty, empty), (half, empty, empty, half), (empty, half, half, empty)):
        with pytest.raises(PreconditionError, match="hypotheses violated"):
            search_her_indec_cover(g, *ops)


def test_search_her_indec_trivial_inputs():
    g = seg()
    cover = search_her_indec_cover(g, g.empty_set(), g.empty_set(), g.empty_set(), g.empty_set())
    assert cover is not None
    x, y, z = cover
    assert (x | y) | z == g.whole_set()
    assert (x & z).is_empty()


def test_search_her_indec_on_crooked_output():
    g = seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    d = ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set())
    step = crooked_step(g, a, b, c, d)
    out = step.output_graph
    la, lb, lc, ld = (step.bonding.preimage_of(s) for s in (a, b, c, d))
    cover = search_her_indec_cover(out, la, lb, lc, ld)
    assert cover is not None
    x, y, z = cover
    sets = {"a": la, "b": lb, "c": lc, "d": ld, "x": x, "y": y, "z": z}
    ground = psi(*(Const(k) for k in ("a", "b", "c", "d", "x", "y", "z")))
    assert verify_on_sublattice(ground, sets, out)


# ------------------------------------------------------------- stages

def test_crooked_stage_quads_are_lexicographic():
    g = seg()
    base = {"a": g.point_closed_set([("v", "a")]), "b": g.point_closed_set([("v", "b")])}
    tower = Tower([_stage0(g, base)], {})
    quads = list(itertools.product("ab", repeat=4))
    for m, quad in zip((0, 1, 2, 15), (("a",) * 4, ("a", "a", "a", "b"), ("a", "a", "b", "a"), ("b",) * 4)):
        assert quads[m] == quad
        assert crooked_step_stage(tower, 1, (0, m)).instance["operands"] == list(quad)
    assert crooked_step_stage(tower, 1, (0, 16)).kind == "noop"


def test_dim_step_identity_with_existing_cover():
    g = seg()
    base = {
        "p": g.point_closed_set([("v", "a")]),
        "q": g.point_closed_set([("v", "b")]),
        "m": g.point_closed_set([("e", "seg", F(1, 2))]),
    }
    tower = Tower([_stage0(g, base)], {})
    idx = list(zeta_candidates(base)).index(("m", "p", "q"))
    stage = dim_step(tower, 1, (0, idx))
    assert stage.kind == "identity"
    assert stage.graph is g
    assert stage.instance["mode"] == "existing-cover"
    assert "w1.x" in stage.base


def _stage0(g, base):
    return Stage(g, None, dict(base), "base")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_stage_schedules_item_m_of_its_candidates(data):
    # instance (0, m) of either kind has as operands item m of the kind's
    # candidates over the stage-0 base, and is a no-op past their end
    g = seg()
    quarters = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted).map(
        lambda ends: ClosedSet(g, {"seg": [(F(ends[0], 4), F(ends[1], 4))]}, set()))
    base = data.draw(st.dictionaries(
        st.sampled_from("pqrs"), st.one_of(st.just(g.empty_set()), quarters),
        min_size=2, max_size=4))
    step, candidates = data.draw(st.sampled_from(
        [(dim_step, zeta_candidates), (crooked_step_stage, theta_candidates)]))
    items = list(candidates(base))
    m = data.draw(st.integers(0, len(items)))
    stage = step(Tower([_stage0(g, base)], {}), 1, (0, m))
    if m < len(items):
        assert stage.instance["operands"] == list(items[m])
        assert stage.instance["schedule"] == [0, m]
    else:
        assert stage.kind == "noop" and stage.instance is None


def test_dim_step_shortcut_on_empty_member():
    g = seg()
    base = {
        "e": g.empty_set(),
        "p": g.point_closed_set([("v", "a")]),
        "q": g.point_closed_set([("v", "b")]),
    }
    tower = Tower([_stage0(g, base)], {})
    idx = list(zeta_candidates(base)).index(("e", "p", "q"))
    stage = dim_step(tower, 1, (0, idx))
    assert stage.kind == "shortcut"
    assert stage.base["w1.x"].is_empty()
    assert stage.base["w1.y"] == g.whole_set()


def test_dim_step_meets_only_the_triples_it_passes(monkeypatch):
    # 30 disjoint points have C(30, 3) = 4,060 empty triples; instance 0 is
    # the first, so scheduling it must not intersect the other 4,059
    g = seg()
    base = {f"s{i:02d}": g.point_closed_set([("e", "seg", F(i, 31))]) for i in range(1, 31)}
    tower = Tower([_stage0(g, base)], {})
    calls = 0
    meet = ClosedSet.__and__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return meet(self, other)

    monkeypatch.setattr(ClosedSet, "__and__", counted)
    stage = dim_step(tower, 1, (0, 0))
    assert stage.instance["operands"] == ["s01", "s02", "s03"]
    assert calls < 100, calls


def test_crooked_stage_vacuous_on_phi_violation():
    g = seg()
    base = base_family(g)
    tower = Tower([_stage0(g, base)], {})
    # quad (p, p, p, p): a = b, so the hypotheses fail
    idx = list(theta_candidates(base)).index(("p",) * 4)
    stage = crooked_step_stage(tower, 1, (0, idx))
    assert stage.kind == "vacuous"
    assert stage.base["w1.x"].is_empty()


# a satisfiable crookedness instance on the segment: its staircase surgery
# runs whenever the quad (p, q, lo, hi) is scheduled
STAIRCASE_QUAD = ("p", "q", "lo", "hi")


def staircase_base(g):
    return {
        "p": g.point_closed_set([("v", "a")]),
        "q": g.point_closed_set([("v", "b")]),
        "lo": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "hi": ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set()),
    }


def test_crooked_stage_surgery_path():
    g = seg()
    base = staircase_base(g)
    idx = list(theta_candidates(base)).index(STAIRCASE_QUAD)
    tower = Tower([_stage0(g, base)], {})
    stage = crooked_step_stage(tower, 1, (0, idx))
    assert stage.instance["operands"] == list(STAIRCASE_QUAD)
    assert stage.kind == "crooked"
    assert stage.bonding.is_surjective()
    tower.stages.append(stage)
    report = verify_tower(tower)
    assert all(ok for _, ok in report), report


# ------------------------------------------------------------- towers

def test_build_tower_depth_zero():
    g = seg()
    tower = build_tower(g, base_family(g), {}, 0)
    assert tower.depth == 0
    assert verify_tower(tower) == [
        ("CONN(1) on the stage-0 base sublattice", True)
    ]


def test_build_tower_depth_two_unit_segment():
    g = seg()
    catalog = {"whole": g.whole_set()}
    tower = build_tower(g, base_family(g), catalog, 2)
    assert tower.depth == 2
    report = verify_tower(tower)
    assert all(ok for _, ok in report), [r for r in report if not r[1]]
    kinds = [st.kind for st in tower.stages]
    assert kinds[0] == "base"
    assert len(kinds) == 3


def test_build_tower_deterministic_serialization(tmp_path):
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    for d in (d1, d2):
        g = seg()
        catalog = {
            "whole": g.whole_set(),
            "left": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        }
        save_tower(build_tower(g, base_family(g), catalog, 3), str(d))
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_tower_save_load_roundtrip(tmp_path):
    g = seg()
    catalog = {"whole": g.whole_set()}
    tower = build_tower(g, base_family(g), catalog, 3)
    save_tower(tower, str(tmp_path / "t"))
    loaded = load_tower(str(tmp_path / "t"))
    assert loaded.depth == tower.depth
    r1 = verify_tower(tower)
    r2 = verify_tower(loaded)
    assert r1 == r2
    assert all(ok for _, ok in r2)


def test_weak_confluence_threads():
    g = seg()
    catalog = {
        "whole": g.whole_set(),
        "mid": ClosedSet(g, {"seg": [(F(1, 4), F(1, 2))]}, set()),
    }
    tower = build_tower(g, base_family(g), catalog, 4)
    # whole-space thread
    th = weak_confluence_witness(tower, g.whole_set())
    assert th.sets[0] == g.whole_set()
    for n in range(1, tower.depth + 1):
        st = tower.stages[n]
        img = st.bonding.image_of(th.sets[n])
        assert img == th.sets[n - 1]
    # single-point thread
    pt = g.point_closed_set([("e", "seg", F(1, 3))])
    th2 = weak_confluence_witness(tower, pt)
    for s in th2.sets:
        assert not s.is_empty()
    # interval thread
    th3 = weak_confluence_witness(tower, catalog["mid"])
    assert th3.sets[0] == catalog["mid"]
    with pytest.raises(PreconditionError):
        weak_confluence_witness(tower, g.empty_set())


def test_limit_base_separates_threads_from_disjoint_sets():
    g = seg()
    base = base_family(g)
    left = ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set())
    tower = build_tower(g, base, {"left": left}, 4)
    N = tower.depth
    thread = weak_confluence_witness(tower, left)
    # q = [3/4, 1] is disjoint from left, so its pullback misses the thread
    assert (thread.sets[N] & tower.composed_map(N, 0).preimage_of(base["q"])).is_empty()
    assert not (thread.sets[N] & tower.composed_map(N, 0).preimage_of(left)).is_empty()


def test_composed_maps_functorial():
    g = seg()
    tower = build_tower(g, base_family(g), {}, 4)
    for n in range(2, 5):
        for mid in range(1, n):
            for m in range(0, mid):
                left = tower.composed_map(n, m)
                right = tower.composed_map(n, mid).then(tower.composed_map(mid, m))
                assert left.to_dict() == right.to_dict()


# One satisfiable crookedness instance per odd stage, each a quad of its
# own over base(0).  The second swaps a with b and c with d, which the schema
# answers by swapping x with z: the staircase of the first, mirrored.
STEERED_QUADS = (STAIRCASE_QUAD, ("q", "p", "hi", "lo"), ("p", "q", "p", "q"))


def steered_crooked_tower(depth):
    # Steer the quadruple schedule straight at a satisfiable crookedness
    # instance so every odd stage runs an actual staircase surgery.  Each
    # stage takes an instance no earlier stage took: odd stage 2j + 1 the
    # quad STEERED_QUADS[j], even stage 2j dimension instance j - 1 over
    # base(0), as `schedule_s` does up to stage 4.
    g = seg()
    base = staircase_base(g)
    quads = list(theta_candidates(base))
    idx = [quads.index(quad) for quad in STEERED_QUADS]
    catalog = {
        "whole": g.whole_set(),
        "left": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
    }
    return build_tower(
        g, base, catalog, depth,
        schedules=(lambda j: (0, j - 1), lambda j: (0, idx[j])),
    )


def test_build_tower_through_real_crooked_surgery():
    tower = steered_crooked_tower(2)
    assert tower.stages[1].kind == "crooked"
    report = verify_tower(tower)
    assert all(ok for _, ok in report), [r for r in report if not r[1]]
    left = tower.catalog["left"][0]
    th = weak_confluence_witness(tower, left)
    assert th.sets[0] == left
    for n in range(1, tower.depth + 1):
        assert tower.stages[n].bonding.image_of(th.sets[n]) == th.sets[n - 1]


def test_dim_step_surgers_when_the_cover_probe_overflows():
    # stage 4's arrangement refines past the cover search's cell cap, so the
    # existing-cover probe gives up and the triangle surgery runs instead
    tower = steered_crooked_tower(4)
    assert [st.kind for st in tower.stages[1:]] == ["crooked", "identity", "crooked", "triangle"]
    assert tower.stages[4].instance["mode"] == "surgery"
    for name, lifts in tower.catalog.items():
        th = weak_confluence_witness(tower, lifts[0])
        for n in range(1, tower.depth + 1):
            assert tower.stages[n].bonding.image_of(th.sets[n]) == th.sets[n - 1], name


def test_built_catalog_is_the_weak_confluence_thread(tmp_path):
    # build_tower threads its catalog with weak_confluence_witness, so the
    # thread recomputed on the reloaded tower is the saved catalog
    save_tower(steered_crooked_tower(4), str(tmp_path / "t"))
    loaded = load_tower(str(tmp_path / "t"))
    assert sorted(loaded.catalog) == ["left", "whole"]
    for name, sets in loaded.catalog.items():
        assert weak_confluence_witness(loaded, sets[0]).sets == sets, name


def deep_tower(depth):
    # the tower-deep benchmark's base and catalog, its point at 3/16, along
    # the default schedules (its diagonal ones enumerate the same triples)
    g = seg()
    interval = lambda lo, hi: ClosedSet(g, {"seg": [(lo, hi)]}, set())  # noqa: E731
    base = {
        "p": interval(F(0), F(1, 4)), "q": interval(F(3, 4), F(1)), "r": interval(F(3, 8), F(5, 8)),
        "left": interval(F(0), F(1, 2)), "right": interval(F(1, 2), F(1)),
        "mid": interval(F(1, 4), F(1, 2)), "pt": g.point_closed_set([("e", "seg", F(3, 16))]),
    }
    return build_tower(g, base, {"whole": g.whole_set(), "mid": base["mid"]}, depth)


@pytest.mark.parametrize("make", [lambda: steered_crooked_tower(4), lambda: deep_tower(8)],
                         ids=["steered-crooked-4", "deep-8"])
def test_tower_directory_round_trips_sharing_graphs_and_sets(make, tmp_path, monkeypatch):
    # save -> load -> save writes the same bytes; the loaded tower shares a
    # graph between stages n-1 and n exactly where the built one does, and
    # reads each distinct closed-set entry once per graph, over its stage
    # files and the catalog
    tower = make()
    first, second = tmp_path / "first", tmp_path / "second"
    save_tower(tower, str(first))
    read = []
    from_dict = ClosedSet.from_dict

    def counting(graph, spec, *args):
        read.append((id(graph), json.dumps(spec, sort_keys=True)))
        return from_dict(graph, spec, *args)

    monkeypatch.setattr(ClosedSet, "from_dict", staticmethod(counting))
    loaded = load_tower(str(first))
    monkeypatch.undo()
    save_tower(loaded, str(second))
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def kept(t):
        return [t.graph(n) is t.graph(n - 1) for n in range(1, t.depth + 1)]

    assert kept(loaded) == kept(tower)
    trace = json.loads((first / "trace.json").read_text())
    distinct: dict[int, set] = {}
    for n in range(tower.depth + 1):
        stage = json.loads((first / f"stage{n}.json").read_text())
        specs = [*stage["closed_sets"].values(), *(sets[n] for sets in trace["catalog"].values())]
        distinct.setdefault(id(loaded.graph(n)), set()).update(
            json.dumps(spec, sort_keys=True) for spec in specs)
    assert len(read) == len(set(read))
    assert set(read) == {(g, spec) for g, specs in distinct.items() for spec in specs}


def test_a_loaded_tower_shares_sets_across_stages_that_keep_a_graph(tmp_path, shortcut_tower):
    tower = shortcut_tower(8)
    assert [st.kind for st in tower.stages[1:]] == ["shortcut"] * 8
    assert all(tower.graph(n) is tower.graph(0) for n in range(9))
    save_tower(tower, str(tmp_path / "t"))
    loaded = load_tower(str(tmp_path / "t"))
    last = loaded.base(8)
    assert len({id(s) for s in last.values()}) == len(set(last.values())) < len(last)
    # a stage binds every name of the one before to the same object, and a
    # catalog set equal to a base set is that set
    for n in range(1, 9):
        assert all(loaded.base(n)[name] is s for name, s in loaded.base(n - 1).items())
    assert all(loaded.catalog["mid"][n] is loaded.base(n)["mid"] for n in range(9))
    assert verify_tower(loaded) == verify_tower(tower)


def test_a_loaded_tower_shares_the_identity_and_verify_indexes_nothing(tmp_path, fibre_builds,
                                                                      shortcut_tower):
    # every stage of the shortcut tower keeps its graph; loaded, each bonds
    # by the graph's one identity, so verify builds no pullback index, and
    # the threads it lifts are the sets `lift_through` finds through the
    # same entries on the general path
    tower = shortcut_tower(8)
    save_tower(tower, str(tmp_path / "t"))
    loaded = load_tower(str(tmp_path / "t"))
    g = loaded.graph(0)
    assert all(loaded.graph(n) is g and loaded.stages[n].bonding is PLMap.identity(g) for n in range(1, 9))
    report = verify_tower(loaded)
    assert report and all(ok for _, ok in report), [r for r in report if not r[1]]
    assert fibre_builds == []
    general = PLMap.from_dict(g, g, PLMap.identity(g).to_dict())
    for sets in loaded.catalog.values():
        thread = weak_confluence_witness(loaded, sets[0]).sets
        assert thread == sets
        for n in range(1, 9):
            st = dataclasses.replace(loaded.stages[n], bonding=general)
            assert thread[n] == lift_through(st, thread[n - 1], general.preimage_of(thread[n - 1]))


UNCHANGED_MODES = {"noop": None, "vacuous": "vacuous", "shortcut": "shortcut", "identity": "existing-cover"}


def test_stages_without_surgery_keep_graph_and_base():
    # a stage that runs no surgery is the scheduler's fresh stage, which
    # the instance step joins or leaves noop: the previous graph under its
    # one identity bonding, every previous name bound to the same object,
    # and the instance mode that matches its kind
    g, sets = load_graph(str(Path(__file__).resolve().parents[1] / "inputs" / "segment.json"))
    two = seg()
    towers = [
        steered_crooked_tower(6),
        build_tower(g, sets, {"whole": g.whole_set()}, 8),
        build_tower(two, {k: v for k, v in base_family(two).items() if k != "r"}, {}, 6),
    ]
    seen = set()
    for tower in towers:
        for prev, stage in zip(tower.stages, tower.stages[1:]):
            if stage.kind not in UNCHANGED_MODES:
                assert stage.kind in ("triangle", "crooked")
                continue
            seen.add(stage.kind)
            assert stage.graph is prev.graph
            assert stage.bonding is PLMap.identity(prev.graph)
            assert all(stage.base[nm] is s for nm, s in prev.base.items())
            mode = UNCHANGED_MODES[stage.kind]
            if mode is None:
                assert stage.instance is None and stage.base.keys() == prev.base.keys()
            else:
                assert stage.instance["mode"] == mode
    assert seen == set(UNCHANGED_MODES)


def test_scheduled_operands_are_pullbacks_of_their_stage_k_sets():
    # the scheduler reads each operand from the stage n-1 base; pulling the
    # stage-k set back through the composed bonding must give the same set
    tower = steered_crooked_tower(6)
    assert {"crooked", "identity", "triangle"} <= {st.kind for st in tower.stages}
    gaps = set()
    for inst in tower.instances():
        n, k = inst["stage"], inst["schedule"][0]
        gaps.add(n - 1 - k)
        for nm in inst["operands"]:
            want = tower.base(k)[nm]
            if k < n - 1:
                want = tower.composed_map(n - 1, k).preimage_of(want)
            assert tower.base(n - 1)[nm] == want, (n, k, nm)
    assert max(gaps) >= 2


# ------------------------------------------------- oracles of PLMap.then
# A directory stores single bondings only, so every composite f^n_m is
# rebuilt by `PLMap.then`; functoriality is a property of `then`, checked
# here, not a line of `verify_tower`.

def composed_maps(tower):
    """A fresh table {(n, m): f^n_m} for every 0 <= m < n <= depth, in
    C(depth, 2) `then` calls.  Each entry extends the one above it by a
    single bonding, in the fold order of `Tower.composed_map`, so the maps
    are identical to its results."""
    table = {}
    for n in range(1, tower.depth + 1):
        out = tower.stages[n].bonding
        table[n, n - 1] = out
        for m in range(n - 2, -1, -1):
            out = out.then(tower.stages[m + 1].bonding)
            table[n, m] = out
    return table


def table_agrees_pointwise(tower, table):
    """Whether every `table[n, m]` is the composite b_{m+1} o ... o b_n of
    the single bondings, decided by point evaluation, not by composing maps.

    A `PLMap` is affine or constant on each whole domain edge, so two maps
    out of G_n are equal iff they agree at every vertex of G_n and at the
    midpoint of every edge: the ends fix a constant entry and the ends of an
    affine one, and the midpoint fixes which codomain edge an affine entry
    runs along (on a theta graph, parallel edges share their end images).
    Graphs have no loops and entries are normal, so this is `to_dict`
    equality.  The points of G_n are pushed through b_n, ..., b_1 one stage
    at a time and compared with `table[n, m]` at every m: O(N^2) point
    evaluations per point instead of O(N^3) compositions."""
    for n in range(1, tower.depth + 1):
        g = tower.graph(n)
        points = [("v", v) for v in g.vertices]
        points += [("e", eid, e.length / 2) for eid, e in g.edges.items()]
        images = points
        for m in range(n - 1, -1, -1):
            images = [tower.stages[m + 1].bonding.image_point(p) for p in images]
            f = table[n, m]
            if any(f.image_point(p) != q for p, q in zip(points, images)):
                return False
    return True


def triples_compose(table, N):
    """Whether f^n_m equals f^mid_m after f^n_mid for every m < mid < n, by
    composing maps."""
    return all(
        table[n, m].to_dict() == table[n, mid].then(table[mid, m]).to_dict()
        for n in range(2, N + 1) for mid in range(1, n) for m in range(mid)
    )


def test_composed_maps_table_matches_composed_map():
    tower = steered_crooked_tower(3)
    assert [st.kind for st in tower.stages[1:]] == ["crooked", "identity", "crooked"]
    table = composed_maps(tower)
    N = tower.depth
    assert sorted(table) == [(n, m) for n in range(1, N + 1) for m in range(n)]
    for (n, m), f in table.items():
        assert f.to_dict() == tower.composed_map(n, m).to_dict()
    assert table_agrees_pointwise(tower, table) and triples_compose(table, N)


def test_verify_tower_composes_no_maps(monkeypatch):
    # every line reads single bondings; no composite is built
    g = seg()
    tower = build_tower(g, base_family(g), {}, 8)
    calls = []
    then = PLMap.then

    def counting_then(self, other):
        calls.append(1)
        return then(self, other)

    monkeypatch.setattr(PLMap, "then", counting_then)
    report = verify_tower(tower)
    assert report and all(ok for _, ok in report), [r for r in report if not r[1]]
    assert calls == []


def test_verify_tower_then_calls_are_quadratic(monkeypatch):
    # verify_tower plus the whole composite table of its oracles stay
    # within C(N, 2) `then` calls: the table takes exactly that, the
    # verifier none
    g = seg()
    N = 8
    tower = build_tower(g, base_family(g), {}, N)
    calls = []
    then = PLMap.then

    def counting_then(self, other):
        calls.append(1)
        return then(self, other)

    monkeypatch.setattr(PLMap, "then", counting_then)
    report = verify_tower(tower)
    assert report and all(ok for _, ok in report)
    assert len(calls) == 0
    table = composed_maps(tower)
    assert len(calls) == math.comb(N, 2) == len(table) - N


def test_verify_tower_indexes_no_composed_map(fibre_builds):
    # the base pull-back lines pay for preimage indexes of the single
    # bondings only; composites built beforehand stay unindexed
    tower = steered_crooked_tower(4)
    composites = [f for (n, m), f in composed_maps(tower).items() if n - m >= 2]
    assert composites
    report = verify_tower(tower)
    assert ("stage 1 base pulls back stage 0", True) in report
    assert all(ok for _, ok in report), [r for r in report if not r[1]]
    assert fibre_builds
    bondings = {id(st.bonding) for st in tower.stages[1:]}
    assert all(id(m) in bondings for m in fibre_builds)
    assert not any(id(f) in {id(m) for m in fibre_builds} for f in composites)


def _subdivide(h, pieces):
    """H with each edge cut into `pieces[eid]` equal edges."""
    vertices = list(h.vertices)
    edges = []
    for eid, e in h.edges.items():
        k = pieces[eid]
        ends = [e.u, *(f"{eid}.{i}" for i in range(1, k)), e.v]
        vertices += ends[1:-1]
        edges += [Edge(f"{eid}.{i}", ends[i], ends[i + 1], e.length / k) for i in range(k)]
    return MetricGraph(vertices, edges)


def _zigzag(draw, g, h, pieces):
    """A random map from `g = _subdivide(h, pieces)` to H: the pieces of
    each edge of H run in turn along that edge, or along a parallel one,
    from its start to its end, folding back or resting on a point."""
    vmap = {v: ("v", v) for v in h.vertices}
    emap = {}
    for eid, e in h.edges.items():
        k = pieces[eid]
        target = draw(st.sampled_from(
            [f for f, d in h.edges.items() if (d.u, d.v) == (e.u, e.v)]
        ))
        L = h.edges[target].length
        s = [F(0), *(draw(st.integers(0, 4)) * L / 4 for _ in range(k - 1)), L]
        for i in range(k):
            if i:
                vmap[f"{eid}.{i}"] = h.point(target, s[i])
            emap[f"{eid}.{i}"] = (
                ("const", h.point(target, s[i])) if s[i] == s[i + 1]
                else ("affine", target, s[i], s[i + 1])
            )
    return PLMap(g, h, vmap, emap)


THETA = MetricGraph(["n", "s"], [Edge(f"e{i}", "n", "s", F(i)) for i in (1, 2, 3)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pointwise_functoriality_agrees_with_the_triple_oracle(data):
    draw = data.draw
    h = draw(st.sampled_from([unit_segment(), THETA]))
    stages = [Stage(h, None, {}, "base")]
    subdivisions = [None]
    for _ in range(draw(st.integers(2, 4))):
        h = stages[-1].graph
        pieces = {eid: draw(st.integers(1, 2)) for eid in h.edges}
        g = _subdivide(h, pieces)
        stages.append(Stage(g, _zigzag(draw, g, h, pieces), {}, "identity"))
        subdivisions.append(pieces)
    tower = Tower(stages, {})
    N = tower.depth
    table = composed_maps(tower)
    assert table_agrees_pointwise(tower, table) and triples_compose(table, N)
    # corrupt a composite entry: f^n_m rebuilt with one bonding b_k redrawn.
    # An entry (n, n - 1) is the bonding itself, which the triple identity
    # alone cannot pin down, so m < n - 1.
    n = draw(st.integers(2, N))
    m = draw(st.integers(0, n - 2))
    k = draw(st.integers(m + 1, n))
    bondings = [stage.bonding for stage in stages]
    bondings[k] = _zigzag(draw, tower.graph(k), tower.graph(k - 1), subdivisions[k])
    bad = bondings[n]
    for j in range(n - 1, m, -1):
        bad = bad.then(bondings[j])
    table[n, m] = bad
    intact = bad.to_dict() == tower.composed_map(n, m).to_dict()
    assert table_agrees_pointwise(tower, table) == triples_compose(table, N) == intact


def test_oracles_flag_a_non_functorial_table(steered4):
    # the flip of the segment after f^4_0: a different onto map between the
    # same two graphs
    g0 = steered4.graph(0)
    flip = PLMap(g0, g0, {"a": ("v", "b"), "b": ("v", "a")}, {"seg": ("affine", "seg", 1, 0)})
    table = composed_maps(steered4)
    assert table_agrees_pointwise(steered4, table) and triples_compose(table, 4)
    table[4, 0] = table[4, 0].then(flip)
    assert not table_agrees_pointwise(steered4, table)
    assert not triples_compose(table, 4)


def test_oracles_flag_a_composite_on_a_parallel_edge():
    # on a theta graph, f^2_0 with e2 sent along e1 instead of e3 agrees
    # with the composite at every vertex; only the midpoint of e2 tells the
    # two maps apart
    g = THETA
    rotate = PLMap(g, g, {"n": ("v", "n"), "s": ("v", "s")}, {
        "e1": ("affine", "e2", 0, 2), "e2": ("affine", "e3", 0, 3), "e3": ("affine", "e1", 0, 1),
    })
    tower = Tower(
        [Stage(g, None, {}, "base"), Stage(g, rotate, {}, "identity"),
         Stage(g, PLMap.identity(g), {}, "identity")],
        {},
    )
    table = composed_maps(tower)
    assert table_agrees_pointwise(tower, table) and triples_compose(table, 2)
    f = table[2, 0]
    table[2, 0] = skewed = PLMap(g, g, f.vertex_map, {**f.edge_map, "e2": ("affine", "e1", 0, 1)})
    assert all(skewed.image_point(("v", v)) == f.image_point(("v", v)) for v in g.vertices)
    assert not table_agrees_pointwise(tower, table)
    assert not triples_compose(table, 2)


def test_verify_steered_crooked_tower_without_closure(closure_calls):
    # six stages and five surgeries deep, the final graph has 33 edges;
    # closing its base sublattice for CONN(1) exceeds the 4096-element cap
    tower = steered_crooked_tower(6)
    assert [st.kind for st in tower.stages[1:]] == [
        "crooked", "identity", "crooked", "triangle", "crooked", "triangle",
    ]
    closure_calls.clear()
    report = verify_tower(tower)
    assert report and all(ok for _, ok in report), [r for r in report if not r[1]]
    assert report[-1] == ("CONN(1) on the stage-6 base sublattice", True)
    assert closure_calls == []


def test_catalog_members_must_be_connected():
    g = seg()
    bad = ClosedSet(g, {"seg": [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]}, set())
    with pytest.raises(PreconditionError):
        build_tower(g, base_family(g), {"bad": bad}, 1)


@pytest.mark.parametrize("vertices, edges", [
    (["a", "b", "c", "d"], [Edge("ab", "a", "b", F(1)), Edge("cd", "c", "d", F(1))]),
    (["a", "b", "c"], [Edge("ab", "a", "b", F(1))]),
], ids=["two-components", "isolated-vertex"])
def test_drivers_need_a_connected_base(vertices, edges):
    g = MetricGraph(vertices, edges)
    with pytest.raises(PreconditionError, match="connected"):
        build_tower(g, {}, {}, 1)
    with pytest.raises(PreconditionError, match="connected"):
        witness_fragment([], g, {})


# ------------------------------------------------------ negative controls
# Each control corrupts a copy of a tower that verifies and checks that
# exactly the expected `verify_tower` lines go red, and no others.

@pytest.fixture(scope="module")
def steered4():
    return steered_crooked_tower(4)


def _red_lines(tower, clean):
    report = verify_tower(tower)
    assert [label for label, _ in report] == [label for label, _ in verify_tower(clean)]
    return [label for label, ok in report if not ok]


def test_control_tower_is_green(steered4):
    assert _red_lines(steered4, steered4) == []


def _rebound(tower, n, name, to):
    """A copy of `tower` whose stage n binds `name` to the set of `to`."""
    stages = list(tower.stages)
    stages[n] = dataclasses.replace(stages[n], base={**stages[n].base, name: stages[n].base[to]})
    return Tower(stages, tower.catalog)


def _shrunk_thread(tower):
    """A copy of `tower` whose stage-2 `left` loses half its first interval."""
    lifts = list(tower.catalog["left"])
    s = lifts[2]
    eid = min(s.intervals)
    (lo, hi), *rest = s.intervals[eid]
    lifts[2] = ClosedSet(s.graph, {**s.intervals, eid: [(lo, (lo + hi) / 2), *rest]}, s.vertices)
    assert lifts[2].is_subset_of(s) and lifts[2] != s
    return Tower(tower.stages, {**tower.catalog, "left": lifts})


def _disconnected_thread(tower):
    """Copies of `tower` cataloguing k = [0, 3/8]: clean, its weak-confluence
    thread; bad, its full preimages, which have exact images but split into
    components."""
    k = ClosedSet(tower.graph(0), {"seg": [(F(0), F(3, 8))]}, set())
    preimages = [k]
    for stage in tower.stages[1:]:
        preimages.append(stage.bonding.preimage_of(preimages[-1]))
    assert [len(s.graph.components_of(s)) for s in preimages] == [1, 2, 2, 5, 5]
    clean = Tower(tower.stages, {**tower.catalog, "k": weak_confluence_witness(tower, k).sets})
    return Tower(tower.stages, {**tower.catalog, "k": preimages}), clean


def test_verify_tower_flags_a_rebound_witness(steered4):
    bad = _rebound(steered4, 1, "w1.x", "w1.z")
    m = list(theta_candidates(steered4.base(0))).index(STAIRCASE_QUAD)
    # stage 2 binds the pullback of the original w1.x, not of w1.z
    assert _red_lines(bad, steered4) == [
        f"stage 1 theta schedule={[0, m]} at stage 1", "stage 2 base pulls back stage 1",
    ]


def test_verify_tower_flags_a_rebound_witness_on_one_graph(shortcut_tower):
    # every stage shares graph 0 and so one arrangement; stage 3's line at
    # stage 3 must still read the set stage 3 binds to w3.z, not the one
    # stage 6 binds under the same name, which keeps its line at stage 6 green
    clean = shortcut_tower(6)
    bad = _rebound(clean, 3, "w3.z", "p")
    assert _red_lines(bad, clean) == [
        "stage 3 theta schedule=[0, 1] at stage 3", "stage 4 base pulls back stage 3",
    ]


def test_verify_tower_flags_a_shrunk_thread_set(steered4):
    assert _red_lines(_shrunk_thread(steered4), steered4) == ["thread left exact images"]


def test_verify_tower_flags_a_disconnected_thread(steered4, tmp_path, capsys):
    bad, clean = _disconnected_thread(steered4)
    assert _red_lines(bad, clean) == ["thread k exact images"]
    save_tower(bad, str(tmp_path / "t"))
    assert main(["tower-verify", str(tmp_path / "t")]) == 1
    assert "FAIL: thread k exact images" in capsys.readouterr().out


def disconnected_base_tower():
    g = MetricGraph(
        ["a", "b", "c", "d"], [Edge("ab", "a", "b", F(1)), Edge("cd", "c", "d", F(1))]
    )
    left = ClosedSet(g, {"ab": [(F(0), F(1))]}, set())
    right = ClosedSet(g, {"cd": [(F(0), F(1))]}, set())
    return Tower([Stage(g, None, {"left": left, "right": right}, "base")], {"left": [left]})


def test_verify_tower_flags_a_disconnected_base():
    assert verify_tower(disconnected_base_tower()) == [
        ("thread left exact images", True),
        ("CONN(1) on the stage-0 base sublattice", False),
    ]


# ------------------------------------------- one arrangement per stage graph
# `verify_tower` decides its instance lines and CONN(1) on one arrangement
# per stage graph.  The path it replaced, one extraction per line over that
# line's own sets, stays here as the oracle.

BENCH = _load("workloads").WORKLOADS
LIB = SimpleNamespace(metric_graph=metric_graph, tower=tower_module)


def bench_tower(name, key, directory):
    """The tower a tower benchmark verifies for `key`: built, saved to
    `directory` and loaded back."""
    workload = BENCH[name]
    workload.produce(LIB, workload.prepare(LIB, None, key), str(directory), lambda _: nullcontext())
    return load_tower(str(directory))


def _per_line(tower):
    """The instance lines and CONN(1), each decided on its own extraction."""
    N = tower.depth
    lines = []
    for n, st in enumerate(tower.stages):
        if (inst := st.instance) is not None:
            for at in sorted({n, N}):
                sets = instance_sets(inst, tower.base(at))
                ok = sets is not None and verify_on_sublattice(GROUND[inst["kind"]], sets, tower.graph(at))
                lines.append((f"stage {n} {inst['kind']} schedule={inst['schedule']} at stage {at}", ok))
    conn = extract_sublattice(tower.graph(N), tower.base(N)).decide(LIBRARY["CONN1"])
    return lines + [(f"CONN(1) on the stage-{N} base sublattice", conn)]


TOWERS = {
    "shortcut-8": lambda s4, shortcut, tmp: shortcut(8),
    "shortcut-6-rebound": lambda s4, shortcut, tmp: _rebound(shortcut(6), 3, "w3.z", "p"),
    "steered4": lambda s4, shortcut, tmp: s4,
    "steered4-rebound": lambda s4, shortcut, tmp: _rebound(s4, 1, "w1.x", "w1.z"),
    "steered4-shrunk-thread": lambda s4, shortcut, tmp: _shrunk_thread(s4),
    "steered4-disconnected-thread": lambda s4, shortcut, tmp: _disconnected_thread(s4)[0],
    "tower-crooked": lambda s4, shortcut, tmp: bench_tower(
        "tower-crooked", BENCH["tower-crooked"].pool()[0], tmp),
    "tower-deep": lambda s4, shortcut, tmp: bench_tower("tower-deep", BENCH["tower-deep"].pool()[0], tmp),
    "disconnected-base": lambda s4, shortcut, tmp: disconnected_base_tower(),
}


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_shared_arrangements_decide_as_one_extraction_per_line(name, steered4, shortcut_tower, tmp_path):
    tower = TOWERS[name](steered4, shortcut_tower, tmp_path)
    decided = [line for line in verify_tower(tower) if " at stage " in line[0] or line[0].startswith("CONN")]
    assert decided == _per_line(tower)


# tower-deep's count is not pinned: it is 1 only while its default
# schedule runs no surgery
@pytest.mark.parametrize("name, count", [("shortcut-8", 1), ("steered4", 2), ("tower-deep", None)])
def test_verify_tower_extracts_once_per_stage_graph(name, count, steered4, shortcut_tower, tmp_path,
                                                    monkeypatch):
    tower = TOWERS[name](steered4, shortcut_tower, tmp_path)
    calls = []
    extract = metric_graph.extract_sublattice
    for module in (tower_module, surgery):   # `verify_on_sublattice` calls it through surgery
        monkeypatch.setattr(module, "extract_sublattice",
                            lambda graph, *args, **kw: calls.append(graph) or extract(graph, *args, **kw))
    verify_tower(tower)
    # one extraction per distinct graph a line reads: steered4's stages 1-2
    # and 3-4 share a graph each, and stage 0, which has no instance, is read
    # by no line
    N = tower.depth
    read = {tower.graph(at) for n, st in enumerate(tower.stages) if st.instance for at in (n, N)}
    assert sorted(map(id, calls)) == sorted(map(id, read | {tower.graph(N)}))
    assert count is None or len(calls) == count
