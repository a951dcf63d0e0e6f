"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -rA tests/test_acceptance.py` to see every line.
"""

import itertools
import json
import random
import re
import time
from fractions import Fraction as F

from crooked.cli import main
from crooked.folang import (
    Const, Eq, Join, LIBRARY, Meet, Zero, eval_bruteforce, eval_formula, psi, zeta,
)
from crooked.lattice import generate_sublattice
from crooked.metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, dump_graph, unit_segment,
)
from crooked.surgery import (
    check_monotone, crooked_step, surgery_with_nudges, verify_on_sublattice,
)
from crooked.tower import (
    search_dim_cover, search_her_indec_cover, weak_confluence_witness,
)
from test_folang import random_sentence, random_sublattice


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# --------------------------------------------------------------------------
# 1. Evaluator soundness
# --------------------------------------------------------------------------

def test_acceptance_1_evaluator_soundness():
    start = time.monotonic()
    rng = random.Random(0xACCE551)
    disagreements = 0
    for _ in range(500):
        lat = random_sublattice(rng)
        consts = ["p", "q"]
        interp = {c: lat.elements[rng.randrange(lat.size)] for c in consts}
        f = random_sentence(rng, lat.size, consts, budget=1200)
        if eval_formula(f, lat, interp).value != eval_bruteforce(f, lat, interp):
            disagreements += 1
    elapsed = time.monotonic() - start
    _report(
        1, "evaluator soundness",
        disagreements == 0 and elapsed < 60,
        f"500 cases, {disagreements} disagreements, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. Wallman correspondences
# --------------------------------------------------------------------------

def test_acceptance_2_wallman_correspondences():
    from crooked.wallman import is_hausdorff_like, wallman_space

    rng = random.Random(0xACCE552)
    mixed = [random_sublattice(rng, max_ground=6) for _ in range(25)]
    exceptions = 0
    for lat in mixed:
        _, hom = wallman_space(lat)
        injective = len(set(hom)) == lat.size
        if injective != eval_formula(LIBRARY["DISJ"], lat).value:
            exceptions += 1
    # The Hausdorff side of the representation theorem carries the
    # disjunctivity hypothesis; finite disjunctive lattices are full
    # powersets, sampled here with random atom counts.
    disjunctive = []
    while len(disjunctive) < 20:
        n = rng.randint(0, 5)
        pts = range(n)
        lat = generate_sublattice(
            pts, [frozenset(c) for r in range(n + 1) for c in itertools.combinations(pts, r)]
        )
        assert eval_formula(LIBRARY["DISJ"], lat).value
        disjunctive.append(lat)
    for lat in disjunctive:
        space, _ = wallman_space(lat)
        if eval_formula(LIBRARY["NORM"], lat).value != is_hausdorff_like(space):
            exceptions += 1
    _report(
        2, "wallman correspondences",
        exceptions == 0,
        f"{len(mixed)} mixed + {len(disjunctive)} disjunctive lattices, {exceptions} exceptions",
    )


# --------------------------------------------------------------------------
# 3 & 4 instance pools
# --------------------------------------------------------------------------

def _seg():
    return unit_segment()


def _y(lengths=(1, 1, 1)):
    return MetricGraph(
        ["c", "ta", "tb", "tc"],
        [
            Edge("la", "c", "ta", F(lengths[0])),
            Edge("lb", "c", "tb", F(lengths[1])),
            Edge("lc", "c", "tc", F(lengths[2])),
        ],
    )


def _theta():
    return MetricGraph(
        ["x", "y"],
        [Edge("e1", "x", "y", F(1)), Edge("e2", "x", "y", F(3, 2)), Edge("e3", "x", "y", F(2))],
    )


def _star4():
    return MetricGraph(
        ["o", "p1", "p2", "p3", "p4"],
        [Edge(f"s{i}", "o", f"p{i}", F(1)) for i in range(1, 5)],
    )


def triangle_instances():
    out = []
    g = _seg()
    out.append((g, g.point_closed_set([("v", "a")]), g.point_closed_set([("v", "b")]),
                g.point_closed_set([("e", "seg", F(1, 2))])))
    g = _y()
    out.append((g, g.point_closed_set([("v", "ta")]), g.point_closed_set([("v", "tb")]),
                g.point_closed_set([("v", "tc")])))
    g = _y((1, F(3, 2), 2))
    out.append((g, g.point_closed_set([("v", "ta")]), g.point_closed_set([("v", "tb")]),
                g.point_closed_set([("v", "tc")])))
    g = _theta()
    out.append((g, g.point_closed_set([("v", "x")]), g.point_closed_set([("v", "y")]),
                g.point_closed_set([("e", "e3", F(1))])))
    g = _star4()
    out.append((g, g.point_closed_set([("v", "p1")]), g.point_closed_set([("v", "p2")]),
                g.point_closed_set([("v", "p3")])))
    g = _seg()
    out.append((g,
                ClosedSet(g, {"seg": [(F(0), F(1, 8))]}, set()),
                ClosedSet(g, {"seg": [(F(7, 8), F(1))]}, set()),
                ClosedSet(g, {"seg": [(F(3, 8), F(5, 8))]}, set())))
    cyc = MetricGraph(
        ["A", "B", "C"],
        [Edge("ab", "A", "B", F(1)), Edge("bc", "B", "C", F(1)), Edge("ca", "C", "A", F(1))],
    )
    out.append((cyc, cyc.point_closed_set([("v", "A")]), cyc.point_closed_set([("v", "B")]),
                cyc.point_closed_set([("v", "C")])))
    rng = random.Random(0xACCE553)
    pool = [_seg, _y, _theta, _star4]
    while len(out) < 12:
        g = rng.choice(pool)()
        pts = []
        for eid, e in sorted(g.edges.items()):
            for k in range(1, 8):
                pts.append(("e", eid, e.length * k / 8))
        rng.shuffle(pts)
        sets = [g.point_closed_set([g.normalize_point(p)]) for p in pts[:3]]
        if any(s.is_empty() for s in sets):
            continue
        if not ((sets[0] & sets[1]) & sets[2]).is_empty():
            continue
        out.append((g, *sets))
    return out


def _run_triangle(graph, a, b, c, interp):
    step, bonding, _ = surgery_with_nudges("zeta", graph, [a, b, c])
    return step, {cid: bonding.preimage_of(s) for cid, s in interp.items()}


def test_acceptance_3_triangle_step():
    failures = []
    count = 0
    for idx, (graph, a, b, c) in enumerate(triangle_instances()):
        interp = {"a": a, "b": b, "c": c, "ab": a | b, "abc": (a | b) | c}
        prior = [
            Eq(Join(Const("a"), Const("b")), Const("ab")),
            Eq(Join(Join(Const("a"), Const("b")), Const("c")), Const("abc")),
            Eq(Meet(Meet(Const("a"), Const("b")), Const("c")), Zero()),
        ]
        for f in prior:
            assert verify_on_sublattice(f, interp, graph)
        step, lifted = _run_triangle(graph, a, b, c, interp)
        ok = step.bonding.is_surjective() and check_monotone(step)
        sets = {
            "a": lifted["a"],
            "b": lifted["b"],
            "c": lifted["c"],
            "x": step.witnesses["x"],
            "y": step.witnesses["y"],
            "z": step.witnesses["z"],
        }
        ground = zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))
        ok = ok and verify_on_sublattice(ground, sets, step.output_graph)
        for f in prior:
            ok = ok and verify_on_sublattice(f, lifted, step.output_graph)
        if not ok:
            failures.append(idx)
        count += 1
    _report(3, "triangle step", count >= 10 and not failures,
            f"{count} instances, failures={failures}")


def crooked_instances():
    out = []
    g = _seg()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    d = ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set())
    out.append(("identity", g, a, b, c, d, None))
    f_w = PLFunction(
        _seg(), {"seg": [(F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(0)), (F(1), F(1))]}
    )
    out.append(("w-shape", f_w.graph, f_w.graph.point_closed_set([("v", "a")]),
                f_w.graph.point_closed_set([("v", "b")]),
                f_w.graph.empty_set(), f_w.graph.empty_set(), f_w))
    f_v = PLFunction(
        _seg(),
        {"seg": [(F(0), F(0)), (F(1, 4), F(1)), (F(3, 8), F(2, 5)),
                 (F(1, 2), F(1)), (F(1), F(1))]},
    )
    out.append(("valley", f_v.graph, f_v.graph.point_closed_set([("v", "a")]),
                f_v.graph.point_closed_set([("v", "b")]),
                f_v.graph.empty_set(), f_v.graph.empty_set(), f_v))
    g = _star4()
    out.append(("star", g, g.point_closed_set([("v", "p1")]),
                g.point_closed_set([("v", "p2")]),
                ClosedSet(g, {"s3": [(F(1, 2), F(1))]}, set()),
                ClosedSet(g, {"s4": [(F(1, 2), F(1))]}, set()), None))
    g = _theta()
    out.append(("theta", g, g.point_closed_set([("v", "x")]),
                g.point_closed_set([("v", "y")]),
                g.empty_set(), g.empty_set(), None))
    rng = random.Random(0xACCE554)
    denom = 16
    while len(out) < 12:
        g = _seg()
        marks = sorted(rng.sample(range(1, denom), 4))
        a = g.point_closed_set([("v", "a")])
        b = g.point_closed_set([("v", "b")])
        c = ClosedSet(g, {"seg": [(F(0), F(marks[1], denom))]}, set())
        d = ClosedSet(g, {"seg": [(F(marks[1], denom), F(1))]}, set())
        out.append((f"random{len(out)}", g, a, b, c, d, None))
    return out


def _run_crooked(graph, a, b, c, d, f):
    interp = {"a": a, "b": b, "c": c, "d": d}
    if f is not None:
        # a given separating function pins the graph: no nudging
        step = crooked_step(graph, a, b, c, d, separating=f)
        bonding = step.bonding
    else:
        step, bonding, _ = surgery_with_nudges("theta", graph, [a, b, c, d])
    return step, {cid: bonding.preimage_of(s) for cid, s in interp.items()}


STEPS_FOR_ORACLE = []


def test_acceptance_4_crooked_step():
    failures = []
    count = 0
    identity_checked = False
    for name, graph, a, b, c, d, f in crooked_instances():
        step, lifted = _run_crooked(graph, a, b, c, d, f)
        sets = {
            "a": lifted["a"], "b": lifted["b"],
            "c": lifted["c"], "d": lifted["d"],
            "x": step.witnesses["x"], "y": step.witnesses["y"],
            "z": step.witnesses["z"],
        }
        ground = psi(*(Const(k) for k in ("a", "b", "c", "d", "x", "y", "z")))
        onto = [
            comp for comp in step.staircase_graph.components_of(step.staircase_graph.whole_set())
            if step.component_count == 1
            or True
        ]
        ok = verify_on_sublattice(ground, sets, step.output_graph)
        ok = ok and step.bonding.is_surjective()
        if name == "identity":
            identity_checked = (
                len(step.output_graph.edges) == 5
                and step.component_count == 1
                and step.separating.per_edge["seg"] == ((F(0), F(0)), (F(1), F(1)))
            )
            ok = ok and identity_checked
        if not ok:
            failures.append(name)
        STEPS_FOR_ORACLE.append((step, lifted))
        count += 1
    _report(4, "crooked step", count >= 10 and not failures and identity_checked,
            f"{count} instances, failures={failures}")


# --------------------------------------------------------------------------
# 5. Fragment witnessing
# --------------------------------------------------------------------------

def test_acceptance_5_fragment_witnessing(tmp_path):
    base_path = tmp_path / "chain3.json"
    base_path.write_text('{"ground": 2, "generators": {"g0": [0], "g1": [0, 1]}}')
    g = unit_segment()
    sets = {
        "g0": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "g1": g.whole_set(),
    }
    graph_path = tmp_path / "segment.json"
    graph_path.write_text(dump_graph(g, sets))
    frag_path = tmp_path / "frag.txt"
    assert main([
        "sigma-fragment", "--base", str(base_path), "--stages", "5",
        "--size", "38", "--out", str(frag_path),
    ]) == 0
    text = frag_path.read_text()
    has_zeta = any(l.startswith("S4") for l in text.splitlines())
    has_theta = any(l.startswith("S5") for l in text.splitlines())
    outs = []
    for tag in ("m1", "m2"):
        outdir = tmp_path / tag
        code = main([
            "sigma-witness", "--base", str(base_path), "--fragment", str(frag_path),
            "--graph", str(graph_path), "--out", str(outdir),
        ])
        outs.append((code, outdir))
    ok = has_zeta and has_theta and all(code == 0 for code, _ in outs)
    for name in ("model.json", "trace.json", "report.txt"):
        b1 = (outs[0][1] / name).read_bytes()
        b2 = (outs[1][1] / name).read_bytes()
        ok = ok and b1 == b2
    report = (outs[0][1] / "report.txt").read_text()
    ok = ok and "all-true: True" in report and "FAIL" not in report
    size = len([l for l in text.splitlines() if l and not l.startswith("#")])
    _report(5, "fragment witnessing", ok,
            f"size {size} fragment with dimension and crookedness instances, reruns identical")


# --------------------------------------------------------------------------
# 6. Tower theorem at desk scale
# --------------------------------------------------------------------------

def test_acceptance_6_tower(tmp_path):
    start = time.monotonic()
    g = unit_segment()
    sets = {
        "p": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
        "q": ClosedSet(g, {"seg": [(F(3, 4), F(1))]}, set()),
        "r": ClosedSet(g, {"seg": [(F(3, 8), F(5, 8))]}, set()),
        "left": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "right": ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set()),
        "mid": ClosedSet(g, {"seg": [(F(1, 4), F(1, 2))]}, set()),
        "pt": g.point_closed_set([("e", "seg", F(1, 3))]),
    }
    graph_path = tmp_path / "base.json"
    graph_path.write_text(dump_graph(g, sets))
    towerdir = tmp_path / "tower"
    catalog_names = ["whole", "left", "right", "mid", "pt"]
    code = main([
        "tower-build", "--graph", str(graph_path), "--depth", "6",
        "--catalog", ",".join(catalog_names), "--out", str(towerdir),
    ])
    report = (towerdir / "report.txt").read_text()
    instances_ok = code == 0 and "FAIL" not in report and "all-true: True" in report
    threads_ok = True
    from crooked.tower import load_tower
    tower = load_tower(str(towerdir))
    for name in catalog_names:
        thread_path = tmp_path / f"thread-{name}.json"
        if main(["tower-thread", str(towerdir), "--set", name,
                 "--out", str(thread_path)]) != 0:
            threads_ok = False
            continue
        payload = json.loads(thread_path.read_text())
        if len(payload["stages"]) != tower.depth + 1:
            threads_ok = False
        thread = weak_confluence_witness(
            tower,
            tower.graph(0).whole_set() if name == "whole" else tower.base(0)[name],
        )
        for n in range(1, tower.depth + 1):
            st = tower.stages[n]
            if st.bonding.image_of(thread.sets[n]) != thread.sets[n - 1]:
                threads_ok = False
    elapsed = time.monotonic() - start
    _report(6, "tower at depth 6",
            instances_ok and threads_ok and elapsed < 300,
            f"tower-build + 5 catalog threads, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. Cover-search oracle agreement
# --------------------------------------------------------------------------

def test_acceptance_7_cover_search_oracles():
    if not STEPS_FOR_ORACLE:
        test_acceptance_4_crooked_step()
    her_failures = []
    for i, (step, lifted) in enumerate(STEPS_FOR_ORACLE):
        la, lb = lifted["a"], lifted["b"]
        lc, ld = lifted["c"], lifted["d"]
        cover = search_her_indec_cover(step.output_graph, la, lb, lc, ld, cap=256)
        if cover is None:
            her_failures.append(i)
            continue
        x, y, z = cover
        sets = {"a": la, "b": lb, "c": lc, "d": ld, "x": x, "y": y, "z": z}
        ground = psi(*(Const(k) for k in ("a", "b", "c", "d", "x", "y", "z")))
        if not verify_on_sublattice(ground, sets, step.output_graph):
            her_failures.append(i)
    rng = random.Random(0xACCE557)
    dim_found = 0
    dim_tried = 0
    graphs = [_seg(), _theta(), _y()]
    while dim_tried < 20:
        g = rng.choice(graphs)
        pts = []
        for eid, e in sorted(g.edges.items()):
            for k in range(1, 10):
                pts.append(g.normalize_point(("e", eid, e.length * k / 10)))
        rng.shuffle(pts)
        chosen = []
        for p in pts:
            if len(chosen) == 6:
                break
            if p not in chosen:
                chosen.append(p)
        a = g.point_closed_set(chosen[0:2])
        b = g.point_closed_set(chosen[2:4])
        c = g.point_closed_set(chosen[4:6])
        if not ((a & b).is_empty() and (a & c).is_empty() and (b & c).is_empty()):
            continue
        dim_tried += 1
        cover = search_dim_cover(g, a, b, c, cap=256)
        if cover is None:
            continue
        x, y, z = cover
        sets = {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}
        ground = zeta(*(Const(k) for k in ("a", "b", "c", "x", "y", "z")))
        if verify_on_sublattice(ground, sets, g):
            dim_found += 1
    _report(
        7, "cover-search oracles",
        not her_failures and dim_found == dim_tried == 20,
        f"{len(STEPS_FOR_ORACLE)} crookedness covers, {dim_found}/{dim_tried} dimension covers",
    )


# --------------------------------------------------------------------------
# 8. Exactness and bit-identical pipeline
# --------------------------------------------------------------------------

def _assert_no_floats(value):
    if isinstance(value, float):
        raise AssertionError("float found in a serialized artifact")
    if isinstance(value, dict):
        for k, v in value.items():
            _assert_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            _assert_no_floats(v)


def _run_pipeline(tmp_path, tag):
    root = tmp_path / tag
    root.mkdir()
    base_path = root / "base.json"
    base_path.write_text('{"ground": 2, "generators": {"g0": [0], "g1": [0, 1]}}')
    g = unit_segment()
    sets = {
        "g0": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "g1": g.whole_set(),
        "p": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
        "q": ClosedSet(g, {"seg": [(F(3, 4), F(1))]}, set()),
    }
    graph_path = root / "graph.json"
    graph_path.write_text(dump_graph(g, sets))
    frag = root / "frag.txt"
    assert main(["sigma-fragment", "--base", str(base_path), "--stages", "5",
                 "--size", "30", "--out", str(frag)]) == 0
    model = root / "model"
    assert main(["sigma-witness", "--base", str(base_path), "--fragment", str(frag),
                 "--graph", str(graph_path), "--out", str(model)]) == 0
    tower = root / "tower"
    assert main(["tower-build", "--graph", str(graph_path), "--depth", "4",
                 "--catalog", "whole,p", "--out", str(tower)]) == 0
    assert main(["tower-thread", str(tower), "--set", "whole",
                 "--out", str(root / "thread.json")]) == 0
    assert main(["render", "--graph", str(model / "model.json"),
                 "--out", str(root / "model.svg")]) == 0
    return root


def test_acceptance_8_exactness_and_reruns(tmp_path):
    r1 = _run_pipeline(tmp_path, "run1")
    r2 = _run_pipeline(tmp_path, "run2")
    files1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (r1 / rel).read_bytes() == (r2 / rel).read_bytes() for rel in files1
    )
    exact = True
    for rel in files1:
        path = r1 / rel
        if path.suffix == ".json":
            _assert_no_floats(json.loads(path.read_text()))
        elif path.suffix == ".svg":
            numbers = re.findall(r'"(-?[\d.]+)"', path.read_text())
            if any("." in n for n in numbers):
                exact = False
    _report(8, "exactness and bit-identical reruns", identical and exact,
            f"{len(files1)} artifacts compared")
