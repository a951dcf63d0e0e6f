import json
import re
from fractions import Fraction as F

import pytest

from crooked.cli import main
from crooked.metric_graph import ClosedSet, dump_graph, unit_segment
from crooked.surgery import crooked_step


@pytest.fixture
def powerset2(tmp_path):
    path = tmp_path / "powerset2.json"
    path.write_text('{"ground": 2, "generators": {"a": [0], "b": [1]}}')
    return str(path)


@pytest.fixture
def chain3(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text('{"ground": 2, "generators": {"g0": [0], "g1": [0, 1]}}')
    return str(path)


@pytest.fixture
def trivial(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text('{"ground": 1, "generators": {}}')
    return str(path)


@pytest.fixture
def segment_graph(tmp_path):
    g = unit_segment()
    sets = {
        "g0": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "g1": g.whole_set(),
    }
    path = tmp_path / "segment.json"
    path.write_text(dump_graph(g, sets))
    return str(path)


@pytest.fixture
def tower_graph(tmp_path):
    g = unit_segment()
    sets = {
        "p": ClosedSet(g, {"seg": [(F(0), F(1, 4))]}, set()),
        "q": ClosedSet(g, {"seg": [(F(3, 4), F(1))]}, set()),
        "mid": ClosedSet(g, {"seg": [(F(1, 4), F(1, 2))]}, set()),
    }
    path = tmp_path / "tower-base.json"
    path.write_text(dump_graph(g, sets))
    return str(path)


# ------------------------------------------------------------- lattice-check

def test_lattice_check_conn1_false(powerset2, capsys):
    code = main(["lattice-check", powerset2, "CONN1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: false" in out
    assert "counterexample x" in out


def test_lattice_check_disj_true(powerset2, capsys):
    assert main(["lattice-check", powerset2, "DISJ"]) == 0
    assert "verdict: true" in capsys.readouterr().out


def test_lattice_check_formula_with_generators(powerset2, capsys):
    assert main(["lattice-check", powerset2, "a ^ b = 0"]) == 0
    assert main(["lattice-check", powerset2, "a v b = 0"]) == 1


def test_lattice_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lattice-check", str(bad), "DISJ"]) == 2


def test_lattice_check_bad_formula(powerset2):
    assert main(["lattice-check", powerset2, "forall x. (x v"]) == 2


# ------------------------------------------------------------- wallman

def test_wallman_chain_homomorphic(chain3, capsys):
    assert main(["wallman", chain3]) == 0
    out = capsys.readouterr().out
    assert "points: 1" in out
    assert "homomorphic (not disjunctive)" in out


def test_wallman_powerset_isomorphic(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text('{"ground": 3, "generators": {"a": [0], "b": [1], "c": [2]}}')
    assert main(["wallman", str(path)]) == 0
    out = capsys.readouterr().out
    assert "points: 3" in out
    assert "representation: isomorphic" in out


def test_wallman_trivial_empty_space(trivial, capsys):
    assert main(["wallman", trivial]) == 0
    assert "points: 0" in capsys.readouterr().out


# ------------------------------------------------------------- sigma

def test_sigma_gen_deterministic(chain3, tmp_path):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    args = ["sigma-gen", "--base", chain3, "--stages", "10", "--budget", "8"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"S5" in out1.read_bytes()


def test_sigma_fragment_size_zero(chain3, tmp_path):
    out = tmp_path / "frag0.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "3", "--size", "0",
        "--out", str(out),
    ]) == 0
    body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert body == []


def test_sigma_witness_end_to_end(chain3, segment_graph, tmp_path, capsys):
    frag = tmp_path / "frag.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "5", "--size", "38",
        "--out", str(frag),
    ]) == 0
    assert " theta" not in frag.read_text()  # sanity: dump format only
    outdir = tmp_path / "model"
    code = main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", segment_graph, "--out", str(outdir),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all-true: True" in out
    report = (outdir / "report.txt").read_text()
    assert "FAIL" not in report
    theta_lines = [l for l in report.splitlines() if l.startswith("pass: S5")]
    assert theta_lines, "fragment must contain crookedness instances"
    # byte-identical rerun
    outdir2 = tmp_path / "model2"
    main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", segment_graph, "--out", str(outdir2),
    ])
    for name in ("model.json", "trace.json"):
        assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()


def _hat_fragment(chain3, tmp_path, catalog=(F(0), F(1, 4)), size=30):
    """A hat-mode fragment of `size` sentences, starting with the quantified
    hat-conn/hat-mono lines, and its graph, where the catalog constant
    k(-2,0) is the interval `catalog`."""
    g = unit_segment()
    sets = {
        "g0": ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set()),
        "g1": g.whole_set(),
        "k(-2,0)": ClosedSet(g, {"seg": [catalog]}, set()),
    }
    graph_path = tmp_path / "hat-graph.json"
    graph_path.write_text(dump_graph(g, sets))
    frag = tmp_path / "hat-frag.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "3", "--size", str(size),
        "--continuum-constants", "1", "--hat-size", "2", "--out", str(frag),
    ]) == 0
    return frag, graph_path


def test_sigma_witness_hat_mode(chain3, tmp_path, capsys):
    frag, graph_path = _hat_fragment(chain3, tmp_path)
    text = frag.read_text()
    assert "S-1^0" in text and "S-1^2" in text
    outdir = tmp_path / "hat-model"
    code = main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(outdir),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all-true: True" in out


def test_sigma_witness_malformed_fragment_exits_2(chain3, segment_graph, tmp_path, capsys):
    outdir = tmp_path / "model"
    for body in (
        "S1^9 0: k(-1,0) = 0\n",
        "S2 0: k(-1,0) ^ k(-1,1) = 0 -> "
        "k(-1,1) ^ k(2,0) = 0 & k(-1,0) ^ k(2,1) = 0 & k(2,0) v k(2,1) = 1\n",
    ):
        frag = tmp_path / "bad-frag.txt"
        frag.write_text("S0 0: k(-1,0) ^ k(-1,1) = k(-1,0)\n" + body)
        assert main([
            "sigma-witness", "--base", chain3, "--fragment", str(frag),
            "--graph", segment_graph, "--out", str(outdir),
        ]) == 2
        assert "line 2" in capsys.readouterr().err


def test_cap_only_where_it_is_read(chain3, tmp_path, capsys):
    out = tmp_path / "sigma.txt"
    assert main(["sigma-gen", "--base", chain3, "--stages", "1", "--out", str(out)]) == 0
    assert not any(l.startswith("# cap:") for l in out.read_text().splitlines())
    assert main(["lattice-check", chain3, "DISJ", "--cap", "1"]) == 2
    assert main(["sigma-gen", "--base", chain3, "--cap", "1"]) == 2


# ------------------------------------------------------------- towers

def test_tower_build_verify_thread(tower_graph, tmp_path, capsys):
    towerdir = tmp_path / "tower"
    code = main([
        "tower-build", "--graph", tower_graph, "--depth", "2",
        "--catalog", "whole,mid", "--out", str(towerdir),
    ])
    assert code == 0, capsys.readouterr().out
    names = {p.name for p in towerdir.iterdir()}
    assert {"stage0.json", "stage1.json", "stage2.json", "report.txt", "trace.json"} <= names
    assert "all-true: True" in (towerdir / "report.txt").read_text()
    capsys.readouterr()
    assert main(["tower-verify", str(towerdir)]) == 0
    capsys.readouterr()
    thread_out = tmp_path / "thread.json"
    assert main([
        "tower-thread", str(towerdir), "--set", "whole", "--out", str(thread_out),
    ]) == 0
    payload = json.loads(thread_out.read_text())
    assert len(payload["stages"]) == 3


def test_tower_verify_detects_corruption(tower_graph, tmp_path, capsys):
    towerdir = tmp_path / "tower"
    main([
        "tower-build", "--graph", tower_graph, "--depth", "2",
        "--catalog", "whole", "--out", str(towerdir),
    ])
    capsys.readouterr()
    trace_path = towerdir / "trace.json"
    trace = json.loads(trace_path.read_text())
    # corrupt the stage-1 thread witness
    trace["catalog"]["whole"][1] = {"vertices": ["a"]}
    trace_path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
    assert main(["tower-verify", str(towerdir)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: thread whole" in out


def test_internal_failures_exit_3(chain3, tower_graph, tmp_path, capsys):
    # a cap too small for the sublattice the quantified hat-mode lines close:
    # ResourceLimitError.  The fragment stops before the stage-1 meets and
    # joins, and k(-2,0) straddles g0's end, so the closure has to add
    # elements that no constant names.
    frag, graph_path = _hat_fragment(chain3, tmp_path, catalog=(F(1, 4), F(3, 4)), size=5)
    assert main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(tmp_path / "hat-model"), "--cap", "1",
    ]) == 3
    assert "element cap" in capsys.readouterr().err
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "2",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 0
    capsys.readouterr()
    # a bonding that is no longer onto: InvariantViolationError on threading
    (towerdir / "bonding1.json").write_text(json.dumps({
        "vertex_map": {"a": {"v": "a"}, "b": {"e": "seg", "t": "1/2"}},
        "edge_map": {"seg": {"kind": "affine", "edge": "seg", "s0": "0/1", "s1": "1/2"}},
    }))
    assert main(["tower-thread", str(towerdir), "--set", "whole"]) == 3
    assert "maps onto" in capsys.readouterr().err



def test_tower_thread_takes_no_cap(chain3, segment_graph, tower_graph, tmp_path, capsys):
    # only sigma-witness closes a lattice, so only its report prints the cap
    frag = tmp_path / "frag.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "1", "--size", "4",
        "--out", str(frag),
    ]) == 0
    assert main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", segment_graph, "--out", str(tmp_path / "model"),
    ]) == 0
    assert "cap: 4096" in capsys.readouterr().out
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "1",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 0
    assert "cap:" not in capsys.readouterr().out
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "1",
        "--catalog", "whole", "--cap", "1", "--out", str(towerdir),
    ]) == 2
    assert main(["tower-verify", str(towerdir), "--cap", "1"]) == 2
    assert main(["tower-thread", str(towerdir), "--set", "whole", "--cap", "1"]) == 2


# ------------------------------------------------------------- render

def test_render_unit_segment(segment_graph, tmp_path):
    out = tmp_path / "seg.svg"
    assert main(["render", "--graph", segment_graph, "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    edges = re.findall(r'<line [^>]*stroke="#555555"', svg)
    assert len(edges) == 1


def test_render_crooked_output_zigzag(tmp_path):
    g = unit_segment()
    a = g.point_closed_set([("v", "a")])
    b = g.point_closed_set([("v", "b")])
    c = ClosedSet(g, {"seg": [(F(0), F(1, 2))]}, set())
    d = ClosedSet(g, {"seg": [(F(1, 2), F(1))]}, set())
    step = crooked_step(g, a, b, c, d, {})
    path = tmp_path / "staircase.json"
    path.write_text(dump_graph(step.output_graph, {}))
    out = tmp_path / "staircase.svg"
    assert main(["render", "--graph", str(path), "--out", str(out)]) == 0
    svg = out.read_text()
    structural = re.findall(r'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)" stroke="#555555"', svg)
    assert len(structural) == 5
    # the five segments alternate vertical and horizontal: a zigzag silhouette
    orientations = []
    for x1, y1, x2, y2 in structural:
        orientations.append("v" if x1 == x2 else "h")
    assert sorted(orientations) == ["h", "h", "v", "v", "v"]
    # deterministic snapshot
    out2 = tmp_path / "staircase2.svg"
    main(["render", "--graph", str(path), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_render_requires_input():
    assert main(["render"]) == 2


def test_unknown_command_usage_error():
    assert main(["nope"]) == 2
