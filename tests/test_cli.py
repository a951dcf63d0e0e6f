import hashlib
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from crooked import cli, surgery
from crooked.cli import main
from crooked.folang import LIBRARY, Const, print_formula, theta
from crooked.metric_graph import ClosedSet, dump_graph, load_graph, unit_segment
from crooked.render import render_svg
from crooked.surgery import crooked_step, triangle_step, witness_fragment


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


@pytest.fixture
def towerdir(tower_graph, tmp_path, capsys):
    """A depth-2 tower over `tower_graph` threading `whole`, built by the CLI."""
    out = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "2",
        "--catalog", "whole", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    return out


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


INPUTS = Path(__file__).parent.parent / "inputs"

# sha256 of stdout and the exit code of `lattice-check FILE NAME` for every
# library sentence, and of `wallman FILE`, on the bundled lattices: pins the
# verdicts and the printed witness/counterexample order.
CLI_DIGESTS = {
    ("chain3", "DISJ"): ("362af07fa2b9d97a8eda6f71e0321378699e9d28563ea6df44639cf2efcfef9a", 1),
    ("chain3", "DISJ_LITERAL"): ("0256d57cd71fe3908b7202a79bb2810d906c490e21ea3c72ed6e3d4051b26563", 0),
    ("chain3", "NORM"): ("7cb224484a55b1deb912d7ea909e88779d23865eadd412dd2886ea185c212c7e", 0),
    ("chain3", "CONN1"): ("24c03a1a1d9fdcd0a218485586aa6cf1ef3db455b08696f5e99781a0bc0cc9e4", 0),
    ("chain3", "DIM"): ("55cac1e58a4c4b71f2d72b0fd1f072c53c2be50f13ce4299da4db6679039d8c7", 0),
    ("chain3", "HI"): ("fb053f5bb6d3c8c2e6fb3bd1205a51a97f265393c0942ca7272ad77f4a0c641d", 0),
    ("chain3", "HI_LITERAL"): ("8e87801d68918d8b55c41d4e0a6426a851b157279f3dbcbc59b21f5efa230a80", 0),
    ("chain3", "wallman"): ("e7dbff56095ee7f10d5a108b3512df4e14b711d98ddd4fa0764e230fc2558240", 0),
    ("powerset2", "DISJ"): ("545a45ca4e84a4ed35a702b8508fc4b487604d746bc5a6a6dd9e34a5d3f5e22e", 0),
    ("powerset2", "DISJ_LITERAL"): ("0256d57cd71fe3908b7202a79bb2810d906c490e21ea3c72ed6e3d4051b26563", 0),
    ("powerset2", "NORM"): ("7cb224484a55b1deb912d7ea909e88779d23865eadd412dd2886ea185c212c7e", 0),
    ("powerset2", "CONN1"): ("82fe3bc954405152821422555095bf55020b1597e5ac8c42a2a5088938d086d5", 1),
    ("powerset2", "DIM"): ("55cac1e58a4c4b71f2d72b0fd1f072c53c2be50f13ce4299da4db6679039d8c7", 0),
    ("powerset2", "HI"): ("fb053f5bb6d3c8c2e6fb3bd1205a51a97f265393c0942ca7272ad77f4a0c641d", 0),
    ("powerset2", "HI_LITERAL"): ("8e87801d68918d8b55c41d4e0a6426a851b157279f3dbcbc59b21f5efa230a80", 0),
    ("powerset2", "wallman"): ("db5444292ba59c7d3ff8ae88a9002e8818445d5185618a44a70667834a10ff2e", 0),
}


def test_cli_verdicts_pinned_on_bundled_lattices(capsys):
    assert {name for _, name in CLI_DIGESTS} == {*LIBRARY, "wallman"}
    for (stem, name), expected in CLI_DIGESTS.items():
        path = str(INPUTS / f"{stem}.json")
        argv = ["wallman", path] if name == "wallman" else ["lattice-check", path, name]
        code = main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (digest, code) == expected, (stem, name)


def test_lattice_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lattice-check", str(bad), "DISJ"]) == 2


@pytest.mark.parametrize("generators", [["a"], []], ids=["names", "empty"])
def test_lattice_check_generators_must_be_an_object(tmp_path, capsys, generators):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": 1, "generators": generators}))
    assert main(["lattice-check", str(path), "DISJ"]) == 2
    assert "generators must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"ground": 2.7, "generators": {"a": [0]}},
    {"ground": True, "generators": {"a": [0]}},
    {"ground": 2, "generators": {"a": [True]}},
], ids=["fractional-ground", "boolean-ground", "boolean-point"])
def test_lattice_check_rejects_non_integer_values(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["lattice-check", str(path), "DISJ"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("argv, message", [
    (["sigma-fragment", "--stages", "1", "--size", "-1"], "fragment size -1 is negative"),
    (["sigma-gen", "--stages", "-3"], "stage count -3 is negative"),
    (["sigma-gen", "--stages", "2", "--axiom-cap", "-1"], "axiom cap -1 is negative"),
    (["sigma-gen", "--stages", "2", "--hat-size", "-1"], "hat size -1 is negative"),
], ids=["size", "stages", "axiom-cap", "hat-size"])
def test_sigma_negative_counts_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    base = str(INPUTS / "chain3.json")
    assert main([argv[0], "--base", base, *argv[1:], "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_sigma_witness_hat_mode(chain3, tmp_path, capsys, monkeypatch, closure_calls):
    # the quantified hat lines are decided by Birkhoff duality on the cell
    # masks: witness_fragment closes no lattice (loading the base file does)
    inside = []

    def counting(*args, **kwargs):
        before = len(closure_calls)
        result = witness_fragment(*args, **kwargs)
        inside.append(len(closure_calls) - before)
        return result

    monkeypatch.setattr(cli, "witness_fragment", counting)
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
    # k(-2,0) straddles g0's end, so only the hat-conn line's k(-2,0) ^ k(-1,0)
    # = k(-2,0) fails; its conn and the hat-mono lines hold
    frag, graph_path = _hat_fragment(chain3, tmp_path, catalog=(F(1, 4), F(3, 4)), size=5)
    code = main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(outdir),
    ])
    assert code == 1
    verdicts = [l.split(":")[0] for l in capsys.readouterr().out.splitlines()[2:-1]]
    assert verdicts == ["FAIL", "pass", "pass", "pass", "pass"]
    assert inside == [0, 0]


def test_sigma_witness_rejects_an_interpreted_hat_zero_constant(chain3, tmp_path, capsys):
    # the hat-zero line k(-2,1) = 0 binds k(-2,1); given in the graph file as
    # the whole segment, it used to come out empty in the model
    frag, graph_path = _hat_fragment(chain3, tmp_path)
    assert "S-1^2 0: k(-2,1) = 0" in frag.read_text()
    g, sets = load_graph(str(graph_path))
    sets["k(-2,1)"] = g.whole_set()
    graph_path.write_text(dump_graph(g, sets))
    outdir = tmp_path / "model"
    assert main([
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(outdir),
    ]) == 2
    assert "'k(-2,1)' is already bound" in capsys.readouterr().err
    assert not outdir.exists()


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


def test_sigma_witness_rejects_a_rebound_base_constant(tmp_path, capsys):
    # the meet's fresh name is the base constant k(-1,1) (g1, the whole
    # segment); rebound to g0 it would make a false sentence pass
    frag = tmp_path / "frag.txt"
    frag.write_text("S1^0 0: k(-1,0) ^ k(-1,1) = k(-1,1)\n")
    outdir = tmp_path / "model"
    assert main([
        "sigma-witness", "--base", str(INPUTS / "chain3.json"), "--fragment", str(frag),
        "--graph", str(INPUTS / "segment.json"), "--out", str(outdir),
    ]) == 2
    assert "'k(-1,1)'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("h_set, code", [
    ({"seg": [["3/4", "1/1"]], "vertices": ["b"]}, 2),
    ({"seg": [["0/1", "1/2"]], "vertices": ["a"]}, 0),
], ids=["different-set", "same-set"])
def test_sigma_witness_same_points_need_the_same_closed_set(tmp_path, capsys, h_set, code):
    # h has g0's points; the lattice keeps one element for both, so their
    # closed sets must agree or the report would never look at h's
    base = tmp_path / "base.json"
    base.write_text('{"ground": 2, "generators": {"g0": [0], "g1": [0, 1], "h": [0]}}')
    graph = json.loads((INPUTS / "segment.json").read_text())
    graph["closed_sets"]["h"] = h_set
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph))
    frag = tmp_path / "frag.txt"
    assert main([
        "sigma-fragment", "--base", str(base), "--stages", "1", "--size", "10",
        "--out", str(frag),
    ]) == 0
    outdir = tmp_path / "model"
    capsys.readouterr()
    assert main([
        "sigma-witness", "--base", str(base), "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(outdir),
    ]) == code
    captured = capsys.readouterr()
    if code:
        assert "'g0' and 'h'" in captured.err
        assert not outdir.exists()
    else:
        assert captured.out.endswith("all-true: True\n")


# ------------------------------------------------------------- sigma-witness
# negative controls: each corrupts one sentence kind of a fragment that runs
# no surgery (so no per-surgery re-check raises) and expects exactly that
# kind's satisfiable lines to turn FAIL

def _control_report(base, tmp_path, capsys, sets, fragment):
    """Run sigma-witness on `fragment` (a file path, or the lines of one) over
    `sets` on the unit segment; the exit code and the report's FAIL labels
    (stage token and index, e.g. "S2 0")."""
    g = unit_segment()
    graph_path = tmp_path / "control-graph.json"
    graph_path.write_text(dump_graph(g, {name: make(g) for name, make in sets.items()}))
    if not isinstance(fragment, str):
        path = tmp_path / "control-frag.txt"
        path.write_text("\n".join(fragment) + "\n")
        fragment = str(path)
    capsys.readouterr()
    code = main([
        "sigma-witness", "--base", base, "--fragment", fragment,
        "--graph", str(graph_path), "--out", str(tmp_path / "control-model"),
    ])
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"all-true: {code == 0}"
    trace = json.loads((tmp_path / "control-model" / "trace.json").read_text())
    assert trace == []  # no surgery ran
    return code, [line.split(": ")[1] for line in out if line.startswith("FAIL: ")]


def _interval(lo, hi):
    return lambda g: ClosedSet(g, {"seg": [(lo, hi)]}, set())


# chain3 in hat mode through stage 5: every sentence kind, and every dimension
# and crookedness instance resolves by a shortcut or a failed premise, since
# k(-2,1) and the bottom k(-1,2) are empty and the rest form a chain
CHAIN3_SETS = {"g0": _interval(F(0), F(1, 2)), "g1": lambda g: g.whole_set(),
               "k(-2,0)": _interval(F(0), F(1, 4))}


@pytest.fixture
def chain3_control(chain3, tmp_path):
    frag = tmp_path / "chain3-hat-frag.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "5", "--budget", "32", "--size", "96",
        "--continuum-constants", "1", "--hat-size", "2", "--out", str(frag),
    ]) == 0
    text = frag.read_text()
    for token in ("S-1^0 ", "S0 ", "S1^0 ", "S2 ", "S3^0 ", "S3^1 ", "S4 ", "S5 "):
        assert f"\n{token}" in text
    return chain3, str(frag)


# powerset2's atoms a and b as disjoint intervals, and a hat-conn line that
# bounds k(-2,0) by the top k(-1,3) = a v b; the diagram lines pin the top
POWERSET2_SETS = {"a": _interval(F(0), F(1, 4)), "b": _interval(F(3, 4), F(1)),
                  "k(-2,0)": _interval(F(0), F(1, 4))}
POWERSET2_FRAGMENT = [
    "S-1^0 0: (forall x y. x ^ y = 0 & x v y = k(-2,0) -> x = k(-2,0) | x = 0)"
    " & k(-2,0) ^ k(-1,3) = k(-2,0)",
    "S0 0: k(-1,0) ^ k(-1,1) = k(-1,2)",
    "S0 0: k(-1,0) v k(-1,1) = k(-1,3)",
]


def test_sigma_witness_controls_are_green(chain3_control, powerset2, tmp_path, capsys):
    base, frag = chain3_control
    assert _control_report(base, tmp_path, capsys, CHAIN3_SETS, frag) == (0, [])
    assert _control_report(powerset2, tmp_path, capsys, POWERSET2_SETS,
                           POWERSET2_FRAGMENT) == (0, [])


def test_sigma_witness_flags_a_broken_normal_cocover(chain3_control, tmp_path, capsys, monkeypatch):
    # empty co-covers fail exactly the normality lines whose pair is disjoint
    # (those with an empty member)
    monkeypatch.setattr(surgery, "normal_cocover", lambda g, mn, mx: (g.empty_set(), g.empty_set()))
    base, frag = chain3_control
    assert _control_report(base, tmp_path, capsys, CHAIN3_SETS, frag) == (
        1, ["S2 0", "S2 3", "S2 4", "S2 5", "S2 6", "S2 8", "S2 9"],
    )


def test_sigma_witness_flags_a_missing_disjunctivity_point(chain3_control, tmp_path, capsys,
                                                             monkeypatch):
    # an empty point fails exactly the disjunctivity lines whose big set is
    # not inside the small one
    monkeypatch.setattr(surgery, "disjunctivity_point", lambda g, big, small: g.empty_set())
    base, frag = chain3_control
    assert _control_report(base, tmp_path, capsys, CHAIN3_SETS, frag) == (
        1, ["S3^1 0", "S3^0 1", "S3^0 2", "S3^1 3", "S3^0 4", "S3^0 5", "S3^0 7", "S3^1 8",
            "S3^1 9"],
    )


def test_sigma_witness_flags_a_wrong_diagram(chain3_control, tmp_path, capsys):
    # a top generator short of the whole segment fails only the diagram line
    # that pins the top, k(-1,1) = 1
    base, frag = chain3_control
    sets = {**CHAIN3_SETS, "g1": _interval(F(0), F(3, 4))}
    assert _control_report(base, tmp_path, capsys, sets, frag) == (1, ["S0 1"])


def test_sigma_witness_flags_wrong_instance_witnesses(chain3_control, tmp_path, capsys,
                                                        monkeypatch):
    # empty shortcut witnesses fail exactly the dimension instances whose
    # premise holds; the crookedness instances all have a failed premise
    resolve = surgery.resolve_shortcut

    def emptied(kind, graph, ops):
        resolved = resolve(kind, graph, ops)
        if resolved is None:
            return None
        return resolved[0], (graph.empty_set(),) * 3

    monkeypatch.setattr(surgery, "resolve_shortcut", emptied)
    base, frag = chain3_control
    assert _control_report(base, tmp_path, capsys, CHAIN3_SETS, frag) == (
        1, ["S4 0", "S4 1", "S4 2", "S4 4", "S4 5", "S4 6", "S4 7", "S4 8", "S4 9"],
    )


def test_sigma_witness_flags_a_disconnected_hat_constant(powerset2, tmp_path, capsys):
    # k(-2,0) = a v b still lies under the top, but splits into the disjoint
    # lattice elements a and b: only the conn half of the hat-conn line fails
    sets = {**POWERSET2_SETS, "k(-2,0)": lambda g: ClosedSet(
        g, {"seg": [(F(0), F(1, 4)), (F(3, 4), F(1))]}, set())}
    assert _control_report(powerset2, tmp_path, capsys, sets, POWERSET2_FRAGMENT) == (
        1, ["S-1^0 0"],
    )


def test_sigma_witness_flags_a_hat_constant_no_named_set_splits(chain3_control, tmp_path,
                                                                 capsys):
    # k(-2,0) = [0, 1/8] u [3/16, 1/4] lies under g0 and no named set cuts
    # the gap, so it is one join-irreducible of the lattice; its own two
    # components still fail the hat-conn line
    base, frag = chain3_control
    sets = {**CHAIN3_SETS, "k(-2,0)": lambda g: ClosedSet(
        g, {"seg": [(F(0), F(1, 8)), (F(3, 16), F(1, 4))]}, set())}
    assert _control_report(base, tmp_path, capsys, sets, frag) == (1, ["S-1^0 0"])


# a hat-mode fragment whose one crookedness instance is the crooked identity
# instance on the unit segment (a, b its end vertices, c = [0, 1/2],
# d = [1/2, 1]; the top k(-1,5) is the whole segment), so it runs the
# staircase surgery; the staircase's full preimage of k(-2,0) = [2/5, 3/5]
# has three components, and the hat-conn line keeps it connected
CROOKED_BASE = {"ground": 4, "generators": {"a": [0], "b": [3], "c": [0, 1], "d": [1, 2, 3]}}
CROOKED_FRAGMENT = [
    "S-1^0 0: (forall x y. x ^ y = 0 & x v y = k(-2,0) -> x = k(-2,0) | x = 0)"
    " & k(-2,0) ^ k(-1,5) = k(-2,0)",
    "S5 0: " + print_formula(theta(*map(Const, (
        "k(-1,0)", "k(-1,1)", "k(-1,2)", "k(-1,3)", "k(5,0)", "k(5,1)", "k(5,2)")))),
]


def _surgering_report(tmp_path, capsys):
    """Run sigma-witness on CROOKED_FRAGMENT; the exit code, the report's
    FAIL labels and the trace's actions."""
    base = tmp_path / "crooked-base.json"
    base.write_text(json.dumps(CROOKED_BASE))
    g = unit_segment()
    sets = {
        "a": g.point_closed_set([("v", "a")]), "b": g.point_closed_set([("v", "b")]),
        "c": _interval(F(0), F(1, 2))(g), "d": _interval(F(1, 2), F(1))(g),
        "k(-2,0)": _interval(F(2, 5), F(3, 5))(g),
    }
    graph_path = tmp_path / "crooked-graph.json"
    graph_path.write_text(dump_graph(g, sets))
    frag = tmp_path / "crooked-frag.txt"
    frag.write_text("\n".join(CROOKED_FRAGMENT) + "\n")
    outdir = tmp_path / "crooked-model"
    capsys.readouterr()
    code = main([
        "sigma-witness", "--base", str(base), "--fragment", str(frag),
        "--graph", str(graph_path), "--out", str(outdir),
    ])
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"all-true: {code == 0}"
    trace = json.loads((outdir / "trace.json").read_text())
    fails = [line.split(": ")[1] for line in out if line.startswith("FAIL: ")]
    return code, fails, [t["action"] for t in trace]


def test_sigma_witness_surgering_control_is_green(tmp_path, capsys):
    assert _surgering_report(tmp_path, capsys) == (0, [], ["crooked"])


def test_sigma_witness_flags_a_disconnected_lift(tmp_path, capsys, monkeypatch):
    # a lift that keeps the whole preimage fails only the hat-conn line
    components = []

    def full_preimage(stage, s, pre):
        components.append(len(stage.graph.components_of(pre)))
        return pre

    monkeypatch.setattr(surgery, "lift_connected", full_preimage)
    assert _surgering_report(tmp_path, capsys) == (1, ["S-1^0 0"], ["crooked"])
    assert components == [3]


def test_cap_only_where_it_is_read(chain3, tmp_path, capsys):
    # no command closes a lattice to build or check a model, so none takes
    # --cap and no report prints one
    out = tmp_path / "sigma.txt"
    assert main(["sigma-gen", "--base", chain3, "--stages", "1", "--out", str(out)]) == 0
    assert not any(l.startswith("# cap:") for l in out.read_text().splitlines())
    assert main(["lattice-check", chain3, "DISJ"]) == 1   # a chain is not disjunctive
    assert "cap:" not in capsys.readouterr().out
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


def test_tower_build_negative_depth_exits_2(tower_graph, tmp_path, capsys):
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "-3",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 2
    assert "--depth -3" in capsys.readouterr().err
    assert not towerdir.exists()


def test_tower_build_rejects_an_input_named_like_a_witness(tmp_path, capsys):
    # stage 2 binds its witnesses as w2.x, w2.y, w2.z; an input set named
    # w2.x would be silently replaced in every later base
    graph = json.loads((INPUTS / "segment.json").read_text())
    graph["closed_sets"]["w2.x"] = graph["closed_sets"]["mid"]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", str(path), "--depth", "4",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 2
    assert "'w2.x'" in capsys.readouterr().err
    assert not towerdir.exists()


def test_tower_verify_detects_corruption(towerdir, tmp_path, capsys):
    trace_path = towerdir / "trace.json"
    trace = json.loads(trace_path.read_text())
    # corrupt the stage-1 thread witness: one vertex of stage 1 for all of it
    vertex = json.loads((towerdir / "stage1.json").read_text())["vertices"][0]
    trace["catalog"]["whole"][1] = {"vertices": [vertex]}
    trace_path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
    assert main(["tower-verify", str(towerdir)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: thread whole" in out


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _not_onto(towerdir):
    # bonding 2 sends seg onto [0, 1/2] only; the emptied catalog keeps the
    # thread line, whose images this also breaks, out of the report
    def half(bonding):
        bonding["edge_map"]["seg"]["s1"] = "1/2"
        bonding["vertex_map"]["b"] = {"e": "seg", "t": "1/2"}
    _edit_json(towerdir / "bonding2.json", half)
    _edit_json(towerdir / "trace.json", lambda trace: trace.update(catalog={}))


def _rebound_mid(towerdir):
    # stage 2 binds mid to [0, 1/8], not to the pullback of [1/4, 1/2]
    _edit_json(towerdir / "stage2.json", lambda stage: stage["closed_sets"].update(
        mid={"seg": [["0/1", "1/8"]], "vertices": ["a"]}))


def _stray_name(towerdir):
    # stage 1 binds zz, which is neither a stage-0 name nor a witness
    _edit_json(towerdir / "stage1.json", lambda stage: stage["closed_sets"].update(
        zz={"seg": [["0/1", "1/8"]], "vertices": ["a"]}))


def _repeated_witness(towerdir):
    # stage 1 names w1.x for two roles and binds no w1.y
    def repeat(trace):
        trace["stages"][1]["instance"]["witnesses"] = ["w1.x", "w1.x", "w1.z"]
    _edit_json(towerdir / "trace.json", repeat)
    for n in (1, 2):
        _edit_json(towerdir / f"stage{n}.json", lambda stage: stage["closed_sets"].pop("w1.y"))


@pytest.mark.parametrize("corrupt, red", [
    (_not_onto, ["stage 2 bonding onto", "stage 2 base pulls back stage 1"]),
    (_rebound_mid, ["stage 2 base pulls back stage 1"]),
    (_stray_name, ["stage 1 base pulls back stage 0", "stage 2 base pulls back stage 1"]),
    (_repeated_witness, ["stage 1 base pulls back stage 0"]),
], ids=["bonding-not-onto", "rebound-name", "stray-name", "repeated-witness"])
def test_tower_verify_flags_a_stage_that_is_no_pullback(tmp_path, capsys, corrupt, red):
    # each directory loads; only the named lines go red.  On the bundled
    # segment no stage-2 instance reads mid, so no instance line hides the
    # rebound name
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", str(INPUTS / "segment.json"), "--depth", "2",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 0
    capsys.readouterr()
    corrupt(towerdir)
    assert main(["tower-verify", str(towerdir)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line[len("FAIL: "):] for line in out if line.startswith("FAIL: ")] == red


def test_internal_failures_exit_3(towerdir, tmp_path, capsys):
    # a lattice file past the element cap: 13 singleton generators close to
    # the 8,192 subsets of 13 points, ResourceLimitError
    big = tmp_path / "powerset13.json"
    big.write_text(json.dumps({"ground": 13, "generators": {f"p{i:02}": [i] for i in range(13)}}))
    assert main(["lattice-check", str(big), "CONN1"]) == 3
    assert "element cap" in capsys.readouterr().err
    # a bonding that is no longer onto, stage 1 sent to one vertex of stage
    # 0: InvariantViolationError on threading
    stage1 = json.loads((towerdir / "stage1.json").read_text())
    point = {"v": json.loads((towerdir / "stage0.json").read_text())["vertices"][0]}
    (towerdir / "bonding1.json").write_text(json.dumps({
        "vertex_map": {v: point for v in stage1["vertices"]},
        "edge_map": {e["id"]: {"kind": "const", "point": point} for e in stage1["edges"]},
    }))
    assert main(["tower-thread", str(towerdir), "--set", "whole"]) == 3
    assert "maps onto" in capsys.readouterr().err


def test_tower_thread_takes_no_cap(chain3, segment_graph, tower_graph, tmp_path, capsys):
    # no report prints a cap: no command closes a lattice to build or check
    # a model
    frag = tmp_path / "frag.txt"
    assert main([
        "sigma-fragment", "--base", chain3, "--stages", "1", "--size", "4",
        "--out", str(frag),
    ]) == 0
    witness = [
        "sigma-witness", "--base", chain3, "--fragment", str(frag),
        "--graph", segment_graph, "--out", str(tmp_path / "model"),
    ]
    assert main(witness) == 0
    assert "cap:" not in capsys.readouterr().out
    assert main(witness + ["--cap", "1"]) == 2
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
    step = crooked_step(g, a, b, c, d)
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


@pytest.mark.parametrize("length, interval, bad", [
    ("x/2", ["0", "1/2"], "x/2"),
    ("1", ["0", "1/0"], "1/0"),
    # a JSON boolean is a Python int, but not a rational
    (True, ["0", "1/2"], "True"),
    ("1", [True, "1"], "True"),
    # exact, but too long to be written back
    ("1e5000", ["0", "1"], "'1e5000'"),
    ("1", ["1e-5000", "1"], "'1e-5000'"),
])
def test_render_malformed_rational_exits_2(tmp_path, capsys, length, interval, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": length}],
        "closed_sets": {"s": {"seg": [interval]}},
    }))
    assert main(["render", "--graph", str(path)]) == 2
    assert bad in capsys.readouterr().err


@pytest.mark.parametrize("closed_sets", [
    {"s": {"seg": [["0"]]}},
    {"s": {"seg": "01"}},
    ["s"],
    {"s": ["seg"]},
    {"s": {"vertices": "a"}},
    {"s": {"vertices": [["a"]]}},
])
def test_render_malformed_closed_sets_exit_2(tmp_path, capsys, closed_sets):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1"}],
        "closed_sets": closed_sets,
    }))
    assert main(["render", "--graph", str(path), "--out", str(tmp_path / "o.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("intervals, message", [
    ({"nope": [["0", "1"]]}, "unknown edge 'nope'"),
    ({"seg": [["1/2", "1/4"]]}, "inverted interval"),
    ({"seg": [["0", "3/2"]]}, "outside edge"),
    ({"seg": [["0", "1"]], "vertices": ["a", "z"]}, "unknown vertices"),
    ({"seg": [[False, "1"]]}, "not an exact rational: False"),
], ids=["unknown-edge", "inverted", "outside", "unknown-vertex", "boolean"])
def test_render_rejected_intervals_exit_2(tmp_path, capsys, intervals, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1"}],
        "closed_sets": {"s": intervals},
    }))
    assert main(["render", "--graph", str(path), "--out", str(tmp_path / "o.svg")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


def test_render_skips_a_fibre_hint_a_later_surgery_renamed():
    # a crooked surgery after a triangle surgery renames the fibre's edges
    # but keeps the hint; a hint is drawn only while the graph has its edges
    g = unit_segment()
    a, b = g.point_closed_set([("v", "a")]), g.point_closed_set([("v", "b")])
    tri = triangle_step(g, a, a, b)
    out = tri.output_graph
    assert render_svg(out).count('fill="none"') == 1
    step = crooked_step(
        out, tri.bonding.preimage_of(a), tri.bonding.preimage_of(b),
        out.empty_set(), out.empty_set(),
    )
    assert step.output_graph.meta["fibers"] and "fib0.A0" not in step.output_graph.edges
    svg = render_svg(step.output_graph)
    assert svg.startswith("<svg") and 'fill="none"' not in svg


@pytest.mark.parametrize("meta", [
    [1, 2],
    {"pos": {"a": 1, "b": 2}},
    {"fibers": 5},
], ids=["meta-list", "pos-numbers", "fibers-number"])
def test_render_malformed_meta_exits_2(tmp_path, capsys, meta):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1"}],
        "meta": meta,
    }))
    assert main(["render", "--graph", str(path), "--out", str(tmp_path / "o.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.svg").exists()


def test_render_string_vertices_exit_2(tmp_path, capsys):
    # a string is iterable, so "ab" would read as the vertices a and b
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": "ab",
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1"}],
    }))
    assert main(["render", "--graph", str(path), "--out", str(tmp_path / "o.svg")]) == 2
    assert "vertices must be a list of strings" in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("key", ["id", "u", "v"])
def test_render_non_string_edge_field_exit_2(tmp_path, capsys, key):
    # str() would read null as the name "None"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "seg", "u": "a", "v": "b", "len": "1", key: None}],
    }))
    assert main(["render", "--graph", str(path), "--out", str(tmp_path / "o.svg")]) == 2
    assert f"edge {key} must be a string, not None" in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


MALFORMED = "error: malformed "


def _first_affine(data):
    return next(entry for entry in data["edge_map"].values() if entry["kind"] == "affine")


@pytest.mark.parametrize("name, corrupt, message", [
    ("trace.json", lambda data: data.pop("depth"), MALFORMED),
    ("bonding1.json", lambda data: _first_affine(data).pop("edge"), MALFORMED),
    ("trace.json", lambda data: next(
        st["instance"] for st in data["stages"] if st["instance"]
    ).pop("operands"), MALFORMED),
    ("trace.json", lambda data: data["catalog"]["whole"].pop(), MALFORMED),
    # stage 1 holds a theta instance and stage 2 a zeta one
    ("trace.json", lambda data: data["stages"][2]["instance"].update(stage=9), MALFORMED),
    ("trace.json", lambda data: data["stages"][2]["instance"].update(stage=-1), MALFORMED),
    ("trace.json", lambda data: data["stages"][2]["instance"]["operands"].pop(), MALFORMED),
    ("trace.json", lambda data: data["stages"][2]["instance"]["witnesses"].pop(), MALFORMED),
    ("trace.json", lambda data: data["stages"][1]["instance"]["operands"].append("mid"), MALFORMED),
    # an entry of unknown kind used to be read as affine
    ("bonding1.json", lambda data: _first_affine(data).update(kind="bogus"),
     "error: unknown edge map kind 'bogus'"),
], ids=["trace-without-depth", "bonding-without-edge", "instance-without-operands",
        "catalog-too-short", "instance-stage-past-depth", "instance-stage-negative",
        "zeta-with-two-operands", "instance-with-two-witnesses", "theta-with-five-operands",
        "bonding-with-unknown-kind"])
def test_tower_verify_malformed_directory_exits_2(towerdir, tmp_path, capsys, name, corrupt, message):
    # a missing key is bad input (exit 2), not a false verification (exit 1)
    path = towerdir / name
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    assert main(["tower-verify", str(towerdir)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_tower_verify_rejects_a_discontinuous_bonding(towerdir, capsys):
    # s0 = 1/2 sends the end a of seg to the midpoint while the vertex map
    # keeps a at a: the map is torn there, which is bad input (exit 2)
    path = towerdir / "bonding1.json"
    data = json.loads(path.read_text())
    entry = data["edge_map"]["seg"]
    assert entry["kind"] == "affine" and entry["s0"] == "0/1"
    entry["s0"] = "1/2"
    path.write_text(json.dumps(data))
    assert main(["tower-verify", str(towerdir)]) == 2
    assert "edge map discontinuous at edge 'seg'" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [True, -1], ids=["boolean", "negative"])
def test_tower_verify_rejects_a_bad_depth(tower_graph, tmp_path, capsys, depth):
    # `true` read as depth 1 and verified, -1 crashed `verify_tower`
    towerdir = tmp_path / "tower"
    assert main([
        "tower-build", "--graph", tower_graph, "--depth", "1",
        "--catalog", "whole", "--out", str(towerdir),
    ]) == 0
    capsys.readouterr()
    path = towerdir / "trace.json"
    data = json.loads(path.read_text())
    data["depth"] = depth
    path.write_text(json.dumps(data))
    assert main(["tower-verify", str(towerdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed tower directory {towerdir}: depth {depth!r}\n")


@pytest.mark.parametrize("resize, count", [
    (lambda stages: stages.extend([{"nudges": "junk"}] * 2), 5),
    (lambda stages: stages.pop(), 2),
], ids=["past-the-depth", "short-of-the-depth"])
def test_tower_verify_rejects_stage_entries_off_the_depth(towerdir, capsys, resize, count):
    # entries past the depth were never read, and the directory verified
    _edit_json(towerdir / "trace.json", lambda trace: resize(trace["stages"]))
    assert main(["tower-verify", str(towerdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed tower directory {towerdir}: {count} stage entries for depth 2\n")


def _run_on_a_bad_file(command, content, chain3, segment_graph, tmp_path, capsys):
    """Exit code and stderr of `command` reading a file that holds
    `content`, and that file's path."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    towerdir = tmp_path / "tower"
    towerdir.mkdir()
    (towerdir / "trace.json").write_bytes(content)
    argv = {
        "render": ["render", "--graph", str(bad), "--out", str(tmp_path / "o.svg")],
        "lattice-check": ["lattice-check", str(bad), "DISJ"],
        "sigma-witness": ["sigma-witness", "--base", chain3, "--fragment", str(bad),
                          "--graph", segment_graph, "--out", str(tmp_path / "model")],
        "tower-verify": ["tower-verify", str(towerdir)],
    }[command]
    code = main(argv)
    path = towerdir / "trace.json" if command == "tower-verify" else bad
    return code, capsys.readouterr().err, path


@pytest.mark.parametrize("command", ["render", "lattice-check", "sigma-witness", "tower-verify"])
def test_a_file_that_is_not_utf8_exits_2(chain3, segment_graph, tmp_path, capsys, command):
    code, err, path = _run_on_a_bad_file(
        command, b"\xff\xfe{}", chain3, segment_graph, tmp_path, capsys)
    assert code == 2
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


@pytest.mark.parametrize("command", ["render", "lattice-check", "tower-verify"])
def test_a_truncated_json_file_exits_2(chain3, segment_graph, tmp_path, capsys, command):
    code, err, path = _run_on_a_bad_file(command, b"{", chain3, segment_graph, tmp_path, capsys)
    assert code == 2
    assert err == (f"error: {path}: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)\n")


# sha256 of the files and stdout of the README's sigma commands and of a
# depth-6 tower on the bundled segment: pins the bytes of every report and
# of every file these commands write.
CLI_OUTPUT_DIGESTS = {
    "tower-build": "f3cbbed837ebbcb460331452f9de2e60064386740cb203a597cf7efa0a3e643d",
    "tower/report.txt": "f3cbbed837ebbcb460331452f9de2e60064386740cb203a597cf7efa0a3e643d",
    "tower-verify": "f3cbbed837ebbcb460331452f9de2e60064386740cb203a597cf7efa0a3e643d",
    "sigma-gen": "ba435c99f1f8ecabe820d2a3b8c830d2aeef3cbe8d7c3f6dc1bf26c50f779bb5",
    "sigma.txt": "ba435c99f1f8ecabe820d2a3b8c830d2aeef3cbe8d7c3f6dc1bf26c50f779bb5",
    "sigma-fragment": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "frag.txt": "7cda152a6cbb541a07342e065403a8f9991c22724570831e1548837c491fd9c7",
    "sigma-witness": "2bb8c39807cf264b81d53c5a3df7ddb3c2f63ab0591f1d64c8ea8c567c46833c",
    "model/model.json": "f7e0a0cfa1eeeb8e80ef9b1c38c5d4249a4d2fb80ff39653bed5add906f4b1c6",
    "model/trace.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "model/report.txt": "2bb8c39807cf264b81d53c5a3df7ddb3c2f63ab0591f1d64c8ea8c567c46833c",
}


def test_cli_outputs_pinned(tmp_path, capsys):
    base = ["--base", str(INPUTS / "chain3.json")]
    runs = [
        ["tower-build", "--graph", str(INPUTS / "segment.json"), "--depth", "6",
         "--catalog", "whole", "--out", str(tmp_path / "tower")],
        ["tower-verify", str(tmp_path / "tower")],
        ["sigma-gen", *base, "--stages", "10", "--budget", "8", "--out", str(tmp_path / "sigma.txt")],
        ["sigma-gen", *base, "--stages", "10", "--budget", "8"],
        ["sigma-fragment", *base, "--stages", "5", "--size", "38", "--out", str(tmp_path / "frag.txt")],
        ["sigma-witness", *base, "--fragment", str(tmp_path / "frag.txt"),
         "--graph", str(INPUTS / "segment.json"), "--out", str(tmp_path / "model")],
    ]
    got = {}
    for argv in runs:
        assert main(argv) == 0, argv
        got[argv[0]] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for name in ("tower/report.txt", "sigma.txt", "frag.txt",
                 "model/model.json", "model/trace.json", "model/report.txt"):
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == CLI_OUTPUT_DIGESTS


@pytest.mark.parametrize("stage", ["9", "3", "-1"])
def test_render_stage_outside_the_tower_exits_2(towerdir, tmp_path, capsys, stage):
    out = tmp_path / "stage.svg"
    assert main(["render", "--tower", str(towerdir), "--stage", stage, "--out", str(out)]) == 2
    assert "outside 0..2" in capsys.readouterr().err
    assert not out.exists()
    assert main(["render", "--tower", str(towerdir), "--stage", "2", "--out", str(out)]) == 0


def test_render_stage_needs_a_tower(segment_graph, tmp_path, capsys):
    out = tmp_path / "seg.svg"
    assert main(["render", "--graph", segment_graph, "--stage", "7", "--out", str(out)]) == 2
    assert "--stage needs --tower" in capsys.readouterr().err
    assert not out.exists()


def test_render_requires_input():
    assert main(["render"]) == 2


def test_unknown_command_usage_error():
    assert main(["nope"]) == 2
