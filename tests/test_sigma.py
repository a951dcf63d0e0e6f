import hashlib
from pathlib import Path

import pytest

from crooked.errors import InputError, ResourceLimitError
from crooked.folang import Const, parse, print_formula, theta
from crooked.lattice import generate_sublattice, load_lattice
from crooked.sigma import (
    ConstantRegistry, SigmaGenerator, dump_sentences,
    enumerate_new_tuples, fragment, parse_sentence_dump,
)


def boolean4():
    return generate_sublattice({1, 2}, [{1}, {2}])


def chain2():
    return generate_sublattice({1}, [frozenset(), frozenset({1})])


def trivial():
    return generate_sublattice({1}, [])


# ------------------------------------------------------------- registry

def constant_key(cid):
    """(level, ordinal) of a registry constant k(level,ordinal)."""
    level, ordinal = cid[2:-1].split(",")
    return int(level), int(ordinal)


def test_registry_lists_constants_in_order():
    reg = ConstantRegistry(16)
    reg.populate(1, 11)
    reg.populate(-1, 2)
    reg.populate(-2, 4)
    order = reg.constants_upto(1)
    assert order.index("k(-2,3)") < order.index("k(-1,0)") < order.index("k(1,5)")
    assert order.index("k(1,2)") < order.index("k(1,10)")
    assert order == sorted(order, key=constant_key)


def test_registry_budget():
    reg = ConstantRegistry(4)
    reg.populate(-1, 3)
    assert reg.constants_at(-1) == ["k(-1,0)", "k(-1,1)", "k(-1,2)"]
    got = reg.alloc(1, 2, "S1", 0)
    assert got == ["k(1,0)", "k(1,1)"]
    with pytest.raises(ResourceLimitError):
        reg.alloc(1, 3, "S1", 1)


def test_enumerate_new_tuples_counts():
    reg = ConstantRegistry(8)
    reg.populate(-1, 3)
    pairs = enumerate_new_tuples(reg, 0, 2)
    assert len(pairs) == 3  # C(3,2), all new at stage 0
    reg2 = ConstantRegistry(8)
    reg2.populate(-1, 2)
    quads = enumerate_new_tuples(reg2, 0, 4)
    assert len(quads) == 16  # 2^4 functions with repetition


def test_enumerate_new_tuples_honours_limit():
    reg = ConstantRegistry(8)
    reg.populate(-1, 3)
    for k in (2, 3, 4):
        every = enumerate_new_tuples(reg, 0, k)
        assert enumerate_new_tuples(reg, 0, k, limit=0) == []
        assert enumerate_new_tuples(reg, 0, k, limit=2) == every[:2]


def test_enumerate_new_tuples_empty_when_nothing_new():
    reg = ConstantRegistry(8)
    reg.populate(-1, 3)
    # at stage n=1 no constants exist above level 0, so nothing is new
    assert enumerate_new_tuples(reg, 1, 2) == []


# ------------------------------------------------------------- diagram

def test_diagram_boolean4_count():
    gen = SigmaGenerator(boolean4())
    recs = gen.diagram()
    kinds = [r.kind for r in recs]
    assert kinds.count("diagram-meet") == 6
    assert kinds.count("diagram-join") == 6
    assert kinds.count("diagram-neq") == 6
    assert kinds.count("diagram-bounds") == 2
    assert len(recs) == 20


def test_diagram_trivial_lattice():
    gen = SigmaGenerator(trivial())
    recs = gen.diagram()
    assert len(recs) == 1
    assert recs[0].kind == "diagram-bounds"
    assert recs[0].text == "k(-1,0) = 0 & k(-1,0) = 1"


def test_diagram_deterministic():
    a = dump_sentences(SigmaGenerator(boolean4()).diagram())
    b = dump_sentences(SigmaGenerator(boolean4()).diagram())
    assert a == b


# ------------------------------------------------------------- stages

def test_stage_meet_join_shape():
    gen = SigmaGenerator(chain2())
    gen.gen_stage(0)
    recs = gen.gen_stage(1)
    meet = next(r for r in recs if r.kind == "meet")
    join = next(r for r in recs if r.kind == "join")
    assert meet.text == "k(-1,0) ^ k(-1,1) = k(1,0)"
    assert join.text == "k(-1,0) v k(-1,1) = k(1,1)"
    idem = [r for r in recs if r.kind == "idem"]
    assert len(idem) == 4  # two sentences per constant of level <= 0
    assert all(r.ignorable for r in recs if r.kind in ("assoc", "distrib", "absorb", "guard"))


def test_stage_normal_shape():
    gen = SigmaGenerator(chain2())
    for s in range(0, 3):
        gen.gen_stage(s)
    recs = gen.gen_stage(2)
    assert len(recs) == 1
    r = recs[0]
    assert r.kind == "normal"
    assert r.text == (
        "k(-1,1) ^ k(-1,0) = 0 -> "
        "k(-1,1) ^ k(2,0) = 0 & k(-1,0) ^ k(2,1) = 0 & k(2,0) v k(2,1) = 1"
    )
    assert r.operands == ("k(-1,0)", "k(-1,1)")
    assert r.fresh == ("k(2,0)", "k(2,1)")


def test_stage_disjunctive_nonzero_conjunct():
    gen = SigmaGenerator(chain2())
    for s in range(0, 4):
        gen.gen_stage(s)
    recs = gen.gen_stage(3)
    assert [r.kind for r in recs] == ["disj0", "disj1"]
    assert "!= 0" in recs[0].text


def test_stage_theta_is_substituted_schema():
    gen = SigmaGenerator(chain2())
    for s in range(0, 6):
        gen.gen_stage(s)
    recs = gen.gen_stage(5)
    assert recs, "quadruples over two constants must exist"
    r = recs[0]
    a, b, c, d = (Const(cid) for cid in r.operands)
    x, y, z = (Const(cid) for cid in r.fresh)
    assert r.formula == theta(a, b, c, d, x, y, z)


def test_stage_zeta_empty_for_two_constants():
    gen = SigmaGenerator(chain2())
    for s in range(0, 5):
        gen.gen_stage(s)
    assert gen.gen_stage(4) == []  # no triples over two constants


def test_freshness_invariant():
    gen = SigmaGenerator(generate_sublattice({1, 2, 3}, [{1}, {2, 3}]), budget=24)
    recs = gen.generate_through(6)
    for r in recs:
        for fresh in r.fresh:
            assert all(constant_key(op) < constant_key(fresh) for op in r.operands)


def test_tuple_newness_invariant():
    gen = SigmaGenerator(boolean4(), budget=32)
    gen.generate_through(6)
    reg = gen.registry
    for n in (0, 1):
        for k in (2, 3):
            for tup in enumerate_new_tuples(reg, n, k):
                assert any(constant_key(c)[0] > 5 * (n - 1) for c in tup)


def test_budget_exhausted_error_names_stage():
    gen = SigmaGenerator(chain2(), budget=1)
    gen.gen_stage(0)
    with pytest.raises(ResourceLimitError) as exc:
        gen.gen_stage(1)
    assert "S1" in str(exc.value) and "l=0" in str(exc.value)


def test_budget_exhausted_when_no_triple_fits():
    # triples exist, but budget 2 holds none of their three fresh constants
    gen = SigmaGenerator(generate_sublattice({1, 2, 3}, [{1}, {2, 3}]), budget=2)
    with pytest.raises(ResourceLimitError) as exc:
        gen.generate_through(4)
    assert "S4" in str(exc.value) and "l=0" in str(exc.value)


def test_generation_deterministic_across_runs():
    a = dump_sentences(SigmaGenerator(chain2(), budget=8).generate_through(10))
    b = dump_sentences(SigmaGenerator(chain2(), budget=8).generate_through(10))
    assert a == b


# ------------------------------------------------------------- hat stage

def test_hat_stage_counts():
    base = generate_sublattice({1, 2, 3}, [{1}, {2, 3}])  # 4 elements
    gen = SigmaGenerator(base, budget=8, continuum_constants=1)
    recs = gen.gen_stage(-1)
    conn_recs = [r for r in recs if r.kind == "hat-conn"]
    mono = [r for r in recs if r.kind == "hat-mono"]
    zero = [r for r in recs if r.kind == "hat-zero"]
    assert len(conn_recs) == 1
    assert len(mono) == base.size  # one per level -1 constant
    assert len(zero) == 8 - 1  # hat size minus beta
    assert len(recs) == 1 + base.size + 7


def test_hat_beta_zero_only_zeroing():
    gen = SigmaGenerator(boolean4(), budget=4, continuum_constants=0, hat_size=3)
    recs = gen.gen_stage(-1)
    assert [r.kind for r in recs] == ["hat-zero"] * 3


def test_hat_mono_shape():
    gen = SigmaGenerator(boolean4(), budget=8, continuum_constants=1)
    recs = gen.gen_stage(-1)
    mono = [r for r in recs if r.kind == "hat-mono"]
    r = mono[1]  # alpha=0, gamma=1
    assert r.text == (
        "(forall x y. x ^ y = 0 & x v y = k(-2,0) -> x = k(-2,0) | x = 0)"
        " & k(-2,0) ^ k(-1,1) = k(-2,0) -> k(-1,0) ^ k(-1,1) = k(-1,0)"
    )


# ------------------------------------------------------------- fragments

def test_fragment_first_is_diagram():
    gen = SigmaGenerator(chain2())
    recs = gen.generate_through(5)
    frag = fragment(recs, 1)
    assert frag[0].stage == 0


def test_fragment_skips_ignorables():
    gen = SigmaGenerator(chain2())
    recs = gen.generate_through(5)
    usable = len([r for r in recs if not r.ignorable])
    frag = fragment(recs, min(30, usable))
    assert frag and all(not r.ignorable for r in frag)


def test_fragment_order_examples():
    gen = SigmaGenerator(generate_sublattice({1, 2, 3}, [{1}, {2, 3}]), budget=24)
    recs = gen.generate_through(10)
    frag = [r for r in recs if not r.ignorable]
    # stage index dominates
    s2 = [r for r in frag if r.stage == 2]
    s4 = [r for r in frag if r.stage == 4]
    if s2 and s4:
        assert frag.index(s2[-1]) < frag.index(s4[0])
    # within a stage, larger enumeration index comes later
    for stage_records in (s2, s4):
        idxs = [r.index for r in stage_records]
        assert idxs == sorted(idxs)


def test_fragment_size_zero_and_overflow():
    gen = SigmaGenerator(chain2())
    recs = gen.generate_through(1)
    assert fragment(recs, 0) == []
    with pytest.raises(InputError):
        fragment(recs, 10_000)


# ------------------------------------------------------------- dump/parse

def test_dump_parse_roundtrip():
    gen = SigmaGenerator(
        generate_sublattice({1, 2, 3}, [{1}, {2, 3}]), budget=12, continuum_constants=1,
        hat_size=3,
    )
    recs = gen.generate_through(6)
    text = dump_sentences(recs)
    back = parse_sentence_dump(text)
    assert len(back) == len(recs)
    for r1, r2 in zip(recs, back):
        assert (r1.stage, r1.family, r1.index, r1.kind) == (r2.stage, r2.family, r2.index, r2.kind)
        assert r1.formula == r2.formula
        assert r1.operands == r2.operands
        assert r1.fresh == r2.fresh
        assert r1.ignorable == r2.ignorable


def test_dump_line_format():
    gen = SigmaGenerator(chain2())
    gen.gen_stage(0)
    recs = gen.gen_stage(1)
    line = recs[0].line()
    assert line.startswith("S1^0 0: ")
    assert parse(line.split(": ", 1)[1]) == recs[0].formula


@pytest.mark.parametrize("line", [
    "S1^9 0: k(-1,0) = 0",      # stage 1 has no family 9
    "S-1^7 0: k(-2,0) = 0",     # the subcontinuum stage has no family 7
    "S0^1 0: k(-1,0) = 0",      # the diagram has no families
    "S0 0: k(-1,0) v k(-1,1) = k(-1,1) ^ k(-1,0)",
    # the conclusion swaps the operands of the premise
    "S2 0: k(-1,0) ^ k(-1,1) = 0 -> "
    "k(-1,1) ^ k(2,0) = 0 & k(-1,0) ^ k(2,1) = 0 & k(2,0) v k(2,1) = 1",
    "S4 0: k(-1,0) ^ k(-1,1) ^ k(-1,2) = 0 -> k(-1,0) ^ k(4,0) = k(-1,0)",
    "S1^0 0: k(-1,0) ^",        # not a formula
])
def test_parse_rejects_malformed_sentences(line):
    text = "S0 0: k(-1,0) ^ k(-1,1) = k(-1,0)\n" + line + "\n"
    with pytest.raises(InputError, match="^line 2: "):
        parse_sentence_dump(text)


def _digests(gen, stages):
    recs = gen.generate_through(stages)
    rows = [(r.stage, r.family, r.index, r.kind, r.formula, r.operands, r.fresh, r.ignorable)
            for r in recs]
    return (
        hashlib.sha256(dump_sentences(recs).encode()).hexdigest(),
        hashlib.sha256(repr(rows).encode()).hexdigest(),
    )


def test_generated_bytes_are_pinned():
    chain3, _ = load_lattice(str(Path(__file__).parent.parent / "inputs" / "chain3.json"))
    surgery_base = generate_sublattice({0, 1, 2}, [{0}, {2}, {0, 1, 2}], names=["g0", "g1", "g2"])
    assert _digests(SigmaGenerator(chain3, budget=16), 10) == (
        "96324f01cbe5c49a4e19959dd680b5b040c50d44a49a6e25b4caeb72e9951ba1",
        "ebc80a31768059a5b4e544ee043b8cdc8f0412ef0573b0ccd83978becf93e5ad",
    )
    assert _digests(SigmaGenerator(surgery_base, budget=400), 5) == (
        "77c8254676303d128595cd5c65cd4b2694243bd5f03ac7b03c85842472ed5e80",
        "6c4ca0e91b1ac2c01d4cecc37b9679107dd80b5b1da2ac59290a8cf3fadf98d3",
    )
    hat = SigmaGenerator(boolean4(), budget=12, axiom_cap=3, continuum_constants=1, hat_size=3)
    assert _digests(hat, 6) == (
        "78e37b0e3abd7bab18cc652a7a97f819ad4319003f4b120270d2859c06fc587b",
        "5ed5acead9be00d62ec372644b8887a50d04c663a6d6c33e5413adafa1af09c5",
    )
