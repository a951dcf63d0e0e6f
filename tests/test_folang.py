import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crooked.errors import EvaluationError, ParseError, UnboundVariableError, UsageError
from crooked.folang import (
    And, Const, Eq, Exists, ForAll, Implies, Join, Meet, Neq,
    Not, One, Or, Var, Zero, LIBRARY, conn, constants_of, eval_bruteforce,
    eval_formula, eval_masks, is_ground, parse, print_formula, substitute, theta, zeta,
)
from crooked.lattice import conn_by_birkhoff, generate_sublattice, join_irreducibles
from crooked.metric_graph import ClosedSet, unit_segment
from crooked.sigma import SigmaGenerator
from crooked.surgery import verify_on_sublattice
from test_lattice import CHAIN3, powerset_lattice
from test_sigma import boolean4


# ---------------------------------------------------------------- parser

def test_parse_disj_shape():
    text = "forall a b. exists x. (a ^ b != a) -> ((a ^ x = x) & (b ^ x = 0))"
    f = parse(text)
    assert f == LIBRARY["DISJ_LITERAL"]


def test_parse_trivial_equation():
    assert parse("0 = 0") == Eq(Zero(), One()) or parse("0 = 0") == Eq(Zero(), Zero())
    assert parse("0 = 0") == Eq(Zero(), Zero())


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse("forall x. (x v")
    assert exc.value.position >= 10


def test_parse_unbound_identifier_strict_mode():
    with pytest.raises(UnboundVariableError):
        parse("x = 0", constants=set())
    # permissive mode turns free identifiers into constants
    assert parse("x = 0") == Eq(Const("x"), Zero())


def test_parse_registry_constants():
    f = parse("k(-1,0) ^ k(5,3) = 0")
    assert f == Eq(Meet(Const("k(-1,0)"), Const("k(5,3)")), Zero())


def test_precedence_and_associativity():
    f = parse("a = 0 -> b = 0 -> c = 0")
    assert isinstance(f, Implies) and isinstance(f.right, Implies)
    g = parse("a = 0 | b = 0 & !c = 0")
    assert isinstance(g, Or) and isinstance(g.right, And)
    assert isinstance(g.right.right, Not)
    t = parse("a v b ^ c = 0")
    assert t == Eq(Join(Const("a"), Meet(Const("b"), Const("c"))), Zero())


def test_print_parse_roundtrip_library():
    for name, f in LIBRARY.items():
        text = print_formula(f)
        assert parse(text) == f, name


def test_print_normalizes_whitespace_only():
    text = "forall a b. exists x. (a ^ b != a) -> ((a ^ x = x) & (b ^ x = 0))"
    printed = print_formula(parse(text))
    assert parse(printed) == parse(text)
    assert " ".join(printed.split()) == printed


@pytest.mark.parametrize("seed", range(8))
def test_print_parse_roundtrip_random(seed):
    rng = random.Random(seed)

    def rand_term(depth, vars_):
        if depth == 0 or rng.random() < 0.35:
            choices = [Zero(), One()] + [Var(v) for v in vars_] + [Const("p"), Const("q")]
            return rng.choice(choices)
        cls = rng.choice([Meet, Join])
        return cls(rand_term(depth - 1, vars_), rand_term(depth - 1, vars_))

    def rand_formula(depth, vars_):
        if depth == 0 or rng.random() < 0.3:
            cls = rng.choice([Eq, Neq])
            return cls(rand_term(2, vars_), rand_term(2, vars_))
        kind = rng.randrange(5)
        if kind == 0:
            return Not(rand_formula(depth - 1, vars_))
        if kind == 1:
            fresh = f"v{len(vars_)}"
            cls = rng.choice([ForAll, Exists])
            return cls((fresh,), rand_formula(depth - 1, vars_ + [fresh]))
        cls = [And, Or, Implies][kind - 2]
        return cls(rand_formula(depth - 1, vars_), rand_formula(depth - 1, vars_))

    for _ in range(20):
        f = rand_formula(3, [])
        assert parse(print_formula(f)) == f


# ---------------------------------------------------------------- evaluator

def test_eval_disj_on_powerset():
    res = eval_formula(LIBRARY["DISJ"], powerset_lattice(2))
    assert res.value is True and res.assignment is None


def test_eval_conn1_counterexample_on_discrete_pair():
    lat = powerset_lattice(2)
    res = eval_formula(LIBRARY["CONN1"], lat)
    assert res.value is False
    cx = res.assignment
    assert set(cx) == {"x", "y"}
    assert cx["x"] and cx["y"]
    assert cx["x"] | cx["y"] == lat.elements[lat.top_index]
    assert not cx["x"] & cx["y"]


def test_eval_norm_on_chain():
    assert eval_formula(LIBRARY["NORM"], CHAIN3).value is True


def test_eval_witness_for_outer_existential():
    lat = powerset_lattice(2)
    f = Exists(("x",), And(Neq(Var("x"), Zero()), Neq(Var("x"), One())))
    res = eval_formula(f, lat)
    assert res.value is True
    assert res.assignment["x"] in ({0}, {1}, frozenset({0}), frozenset({1}))


def test_eval_uncovered_constant():
    with pytest.raises(EvaluationError):
        eval_formula(parse("p = 0"), CHAIN3)


def test_eval_resolves_every_constant_up_front():
    # the false left conjunct must not hide the uninterpreted `p`
    with pytest.raises(EvaluationError, match="'p' has no interpretation"):
        eval_formula(parse("0 = 1 & p = 0"), CHAIN3)


def test_eval_rejects_free_variables():
    with pytest.raises(EvaluationError):
        eval_formula(Eq(Var("x"), Zero()), CHAIN3)


def test_a_variable_bound_in_one_conjunct_is_free_in_the_other():
    f = And(ForAll(("x",), Eq(Var("x"), Zero())), Eq(Var("x"), One()))
    assert not is_ground(f)
    with pytest.raises(EvaluationError, match=re.escape("formula has free variables: ['x']")):
        eval_formula(f, CHAIN3)
    with pytest.raises(EvaluationError, match=re.escape("formula has free variables: ['x']")):
        eval_bruteforce(f, CHAIN3)


def test_bruteforce_dim_on_trivial_lattice():
    lat = generate_sublattice({1}, [])
    assert eval_bruteforce(LIBRARY["DIM"], lat) is True


def test_bruteforce_hi_matches_eval_on_boolean4():
    lat = generate_sublattice({1, 2}, [{1}, {2}])
    assert eval_bruteforce(LIBRARY["HI"], lat) == eval_formula(LIBRARY["HI"], lat).value


def random_sublattice(rng, max_ground=5):
    n = rng.randint(1, max_ground)
    k = rng.randint(0, 3)
    gens = [
        frozenset(p for p in range(n) if rng.random() < 0.5) for _ in range(k)
    ]
    return generate_sublattice(n, gens)


def random_sentence(rng, lattice_size, consts, budget=1500):
    """Random closed sentence whose bruteforce cost stays within budget."""
    max_q = 1
    while lattice_size ** (max_q + 1) <= budget and max_q < 7:
        max_q += 1

    def rand_term(depth, vars_):
        if depth == 0 or rng.random() < 0.4:
            pool = [Zero(), One()] + [Var(v) for v in vars_] + [Const(c) for c in consts]
            return rng.choice(pool)
        cls = rng.choice([Meet, Join])
        return cls(rand_term(depth - 1, vars_), rand_term(depth - 1, vars_))

    def rand_formula(depth, vars_, q_left):
        r = rng.random()
        if depth == 0 or r < 0.3:
            cls = rng.choice([Eq, Neq])
            return cls(rand_term(2, vars_), rand_term(2, vars_))
        if r < 0.55 and q_left > 0:
            width = rng.randint(1, min(2, q_left))
            fresh = tuple(f"q{len(vars_) + i}" for i in range(width))
            cls = rng.choice([ForAll, Exists])
            return cls(fresh, rand_formula(depth - 1, vars_ + list(fresh), q_left - width))
        kind = rng.randrange(4)
        if kind == 0:
            return Not(rand_formula(depth - 1, vars_, q_left))
        cls = [And, Or, Implies][kind - 1]
        ql = q_left // 2
        return cls(
            rand_formula(depth - 1, vars_, ql),
            rand_formula(depth - 1, vars_, q_left - ql),
        )

    return rand_formula(3, [], max_q)


def test_differential_eval_vs_bruteforce():
    rng = random.Random(20260808)
    disagreements = 0
    for _ in range(200):
        lat = random_sublattice(rng)
        consts = ["p", "q"]
        interp = {c: lat.elements[rng.randrange(lat.size)] for c in consts}
        f = random_sentence(rng, lat.size, consts)
        if eval_formula(f, lat, interp).value != eval_bruteforce(f, lat, interp):
            disagreements += 1
    assert disagreements == 0


def test_powersets_are_disjunctive_and_normal():
    for n in range(5):
        lat = powerset_lattice(n)
        assert eval_formula(LIBRARY["DISJ"], lat).value is True
        assert eval_formula(LIBRARY["NORM"], lat).value is True


def test_eval_invariant_under_reindexing():
    rng = random.Random(7)
    for _ in range(10):
        lat = random_sublattice(rng, max_ground=4)
        perm = list(range(lat.size))
        rng.shuffle(perm)
        lat2 = generate_sublattice(lat.elements[lat.top_index], [lat.elements[i] for i in perm])
        for name in ("DISJ", "NORM", "CONN1"):
            assert (
                eval_formula(LIBRARY[name], lat).value
                == eval_formula(LIBRARY[name], lat2).value
            )


# ---------------------------------------------------------------- substitute

def test_substitute_zeta_ground():
    names = ["a", "b", "c", "x", "y", "z"]
    consts = {n: Const(f"k(4,{i})") for i, n in enumerate(names)}
    open_zeta = zeta(*(Var(n) for n in names))
    ground = substitute(open_zeta, consts)
    assert ground == zeta(*(consts[n] for n in names))
    assert is_ground(ground)


def test_substitute_identity_on_closed():
    f = LIBRARY["NORM"]
    assert substitute(f, {}) == f


def test_substitute_theta_ground():
    names = ["a", "b", "c", "d", "x", "y", "z"]
    consts = {n: Const(f"k(5,{i})") for i, n in enumerate(names)}
    open_theta = theta(*(Var(n) for n in names))
    ground = substitute(open_theta, consts)
    assert ground == theta(*(consts[n] for n in names))


def test_one_walk_answers_every_question_about_a_sentence(walks):
    # constants_of, is_ground and a sublattice check, five times each, walk
    # the sentence once and hand back the same constants
    g = unit_segment()
    sets = {n: ClosedSet(g, {"seg": [(F(i, 8), F(i + 2, 8))]}, set()) for i, n in enumerate("abcdxyz")}
    f = theta(*(Const(n) for n in "abcdxyz"))
    for _ in range(5):
        assert constants_of(f) == set("abcdxyz")
        assert is_ground(f)
        verify_on_sublattice(f, sets, g)
    assert sum(node is f for node in walks) == 1
    assert constants_of(f) is constants_of(f)


@pytest.mark.parametrize("source", ["sigma", "library"])
def test_constants_and_groundness_match_the_printed_sentence(source):
    # the sigma stages through 5 bring conn's quantifiers with the hat stage
    if source == "sigma":
        gen = SigmaGenerator(boolean4(), budget=12, continuum_constants=1, hat_size=3)
        sentences = [rec.formula for rec in gen.generate_through(5)]
    else:
        sentences = list(LIBRARY.values())
    assert any(not is_ground(f) for f in sentences)
    for f in sentences:
        text = print_formula(f)
        assert constants_of(f) == set(re.findall(r"k\(-?\d+,\d+\)", text)), text
        assert is_ground(f) == ("forall" not in text and "exists" not in text), text


def test_constants_of_rejects_what_is_no_term_or_formula():
    assert constants_of(Meet(Const("a"), Var("x"))) == {"a"}
    with pytest.raises(UsageError):
        constants_of("a = 0")


def test_substitute_capture_rejected():
    f = Exists(("y",), Eq(Meet(Var("x"), Var("y")), Zero()))
    with pytest.raises(UsageError):
        substitute(f, {"x": Var("y")})


def test_conn_literal_shape():
    f = conn(Const("a"))
    text = print_formula(f)
    assert text == "forall x y. x ^ y = 0 & x v y = a -> x = a | x = 0"
    assert parse(text) == f


# ------------------------------------------- bitmask and Birkhoff deciders

# Ground sentences over the generator names a..e: every connective, 0, 1,
# meets, joins, and the dimension schema with its witnesses among them.
MASK_SENTENCES = [
    parse(text, constants=set("abcde"))
    for text in (
        "0 = 1",
        "1 != 0",
        "a ^ b = 0",
        "a v b = 1",
        "a ^ (b v c) = a ^ b v a ^ c",
        "a != b | b ^ c = a",
        "!(a = 1) -> a v c = c",
        "a ^ b ^ c = 0 -> a v b v c = 1 & a ^ 1 = a",
        "a ^ b ^ c = 0 -> a ^ d = a & b ^ e = e & d ^ e = 0",
    )
]


def _mask(points) -> int:
    return sum(1 << p for p in points)


def _points(mask: int, n: int) -> frozenset:
    return frozenset(p for p in range(n) if mask >> p & 1)


CONN_T = conn(Const("t"))


def _check_against_closure(n: int, gens: tuple[int, ...]) -> int:
    """Birkhoff's CONN(t) for every element t, J(L) and the mask evaluator
    against the closed lattice L that the bitmask generators on n points
    generate with all n points adjoined as top, the family `eval_masks`
    reads.  Returns the number of elements checked."""
    names = "abcde"[:len(gens)]
    full = (1 << n) - 1
    family = [*gens, full]
    lat = generate_sublattice(n, [_points(g, n) for g in family], names=[*names, "1"])
    irreducible = [
        e for e in lat.elements
        if e and e != frozenset().union(*(f for f in lat.elements if f < e))
    ]
    assert join_irreducibles(family) == sorted(_mask(e) for e in irreducible)
    masks = dict(zip(names, gens))
    assert eval_masks(LIBRARY["CONN1"], masks, full) == eval_bruteforce(LIBRARY["CONN1"], lat)
    # straight from the definition: t is disconnected when it is the union
    # of two disjoint nonzero elements
    split = {x | y for x in lat.elements for y in lat.elements if x and y and not x & y}
    for e in lat.elements:
        t = _mask(e)
        assert conn_by_birkhoff(family, t) == (e not in split), (gens, t)
        # t is an element, so naming it leaves the generated lattice as it is
        assert eval_masks(CONN_T, {**masks, "t": t}, full) == (e not in split), (gens, t)
    interp = {nm: _points(g, n) for nm, g in masks.items()}
    for f in MASK_SENTENCES:
        if constants_of(f) <= set(names):
            assert eval_masks(f, masks, full) == eval_bruteforce(f, lat, interp), f
    return lat.size


def test_birkhoff_and_masks_agree_with_closure_exhaustively():
    # every ordered family of at most three generators on one to four points,
    # the empty family included: 5,054 families and 27,190 of their elements
    families = elements = 0
    for n in range(1, 5):
        for k in range(4):
            for gens in itertools.product(range(1 << n), repeat=k):
                elements += _check_against_closure(n, gens)
                families += 1
    assert (families, elements) == (5054, 27190)


@st.composite
def bitmask_families(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    gens = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=5))
    return n, tuple(gens)


@settings(max_examples=80, deadline=None)
@given(bitmask_families())
def test_birkhoff_and_masks_agree_with_closure(family):
    _check_against_closure(*family)


def test_birkhoff_edge_cases():
    assert conn_by_birkhoff([], 0)                     # one-element lattice
    assert conn_by_birkhoff([0b1, 0b11], 0b11)         # a chain
    assert not conn_by_birkhoff([0b01, 0b10], 0b11)    # two disjoint atoms
    assert conn_by_birkhoff([0b01, 0b10], 0b10)        # ... each connected
    # the atoms {0} and {1} are joined up through the irreducible {0, 1, 2},
    # which lies below 1 but not below {0, 1}
    gens = [0b001, 0b010, 0b111, 0b011]
    assert conn_by_birkhoff(gens, 0b111)
    assert not conn_by_birkhoff(gens, 0b011)
    assert join_irreducibles([0b011, 0b110]) == [0b010, 0b011, 0b110]


def test_mask_evaluator_rejects_quantifiers_and_unknown_constants():
    a, b = Const("a"), Const("b")
    masks = {"a": 0b01, "b": 0b10}
    # conn(t) is the one quantified shape decided, wherever it occurs
    assert eval_masks(conn(a), masks, 0b11)
    assert not eval_masks(conn(Join(a, b)), masks, 0b11)
    assert not eval_masks(LIBRARY["CONN1"], masks, 0b11)
    assert eval_masks(And(conn(a), Eq(Meet(a, One()), a)), masks, 0b11)
    text = "forall x y. x ^ y = 0 & x v y = a v b -> x = a v b | x = 0"
    assert not eval_masks(parse(text, constants={"a", "b"}), masks, 0b11)
    for f in (LIBRARY["DISJ"], parse("exists x. x != a", constants={"a"})):
        with pytest.raises(UsageError):
            eval_masks(f, masks, 0b11)
    for f in (parse("a = 0", constants={"a"}), conn(Const("c"))):
        with pytest.raises(EvaluationError):
            eval_masks(f, {}, 1)
