import itertools
import random

from crooked.folang import LIBRARY, eval_formula
from crooked.lattice import generate_sublattice
from crooked.wallman import (
    FiniteSpace, check_contimage_conditions, is_T1, is_hausdorff_like, wallman_space,
)
from test_lattice import CHAIN3, powerset_lattice


def test_powerset_space_is_discrete_identity():
    lat = powerset_lattice(3)
    space, hom = wallman_space(lat)
    assert len(space.points) == 3
    # hom is injective: distinct elements, distinct point sets
    assert len(set(hom)) == lat.size


def test_chain_space_collapses():
    space, hom = wallman_space(CHAIN3)
    assert len(space.points) == 1
    assert hom[CHAIN3.bottom_index] == frozenset()
    mid = CHAIN3.index_of({1})
    assert hom[mid] == hom[CHAIN3.top_index] == frozenset(space.points)


def test_diamond_two_points():
    lat = generate_sublattice({1, 2}, [{1}, {2}])
    space, _ = wallman_space(lat)
    assert len(space.points) == 2
    assert is_hausdorff_like(space)


def test_trivial_lattice_empty_space():
    lat = generate_sublattice({1}, [])
    space, hom = wallman_space(lat)
    assert space.points == ()
    assert hom == [frozenset()]


def test_t1_always():
    rng = random.Random(5)
    for _ in range(10):
        lat = _random_lattice(rng)
        space, _ = wallman_space(lat)
        assert is_T1(space)


def test_one_point_space_hausdorff_like():
    space, _ = wallman_space(CHAIN3)
    assert is_T1(space) and is_hausdorff_like(space)


def _random_lattice(rng, ground=6):
    k = rng.randint(0, 4)
    gens = [
        frozenset(p for p in range(rng.randint(1, ground)) if rng.random() < 0.5)
        for _ in range(k)
    ]
    return generate_sublattice(ground, gens)


def test_closed_sets_close_the_base():
    # the base {p}, {q} closes to 0, {p}, {q}, {p, q} and the whole space
    space = FiniteSpace(("p", "q", "r"), {"a": frozenset("p"), "b": frozenset("q")})
    assert space.closed_sets == {frozenset(), frozenset("p"), frozenset("q"),
                                 frozenset("pq"), frozenset("pqr")}
    # hom is a homomorphism onto the base, so the base is already closed
    rng = random.Random(44)
    for _ in range(12):
        space, hom = wallman_space(_random_lattice(rng))
        assert space.closed_sets == set(hom)


def test_hom_injective_iff_disjunctive():
    rng = random.Random(42)
    lattices = [_random_lattice(rng) for _ in range(20)]
    lattices += [powerset_lattice(2), powerset_lattice(3), CHAIN3]
    for lat in lattices:
        _, hom = wallman_space(lat)
        injective = len(set(hom)) == lat.size
        disj = eval_formula(LIBRARY["DISJ"], lat).value
        assert injective == disj


def test_hom_is_lattice_homomorphism():
    rng = random.Random(43)
    for _ in range(12):
        lat = _random_lattice(rng)
        _, hom = wallman_space(lat)
        for a, b in itertools.product(range(lat.size), repeat=2):
            x, y = lat.elements[a], lat.elements[b]
            assert hom[lat.index_of(x & y)] == hom[a] & hom[b]
            assert hom[lat.index_of(x | y)] == hom[a] | hom[b]


def test_norm_iff_hausdorff_on_disjunctive_corpus():
    # The space-side correspondence is tested where the representation is
    # faithful (disjunctive lattices); finite Wallman spaces are always
    # discrete, so a non-normal, non-disjunctive lattice would break the
    # unrestricted equivalence.  See the non-disjunctive pin below.
    rng = random.Random(44)
    checked = 0
    candidates = [powerset_lattice(n) for n in range(5)]
    candidates += [_random_lattice(rng) for _ in range(40)]
    for lat in candidates:
        if not eval_formula(LIBRARY["DISJ"], lat).value:
            continue
        space, _ = wallman_space(lat)
        assert eval_formula(LIBRARY["NORM"], lat).value == is_hausdorff_like(space)
        checked += 1
    assert checked >= 5


def test_non_normal_lattice_with_discrete_space_pin():
    # {0,{p},{r},{p,r},{p,q,r}} is distributive, non-disjunctive and
    # non-normal, yet its (two-point) Wallman space is discrete: the
    # space-side test cannot see normality through a lossy hom.
    lat = generate_sublattice({0, 1, 2}, [{0}, {2}, {0, 1, 2}])
    assert lat.size == 5
    assert eval_formula(LIBRARY["NORM"], lat).value is False
    assert eval_formula(LIBRARY["DISJ"], lat).value is False
    space, hom = wallman_space(lat)
    assert is_hausdorff_like(space)
    assert len(set(hom)) < lat.size


def test_conn1_on_wallman_corpus():
    rng = random.Random(45)
    for _ in range(20):
        lat = _random_lattice(rng)
        space, _ = wallman_space(lat)
        conn_true = eval_formula(LIBRARY["CONN1"], lat).value
        if len(space.points) <= 1:
            assert conn_true
        if (
            len(lat.atoms()) >= 2
            and eval_formula(LIBRARY["DISJ"], lat).value
            and eval_formula(LIBRARY["NORM"], lat).value
        ):
            assert not conn_true


def test_contimage_identity_assignment():
    lat = powerset_lattice(2)
    space, hom = wallman_space(lat)
    base = {f"L{i}": hom[i] for i in range(lat.size)}
    phi = dict(base)
    assert check_contimage_conditions(base, space.full, phi, space.full) == []


def test_contimage_condition3_violated():
    base = {
        "e": frozenset(),
        "a": frozenset({"p"}),
        "b": frozenset({"q"}),
        "ab": frozenset({"p", "q"}),
    }
    full = frozenset({"p", "q"})
    phi = {n: (full if s else frozenset()) for n, s in base.items()}
    report = check_contimage_conditions(base, full, phi, full)
    assert any(cond == "3" and set(combo) == {"a", "b"} for cond, combo, _ in report)


def test_contimage_condition1_violated():
    base = {"e": frozenset(), "x": frozenset({"p"})}
    full = frozenset({"p"})
    phi = {"e": full, "x": full}
    report = check_contimage_conditions(base, full, phi, full)
    assert any(cond == "1" and combo == ("e",) for cond, combo, _ in report)
