import itertools

import pytest
from hypothesis import given, settings, strategies as st

from crooked.errors import EvaluationError, InputError, ResourceLimitError, UsageError
from crooked.folang import eval_bruteforce, eval_formula, parse
from crooked.lattice import FiniteLattice, generate_sublattice, load_lattice


def powerset_lattice(n):
    pts = range(n)
    subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(pts, r)]
    return FiniteLattice(subsets)


def test_generate_two_generators_closure():
    lat = generate_sublattice({1, 2, 3}, [{1}, {2, 3}])
    assert sorted(sorted(e) for e in lat.elements) == [[], [1], [1, 2, 3], [2, 3]]
    assert lat.size == 4


def test_generate_empty_generators_collapses():
    lat = generate_sublattice({1}, [])
    assert lat.size == 1
    assert lat.bottom_index == lat.top_index
    assert lat.elements == [frozenset()]


def test_generate_boolean_four():
    lat = generate_sublattice({1, 2}, [{1}, {2}])
    assert lat.size == 4
    assert set(lat.elements) == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_generator_outside_ground_rejected():
    with pytest.raises(InputError):
        generate_sublattice({1, 2}, [{3}])


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        generate_sublattice(range(8), [{i} for i in range(8)], cap=50)


def test_meet_join_examples():
    # an element is its set: meet and join are & and |, looked up by index_of
    lat = generate_sublattice({1, 2, 3}, [{1}, {2, 3}])
    a, b = frozenset({1}), frozenset({2, 3})
    assert lat.index_of(a & b) == lat.bottom_index
    assert lat.index_of(a | b) == lat.top_index
    top = lat.elements[lat.top_index]
    for e in lat.elements:
        assert e & top == e
    with pytest.raises(UsageError, match="not an element"):
        lat.index_of({2})


def test_constant_outside_lattice_rejected():
    # {1} is a subset of the ground set but not an element of the lattice
    lat = generate_sublattice({1, 2}, [{1, 2}])
    for evaluate in (eval_formula, eval_bruteforce):
        with pytest.raises(EvaluationError, match="not interpreted in the evaluation lattice"):
            evaluate(parse("p = 0"), lat, {"p": frozenset({1})})
        with pytest.raises(EvaluationError, match="has no interpretation"):
            evaluate(parse("p = 0"), lat, {"q": frozenset({1, 2})})


def test_family_not_closed_under_meet_rejected():
    # {0,1} and {1,2} meet in {1}, which is missing
    with pytest.raises(InputError, match=r"not closed under meet/join at pair \(1,2\)"):
        FiniteLattice([set(), {0, 1}, {1, 2}, {0, 1, 2}])


def test_family_not_closed_under_join_rejected():
    # {0} and {1} join in {0,1}, which is missing
    with pytest.raises(InputError, match=r"not closed under meet/join at pair \(1,2\)"):
        FiniteLattice([set(), {0}, {1}, {0, 1, 2}])


def test_atoms_examples():
    assert [sorted(a) for a in powerset_lattice(3).atoms()] == [[0], [1], [2]]
    chain = FiniteLattice([frozenset(), frozenset({1}), frozenset({1, 2})])
    assert [sorted(a) for a in chain.atoms()] == [[1]]
    assert generate_sublattice({1}, []).atoms() == []


def test_regeneration_idempotent():
    lat = generate_sublattice(range(4), [{0, 1}, {1, 2}, {3}])
    again = generate_sublattice(lat.elements[lat.top_index], lat.elements)
    assert set(again.elements) == set(lat.elements)
    assert again.size == lat.size


@st.composite
def random_generators(draw):
    ground = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=4))
    gens = [
        frozenset(draw(st.sets(st.integers(min_value=0, max_value=ground - 1))))
        for _ in range(k)
    ]
    return ground, gens


@settings(max_examples=60, deadline=None)
@given(random_generators())
def test_generated_lattice_is_distributive(gs):
    ground, gens = gs
    lat = generate_sublattice(ground, gens)
    # the defining identity directly on representatives
    for a, b, c in itertools.product(lat.elements, repeat=3):
        assert a & (b | c) == (a & b) | (a & c)


def test_load_lattice_roundtrip(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text('{"ground": 3, "generators": {"a": [0], "b": [1, 2]}}')
    lat, names = load_lattice(str(path))
    assert lat.size == 4
    assert names == {"a": frozenset({0}), "b": frozenset({1, 2})}
    assert sorted(map(lat.index_of, names.values())) == [0, 1]


def test_load_lattice_malformed():
    with pytest.raises(InputError):
        load_lattice({"generators": {}})
    with pytest.raises(InputError):
        load_lattice({"ground": 2, "generators": {"a": "nope"}})
