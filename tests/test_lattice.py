import itertools

import pytest
from hypothesis import given, settings, strategies as st

from crooked.errors import EvaluationError, InputError, ResourceLimitError, UsageError
from crooked.folang import eval_bruteforce, eval_formula, parse
from crooked.lattice import generate_sublattice, load_lattice


def powerset_lattice(n):
    pts = range(n)
    subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(pts, r)]
    return generate_sublattice(pts, subsets)


def test_generate_two_generators_closure():
    lat = generate_sublattice({1, 2, 3}, [{1}, {2, 3}])
    assert sorted(sorted(e) for e in lat.elements) == [[], [1], [1, 2, 3], [2, 3]]
    assert lat.size == 4


def test_generate_empty_generators_collapses():
    lat = generate_sublattice({1}, [])
    assert lat.size == 1
    assert lat.bottom_index == lat.top_index
    assert lat.elements == [frozenset()]


def test_repeated_generator_keeps_later_names():
    # a repeated set is dropped with its own name, not the next one's
    lat = generate_sublattice(3, [[0], [0], [0, 1, 2]], names=["g0", "h", "g1"])
    assert lat.elements[:2] == [frozenset({0}), frozenset({0, 1, 2})]
    assert lat.derivations[:2] == [("gen", "g0"), ("gen", "g1")]
    lat, _ = load_lattice({"ground": 3, "generators": {"a": [0], "b": [0], "c": [0, 1, 2]}})
    assert lat.derivations[lat.index_of({0, 1, 2})] == ("gen", "c")


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


def test_atoms_examples():
    assert [sorted(a) for a in powerset_lattice(3).atoms()] == [[0], [1], [2]]
    chain = generate_sublattice({1, 2}, [frozenset(), frozenset({1}), frozenset({1, 2})])
    assert [sorted(a) for a in chain.atoms()] == [[1]]
    assert generate_sublattice({1}, []).atoms() == []


def test_closed_family_keeps_its_order():
    family = [frozenset({0, 1, 2}), frozenset({1}), frozenset(), frozenset({0, 1}), frozenset({1, 2})]
    lat = generate_sublattice(3, family)
    assert lat.elements == family
    assert lat.derivations == [("gen", str(i)) for i in range(len(family))]
    assert (lat.bottom_index, lat.top_index) == (2, 0)


def test_regeneration_idempotent():
    lat = generate_sublattice(range(4), [{0, 1}, {1, 2}, {3}])
    again = generate_sublattice(lat.elements[lat.top_index], lat.elements)
    assert set(again.elements) == set(lat.elements)
    assert again.size == lat.size


@st.composite
def random_generators(draw, max_ground=5, max_gens=4):
    ground = draw(st.integers(min_value=1, max_value=max_ground))
    k = draw(st.integers(min_value=0, max_value=max_gens))
    gens = [
        frozenset(draw(st.sets(st.integers(min_value=0, max_value=ground - 1))))
        for _ in range(k)
    ]
    return ground, gens


@settings(max_examples=100, deadline=None)
@given(random_generators(max_ground=6, max_gens=6))
def test_generated_family_is_closed(gs):
    # the closure guarantee every other lattice user relies on
    ground, gens = gs
    lat = generate_sublattice(ground, gens)
    elems = lat.elements
    assert len(set(elems)) == len(elems)
    top = frozenset().union(*gens)
    assert elems[lat.bottom_index] == frozenset() and elems[lat.top_index] == top
    members = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        assert a & b in members and a | b in members
    assert len(lat.derivations) == len(elems)
    replayed = []
    for d in lat.derivations:
        tag = d[0]
        if tag == "gen":
            replayed.append(frozenset(gens[int(d[1])]))
        elif tag == "bottom":
            replayed.append(frozenset())
        elif tag == "top":
            replayed.append(top)
        else:
            a, b = replayed[d[1]], replayed[d[2]]
            replayed.append(a & b if tag == "meet" else a | b)
    assert replayed == elems


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
