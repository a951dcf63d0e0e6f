"""Finite bounded distributive lattices realized concretely.

Every finite distributive lattice is a ring of sets (G. Birkhoff, "Rings of
sets", Duke Math. J. 3 (1937)), so an element here is its own frozenset of
points of a finite ground set, meet and join are `&` and `|`, and no handle
wraps it; `index_of` finds an element's index.  Every lattice made here
carries a derivation for each element (generator, bottom, top, or a
meet/join of earlier elements) so interpretations of the elements can be
replayed in another lattice of sets, e.g. the closed sets of a metric graph.

Closing a lattice is the expensive path and is bounded by an element cap.
`join_irreducibles` and `conn_by_birkhoff` read a generated lattice's
join-irreducibles and the connectedness of any of its elements off int
bitmask generators directly, without closing it.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .errors import InputError, ResourceLimitError, UsageError

DEFAULT_ELEMENT_CAP = 4096

# Derivations: ("gen", name) | ("bottom",) | ("top",) | ("meet", i, j) | ("join", i, j)
Derivation = tuple


class FiniteLattice:
    """A family of subsets closed under intersection and union.

    The family must contain the empty set (bottom) and the union of all its
    members (top); each pair is checked once at construction.  An element
    is its frozenset, so meet and join are `&` and `|` on `elements`.
    """

    def __init__(
        self,
        elements: Sequence[Iterable],
        derivations: Sequence[Derivation] | None = None,
    ):
        elems = [frozenset(e) for e in elements]
        if len(set(elems)) != len(elems):
            raise InputError("duplicate elements in lattice family")
        if not elems:
            raise InputError("lattice needs at least one element")
        self.elements: list[frozenset] = elems
        self._index = {e: i for i, e in enumerate(elems)}
        if frozenset() not in self._index:
            raise InputError("lattice family must contain the empty set")
        self.bottom_index = self._index[frozenset()]
        top = frozenset().union(*elems)
        if top not in self._index:
            raise InputError("lattice family must contain the union of its members")
        self.top_index = self._index[top]
        for j, b in enumerate(elems):
            for i in range(j + 1):
                if elems[i] & b not in self._index or elems[i] | b not in self._index:
                    raise InputError(
                        f"family not closed under meet/join at pair ({i},{j})"
                    )
        self.derivations: list[Derivation] = (
            list(derivations) if derivations is not None else [None] * len(elems)
        )

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, points: Iterable) -> int:
        """The index of the element `points`."""
        key = frozenset(points)
        if key not in self._index:
            raise UsageError(f"{sorted(key)} is not an element of this lattice")
        return self._index[key]

    def atoms(self) -> list[frozenset]:
        """Minimal nonzero elements, in index order."""
        return [e for e in self.elements if e and not any(f and f < e for f in self.elements)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteLattice) and other.elements == self.elements
        )

    def __hash__(self):
        return hash(tuple(self.elements))

    def __repr__(self) -> str:
        return f"<FiniteLattice size={self.size} ground={len(self.elements[self.top_index])}>"


def generate_sublattice(
    ground: Iterable | int,
    generators: Sequence[Iterable],
    names: Sequence[str] | None = None,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> FiniteLattice:
    """Close a family of subsets under pairwise intersection and union.

    Bottom (the empty set) and top (the union of all generators) are adjoined
    explicitly.  Discovery order is deterministic: generators in the given
    order, then bottom and top, then a BFS over pairs by index; this pins the
    element indices every enumeration downstream depends on.
    """
    points = frozenset(range(ground)) if isinstance(ground, int) else frozenset(ground)
    gens: list[frozenset] = []
    derivs: list[Derivation] = []
    for g_i, g in enumerate(generators):
        gs = frozenset(g)
        label = names[g_i] if names else str(g_i)
        if not gs <= points:
            raise InputError(f"generator {label} is not a subset of the ground set")
        if gs not in gens:
            # a repeated set keeps the first name it came with
            gens.append(gs)
            derivs.append(("gen", label))
    family: list[frozenset] = list(gens)
    seen = set(family)

    def add(e: frozenset, d: Derivation) -> None:
        if e not in seen:
            if len(family) >= cap:
                raise ResourceLimitError(
                    f"sublattice closure exceeded the element cap ({cap})"
                )
            family.append(e)
            seen.add(e)
            derivs.append(d)

    add(frozenset(), ("bottom",))
    add(frozenset().union(*gens) if gens else frozenset(), ("top",))

    # Fixed-point closure: scan pairs (i, j) with j growing, i <= j, meets
    # before joins, so indices only depend on the generator order.
    j = 0
    while j < len(family):
        for i in range(j + 1):
            m = family[i] & family[j]
            add(m, ("meet", i, j))
            u = family[i] | family[j]
            add(u, ("join", i, j))
        j += 1
    return FiniteLattice(family, derivs)


def join_irreducibles(generators: Iterable[int]) -> list[int]:
    """J(L) of the lattice L of sets generated by bitmask `generators` (the
    empty set and their union adjoined), without closing L: the distinct
    M_x = intersection of the generators containing x, over the points x of
    the union (G. Birkhoff, "Rings of sets", Duke Math. J. 3 (1937)).

    The points are split into blocks that every generator either contains or
    misses, so each M_x is intersected once per block, not once per point."""
    gens = list(dict.fromkeys(generators))
    top = 0
    for g in gens:
        top |= g
    blocks = [(top, top)] if top else []   # (block, M of its points)
    for g in gens:
        refined = []
        for block, m in blocks:
            if block & g:
                refined.append((block & g, m & g))
            if block & ~g:
                refined.append((block & ~g, m))
        blocks = refined
    return sorted({m for _, m in blocks})


def conn_by_birkhoff(generators: Iterable[int], t: int) -> bool:
    """CONN(t) for an element t of the lattice L generated by bitmask
    `generators`, without closing L: the complemented elements of the
    down-set of t are the down-sets of {j in J(L) : j <= t} that are also
    up-sets, so t is connected exactly when their comparability graph is
    connected (vacuously for t = 0).  CONN(1) is t = the generators' union."""
    below = [j for j in join_irreducibles(generators) if j & t == j]
    frontier, rest = below[:1], below[1:]
    while frontier and rest:
        m = frontier.pop()
        frontier += [n for n in rest if m & n in (m, n)]
        rest = [n for n in rest if m & n not in (m, n)]
    return not rest


def load_lattice(source) -> tuple[FiniteLattice, dict[str, frozenset]]:
    """Build a lattice from the structured-text file format.

    Format: {"ground": n, "generators": {name: [point indices]}}.  Returns the
    lattice and a map from generator name to its set (an element).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    try:
        n = data["ground"]
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed lattice file: {exc}") from exc
    # `type(...) is int`: `bool` subclasses `int`, and `true` is no index
    if type(n) is not int or n < 0:
        raise InputError(f"ground size must be a nonnegative integer, not {n!r}")
    if not isinstance(gens, dict):
        raise InputError(f"generators must be an object, not {gens!r}")
    names = sorted(gens)
    sets = []
    for name in names:
        pts = gens[name]
        if not isinstance(pts, list) or not all(type(p) is int for p in pts):
            raise InputError(f"generator {name} must be a list of point indices")
        sets.append(frozenset(pts))
    return generate_sublattice(n, sets, names=names), dict(zip(names, sets))
