"""Finite bounded distributive lattices realized concretely.

Elements are subsets of a finite ground set; meet and join are set
intersection and union, computed on the sets.  Every lattice made here
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


class LatticeElement:
    """A handle on one element of a FiniteLattice."""

    __slots__ = ("lattice", "index")

    def __init__(self, lattice: "FiniteLattice", index: int):
        if not 0 <= index < lattice.size:
            raise UsageError(f"element index {index} out of range")
        self.lattice = lattice
        self.index = index

    @property
    def points(self) -> frozenset:
        return self.lattice.elements[self.index]

    def meet(self, other: "LatticeElement") -> "LatticeElement":
        return self.lattice.meet(self, other)

    def join(self, other: "LatticeElement") -> "LatticeElement":
        return self.lattice.join(self, other)

    def le(self, other: "LatticeElement") -> bool:
        return self.meet(other) == self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeElement)
            and other.lattice is self.lattice
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.index))

    def __repr__(self) -> str:
        return f"<elt {self.index}:{sorted(self.points)}>"


class FiniteLattice:
    """A family of subsets closed under intersection and union.

    The family must contain the empty set (bottom) and the union of all its
    members (top); each pair is checked once at construction.  Meet and
    join are computed on the sets and looked up in the index.
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

    @property
    def ground(self) -> frozenset:
        return self.elements[self.top_index]

    def element(self, index: int) -> LatticeElement:
        return LatticeElement(self, index)

    def element_for(self, points: Iterable) -> LatticeElement:
        key = frozenset(points)
        if key not in self._index:
            raise UsageError(f"{sorted(key)} is not an element of this lattice")
        return LatticeElement(self, self._index[key])

    @property
    def bottom(self) -> LatticeElement:
        return LatticeElement(self, self.bottom_index)

    @property
    def top(self) -> LatticeElement:
        return LatticeElement(self, self.top_index)

    def _check_pair(self, a: LatticeElement, b: LatticeElement) -> None:
        if a.lattice is not self or b.lattice is not self:
            raise UsageError("elements belong to different lattices")

    def meet(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        self._check_pair(a, b)
        return LatticeElement(self, self._index[a.points & b.points])

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        self._check_pair(a, b)
        return LatticeElement(self, self._index[a.points | b.points])

    def atoms(self) -> list[LatticeElement]:
        """Minimal nonzero elements, in index order."""
        out = []
        for i, e in enumerate(self.elements):
            if i == self.bottom_index:
                continue
            minimal = True
            for j, f in enumerate(self.elements):
                if j in (i, self.bottom_index):
                    continue
                if f < e:
                    minimal = False
                    break
            if minimal:
                out.append(LatticeElement(self, i))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteLattice) and other.elements == self.elements
        )

    def __hash__(self):
        return hash(tuple(self.elements))

    def __repr__(self) -> str:
        return f"<FiniteLattice size={self.size} ground={len(self.ground)}>"


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
    for g_i, g in enumerate(generators):
        gs = frozenset(g)
        if not gs <= points:
            label = names[g_i] if names else str(g_i)
            raise InputError(f"generator {label} is not a subset of the ground set")
        if gs not in gens:
            gens.append(gs)
    family: list[frozenset] = list(gens)
    seen = set(family)
    derivs: list[Derivation] = [
        ("gen", names[i] if names else str(i)) for i in range(len(family))
    ]

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


def load_lattice(source) -> tuple[FiniteLattice, dict[str, int]]:
    """Build a lattice from the structured-text file format.

    Format: {"ground": n, "generators": {name: [point indices]}}.  Returns the
    lattice and a map from generator name to element index.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    try:
        n = int(data["ground"])
        gens = data["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed lattice file: {exc}") from exc
    if n < 0:
        raise InputError("ground size must be nonnegative")
    names = sorted(gens)
    sets = []
    for name in names:
        pts = gens[name]
        if not isinstance(pts, list) or not all(isinstance(p, int) for p in pts):
            raise InputError(f"generator {name} must be a list of point indices")
        sets.append(frozenset(pts))
    lat = generate_sublattice(n, sets, names=names)
    name_to_index = {
        name: lat._index[sets[i]] for i, name in enumerate(names)
    }
    return lat, name_to_index
