"""Wallman representation of finite distributive lattices.

Points are the atoms: in a finite lattice every maximal proper filter is the
principal filter of an atom, so atom enumeration replaces filter enumeration.
The trivial lattice (0 = 1) has no proper filters and maps to the empty
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import FiniteLattice, generate_sublattice


@dataclass
class FiniteSpace:
    points: tuple[str, ...]
    closed_base: dict[str, frozenset[str]]

    @cached_property
    def closed_sets(self) -> frozenset[frozenset[str]]:
        """The closed sets: `closed_base` and the whole space, closed under
        finite intersection and union."""
        return frozenset(generate_sublattice(
            self.points, [*self.closed_base.values(), self.full]
        ).elements)

    @property
    def full(self) -> frozenset[str]:
        return frozenset(self.points)


def wallman_space(L: FiniteLattice) -> tuple[FiniteSpace, list[frozenset[str]]]:
    """The Wallman space of L together with hom, the base assignment.

    hom(a) = the set of atom-points below a; it is a surjective lattice
    homomorphism onto the closed-set base, injective exactly when L is
    disjunctive."""
    atoms = L.atoms()
    point_names = tuple(f"p{i}" for i in range(len(atoms)))
    hom = [
        frozenset(point_names[j] for j, atom in enumerate(atoms) if atom <= e)
        for e in L.elements
    ]
    base = {f"L{i}": hom[i] for i in range(L.size)}
    return FiniteSpace(point_names, base), hom


def is_T1(space: FiniteSpace) -> bool:
    """Every singleton is closed."""
    return all(frozenset({p}) in space.closed_sets for p in space.points)


def is_hausdorff_like(space: FiniteSpace) -> bool:
    """Distinct points admit disjoint closed co-covers from the closed-set
    family: F u G = X with p outside F and q outside G.  For finite spaces
    this is equivalent to discreteness."""
    pts = list(space.points)
    full = space.full
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if not any(
                p not in F and q not in G and F | G == full
                for F in space.closed_sets
                for G in space.closed_sets
            ):
                return False
    return True


def space_dump(space: FiniteSpace) -> str:
    """Structured-text dump: points, then named base sets."""
    lines = [f"points: {' '.join(space.points)}"]
    for name in sorted(space.closed_base):
        members = " ".join(sorted(space.closed_base[name]))
        lines.append(f"base {name}: {members}")
    return "\n".join(lines) + "\n"
