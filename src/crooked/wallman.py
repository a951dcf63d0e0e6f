"""Wallman representation of finite distributive lattices.

Points are the atoms: in a finite lattice every maximal proper filter is the
principal filter of an atom, so atom enumeration replaces filter enumeration.
The trivial lattice (0 = 1) has no proper filters and maps to the empty
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import FiniteLattice, generate_sublattice


@dataclass
class FiniteSpace:
    points: tuple[str, ...]
    closed_base: dict[str, frozenset[str]]
    closed_sets: frozenset[frozenset[str]] = field(default=frozenset())

    def __post_init__(self):
        if not self.closed_sets:
            self.closed_sets = frozenset(generate_sublattice(
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


def _is_empty(s) -> bool:
    if hasattr(s, "is_empty"):
        return s.is_empty()
    return len(s) == 0


def check_contimage_conditions(
    base: dict[str, frozenset],
    y_full: frozenset,
    phi: dict,
    x_full,
    arity_cap: int = 3,
) -> list[tuple]:
    """Verify the three conditions that make a base assignment induce a
    continuous surjection.

    (1) phi(empty) is empty and phi(F) is nonempty for nonempty F;
    (2) co-covers map to co-covers: F u G = Y implies phi(F) u phi(G) = X;
    (3) empty intersections of up to `arity_cap` base sets map to empty
        intersections.

    `phi` values may be frozensets or any set-like values supporting &, |
    and equality (e.g. metric-graph closed sets).  Returns violation
    records; empty means all conditions hold."""
    report: list[tuple] = []
    names = sorted(base)
    for name in names:
        if name not in phi:
            report.append(("total", (name,), "phi is not defined on this base set"))
    if report:
        return report
    for name in names:
        F = base[name]
        if _is_empty(F) and not _is_empty(phi[name]):
            report.append(("1", (name,), "phi(empty) must be empty"))
        if not _is_empty(F) and _is_empty(phi[name]):
            report.append(("1", (name,), "phi must send nonempty to nonempty"))
    for i, n1 in enumerate(names):
        for n2 in names[i:]:
            if base[n1] | base[n2] == y_full:
                if (phi[n1] | phi[n2]) != x_full:
                    report.append(("2", (n1, n2), "co-cover not preserved"))
    import itertools as _it

    for r in range(2, arity_cap + 1):
        for combo in _it.combinations(names, r):
            inter = base[combo[0]]
            for nm in combo[1:]:
                inter = inter & base[nm]
            if _is_empty(inter):
                img = phi[combo[0]]
                for nm in combo[1:]:
                    img = img & phi[nm]
                if not _is_empty(img):
                    report.append(("3", combo, "empty intersection not preserved"))
    return report


def space_dump(space: FiniteSpace) -> str:
    """Structured-text dump: points, then named base sets."""
    lines = [f"points: {' '.join(space.points)}"]
    for name in sorted(space.closed_base):
        members = " ".join(sorted(space.closed_base[name]))
        lines.append(f"base {name}: {members}")
    return "\n".join(lines) + "\n"
