"""Deterministic, budgeted generation of the witness theory.

The theory is an omega-recursion over a registry of constants k(n,m) grouped
in levels: level -1 names the base-lattice elements, level -2 (when enabled)
names the subcontinuum catalog, and level 5n+i holds the fresh witnesses
introduced at stage 5n+i.  Stage kinds cycle through meets/joins and lattice
axioms (i=1), normality (i=2), disjunctivity (i=3), the dimension schema
(i=4) and the crookedness schema (i=5).

One table of sentence shapes drives both generation and parsing: `SHAPES`
gives every kind its open formulas, whose free variables are roles.
Generation binds the roles to constants with `substitute`; the dump parser
matches each sentence against the same formulas, which recovers the role
bindings and rejects any other shape.  `_PARTS` and `_AXIOMS` say which
kinds each stage emits and over which tuples.

Levels are conceptually countable; here every level is capped by a budget
and every enumeration is truncated to the tuples whose fresh witnesses fit
the budget, so generation is finite, lazy and reproducible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields

from .errors import InputError, ResourceLimitError, UsageError
from .folang import (
    LIBRARY, And, Const, Eq, Exists, ForAll, Formula, Implies, Join, Meet, Neq,
    One, Or, Var, Zero, conj, conn, parse, print_formula, substitute, theta, zeta,
)
from .lattice import FiniteLattice

DEFAULT_BUDGET = 16
DEFAULT_AXIOM_CAP = 64


def constant_id(level: int, ordinal: int) -> str:
    return f"k({level},{ordinal})"


_CID_RE = re.compile(r"^k\((-?\d+),(\d+)\)$")


def constant_key(cid: str) -> tuple[int, int]:
    """The position of a registry constant in the natural order: by level,
    then by ordinal."""
    m = _CID_RE.match(cid)
    if not m:
        raise InputError(f"not a registry constant: {cid!r}")
    return int(m.group(1)), int(m.group(2))


class ConstantRegistry:
    """Budgeted levels of constants with the strict total order given by
    (level, ordinal)."""

    def __init__(self, default_budget: int = DEFAULT_BUDGET, overrides: dict[int, int] | None = None):
        if default_budget < 0:
            raise InputError("budget must be nonnegative")
        self.default_budget = default_budget
        self.overrides = dict(overrides or {})
        self.counts: dict[int, int] = {}

    def budget(self, level: int) -> int:
        return self.overrides.get(level, self.default_budget)

    def count(self, level: int) -> int:
        return self.counts.get(level, 0)

    def populate(self, level: int, count: int) -> list[str]:
        if self.count(level):
            raise UsageError(f"level {level} already populated")
        if count > self.budget(level):
            raise ResourceLimitError(
                f"level {level} needs {count} constants, budget is {self.budget(level)}"
            )
        self.counts[level] = count
        return [constant_id(level, m) for m in range(count)]

    def remaining(self, level: int) -> int:
        return self.budget(level) - self.count(level)

    def alloc(self, level: int, count: int, stage: str, index: int) -> list[str]:
        if self.remaining(level) < count:
            raise ResourceLimitError(
                f"stage {stage}: budget exhausted at l={index} "
                f"(level {level} holds {self.count(level)} of {self.budget(level)})"
            )
        start = self.count(level)
        self.counts[level] = start + count
        return [constant_id(level, start + m) for m in range(count)]

    def constants_at(self, level: int) -> list[str]:
        return [constant_id(level, m) for m in range(self.count(level))]

    def constants_upto(self, max_level: int) -> list[str]:
        out = []
        for level in sorted(self.counts):
            if level <= max_level:
                out.extend(self.constants_at(level))
        return out


@dataclass(frozen=True)
class SentenceRecord:
    stage: int                  # -1 for the subcontinuum stage, 0 for the diagram
    family: int | None
    index: int                  # enumeration index l within the family
    kind: str
    formula: Formula
    operands: tuple[str, ...] = ()
    fresh: tuple[str, ...] = ()
    ignorable: bool = False

    @property
    def token(self) -> str:
        if self.family is None:
            return f"S{self.stage}"
        return f"S{self.stage}^{self.family}"

    @property
    def text(self) -> str:
        return print_formula(self.formula)

    def line(self) -> str:
        return f"{self.token} {self.index}: {self.text}"


def stage_parts(stage: int) -> tuple[int, int]:
    """Decompose stage index sigma >= 1 as 5n+i with i in 1..5."""
    if stage < 1:
        raise UsageError(f"stage {stage} has no schema parts")
    n = (stage - 1) // 5
    return n, stage - 5 * n


def enumerate_new_tuples(registry: ConstantRegistry, n: int, k: int, limit: int | None = None) -> list[tuple[str, ...]]:
    """Size-k subsets (k=2,3) or length-4 tuples with repetition (k=4) over
    constants of levels <= 5n that use at least one constant above level
    5(n-1), in lexicographic order of the natural constant order; at most
    `limit` of them when a limit is given."""
    if k not in (2, 3, 4):
        raise UsageError("tuple size must be 2, 3 or 4")
    universe = registry.constants_upto(5 * n)
    universe.sort(key=constant_key)
    old_cut = 5 * (n - 1)
    old = {c for c in universe if constant_key(c)[0] <= old_cut}
    combos = itertools.combinations(universe, k) if k < 4 else itertools.product(universe, repeat=4)
    new = (combo for combo in combos if any(c not in old for c in combo))
    return list(itertools.islice(new, limit))


# --------------------------------------------------------------------------
# Sentence shapes
# --------------------------------------------------------------------------

class Shape:
    """The open formulas of one sentence kind, alternatives by form index.
    Their free variables are roles; a record reports the constants bound to
    the `operands` and `fresh` roles (diagram and axiom records report none)."""

    def __init__(self, operands: str, fresh: str, *forms: Formula):
        self.operands, self.fresh, self.forms = tuple(operands), tuple(fresh), forms

    def fill(self, roles: dict[str, str], form: int = 0) -> Formula:
        return substitute(self.forms[form], {r: Const(cid) for r, cid in roles.items()})

    def match(self, f: Formula) -> dict[str, str]:
        """The role bindings under which some form of the shape is `f`."""
        for form in self.forms:
            roles: dict[str, str] = {}
            try:
                _match(form, f, frozenset(), roles)
                return roles
            except InputError as exc:
                error = exc
        raise error


def _match(pattern, f, scope: frozenset, roles: dict[str, str]) -> None:
    """Walk `f` along `pattern`; a pattern variable that no enclosing
    quantifier binds is a role, and each role binds one constant."""
    if isinstance(pattern, Var) and pattern.name not in scope:
        if not isinstance(f, Const):
            raise InputError(f"role {pattern.name} needs a constant")
        if roles.setdefault(pattern.name, f.cid) != f.cid:
            raise InputError(f"role {pattern.name} bound to two constants")
        return
    if type(f) is not type(pattern):
        raise InputError(f"{type(f).__name__} where the shape has {type(pattern).__name__}")
    if isinstance(pattern, (ForAll, Exists)):
        scope = scope | set(pattern.vars)
    for field in fields(pattern):
        p, g = getattr(pattern, field.name), getattr(f, field.name)
        if isinstance(p, (str, tuple)):  # a bound variable's name or a quantifier prefix
            if p != g:
                raise InputError(f"{g!r} where the shape has {p!r}")
        else:
            _match(p, g, scope, roles)


def _shapes() -> dict[str, Shape]:
    # conn binds x and y, so the hat roles are h (the catalog constant), a, b
    a, b, c, d, h, m, x, y, z = (Var(r) for r in "abcdhmxyz")
    meet, join = Eq(Meet(a, b), m), Eq(Join(a, b), m)
    zero, one = Eq(a, Zero()), Eq(a, One())
    # unlike DISJ's matrix, the witness comes first in the meets
    disj = Shape("ab", "x", Implies(
        Neq(Meet(a, b), a),
        conj(Eq(Meet(x, a), x), Eq(Meet(x, b), Zero()), Neq(x, Zero())),
    ))
    return {
        "diagram-meet": Shape("", "", meet),
        "diagram-join": Shape("", "", join),
        "diagram-neq": Shape("", "", Neq(a, b)),
        "diagram-bounds": Shape("", "", zero, one, And(zero, one)),
        "hat-conn": Shape("ha", "", And(conn(h), Eq(Meet(h, a), h))),
        "hat-mono": Shape("hab", "", Implies(And(conn(h), Eq(Meet(h, b), h)), Eq(Meet(a, b), a))),
        "hat-zero": Shape("a", "", zero),
        "meet": Shape("ab", "m", meet),
        "join": Shape("ab", "m", join),
        "idem": Shape("", "", Eq(Join(a, a), a), Eq(Meet(a, a), a)),
        "assoc": Shape(
            "", "",
            Eq(Join(a, Join(b, c)), Join(Join(a, b), c)),
            Eq(Meet(a, Meet(b, c)), Meet(Meet(a, b), c)),
        ),
        "distrib": Shape("", "", Eq(Join(a, Meet(b, c)), Meet(Join(a, b), Join(a, c)))),
        "absorb": Shape("", "", Eq(Join(a, Meet(a, b)), a), Eq(Meet(a, Join(a, b)), a)),
        "guard": Shape(
            "", "", Implies(And(Eq(Join(a, b), One()), Eq(Meet(a, b), Zero())), Or(zero, one))
        ),
        "normal": Shape("ba", "xy", LIBRARY["NORM"].body.body),  # NORM's matrix
        "disj0": disj,
        "disj1": disj,
        "zeta": Shape("abc", "xyz", zeta(a, b, c, x, y, z)),
        "theta": Shape("abcd", "xyz", theta(a, b, c, d, x, y, z)),
    }


SHAPES: dict[str, Shape] = _shapes()

# Stage 5n+i for i = 1..5: the arity of the new tuples it enumerates, the
# fresh constants it allocates per tuple, and its families as (family, kind,
# the roles of the tuple's constants, the roles of the allocated ones); "-"
# marks an allocated constant that the family does not use.
_PARTS = {
    1: (2, 2, ((0, "meet", "ab", "m-"), (1, "join", "ab", "-m"))),
    2: (2, 2, ((None, "normal", "ba", "xy"),)),
    3: (2, 2, ((0, "disj0", "ba", "x-"), (1, "disj1", "ab", "-x"))),
    4: (3, 3, ((None, "zeta", "abc", "xyz"),)),
    5: (4, 3, ((None, "theta", "abcd", "xyz"),)),
}

# The lattice axioms of stage 5n+1, families 2 to 6: (kind, arity,
# ignorable).  Ignorable families hold in every set-backed model; they are
# capped at `axiom_cap` sentences and fragments skip them.
_AXIOMS = (
    ("idem", 1, False), ("assoc", 3, True), ("distrib", 3, True),
    ("absorb", 2, True), ("guard", 2, True),
)
_IGNORABLE = frozenset(kind for kind, _, ignorable in _AXIOMS if ignorable)

_HAT_KINDS = ("hat-conn", "hat-mono", "hat-zero")

# (part, family) -> the kinds a dump line may hold, where the part is the
# stage itself for stages -1 and 0, and i for stage 5n+i
_KINDS_AT = {(0, None): tuple(kind for kind in SHAPES if kind.startswith("diagram-"))}
_KINDS_AT.update({(-1, family): (kind,) for family, kind in enumerate(_HAT_KINDS)})
_KINDS_AT.update({
    (part, family): (kind,)
    for part, (_, _, families) in _PARTS.items() for family, kind, _, _ in families
})
_KINDS_AT.update({(1, family): (kind,) for family, (kind, _, _) in enumerate(_AXIOMS, start=2)})


def _record(stage: int, family: int | None, index: int, kind: str, f: Formula, roles: dict[str, str]) -> SentenceRecord:
    shape = SHAPES[kind]
    return SentenceRecord(
        stage, family, index, kind, f,
        tuple(roles[r] for r in shape.operands), tuple(roles[r] for r in shape.fresh),
        kind in _IGNORABLE,
    )


def _sentence(stage: int, family: int | None, index: int, kind: str, roles: dict[str, str], form: int = 0) -> SentenceRecord:
    return _record(stage, family, index, kind, SHAPES[kind].fill(roles, form), roles)


class SigmaGenerator:
    """Generates the theory stage by stage over a fresh registry.

    `continuum_constants` enables the level -2 subcontinuum stage: the first
    beta constants of level -2 are declared connected and paired with the
    same-index level -1 constants; the rest are forced to 0.
    """

    def __init__(
        self,
        base: FiniteLattice,
        budget: int = DEFAULT_BUDGET,
        axiom_cap: int = DEFAULT_AXIOM_CAP,
        continuum_constants: int = 0,
        hat_size: int | None = None,
    ):
        self.base = base
        self.axiom_cap = axiom_cap
        self.continuum_constants = continuum_constants
        if continuum_constants < 0:
            raise InputError("continuum constant count must be nonnegative")
        hat = continuum_constants > 0 or (hat_size or 0) > 0
        hat_n = (hat_size if hat_size is not None else budget) if hat else 0
        if continuum_constants > hat_n:
            raise InputError("continuum constants exceed the level -2 size")
        if continuum_constants > base.size:
            raise InputError("continuum constants exceed the base lattice size")
        self.registry = ConstantRegistry(
            default_budget=budget, overrides={-1: base.size, -2: hat_n}
        )
        self.registry.populate(-1, base.size)
        if hat:
            self.registry.populate(-2, hat_n)
        self._stages: dict[int, list[SentenceRecord]] = {}

    def base_constant(self, element_index: int) -> str:
        return constant_id(-1, element_index)

    def _budgeted_tuples(self, stage: int, n: int, arity: int, per_tuple: int) -> list[tuple[str, ...]]:
        """The new tuples whose `per_tuple` fresh constants each fit the
        stage budget; raises when new tuples exist but not one fits."""
        fits = self.registry.remaining(stage) // per_tuple
        tuples = enumerate_new_tuples(self.registry, n, arity, limit=max(fits, 1))
        if tuples and not fits:
            raise ResourceLimitError(f"stage S{stage}: budget exhausted at l=0")
        return tuples[:fits]

    # ------------------------------------------------------------- stages

    def diagram(self) -> list[SentenceRecord]:
        """The atomic diagram of the base lattice: named meets, joins,
        inequalities, and the bottom/top identifications."""
        recs: list[SentenceRecord] = []
        B, k = self.base, self.base_constant
        for l, (i, j) in enumerate(itertools.combinations(range(B.size), 2)):
            a, b = B.elements[i], B.elements[j]
            pair = {"a": k(i), "b": k(j)}
            recs.append(_sentence(0, None, l, "diagram-meet", {**pair, "m": k(B.index_of(a & b))}))
            recs.append(_sentence(0, None, l, "diagram-join", {**pair, "m": k(B.index_of(a | b))}))
            recs.append(_sentence(0, None, l, "diagram-neq", pair))
        bottom, top = {"a": k(B.bottom_index)}, {"a": k(B.top_index)}
        if B.bottom_index == B.top_index:  # k = 0 & k = 1
            recs.append(_sentence(0, None, 0, "diagram-bounds", bottom, form=2))
        else:
            recs.append(_sentence(0, None, 0, "diagram-bounds", bottom, form=0))
            recs.append(_sentence(0, None, 1, "diagram-bounds", top, form=1))
        return recs

    def subcontinuum_stage(self) -> list[SentenceRecord]:
        """Level -2 sentences: each catalog constant is connected and sits
        under its paired level -1 constant; catalog constants dominate every
        level -1 constant containing them; the others are zero."""
        beta = self.continuum_constants
        hat_n = self.registry.count(-2)
        base_n = self.registry.count(-1)
        cat, el = (lambda i: constant_id(-2, i)), self.base_constant
        operands = (
            [(cat(alpha), el(alpha)) for alpha in range(beta)],
            [(cat(alpha), el(alpha), el(gamma)) for alpha in range(beta) for gamma in range(base_n)],
            [(cat(gamma),) for gamma in range(beta, hat_n)],
        )
        return [
            _sentence(-1, family, l, kind, dict(zip(SHAPES[kind].operands, ops)))
            for family, (kind, tuples) in enumerate(zip(_HAT_KINDS, operands))
            for l, ops in enumerate(tuples)
        ]

    def _schema_stage(self, stage: int) -> list[SentenceRecord]:
        """Stage 5n+i: one sentence per family of part i for every new tuple
        that fits the budget, then for i = 1 the lattice axioms."""
        n, part = stage_parts(stage)
        arity, per_tuple, families = _PARTS[part]
        recs = []
        for l, tup in enumerate(self._budgeted_tuples(stage, n, arity, per_tuple)):
            fresh = tuple(self.registry.alloc(stage, per_tuple, f"S{stage}", l))
            for family, kind, tuple_roles, fresh_roles in families:
                roles = dict(zip(tuple_roles + fresh_roles, tup + fresh))
                recs.append(_sentence(stage, family, l, kind, roles))
        if part == 1:
            recs.extend(self._axioms(stage, n))
        return recs

    def _axioms(self, stage: int, n: int) -> list[SentenceRecord]:
        universe = sorted(self.registry.constants_upto(5 * n), key=constant_key)
        recs = []
        for family, (kind, arity, ignorable) in enumerate(_AXIOMS, start=2):
            idx = 0
            for tup in itertools.product(universe, repeat=arity):
                if ignorable and idx >= self.axiom_cap:
                    break
                for form in range(len(SHAPES[kind].forms)):
                    recs.append(_sentence(stage, family, idx, kind, dict(zip("abc", tup)), form))
                    idx += 1
        return recs

    def gen_stage(self, stage: int) -> list[SentenceRecord]:
        """Generate one stage; earlier stages must exist already."""
        if stage in self._stages:
            return self._stages[stage]
        if stage == -1:
            recs = self.subcontinuum_stage()
        elif stage == 0:
            recs = self.diagram()
        else:
            for earlier in range(1, stage):
                if earlier not in self._stages:
                    raise UsageError(f"stage {earlier} must be generated before {stage}")
            recs = self._schema_stage(stage)
        self._stages[stage] = recs
        return recs

    def generate_through(self, max_stage: int) -> list[SentenceRecord]:
        """All sentences of stages up to `max_stage`, in the global order:
        stage, then enumeration index, then family."""
        out: list[SentenceRecord] = []
        if self.registry.count(-2):
            out.extend(self.gen_stage(-1))
        out.extend(self.gen_stage(0))
        for stage in range(1, max_stage + 1):
            out.extend(self.gen_stage(stage))
        return out


def fragment(records: list[SentenceRecord], size: int) -> list[SentenceRecord]:
    """The first `size` sentences in the well order, skipping the families
    that are automatically true in every set-backed model (stage-5n+1
    associativity, distributivity, absorption, and connectivity guards)."""
    usable = [r for r in records if not r.ignorable]
    if size > len(usable):
        raise InputError(f"fragment size {size} exceeds the {len(usable)} generated sentences")
    return usable[:size]


# --------------------------------------------------------------------------
# Dumps
# --------------------------------------------------------------------------

def dump_sentences(records: list[SentenceRecord]) -> str:
    return "\n".join(r.line() for r in records) + ("\n" if records else "")


_LINE_RE = re.compile(r"^S(-?\d+)(?:\^(\d+))? (\d+): (.*)$")


def _read(stage: int, family: int | None, f: Formula) -> tuple[str, dict[str, str]]:
    """The kind of a dumped sentence and its role bindings, from its stage
    token and its shape."""
    part = stage_parts(stage)[1] if stage >= 1 else stage
    kinds = _KINDS_AT.get((part, family))
    if kinds is None:
        token = f"S{stage}" if family is None else f"S{stage}^{family}"
        raise InputError(f"{token} names no sentence family")
    for kind in kinds:
        try:
            return kind, SHAPES[kind].match(f)
        except InputError as exc:
            error = exc
    raise InputError(f"not a {' or '.join(kinds)} sentence: {error}")


def parse_sentence_dump(text: str) -> list[SentenceRecord]:
    """Reconstruct sentence records from the dump format; provenance is
    recovered from the stage token and the sentence shape."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise InputError(f"line {lineno}: not a sentence dump line")
        stage = int(m.group(1))
        family = int(m.group(2)) if m.group(2) is not None else None
        index = int(m.group(3))
        try:
            f = parse(m.group(4))
            kind, roles = _read(stage, family, f)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        records.append(_record(stage, family, index, kind, f, roles))
    return records
