"""First-order formula language over the bounded-lattice signature.

Terms are built from variables, named constants, 0, 1, meet (^) and join (v);
formulas from equalities, the usual connectives, and quantifier prefixes.
One short-circuiting walk evaluates the language on set values, meet and
join being & and |.  `eval_formula` runs it over a closed lattice, whose
elements are frozensets, with the constants given as a name -> set map;
quantifiers range over the elements, and it reports a witness or
counterexample (each variable's set) for the outermost quantifier block.
`eval_masks` runs it over int bitmask generators without closing their
lattice, deciding conn(t) by Birkhoff duality.  `eval_bruteforce` is a
deliberately separate, pruning-free code path on element indices, used as
an independent oracle.  One walk finds a formula's constants and free
variables, and its result is kept on the formula.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .errors import EvaluationError, ParseError, UnboundVariableError, UsageError
from .lattice import FiniteLattice, conn_by_birkhoff


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class _Node:
    """A term or formula.  `symbols` is walked on the first ask and kept in
    `__dict__`, which the dataclasses' `==`, `hash` and `fields()` skip."""

    @cached_property
    def symbols(self) -> _Symbols:
        return _walk(self, frozenset())


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Const(_Node):
    cid: str


@dataclass(frozen=True)
class Zero(_Node):
    pass


@dataclass(frozen=True)
class One(_Node):
    pass


@dataclass(frozen=True)
class Meet(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Join(_Node):
    left: "Term"
    right: "Term"


Term = Var | Const | Zero | One | Meet | Join


@dataclass(frozen=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(_Node):
    sub: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForAll(_Node):
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class Exists(_Node):
    vars: tuple[str, ...]
    body: "Formula"


Formula = Eq | Neq | Not | And | Or | Implies | ForAll | Exists


def conj(*parts: Formula) -> Formula:
    """Left-nested conjunction, matching how `a & b & c` parses."""
    if not parts:
        raise UsageError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def meets(*terms: Term) -> Term:
    """Left-nested meet chain, as `a ^ b ^ c` parses."""
    out = terms[0]
    for t in terms[1:]:
        out = Meet(out, t)
    return out


def joins(*terms: Term) -> Term:
    out = terms[0]
    for t in terms[1:]:
        out = Join(out, t)
    return out


class _Symbols(NamedTuple):
    free: frozenset          # variables no enclosing quantifier binds
    constants: frozenset
    quantifier_free: bool


def _walk(node: _Node, bound: frozenset) -> _Symbols:
    """What a term or formula names outside the quantifiers binding `bound`,
    in one pass that reads no `symbols`, so only nodes asked about keep one."""
    cls = type(node)
    if cls is Var:
        return _Symbols(frozenset({node.name}) - bound, frozenset(), True)
    if cls is Const or cls is Zero or cls is One:
        return _Symbols(frozenset(), frozenset({node.cid} if cls is Const else ()), True)
    if cls is Not:
        return _walk(node.sub, bound)
    if cls is ForAll or cls is Exists:
        return _walk(node.body, bound | set(node.vars))._replace(quantifier_free=False)
    if cls in (Meet, Join, Eq, Neq, And, Or, Implies):
        (lf, lc, lq), (rf, rc, rq) = _walk(node.left, bound), _walk(node.right, bound)
        return _Symbols(lf | rf, lc | rc, lq and rq)
    raise UsageError(f"not a term or formula: {node!r}")


def constants_of(f: Term | Formula) -> frozenset[str]:
    if not isinstance(f, _Node):
        raise UsageError(f"not a term or formula: {f!r}")
    return f.symbols.constants


def is_ground(f: Formula) -> bool:
    """Closed and quantifier-free."""
    return f.symbols.quantifier_free and not f.symbols.free


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

_TERM_PREC = {"join": 1, "meet": 2, "atom": 3}


def _print_term(t: Term, parent: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.cid
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Meet):
        prec = _TERM_PREC["meet"]
        # left-associative: right child needs parens at equal precedence
        s = f"{_print_term(t.left, prec - 1)} ^ {_print_term(t.right, prec)}"
    elif isinstance(t, Join):
        prec = _TERM_PREC["join"]
        s = f"{_print_term(t.left, prec - 1)} v {_print_term(t.right, prec)}"
    else:
        raise UsageError(f"not a term: {t!r}")
    return f"({s})" if parent >= prec else s


# formula precedence, low to high: quantifier(0) -> (1) | (2) & (3) ! (4)
def _print_formula(f: Formula, parent: int = 0) -> str:
    if isinstance(f, Eq):
        return f"{_print_term(f.left)} = {_print_term(f.right)}"
    if isinstance(f, Neq):
        return f"{_print_term(f.left)} != {_print_term(f.right)}"
    if isinstance(f, (ForAll, Exists)):
        kw = "forall" if isinstance(f, ForAll) else "exists"
        s = f"{kw} {' '.join(f.vars)}. {_print_formula(f.body, 0)}"
        return f"({s})" if parent > 0 else s
    if isinstance(f, Implies):
        # right-associative
        s = f"{_print_formula(f.left, 1)} -> {_print_formula(f.right, 0)}"
        return f"({s})" if parent >= 1 else s
    if isinstance(f, Or):
        s = f"{_print_formula(f.left, 1)} | {_print_formula(f.right, 2)}"
        return f"({s})" if parent >= 2 else s
    if isinstance(f, And):
        s = f"{_print_formula(f.left, 2)} & {_print_formula(f.right, 3)}"
        return f"({s})" if parent >= 3 else s
    if isinstance(f, Not):
        return f"!{_print_formula(f.sub, 4)}"
    raise UsageError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    return _print_formula(f, 0)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<neq>!=)|(?P<sym>[()=.,&|!^])|"
    r"(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_KEYWORDS = {"forall", "exists", "v"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok


class _Parser:
    """Recursive descent with one backtrack point: a '(' may open either a
    parenthesized formula or a parenthesized term."""

    def __init__(self, text: str, constants: set[str] | None):
        self.toks = _Tokens(text)
        self.constants = constants
        self.bound: list[str] = []

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.toks.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return f

    # formula := implies
    def formula(self) -> Formula:
        return self.implies()

    def implies(self) -> Formula:
        left = self.or_()
        if self.toks.peek()[:2] == ("arrow", "->"):
            self.toks.next()
            return Implies(left, self.implies())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.toks.peek()[:2] == ("sym", "|"):
            self.toks.next()
            left = Or(left, self.and_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.toks.peek()[:2] == ("sym", "&"):
            self.toks.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, value, pos = self.toks.peek()
        if (kind, value) == ("sym", "!"):
            self.toks.next()
            return Not(self.unary())
        if kind == "ident" and value in ("forall", "exists"):
            self.toks.next()
            names = []
            while self.toks.peek()[0] == "ident" and self.toks.peek()[1] not in _KEYWORDS:
                names.append(self.toks.next()[1])
            if not names:
                raise ParseError("quantifier needs at least one variable", pos)
            if len(set(names)) != len(names):
                raise ParseError("repeated variable in quantifier prefix", pos)
            self.toks.expect("sym", ".")
            self.bound.extend(names)
            body = self.formula()
            del self.bound[-len(names):]
            cls = ForAll if value == "forall" else Exists
            return cls(tuple(names), body)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.toks.peek()
        if (kind, value) == ("sym", "("):
            mark = self.toks.i
            self.toks.next()
            try:
                inner = self.formula()
                self.toks.expect("sym", ")")
                return inner
            except ParseError:
                self.toks.i = mark
        left = self.term()
        kind, value, pos = self.toks.next()
        if (kind, value) == ("sym", "="):
            return Eq(left, self.term())
        if kind == "neq":
            return Neq(left, self.term())
        raise ParseError(f"expected '=' or '!=', found {value!r}", pos)

    # term := meet_chain ('v' meet_chain)*
    def term(self) -> Term:
        left = self.meet_chain()
        while self.toks.peek()[0] == "ident" and self.toks.peek()[1] == "v":
            self.toks.next()
            left = Join(left, self.meet_chain())
        return left

    def meet_chain(self) -> Term:
        left = self.term_atom()
        while self.toks.peek()[:2] == ("sym", "^"):
            self.toks.next()
            left = Meet(left, self.term_atom())
        return left

    def term_atom(self) -> Term:
        kind, value, pos = self.toks.next()
        if (kind, value) == ("sym", "("):
            t = self.term()
            self.toks.expect("sym", ")")
            return t
        if kind == "int":
            if value == "0":
                return Zero()
            if value == "1":
                return One()
            raise ParseError(f"unexpected number {value!r}", pos)
        if kind == "ident":
            if value in _KEYWORDS:
                raise ParseError(f"keyword {value!r} cannot start a term", pos)
            if value == "k" and self.toks.peek()[:2] == ("sym", "("):
                return Const(self._registry_constant(pos))
            if value in self.bound:
                return Var(value)
            if self.constants is not None and value not in self.constants:
                raise UnboundVariableError(f"unbound identifier {value!r}", pos)
            return Const(value)
        raise ParseError(f"expected a term, found {value!r}", pos)

    def _registry_constant(self, pos: int) -> str:
        self.toks.expect("sym", "(")
        level = self.toks.expect("int")[1]
        self.toks.expect("sym", ",")
        ordinal = self.toks.expect("int")[1]
        self.toks.expect("sym", ")")
        if int(ordinal) < 0:
            raise ParseError("constant ordinal must be nonnegative", pos)
        return f"k({int(level)},{int(ordinal)})"


def parse(text: str, constants: set[str] | None = None) -> Formula:
    """Parse a formula.  When `constants` is given, free identifiers outside
    it raise UnboundVariableError; otherwise free identifiers become named
    constants.  Registry constants use the `k(n,m)` spelling."""
    return _Parser(text, constants).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

@dataclass
class EvalResult:
    value: bool
    # Witness for a true outermost existential block, or counterexample for a
    # false outermost universal block, each variable mapped to its set; None
    # otherwise.
    assignment: dict[str, frozenset] | None


def _const_index(L: FiniteLattice, consts: Mapping[str, frozenset], cid: str) -> int:
    if cid not in consts:
        raise EvaluationError(f"constant {cid!r} has no interpretation")
    try:
        return L.index_of(consts[cid])
    except UsageError:
        raise EvaluationError(
            f"constant {cid!r} is not interpreted in the evaluation lattice"
        ) from None


class _Model(NamedTuple):
    """Where a sentence is evaluated: terms take set values (the frozensets
    of a closed lattice, or int bitmasks), meet and join are & and |."""
    consts: Mapping       # constant id -> value
    zero: object
    top: object
    # What quantifiers range over, in index order.  Without one, conn(t) is
    # decided by Birkhoff duality on the constants and `top`.
    domain: Sequence | None


def _value(t: Term, m: _Model, env: dict):
    cls = type(t)
    if cls is Const:
        try:
            return m.consts[t.cid]
        except KeyError:
            raise EvaluationError(f"constant {t.cid!r} has no interpretation") from None
    if cls is Meet:
        return _value(t.left, m, env) & _value(t.right, m, env)
    if cls is Join:
        return _value(t.left, m, env) | _value(t.right, m, env)
    if cls is Var:
        try:
            return env[t.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {t.name!r}") from None
    if cls is Zero:
        return m.zero
    if cls is One:
        return m.top
    raise UsageError(f"not a term: {t!r}")


def _holds(f: Formula, m: _Model, env: dict) -> bool:
    cls = type(f)
    if cls is Eq:
        return _value(f.left, m, env) == _value(f.right, m, env)
    if cls is Neq:
        return _value(f.left, m, env) != _value(f.right, m, env)
    if cls is Not:
        return not _holds(f.sub, m, env)
    if cls is And:
        return _holds(f.left, m, env) and _holds(f.right, m, env)
    if cls is Or:
        return _holds(f.left, m, env) or _holds(f.right, m, env)
    if cls is Implies:
        return (not _holds(f.left, m, env)) or _holds(f.right, m, env)
    if cls is ForAll or cls is Exists:
        if m.domain is not None:
            block = all if cls is ForAll else any
            return block(
                _holds(f.body, m, {**env, **dict(zip(f.vars, values))})
                for values in itertools.product(m.domain, repeat=len(f.vars))
            )
        try:
            t = f.body.left.right.right   # the `x v y = t` of conn(t)
        except AttributeError:
            t = None
        if f == conn(t):
            return conn_by_birkhoff([*m.consts.values(), m.top], _value(t, m, env))
        raise UsageError("mask evaluation handles ground sentences and conn(t) only")
    raise UsageError(f"not a formula: {f!r}")


def eval_formula(
    f: Formula, L: FiniteLattice, consts: Mapping[str, frozenset] | None = None
) -> EvalResult:
    """Tarskian truth over a finite lattice of sets, quantifiers ranging over
    all elements in index order.  `consts` maps each constant of `f` to its
    set, which must be an element of `L`.  Short-circuits; reports an
    assignment of sets to the outermost quantifier block (witness if
    existential and true, counterexample if universal and false)."""
    consts = consts or {}
    if f.symbols.free:
        raise EvaluationError(f"formula has free variables: {sorted(f.symbols.free)}")
    elements = L.elements
    values = {cid: elements[_const_index(L, consts, cid)] for cid in sorted(constants_of(f))}
    m = _Model(values, elements[L.bottom_index], elements[L.top_index], elements)
    if not isinstance(f, (ForAll, Exists)):
        return EvalResult(_holds(f, m, {}), None)
    decisive = isinstance(f, Exists)   # the verdict one assignment can settle
    for idx in itertools.product(range(L.size), repeat=len(f.vars)):
        if _holds(f.body, m, {n: elements[i] for n, i in zip(f.vars, idx)}) == decisive:
            return EvalResult(decisive, {n: elements[i] for n, i in zip(f.vars, idx)})
    return EvalResult(not decisive, None)


def eval_masks(f: Formula, masks: Mapping[str, int], full: int) -> bool:
    """Truth of a sentence in the lattice of sets generated by the bitmasks
    `masks` and `full`, without closing it: the same walk as `eval_formula`
    with constants their masks, 0 the empty mask and 1 `full`.  The one
    quantified shape decided is conn(t), t ground, by Birkhoff duality;
    others raise."""
    return _holds(f, _Model(masks, 0, full, None), {})


def _brute_term(t: Term, L: FiniteLattice, consts, env) -> int:
    # Independent oracle path: no memoization of any kind.
    if isinstance(t, Var):
        if t.name not in env:
            raise EvaluationError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, Const):
        return _const_index(L, consts, t.cid)
    if isinstance(t, Zero):
        return L.bottom_index
    if isinstance(t, One):
        return L.top_index
    if isinstance(t, Meet):
        a = _brute_term(t.left, L, consts, env)
        b = _brute_term(t.right, L, consts, env)
        return L.index_of(L.elements[a] & L.elements[b])
    if isinstance(t, Join):
        a = _brute_term(t.left, L, consts, env)
        b = _brute_term(t.right, L, consts, env)
        return L.index_of(L.elements[a] | L.elements[b])
    raise UsageError(f"not a term: {t!r}")


def _brute(f: Formula, L: FiniteLattice, consts, env) -> bool:
    if isinstance(f, Eq):
        return _brute_term(f.left, L, consts, env) == _brute_term(f.right, L, consts, env)
    if isinstance(f, Neq):
        return _brute_term(f.left, L, consts, env) != _brute_term(f.right, L, consts, env)
    if isinstance(f, Not):
        return not _brute(f.sub, L, consts, env)
    if isinstance(f, And):
        a = _brute(f.left, L, consts, env)
        b = _brute(f.right, L, consts, env)
        return a and b
    if isinstance(f, Or):
        a = _brute(f.left, L, consts, env)
        b = _brute(f.right, L, consts, env)
        return a or b
    if isinstance(f, Implies):
        a = _brute(f.left, L, consts, env)
        b = _brute(f.right, L, consts, env)
        return (not a) or b
    if isinstance(f, (ForAll, Exists)):
        results = [
            _brute(f.body, L, consts, {**env, **dict(zip(f.vars, idx))})
            for idx in itertools.product(range(L.size), repeat=len(f.vars))
        ]
        return min(results, default=True) if isinstance(f, ForAll) else max(results, default=False)
    raise UsageError(f"not a formula: {f!r}")


def eval_bruteforce(
    f: Formula, L: FiniteLattice, consts: Mapping[str, frozenset] | None = None
) -> bool:
    """The independent oracle for `eval_formula`: quantifiers range over
    element indices in index order, and both sides of every connective and
    every quantifier body are evaluated for every assignment, with no
    pruning or short-circuiting."""
    if f.symbols.free:
        raise EvaluationError(f"formula has free variables: {sorted(f.symbols.free)}")
    return _brute(f, L, consts or {}, {})


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------

def _subst_term(t: Term, bindings: dict[str, Term]) -> Term:
    # exact type tests: the theory generator fills every sentence through here
    cls = type(t)
    if cls is Var:
        return bindings.get(t.name, t)
    if cls is Meet or cls is Join:
        return cls(_subst_term(t.left, bindings), _subst_term(t.right, bindings))
    return t


def substitute(f: Formula, bindings: dict[str, Term]) -> Formula:
    """Replace each free variable named in `bindings` by its term; variable
    capture is rejected rather than repaired."""
    cls = type(f)
    if cls is Eq or cls is Neq:
        return cls(_subst_term(f.left, bindings), _subst_term(f.right, bindings))
    if cls is And or cls is Or or cls is Implies:
        return cls(substitute(f.left, bindings), substitute(f.right, bindings))
    if cls is Not:
        return Not(substitute(f.sub, bindings))
    if cls is ForAll or cls is Exists:
        inner = {k: v for k, v in bindings.items() if k not in f.vars}
        for name, term in inner.items():
            captured = _walk(term, frozenset()).free & set(f.vars)
            if captured:
                raise UsageError(
                    f"substituting {name!r} would capture {sorted(captured)}; "
                    "rename the bound variables first"
                )
        return cls(f.vars, substitute(f.body, inner))
    raise UsageError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# The named sentence library
# --------------------------------------------------------------------------

def conn(a: Term) -> Formula:
    """Connectivity of `a`, phrased on closed sets: no nontrivial clopen
    split of `a` exists in the lattice."""
    x, y = Var("x"), Var("y")
    return ForAll(
        ("x", "y"),
        Implies(
            And(Eq(Meet(x, y), Zero()), Eq(Join(x, y), a)),
            Or(Eq(x, a), Eq(x, Zero())),
        ),
    )


def zeta(a: Term, b: Term, c: Term, x: Term, y: Term, z: Term) -> Formula:
    return Implies(
        Eq(meets(a, b, c), Zero()),
        conj(
            Eq(Meet(a, x), a),
            Eq(Meet(b, y), b),
            Eq(Meet(c, z), c),
            Eq(meets(x, y, z), Zero()),
            Eq(joins(x, y, z), One()),
        ),
    )


def phi(a: Term, b: Term, c: Term, d: Term) -> Formula:
    return conj(
        Eq(Meet(a, b), Zero()),
        Eq(Meet(a, d), Zero()),
        Eq(Meet(b, c), Zero()),
    )


def psi(a: Term, b: Term, c: Term, d: Term, x: Term, y: Term, z: Term) -> Formula:
    return conj(
        Eq(joins(x, y, z), One()),
        Eq(Meet(x, z), Zero()),
        Eq(Meet(a, Join(y, z)), Zero()),
        Eq(Meet(b, Join(x, y)), Zero()),
        Eq(meets(x, y, d), Zero()),
        Eq(meets(y, z, c), Zero()),
    )


def theta(a: Term, b: Term, c: Term, d: Term, x: Term, y: Term, z: Term) -> Formula:
    return Implies(phi(a, b, c, d), psi(a, b, c, d, x, y, z))


def _library() -> dict[str, Formula]:
    a, b, c, d, x, y, z = (Var(n) for n in "abcdxyz")
    disj_matrix = Implies(
        Neq(Meet(a, b), a),
        conj(Eq(Meet(a, x), x), Eq(Meet(b, x), Zero()), Neq(x, Zero())),
    )
    disj_literal_matrix = Implies(
        Neq(Meet(a, b), a),
        conj(Eq(Meet(a, x), x), Eq(Meet(b, x), Zero())),
    )
    norm_matrix = Implies(
        Eq(Meet(a, b), Zero()),
        conj(Eq(Meet(a, x), Zero()), Eq(Meet(b, y), Zero()), Eq(Join(x, y), One())),
    )
    hi_literal_matrix = Implies(
        conj(Eq(Meet(a, b), Zero()), Eq(Meet(a, c), Zero()), Eq(Meet(b, d), Zero())),
        conj(
            Eq(Meet(a, Join(y, z)), Zero()),
            Eq(Meet(b, Join(x, y)), Zero()),
            Eq(Meet(x, y), Zero()),
            Eq(meets(x, y, d), Zero()),
            Eq(meets(y, z, c), Zero()),
            Eq(joins(x, y, z), One()),
        ),
    )
    return {
        # Nonzero-witness conjunct included: without it the sentence is
        # trivially satisfiable and cannot track hom-injectivity.
        "DISJ": ForAll(("a", "b"), Exists(("x",), disj_matrix)),
        "DISJ_LITERAL": ForAll(("a", "b"), Exists(("x",), disj_literal_matrix)),
        "NORM": ForAll(("a", "b"), Exists(("x", "y"), norm_matrix)),
        "CONN1": conn(One()),
        "DIM": ForAll(("a", "b", "c"), Exists(("x", "y", "z"), zeta(a, b, c, x, y, z))),
        # Canonical HI uses the x^z = 0 disjointness required by the
        # three-set cover characterization; the printed variant with x^y = 0
        # is kept under HI_LITERAL.
        "HI": ForAll(
            ("a", "b", "c", "d"),
            Exists(("x", "y", "z"), theta(a, b, c, d, x, y, z)),
        ),
        "HI_LITERAL": ForAll(
            ("a", "b", "c", "d"), Exists(("x", "y", "z"), hi_literal_matrix)
        ),
    }


LIBRARY: dict[str, Formula] = _library()
