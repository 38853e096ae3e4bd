"""First-order decision procedure for natural-number arithmetic with V.

Formulas are built from terms (variables, decimal numerals, sums) with
atoms ``t = t``, ``t <= t`` and ``V(x) = y``, the connectives ``~ & | ->``
and the quantifiers ``A x.`` / ``E x.`` (ASCII for forall/exists, scope
extending as far to the right as possible).

Compilation is by structural recursion into multi-track automata over a
fixed quadratic expansion: every variable owns a track carrying its
0*-padded representation.  Atoms with compound terms are flattened
through fresh auxiliary variables (one adder automaton per ``+``, one
singleton automaton per numeral), conjunction is automaton intersection,
existential quantification is track projection followed by the leading-
zero closure, and negation is complement *relativized to the valid-word
universe* on every track: the plain complement would accept junk digit
strings that represent nothing.  Universal quantifiers reduce to negated
existentials.  A sentence is the case of no free variables: it compiles to
a zero-track automaton, which reads only the empty letter and accepts
something exactly when the sentence is true.  Each quantifier projects its
variable out of its own body, so a bound name never reaches a track
outside its scope and shadowing needs no renaming.

Numerals are syntactic sugar resolved against the ambient expansion:
``2`` always denotes the number two, whatever digit string represents it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .automata import Automaton
from .contfrac import ContinuedFraction
from .errors import (
    FormulaSyntaxError,
    FormulaTooDeep,
    FreeVariablePresent,
    NotQuadratic,
    UnboundVariable,
)
from .numeration import encode
from .recognizers import (
    build_adder,
    build_equality,
    build_less_than,
    build_va_graph,
    build_valid_rep,
)

# -- syntax -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Sum:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Sum]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Le:
    left: Term
    right: Term


@dataclass(frozen=True)
class VaEq:
    x: str
    y: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Eq, Le, VaEq, Not, And, Or, Implies, Exists, Forall]


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Eq, Le)):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, VaEq):
        return frozenset((f.x, f.y))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    return free_vars(f.body) - {f.var}


# -- parser -------------------------------------------------------------------

_KEYWORDS = {"A", "E", "V"}
_SYMBOLS = ("->", "<=", "(", ")", "+", "=", "~", "&", "|", ".")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, position)
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            for sym in _SYMBOLS:
                if text.startswith(sym, i):
                    self.items.append(("sym", sym, i))
                    i += len(sym)
                    break
            else:
                if "0" <= c <= "9":  # ASCII only: int() would also read other digits
                    j = i
                    while j < len(text) and "0" <= text[j] <= "9":
                        j += 1
                    self.items.append(("num", text[i:j], i))
                    i = j
                elif c.isalpha() or c == "_":
                    j = i
                    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                        j += 1
                    self.items.append(("name", text[i:j], i))
                    i = j
                else:
                    raise FormulaSyntaxError(f"unexpected character {c!r}", i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def error(self, message: str):
        _, val, at = self.peek()
        raise FormulaSyntaxError(f"{message}, found {val or 'end of input'!r}", at)


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position."""
    toks = _Tokens(text)
    try:
        f = _parse_implies(toks)
    except RecursionError:
        # Caught here only: _parse_atom backtracks on FormulaSyntaxError.
        raise FormulaSyntaxError("formula nested too deeply", toks.peek()[2]) from None
    if toks.peek()[0] != "eof":
        toks.error("trailing input")
    return f


def _parse_implies(toks) -> Formula:
    lhs = _parse_or(toks)
    if toks.peek()[1] == "->":
        toks.next()
        return Implies(lhs, _parse_implies(toks))
    return lhs


def _parse_or(toks) -> Formula:
    f = _parse_and(toks)
    while toks.peek()[1] == "|":
        toks.next()
        f = Or(f, _parse_and(toks))
    return f


def _parse_and(toks) -> Formula:
    f = _parse_unary(toks)
    while toks.peek()[1] == "&":
        toks.next()
        f = And(f, _parse_unary(toks))
    return f


def _parse_unary(toks) -> Formula:
    kind, val, at = toks.peek()
    if val == "~":
        toks.next()
        return Not(_parse_unary(toks))
    if kind == "name" and val in ("A", "E"):
        toks.next()
        vkind, vname, vat = toks.next()
        if vkind != "name" or vname in _KEYWORDS:
            raise FormulaSyntaxError(f"expected a variable after {val!r}", vat)
        toks.expect(".")
        body = _parse_implies(toks)  # quantifier scope extends maximally
        return Forall(vname, body) if val == "A" else Exists(vname, body)
    return _parse_atom(toks)


def _parse_atom(toks) -> Formula:
    kind, val, at = toks.peek()
    if val == "V":
        toks.next()
        toks.expect("(")
        xk, xn, xa = toks.next()
        if xk != "name" or xn in _KEYWORDS:
            raise FormulaSyntaxError("expected a variable inside V(...)", xa)
        toks.expect(")")
        toks.expect("=")
        yk, yn, ya = toks.next()
        if yk != "name" or yn in _KEYWORDS:
            raise FormulaSyntaxError("expected a variable after V(...) =", ya)
        return VaEq(xn, yn)
    if val == "(":
        # Could be a parenthesized formula or a parenthesized term; try the
        # formula reading first and fall back to a relation.
        save = toks.pos
        try:
            toks.next()
            f = _parse_implies(toks)
            toks.expect(")")
            return f
        except FormulaSyntaxError:
            toks.pos = save
    left = _parse_term(toks)
    op = toks.peek()[1]
    if op == "=":
        toks.next()
        return Eq(left, _parse_term(toks))
    if op == "<=":
        toks.next()
        return Le(left, _parse_term(toks))
    toks.error("expected '=' or '<='")


def _parse_term(toks) -> Term:
    t = _parse_summand(toks)
    while toks.peek()[1] == "+":
        toks.next()
        t = Sum(t, _parse_summand(toks))
    return t


def _parse_summand(toks) -> Term:
    kind, val, at = toks.next()
    if kind == "num":
        return Const(int(val))
    if kind == "name":
        if val in _KEYWORDS:
            raise FormulaSyntaxError(f"{val!r} is reserved", at)
        return Var(val)
    if val == "(":
        t = _parse_term(toks)
        toks.expect(")")
        return t
    raise FormulaSyntaxError(f"expected a term, found {val or 'end of input'!r}", at)


# -- compiler -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _eq_dfa(cf):
    return build_equality(cf).determinize_minimize()


@functools.lru_cache(maxsize=None)
def _le_dfa(cf):
    return build_less_than(cf).union(build_equality(cf)).determinize_minimize()


@functools.lru_cache(maxsize=None)
def _va_dfa(cf):
    return build_va_graph(cf).determinize_minimize()


@functools.lru_cache(maxsize=None)
def _valid_dfa(cf):
    return build_valid_rep(cf).determinize_minimize()


@functools.lru_cache(maxsize=None)
def _universe(cf, arity: int) -> Automaton:
    """All arity-tuples whose tracks are 0*-padded valid representations."""
    u = _valid_dfa(cf)
    tracks = tuple(range(arity))
    out = _insert_tracks(_zero_track(u.digit_bound, True), (), tracks)
    for t in tracks:
        out = out.intersect(_insert_tracks(u, (t,), tracks))
    return out.determinize_minimize()


def _zero_track(m: int, holds: bool) -> Automaton:
    """Automaton of a sentence: no tracks, one state looping on the empty
    letter, final when the sentence holds."""
    return Automaton._dfa(0, m, np.zeros((1, 1), np.int32), [0] if holds else [])


def _constant_dfa(cf, value: int) -> Automaton:
    """Single-track automaton accepting exactly 0*rho(value)."""
    digits = list(reversed(encode(cf, value).digits))  # MSD first
    m = cf.parameters().m
    n = len(digits)
    table = np.full((n + 1, m + 1), -1, np.int32)
    table[0, 0] = 0
    table[np.arange(n), digits] = np.arange(1, n + 1)
    return Automaton._dfa(1, m, table, [n])


class _Node(NamedTuple):
    """Compilation result: an automaton over the named tracks (none for a sentence)."""

    vars: tuple[str, ...]
    aut: Automaton


class _Compiler:
    def __init__(self, cf: ContinuedFraction):
        if not cf.is_quadratic:
            raise NotQuadratic("the decision procedure requires a quadratic expansion")
        self.cf = cf
        self.m = cf.parameters().m
        self.rank: dict[str, int] = {}
        self.fresh_counter = 0
        self.cache: dict[Formula, _Node] = {}

    def rank_of(self, name: str) -> int:
        if name not in self.rank:
            self.rank[name] = len(self.rank)
        return self.rank[name]

    def fresh(self) -> str:
        self.fresh_counter += 1
        return f"#aux{self.fresh_counter}"

    def sort_vars(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(names, key=self.rank_of))

    # formula compilation --------------------------------------------------

    def compile(self, f: Formula) -> _Node:
        hit = self.cache.get(f)
        if hit is None:
            hit = self._compile(f)
            self.cache[f] = hit
        return hit

    def _compile(self, f: Formula) -> _Node:
        if isinstance(f, (Eq, Le)):
            return self._atom(f)
        if isinstance(f, VaEq):
            if f.x == f.y:
                aux = self.fresh()
                return self.compile(Exists(aux, And(VaEq(f.x, aux), Eq(Var(aux), Var(f.y)))))
            base = _va_dfa(self.cf)
            return self._relation(base, (f.x, f.y))
        if isinstance(f, Not):
            if isinstance(f.body, Not):
                return self.compile(f.body.body)
            if isinstance(f.body, Forall):
                return self.compile(Exists(f.body.var, Not(f.body.body)))
            return self._negate(self.compile(f.body))
        if isinstance(f, Implies):
            return self.compile(Or(Not(f.left), f.right))
        if isinstance(f, And):
            return self._conjoin(self.compile(f.left), self.compile(f.right))
        if isinstance(f, Or):
            return self._disjoin(self.compile(f.left), self.compile(f.right))
        if isinstance(f, Forall):
            return self.compile(Not(Exists(f.var, Not(f.body))))
        if isinstance(f, Exists):
            body = self.compile(f.body)
            return self._project_var(body, f.var)
        raise TypeError(f"not a formula: {f!r}")

    # atoms ----------------------------------------------------------------

    def _atom(self, f) -> _Node:
        left, right = _fold(f.left), _fold(f.right)
        if isinstance(left, Const) and isinstance(right, Const):
            ok = left.value == right.value if isinstance(f, Eq) else left.value <= right.value
            return _Node((), _zero_track(self.m, ok))
        lname, ldefs, laux = self._flatten(left)
        rname, rdefs, raux = self._flatten(right)
        if isinstance(f, Eq):
            if lname == rname:
                base = self._relation(_valid_dfa(self.cf), (lname,))
            else:
                base = self._relation(_eq_dfa(self.cf), (lname, rname))
        else:
            base = self._relation(_le_dfa(self.cf), (lname, rname))
        # Conjoin definitions innermost-last and project each auxiliary as
        # soon as both its occurrences are present, keeping the arity low.
        node = base
        for d, aux in reversed(list(zip(ldefs + rdefs, laux + raux))):
            node = self._project_var(self._conjoin(node, d), aux)
        return node

    def _flatten(self, t: Term) -> tuple[str, list[_Node], list[str]]:
        if isinstance(t, Var):
            return t.name, [], []
        if isinstance(t, Const):
            aux = self.fresh()
            return aux, [self._relation(_constant_dfa(self.cf, t.value), (aux,))], [aux]
        lname, ldefs, laux = self._flatten(t.left)
        rname, rdefs, raux = self._flatten(t.right)
        aux = self.fresh()
        plus = self._relation(build_adder(self.cf), (lname, rname, aux))
        return aux, ldefs + rdefs + [plus], laux + raux + [aux]

    def _relation(self, base: Automaton, names: tuple[str, ...]) -> _Node:
        """Attach an automaton over the given named tracks, normalizing order.

        A variable naming several tracks (as in ``x + x``) merges them:
        only letters agreeing on the duplicated tracks survive.
        """
        names = tuple(names)
        while len(set(names)) != len(names):
            seen: dict[str, int] = {}
            for j, v in enumerate(names):
                if v in seen:
                    base = base._merge_tracks(seen[v], j)
                    names = names[:j] + names[j + 1 :]
                    break
                seen[v] = j
        order = self.sort_vars(names)
        if order != names:
            base = base._permute_tracks([names.index(v) for v in order])
        return _Node(order, base)

    # connectives ----------------------------------------------------------

    def _conjoin(self, a: _Node, b: _Node) -> _Node:
        merged = self.sort_vars(set(a.vars) | set(b.vars))
        aa = _insert_tracks(a.aut, a.vars, merged)
        bb = _insert_tracks(b.aut, b.vars, merged)
        return _Node(merged, aa.intersect(bb))

    def _disjoin(self, a: _Node, b: _Node) -> _Node:
        # Compiled languages live inside the valid-word universe, so their
        # union needs re-relativizing only on freshly cylindrified tracks.
        merged = self.sort_vars(set(a.vars) | set(b.vars))
        aa = _insert_tracks(a.aut, a.vars, merged)
        bb = _insert_tracks(b.aut, b.vars, merged)
        joined = aa.union(bb)
        if merged != a.vars or merged != b.vars:
            joined = joined.intersect(_universe(self.cf, len(merged)))
        return _Node(merged, joined.determinize_minimize())

    def _negate(self, a: _Node) -> _Node:
        comp = a.aut.complement().intersect(_universe(self.cf, len(a.vars)))
        return _Node(a.vars, comp.determinize_minimize())

    def _project_var(self, a: _Node, var: str) -> _Node:
        if var not in a.vars:
            return a
        if len(a.vars) == 1:  # a track automaton cannot erase its last track
            return _Node((), _zero_track(self.m, not a.aut.is_empty()))
        track = a.vars.index(var)
        rest = a.vars[:track] + a.vars[track + 1 :]
        return _Node(rest, a.aut.project(track).determinize_minimize())


def _fold(t: Term) -> Term:
    if isinstance(t, Sum):
        left, right = _fold(t.left), _fold(t.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value + right.value)
        return Sum(left, right)
    return t


def _insert_tracks(a: Automaton, have: tuple, want: tuple) -> Automaton:
    out = a
    for pos, name in enumerate(want):
        if name not in have:
            out = out.cylindrify(pos)
    return out


# -- public operations ----------------------------------------------------------

_CANDIDATES_PER_RUN = 1 << 16  # enumeration candidates held at once


def _as_formula(f) -> Formula:
    return parse(f) if isinstance(f, str) else f


def _depth_checked(fn):
    """Report a formula too deep for the recursive compiler as FormulaTooDeep."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise FormulaTooDeep("formula nested too deeply to compile") from None

    return checked


@_depth_checked
def compile_formula(
    cf: ContinuedFraction, formula, var_order: Iterable[str]
) -> Automaton:
    """Automaton over the free variables of ``formula`` in ``var_order``.

    Accepts conv(0*rho(n_1), ..., 0*rho(n_k)) exactly when substituting the
    n_i for the free variables satisfies the formula.
    """
    f = _as_formula(formula)
    order = list(var_order)
    free = free_vars(f)
    missing = free - set(order)
    if missing:
        raise UnboundVariable(f"free variables {sorted(missing)} not in var_order")
    if not free:
        raise ValueError("formula has no free variables; use decide()")
    comp = _Compiler(cf)
    for name in order:  # tracks are sorted by rank, so they come out in var_order
        comp.rank_of(name)
    return comp.compile(f).aut.determinize_minimize()


@_depth_checked
def decide(cf: ContinuedFraction, sentence) -> bool:
    """Whether a sentence holds in the structure (N, +, V) for this
    expansion: whether its compiled zero-track automaton accepts anything."""
    f = _as_formula(sentence)
    free = free_vars(f)
    if free:
        raise FreeVariablePresent(f"sentence expected, free variables {sorted(free)}")
    return not _Compiler(cf).compile(f).aut.is_empty()


@_depth_checked
def enumerate_solutions(cf: ContinuedFraction, formula, bound: int) -> list[tuple[int, ...]]:
    """All tuples over 0..bound satisfying the formula.

    Components follow the alphabetically sorted free variables.
    """
    f = _as_formula(formula)
    free = sorted(free_vars(f))
    if not free:
        raise ValueError("formula has no free variables; use decide()")
    aut = compile_formula(cf, f, free)
    # Compiled languages are closed under leading zero columns, so every
    # track can be padded to the width of the widest representation and the
    # candidates run through the automaton many at a time, in
    # itertools.product order.
    reps = [encode(cf, n).digits for n in range(bound + 1)]
    width = max((len(r) for r in reps), default=0)
    digits = np.zeros((bound + 1, width), np.int64)
    for n, rep in enumerate(reps):
        digits[n, width - len(rep) :] = rep[::-1]  # MSD first
    shape = (bound + 1,) * len(free)
    total = (bound + 1) ** len(free)
    found = [np.empty((len(free), 0), np.int64)]
    for start in range(0, total, _CANDIDATES_PER_RUN):
        pick = np.unravel_index(np.arange(start, min(total, start + _CANDIDATES_PER_RUN)), shape)
        accepted = aut._accepts_all([digits[p] for p in pick])
        found.append(np.stack(pick)[:, accepted])
    return [tuple(row) for row in np.concatenate(found, axis=1).T.tolist()]
