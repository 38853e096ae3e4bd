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
existentials.  A sentence compiles to a truth value via automaton
emptiness.

Numerals are syntactic sugar resolved against the ambient expansion:
``2`` always denotes the number two, whatever digit string represents it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Union

from .automata import Automaton, convolve
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
                if c.isdigit():
                    j = i
                    while j < len(text) and text[j].isdigit():
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
    if arity == 1:
        return u
    out = _lift(u, 0, arity)
    for t in range(1, arity):
        out = out.intersect(_lift(u, t, arity))
    return out.determinize_minimize()


def _constant_dfa(cf, value: int) -> Automaton:
    """Single-track automaton accepting exactly 0*rho(value)."""
    digits = list(reversed(encode(cf, value).digits))  # MSD first
    m = cf.parameters().m
    n = len(digits)
    trans = {0: {(0,): (0,)}}
    for i, d in enumerate(digits):
        trans.setdefault(i, {})[(d,)] = (i + 1,)
    return Automaton(1, m, n + 1, [0], [n], trans)


def _lift(a: Automaton, track: int, arity: int) -> Automaton:
    """Embed a single-track automaton as the given track of an arity-tuple."""
    out = a
    for _ in range(track):
        out = out.cylindrify(0)
    while out.arity < arity:
        out = out.cylindrify(out.arity)
    return out


class _Node:
    """Compilation result: an automaton over named tracks, or a truth value."""

    __slots__ = ("vars", "aut", "truth")

    def __init__(self, vars=(), aut=None, truth=None):
        self.vars = tuple(vars)
        self.aut = aut
        self.truth = truth

    @property
    def closed(self) -> bool:
        return self.aut is None


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
            return _Node(truth=ok)
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
                    base = _merge_tracks(base, seen[v], j)
                    names = names[:j] + names[j + 1 :]
                    break
                seen[v] = j
        order = self.sort_vars(names)
        if order != names:
            base = _permute(base, [names.index(v) for v in order])
        return _Node(vars=order, aut=base)

    # connectives ----------------------------------------------------------

    def _conjoin(self, a: _Node, b: _Node) -> _Node:
        if a.closed:
            if not a.truth:
                return _Node(truth=False) if b.closed else _Node(b.vars, _empty(b.aut))
            return b
        if b.closed:
            return self._conjoin(b, a)
        merged = self.sort_vars(set(a.vars) | set(b.vars))
        aa = _insert_tracks(a.aut, a.vars, merged)
        bb = _insert_tracks(b.aut, b.vars, merged)
        return _Node(merged, aa.intersect(bb))

    def _disjoin(self, a: _Node, b: _Node) -> _Node:
        # Compiled languages live inside the valid-word universe, so their
        # union needs re-relativizing only on freshly cylindrified tracks.
        if a.closed:
            if not a.truth:
                return b
            if b.closed:
                return _Node(truth=True)
            return _Node(b.vars, _universe(self.cf, len(b.vars)))
        if b.closed:
            return self._disjoin(b, a)
        merged = self.sort_vars(set(a.vars) | set(b.vars))
        aa = _insert_tracks(a.aut, a.vars, merged)
        bb = _insert_tracks(b.aut, b.vars, merged)
        joined = aa.union(bb)
        if merged != a.vars or merged != b.vars:
            joined = joined.intersect(_universe(self.cf, len(merged)))
        return _Node(merged, joined.determinize_minimize())

    def _negate(self, a: _Node) -> _Node:
        if a.closed:
            return _Node(truth=not a.truth)
        comp = a.aut.complement().intersect(_universe(self.cf, len(a.vars)))
        return _Node(a.vars, comp.determinize_minimize())

    def _project_var(self, a: _Node, var: str) -> _Node:
        if a.closed or var not in a.vars:
            return a
        if len(a.vars) == 1:
            return _Node(truth=not a.aut.is_empty())
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


def _empty(like: Automaton) -> Automaton:
    return Automaton(like.arity, like.digit_bound, 1, [0], [], {})


def _merge_tracks(a: Automaton, keep: int, drop: int) -> Automaton:
    """Identify two tracks: keep letters agreeing on both, drop the second."""
    trans: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for src, arcs in a.transitions.items():
        out: dict[tuple[int, ...], set[int]] = {}
        for letter, dsts in arcs.items():
            if letter[keep] == letter[drop]:
                nl = letter[:drop] + letter[drop + 1 :]
                out.setdefault(nl, set()).update(dsts)
        if out:
            trans[src] = {nl: tuple(sorted(d)) for nl, d in out.items()}
    return Automaton(
        a.arity - 1, a.digit_bound, a.num_states, a.initial, a.finals, trans
    )


def _permute(a: Automaton, perm: list[int]) -> Automaton:
    """Reorder letter components: new letter[i] = old letter[perm[i]]."""
    trans = {
        src: {tuple(letter[p] for p in perm): dsts for letter, dsts in arcs.items()}
        for src, arcs in a.transitions.items()
    }
    return Automaton(a.arity, a.digit_bound, a.num_states, a.initial, a.finals, trans)


def _insert_tracks(a: Automaton, have: tuple[str, ...], want: tuple[str, ...]) -> Automaton:
    out = a
    for pos, name in enumerate(want):
        if name not in have:
            out = out.cylindrify(pos)
    return out


def _rename_bound(f: Formula, env: dict[str, str], counter: list[int]) -> Formula:
    """Alpha-rename bound variables apart so shadowing cannot confuse tracks."""
    if isinstance(f, (Eq, Le)):
        return type(f)(_rename_term(f.left, env), _rename_term(f.right, env))
    if isinstance(f, VaEq):
        return VaEq(env.get(f.x, f.x), env.get(f.y, f.y))
    if isinstance(f, Not):
        return Not(_rename_bound(f.body, env, counter))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(
            _rename_bound(f.left, env, counter), _rename_bound(f.right, env, counter)
        )
    if isinstance(f, (Exists, Forall)):
        counter[0] += 1
        fresh = f"{f.var}#{counter[0]}"
        inner = dict(env)
        inner[f.var] = fresh
        return type(f)(fresh, _rename_bound(f.body, inner, counter))
    raise TypeError(f"not a formula: {f!r}")


def _rename_term(t: Term, env: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Sum):
        return Sum(_rename_term(t.left, env), _rename_term(t.right, env))
    return t


# -- public operations ----------------------------------------------------------


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
    for name in order:
        comp.rank_of(name)
    node = comp.compile(_rename_bound(f, {}, [0]))
    assert not node.closed
    want = tuple(v for v in order if v in free)
    if node.vars != want:
        aut = _permute(node.aut, [node.vars.index(v) for v in want])
    else:
        aut = node.aut
    return aut.determinize_minimize()


@_depth_checked
def decide(cf: ContinuedFraction, sentence) -> bool:
    """Truth of a sentence in the structure (N, +, V) for this expansion."""
    f = _as_formula(sentence)
    free = free_vars(f)
    if free:
        raise FreeVariablePresent(f"sentence expected, free variables {sorted(free)}")
    comp = _Compiler(cf)
    node = comp.compile(_rename_bound(f, {}, [0]))
    assert node.closed
    return node.truth


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
    m = cf.parameters().m
    table = [encode(cf, n).digits for n in range(bound + 1)]
    out = []
    for tup in itertools.product(range(bound + 1), repeat=len(free)):
        if aut.accepts(convolve([table[n] for n in tup], m)):
            out.append(tup)
    return out
