"""First-order decision procedure for natural-number arithmetic with V.

Formulas are built from terms (variables, decimal numerals, sums) with
atoms ``t = t``, ``t <= t`` and ``V(x) = y``, the connectives ``~ & | ->``
and the quantifiers ``A x.`` / ``E x.`` (ASCII for forall/exists, scope
extending as far to the right as possible).

Compilation is a post-order walk over an explicit work stack, each
subformula after its operands, into multi-track automata over a fixed
quadratic expansion; parsing is one loop over an operand stack and an
operator stack, and formula objects compare, hash and print off a stack
too, so no depth of nesting exhausts the Python stack.  Every variable
owns a track carrying its 0*-padded representation, and one gather of
letter codes adds, reorders and merges tracks: a variable named twice in
an atom (``x + x``, ``V(x) = x``) merges its two tracks there.  Atoms
with compound terms are flattened through fresh auxiliary variables (one
adder automaton per ``+``, one singleton automaton per numeral),
conjunction is automaton intersection, existential quantification is
track projection followed by the leading-zero closure, and negation is
complement *relativized to the valid-word universe* on every track, the
difference of the two: the plain complement would accept junk digit
strings that represent nothing.  Universal quantifiers reduce to negated
existentials.  The intermediate automata are deterministic, and every
minimization on the way keeps the trim form, without a dead state, so no
product walks dead pairs; only ``compile_formula`` returns the total
form.  A sentence is the case of no free variables: it compiles to a
zero-track automaton, which reads only the empty letter and accepts
something exactly when the sentence is true.  Each quantifier projects
its variable out of its own body, so a bound name never reaches a track
outside its scope and shadowing needs no renaming.

Numerals are syntactic sugar resolved against the ambient expansion:
``2`` always denotes the number two, whatever digit string represents it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from . import words
from .automata import Automaton
from .bulk import encode_table
from .contfrac import ContinuedFraction
from .errors import (
    FormulaSyntaxError,
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


class _Syntax:
    """Base of the syntax classes, each made a frozen dataclass with this
    ``repr``, equality and hashing.  ``repr`` walks the tree on an explicit
    stack, so no depth of nesting exhausts the Python stack, and it is
    exact: equality and hashing read it."""

    def __init_subclass__(cls):
        dataclass(cls, frozen=True, eq=False, repr=False)

    def __repr__(self):
        out: list[str] = []
        work: list = [self]
        while work:
            g = work.pop()
            if isinstance(g, tuple):  # literal text
                out.append(g[0])
            elif isinstance(g, _Syntax):
                items: list = [(f"{type(g).__qualname__}(",)]
                for k, name in enumerate(g.__dataclass_fields__):
                    items += [(f"{', ' if k else ''}{name}=",), getattr(g, name)]
                work.extend(reversed(items + [(")",)]))
            else:
                out.append(words.to_decimal(g) if type(g) is int else repr(g))
        return "".join(out)

    def __eq__(self, other):
        if not isinstance(other, _Syntax):
            return NotImplemented
        return type(other) is type(self) and repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


class Var(_Syntax):
    name: str


class Const(_Syntax):
    value: int


class Sum(_Syntax):
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Sum]


class Eq(_Syntax):
    left: Term
    right: Term


class Le(_Syntax):
    left: Term
    right: Term


class VaEq(_Syntax):
    x: str
    y: str


class Not(_Syntax):
    body: "Formula"


class And(_Syntax):
    left: "Formula"
    right: "Formula"


class Or(_Syntax):
    left: "Formula"
    right: "Formula"


class Implies(_Syntax):
    left: "Formula"
    right: "Formula"


class Exists(_Syntax):
    var: str
    body: "Formula"


class Forall(_Syntax):
    var: str
    body: "Formula"


Formula = Union[Eq, Le, VaEq, Not, And, Or, Implies, Exists, Forall]


def _postorder(t: Term) -> list[Term]:
    """The subterms of ``t``, each after its left and right operands."""
    out, work = [], [t]
    while work:
        s = work.pop()
        out.append(s)
        if isinstance(s, Sum):
            work += [s.left, s.right]
    return out[::-1]


def free_vars(f: Formula | Term) -> frozenset[str]:
    """Variables of a formula or term that no quantifier around them binds."""
    free: set[str] = set()
    bound: dict[str, int] = {}  # quantifiers binding each name around the walk
    work: list = [f]
    while work:
        g = work.pop()
        if isinstance(g, str):  # the walk leaves the scope of a quantifier
            bound[g] -= 1
        elif isinstance(g, (Exists, Forall)):
            bound[g.var] = bound.get(g.var, 0) + 1
            work += [g.var, g.body]
        elif isinstance(g, Not):
            work.append(g.body)
        elif isinstance(g, VaEq):
            work += [Var(g.x), Var(g.y)]
        elif isinstance(g, Var):
            if not bound.get(g.name):
                free.add(g.name)
        elif not isinstance(g, Const):
            work += [g.left, g.right]
    return frozenset(free)


# -- parser -------------------------------------------------------------------

_KEYWORDS = {"A", "E", "V"}
_SYMBOLS = ("->", "<=", "(", ")", "+", "=", "~", "&", "|", ".")
# Binding powers: an operator takes as operands what binds more tightly.
_POWER = {"A": 0, "E": 0, "->": 1, "|": 2, "&": 3, "~": 4, "=": 5, "<=": 5, "+": 6}
_TERM_OPS = ("=", "<=", "+")  # the operators whose operands are terms
_BINARY = {"->": Implies, "|": Or, "&": And, "=": Eq, "<=": Le, "+": Sum}


class _Tokens:
    def __init__(self, text: str):
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
        self.items.append(("eof", "end of input", len(text)))
        self.pos = 0

    def next(self):
        self.pos += 1
        return self.items[self.pos - 1]

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val!r}", at)

    def variable(self, message: str) -> str:
        kind, val, at = self.next()
        if kind != "name" or val in _KEYWORDS:
            raise FormulaSyntaxError(message, at)
        return val


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position.

    Operators by binding power, loosest first: the quantifiers ``A x.`` and
    ``E x.`` (0: the scope extends as far as it can), ``->`` (1, grouping
    to the right), ``|`` (2), ``&`` (3), prefix ``~`` (4), ``=`` and ``<=``
    (5, not chained) and ``+`` (6); ``|``, ``&`` and ``+`` group to the
    left.  Parentheses hold a formula or a term.  One pass runs over an
    operand stack and a stack of pending operators and open parentheses,
    each parenthesis marked with whether it opens inside a term.
    """
    toks = _Tokens(text)
    operands: list = []
    ops: list[tuple[str, object]] = []
    while True:
        # an operand, after any prefix operators and opening parentheses
        kind, val, at = toks.next()
        in_term = bool(ops) and (ops[-1][0] in _TERM_OPS or ops[-1] == ("(", True))
        if val == "(":
            ops.append(("(", in_term))
            continue
        if kind == "num":
            operands.append(Const(words.decimal(val)))
        elif kind == "name" and val not in _KEYWORDS:
            operands.append(Var(val))
        elif in_term or val not in ("~", "A", "E", "V"):
            problem = f"{val!r} is reserved" if kind == "name" else f"expected a term, found {val!r}"
            raise FormulaSyntaxError(problem, at)
        elif val == "V":
            toks.expect("(")
            x = toks.variable("expected a variable inside V(...)")
            toks.expect(")")
            toks.expect("=")
            operands.append(VaEq(x, toks.variable("expected a variable after V(...) =")))
        else:
            var = None
            if val != "~":
                var = toks.variable(f"expected a variable after {val!r}")
                toks.expect(".")
            ops.append((val, var))
            continue
        # operators and closing parentheses, until the next operand
        while True:
            tok = kind, val, at = toks.next()
            if kind != "eof" and val not in _BINARY and val != ")":
                raise FormulaSyntaxError(f"expected an operator, found {val!r}", at)
            _reduce(operands, ops, _POWER.get(val, 0) + (val == "->"), tok)
            if val == ")":
                if not ops:
                    raise FormulaSyntaxError("')' closes no parenthesis", at)
                ops.pop()
                continue
            if ops and (kind == "eof" or val != "+" and ops[-1] == ("(", True)):
                raise FormulaSyntaxError(f"expected ')', found {val!r}", at)
            if isinstance(operands[-1], Term) != (val in _TERM_OPS):
                need = "a term before" if val in _TERM_OPS else "'=' or '<=', found"
                raise FormulaSyntaxError(f"expected {need} {val!r}", at)
            if kind == "eof":
                return operands[0]
            ops.append((val, None))
            break


def _reduce(operands: list, ops: list, power: int, tok) -> None:
    """Apply the pending operators that bind at least ``power``; ``tok``
    is the token that ends their operands."""
    while ops and ops[-1][0] != "(" and _POWER[ops[-1][0]] >= power:
        op, var = ops.pop()
        right = operands.pop()
        if op not in _TERM_OPS and isinstance(right, Term):
            raise FormulaSyntaxError(f"expected '=' or '<=', found {tok[1]!r}", tok[2])
        if op in _BINARY:
            right = _BINARY[op](operands.pop(), right)
        elif op == "~":
            right = Not(right)
        else:
            right = (Forall if op == "A" else Exists)(var, right)
        operands.append(right)


# -- compiler -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _eq_dfa(cf):
    return build_equality(cf).determinize_minimize(total=False)


@functools.lru_cache(maxsize=None)
def _le_dfa(cf):
    return build_less_than(cf).union(build_equality(cf)).determinize_minimize(total=False)


@functools.lru_cache(maxsize=None)
def _va_dfa(cf):
    return build_va_graph(cf).determinize_minimize(total=False)


@functools.lru_cache(maxsize=None)
def _valid_dfa(cf):
    return build_valid_rep(cf).determinize_minimize(total=False)


@functools.lru_cache(maxsize=None)
def _add_dfa(cf):
    return build_adder(cf).minimize(total=False)


@functools.lru_cache(maxsize=None)
def _universe(cf, arity: int) -> Automaton:
    """All arity-tuples whose tracks are 0*-padded valid representations."""
    u = _valid_dfa(cf)
    tracks = tuple(range(arity))
    out = _insert_tracks(_zero_track(u.digit_bound, True), (), tracks)
    for t in tracks:
        out = out.intersect(_insert_tracks(u, (t,), tracks))
    return out.minimize(total=False)


def _zero_track(m: int, holds: bool) -> Automaton:
    """Automaton of a sentence: no tracks, one state looping on the empty
    letter, final when the sentence holds."""
    return Automaton._build(0, m, 1, [0], [0] if holds else [], [0], [0], [0], True)


def _constant_dfa(cf, value: int) -> Automaton:
    """Single-track automaton accepting exactly 0*rho(value)."""
    digits = list(reversed(encode(cf, value).digits))  # MSD first
    return Automaton._padded_word(cf.parameters().m, digits)


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
        """Compile in post-order over a work stack of subformulas still to
        compile and ``(combine, operand count)`` steps, the left operand of
        a connective before the right."""
        done: list[_Node] = []
        work: list = [f]
        while work:
            f = work.pop()
            if isinstance(f, tuple):
                combine, count = f
                operands = done[-count:]
                del done[-count:]
                done.append(combine(*operands))
            elif isinstance(f, (Eq, Le)):
                done.append(self._atom(f))
            elif isinstance(f, VaEq):
                done.append(self._relation(_va_dfa(self.cf), (f.x, f.y)))
            elif isinstance(f, Not) and isinstance(f.body, Not):
                work.append(f.body.body)
            elif isinstance(f, Not) and isinstance(f.body, Forall):
                work.append(Exists(f.body.var, Not(f.body.body)))
            elif isinstance(f, Not):
                work += [(self._negate, 1), f.body]
            elif isinstance(f, Implies):
                work.append(Or(Not(f.left), f.right))
            elif isinstance(f, (And, Or)):
                work += [(self._conjoin if isinstance(f, And) else self._disjoin, 2), f.right, f.left]
            elif isinstance(f, Forall):
                work.append(Not(Exists(f.var, Not(f.body))))
            elif isinstance(f, Exists):
                work += [(functools.partial(self._project_var, var=f.var), 1), f.body]
            else:
                raise TypeError(f"not a formula: {f!r}")
        return done[0]

    # atoms ----------------------------------------------------------------

    def _atom(self, f) -> _Node:
        left, right = _fold(f.left), _fold(f.right)
        if isinstance(left, Const) and isinstance(right, Const):
            ok = left.value == right.value if isinstance(f, Eq) else left.value <= right.value
            return _Node((), _zero_track(self.m, ok))
        lname, ldefs, laux = self._flatten(left)
        rname, rdefs, raux = self._flatten(right)
        base = (_eq_dfa if isinstance(f, Eq) else _le_dfa)(self.cf)
        node = self._relation(base, (lname, rname))
        # Conjoin definitions innermost-last and project each auxiliary as
        # soon as both its occurrences are present, keeping the arity low.
        for d, aux in reversed(list(zip(ldefs + rdefs, laux + raux))):
            node = self._project_var(self._conjoin(node, d), aux)
        return node

    def _flatten(self, t: Term) -> tuple[str, list[_Node], list[str]]:
        """The track naming ``t``, and the definitions of the auxiliary
        tracks it needs, each with its track, operands first."""
        names: list[str] = []
        defs: list[_Node] = []
        auxes: list[str] = []
        for s in _postorder(t):
            if isinstance(s, Var):
                names.append(s.name)
                continue
            aux = self.fresh()
            if isinstance(s, Const):
                defs.append(self._relation(_constant_dfa(self.cf, s.value), (aux,)))
            else:
                right, left = names.pop(), names.pop()
                defs.append(self._relation(_add_dfa(self.cf), (left, right, aux)))
            names.append(aux)
            auxes.append(aux)
        return names[0], defs, auxes

    def _relation(self, base: Automaton, names: tuple[str, ...]) -> _Node:
        """Attach an automaton over the given named tracks, in rank order; a
        variable naming several tracks (``x + x``) keeps the letters agreeing
        on them."""
        order = self.sort_vars(dict.fromkeys(names))
        return _Node(order, _insert_tracks(base, names, order))

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
        return _Node(merged, joined.determinize_minimize(total=False))

    def _negate(self, a: _Node) -> _Node:
        comp = _universe(self.cf, len(a.vars)).difference(a.aut)
        return _Node(a.vars, comp.minimize(total=False))

    def _project_var(self, a: _Node, var: str) -> _Node:
        if var not in a.vars:
            return a
        if len(a.vars) == 1:  # a track automaton cannot erase its last track
            return _Node((), _zero_track(self.m, not a.aut.is_empty()))
        track = a.vars.index(var)
        rest = a.vars[:track] + a.vars[track + 1 :]
        return _Node(rest, a.aut.project(track).minimize(total=False))


def _fold(t: Term) -> Term:
    """``t`` with every sum of two numerals replaced by its value."""
    done: list[Term] = []
    for s in _postorder(t):
        if isinstance(s, Sum):
            right, left = done.pop(), done.pop()
            both = isinstance(left, Const) and isinstance(right, Const)
            s = Const(left.value + right.value) if both else Sum(left, right)
        done.append(s)
    return done[0]


def _insert_tracks(a: Automaton, have: tuple, want: tuple) -> Automaton:
    """``a`` over the tracks ``want``, each track of ``have`` moved to its
    name there: repeated names merge, and names not in ``have`` are free."""
    tracks = [want.index(v) for v in have]
    if tracks == list(range(len(want))):
        return a
    return a._place(tracks, len(want))


# -- public operations ----------------------------------------------------------

_CANDIDATES_PER_RUN = 1 << 16  # enumeration candidates held at once


def _as_formula(f) -> Formula:
    return parse(f) if isinstance(f, str) else f


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


def decide(cf: ContinuedFraction, sentence) -> bool:
    """Whether a sentence holds in the structure (N, +, V) for this
    expansion: whether its compiled zero-track automaton accepts anything."""
    f = _as_formula(sentence)
    free = free_vars(f)
    if free:
        raise FreeVariablePresent(f"sentence expected, free variables {sorted(free)}")
    return not _Compiler(cf).compile(f).aut.is_empty()


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
    digits = encode_table(cf, bound)[:, ::-1]  # MSD first
    shape = (bound + 1,) * len(free)
    total = (bound + 1) ** len(free)
    found = [np.empty((len(free), 0), np.int64)]
    for start in range(0, total, _CANDIDATES_PER_RUN):
        pick = np.unravel_index(np.arange(start, min(total, start + _CANDIDATES_PER_RUN)), shape)
        accepted = aut._accepts_all([digits[p] for p in pick])
        found.append(np.stack(pick)[:, accepted])
    return [tuple(row) for row in np.concatenate(found, axis=1).T.tolist()]
