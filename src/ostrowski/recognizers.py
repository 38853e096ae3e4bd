"""Automata recognizing the arithmetic of a quadratic expansion.

All builders require an eventually periodic continued fraction and work
over the alphabet {0, ..., m} with m = 2*mu + 1.  Words are read most
significant digit first, so an automaton cannot know the a_k relevant to
a letter from the letter's distance to the start; instead every state
carries a phase (i, l): l = 0 means the remaining positions number i and
the quotient caps are read off the explicit prefix, l = 1 means the
position lies beyond nu and i names its slot inside the repeating block.
Runs guess the phase at the start and only runs whose countdown lands
exactly on the last position can accept, which pins the guess to the
word length.

The three pass automata recognize { conv(z, z') : pass_i(z) = z' } for
the addition passes.  They verify the pass's window arithmetic (the
rewrite rules defined in ``rules``, the functions the scalar passes call)
while reading both tracks in parallel; since a window's result is only
known a few letters after the automaton has read the claimed output
digit, each state buffers the digits awaiting verification (three for the width-4
pass, two for the width-3 passes; the backward pass buffers input digits
instead, because it verifies its windows against the stream two letters
late).  The initial all-zero buffers make the language closed under
leading zero columns, and equally force a rejected run whenever the pass
would carry beyond the padded length, so the relations compose soundly
under convolution padding.

The composed adder intersects digit-sum, the three pass relations and
validity of the result, projects away the intermediate tracks, and
determinizes; by construction it accepts conv(0*rho(M), 0*rho(N),
0*rho(M+N)) and nothing else.
"""

from __future__ import annotations

import functools
import itertools

from .automata import Automaton, _ExplicitLazy, determinize_lazy, from_lazy
from .contfrac import AutomatonParameters, ContinuedFraction, automaton_parameters
from .errors import NotQuadratic
from .rules import Window, c_preimages, window_a, window_b, window_c


# -- phase bookkeeping --------------------------------------------------------


class _Phases:
    """(i, l) phase table with quotient-cap windows and wrap transitions.

    ``lo`` is the smallest l = 0 index a builder uses.  The only branching
    successor is (xi, 1): the run either wraps to (nu, 1) for another copy
    of the block or commits to (nu, 0), declaring the copy just read to be
    the one ending at position nu.
    """

    def __init__(self, params: AutomatonParameters, lo: int):
        self.params = params
        self.lo = lo

    def quot(self, i: int) -> int:
        return self.params.unrolled[i - 1]

    def initial(self, kmin: int):
        for i in range(max(kmin, self.lo), self.params.nu + 1):
            yield (i, 0)
        for i in range(self.params.xi, self.params.nu + 1):
            yield (i, 1)

    def successors(self, i: int, l: int):
        if l == 1:
            if i == self.params.xi:
                return ((self.params.nu, 1), (self.params.nu, 0))
            return ((i - 1, 1),)
        if i - 1 >= self.lo:
            return ((i - 1, 0),)
        return ()

    def p_tuple(self, i: int, l: int) -> Window:
        xi, nu = self.params.xi, self.params.nu
        a = self.quot
        if l == 1 and i == xi + 2:
            return (a(i), a(i - 1), a(i - 2), a(nu))
        if l == 1 and i == xi + 1:
            return (a(i), a(i - 1), a(nu), a(nu - 1))
        if l == 1 and i == xi:
            return (a(i), a(nu), a(nu - 1), a(nu - 2))
        return (a(i), a(i - 1), a(i - 2), a(i - 3))

    def q_tuple(self, i: int, l: int) -> Window:
        xi, nu = self.params.xi, self.params.nu
        a = self.quot
        if l == 1 and i == xi + 1:
            return (a(i), a(i - 1), a(nu))
        if l == 1 and i == xi:
            return (a(i), a(nu), a(nu - 1))
        return (a(i), a(i - 1), a(i - 2))


def _params(cf: ContinuedFraction) -> AutomatonParameters:
    if not cf.is_quadratic:
        raise NotQuadratic("recognizers require an eventually periodic expansion")
    return automaton_parameters(cf)


# -- pass automata ------------------------------------------------------------


class _Pass1Lazy:
    """Two-track automaton for the width-4 pass.

    State (i, l, v, w): phase for the upcoming window step, the three
    pending window digits v, and the three claimed output digits w still
    awaiting verification.  Reading (x, y) verifies that the window
    (v, x) rewrites to (w1, v') and shifts y into the buffer.  The step
    reaching phase 3 additionally verifies the final width-3 rewrite
    against the last three claimed digits.
    """

    def __init__(self, params: AutomatonParameters):
        self.params = params
        self.phases = _Phases(params, lo=3)

    def initial_states(self):
        zero = (0, 0, 0)
        return [(i, l, zero, zero) for (i, l) in self.phases.initial(4)]

    def is_final(self, state) -> bool:
        return state[0] == 3 and state[1] == 0

    def successors(self, state):
        i, l, v, w = state
        if i == 3 and l == 0:
            return
        m = self.params.m
        u = self.phases.p_tuple(i, l)
        if i == 4 and l == 0:
            ub = self.phases.q_tuple(3, 0)
            for x in range(m + 1):
                _, full = window_a(u, (v[0], v[1], v[2], x))
                if full[0] != w[0] or full[3] > m:
                    continue
                nv = full[1:]
                _, out = window_b(ub, nv)
                if out[0] == w[1] and out[1] == w[2] and out[2] <= m:
                    yield (x, out[2]), (3, 0, nv, (w[1], w[2], out[2]))
            return
        targets = self.phases.successors(i, l)
        for x in range(m + 1):
            _, full = window_a(u, (v[0], v[1], v[2], x))
            if full[0] != w[0] or full[3] > m:
                continue
            nv = full[1:]
            for y in range(m + 1):
                nw = (w[1], w[2], y)
                for j, l2 in targets:
                    if j == 3:
                        continue  # phase 3 is entered only through the final check
                    yield (x, y), (j, l2, nv, nw)


class _Width3Lazy:
    """State frame of the width-3 pass automata: (i, l, v, w) with two-digit
    buffers v and w, and phases counting down to 2."""

    def __init__(self, params: AutomatonParameters):
        self.params = params
        self.phases = _Phases(params, lo=2)

    def initial_states(self):
        zero = (0, 0)
        return [(i, l, zero, zero) for (i, l) in self.phases.initial(3)]

    def is_final(self, state) -> bool:
        return state[0] == 2 and state[1] == 0


class _Pass2Lazy(_Width3Lazy):
    """Two-track automaton for the backward width-3 pass.

    The pass runs against the reading direction, so a state buffers the
    two most recently read input digits w and guesses in v the window
    contents its step will have produced; reading (x, y) checks that some
    preimage window of (v, y) starts with the buffered input digit.  The
    final step verifies the first window of the pass outright.
    """

    def successors(self, state):
        i, l, v, w = state
        if i == 2 and l == 0:
            return
        m = self.params.m
        if i == 3 and l == 0:
            u = self.phases.q_tuple(3, 0)
            for x in range(m + 1):
                _, out = window_c(u, (w[0], w[1], x))
                if out[0] == v[0] and out[1] == v[1]:
                    yield (x, out[2]), (2, 0, (0, 0), (w[1], x))
            return
        u = self.phases.q_tuple(i, l)
        targets = [t for t in self.phases.successors(i, l) if t[0] != 2]
        for y in range(m + 1):
            for before in c_preimages(u, (v[0], v[1], y), m):
                if before[0] != w[0]:
                    continue
                nv = (before[1], before[2])
                for x in range(m + 1):
                    nw = (w[1], x)
                    for j, l2 in targets:
                        yield (x, y), (j, l2, nv, nw)


class _Pass3Lazy(_Width3Lazy):
    """Two-track automaton for the forward width-3 pass.

    Same windows as the backward pass but running with the reading
    direction, so states buffer claimed output digits as in the width-4
    pass: reading (x, y) rewrites the pending window (v, x) and compares
    its settled digit with the oldest buffered claim.
    """

    def successors(self, state):
        i, l, v, w = state
        if i == 2 and l == 0:
            return
        m = self.params.m
        if i == 3 and l == 0:
            u = self.phases.q_tuple(3, 0)
            for x in range(m + 1):
                _, out = window_c(u, (v[0], v[1], x))
                if out[0] == w[0] and out[1] == w[1]:
                    yield (x, out[2]), (2, 0, (0, 0), (w[1], out[2]))
            return
        u = self.phases.q_tuple(i, l)
        targets = [t for t in self.phases.successors(i, l) if t[0] != 2]
        for x in range(m + 1):
            _, out = window_c(u, (v[0], v[1], x))
            if out[0] != w[0]:
                continue
            nv = (out[1], out[2])
            for y in range(m + 1):
                for j, l2 in targets:
                    yield (x, y), (j, l2, nv, (w[1], y))


_PASS_LAZY = {1: _Pass1Lazy, 2: _Pass2Lazy, 3: _Pass3Lazy}


@functools.lru_cache(maxsize=None)
def build_pass_automaton(cf: ContinuedFraction, pass_no: int) -> Automaton:
    """NFA accepting conv(z, z') iff pass ``pass_no`` turns z into z'.

    The relation is taken at equal track lengths with the padding
    convention of the composed adder: the pass is evaluated on the padded
    input, and any carry beyond the shared length rejects.
    """
    if pass_no not in _PASS_LAZY:
        raise ValueError(f"pass number must be 1, 2 or 3, got {pass_no}")
    params = _params(cf)
    lazy = _PASS_LAZY[pass_no](params)
    return from_lazy(lazy, 2, params.m)


# -- base relations -----------------------------------------------------------


def _track_digits(cap: int, first: bool, forced: bool):
    """Digits a valid track may take at a position with quotient ``cap``:
    only 0 right after a capped digit, and below the cap at position 1."""
    if forced:
        return (0,)
    return range(cap if first else cap + 1)


class _ValidTracks:
    """k tracks of 0*-padded valid representations, read as one letter.

    State (i, l, forced): phase countdown and, per track, whether the
    previous digit sat at its cap, which forces a 0 next.  ``letter`` maps
    the k digits read to the automaton's letter.
    """

    def __init__(self, params: AutomatonParameters, k: int, letter):
        self.phases = _Phases(params, lo=0)
        self.k = k
        self.letter = letter

    def initial_states(self):
        free = (False,) * self.k
        return [(0, 0, free)] + [(i, l, free) for i, l in self.phases.initial(1)]

    def is_final(self, state) -> bool:
        return state[0] == 0

    def successors(self, state):
        i, l, forced = state
        if i == 0:
            return
        cap = self.phases.quot(i)
        targets = self.phases.successors(i, l)
        digits = [_track_digits(cap, i == 1, f) for f in forced]
        for ds in itertools.product(*digits):
            letter = self.letter(ds)
            capped = tuple(d == cap for d in ds)
            for j, l2 in targets:
                yield letter, (j, l2, capped)


class _LessThanLazy:
    """Pairs (x, y) of valid representations with x < y.

    Valid representations of equal padded length compare like their
    values under the lexicographic order (every proper suffix is worth
    less than the next place value), so the automaton tracks validity of
    both tracks and whether a strict x < y difference has been seen.
    """

    def __init__(self, params: AutomatonParameters):
        self.phases = _Phases(params, lo=0)

    def initial_states(self):
        return [(i, l, False, False, False) for i, l in self.phases.initial(1)]

    def is_final(self, state) -> bool:
        return state[0] == 0 and state[4]

    def successors(self, state):
        i, l, fzx, fzy, lt = state
        if i == 0:
            return
        cap = self.phases.quot(i)
        for x in _track_digits(cap, i == 1, fzx):
            for y in _track_digits(cap, i == 1, fzy):
                if not lt and x > y:
                    continue
                nlt = lt or x < y
                for j, l2 in self.phases.successors(i, l):
                    yield (x, y), (j, l2, x == cap, y == cap, nlt)


class _VaGraphLazy:
    """Graph of V: (x, y) with y the least place value used by x, V(0) = 1.

    Main branch: above the lowest nonzero digit of x the y track is zero,
    at that position y reads 1 (y = rho(q_{k-1}) is the single-1 word at
    position k, also for k = 1 since then a_1 >= 2), below it both tracks
    are zero.  Zero branch: x is all zeros and y is rho(1), whose single 1
    sits at position 2 when a_1 = 1 and at position 1 otherwise.
    """

    def __init__(self, params: AutomatonParameters):
        self.phases = _Phases(params, lo=0)
        self.one_pos = 2 if params.unrolled[0] == 1 else 1

    def initial_states(self):
        out = []
        for i, l in self.phases.initial(1):
            out.append(("m", i, l, False, False))
            if l == 1 or i >= self.one_pos:
                out.append(("z", i, l))
        return out

    def is_final(self, state) -> bool:
        if state[0] == "m":
            return state[1] == 0 and state[4]
        return state[1] == 0

    def successors(self, state):
        if state[0] == "z":
            _, i, l = state
            if i == 0:
                return
            y = 1 if (i == self.one_pos and l == 0) else 0
            for j, l2 in self.phases.successors(i, l):
                yield (0, y), ("z", j, l2)
            return
        _, i, l, fz, below = state
        if i == 0:
            return
        cap = self.phases.quot(i)
        if below:
            for j, l2 in self.phases.successors(i, l):
                yield (0, 0), ("m", j, l2, False, True)
            return
        for d in _track_digits(cap, i == 1, fz):
            for j, l2 in self.phases.successors(i, l):
                yield (d, 0), ("m", j, l2, d == cap, False)
                if d >= 1:
                    yield (d, 1), ("m", j, l2, False, True)


@functools.lru_cache(maxsize=None)
def build_valid_rep(cf: ContinuedFraction) -> Automaton:
    """Single-track automaton accepting exactly the 0*-padded valid words."""
    params = _params(cf)
    return from_lazy(_ValidTracks(params, 1, lambda ds: ds), 1, params.m)


@functools.lru_cache(maxsize=None)
def build_digit_sum(cf: ContinuedFraction) -> Automaton:
    """Three-track automaton for conv(z, z', z + z') over valid z, z'."""
    params = _params(cf)
    return from_lazy(_ValidTracks(params, 2, lambda ds: ds + (ds[0] + ds[1],)), 3, params.m)


@functools.lru_cache(maxsize=None)
def build_equality(cf: ContinuedFraction) -> Automaton:
    """Diagonal pairs of 0*-padded valid representations."""
    params = _params(cf)
    return from_lazy(_ValidTracks(params, 1, lambda ds: ds * 2), 2, params.m)


@functools.lru_cache(maxsize=None)
def build_less_than(cf: ContinuedFraction) -> Automaton:
    params = _params(cf)
    return from_lazy(_LessThanLazy(params), 2, params.m)


@functools.lru_cache(maxsize=None)
def build_va_graph(cf: ContinuedFraction) -> Automaton:
    params = _params(cf)
    return from_lazy(_VaGraphLazy(params), 2, params.m)


# -- the composed adder -------------------------------------------------------


class _SumPass1Lazy:
    """Fused digit-sum and width-4 pass over tracks (x, y, u1).

    Joining the two relations with independent position phases makes
    determinization carry every phase pair; fusing them keeps one phase.
    The state is a pass-1 state whose step phase runs three ahead of the
    position being read, so the cap for the current position is the last
    component of the quotient window, and the digit-sum validity flags
    ride along.  The middle track u0 = x + y never appears: the pass-1
    window consumes the sum directly.
    """

    def __init__(self, params: AutomatonParameters):
        self.params = params
        self.phases = _Phases(params, lo=3)

    def initial_states(self):
        zero = (0, 0, 0)
        return [(i, l, False, False, zero, zero) for (i, l) in self.phases.initial(4)]

    def is_final(self, state) -> bool:
        return state[0] == 3 and state[1] == 0

    def successors(self, state):
        i, l, fzx, fzy, v, w = state
        if i == 3 and l == 0:
            return
        m = self.params.m
        u = self.phases.p_tuple(i, l)
        cap = u[3]  # quotient at the position being read (three below the step)
        last = i == 4 and l == 0
        xs = _track_digits(cap, last, fzx)
        ys = _track_digits(cap, last, fzy)
        if last:
            ub = self.phases.q_tuple(3, 0)
            for x in xs:
                for y in ys:
                    _, full = window_a(u, (v[0], v[1], v[2], x + y))
                    if full[0] != w[0] or full[3] > m:
                        continue
                    nv = full[1:]
                    _, out = window_b(ub, nv)
                    if out[0] == w[1] and out[1] == w[2] and out[2] <= m:
                        yield (x, y, out[2]), (3, 0, False, False, nv, (w[1], w[2], out[2]))
            return
        targets = [t for t in self.phases.successors(i, l) if t[0] != 3]
        for x in xs:
            for y in ys:
                _, full = window_a(u, (v[0], v[1], v[2], x + y))
                if full[0] != w[0] or full[3] > m:
                    continue
                nv = full[1:]
                nfzx, nfzy = x == cap, y == cap
                for u1 in range(m + 1):
                    nw = (w[1], w[2], u1)
                    for j, l2 in targets:
                        yield (x, y, u1), (j, l2, nfzx, nfzy, nv, nw)


class _ComposeLazy:
    """Join ``left`` (letters ending in a middle track) with a 2-track
    ``right`` relation on (middle, out); the middle track is projected on
    the fly, so the result's letters end in ``out`` instead."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._rmap_cache: dict = {}

    def initial_states(self):
        return [
            (ls, rs)
            for ls in self.left.initial_states()
            for rs in self.right.initial_states()
        ]

    def is_final(self, state) -> bool:
        return self.left.is_final(state[0]) and self.right.is_final(state[1])

    def successors(self, state):
        ls, rs = state
        rmap = self._rmap_cache.get(rs)
        if rmap is None:
            rmap = {}
            for (mid, out), rt in self.right.successors(rs):
                rmap.setdefault(mid, []).append((out, rt))
            self._rmap_cache[rs] = rmap
        for letter, lt in self.left.successors(ls):
            for out, rt in rmap.get(letter[-1], ()):
                yield letter[:-1] + (out,), (lt, rt)


@functools.lru_cache(maxsize=None)
def build_adder(cf: ContinuedFraction) -> Automaton:
    """Deterministic minimal automaton for conv(rho(M), rho(N), rho(M+N)).

    Stages the intersection-and-projection pipeline pairwise: starting
    from the digit-sum relation, each pass relation is joined onto the
    running (x, y, intermediate) automaton while the previous intermediate
    track is projected away; the join is determinized and minimized before
    the next stage to keep the state count small.  Validity of the result
    track, closure under leading zero columns, and a final minimization
    finish the construction.
    """
    params = _params(cf)
    m = params.m
    dfa = determinize_lazy(_SumPass1Lazy(params), 3, m, complete=False).minimize()
    for pass_no in (2, 3):
        pass_dfa = build_pass_automaton(cf, pass_no).determinize(complete=False).minimize()
        joined = _ComposeLazy(_ExplicitLazy(dfa), _ExplicitLazy(pass_dfa))
        dfa = determinize_lazy(joined, 3, m, complete=False).minimize()
    valid_z = build_valid_rep(cf).cylindrify(0).cylindrify(0)
    final = dfa.intersect(valid_z).zero_closure()
    return final.determinize_minimize()
