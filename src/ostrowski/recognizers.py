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
word length.  The adder's pass 1 makes no guess: its states carry the
set of phases still possible (``_PhaseSets``) from one start, and on
every expansion measured that relation comes out deterministic.

The three pass automata recognize { conv(z, z') : pass_i(z) = z' } for
the addition passes.  They verify the pass's window arithmetic (the
rewrite rules of ``rules``, in the array forms ``bulk`` also uses) while
reading both tracks in parallel; since a window's result is only known a
few letters after the automaton has read the claimed output digit, each
state buffers the digits awaiting verification (three for the width-4
pass, two for the width-3 passes; the backward pass buffers input digits
instead, because it verifies its windows against the stream two letters
late).  The initial all-zero buffers make the language closed under
leading zero columns, and equally force a rejected run whenever the pass
would carry beyond the padded length, so the relations compose soundly
under convolution padding.

Buffered claims make most states of a pass frame dead ends.  So a pass
frame first finds, by a backward fixpoint over the window rules, the
states from which its final phase can still be reached (``_viable``),
one bit per state, and explores only those.  On the fixtures the three
pass relations meet only the states they keep.  The fixpoint runs over
the frame's moves grouped by head, the state fields that fix the
window, and keeps them with the table: the pass-1 step reads a key's
moves off that index and rewrites no window itself.

Each recognizer is a frame for ``from_lazy``: it packs a state (phase
id, then buffers or validity flags) into one int64 key with ``_Key`` and
steps a whole frontier of keys at once.  A step lays out, per state, a grid over
its choices (input digits, claimed digits, successor phases) in the order
that numbers new states, masks the cells the rules allow, and reads off
the arcs of the cells left; the pass-1 step takes its (input, claim)
cells from the move index in the same order.  The phase-set frame packs
a mask of phase ids in place of the one id, and steps its members
through the pass-1 frame.  A pass frame's step reads the viability mask
of each candidate (state, input, successor phase) over the claim that
ends the successor's buffer, and packs keys only for the claims the
mask admits.
An expansion whose keys could pass 64 bits, or whose viability table or
digit grid would pass the toolkit's size guard, raises
``AutomatonTooLarge`` before anything is explored, naming the stage and
the expansion.

The composed adder joins digit-sum, the three pass relations and
validity of the result with the toolkit's closure operations, one stage
per pass: intersect the running automaton with the pass relation joined
on their shared track, project the intermediate track (which closes
under leading zero columns), minimize.  Its pass-1 relation is the
width-4 frame over phase sets, reading only the digits two valid digits
can sum to; its last stage joins the valid words on the result track, a
join of two DFAs closed under leading zero columns, so a total
minimization ends it with no closure or subset construction.  By
construction it accepts conv(0*rho(M), 0*rho(N), 0*rho(M+N)) and
nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .automata import _MAX_CELLS, Automaton, _cells, _reach
from .contfrac import AutomatonParameters, ContinuedFraction, automaton_parameters
from .errors import AutomatonTooLarge, NotQuadratic
from .rules import c_preimages_array, rewrite, window_a_inplace, window_b_inplace, window_c_inplace


# -- lazy construction ----------------------------------------------------------
#
# Recognizers describe automata by frames over packed states: each
# state is one int64 key, and a step takes a whole array of keys at once.
# A lazy automaton is any object with:
#     initial_keys() -> int64 array of the initial states' keys, in order
#     final(keys)    -> bool mask of the final keys
#     fanout         -> the grid cells one state's step works on, at most
#     step(keys)     -> (pos, codes, targets): every arc leaving keys[pos],
#                       grouped by ascending pos; the order within a state
#                       is the order in which its new targets are numbered

_CHUNK = 1 << 21  # array elements one step of a breadth-first level works on
_SET_WALK = 512  # states below which from_lazy's backward walk runs on Python sets


class _PairIndex:
    """Exact int32 ids of int64 keys, new keys numbered in order of first
    occurrence, by binary search in the sorted keys seen."""

    def __init__(self):
        self.keys = np.empty(0, np.int64)  # sorted
        self.ids = np.empty(0, np.int32)
        self.count = 0

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of ``keys`` and the keys seen for the first time, in order."""
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        ids = np.empty(len(keys), np.int32)
        ids[found] = self.ids[at[found]]
        missing = (~found).nonzero()[0]
        if not missing.size:
            return ids, missing
        fresh, first, inverse = np.unique(keys[missing], return_index=True, return_inverse=True)
        order = first.argsort()
        fresh_ids = np.empty(len(fresh), np.int32)
        fresh_ids[order] = np.arange(self.count, self.count + len(fresh), dtype=np.int32)
        self.count += len(fresh)
        ids[missing] = fresh_ids[inverse.ravel()]
        # merge the new keys into the sorted ones
        slot = np.searchsorted(self.keys, fresh) + np.arange(len(fresh))
        old = np.ones(len(self.keys) + len(fresh), bool)
        old[slot] = False
        merged_keys, merged_ids = np.empty(len(old), np.int64), np.empty(len(old), np.int32)
        merged_keys[slot], merged_ids[slot] = fresh, fresh_ids
        merged_keys[old], merged_ids[old] = self.keys, self.ids
        self.keys, self.ids = merged_keys, merged_ids
        return ids, fresh[order]


def _spans(starts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the CSR rows ``rows`` over the offsets ``starts``, row
    by row, as (pos, at): entry ``at`` lies in row ``rows[pos]``."""
    first, count = starts[rows], starts[rows + 1] - starts[rows]
    pos = np.repeat(np.arange(len(rows)), count)
    return pos, np.arange(len(pos)) + np.repeat(first - (np.cumsum(count) - count), count)


def _coreachable(n: int, srcs: np.ndarray, dsts: np.ndarray, finals: np.ndarray) -> np.ndarray:
    """Which of the states 0..n - 1 reach one of ``finals`` along the arcs
    srcs -> dsts: a breadth-first level at a time backwards, over the arcs
    grouped by target.

    A level costs about a dozen numpy calls however few states it holds,
    so below ``_SET_WALK`` states the walk runs on Python sets
    (``automata._reach``).  Measured on 1;(2): the 27 states of the valid
    words take 0.3 ms in arrays and 0.02 ms in sets, the 4,104 of pass 1
    0.9 ms in arrays and 2.7 ms in sets.
    """
    into = np.argsort(dsts, kind="stable")
    back, starts = srcs[into], np.searchsorted(dsts[into], np.arange(n + 1))
    if n < _SET_WALK:
        return np.array(_reach(starts.tolist(), back.tolist(), finals.tolist()), bool)
    kept = np.zeros(n, bool)
    kept[finals] = True
    level = finals
    while level.size:
        met = back[_spans(starts, level)[1]]
        met = np.sort(met[~kept[met]])
        level = met[np.diff(met, prepend=-1) != 0]
        kept[level] = True
    return kept


def from_lazy(lazy, arity: int, digit_bound: int) -> Automaton:
    """Materialize a lazily described NFA breadth first, a level of keys at
    a time in chunks of at most ``_CHUNK`` cells, ``fanout`` per key; keep
    only the states from which a final state can be reached (a backward
    walk over the arcs in arrays, ``_coreachable``), with their arcs
    sorted into CSR lists.

    States are numbered in order of first occurrence, the starts first,
    then each level's targets in arc order: so over ascending letters the
    ids come out as a state-by-state exploration would assign them.  The
    arcs and states explored stay within the toolkit's ``_MAX_CELLS``, and
    the sort key ``(source * letters + code) * states + target`` of every
    arc within int64.
    The result is flagged deterministic when it keeps one initial state
    and no two arcs of a state share a letter, so that determinization
    passes it by.
    """
    starts = np.asarray(lazy.initial_keys(), np.int64)
    index = _PairIndex()
    _, level = index.lookup(starts)
    n_starts = len(level)
    levels, degrees, codes, dsts = [level], [], [], []
    per_chunk = max(1, _CHUNK // max(1, lazy.fanout))
    arcs = 0
    while level.size:
        targets = []
        for lo in range(0, len(level), per_chunk):
            keys = level[lo : lo + per_chunk]
            pos, code, target = lazy.step(keys)
            degrees.append(np.bincount(pos, minlength=len(keys)))
            codes.append(code)
            targets.append(target)
        ids, level = index.lookup(targets[0] if len(targets) == 1 else np.concatenate(targets))
        dsts.append(ids)
        levels.append(level)
        arcs += len(ids)
        _cells(arcs + index.count, "explored arcs and states")
    keys, none = np.concatenate(levels), [np.empty(0, np.int32)]
    n = len(keys)
    srcs = np.repeat(np.arange(n, dtype=np.int32), np.concatenate(degrees + none))
    codes, dsts = np.concatenate(codes + none), np.concatenate(dsts + none)
    letters = (digit_bound + 1) ** arity
    if max(n, 1) ** 2 * letters >= 1 << 63:  # the sort keys of the arcs below pass int64
        raise AutomatonTooLarge(f"{n} states times {digit_bound + 1}**{arity} letters do not fit 64-bit arc keys")
    finals = np.flatnonzero(lazy.final(keys))
    kept = _coreachable(n, srcs, dsts, finals)
    renumber = np.cumsum(kept) - 1  # the new id of a kept state
    if not kept.all():
        keep = kept[srcs] & kept[dsts]
        srcs, codes, dsts = renumber[srcs[keep]], codes[keep], renumber[dsts[keep]]
    # by (src, code, dst): the arcs come out by source and nearly sorted by
    # code within it, so one stable sort of the composite key runs near
    # linear (on the 25,398 arcs of pass 1 of 1;(2): 0.02 ms, against
    # 1.5 ms for a sort by (code, dst) and then by src)
    order = np.argsort((srcs.astype(np.int64) * letters + codes) * max(n, 1) + dsts, kind="stable")
    srcs, codes, dsts = srcs[order], codes[order], dsts[order]
    fresh = np.ones(len(order), bool)  # the first of each run of equal arcs
    fresh[1:] = (srcs[1:] != srcs[:-1]) | (codes[1:] != codes[:-1]) | (dsts[1:] != dsts[:-1])
    srcs, codes, dsts = srcs[fresh], codes[fresh], dsts[fresh]
    indptr = np.searchsorted(srcs, np.arange(int(kept.sum()) + 1))
    initial = renumber[np.flatnonzero(kept[:n_starts])]  # the starts are numbered first
    deterministic = len(initial) == 1 and not ((srcs[1:] == srcs[:-1]) & (codes[1:] == codes[:-1])).any()
    return Automaton._from_rows(
        arity, digit_bound, initial, renumber[finals], indptr.tolist(), codes.tolist(),
        dsts.tolist(), deterministic, trim=True,
    )


# -- phases and state keys ------------------------------------------------------


class _Phases:
    """(i, l) phase table with quotient-cap windows and wrap transitions.

    Phases are numbered 0..count-1 (``id``); ``i`` and ``cap`` hold each
    phase's countdown and quotient a_i, and ``next`` its successors, -1
    padded.  ``lo`` is the smallest l = 0 index a recognizer uses.  The only
    branching successor is (xi, 1): the run either wraps to (nu, 1) for
    another copy of the block or commits to (nu, 0), declaring the copy
    just read to be the one ending at position nu.
    """

    def __init__(self, params: AutomatonParameters, lo: int):
        self.params = params
        xi, nu = params.xi, params.nu
        self.pairs = [(i, 0) for i in range(lo, nu + 1)] + [(i, 1) for i in range(xi, nu + 1)]
        self.id = {pair: p for p, pair in enumerate(self.pairs)}
        self.count = len(self.pairs)
        self.i = np.array([i for i, _ in self.pairs])
        self.l = np.array([l for _, l in self.pairs])
        self.cap = self.windows(1)[:, 0]
        self.next = np.full((self.count, 2), -1, np.int64)
        for p, (i, l) in enumerate(self.pairs):
            if l == 1 and i == xi:
                succ = [(nu, 1), (nu, 0)]
            else:
                succ = [(i - 1, l)] if l == 1 or i > lo else []
            self.next[p, : len(succ)] = [self.id[pair] for pair in succ]

    def initial(self, kmin: int) -> list[int]:
        xi, nu = self.params.xi, self.params.nu
        starts = [(i, 0) for i in range(kmin, nu + 1)] + [(i, 1) for i in range(xi, nu + 1)]
        return [self.id[pair] for pair in starts]

    def windows(self, width: int) -> np.ndarray:
        """Quotient caps of the positions i, i - 1, ..., i - width + 1 of
        every phase, one row each.  An l = 1 position below xi lies in the
        previous copy of the block, so it moves up by the period nu - xi + 1."""
        xi, nu = self.params.xi, self.params.nu
        pos = self.i[:, None] - np.arange(width)
        pos += ((self.l[:, None] == 1) & (pos < xi)) * (nu - xi + 1)
        return np.array(self.params.unrolled)[pos - 1]


class _Key:
    """Mixed-radix packing of a state's fields into one int64 key, field 0
    most significant.  Keys that could pass 2**63 - 1 are refused."""

    def __init__(self, *radices: int):
        if math.prod(radices) > 1 << 63:
            raise AutomatonTooLarge(f"states with fields of {radices} values do not fit 64-bit keys")
        self.radices = radices

    def pack(self, *fields) -> np.ndarray:
        key = np.asarray(fields[0], np.int64)
        for field, radix in zip(fields[1:], self.radices[1:]):
            key = key * radix + field
        return key

    def unpack(self, keys: np.ndarray) -> list[np.ndarray]:
        """The fields of each key as columns, which broadcast over grid axes."""
        fields = []
        for radix in reversed(self.radices[1:]):
            keys, field = np.divmod(keys, radix)
            fields.append(field[:, None])
        return [keys[:, None]] + fields[::-1]


@contextlib.contextmanager
def _stage(what: str, cf: ContinuedFraction):
    """Name the stage and the expansion in a refusal raised inside."""
    try:
        yield
    except AutomatonTooLarge as exc:
        raise AutomatonTooLarge(f"{what} of {cf}: {exc}") from exc


def _params(cf: ContinuedFraction) -> AutomatonParameters:
    if not cf.is_quadratic:
        raise NotQuadratic("recognizers require an eventually periodic expansion")
    return automaton_parameters(cf)


def _valid(tracks, cap, first, forced):
    """Where k valid tracks may read the digits ``tracks`` (an array each)
    at a position with quotient ``cap``, and the flags they leave: bit
    k - 1 - j for track j at its cap, which forces a 0 next.  No digit
    reaches the cap at position 1 (``first``)."""
    ok, capped = True, 0
    for bit, d in zip(reversed(range(len(tracks))), tracks):
        ok = ok & (d <= cap - first) & (((forced >> bit) % 2 == 0) | (d == 0))
        capped = capped + (d == cap) * (1 << bit)
    return ok, capped


def _digit_grid(k: int, mu: int) -> np.ndarray:
    """Every k-tuple of digits 0..mu, track 0 most significant: ``[k, (mu+1)**k]``,
    refused before it is made when its cells pass the toolkit's size guard."""
    _cells((mu + 1) ** k, f"grid of {k}-tuples of digits 0..{mu}")
    return np.indices((mu + 1,) * k).reshape(k, -1)


# -- pass automata ------------------------------------------------------------


def _mask_dtype(bits: int):
    """The narrowest unsigned type holding masks of ``bits`` bits."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if np.iinfo(dtype).bits >= bits:
            return dtype
    raise AutomatonTooLarge(f"viability masks of {bits} bits do not fit 64-bit words")


def _pack_bits(cells: np.ndarray, dtype) -> np.ndarray:
    """Bool cells as masks over their last axis: bit y stands for ``cells[..., y]``."""
    return (cells.astype(dtype) << np.arange(cells.shape[-1], dtype=dtype)).sum(axis=-1, dtype=dtype)


@functools.lru_cache(maxsize=None)
def _viable(frame: type, params: AutomatonParameters) -> tuple[np.ndarray, tuple]:
    """Which states of a pass frame can still reach its final phase, and
    the frame's moves, indexed by head.

    A state is the phase, the k pending digits v, and the k buffered
    digits w0, rest (claims; the backward pass buffers inputs).  A step of
    phase p settles w0 from v and leaves the pending digits v'; the
    frame's ``moves()`` lists the steps that some input allows, as flat
    arrays (phase, head, tail, *payload) with head the digits (v, w0),
    tail the digits v' and payload what else a move reads (pass 1: its
    input digit), and the closing check, ``closes[v', rest]`` other than
    0 where the closing window of v' leaves rest.  A step
    shifts rest forward, ahead of a new digit that may be anything, so
    (p, v, w0, rest) is viable when one of its moves reaches a successor
    phase where (v', rest, y) is viable for some y; from the last phase,
    when it passes the closing check.  The final phase is viable
    throughout.

    The table holds one bit per state, as one mask per state without its
    last buffered digit, bit d for last digit d, in the narrowest
    unsigned type that holds m + 1 bits.  So "for some y" is a mask other
    than 0, and the moves of a head are joined by one
    ``bitwise_or.reduceat`` over masks.  The least table is found phase by
    phase: a phase is recomputed while one of its successors has changed
    since, the lowest phase id first.  Phase ids put every successor first
    but for the wrap to (nu, 1), so few phases are recomputed twice.

    Returns the masks as one array indexed like the frame's keys without
    the last digit: phase, then the digits, most significant first.  It
    holds for every input digit, so pass 1 and the adder's pass 1, which
    reads fewer, share it.  With it comes the move index (starts, tail,
    closes, *payload), the moves grouped by (phase, head) in the order of
    ``moves()``: int32 ``starts``, where the moves of head h of phase p
    begin, at p * heads + h, with one more entry closing the last; each
    move's tail as int32 and each payload array as int8, made narrow before
    the table is allocated; and ``closes`` as given.  A table past the
    toolkit's size guard is never made; under it every digit fits int8 and
    every move offset int32.
    """
    lazy = frame(params)
    phases, last, done = lazy.phases, lazy.last, lazy.done
    radix, count = params.m + 1, phases.count
    size = count * lazy.digits // radix
    if size > _MAX_CELLS:
        raise AutomatonTooLarge(f"viability table needs {size} masks, more than {_MAX_CELLS}")
    dtype = _mask_dtype(radix)
    (phase, head, tail, *payload), closes = lazy.moves()
    n_tail, n_rest = closes.shape
    heads = lazy.digits // n_rest
    group = phase * heads + head
    del phase, head
    order = np.argsort(group, kind="stable")  # grouped by (phase, head)
    starts = np.zeros(count * heads + 1, np.int32)
    np.cumsum(np.bincount(group, minlength=count * heads), out=starts[1:])
    tail, payload = tail[order].astype(np.int32), [a[order].astype(np.int8) for a in payload]
    del group, order
    succ = [[t for t in row if t >= 0] for row in phases.next.tolist()]
    table = np.zeros((count, heads, n_rest // radix), dtype)
    table[done] = (1 << radix) - 1
    stale = set(range(count)) - {done}
    while stale:
        p = min(stale)
        stale.remove(p)
        at = starts[p * heads : (p + 1) * heads + 1]
        if p == last:
            reach = closes != 0
        else:
            reach = np.logical_or.reduce([table[t].reshape(n_tail, n_rest) != 0 for t in succ[p]])
        reach = _pack_bits(reach.reshape(n_tail, n_rest // radix, radix), dtype)
        live = np.flatnonzero(np.diff(at))  # the heads with moves
        new = np.zeros_like(table[p])
        new[live] = np.bitwise_or.reduceat(reach[tail[at[0] : at[-1]]], at[live] - at[0])
        if not np.array_equal(new, table[p]):
            table[p] = new
            stale.update(q for q in range(count) if p in succ[q])
    return table.ravel(), (starts, tail, closes, *payload)


class _PassLazy:
    """State frame of the pass automata: (phase, v, w) with k-digit
    buffers v and w for windows of width k + 1, and phases counting down
    to k, the final phase.

    The initial keys and each step keep only the states the table of
    ``_viable`` admits: a step reads one mask per candidate (state, input,
    successor phase) and packs a key only for the claims its set bits
    admit.  The table admits every state from which some input reaches
    the final phase, so no state that can accept is dropped; every path to
    such a state runs through such states, so they are met at the same
    levels in the same arc order as without the table, and ``from_lazy``
    numbers them as before.

    A frame's ``moves()`` lists its window steps for ``_viable``, which
    returns them with the table as an index by head; ``_masks`` is the one
    read of the table, which a test frame may override.
    """

    def __init__(self, params: AutomatonParameters, width: int):
        self.params, self.m = params, params.m
        self.width = width
        self.phases = _Phases(params, lo=width - 1)
        self.digits = (params.m + 1) ** (2 * width - 2)
        self.key = _Key(self.phases.count, *(params.m + 1,) * (2 * width - 2))
        self.u = self.phases.windows(width)
        self.last, self.done = self.phases.id[width, 0], self.phases.id[width - 1, 0]

    def _masks(self, index: np.ndarray) -> np.ndarray:
        """The viability masks at ``index`` into the table of ``_viable``."""
        return _viable(type(self), self.params)[0][index]

    def _successors(self, nxt: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """The masks of the states (nxt, rest, y) over their last digit y,
        ``rest`` the digits before y as one number, one per row of ``nxt``;
        0 where nxt is -1 (whose negative index reads the last phase)."""
        return np.where(nxt >= 0, self._masks(nxt * (self.digits // (self.m + 1)) + rest[:, None]), 0)

    @staticmethod
    def _expand(masks: np.ndarray, closing: np.ndarray, allowed: np.ndarray):
        """(cell, y, t) of each bit y set in ``masks[cell, t]``, in that
        order; the closing cells keep only the bits ``allowed`` sets, one
        row of m + 1 bools each."""
        masks[closing] &= _pack_bits(allowed, masks.dtype)[:, None]
        live = np.flatnonzero(masks.any(axis=1))
        octets = masks[live].astype(f"<u{masks.itemsize}", copy=False).view(np.uint8)
        bits = np.unpackbits(octets, axis=-1, bitorder="little")  # per cell: t, then y
        bits = bits.reshape(len(live), masks.shape[1], 8 * masks.itemsize)
        cell, y, t = np.nonzero(bits.transpose(0, 2, 1))
        return live[cell], y, t

    def initial_keys(self) -> np.ndarray:
        keys = self.key.pack(np.array(self.phases.initial(self.width)), *[0] * (len(self.key.radices) - 1))
        return keys[self._masks(keys // (self.m + 1)) & 1 != 0]  # a key without its last digit indexes the table

    def final(self, keys: np.ndarray) -> np.ndarray:
        return self.key.unpack(keys)[0][:, 0] == self.done


class _Pass1Lazy(_PassLazy):
    """The width-4 pass on tracks (z, z').

    State (phase, v, w): phase for the upcoming window step, the three
    pending window digits v, and the three claimed output digits w still
    awaiting verification.  Reading an input digit s and a claim verifies
    that the window (v, s) rewrites to (w1, v') and shifts the claim into
    the buffer.  The step reaching phase 3 additionally verifies the final
    width-3 rewrite against the last three claimed digits, which leaves
    one claim.

    The input is any of 0..m, or with ``bounded`` only what two valid
    digits can sum to: at most twice the cap of the position being read,
    less one at position 1 (``limit``, per phase).  The phase runs three
    ahead of that position, so its cap is the last quotient of the window.

    Grid per state: input, claimed digit, successor phase.  The step reads
    the inputs whose window settles w0 off the move index of ``_viable``,
    at head (phase, v, w0), which is the key without its last two digits:
    each move's input digit and pending digits v', in ascending input.  It
    checks the input limit and, from the last phase, the closing window by
    lookup in ``closes``, then the successor masks as every pass frame
    does.
    """

    def __init__(self, params: AutomatonParameters, bounded: bool = False):
        super().__init__(params, 4)
        last = np.arange(self.phases.count) == self.last
        self.limit = 2 * (self.u[:, 3] - last) if bounded else np.full(len(last), params.m)  # inputs per phase
        self.ub = self.phases.windows(3)[self.done]
        self.fanout = (params.m + 1) ** 2 * 2

    def moves(self):
        """The window steps over every input digit, with that digit, and the
        closing check: 1 + the digit the closing window of v' settles where
        it leaves the claims (w1, w2), else 0."""
        r = self.m + 1
        v = _digit_grid(4, self.m)  # v0, v1, v2 and the input digit
        full = rewrite(window_a_inplace, self.u.T[..., None], v)
        phase, at = np.nonzero(full[3] <= self.m)
        full = [a[phase, at] for a in full]
        head = np.ravel_multi_index((v[0][at], v[1][at], v[2][at], full[0]), (r,) * 4)
        out = rewrite(window_b_inplace, self.ub, _digit_grid(3, self.m))
        w1, w2 = _digit_grid(2, self.m)
        closes = (out[0][:, None] == w1) & (out[1][:, None] == w2) & (out[2][:, None] <= self.m)
        moves = phase, head, np.ravel_multi_index(full[1:], (r,) * 3), v[3][at]
        return moves, closes * (out[2][:, None] + 1).astype(np.int8)

    def step(self, keys: np.ndarray):
        r = self.m + 1
        starts, tail, closes, digit = _viable(type(self), self.params)[1]
        head = keys // r**2  # phase, v and w0: the moves of the key
        pos, at = _spans(starts, head)
        s, nv, phase, claim = digit[at], tail[at].astype(np.int64), head[pos] // r**4, keys[pos] % r**2
        keep = s <= self.limit[phase]
        # the final step: the last three claims must be what the width-3
        # rewrite leaves, and it claims the output digit that rewrite settles
        closing = phase == self.last
        settled = closes[nv[closing], claim[closing]] - 1
        keep[closing] &= settled >= 0
        settled = settled[keep[closing]]
        pos, s, nv, phase, claim, closing = (a[keep] for a in (pos, s, nv, phase, claim, closing))
        # each claim the successor's mask admits goes to that successor;
        # the closing step keeps only the settled digit
        nxt = self.phases.next[phase]
        masks = self._successors(nxt, nv * r**2 + claim)
        cell, y, t = self._expand(masks, closing, np.arange(r) == settled[:, None])
        target = ((nxt[cell, t] * r**3 + nv[cell]) * r**2 + claim[cell]) * r + y
        return pos[cell], s[cell].astype(np.int64) * r + y, target


class _Width3Lazy(_PassLazy):
    """State frame of the width-3 pass automata: (phase, v, w) with
    two-digit buffers v and w, and phases counting down to 2.  The step
    into phase 2 verifies the first window of the pass outright, which
    leaves one output digit, and clears v.  Both close where the oldest
    pending digit left equals the buffered digit after the settled one.

    Grid per state: pass 3 reads input x, claim y, successor phase; pass 2
    reads claim y, preimage, input x, successor phase.
    """

    def __init__(self, params: AutomatonParameters):
        super().__init__(params, 3)
        self.fanout = 4 * (params.m + 1) ** 2

    def _closes(self) -> np.ndarray:
        r = self.m + 1
        return np.arange(r * r)[:, None] // r == np.arange(r)

    def _fields(self, keys: np.ndarray):
        p, v0, v1, w0, w1 = self.key.unpack(keys)
        u = self.u[p[:, 0]].T[..., None]
        return p == self.last, (v0, v1), (w0, w1), u, self.phases.next[p[:, 0]]


class _Pass2Lazy(_Width3Lazy):
    """Two-track automaton for the backward width-3 pass.

    The pass runs against the reading direction, so a state buffers the
    two most recently read input digits w and guesses in v the window
    contents its step will have produced; reading (x, y) checks that some
    preimage window of (v, y) starts with the buffered input digit.  The
    final step verifies the first window of the pass outright.
    """

    def moves(self):
        """The preimage steps over every claim, and for the last phase
        every window (w0, w1, x) that rewrites to (v0, v1, ...), its tail
        holding w1 for the closing check."""
        r, count = self.m + 1, self.phases.count
        v0, v1, y = (np.broadcast_to(a, (count, r**3)) for a in _digit_grid(3, self.m))
        exists, before = c_preimages_array(self.u.T[..., None], (v0, v1, y), self.m)
        exists[self.last] = False
        phase, at, k = np.nonzero(exists)
        head = np.ravel_multi_index((v0[phase, at], v1[phase, at], before[0][phase, at, k]), (r,) * 3)
        tail = np.ravel_multi_index((before[1][phase, at, k], before[2][phase, at, k]), (r,) * 2)
        w0, w1, x = _digit_grid(3, self.m)
        out = rewrite(window_c_inplace, self.u[self.last], (w0, w1, x))
        last = np.full(len(w0), self.last)
        moves = (phase, last), (head, np.ravel_multi_index((out[0], out[1], w0), (r,) * 3)), (tail, w1 * r)
        return tuple(np.concatenate(a) for a in moves), self._closes()

    def step(self, keys: np.ndarray):
        last, (v0, v1), (w0, w1), u, nxt = self._fields(keys)
        digits = np.arange(self.m + 1)
        exists, before = c_preimages_array(u, (v0, v1, digits), self.m)
        general = exists & (before[0] == w0[..., None])
        # The final step reads (x, out2) for each x.  Since out2 never
        # decreases as x grows, its arcs sit in the cells y = out2 of the
        # first preimage in the order of x.
        out = rewrite(window_c_inplace, u, (w0, w1, digits))
        closes = ((out[0] == v0) & (out[1] == v1))[:, None, :] & (digits[:, None] == out[2][:, None, :])
        closes = closes[:, :, None, :] & (np.arange(2) == 0)[:, None]
        cells = np.where(last[..., None, None], closes, general[..., None])
        pos, y, k = np.nonzero(cells.any(-1))
        nv = [np.where(last[pos, 0], 0, b[pos, y, k]) for b in before[1:]]
        masks = self._successors(nxt[pos], (nv[0] * (self.m + 1) + nv[1]) * (self.m + 1) + w1[pos, 0])
        closing = last[pos, 0]
        cell, x, t = self._expand(masks, closing, cells[pos[closing], y[closing], k[closing]])
        pos, y = pos[cell], y[cell]
        target = self.key.pack(nxt[pos, t], *(a[cell] for a in nv), w1[pos, 0], x)
        return pos, x * (self.m + 1) + y, target


class _Pass3Lazy(_Width3Lazy):
    """Two-track automaton for the forward width-3 pass.

    Same windows as the backward pass but running with the reading
    direction, so states buffer claimed output digits as in the width-4
    pass: reading (x, y) rewrites the pending window (v, x) and compares
    its settled digit with the oldest buffered claim.
    """

    def moves(self):
        """The window steps over every input digit, and the closing check."""
        r = self.m + 1
        v0, v1, x = _digit_grid(3, self.m)
        out = rewrite(window_c_inplace, self.u.T[..., None], (v0, v1, x))
        phase, at = np.indices(out[0].shape).reshape(2, -1)
        out = [a.ravel() for a in out]
        head = np.ravel_multi_index((v0[at], v1[at], out[0]), (r,) * 3)
        return (phase, head, np.ravel_multi_index(out[1:], (r,) * 2)), self._closes()

    def step(self, keys: np.ndarray):
        last, (v0, v1), (w0, w1), u, nxt = self._fields(keys)
        digits = np.arange(self.m + 1)
        out = rewrite(window_c_inplace, u, (v0, v1, digits))
        ok = (out[0] == w0) & (~last | (out[1] == w1))
        pos, x = np.nonzero(ok)
        nv = [np.where(last, 0, a)[pos, x] for a in out[1:]]
        masks = self._successors(nxt[pos], (nv[0] * (self.m + 1) + nv[1]) * (self.m + 1) + w1[pos, 0])
        closing = last[pos, 0]
        cell, y, t = self._expand(masks, closing, digits == out[2][pos[closing], x[closing], None])
        pos, x = pos[cell], x[cell]
        target = self.key.pack(nxt[pos, t], *(a[cell] for a in nv), w1[pos, 0], y)
        return pos, x * (self.m + 1) + y, target


@functools.lru_cache(maxsize=None)
def build_pass_automaton(cf: ContinuedFraction, pass_no: int) -> Automaton:
    """NFA accepting conv(z, z') iff pass ``pass_no`` turns z into z'.

    The relation is taken at equal track lengths with the padding
    convention of the composed adder: the pass is evaluated on the padded
    input, and any carry beyond the shared length rejects.
    """
    if pass_no not in (1, 2, 3):
        raise ValueError(f"pass number must be 1, 2 or 3, got {pass_no}")
    params = _params(cf)
    with _stage(f"pass {pass_no}", cf):
        return from_lazy((_Pass1Lazy, _Pass2Lazy, _Pass3Lazy)[pass_no - 1](params), 2, params.m)


# -- base relations -----------------------------------------------------------


class _ValidTracks:
    """k tracks of 0*-padded valid representations, read as one letter.

    State (phase, forced): phase countdown and, per track, whether the
    previous digit sat at its cap, which forces a 0 next (bit k - 1 - j
    for track j).  ``letter`` maps the k digit arrays read and the radix
    m + 1 to the automaton's letter codes.  Grid per state: digits, track
    0 most significant, then successor phase.
    """

    def __init__(self, params: AutomatonParameters, k: int, letter):
        self.phases = _Phases(params, lo=0)
        self.digits = _digit_grid(k, params.mu)
        self.codes = letter(*self.digits, params.m + 1)
        self.key = _Key(self.phases.count, 2**k)
        self.fanout = 2 * self.digits.shape[1]

    def initial_keys(self) -> np.ndarray:
        return self.key.pack([self.phases.id[0, 0]] + self.phases.initial(1), 0)

    def final(self, keys: np.ndarray) -> np.ndarray:
        return self.key.unpack(keys)[0][:, 0] == self.phases.id[0, 0]

    def step(self, keys: np.ndarray):
        p, forced = self.key.unpack(keys)
        ok, capped = _valid(self.digits, self.phases.cap[p], self.phases.i[p] == 1, forced)
        nxt = self.phases.next[p[:, 0]]
        pos, c, t = np.nonzero(ok[..., None] & (nxt >= 0)[:, None, :])
        return pos, self.codes[c], self.key.pack(nxt[pos, t], capped[pos, c])


class _LessThanLazy:
    """Pairs (x, y) of valid representations with x < y.

    Valid representations of equal padded length compare like their
    values under the lexicographic order (every proper suffix is worth
    less than the next place value), so the automaton tracks validity of
    both tracks (flags as in ``_ValidTracks``) and whether a strict x < y
    difference has been seen.
    """

    def __init__(self, params: AutomatonParameters):
        self.phases = _Phases(params, lo=0)
        self.x, self.y = _digit_grid(2, params.mu)
        self.codes = self.x * (params.m + 1) + self.y
        self.key = _Key(self.phases.count, 4, 2)
        self.fanout = 2 * len(self.x)

    def initial_keys(self) -> np.ndarray:
        return self.key.pack(self.phases.initial(1), 0, 0)

    def final(self, keys: np.ndarray) -> np.ndarray:
        p, _, lt = self.key.unpack(keys)
        return ((p == self.phases.id[0, 0]) & (lt == 1))[:, 0]

    def step(self, keys: np.ndarray):
        p, forced, lt = self.key.unpack(keys)
        x, y = self.x, self.y
        ok, capped = _valid((x, y), self.phases.cap[p], self.phases.i[p] == 1, forced)
        ok &= (lt == 1) | (x <= y)
        nxt = self.phases.next[p[:, 0]]
        pos, c, t = np.nonzero(ok[..., None] & (nxt >= 0)[:, None, :])
        return pos, self.codes[c], self.key.pack(nxt[pos, t], capped[pos, c], lt[pos, 0] | (x[c] < y[c]))


class _VaGraphLazy:
    """Graph of V: (x, y) with y the least place value used by x, V(0) = 1.

    Main branch: above the lowest nonzero digit of x the y track is zero,
    at that position y reads 1 (y = rho(q_{k-1}) is the single-1 word at
    position k, also for k = 1 since then a_1 >= 2), below it both tracks
    are zero.  Zero branch: x is all zeros and y is rho(1), whose single 1
    sits at position 2 when a_1 = 1 and at position 1 otherwise.

    State (zero, phase, fz, below): the branch, the phase, whether x's last
    digit sat at its cap, and whether the lowest nonzero digit of x has
    been read.  Grid per state: digit d of x, successor phase, and b, the
    digit of y (b = 1 ends the main branch's free part); the zero branch
    and the part below read one letter each, in the cell d = b = 0.
    """

    def __init__(self, params: AutomatonParameters):
        self.phases = _Phases(params, lo=0)
        self.one_pos = 2 if params.unrolled[0] == 1 else 1
        self.radix = params.m + 1
        self.key = _Key(2, self.phases.count, 2, 2)
        self.fanout = 4 * (params.mu + 1)
        self.d = np.arange(params.mu + 1)[:, None]

    def initial_keys(self) -> np.ndarray:
        keys = []
        for p in self.phases.initial(1):
            i, l = self.phases.pairs[p]
            keys.append(self.key.pack(0, p, 0, 0))
            if l == 1 or i >= self.one_pos:
                keys.append(self.key.pack(1, p, 0, 0))
        return np.array(keys)

    def final(self, keys: np.ndarray) -> np.ndarray:
        zero, p, _, below = self.key.unpack(keys)
        return ((p == self.phases.id[0, 0]) & ((zero == 1) | (below == 1)))[:, 0]

    def step(self, keys: np.ndarray):
        zero, p, fz, below = self.key.unpack(keys)
        d, b = self.d, np.arange(2)
        cap, first = self.phases.cap[p], self.phases.i[p] == 1
        free = (zero == 0) & (below == 0)
        read = _valid((d,), cap[..., None], first[..., None], fz[..., None])[0] & ((b == 0) | (d >= 1))
        cells = np.where(free[..., None], read, (d == 0) & (b == 0))
        nxt = self.phases.next[p[:, 0]]
        pos, d, t, b = np.nonzero(cells[:, :, None, :] & (nxt >= 0)[:, None, :, None])
        zero, free, p = zero[pos, 0], free[pos, 0], p[pos, 0]
        y = np.where(zero == 1, p == self.phases.id[self.one_pos, 0], b)
        capped = free & (b == 0) & (d == self.phases.cap[p])
        target = self.key.pack(zero, nxt[pos, t], capped, (zero == 0) & ((below[pos, 0] == 1) | (b == 1)))
        return pos, d * self.radix + y, target


@functools.lru_cache(maxsize=None)
def build_valid_rep(cf: ContinuedFraction) -> Automaton:
    """Single-track automaton accepting exactly the 0*-padded valid words."""
    params = _params(cf)
    with _stage("valid words", cf):
        return from_lazy(_ValidTracks(params, 1, lambda d, r: d), 1, params.m)


@functools.lru_cache(maxsize=None)
def build_digit_sum(cf: ContinuedFraction) -> Automaton:
    """Three-track automaton for conv(z, z', z + z') over valid z, z'."""
    params = _params(cf)
    with _stage("digit sum", cf):
        return from_lazy(_ValidTracks(params, 2, lambda x, y, r: (x * r + y) * r + x + y), 3, params.m)


@functools.lru_cache(maxsize=None)
def build_equality(cf: ContinuedFraction) -> Automaton:
    """Diagonal pairs of 0*-padded valid representations."""
    params = _params(cf)
    with _stage("equality", cf):
        return from_lazy(_ValidTracks(params, 1, lambda d, r: d * r + d), 2, params.m)


@functools.lru_cache(maxsize=None)
def build_less_than(cf: ContinuedFraction) -> Automaton:
    params = _params(cf)
    with _stage("less-than", cf):
        return from_lazy(_LessThanLazy(params), 2, params.m)


@functools.lru_cache(maxsize=None)
def build_va_graph(cf: ContinuedFraction) -> Automaton:
    params = _params(cf)
    with _stage("the V graph", cf):
        return from_lazy(_VaGraphLazy(params), 2, params.m)


# -- the composed adder -------------------------------------------------------


class _PhaseSets:
    """A pass frame whose states carry the set of phases still possible.

    A state (S, fields) stands for the inner states (p, fields) with p in
    S, so it accepts what any of them accepts; its key is the mask of S,
    bit p for phase p, in place of the inner key's phase field.  A step
    expands each key into its member keys, runs the inner step on them,
    which does every window and viability check, and joins the arcs of
    one source and letter into the same target fields, OR-ing their
    target phases' bits.  The inner initial keys all have zero fields, so
    the frame has one start, and a run no longer guesses its phase: where
    no two target fields share a letter the frame is deterministic.
    """

    def __init__(self, inner: _PassLazy):
        self.inner = inner
        count = inner.phases.count
        self.key = _Key(1 << count, *inner.key.radices[1:])
        self.rest = math.prod(inner.key.radices[1:])
        self.bits = np.left_shift(1, np.arange(count, dtype=np.int64))
        self.fanout = inner.fanout * count

    def initial_keys(self) -> np.ndarray:
        phase = self.inner.initial_keys() // self.rest
        return np.array([np.bitwise_or.reduce(self.bits[phase]) * self.rest], np.int64)

    def final(self, keys: np.ndarray) -> np.ndarray:
        return (keys // self.rest >> self.inner.done) & 1 == 1

    def step(self, keys: np.ndarray):
        masks, fields = np.divmod(keys, self.rest)
        src, phase = np.nonzero(masks[:, None] & self.bits)
        pos, codes, targets = self.inner.step(phase * self.rest + fields[src])
        phase, fields = np.divmod(targets, self.rest)
        # one int64 per arc orders the arcs by (source, letter, target
        # fields); the viability table's size guard keeps it far from 2**63
        letters = int(codes.max(initial=0)) + 1
        if len(keys) * letters * self.rest > 1 << 63:
            raise AutomatonTooLarge(f"arcs of {len(keys)} states into {letters} letters and {self.rest} fields "
                                    "do not fit 64-bit sort keys")
        arcs = (src[pos] * letters + codes) * self.rest + fields
        order = np.argsort(arcs)
        arcs, bits = arcs[order], self.bits[phase[order]]
        first = np.flatnonzero(np.diff(arcs, prepend=-1))
        head, fields = np.divmod(arcs[first], self.rest)
        src, codes = np.divmod(head, letters)
        return src, codes, np.bitwise_or.reduceat(bits, first) * self.rest + fields


@functools.lru_cache(maxsize=None)
def build_adder(cf: ContinuedFraction) -> Automaton:
    """Deterministic minimal automaton for conv(rho(M), rho(N), rho(M+N)).

    Stages the intersection-and-projection pipeline pairwise, with the
    toolkit's own operations: starting from the digit-sum relation on
    (x, y, u), each pass relation on (u, u') is intersected with the
    running automaton, the two joined on u into an automaton over
    (x, y, u, u'), the track u is projected away (which closes the stage
    under leading zero columns), and the result is minimized before the
    next stage to keep the state count small.  A join with the trim DFA
    of valid words on the result track, and a final total minimization,
    finish the construction.  Both operands of that join are closed under
    leading zero columns (the projection closes the stage, and 0*-padded
    valid words are closed), so the join is too, and needs no closure of
    its own.

    Pass 1 here is its phase-set frame over the digits two valid digits
    can sum to, where the relation of ``build_pass_automaton`` guesses one
    phase per run and reads every digit 0..m: on the expansions measured
    it comes out deterministic, and its determinization is skipped.
    """
    params = _params(cf)
    digit_sum = build_digit_sum(cf)  # its grid is refused first, the pass-1 keys before it is determinized
    with _stage("the adder's pass 1", cf):
        frame = _PhaseSets(_Pass1Lazy(params, bounded=True))
    dfa = digit_sum.determinize_minimize(total=False)
    with _stage("the adder's pass 1", cf):
        pass1 = from_lazy(frame, 2, params.m)
    for relation in (pass1, build_pass_automaton(cf, 2), build_pass_automaton(cf, 3)):
        stage = dfa.intersect(relation.determinize_minimize(total=False), (0, 1, 2), (2, 3))  # on (x, y, u, u')
        dfa = stage.project(2).minimize(total=False)
    valid = build_valid_rep(cf).determinize_minimize(total=False)
    return dfa.intersect(valid, (0, 1, 2), (2,)).minimize()
