"""Vectorized batch addition for exhaustive sweeps.

The three addition passes touch each digit position a constant number of
times, so a large family of additions vectorizes cleanly: stack the digit
words of all pairs into an integer matrix (one row per addition, columns
LSD first) and run each pass as a short loop over positions with numpy
over the rows.  ``batch_add`` works on one block of rows at a time: it
sums the block's inputs into one preallocated scratch buffer, held
transposed so each position is a contiguous row, runs all three passes
there, and copies the block's result (and, on request, its stages) into
preallocated outputs.  A block has at most ``_CELLS`` digit cells, so
the rows each numpy operation reads and writes stay in cache from the
first pass to the last.

A window step of pass 1 takes about twenty numpy calls and one of passes
2 and 3 about nine, each over every row of the block, so the number of
calls sets the cost.  A step computes each comparison once, into
preallocated boolean rows, and applies its rule in place through their
0/1 views: the in-place array forms of ``rules``, which the pass
automata share.  The window invariants of the scalar passes are tested
per term, each with one ``.any()``: pass 1's lemmas at every step, from
the masks rule A reads, and the output invariants of passes 2 and 3 once
over the whole block.  Only where a term holds on some row is the exact
mask built, and the batch aborts with ``InternalInvariantError`` naming
the first violating rows by their index in the batch.

Digits take the narrowest signed type that every pass digit and every
term of the rules fits (``_digit_dtype``): int8 for partial quotients up
to 30, int16 up to 8,190, int32 up to 536,870,910 and int64 beyond, so a
large digit never wraps.  An input digit outside 0..2a for the largest
quotient a is refused before it is cast, whether the checks are on or off.
Encoding and decoding are exact.  ``batch_encode`` runs the greedy
algorithm of ``numeration.encode`` over a whole vector of values at once,
one digit column at a time from the top, on int64 remainders while every
value fits 63 bits and on Python integers (an object array) past that;
``encode_table`` is it on 0..limit.  Decoding uses int64 while every
row's value provably fits 63 bits and Python integers beyond.
``batch_accepts`` runs every tuple of candidate words, one per track,
through a deterministic automaton, many tuples at once.
"""

from __future__ import annotations

import math

import numpy as np

from .automata import Automaton, _cells
from .contfrac import ContinuedFraction
from .errors import DigitOutOfRange, InternalInvariantError
from .numeration import _place_values
from .rules import Scratch, window_a_inplace, window_a_masks, window_b_inplace, window_c_inplace

_CELLS = 1 << 20  # digit cells of one block of batch_add's scratch buffer
_CANDIDATES_PER_RUN = 1 << 16  # candidate tuples batch_accepts holds at once


def _digit_dtype(aks) -> np.dtype:
    """Smallest signed integer type for the digits of words under the caps
    ``aks``: pass digits stay within 0..2a+2 for the largest cap a, and no
    term the window rules or the invariant checks compute is more than
    twice that, 4a+4.  So int8 holds them for a up to 30, int16 up to
    8,190, int32 up to 536,870,910 and int64 beyond."""
    top = 4 * max(aks, default=0) + 4
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise DigitOutOfRange(f"partial quotient {max(aks)} is too large for machine-integer digits")


def batch_encode(cf: ContinuedFraction, values) -> np.ndarray:
    """Greedy representation rho(n) of each value n, one row per value,
    columns LSD first, as wide as the widest row.

    The digits are of ``_digit_dtype`` over the width.  The remainders are
    int64 while every value fits 63 bits, and Python integers (an object
    array) past that, so no value wraps.
    """
    values = np.asarray(values)
    if values.size == 0:
        return np.zeros((0, 0), dtype=_digit_dtype(()))
    if values.ndim != 1 or values.dtype.kind not in "iuO":
        raise ValueError(f"values must be a vector of integers, not {values.dtype} of shape {values.shape}")
    low, high = int(values.min()), int(values.max())
    if low < 0:
        raise ValueError(f"cannot encode negative value {low}")
    qs, aks = _place_values(cf, high)
    width = len(qs) - 1
    rem = values.astype(np.int64 if high < 2**63 else object)
    table = np.empty((len(rem), width), dtype=_digit_dtype(aks[:width]))
    for k in range(width, 0, -1):
        b = np.minimum(rem // qs[k - 1], aks[k - 1] - (k == 1))
        table[:, k - 1] = b
        rem -= b * qs[k - 1]
    _raise_rows(rem != 0, 0, "greedy encoding failed to exhaust the remainder")
    return table


def encode_table(cf: ContinuedFraction, limit: int) -> np.ndarray:
    """Digit matrix of rho(0..limit), one row per value, columns LSD first."""
    return batch_encode(cf, np.arange(limit + 1))


def _raise_rows(bad: np.ndarray, lo: int, message: str, error=InternalInvariantError) -> None:
    """Abort the batch if any row of a block starting at batch row ``lo`` is bad."""
    if bad.any():
        rows = lo + np.flatnonzero(bad)[:5]
        raise error(f"{message}, rows {rows}")


def _check_digits(z: np.ndarray, top: int, lo: int) -> None:
    """Abort the batch if an input block holds a digit outside 0..top."""
    if z.min(initial=0) < 0 or z.max(initial=0) > top:
        _raise_rows(((z < 0) | (z > top)).any(axis=1), lo, f"input digit outside 0..{top}", DigitOutOfRange)


def _pass1_t(aks, z: np.ndarray, check: bool, lo: int, s: Scratch) -> None:
    """In-place first pass on a transposed (width, rows) digit block."""
    z = list(z)
    for k in range(len(z), 3, -1):
        u, v = (aks[k - 1], aks[k - 2], aks[k - 3]), (z[k - 1], z[k - 2], z[k - 3], z[k - 4])
        masks = window_a_masks(u, v, s)
        if check and _lemma_may_fail(u, v, masks, s.flags[4:]):
            _assert_window_lemmas(k, *u, *v[:3], lo)
        window_a_inplace(u, v, s, masks)
    u, v = (aks[2], aks[1], aks[0]), (z[2], z[1], z[0])
    if check:
        _assert_window_lemmas(3, *u, *v, lo)
    window_b_inplace(u, v, s)


def _lemma_may_fail(u, v, masks, spare) -> bool:
    """Whether a window lemma of pass 1 may fail on some row, one lemma at a
    time from the masks of rule A: a digit of 2a + 1 followed by a nonzero
    one is in ``over``, which ``window_a_masks`` leaves None on digit sums;
    the other lemmas are tested exactly, in the two ``spare`` rows, which
    rule A writes only after."""
    nz, up, low, over = masks
    if over is not None:
        return True
    capped_twice, beyond = spare
    np.equal(v[1], 2 * u[1], out=capped_twice)
    capped_twice &= np.greater(v[2], u[2], out=beyond)
    if capped_twice.any():  # 2a followed by more than the next cap
        return True
    # above the cap, or capped with a nonzero tail, after a digit >= its cap
    return np.greater(up, low, out=beyond).any()


def _assert_window_lemmas(k, a_k, a_k1, a_k2, w1, w2, w3, lo) -> None:
    bad = (
        ((w2 == 2 * a_k1 + 1) & (w3 != 0))
        | ((w2 == 2 * a_k1) & (w3 > a_k2))
        | ((w2 > a_k1) & (w1 >= a_k))
        | ((w2 == a_k1) & (w3 > 0) & (w1 >= a_k))
    )
    _raise_rows(bad, lo, f"pass 1 window invariant violated at step {k}")


def _pass2_t(aks, w: np.ndarray, check: bool, lo: int, s: Scratch, grids) -> None:
    rows = list(w)
    for k in range(3, len(rows) + 1):
        window_c_inplace((aks[k - 1], aks[k - 2]), (rows[k - 1], rows[k - 2], rows[k - 3]), s)
    if check:
        # (a_k, < a_{k-1}, a_{k-2}, > 0) at positions k .. k - 3, rows k - 1 .. k - 4
        capped, bad = (g[: len(w)] for g in grids)
        caps = np.array(aks[: len(w)], w.dtype)[:, None]
        np.equal(w, caps, out=capped)
        np.less(w, caps, out=bad)
        bad = bad[2:-1]
        bad &= capped[3:]
        bad &= capped[1:-2]
        np.logical_and(bad, w[:-3], out=bad)  # digits are never negative
        _raise_first(bad, 4, lo, "pass 2 output shows the forbidden capped pattern at position {}")


def _pass3_t(aks, v: np.ndarray, check: bool, lo: int, s: Scratch, grids) -> None:
    rows = list(v)
    for k in range(len(rows), 2, -1):
        window_c_inplace((aks[k - 1], aks[k - 2]), (rows[k - 1], rows[k - 2], rows[k - 3]), s)
    if check:
        # a_k at position k followed by a nonzero digit: rows k - 1 and k - 2
        capped = grids[0][: len(v)]
        np.equal(v, np.array(aks[: len(v)], v.dtype)[:, None], out=capped)
        bad = np.logical_and(capped[1:], v[:-1], out=capped[1:])  # digits are never negative
        _raise_first(bad, 2, lo, "pass 3 output has capped digit at position {} followed by nonzero")


def _raise_first(bad: np.ndarray, first: int, lo: int, message: str) -> None:
    """Abort the batch if a row of a block starting at batch row ``lo`` is
    bad at some position, naming the lowest, where row i of ``bad`` is the
    position first + i."""
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        _raise_rows(bad[i], lo, message.format(first + i))


def batch_add(
    cf: ContinuedFraction,
    x: np.ndarray,
    y: np.ndarray,
    check: bool = True,
    return_stages: bool = False,
):
    """Add row-aligned digit matrices through the three passes.

    Returns the result digit matrix, or with ``return_stages`` the tuple
    (s, z3, w, v3) of all intermediate words.  For inputs ``w`` columns
    wide, s and z3 have max(w + 1, 4) columns, w one more and v3 two more.
    An input digit outside 0..2a, for the largest partial quotient a over
    the width, raises ``DigitOutOfRange`` before it is cast: past it a sum
    could leave the working digit type.  So does a digit matrix that is
    not of an integer type.  Both hold whatever ``check`` is; ``check``
    turns on the window invariants of the passes.
    """
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"digit matrices must be 2-D of one shape, not {x.shape} and {y.shape}")
    for z in (x, y):
        if z.dtype.kind not in "iu":
            raise DigitOutOfRange(f"digit matrix of type {z.dtype}, not of integers")
    count, given = x.shape
    width = max(given + 1, 4)
    aks = cf.quotients(width + 2)
    dtype, top = _digit_dtype(aks), 2 * max(aks)
    block = max(1, min(_CELLS // (width + 2), count))
    buf, grids = np.empty((width + 2, block), dtype), np.empty((2, width + 2, block), bool)
    rules = Scratch((block,), dtype)
    widths = (width, width, width + 1, width + 2) if return_stages else (width + 2,)
    outs = [np.empty((count, n), dtype) for n in widths]
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        n = hi - lo
        b, g = buf[:, :n], grids[:, :, :n]
        if n < block:  # the last block
            rules = Scratch((n,), dtype)
        _check_digits(x[lo:hi], top, lo)
        _check_digits(y[lo:hi], top, lo)
        np.add(x[lo:hi].T, y[lo:hi].T, out=b[:given], dtype=dtype)
        b[given:] = 0
        if return_stages:
            outs[0][lo:hi] = b[:width].T
        _pass1_t(aks, b[:width], check, lo, rules)
        if return_stages:
            outs[1][lo:hi] = b[:width].T
        _pass2_t(aks, b[: width + 1], check, lo, rules, g)
        if return_stages:
            outs[2][lo:hi] = b[: width + 1].T
        _pass3_t(aks, b, check, lo, rules, g)
        outs[-1][lo:hi] = b.T
    return tuple(outs) if return_stages else outs[0]


def batch_decode(cf: ContinuedFraction, digits: np.ndarray) -> np.ndarray:
    """Exact value of each row: int64 when no row can pass 2**63 - 1, else
    an object array of Python integers.  A row of no digits is 0, the
    value of the empty word."""
    if digits.shape[1] == 0:
        return np.zeros(len(digits), np.int64)
    qs = cf.convergent_denominators(digits.shape[1] - 1)
    # from min and max, as np.abs of the type's minimum wraps; at least 1 for the place values
    top = max(-int(digits.min(initial=0)), int(digits.max(initial=0)), 1)
    dtype = np.int64 if top * sum(qs) < 2**63 else object
    return digits.astype(dtype) @ np.array(qs, dtype=dtype)


def batch_is_valid(cf: ContinuedFraction, digits: np.ndarray) -> np.ndarray:
    """Validity of each row as a boolean vector."""
    length = digits.shape[1]
    aks = cf.quotients(length)
    dt = digits.T
    ok = (digits >= 0).all(axis=1)
    if length:
        ok &= dt[0] <= aks[0] - 1
    for k in range(2, length + 1):
        col, below = dt[k - 1], dt[k - 2]
        ok &= (col <= aks[k - 1]) & ((col != aks[k - 1]) | (below == 0))
    return ok


def batch_accepts(aut: Automaton, tables) -> list[tuple[int, ...]]:
    """The row tuples (i_0, ..., i_{k-1}) whose words a deterministic
    automaton accepts, track t reading row i_t of the digit matrix
    ``tables[t]`` (columns LSD first, one width for all), in
    itertools.product order.

    The tuples run ``_CANDIDATES_PER_RUN`` at a time through a successor
    table, whose last row, a dead state, takes every missing arc; the
    table stays within the toolkit's ``_MAX_CELLS``.
    """
    n, radix = aut.num_states, aut.digit_bound + 1
    _cells((n + 1) * aut.alphabet_size, "membership table")
    table = np.full((n + 1, aut.alphabet_size), n, np.intp)  # its entries index it again
    srcs = np.repeat(np.arange(n), np.diff(aut._indptr))
    table[srcs, np.array(aut._codes, np.int64)] = aut._dsts
    final = np.isin(np.arange(n + 1), list(aut.finals))
    shape = tuple(len(t) for t in tables)
    total = math.prod(shape)
    found = [np.empty((len(tables), 0), np.int64)]
    for start in range(0, total, _CANDIDATES_PER_RUN):
        pick = np.unravel_index(np.arange(start, min(total, start + _CANDIDATES_PER_RUN)), shape)
        codes = np.zeros((len(pick[0]), tables[0].shape[1]), np.int64)
        for track, p in zip(tables, pick):
            codes = codes * radix + track[p]
        state = np.zeros(codes.shape[0], np.int64)
        for column in codes.T[::-1]:  # MSD first
            state = table[state, column]
        found.append(np.stack(pick)[:, final[state]])
    return [tuple(row) for row in np.concatenate(found, axis=1).T.tolist()]
