"""Vectorized batch addition for exhaustive sweeps.

The three addition passes touch each digit position a constant number of
times, so a large family of additions vectorizes cleanly: stack the digit
words of all pairs into an integer matrix (one row per addition, columns
LSD first) and run each pass as a short loop over positions with numpy
masks over the rows: the array forms of the window rules in ``rules``,
added in place.  Internally the matrices are processed transposed so each
position is a contiguous row.  The window invariants of the scalar passes
are asserted the same way, as row masks; any violating row aborts the
batch with ``InternalInvariantError``.  Digits stay far below int16.
Decoding is exact: it uses int64 while every row's value provably fits
63 bits and Python integers beyond.
"""

from __future__ import annotations

import numpy as np

from .contfrac import ContinuedFraction
from .errors import InternalInvariantError
from .numeration import encode
from .rules import window_a_delta, window_b_delta, window_c_delta


def encode_table(cf: ContinuedFraction, limit: int, width: int | None = None) -> np.ndarray:
    """Digit matrix of rho(0..limit), one row per value, columns LSD first."""
    rows = [encode(cf, n).digits for n in range(limit + 1)]
    need = max((len(r) for r in rows), default=0)
    if width is None:
        width = need
    elif width < need:
        raise ValueError(f"width {width} too small, need {need}")
    table = np.zeros((limit + 1, width), dtype=np.int16)
    for i, r in enumerate(rows):
        table[i, : len(r)] = r
    return table


def _pass1_t(cf: ContinuedFraction, z: np.ndarray, check: bool) -> None:
    """In-place first pass on a transposed (width, batch) digit matrix."""
    length = z.shape[0]
    aks = cf.quotients(length)
    for k in range(length, 3, -1):
        a_k, a_k1, a_k2 = aks[k - 1], aks[k - 2], aks[k - 3]
        w1, w2, w3, w4 = z[k - 1], z[k - 2], z[k - 3], z[k - 4]
        if check:
            _assert_window_lemmas(k, a_k, a_k1, a_k2, w1, w2, w3)
        _add(z, (k - 1, k - 2, k - 3, k - 4), window_a_delta((a_k, a_k1, a_k2), (w1, w2, w3, w4)))
    if check:
        _assert_window_lemmas(3, aks[2], aks[1], aks[0], z[2], z[1], z[0])
    _add(z, (2, 1, 0), window_b_delta((aks[2], aks[1], aks[0]), (z[2], z[1], z[0])))


def _add(arr: np.ndarray, rows, delta) -> None:
    for row, d in zip(rows, delta):
        arr[row] += d


def _assert_window_lemmas(k, a_k, a_k1, a_k2, w1, w2, w3) -> None:
    bad = (
        ((w2 == 2 * a_k1 + 1) & (w3 != 0))
        | ((w2 == 2 * a_k1) & (w3 > a_k2))
        | ((w2 > a_k1) & (w1 >= a_k))
        | ((w2 == a_k1) & (w3 > 0) & (w1 >= a_k))
    )
    if bad.any():
        rows = np.flatnonzero(bad)[:5]
        raise InternalInvariantError(f"pass 1 window invariant violated at step {k}, rows {rows}")


def _pass2_t(cf: ContinuedFraction, w: np.ndarray, check: bool) -> None:
    length = w.shape[0] - 1
    aks = cf.quotients(length + 1)
    for k in range(3, length + 2):
        _apply_c_t(w, k, aks[k - 1], aks[k - 2])
    if check:
        for k in range(4, length + 2):
            bad = (
                (w[k - 1] == aks[k - 1])
                & (w[k - 2] < aks[k - 2])
                & (w[k - 3] == aks[k - 3])
                & (w[k - 4] > 0)
            )
            if bad.any():
                raise InternalInvariantError(
                    f"pass 2 output shows the forbidden capped pattern at position {k}"
                )


def _pass3_t(cf: ContinuedFraction, v: np.ndarray, check: bool) -> None:
    length = v.shape[0] - 1
    aks = cf.quotients(length + 1)
    for k in range(length + 1, 2, -1):
        _apply_c_t(v, k, aks[k - 1], aks[k - 2])
    if check:
        for k in range(2, length + 2):
            bad = (v[k - 1] == aks[k - 1]) & (v[k - 2] > 0)
            if bad.any():
                raise InternalInvariantError(
                    f"pass 3 output has capped digit at position {k} followed by nonzero"
                )


def _apply_c_t(arr: np.ndarray, k: int, a_k: int, a_k1: int) -> None:
    _add(arr, (k - 1, k - 2, k - 3), window_c_delta((a_k, a_k1), (arr[k - 1], arr[k - 2], arr[k - 3])))


def _extend_t(arr_t: np.ndarray) -> np.ndarray:
    """One extra zero position on the significant end of a transposed matrix."""
    out = np.zeros((arr_t.shape[0] + 1, arr_t.shape[1]), dtype=np.int16)
    out[:-1] = arr_t
    return out


def batch_add(
    cf: ContinuedFraction,
    x: np.ndarray,
    y: np.ndarray,
    check: bool = True,
    return_stages: bool = False,
):
    """Add row-aligned digit matrices through the three passes.

    Returns the result digit matrix, or with ``return_stages`` the tuple
    (s, z3, w, v3) of all intermediate words.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    width = max(x.shape[1] + 1, 4)
    st = np.zeros((width, x.shape[0]), dtype=np.int16)
    st[: x.shape[1]] = x.T + y.T
    z3t = st.copy() if return_stages else st
    _pass1_t(cf, z3t, check)
    wt = _extend_t(z3t)
    _pass2_t(cf, wt, check)
    v3t = _extend_t(wt)
    _pass3_t(cf, v3t, check)
    if return_stages:
        return st.T.copy(), z3t.T.copy(), wt.T.copy(), v3t.T.copy()
    return v3t.T.copy()


def batch_decode(cf: ContinuedFraction, digits: np.ndarray) -> np.ndarray:
    """Exact value of each row: int64 when no row can pass 2**63 - 1, else
    an object array of Python integers."""
    qs = cf.convergent_denominators(digits.shape[1] - 1)
    top = max(int(np.abs(digits).max(initial=0)), 1)  # the place values must fit too
    dtype = np.int64 if top * sum(qs) < 2**63 else object
    return digits.astype(dtype) @ np.array(qs, dtype=dtype)


def batch_is_valid(cf: ContinuedFraction, digits: np.ndarray) -> np.ndarray:
    """Validity of each row as a boolean vector."""
    length = digits.shape[1]
    aks = cf.quotients(length)
    dt = digits.T
    ok = dt[0] <= aks[0] - 1
    for k in range(2, length + 1):
        col, below = dt[k - 1], dt[k - 2]
        ok = ok & (col <= aks[k - 1]) & ((col != aks[k - 1]) | (below == 0))
    return ok
