"""Canonical Ostrowski representation: encoding, decoding, validity.

Relative to a continued fraction with quotients a_1, a_2, ... and
convergent denominators q_0, q_1, ..., every natural number N has exactly
one digit string b_n ... b_1 with

    N = sum_k b_{k+1} * q_k,   b_1 < a_1,   b_k <= a_k,
    and b_k = a_k forces b_{k-1} = 0.

``encode`` produces that string greedily (largest denominator first; the
digit caps above then hold automatically because each remainder drops
below the current q).  It compares the remainder with each q first and
divides only where the digit is nonzero, so a zero digit costs one
comparison.  ``decode`` deliberately accepts arbitrary digit strings,
valid or not: the addition passes produce intermediate words whose
values must be computable.  It sums the nonzero digits only.  Zero is
the empty word.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from . import words
from .contfrac import ContinuedFraction
from .errors import CfMismatch, InternalInvariantError
from .words import Word


@dataclass(frozen=True)
class OstrowskiWord:
    """A validated digit word tied to its continued fraction.

    ``digits`` is LSD-first with no leading zeros; use ``str()`` for the
    MSD-first rendering.
    """

    digits: Word
    cf: ContinuedFraction

    def __str__(self) -> str:
        return words.to_text(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        return decode(self.cf, self.digits)

    def __add__(self, other: "OstrowskiWord") -> "OstrowskiWord":
        if not isinstance(other, OstrowskiWord):
            return NotImplemented
        from .addition import add_words

        return add_words(self, other)


def encode(cf: ContinuedFraction, n: int) -> OstrowskiWord:
    """Greedy Ostrowski representation of a natural number."""
    if n < 0:
        raise ValueError(f"cannot encode negative value {n}")
    qs, aks = _place_values(cf, n)
    # qs = [q_0 .. q_L] with q_L > n; digits b_L .. b_1.
    digits = [0] * (len(qs) - 1)
    rem = n
    for pos in range(len(qs) - 1, 0, -1):
        q = qs[pos - 1]
        if rem >= q:  # below q the digit is 0: one comparison, no division
            b = min(rem // q, aks[pos - 1] - (pos == 1))
            digits[pos - 1] = b
            rem -= b * q
    if rem:
        raise InternalInvariantError("greedy encoding failed to exhaust the remainder")
    return OstrowskiWord(words.strip(tuple(digits)), cf)


def _place_values(cf: ContinuedFraction, n: int) -> tuple[list[int], list[int]]:
    """The denominators [q_0, ..., q_L] up to the first one past ``n``, so
    rho(n) has L digits, and the quotients [a_1, ..., a_L].

    Both are read from the expansion's kept denominators, doubled while
    the last is still <= n; past a rational expansion's prefix that raises.
    """
    qs = cf._known_denominators(8 if cf.period else len(cf.preperiod))
    while qs[-1] <= n:
        qs = cf._known_denominators(2 * len(qs))
    top = bisect.bisect_right(qs, n)  # L: q_L is the first past n
    return qs[: top + 1], cf.quotients(top)


def decode(cf: ContinuedFraction, w: Sequence[int] | OstrowskiWord) -> int:
    """Value of an arbitrary (possibly invalid) digit word: sum of b_{k+1} q_k."""
    digits = _digits_of(w)
    if not digits:
        return 0
    qs = cf.convergent_denominators(len(digits) - 1)
    return sum(b * q for b, q in zip(digits, qs) if b)


def is_valid(cf: ContinuedFraction, w: Sequence[int] | OstrowskiWord) -> bool:
    """Check the three digit constraints; leading zeros are permitted."""
    digits = _digits_of(w)
    if not digits:
        return True
    aks = cf.quotients(len(digits))
    if digits[0] >= aks[0]:
        return False
    for k in range(2, len(digits) + 1):
        a_k = aks[k - 1]
        if digits[k - 1] > a_k:
            return False
        if digits[k - 1] == a_k and digits[k - 2] != 0:
            return False
    return all(d >= 0 for d in digits)


def require_same_cf(x: OstrowskiWord, y: OstrowskiWord) -> ContinuedFraction:
    if x.cf != y.cf:
        raise CfMismatch(f"words belong to different expansions: {x.cf} vs {y.cf}")
    return x.cf


def _digits_of(w: Sequence[int] | OstrowskiWord) -> Word:
    if isinstance(w, OstrowskiWord):
        return w.digits
    return tuple(w)
