"""Canonical Ostrowski representation: encoding, decoding, validity.

Relative to a continued fraction with quotients a_1, a_2, ... and
convergent denominators q_0, q_1, ..., every natural number N has exactly
one digit string b_n ... b_1 with

    N = sum_k b_{k+1} * q_k,   b_1 < a_1,   b_k <= a_k,
    and b_k = a_k forces b_{k-1} = 0.

``encode`` produces that string greedily (largest denominator first; the
digit caps above then hold automatically because each remainder drops
below the current q).  ``decode`` deliberately accepts arbitrary digit
strings, valid or not: the addition passes produce intermediate words
whose values must be computable.  Zero is the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import words
from .contfrac import ContinuedFraction
from .errors import CfMismatch
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
    if n == 0:
        return OstrowskiWord((), cf)
    qs = [1]
    prev = 0
    k = 1
    while qs[-1] <= n:
        qs.append(cf.partial_quotient(k) * qs[-1] + prev)
        prev = qs[-2]
        k += 1
    # qs = [q_0 .. q_{k-1}] with q_{k-1} > n; digits b_{k-1} .. b_1.
    digits = [0] * (len(qs) - 1)
    rem = n
    for pos in range(len(qs) - 1, 0, -1):
        q = qs[pos - 1]
        cap = cf.partial_quotient(pos)
        if pos == 1:
            cap -= 1
        b = min(rem // q, cap)
        digits[pos - 1] = b
        rem -= b * q
    assert rem == 0, "greedy encoding failed to exhaust the remainder"
    return OstrowskiWord(words.strip(tuple(digits)), cf)


def decode(cf: ContinuedFraction, w: Sequence[int] | OstrowskiWord) -> int:
    """Value of an arbitrary (possibly invalid) digit word: sum of b_{k+1} q_k."""
    digits = _digits_of(w)
    if not digits:
        return 0
    qs = cf.convergent_denominators(len(digits) - 1)
    return sum(b * q for b, q in zip(digits, qs))


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
