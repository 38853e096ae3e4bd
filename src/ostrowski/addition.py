"""Three-pass linear-time addition of Ostrowski representations.

Adding M and N starts from the digitwise sum s of their representations
(one zero prepended on the significant end).  Three window passes then
normalize s back into a valid representation, each leaving the value
unchanged because every rewrite is an instance of the place-value
recurrence q_{k+1} = a_{k+1} q_k + q_{k-1}:

* pass 1 walks a width-4 window from the most significant digit down,
  applying rules A1/A2 (and B1..B4 on the last three digits) until every
  digit is at most its cap a_k, with the position-1 digit below a_1;
* pass 2 walks a width-3 window from the least significant digit up,
  squashing patterns ``(< a_k, a_{k-1}, > 0)`` to ``(+1, 0, -1)``;
* pass 3 repeats the same rewrite from the most significant digit down,
  after which no digit equal to its cap is followed by a nonzero digit,
  i.e. the word is the representation of M + N.

The rules themselves (A1-A3, B1-B5, C) are defined once, in ``rules``.

The passes enjoy window invariants that the correctness proof leans on
(``check=True`` asserts them at run time and raises
``InternalInvariantError`` on violation):

* while pass 1 runs, a digit equal to 2a+1 is always followed by 0, one
  equal to 2a is followed by at most the next cap, and a digit above its
  cap is always preceded by one strictly below the preceding cap;
* pass 2's output never contains the pattern
  ``(a_k, < a_{k-1}, a_{k-2}, > 0)``;
* pass 3's output never has a capped digit followed by a nonzero one.

``check=False`` runs the bare rewrite rules on arbitrary digit words;
the automata differential tests exercise that mode, since the invariants
are theorems about genuine digit sums only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableSequence, Optional, Sequence

from . import words
from .contfrac import ContinuedFraction
from .errors import DigitOutOfRange, InputTooShort, InternalInvariantError
from .numeration import OstrowskiWord, decode, encode, is_valid, require_same_cf
from .rules import window_a, window_b, window_c
from .words import Word


@dataclass(frozen=True)
class TraceStep:
    """One window operation; windows are written most significant digit first."""

    pass_no: int
    k: int
    before: tuple[int, ...]
    after: tuple[int, ...]
    rule: str

    def __str__(self) -> str:
        fmt = lambda win: " ".join(str(d) for d in win)
        return (
            f"pass={self.pass_no} k={self.k} "
            f"window_before={fmt(self.before)} window_after={fmt(self.after)} "
            f"rule={self.rule}"
        )


Trace = list


def digitwise_sum(x: OstrowskiWord, y: OstrowskiWord) -> Word:
    """Positionwise sum, zero-padded, with one extra 0 on the significant end."""
    cf = require_same_cf(x, y)
    n = max(len(x.digits), len(y.digits))
    xs = words.pad(x.digits, n)
    ys = words.pad(y.digits, n)
    return tuple(a + b for a, b in zip(xs, ys)) + (0,)


def pass1(
    cf: ContinuedFraction,
    s: Sequence[int],
    *,
    check: bool = True,
    trace: Optional[Trace] = None,
) -> Word:
    """Width-4 pass bounding every digit by its cap.  Input length must be >= 4."""
    s = tuple(s)
    if len(s) < 4:
        raise InputTooShort(f"pass 1 needs at least 4 digits, got {len(s)}")
    aks = cf.quotients(len(s))
    if check:
        mu = max(aks)
        for pos, d in enumerate(s, start=1):
            if d < 0 or d > 2 * mu:
                raise DigitOutOfRange(f"digit {d} at position {pos} outside 0..{2 * mu}")
    work = list(s)
    _pass1_core(work, aks, check=check, trace=trace)
    return tuple(work)


def _pass1_core(work: MutableSequence[int], aks: Sequence[int], *, check, trace) -> None:
    m = len(work)
    for k in range(m, 3, -1):
        u = (aks[k - 1], aks[k - 2], aks[k - 3])
        v = (work[k - 1], work[k - 2], work[k - 3], work[k - 4])
        if check:
            _assert_window_lemmas(k, u, v)
        rule, new = window_a(u, v)
        work[k - 1], work[k - 2], work[k - 3], work[k - 4] = new
        if trace is not None:
            trace.append(TraceStep(1, k, v, new, rule))
    u = (aks[2], aks[1], aks[0])
    v = (work[2], work[1], work[0])
    if check:
        _assert_window_lemmas(3, u, v)
    rule, new = window_b(u, v)
    work[2], work[1], work[0] = new
    if trace is not None:
        trace.append(TraceStep(1, 3, v, new, rule))


def _assert_window_lemmas(k, u, v) -> None:
    # State before step k: w1, w2, w3 sit at positions k, k-1, k-2.
    a_k, a_k1, a_k2 = u
    w1, w2, w3 = v[0], v[1], v[2]
    if w2 == 2 * a_k1 + 1 and w3 != 0:
        raise InternalInvariantError(
            f"step {k}: digit 2a+1 at position {k - 1} followed by {w3} != 0"
        )
    if w2 == 2 * a_k1 and w3 > a_k2:
        raise InternalInvariantError(
            f"step {k}: digit 2a at position {k - 1} followed by {w3} > {a_k2}"
        )
    if w2 > a_k1 and w1 >= a_k:
        raise InternalInvariantError(
            f"step {k}: position {k - 1} above cap but position {k} holds {w1} >= {a_k}"
        )
    if w2 == a_k1 and w3 > 0 and w1 >= a_k:
        raise InternalInvariantError(
            f"step {k}: capped position {k - 1} with nonzero tail but position {k} holds {w1} >= {a_k}"
        )


def pass2(
    cf: ContinuedFraction,
    z3: Sequence[int],
    *,
    check: bool = True,
    trace: Optional[Trace] = None,
) -> Word:
    """Width-3 pass, least significant end upward.  Output is one digit longer."""
    z3 = tuple(z3)
    aks = cf.quotients(len(z3) + 1)
    if check:
        _require_capped(z3, aks)
    work = list(z3) + [0]
    _width3_core(work, aks, range(3, len(work) + 1), 2, trace)
    if check:
        _assert_no_step2_pattern(work, aks)
    return tuple(work)


def _assert_no_step2_pattern(work: Sequence[int], aks: Sequence[int]) -> None:
    # Forbidden: (a_k, < a_{k-1}, a_{k-2}, > 0) anywhere in the output.
    for k in range(4, len(work) + 1):
        if (
            work[k - 1] == aks[k - 1]
            and work[k - 2] < aks[k - 2]
            and work[k - 3] == aks[k - 3]
            and work[k - 4] > 0
        ):
            raise InternalInvariantError(
                f"pass 2 output shows the forbidden capped pattern at position {k}"
            )


def pass3(
    cf: ContinuedFraction,
    w: Sequence[int],
    *,
    check: bool = True,
    trace: Optional[Trace] = None,
) -> Word:
    """Width-3 pass, most significant end downward.  Output is one digit longer."""
    w = tuple(w)
    aks = cf.quotients(len(w) + 1)
    if check:
        _require_capped(w, aks)
    work = list(w) + [0]
    _width3_core(work, aks, range(len(work), 2, -1), 3, trace)
    if check:
        for k in range(2, len(work) + 1):
            if work[k - 1] == aks[k - 1] and work[k - 2] > 0:
                raise InternalInvariantError(
                    f"pass 3 output has capped digit at position {k} followed by nonzero"
                )
    return tuple(work)


def _width3_core(work: MutableSequence[int], aks, steps, pass_no, trace) -> None:
    for k in steps:
        v = (work[k - 1], work[k - 2], work[k - 3])
        rule, new = window_c((aks[k - 1], aks[k - 2]), v)
        work[k - 1], work[k - 2], work[k - 3] = new
        if trace is not None:
            trace.append(TraceStep(pass_no, k, v, new, rule))


def add(
    cf: ContinuedFraction,
    m_value: int,
    n_value: int,
    *,
    trace: Optional[Trace] = None,
) -> OstrowskiWord:
    """Ostrowski representation of m_value + n_value via the three passes."""
    return add_words(encode(cf, m_value), encode(cf, n_value), trace=trace)


def add_words(
    x: OstrowskiWord, y: OstrowskiWord, *, trace: Optional[Trace] = None
) -> OstrowskiWord:
    cf = require_same_cf(x, y)
    s = words.pad(digitwise_sum(x, y), 4)
    z3 = pass1(cf, s, trace=trace)
    w = pass2(cf, z3, trace=trace)
    v3 = pass3(cf, w, trace=trace)
    result = words.strip(v3)
    if not is_valid(cf, result):
        raise InternalInvariantError("pass 3 output is not a valid representation")
    if decode(cf, result) != decode(cf, s):
        raise InternalInvariantError("passes changed the represented value")
    return OstrowskiWord(result, cf)


def _require_capped(word: Sequence[int], aks: Sequence[int]) -> None:
    for pos, d in enumerate(word, start=1):
        cap = aks[pos - 1]
        if d < 0 or d > cap:
            raise DigitOutOfRange(f"digit {d} at position {pos} outside 0..{cap}")
