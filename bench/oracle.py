"""Reference arithmetic for the benchmark's checks.

Nothing here imports ``ostrowski``: every expected value the benchmark
compares against comes from this file.  Place values come straight from
the recurrence ``q_{-1} = 0, q_0 = 1, q_{k+1} = a_{k+1} q_k + q_{k-1}``
with Python ints, representations from the greedy algorithm, and the
automaton checks read the program's text interchange format and run it
here.

Digit words are tuples stored least significant digit first (index
``k - 1`` holds the coefficient of ``q_{k-1}``), as in the program.
"""

from __future__ import annotations

import random

import numpy as np


class Expansion:
    """A continued fraction ``a0;p1,...,(c1,...)`` and its numeration."""

    def __init__(self, text: str):
        self.text = text
        head, _, tail = text.partition(";")
        pre, _, per = tail.partition("(")
        self.preperiod = [int(t) for t in pre.replace(",", " ").split()]
        self.period = [int(t) for t in per.rstrip(")").replace(",", " ").split()]
        if not self.period or min(self.preperiod + self.period) < 1:
            raise ValueError(f"not an eventually periodic expansion: {text!r}")
        self.m = 2 * max(self.preperiod + self.period) + 1
        self._q = [1]  # q_0, q_1, ...
        self._q_prev = 0  # q_{len(_q) - 2}, with q_{-1} = 0

    def a(self, k: int) -> int:
        """Partial quotient a_k, k >= 1."""
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def q(self, k: int) -> int:
        """Convergent denominator q_k."""
        while len(self._q) <= k:
            nxt = self.a(len(self._q)) * self._q[-1] + self._q_prev
            self._q_prev = self._q[-1]
            self._q.append(nxt)
        return self._q[k]

    def encode(self, n: int) -> tuple[int, ...]:
        """Greedy representation of n, no leading zeros."""
        if n < 0:
            raise ValueError(n)
        top = 0
        while self.q(top + 1) <= n:
            top += 1
        digits = [0] * (top + 1) if n else []
        for k in range(len(digits) - 1, -1, -1):
            d, n = divmod(n, self.q(k))
            cap = self.a(k + 1) - (1 if k == 0 else 0)
            if d > cap:
                raise AssertionError("greedy digit above its cap")
            digits[k] = d
        if n:
            raise AssertionError("greedy remainder left over")
        return tuple(digits)

    def decode(self, digits) -> int:
        return sum(d * self.q(k) for k, d in enumerate(digits))

    def is_valid(self, digits) -> bool:
        """b_1 < a_1, b_k <= a_k, and b_k = a_k forces b_{k-1} = 0."""
        for k, d in enumerate(digits, start=1):
            cap = self.a(k)
            if d < 0 or d > cap or (k == 1 and d == cap):
                return False
            if d == cap and digits[k - 2] != 0:
                return False
        return True

    def v(self, n: int) -> int:
        """Least place value used by rho(n); V(0) = 1."""
        if n == 0:
            return 1
        digits = self.encode(n)
        return self.q(next(k for k, d in enumerate(digits) if d))

    def fixpoints(self, bound: int) -> list[int]:
        """All x <= bound with V(x) = x, i.e. the distinct place values."""
        return sorted({x for k in range(bound + 2) if (x := self.q(k)) <= bound and self.v(x) == x})

    def encode_range(self, count: int, width: int) -> np.ndarray:
        """Digit matrix of rho(0), ..., rho(count - 1), greedy, columns LSD first."""
        if self.q(width) < count:
            raise ValueError(f"width {width} too small for {count} values")
        rest = np.arange(count, dtype=np.int64)
        out = np.zeros((count, width), dtype=np.int16)
        for k in range(width - 1, -1, -1):
            cap = self.a(k + 1) - (1 if k == 0 else 0)
            d = np.minimum(rest // self.q(k), cap)
            out[:, k] = d
            rest -= d * self.q(k)
        if rest.any():
            raise AssertionError("greedy remainder left over")
        return out

    def width(self, n: int) -> int:
        """Number of digits of rho(n)."""
        return len(self.encode(n))


def to_text(digits) -> str:
    """MSD-first rendering used by the command line; zero renders as "0"."""
    return " ".join(str(d) for d in reversed(digits)) if digits else "0"


def convolve(tracks, extra: int = 0) -> list[tuple[int, ...]]:
    """MSD-first tuple word of LSD-first tracks, padded to one length plus
    ``extra`` leading zero columns."""
    n = max((len(t) for t in tracks), default=0) + extra
    return [tuple(t[i] if i < len(t) else 0 for t in tracks) for i in range(n - 1, -1, -1)]


class TextAutomaton:
    """An automaton read from the interchange text, run by subset simulation."""

    def __init__(self, text: str):
        self.trans: dict[int, dict[tuple[int, ...], list[int]]] = {}
        self.initial: set[int] = set()
        self.finals: set[int] = set()
        for line in text.splitlines():
            key, _, rest = line.strip().partition(" ")
            if key == "arity":
                self.arity = int(rest)
            elif key == "digit_bound":
                self.digit_bound = int(rest)
            elif key == "num_states":
                self.num_states = int(rest)
            elif key == "initial":
                self.initial = {int(t) for t in rest.split()}
            elif key == "final":
                self.finals = {int(t) for t in rest.split()}
            elif key == "trans":
                src, letter, dst = rest.split()
                letter = tuple(int(t) for t in letter.strip("()").split(",") if t)
                self.trans.setdefault(int(src), {}).setdefault(letter, []).append(int(dst))

    def accepts(self, word) -> bool:
        current = set(self.initial)
        for letter in word:
            current = {t for s in current for t in self.trans.get(s, {}).get(letter, ())}
            if not current:
                return False
        return bool(current & self.finals)

    def random_accepted(self, rng: random.Random, tries: int, max_len: int = 200) -> list:
        """Accepted words found by random walks along transitions.

        A walk stops where the state has no outgoing transition or the
        length cap is hit, and every final state it passes yields a word.
        """
        found = []
        starts = sorted(self.initial)
        for _ in range(tries):
            state = rng.choice(starts)
            word = []
            while len(word) < max_len:
                arcs = self.trans.get(state)
                if not arcs:
                    break
                letter = rng.choice(sorted(arcs))
                state = rng.choice(arcs[letter])
                word.append(letter)
                if state in self.finals:
                    found.append(tuple(word))
        return found


def track(word, i: int) -> tuple[int, ...]:
    """Track i of an MSD-first tuple word, as an LSD-first digit word."""
    return tuple(letter[i] for letter in reversed(word))


def self_check() -> None:
    """Values known by hand; raises AssertionError if the oracle is wrong."""
    golden = Expansion("1;(1)")
    assert [golden.q(k) for k in range(10)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert to_text(golden.encode(10)) == "1 0 0 1 0 0"  # Zeckendorf: 10 = 8 + 2
    assert golden.fixpoints(60) == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert golden.is_valid((0, 0, 1)) and not golden.is_valid((0, 1, 1))
    assert not golden.is_valid((1,))  # b_1 < a_1 = 1
    sqrt2 = Expansion("1;(2)")
    assert [sqrt2.q(k) for k in range(6)] == [1, 2, 5, 12, 29, 70]  # Pell numbers
    assert to_text(sqrt2.encode(11)) == "2 0 1"  # 11 = 2*5 + 1
    assert sqrt2.is_valid((0, 2)) and not sqrt2.is_valid((1, 2))  # a capped 2 needs a 0 after it
    assert sqrt2.v(10) == 5 and sqrt2.v(0) == 1
    mixed = Expansion("0;1,(1,2)")
    assert [mixed.a(k) for k in range(1, 7)] == [1, 1, 2, 1, 2, 1]
