"""Eventually periodic continued fractions.

A continued fraction ``[a0; a1, a2, ...]`` with all partial quotients
``a_k >= 1`` for ``k >= 1`` determines the denominators ``q_k`` of its
convergents through

    q_{-1} = 0,  q_0 = 1,  q_{k+1} = a_{k+1} * q_k + q_{k-1}.

These denominators are the place values of the numeration system built on
the expansion.  An eventually periodic expansion (a quadratic irrational)
additionally yields the finite data needed to build recognizing automata:
the digit alphabet bound ``m = 2*mu + 1`` where ``mu`` is the largest
partial quotient, and a normalized preperiod/period split ``(xi, nu)``
with ``xi > 4`` and ``nu - xi >= 3``.

``a0`` is stored for display only; nothing downstream depends on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import words
from .errors import IndexBeyondKnownPrefix, NotQuadratic


@dataclass(frozen=True)
class ContinuedFraction:
    """An expansion ``[a0; preperiod..., (period...)^omega]``.

    An empty period means only the explicit prefix is known; such an
    expansion supports numeration as far as the prefix reaches but cannot
    be compiled into automata.
    """

    a0: int = 0
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(int(a) for a in self.preperiod))
        object.__setattr__(self, "period", tuple(int(a) for a in self.period))
        for a in self.preperiod + self.period:
            if a < 1:
                raise ValueError(f"partial quotient {a!r} must be >= 1")
        # [a_1, a_2, ...] and [q_0, q_1, ...] as far as computed: not fields,
        # so equality and hashing ignore them; each is replaced whole, never
        # changed in place.
        object.__setattr__(self, "_known", list(self.preperiod))
        object.__setattr__(self, "_denominators", [1])

    @property
    def is_quadratic(self) -> bool:
        return bool(self.period)

    def partial_quotient(self, k: int) -> int:
        """Return a_k for k >= 1, extending periodically."""
        if k < 1:
            raise ValueError(f"partial quotient index {k} must be >= 1")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        if not self.period:
            raise IndexBeyondKnownPrefix(
                f"a_{k} requested but only {len(self.preperiod)} partial quotients are known"
            )
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def quotients(self, n: int) -> list[int]:
        """Return [a_1, ..., a_n], extending periodically."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        known = self._known
        if n > len(known):
            known = self._extend(n)
        return known[:n]

    def _extend(self, n: int) -> list[int]:
        """Compute at least a_1 .. a_n, doubling what is known, and keep it."""
        pre = len(self.preperiod)
        if not self.period:
            raise IndexBeyondKnownPrefix(
                f"a_{pre + 1} requested but only {pre} partial quotients are known"
            )
        reps = -(-(max(n, 2 * len(self._known)) - pre) // len(self.period))
        known = list(self.preperiod + self.period * reps)
        object.__setattr__(self, "_known", known)
        return known

    def convergent_denominators(self, n: int) -> list[int]:
        """Return [q_0, ..., q_n].  Exact integers of arbitrary size."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self._known_denominators(n)[: n + 1]

    def _known_denominators(self, n: int) -> list[int]:
        """At least [q_0, ..., q_n], kept and grown by doubling; the caller
        must not change the list.  Past a rational prefix this raises."""
        qs = self._denominators
        if n < len(qs):
            return qs
        aks = self.quotients(max(n, 2 * (len(qs) - 1)) if self.period else n)
        qs = list(qs)
        for a in aks[len(qs) - 1 :]:
            qs.append(a * qs[-1] + (qs[-2] if len(qs) > 1 else 0))  # q_{-1} = 0
        object.__setattr__(self, "_denominators", qs)
        return qs

    def parameters(self) -> "AutomatonParameters":
        return automaton_parameters(self)

    @classmethod
    def from_text(cls, text: str) -> "ContinuedFraction":
        """Parse ``a0;p1,p2,...,(c1,c2,...)``, e.g. ``1;(2)`` for sqrt(2)+1."""
        head, sep, tail = text.strip().partition(";")
        if not sep:
            raise ValueError(f"continued fraction {text!r} lacks the 'a0;' separator")
        a0 = words.integer_token(head, "a0")
        tail = tail.strip()
        period: tuple[int, ...] = ()
        if "(" in tail:
            pre_part, _, rest = tail.partition("(")
            body, sep2, trailing = rest.partition(")")
            if not sep2 or trailing.strip():
                raise ValueError(f"unbalanced period parentheses near {rest!r}")
            period = _parse_csv(body, "period")
            if not period:
                raise ValueError(f"empty period '()' in {text!r}; a rational expansion has no parentheses")
            pre_text = pre_part.strip().rstrip(",")
        else:
            pre_text = tail
        preperiod = _parse_csv(pre_text, "preperiod")
        return cls(a0, preperiod, period)

    def to_text(self) -> str:
        parts = [str(a) for a in self.preperiod]
        if self.period:
            parts.append("(" + ",".join(str(a) for a in self.period) + ")")
        return f"{self.a0};" + ",".join(parts)

    def __str__(self) -> str:
        return self.to_text()


def _parse_csv(text: str, role: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(words.integer_token(tok, role) for tok in text.split(","))


@dataclass(frozen=True)
class AutomatonParameters:
    """Alphabet bound and normalized period split for automata construction.

    ``unrolled`` lists a_1 .. a_nu; beyond nu the quotients repeat the block
    a_xi .. a_nu.  The split is normalized so the explicit prefix covers at
    least five quotients (xi >= 6, hence xi > 4) and the block spans at
    least four (nu - xi >= 3); both margins are what the recognizer state
    machinery assumes.  Non-minimal splits are harmless, so whole copies of
    the period are unrolled until the margins hold.
    """

    mu: int
    m: int
    xi: int
    nu: int
    unrolled: tuple[int, ...]


@functools.lru_cache(maxsize=None)
def automaton_parameters(cf: ContinuedFraction) -> AutomatonParameters:
    """Compute (mu, m, xi, nu) and the unrolled quotient prefix for a quadratic cf."""
    if not cf.is_quadratic:
        raise NotQuadratic("automaton parameters require a nonempty period")
    mu = max(cf.preperiod + cf.period)
    p = len(cf.period)
    prefix = len(cf.preperiod)
    while prefix < 5:
        prefix += p
    xi = prefix + 1
    reps = -(-4 // p)  # smallest reps with reps * p >= 4
    nu = xi + reps * p - 1
    unrolled = tuple(cf.quotients(nu))
    return AutomatonParameters(mu=mu, m=2 * mu + 1, xi=xi, nu=nu, unrolled=unrolled)
