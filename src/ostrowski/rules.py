"""The window rewrite rules of the three addition passes.

Windows are written most significant position first, and ``u`` holds the
quotient caps a_k, a_{k-1}, ... of the window's positions (a rule reads
at most the first three).  Each rule returns ``(label, window)``: the
name of the rule that applies and the window after it.  Every rewrite is
an instance of the place-value recurrence q_{k+1} = a_{k+1} q_k + q_{k-1},
so no rule changes the value a window represents.

The scalar passes in ``addition`` and the pass automata in ``recognizers``
both call these functions; ``bulk`` keeps an independent vectorized twin,
which the tests compare against the scalar passes.
"""

from __future__ import annotations

Window = tuple[int, ...]


def window_a(u: Window, v: Window) -> tuple[str, Window]:
    """Width-4 rewrite of the first pass: A1, A2, or A3 (no change)."""
    if v[0] < u[0] and v[1] > u[1] and v[2] == 0:
        return "A1", (v[0] + 1, v[1] - (u[1] + 1), u[2] - 1, v[3] + 1)
    if v[0] < u[0] and u[1] <= v[1] <= 2 * u[1] and v[2] > 0:
        return "A2", (v[0] + 1, v[1] - u[1], v[2] - 1, v[3])
    return "A3", v


def window_b(u: Window, v: Window) -> tuple[str, Window]:
    """Width-3 rewrite finishing the first pass on the last three positions."""
    if v[0] < u[0] and v[1] > u[1] and v[2] == 0:
        return "B1", (v[0] + 1, v[1] - (u[1] + 1), u[2] - 1)
    if v[0] < u[0] and v[1] >= u[1] and u[2] >= v[2] > 0:
        return "B2", (v[0] + 1, v[1] - u[1], v[2] - 1)
    if v[0] < u[0] and v[1] >= u[1] and v[2] > u[2]:
        return "B3", (v[0] + 1, v[1] - u[1] + 1, v[2] - u[2] - 1)
    if v[1] < u[1] and v[2] >= u[2]:
        return "B4", (v[0], v[1] + 1, v[2] - u[2])
    return "B5", v


def window_c(u: Window, v: Window) -> tuple[str, Window]:
    """Width-3 rewrite shared by the second and third passes."""
    if v[0] < u[0] and v[1] == u[1] and v[2] > 0:
        return "C", (v[0] + 1, 0, v[2] - 1)
    return "skip", v


def c_preimages(u: Window, after: Window, bound: int) -> list[Window]:
    """The windows over digits 0..``bound`` that ``window_c`` maps to ``after``:
    ``after`` itself unless rule C applies to it, and the window rule C
    turns into ``after``, when there is one."""
    pre = [] if window_c(u, after)[0] == "C" else [after]
    if after[1] == 0 and 0 < after[0] <= u[0] and after[2] < bound:
        pre.append((after[0] - 1, u[1], after[2] + 1))
    return pre
