"""The window rewrite rules of the three addition passes.

Windows are written most significant position first, and ``u`` holds the
quotient caps a_k, a_{k-1}, ... of the window's positions (a rule reads
at most the first three).  Each rule returns ``(label, window)``: the
name of the rule that applies and the window after it.  Every rewrite is
an instance of the place-value recurrence q_{k+1} = a_{k+1} q_k + q_{k-1},
so no rule changes the value a window represents.

A window is idle when its second digit alone rules out every rule, and
the untraced passes step over idle windows without calling one.  A
width-4 window with ``v[1] < u[1]`` is idle: A1 and A2 need
``v[1] >= u[1]``, and so does every window lemma of pass 1 (each needs a
second digit of 2a+1, 2a, above a or equal to a, all at least a).  A
width-3 window of passes 2 and 3 with ``v[1] != u[1]`` is idle, since C
needs ``v[1] == u[1]``.  Pass 1's closing width-3 window is never idle:
B4 fires below the cap.

Each rule has two forms.  The scalar form serves the scalar passes in
``addition``.  The array form (``*_delta``) takes the window as a tuple
of digit arrays and the caps as numbers or arrays that broadcast with
them, computes every rule as a numpy mask, and returns what the rewrite
adds to each digit (zero where no rule applies).  ``bulk`` adds it in
place to whole batches of additions; the pass automata in
``recognizers`` rewrite whole frontiers of states with ``rewrite``.  The
tests check the two forms against each other on every small window.

Only the array forms need numpy, and they import it when called, so the
scalar passes (and a command that only adds) never load it.
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


def _flags(dtype, *masks):
    return tuple(mask.astype(dtype) for mask in masks)


def window_a_delta(u, v):
    """Array form of ``window_a``: what A1 or A2 adds to each digit."""
    import numpy as np

    v0, v1, v2, _ = v
    low = v0 < u[0]
    a1, a2 = _flags(
        np.result_type(*v),
        low & (v1 > u[1]) & (v2 == 0),
        low & (v1 >= u[1]) & (v1 <= 2 * u[1]) & (v2 > 0),
    )
    return a1 + a2, -(u[1] + 1) * a1 - u[1] * a2, (u[2] - 1 - v2) * a1 - a2, a1


def window_b_delta(u, v):
    """Array form of ``window_b``: what B1 to B4 add to each digit."""
    import numpy as np

    v0, v1, v2 = v
    low, high = v0 < u[0], v1 >= u[1]
    b1, b2, b3, b4 = _flags(
        np.result_type(*v),
        low & (v1 > u[1]) & (v2 == 0),
        low & high & (v2 > 0) & (v2 <= u[2]),
        low & high & (v2 > u[2]),
        ~high & (v2 >= u[2]),
    )
    return (
        b1 + b2 + b3,
        -b1 * (u[1] + 1) - (b2 + b3) * u[1] + b3 + b4,
        b1 * (u[2] - 1 - v2) - b2 - b3 * (u[2] + 1) - b4 * u[2],
    )


def _c_fires(u, v):
    return (v[0] < u[0]) & (v[1] == u[1]) & (v[2] > 0)


def window_c_delta(u, v):
    """Array form of ``window_c``: what C adds to each digit."""
    import numpy as np

    (fire,) = _flags(np.result_type(*v), _c_fires(u, v))
    return fire, -u[1] * fire, -fire


def rewrite(delta, u, v):
    """The window ``v`` after the rule whose array form is ``delta``."""
    return tuple(d + c for d, c in zip(v, delta(u, v)))


def c_preimages_array(u, after, bound: int):
    """The windows over digits 0..``bound`` that rule C (or its skip) maps to
    ``after``: ``after`` itself unless rule C applies to it, and the window
    rule C turns into ``after``, when there is one.  Both candidates are
    stacked on a new last axis, with a mask of those that exist."""
    import numpy as np

    a0, a1, a2 = np.broadcast_arrays(*after)
    exists = np.stack(
        [~_c_fires(u, after), (a1 == 0) & (0 < a0) & (a0 <= u[0]) & (a2 < bound)], axis=-1
    )
    moved = (a0 - 1, np.broadcast_to(u[1], a1.shape), a2 + 1)
    return exists, tuple(np.stack([a, b], axis=-1) for a, b in zip((a0, a1, a2), moved))
