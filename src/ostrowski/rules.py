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
``addition``.  The array form (``*_inplace``) takes the window as a tuple
of digit arrays of one shape, never negative, and the caps as numbers or
arrays that broadcast with them, and rewrites the arrays in place:
each comparison is computed once into the boolean rows of a ``Scratch``,
and each rule adds its masks, as 0/1 digits, to the digits it changes
(times the cap, unless the cap is the number 1).  ``bulk`` applies it to
the rows of a block of additions, and its pass-1 lemma tests read the
masks rule A computes (``window_a_masks``); the pass automata in
``recognizers`` apply it through ``rewrite``, to copies of their digit
grids.  The tests check the two forms against each other on every small
window.

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


class Scratch:
    """Working rows of the in-place array forms: six boolean rows and one
    row of digits, each of the shape of a window's digits."""

    def __init__(self, shape, dtype):
        import numpy as np

        self.flags = tuple(np.empty((6, *shape), bool))
        self.digits = np.empty(shape, dtype)
        self._byte = self.digits.dtype.itemsize == 1

    def flag(self, mask):
        """``mask`` as a 0/1 operand of the digits: its view as digits when
        they are bytes, else the mask itself."""
        return mask.view(self.digits.dtype) if self._byte else mask


def _times(flag, cap, s: Scratch):
    """``flag`` times ``cap`` as digits: the flag itself for a cap of 1."""
    import numpy as np

    if isinstance(cap, int) and cap == 1:
        return flag
    return np.multiply(flag, cap, out=s.digits, dtype=s.digits.dtype)


def _carry_masks(u, v, s: Scratch):
    """The comparisons rules A and B share, written into the rows of ``s``:
    (nz, up, low) = (v2 > 0, v1 + nz > u1, v0 < u0), with v1 + nz left in
    ``s.digits``.  Digits are never negative, so up is v1 > u1 or
    (v1 == u1 and v2 > 0)."""
    import numpy as np

    nz, up, low = s.flags[:3]
    np.greater(v[2], 0, out=nz)
    np.add(v[1], s.flag(nz), out=s.digits)
    np.greater(s.digits, u[1], out=up)
    np.less(v[0], u[0], out=low)
    return nz, up, low


def window_a_masks(u, v, s: Scratch):
    """The comparisons rules A1 and A2 read, written into the rows of ``s``:
    (nz, up, low, over), the masks of ``_carry_masks`` and nz and v1 > 2 u1.
    A1 or A2 fires exactly where low and up hold and over does not.  over is
    None where no window has v1 + nz > 2 u1 + 1, which it implies: no digit
    of a pass over a digit sum passes 2a + 1, nor does one of 2a + 1 precede
    a nonzero digit, so over is None on every sum."""
    import numpy as np

    nz, up, low = _carry_masks(u, v, s)
    over = s.flags[3]
    if not np.greater(s.digits, 2 * u[1] + 1, out=over).any():
        return nz, up, low, None
    np.greater(v[1], 2 * u[1], out=over)
    over &= nz
    return nz, up, low, over


def window_a_inplace(u, v, s: Scratch, masks=None) -> None:
    """Array form of ``window_a``, in place: A1 or A2 on every window of the
    digit arrays ``v``, from the ``masks`` of ``window_a_masks`` (its own
    when not given)."""
    import numpy as np

    nz, up, low, over = window_a_masks(u, v, s) if masks is None else masks
    fire, first = s.flags[4:]
    np.logical_and(low, up, out=fire)
    if over is not None:
        np.greater(fire, over, out=fire)  # A1 or A2
    np.greater(fire, nz, out=first)  # A1, where v2 == 0 becomes u2 - 1
    fire, first = s.flag(fire), s.flag(first)
    v0, v1, v2, v3 = v
    v0 += fire
    v1 -= _times(fire, u[1], s)
    v1 -= first
    v2 += _times(first, u[2], s)
    v2 -= fire
    v3 += first


def window_b_inplace(u, v, s: Scratch) -> None:
    """Array form of ``window_b``, in place: B1 to B4 on every window."""
    import numpy as np

    v0, v1, v2 = v
    nz, up, low = _carry_masks(u, v, s)
    late, fire, first = s.flags[3:]
    np.logical_and(low, up, out=fire)  # B1, B2 or B3
    np.greater(fire, nz, out=first)  # B1
    np.greater(v2, u[2], out=late)
    late &= fire  # B3
    fourth = np.less(v1, u[1], out=up)
    fourth &= np.greater_equal(v2, u[2], out=low)
    late |= fourth  # B3 or B4: one more in v1, u2 less in v2
    fire, first, late = s.flag(fire), s.flag(first), s.flag(late)
    v0 += fire
    v1 -= _times(fire, u[1], s)
    v1 -= first
    v1 += late
    v2 += _times(first, u[2], s)
    v2 -= fire
    v2 -= _times(late, u[2], s)


def _c_fires(u, v, out=None, spare=None):
    import numpy as np

    out = np.less(v[0], u[0], out=out)
    out &= np.equal(v[1], u[1], out=spare)
    out &= np.greater(v[2], 0, out=spare)
    return out


def window_c_inplace(u, v, s: Scratch) -> None:
    """Array form of ``window_c``, in place: C on every window."""
    fire = s.flag(_c_fires(u, v, *s.flags[:2]))
    v0, v1, v2 = v
    v0 += fire
    v1 -= _times(fire, u[1], s)
    v2 -= fire


def rewrite(rule, u, v):
    """The windows ``v`` after the array form ``rule``, applied to copies of
    them broadcast against the caps ``u``."""
    import numpy as np

    shape = np.broadcast_shapes(*(np.shape(a) for a in (*u, *v)))
    dtype = np.result_type(*v)
    v = tuple(np.array(np.broadcast_to(a, shape), dtype) for a in v)
    rule(u, v, Scratch(shape, dtype))
    return v


def c_preimages_array(u, after, bound: int):
    """The windows over digits 0..``bound`` that rule C (or its skip) maps to
    ``after``: ``after`` itself unless rule C applies to it, and the window
    rule C turns into ``after``, when there is one.  Both candidates are
    stacked on a new last axis, with a mask of those that exist."""
    import numpy as np

    a0, a1, a2 = np.broadcast_arrays(*after)
    exists = np.stack(
        [~_c_fires(u, (a0, a1, a2)), (a1 == 0) & (0 < a0) & (a0 <= u[0]) & (a2 < bound)], axis=-1
    )
    moved = (a0 - 1, np.broadcast_to(u[1], a1.shape), a2 + 1)
    return exists, tuple(np.stack([a, b], axis=-1) for a, b in zip((a0, a1, a2), moved))
