"""Multi-track finite automata over digit-tuple alphabets, held in Python lists.

Letters are ``arity``-tuples of digits in ``{0, ..., digit_bound}``.  Words
are read most significant letter first.  Several digit words combine into
one tuple word by convolution: pad the shorter words with leading zeros,
then read off the tuples position by position.

Inside an automaton a letter is an integer code: the letter read as a
mixed-radix number in base ``digit_bound + 1`` with track 0 most
significant, so ascending codes are the lexicographic order of letters.
Every automaton holds its arcs in one form, CSR lists: the arcs of state
``s`` are the codes ``codes[indptr[s]:indptr[s + 1]]`` with the targets in
the same slice of ``dsts``, sorted by (code, dst).  A deterministic
automaton has the initial state 0 and at most one arc per (state, code);
a missing arc leads to a dead state that is never built, so its work
follows its live arcs, not the ``(digit_bound + 1) ** arity`` letters.

Letter tuples appear only at the boundaries: the validated constructor and
``from_text``, ``arcs``/``to_text``, ``accepts`` and ``convolve``.

The toolkit provides the standard closure operations (boolean ops,
projection, cylindrification, determinization, minimization) with two
conventions that matter for numeration languages:

* projection closes the result under adding and removing leading all-zero
  letters, so ``L = 0*L`` and padding conventions compose;
* minimization renumbers states canonically (breadth-first from the
  initial state over ascending letters), so rebuilding a construction
  yields bit-identical output.  It comes in two forms: total, with the
  dead state and an arc for every letter, for the public results; and
  trim, without the dead state, for the intermediate steps of a
  construction, whose products then never walk pairs with a dead state.
  Total minimization is the only operation that builds a dead state:
  determinization is the trim subset construction, and a complement
  flips the final states of the total minimal DFA.

Each operation is one kernel that runs one state at a time in plain
Python over the CSR lists, at a cost per arc it reads; the few fast paths
kept inside them say in a comment what they were measured to save.  Every
kernel that numbers states does so breadth first, in order of first
occurrence over ascending letters.  The product of two automata takes,
for each operand, the result tracks its own tracks land on: a pair of
states moves on each letter whose digits both operands read and agree on
where they share a track, so a conjunction joins its operands on their
shared tracks and never spells out the tracks only one of them reads.  A
difference is a product whose right side moves to its unbuilt dead state
where it lacks an arc.  Adding, reordering and identifying the tracks of
one automaton (``_place``) maps each old letter code to the new codes
reading as it.  Pinning tracks to numerals and erasing them
(``restrict``) walks (state, position) pairs, one position shared by
every pinned track, into a subset construction, with no product.  Subset
constructions key every subset by the frozenset of its states, and leave
out the states that cannot reach a final state, so dead pairs and dead
guesses never inflate them.  Minimization is Hopcroft's partition
refinement, where a split costs only the states it moves.  The closure
under leading zero letters happens only where a track is erased, in
``project`` and ``restrict``: ``a.cylindrify(0).project(0)`` is the zero
closure of ``a``.

The module is plain Python: the int64 arrays of a breadth-first level of
recognizer states live in ``recognizers.from_lazy``, and those of batch
membership in ``bulk.batch_accepts``, both under the ``_MAX_CELLS`` guard
held here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Optional, Sequence

from . import words
from .errors import ArityMismatch, AutomatonTooLarge, DigitOutOfRange

Letter = tuple[int, ...]
TupleWord = tuple[Letter, ...]

_MAX_CELLS = 1 << 27  # largest table (states x letters), arc count or state count held


def convolve(word_list: Sequence[Sequence[int]], digit_bound: int) -> TupleWord:
    """Align LSD-first digit words into an MSD-first word of digit tuples."""
    n = max((len(w) for w in word_list), default=0)
    out = []
    for i in range(n - 1, -1, -1):
        letter = tuple(w[i] if i < len(w) else 0 for w in word_list)
        for d in letter:
            if d < 0 or d > digit_bound:
                raise DigitOutOfRange(f"digit {d} outside 0..{digit_bound}")
        out.append(letter)
    return tuple(out)


# -- letter codes and helpers -----------------------------------------------------


def _cells(count: int, what: str) -> int:
    if count > _MAX_CELLS:
        raise AutomatonTooLarge(f"{what} needs {count} entries, more than {_MAX_CELLS}")
    return count


def _code(letter: Letter, arity: int, radix: int) -> int:
    if len(letter) != arity:
        raise ArityMismatch(f"letter {letter} has arity {len(letter)}, want {arity}")
    code = 0
    for d in letter:
        if d < 0 or d >= radix:
            raise DigitOutOfRange(f"digit {d} outside 0..{radix - 1}")
        code = code * radix + d
    return code


def _letter(code: int, arity: int, radix: int) -> Letter:
    digits = []
    for _ in range(arity):
        code, d = divmod(code, radix)
        digits.append(d)
    return tuple(reversed(digits))


def _csr(n: int, srcs, codes, dsts) -> tuple[list, list, list]:
    """Sorted, duplicate-free CSR lists of the arcs (srcs[i], codes[i], dsts[i])."""
    rows: list[set] = [set() for _ in range(n)]
    for s, c, d in zip(srcs, codes, dsts):
        rows[s].add((c, d))
    indptr, out_codes, out_dsts = [0], [], []
    for row in rows:
        for c, d in sorted(row):
            out_codes.append(c)
            out_dsts.append(d)
        indptr.append(len(out_codes))
    return indptr, out_codes, out_dsts


def _reach(indptr: Sequence[int], targets: Sequence[int], seeds) -> list[bool]:
    """Which states are reachable from ``seeds`` along the CSR arcs from s to
    ``targets[indptr[s]:indptr[s + 1]]``, a breadth-first level at a time,
    each level's targets gathered by one set update per state."""
    seen = set(seeds)
    level = seen
    while level:
        met: set[int] = set()
        for s in level:
            met.update(targets[indptr[s] : indptr[s + 1]])
        level = met - seen
        seen |= level
    mask = [False] * (len(indptr) - 1)
    for s in seen:
        mask[s] = True
    return mask


def _split(codes, tracks: Sequence[int], key_weight: dict, part_weight: dict, radix: int) -> dict:
    """For each distinct code over ``tracks``: its digits on the tracks of
    ``key_weight`` and on those of ``part_weight``, each a sum of digit
    times the track's weight."""
    out = {}
    for code in set(codes):
        key = part = 0
        c = code
        for t in reversed(tracks):
            c, d = divmod(c, radix)
            key += d * key_weight.get(t, 0)
            part += d * part_weight.get(t, 0)
        out[code] = key, part
    return out


# -- automata ---------------------------------------------------------------------


class Automaton:
    """A finite automaton with dense integer states and integer letter codes.

    The public constructor takes ``transitions`` as ``src -> {letter ->
    dsts}``, validates it and stores it as a nondeterministic automaton.
    """

    def __init__(
        self,
        arity: int,
        digit_bound: int,
        num_states: int,
        initial: Iterable[int],
        finals: Iterable[int],
        transitions: dict[int, dict[Letter, tuple[int, ...]]],
    ):
        arcs = [
            (src, letter, t)
            for src, letter_arcs in transitions.items()
            for letter, targets in letter_arcs.items()
            for t in targets
        ]
        srcs, letters, dsts = zip(*arcs) if arcs else ((), (), ())
        if min(arity, digit_bound, num_states) < 0:
            raise ValueError(f"negative arity, bound or state count: {arity}, {digit_bound}, {num_states}")
        _cells(num_states + 1, "state count")
        initial, finals = list(initial), list(finals)
        for s in itertools.chain(initial, finals, srcs, dsts):
            if not (0 <= s < num_states):
                raise ValueError(f"state {s} out of range")
        code_of: dict[Letter, int] = {}
        for letter in letters:
            if letter not in code_of:
                code_of[letter] = _code(letter, arity, digit_bound + 1)
        codes = [code_of[letter] for letter in letters]
        self._init(arity, digit_bound, initial, finals, *_csr(num_states, srcs, codes, dsts), False)

    def _init(self, arity, digit_bound, initial, finals, indptr: list, codes: list, dsts: list,
              deterministic: bool, trim: bool = False) -> None:
        self.arity = arity
        self.digit_bound = digit_bound
        self.num_states = len(indptr) - 1
        self.initial = frozenset(map(int, initial))
        self.finals = frozenset(map(int, finals))
        self.deterministic = deterministic
        # every state is known to reach a final state, so _useful skips its
        # walk: 5 ms of the 20 ms that the 1;(1) and 1;(2) adders take
        self._trim = trim
        self._indptr, self._codes, self._dsts = indptr, codes, dsts
        self._letter_codes: dict[Letter, int] = {}
        self._arcs_by_key = None
        # letter codes fit the int64 arrays of recognizers.from_lazy and
        # bulk.batch_accepts; 2**64 letters never do, and are not counted
        if digit_bound >= 1 and arity >= 64 or (digit_bound + 1) ** arity > 1 << 63:
            raise AutomatonTooLarge(f"{digit_bound + 1}**{arity} letters do not fit 64-bit letter codes")

    @classmethod
    def _from_rows(cls, arity, digit_bound, initial, finals, indptr: list, codes: list, dsts: list,
                   deterministic: bool, trim: bool = False) -> "Automaton":
        """An automaton from CSR lists already sorted by (src, code, dst) and
        free of duplicates, which it keeps.  A deterministic one has the
        initial state 0 and at most one arc per (state, code); ``trim``
        says that every state can reach a final state."""
        self = cls.__new__(cls)
        self._init(arity, digit_bound, initial, finals, indptr, codes, dsts, deterministic, trim)
        return self

    @classmethod
    def _padded_word(cls, digit_bound: int, digits: Sequence[int], compare: str = "=") -> "Automaton":
        """The single-track words ``0* u`` with ``u`` (no leading zero) equal
        to the digit word ``w`` (no leading zero either): a chain of
        ``len(w) + 1`` states.  With ``compare`` ``<=`` or ``>=``, ``u`` at
        most or at least ``w`` in the order of length, then lexicographic,
        which on valid representations is the order of their values.

        That chain tracks the significant length l read so far, up to n =
        len(w), and whether those l digits are below, equal to or above the
        first l of ``w``: state 0 loops on the zero letter, state 3l - 2 + o
        has read l digits of order o (0 below, 1 equal, 2 above), and for
        ``>=`` state 3n + 1 has read more than n.
        """
        n, radix = len(digits), digit_bound + 1
        if compare == "=":  # state 0 has the zero loop and the first digit's arc
            return cls._from_rows(1, digit_bound, [0], [n], [0, *range(2, n + 2), n + 1], [0, *digits],
                                  [0, *range(1, n + 1)], True)
        _cells((3 * n + 2) * radix, f"{compare} chain of {n} digits over {radix} letters")
        at_least = compare == ">="
        longer = [3 * n + 1] * radix if at_least else []  # the row of every state of n digits read

        def equal(l: int) -> list[int]:  # the row of l < n digits read, equal to the first l of w
            d, below = digits[l], 3 * l + 1
            return [below] * d + [below + 1] + [below + 2] * (radix - 1 - d)

        rows = [[0] + (equal(0) if n else longer)[1:]]
        for l in range(1, n):
            rows += [[3 * l + 1] * radix, equal(l), [3 * l + 3] * radix]
        rows += [longer] * (3 * min(n, 1) + at_least)
        exact = 3 * n - 1 if n else 0  # the state of n digits read, equal to w
        finals = range(exact, len(rows)) if at_least else range(exact + 1)
        return cls._from_rows(1, digit_bound, [0], finals, list(itertools.accumulate(map(len, rows), initial=0)),
                              [c for row in rows for c in range(len(row))], list(itertools.chain(*rows)), True)

    @property
    def alphabet_size(self) -> int:
        return (self.digit_bound + 1) ** self.arity

    def is_total(self) -> bool:
        return self.deterministic and self.num_transitions() == self.num_states * self.alphabet_size

    def num_transitions(self) -> int:
        return len(self._codes)

    def _label(self, op: str, other: Optional["Automaton"] = None, arity: Optional[int] = None) -> str:
        """How a refusal inside a kernel names its operation and operands."""
        states = f"{self.num_states} × {other.num_states}" if other is not None else f"{self.num_states}"
        return f"{op} of {states} states, {self.arity if arity is None else arity} tracks: "

    def _useful(self) -> list[bool]:
        """Which states can reach a final state."""
        if self._trim:
            return [True] * self.num_states
        indptr, dsts = self._indptr, self._dsts
        back: list[list[int]] = [[] for _ in range(self.num_states)]
        into = [targets.append for targets in back]
        for s in range(self.num_states):
            for t in dsts[indptr[s] : indptr[s + 1]]:
                into[t](s)
        indptr = list(itertools.accumulate(map(len, back), initial=0))
        return _reach(indptr, list(itertools.chain.from_iterable(back)), self.finals)

    # -- run/acceptance ----------------------------------------------------

    def arcs(self):
        """Every arc as ``(src, letter, dst)``, in the order of ``to_text``."""
        radix = self.digit_bound + 1
        letters: dict[int, Letter] = {}
        indptr, codes, dsts = self._indptr, self._codes, self._dsts
        for src in range(self.num_states):
            for k in range(indptr[src], indptr[src + 1]):
                code = codes[k]
                letter = letters.get(code)
                if letter is None:
                    letter = letters[code] = _letter(code, self.arity, radix)
                yield src, letter, dsts[k]

    def accepts(self, word: TupleWord) -> bool:
        memo = self._letter_codes
        arcs = self._arc_dict()
        size = self.alphabet_size
        if self.deterministic:  # one state per letter: Tier-1 criteria 6 and 8 each run 1.1-2.8 s faster for it
            state = 0
            for letter in word:
                code = memo.get(letter)
                if code is None and (code := self._new_code(letter)) < 0:
                    return False
                state = arcs.get(state * size + code)
                if state is None:
                    return False
            return state in self.finals
        states = self.initial
        for letter in word:
            code = memo.get(letter)
            if code is None and (code := self._new_code(letter)) < 0:
                return False
            reached: set[int] = set()
            for s in states:
                reached.update(arcs.get(s * size + code, ()))
            if not reached:
                return False
            states = reached
        return not self.finals.isdisjoint(states)

    def _new_code(self, letter: Letter) -> int:
        """Code of a letter not met before, memoized; -1 when a digit is out
        of range, since no arc carries such a letter."""
        if len(letter) != self.arity:
            raise ArityMismatch(f"letter {letter} has arity {len(letter)}, want {self.arity}")
        if not all(0 <= d <= self.digit_bound for d in letter):
            return -1
        code = self._letter_codes[letter] = _code(letter, self.arity, self.digit_bound + 1)
        return code

    def _arc_dict(self) -> dict:
        """The targets by ``src * alphabet_size + code``, built on first use:
        the one target of a deterministic automaton, a list otherwise."""
        if self._arcs_by_key is None:
            size, indptr = self.alphabet_size, self._indptr
            keys = [s * size + c for s in range(self.num_states) for c in self._codes[indptr[s] : indptr[s + 1]]]
            if self.deterministic:
                self._arcs_by_key = dict(zip(keys, self._dsts))
            else:
                self._arcs_by_key = arcs = {}
                for key, dst in zip(keys, self._dsts):
                    arcs.setdefault(key, []).append(dst)
        return self._arcs_by_key

    # -- structural operations ----------------------------------------------

    def determinize(self) -> "Automaton":
        """Subset construction, trim: no state is kept that cannot reach a
        final state.  A deterministic automaton stays as it is."""
        return self if self.deterministic else self._subsets("determinize")

    def minimize(self, total: bool = True) -> "Automaton":
        """Minimal equivalent of a deterministic automaton, canonically
        numbered: total, or with ``total=False`` trim, without the dead state
        (the empty language keeps its initial state, with no arcs)."""
        if not self.deterministic:
            raise ValueError("minimize requires a deterministic automaton")
        if total:  # refused before a row as long as the alphabet is made
            _cells((self.num_states + 1) * self.alphabet_size, self._label("minimize") + "minimization table")
        return _minimize(self, total)

    def determinize_minimize(self, total: bool = True) -> "Automaton":
        """Equivalent deterministic minimal automaton, canonically numbered;
        total unless ``total=False``."""
        return self.determinize().minimize(total)

    def complement(self) -> "Automaton":
        """Complement w.r.t. all tuple words over the alphabet: the total
        minimal DFA with its final states flipped, itself total, minimal
        and canonically numbered."""
        d = self.determinize_minimize()
        return Automaton._from_rows(d.arity, d.digit_bound, [0], set(range(d.num_states)) - d.finals, d._indptr,
                                    d._codes, d._dsts, True)

    def intersect(self, other: "Automaton", tracks: Optional[Sequence[int]] = None,
                  other_tracks: Optional[Sequence[int]] = None) -> "Automaton":
        """Product automaton over reachable state pairs.

        With ``tracks`` and ``other_tracks``, track i of each operand lands
        on track ``tracks[i]`` (``other_tracks[i]``) of the result, whose
        tracks 0..k-1 are all landed on: the operands are joined on the
        tracks they share, and the result reads what ``_place`` of both
        onto k tracks and their intersection would.
        """
        return self._product(other, "intersect", lambda x, y: x and y, tracks=tracks, other_tracks=other_tracks)

    def difference(self, other: "Automaton") -> "Automaton":
        """The words of ``self`` that ``other`` rejects: a product with
        ``other`` determinized, whose dead state is never built."""
        return self._product(other.determinize(), "difference", lambda x, y: x and not y, dead=True)

    def _product(self, other: "Automaton", op: str, final, dead: bool = False,
                 tracks: Optional[Sequence[int]] = None,
                 other_tracks: Optional[Sequence[int]] = None) -> "Automaton":
        """Reachable pairs of states, numbered on first sight breadth first
        over ascending letters of the result.

        Track i of ``self`` lands on result track ``tracks[i]`` and track i
        of ``other`` on ``other_tracks[i]`` (without both, operands of one
        arity each on its own).  The arcs of each state of ``other`` are
        indexed by their digits on the shared tracks when a pair first meets
        the state, and an arc of ``self`` meets the arcs of ``other``
        agreeing with it there, so a pair costs the arcs of its components
        and the letters they share, and no track read by one operand alone
        is spelled out for the other.  The arcs of a pair are
        sorted by (letter, target pair) before the new pairs are numbered,
        so the numbering is that of placing both operands on all tracks and
        taking their product.  With ``dead`` (``other`` deterministic,
        reading only tracks ``self`` reads) a letter only ``self`` reads
        moves ``other`` to a dead state without arcs, numbered
        ``other.num_states``.  ``final(in_self, in_other)`` says which pairs
        are final.
        """
        if tracks is None or other_tracks is None:
            self._require_compatible(other)
            tracks = other_tracks = range(self.arity)
        ta, tb = list(tracks), list(other_tracks)
        arity = len(set(ta) | set(tb))
        if (self.digit_bound != other.digit_bound or len(ta) != self.arity or len(tb) != other.arity
                or set(ta) | set(tb) != set(range(arity)) or len(set(ta)) < len(ta) or len(set(tb)) < len(tb)):
            raise ArityMismatch(
                f"incompatible automata: arity {self.arity}/{other.arity} on tracks {ta}/{tb}, "
                f"bound {self.digit_bound}/{other.digit_bound}"
            )
        label = self._label(op, other, arity)
        radix = self.digit_bound + 1
        shared = sorted(set(ta) & set(tb))
        alone = [t for t in tb if t not in ta]  # the tracks only other reads
        key_weight = {t: radix**i for i, t in enumerate(shared)}
        place = {t: radix ** (arity - 1 - t) for t in range(arity)}
        split = _split(self._codes, ta, key_weight, place, radix)
        akey = [split[c][0] for c in self._codes]
        # An arc of the product packs as (code * na + d) * nb + e: a code,
        # and the pair key d * nb + e of its target pair (d, e), below span.
        nb = other.num_states + dead
        span = self.num_states * nb
        head = [split[c][1] * span + d * nb for c, d in zip(self._codes, self._dsts)]  # each arc of self's share
        # Each state of other met, as a dict from key to the shares of its
        # arcs: the digits of the tracks only other reads, and the target.
        split = _split(other._codes, tb, key_weight, {t: place[t] for t in alone}, radix)
        rows: dict[int, dict] = {other.num_states: {}}  # the dead state has no arcs
        ib, cb, db = other._indptr, other._codes, other._dsts
        miss = (other.num_states,) if dead else ()  # where other goes on a letter it lacks
        ia = self._indptr
        pairs = [p * nb + q for p in sorted(self.initial) for q in sorted(other.initial)]
        index = {pair: i for i, pair in enumerate(pairs)}
        count = len(pairs)  # pairs met
        deterministic = self.deterministic and other.deterministic
        indptr, codes, dsts = [0], [], []
        for pair in pairs:  # also the pairs appended while it runs
            p, q = divmod(pair, nb)
            if (row := rows.get(q)) is None:
                row = rows[q] = {}
                for k in range(ib[q], ib[q + 1]):
                    key, part = split[cb[k]]
                    row.setdefault(key, []).append(part * span + db[k])
            out = [head[k] + share for k in range(ia[p], ia[p + 1]) for share in row.get(akey[k], miss)]
            out.sort()  # by letter, then target pair
            lo = len(codes)
            for arc in out:
                c, pair = divmod(arc, span)
                j = index.setdefault(pair, count)
                if j == count:
                    pairs.append(pair)
                    count += 1
                codes.append(c)
                dsts.append(j)
            # several targets on one code; two DFAs skip the sort (decide part_b_s 0.0205 -> 0.0184 s)
            if not deterministic:
                arcs = sorted(zip(codes[lo:], dsts[lo:]))
                codes[lo:], dsts[lo:] = [c for c, _ in arcs], [j for _, j in arcs]
            indptr.append(len(codes))
            if len(codes) + count > _MAX_CELLS:
                _cells(len(codes) + count, label + "explored arcs and states")
        fa, fb = self.finals, other.finals  # the dead state rejects
        finals = [i for i, pair in enumerate(pairs) if final(pair // nb in fa, pair % nb in fb)]
        return Automaton._from_rows(arity, self.digit_bound, range(len(self.initial) * len(other.initial)),
                                    finals, indptr, codes, dsts, deterministic)

    def union(self, other: "Automaton") -> "Automaton":
        """Disjoint union (nondeterministic)."""
        self._require_compatible(other)
        off, arcs = self.num_states, self.num_transitions()
        return Automaton._from_rows(
            self.arity, self.digit_bound,
            sorted(self.initial) + [s + off for s in sorted(other.initial)],
            sorted(self.finals) + [s + off for s in sorted(other.finals)],
            self._indptr + [k + arcs for k in other._indptr[1:]], self._codes + other._codes,
            self._dsts + [d + off for d in other._dsts], False,
        )

    def cylindrify(self, position: int) -> "Automaton":
        """Insert a free track at ``position`` (0-based) of every letter."""
        if not (0 <= position <= self.arity):
            raise ValueError(f"track position {position} outside 0..{self.arity}")
        return self._place([t + (t >= position) for t in range(self.arity)], self.arity + 1)

    def _place(self, tracks: Sequence[int], arity: int) -> "Automaton":
        """The automaton over ``arity`` tracks whose track ``tracks[i]``
        carries old track i.  A new track no old track lands on is free; old
        tracks landing on the same new track merge, so only letters agreeing
        on them survive.  Each old code maps to the new codes reading as it,
        and an arc goes to each of them, so a deterministic automaton stays
        deterministic."""
        radix = self.digit_bound + 1
        label = self._label("place", arity=arity)
        offsets = [0]  # of the letters of the free tracks, ascending
        for t in range(arity):
            if t not in tracks:
                _cells(len(offsets) * radix, label + "placed alphabet")
                offsets = [o + d * radix ** (arity - 1 - t) for o in offsets for d in range(radix)]
        spread = {}
        for code in set(self._codes):
            placed: dict[int, int] = {}
            if all(placed.setdefault(t, d) == d for t, d in zip(tracks, _letter(code, self.arity, radix))):
                base = sum(d * radix ** (arity - 1 - t) for t, d in placed.items())
                spread[code] = [base + o for o in offsets]
            else:
                spread[code] = []
        _cells(sum(len(spread[c]) for c in self._codes), label + "placed arcs")
        indptr, codes, dsts = [0], [], []
        old_indptr, old_codes, old_dsts = self._indptr, self._codes, self._dsts
        for s in range(self.num_states):
            lo, hi = old_indptr[s], old_indptr[s + 1]
            row = sorted((c, d) for code, d in zip(old_codes[lo:hi], old_dsts[lo:hi]) for c in spread[code])
            codes += [c for c, _ in row]
            dsts += [d for _, d in row]
            indptr.append(len(codes))
        return Automaton._from_rows(arity, self.digit_bound, self.initial, self.finals, indptr, codes, dsts,
                                    self.deterministic)

    def project(self, track: int) -> "Automaton":
        """Erase a track and close under leading all-zero letters."""
        if self.arity < 2:
            raise ArityMismatch("cannot project a single-track automaton")
        if not (0 <= track < self.arity):
            raise ValueError(f"track {track} outside 0..{self.arity - 1}")
        return self._subsets("project", erase=track, zero_closed=True)

    def restrict(self, pins: dict[int, Sequence[int]]) -> "Automaton":
        """Pin each track ``t`` of ``pins`` to ``0* w``, ``w`` the LSD-first word
        ``pins[t]``, and erase it, closing under leading zero letters (trim,
        minimal).  The pinned tracks share one position in their convolution:
        a walk over (state, position) pairs numbers an automaton for ``_subsets``."""
        kept = [t for t in range(self.arity) if t not in pins]
        if not kept or len(kept) + len(pins) != self.arity:
            raise ArityMismatch(f"pinned tracks {sorted(pins)} must lie in 0..{self.arity - 1} and leave one free")
        radix = self.digit_bound + 1
        word = [_code(c, len(pins), radix) for c in convolve([*pins.values()], radix - 1)] + [-1]  # -1 reads no letter
        width = len(word)  # positions per state
        split = _split(self._codes, range(self.arity), {t: radix ** (len(pins) - 1 - j) for j, t in enumerate(pins)},
                       {t: radix ** (len(kept) - 1 - j) for j, t in enumerate(kept)}, radix)
        rows: dict[int, dict] = {}  # of each state met: (part, target * width) by pinned digits
        pairs = [s * width for s in sorted(self.initial)]  # pair key: state * width + position
        index = {pair: j for j, pair in enumerate(pairs)}
        indptr, out_codes, out_dsts = [0], [], []
        for pair in pairs:  # also the pairs appended while it runs
            q, i = divmod(pair, width)
            if (row := rows.get(q)) is None:
                row = rows[q] = {}
                for k in range(self._indptr[q], self._indptr[q + 1]):
                    key, part = split[self._codes[k]]
                    row.setdefault(key, []).append((part, self._dsts[k] * width))
            for part, target in [(p, t + i + 1) for p, t in row.get(word[i], ())] + (row.get(0, []) if i == 0 else []):
                j = index.setdefault(target, len(pairs))
                if j == len(pairs):
                    pairs.append(target)
                out_codes.append(part)
                out_dsts.append(j)
            indptr.append(len(out_codes))
            if len(out_codes) + len(pairs) > _MAX_CELLS:
                _cells(len(out_codes) + len(pairs), self._label("restrict") + "pinned arcs and states")
        finals = [j for j, pair in enumerate(pairs) if pair % width == width - 1 and pair // width in self.finals]
        return Automaton._from_rows(len(kept), self.digit_bound, range(len(self.initial)), finals, indptr, out_codes,
                                    out_dsts, False)._subsets("restrict", zero_closed=True).minimize(total=False)

    def _subsets(self, op: str, erase: Optional[int] = None, zero_closed: bool = False) -> "Automaton":
        """Subset construction, breadth first over ascending letters, one
        subset at a time, numbering subsets on first sight.

        ``erase`` drops that track from every letter.  ``zero_closed``
        closes the language under leading all-zero letters: the start
        subset holds every state reachable by zero letters and loops on the
        zero letter, which is what a fresh start state with all their arcs
        and a zero self-loop amounts to; its key, a 1-tuple of the frozenset
        of its states, tells it from the subset of the same states without
        the loop.  Every other subset is keyed by the frozenset of its
        states, so no row of targets is sorted.
        Each subset holds only states from which a final state can be
        reached, so only the live (subset, letter) pairs, those with an arc
        into such a state, are met, and the work follows the arcs.  The
        result is deterministic and trim.
        """
        arity = self.arity - (erase is not None)
        n, radix = self.num_states, self.digit_bound + 1
        label = self._label(op)
        indptr, codes, dsts = self._indptr, self._codes, self._dsts
        if erase is not None:
            low = radix ** (self.arity - 1 - erase)
            high = low * radix
            codes = [c // high * low + c % low for c in codes]
        useful = self._useful()
        start = sorted(self.initial)
        if zero_closed:  # every state reachable by zero letters
            reached, stack = set(start), list(start)
            while stack:
                s = stack.pop()
                for c, t in zip(codes[indptr[s] : indptr[s + 1]], dsts[indptr[s] : indptr[s + 1]]):
                    if c == 0 and t not in reached:
                        reached.add(t)
                        stack.append(t)
            start = sorted(reached)
        start = frozenset(s for s in start if useful[s])
        if not start:  # the language is empty
            return Automaton._from_rows(arity, self.digit_bound, [0], [], [0, 0], [], [], True)
        if not all(useful):  # keep only the arcs into useful states
            keep = [useful[t] for t in dsts]
            indptr = list(itertools.accumulate((sum(keep[indptr[s] : indptr[s + 1]]) for s in range(n)), initial=0))
            codes, dsts = list(itertools.compress(codes, keep)), list(itertools.compress(dsts, keep))
        start_key = (start,) if zero_closed else start
        index = {start_key: 0}
        members: list = [start]
        count = 1  # subsets met
        finals, indptr_out, codes_out, dsts_out = [], [0], [], []
        for i, group in enumerate(members):  # also the subsets appended while it runs
            if not self.finals.isdisjoint(group):
                finals.append(i)
            step = defaultdict(list)  # the targets of the group on each code
            for s in group:
                lo, hi = indptr[s], indptr[s + 1]
                for c, t in zip(codes[lo:hi], dsts[lo:hi]):
                    step[c].append(t)
            keys = {c: frozenset(targets) for c, targets in step.items()}
            if zero_closed and i == 0:  # its zero targets are in it, and it loops on the zero letter
                keys[0] = start_key
            letters = sorted(keys)
            codes_out += letters
            for c in letters:
                key = keys[c]
                sid = index.setdefault(key, count)
                if sid == count:
                    members.append(key)
                    count += 1
                dsts_out.append(sid)
            indptr_out.append(len(codes_out))
            if len(codes_out) + count > _MAX_CELLS:
                _cells(len(codes_out) + count, label + "subset arcs and states")
        return Automaton._from_rows(arity, self.digit_bound, [0], finals, indptr_out, codes_out, dsts_out, True,
                                    trim=True)

    def is_empty(self) -> bool:
        reached = _reach(self._indptr, self._dsts, self.initial)
        return not any(reached[f] for f in self.finals)

    def shortest_witness(self) -> Optional[TupleWord]:
        """A shortest accepted word, or None when the language is empty.

        Of the shortest words, the one met first breadth first, from the
        initial states in order over ascending letters: on a deterministic
        automaton, the lexicographically least.  It is the path of arcs
        that first met each state, back from the final state met first.
        """
        indptr, codes, dsts = self._indptr, self._codes, self._dsts
        order = sorted(self.initial)
        via: dict[int, tuple[int, int]] = {s: (-1, 0) for s in order}  # the arc that first met each state
        hit = next((s for s in order if s in self.finals), None)
        for s in order:  # also the states appended while it runs
            if hit is not None:
                break
            for k in range(indptr[s], indptr[s + 1]):
                t = dsts[k]
                if t not in via:
                    via[t] = s, codes[k]
                    order.append(t)
                    if t in self.finals:
                        hit = t
                        break
        if hit is None:
            return None
        word = []
        src, code = via[hit]
        while src >= 0:
            word.append(_letter(code, self.arity, self.digit_bound + 1))
            src, code = via[src]
        return tuple(reversed(word))

    def equivalent(self, other: "Automaton") -> bool:
        """Language equality: neither difference accepts a word."""
        a, b = self.determinize(), other.determinize()
        return a.difference(b).is_empty() and b.difference(a).is_empty()

    def _require_compatible(self, other: "Automaton") -> None:
        if self.arity != other.arity or self.digit_bound != other.digit_bound:
            raise ArityMismatch(
                f"incompatible automata: arity {self.arity}/{other.arity}, "
                f"bound {self.digit_bound}/{other.digit_bound}"
            )

    # -- interchange format --------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"arity {self.arity}",
            f"digit_bound {self.digit_bound}",
            f"num_states {self.num_states}",
            "initial " + " ".join(str(s) for s in sorted(self.initial)),
            "final " + " ".join(str(s) for s in sorted(self.finals)),
        ]
        lines.extend(
            f"trans {src} ({','.join(map(str, letter))}) {dst}" for src, letter, dst in self.arcs()
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Automaton":
        header: dict[str, int] = {}
        initial: list[int] = []
        finals: list[int] = []
        transitions: dict[int, dict[Letter, list[int]]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            try:
                if key in ("arity", "digit_bound", "num_states"):
                    header[key] = words.integer_token(rest, key)
                elif key == "initial":
                    initial = [words.integer_token(t, "state") for t in rest.split()]
                elif key == "final":
                    finals = [words.integer_token(t, "state") for t in rest.split()]
                elif key == "trans":
                    fields = rest.split()
                    if len(fields) != 3:
                        raise ValueError(f"want 'trans SRC (LETTER) DST', got {len(fields)} fields")
                    src_s, letter_s, dst_s = fields
                    if not (letter_s.startswith("(") and letter_s.endswith(")")):
                        raise ValueError(f"bad letter {letter_s!r}")
                    letter = tuple(words.integer_token(t, "digit") for t in letter_s[1:-1].split(",") if t)
                    src, dst = words.integer_token(src_s, "state"), words.integer_token(dst_s, "state")
                    transitions.setdefault(src, {}).setdefault(letter, []).append(dst)
                else:
                    raise ValueError(f"unknown field {key!r}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if len(header) < 3:
            raise ValueError("missing arity/digit_bound/num_states header")
        return cls(header["arity"], header["digit_bound"], header["num_states"], initial, finals, transitions)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Automaton":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def __repr__(self) -> str:
        return (
            f"Automaton(arity={self.arity}, bound={self.digit_bound}, "
            f"states={self.num_states}, transitions={self.num_transitions()}, "
            f"deterministic={self.deterministic})"
        )


# -- minimization ----------------------------------------------------------------


def _minimize(dfa: Automaton, total: bool) -> Automaton:
    """``Automaton.minimize`` by partition refinement over the arcs
    (Hopcroft), then a canonical renumbering of the blocks, breadth first
    from the initial state's block over ascending letters.

    The DFA is completed by a dead state, numbered ``n``, that takes every
    missing arc.  A waiting block splits the others: it marks the states
    with an arc into it on one letter, and the marked states of a block
    move to a new block, so a split costs only them.  When a waiting
    block splits, both halves wait; when another one splits, either half
    may wait, and the smaller one does unless it holds the dead state.
    So the dead state's block never waits, and no arc into the dead
    state, most of which are not built, is ever read.  The total form
    keeps the dead state's block with an arc for every letter; the trim
    form drops it with every arc into it.
    """
    n = dfa.num_states
    indptr, codes, dsts = dfa._indptr, dfa._codes, dfa._dsts
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (code, src) of the arcs into a state
    for s in range(n):
        for k in range(indptr[s], indptr[s + 1]):
            into[dsts[k]].append((codes[k], s))
    finals = dfa.finals
    block_of = [0 if s in finals else 1 for s in range(n)] + [1]
    blocks = [set(finals), set(range(n + 1)) - finals]
    waiting, queued = [0], [True, False]
    while waiting:
        splitter = waiting.pop()
        queued[splitter] = False
        marks: dict[int, list[int]] = {}
        for t in blocks[splitter]:
            for c, s in into[t]:
                marks.setdefault(c, []).append(s)
        for marked in marks.values():
            touched: dict[int, list[int]] = {}
            for s in marked:
                touched.setdefault(block_of[s], []).append(s)
            for y, moved in touched.items():
                if len(moved) == len(blocks[y]):
                    continue
                z = len(blocks)
                blocks[y].difference_update(moved)
                blocks.append(set(moved))
                for s in moved:
                    block_of[s] = z
                wait = z if queued[y] or n in blocks[y] or len(moved) <= len(blocks[y]) else y
                queued.append(False)
                if not queued[wait]:
                    queued[wait] = True
                    waiting.append(wait)
    dead = block_of[n]
    order = [block_of[next(iter(dfa.initial))]]
    ids = {order[0]: 0}
    out_finals, indptr_out, codes_out, dsts_out = [], [0], [], []
    for i, x in enumerate(order):  # also the blocks appended while it runs
        rep = min(blocks[x])  # all its states move alike
        if rep in finals:
            out_finals.append(i)
        lo, hi = (indptr[rep], indptr[rep + 1]) if rep < n else (0, 0)
        if total:
            to = dict(zip(codes[lo:hi], dsts[lo:hi]))
            moves = [(c, block_of[to[c]] if c in to else dead) for c in range(dfa.alphabet_size)]
        else:
            moves = [(c, block_of[t]) for c, t in zip(codes[lo:hi], dsts[lo:hi]) if block_of[t] != dead]
        for c, y in moves:
            j = ids.setdefault(y, len(order))
            if j == len(order):
                order.append(y)
            codes_out.append(c)
            dsts_out.append(j)
        indptr_out.append(len(codes_out))
    return Automaton._from_rows(dfa.arity, dfa.digit_bound, [0], out_finals, indptr_out, codes_out, dsts_out, True,
                                trim=bool(out_finals) and not total)
