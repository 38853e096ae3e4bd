"""Multi-track finite automata over digit-tuple alphabets, held in integer arrays.

Letters are ``arity``-tuples of digits in ``{0, ..., digit_bound}``.  Words
are read most significant letter first.  Several digit words combine into
one tuple word by convolution: pad the shorter words with leading zeros,
then read off the tuples position by position.

Inside an automaton a letter is an integer code: the letter read as a
mixed-radix number in base ``digit_bound + 1`` with track 0 most
significant, so ascending codes are the lexicographic order of letters.
An automaton takes one of two array forms:

* deterministic: one initial state and an ``int32`` table
  ``[num_states, (digit_bound + 1) ** arity]`` of successor states, -1
  where an arc is missing;
* nondeterministic: CSR arrays, the arcs of state ``s`` being the codes
  ``codes[indptr[s]:indptr[s + 1]]`` with the targets in the same slice of
  ``dsts``, sorted by (code, dst).

Letter tuples appear only at the boundaries: the validated constructor and
``from_text``, ``arcs``/``to_text``, ``accepts`` and ``convolve``.

The toolkit provides the standard closure operations (boolean ops,
projection, cylindrification, determinization, minimization) with two
conventions that matter for numeration languages:

* projection closes the result under adding and removing leading all-zero
  letters, so ``L = 0*L`` and padding conventions compose;
* minimization renumbers states canonically (breadth-first from the
  initial state over ascending letters), so rebuilding a construction
  yields bit-identical output.

Adding, reordering and identifying tracks is one gather of letter codes:
each new letter code reads as one old code, so a table takes its columns
in that order and an arc goes to every new code reading as its own.

Products, subset constructions and lazy exploration advance a whole
breadth-first level of states at once, in chunks that bound their memory.
A new product state is keyed exactly by its pair of state ids, a new
subset by its membership bitmap, and a state of a lazily described
automaton (``from_lazy``) by the int64 key its recognizer packs it into;
the recognizer steps whole arrays of keys and hands back letter codes.
Subset constructions and ``from_lazy`` leave out the states that cannot
reach a final state, so dead pairs and dead guesses never inflate them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ArityMismatch, AutomatonTooLarge, DigitOutOfRange

Letter = tuple[int, ...]
TupleWord = tuple[Letter, ...]

_MAX_CELLS = 1 << 27  # largest table (states x letters) or state count held
_CHUNK = 1 << 21  # array elements one step of a breadth-first level works on


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


# -- letter codes and array helpers ---------------------------------------------


def _cells(count: int, what: str) -> int:
    if count > _MAX_CELLS:
        raise AutomatonTooLarge(f"{what} needs {count} entries, more than {_MAX_CELLS}")
    return count


def _check_keys(num_states: int, arity: int, digit_bound: int) -> None:
    """Arcs of the nondeterministic form are searched by the int64 key
    ``src * letters + code``, so also every letter code fits an int64; 2**64
    letters never do, and their count is not computed."""
    wide = digit_bound >= 1 and arity >= 64
    if wide or max(num_states, 1) * (digit_bound + 1) ** arity - 1 > np.iinfo(np.int64).max:
        raise AutomatonTooLarge(
            f"{num_states} states times {digit_bound + 1}**{arity} letters do not fit 64-bit arc keys"
        )


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


def _ranges(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges [starts[i], ends[i]): (i per element, element)."""
    lens = ends - starts
    pos = np.repeat(np.arange(len(starts)), lens)
    offsets = np.arange(len(pos)) - np.repeat(np.cumsum(lens) - lens, lens)
    return pos, starts[pos] + offsets


def _csr(n: int, srcs, codes, dsts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted, duplicate-free CSR arrays of the arcs (srcs[i], codes[i], dsts[i])."""
    order = np.lexsort((dsts, codes, srcs))
    srcs, codes, dsts = srcs[order], codes[order], dsts[order]
    keep = np.ones(len(order), bool)
    keep[1:] = (np.diff(srcs) != 0) | (np.diff(codes) != 0) | (np.diff(dsts) != 0)
    srcs = srcs[keep]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    return indptr, codes[keep].astype(np.int64), dsts[keep].astype(np.int32)


def _reach(n: int, srcs: np.ndarray, dsts: np.ndarray, seeds) -> np.ndarray:
    """Mask of the states reachable from ``seeds`` along the arcs srcs -> dsts."""
    adj = dsts[np.argsort(srcs)]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    seen = np.zeros(n, bool)
    frontier = np.unique(np.asarray(seeds, np.int64))
    seen[frontier] = True
    while frontier.size:
        _, idx = _ranges(indptr[frontier], indptr[frontier + 1])
        met = np.zeros(n, bool)
        met[adj[idx]] = True
        frontier = np.flatnonzero(met & ~seen)
        seen[frontier] = True
    return seen


def _complete(table: np.ndarray) -> np.ndarray:
    """Send every missing arc to a new last state, a sink."""
    if not (table < 0).any():
        return table
    sink = table.shape[0]
    table = np.vstack([table, np.full((1, table.shape[1]), sink, np.int32)])
    table[table < 0] = sink
    return table


def _state_set(states) -> frozenset[int]:
    return frozenset(states.tolist() if isinstance(states, np.ndarray) else map(int, states))


class _PairIndex:
    """Exact ids of int64 keys, new keys numbered in order of first occurrence."""

    def __init__(self):
        self.keys = np.empty(0, np.int64)  # sorted
        self.ids = np.empty(0, np.int64)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of ``keys`` and the keys seen for the first time, in order."""
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        ids = np.empty(len(keys), np.int64)
        ids[found] = self.ids[at[found]]
        missing = np.flatnonzero(~found)
        if not missing.size:
            return ids, missing
        fresh, first, inverse = np.unique(keys[missing], return_index=True, return_inverse=True)
        order = np.argsort(first)
        fresh_ids = np.empty(len(fresh), np.int64)
        fresh_ids[order] = np.arange(len(self.ids), len(self.ids) + len(fresh))
        ids[missing] = fresh_ids[inverse.ravel()]
        # merge the new keys into the sorted ones
        slot = np.searchsorted(self.keys, fresh) + np.arange(len(fresh))
        old = np.ones(len(self.keys) + len(fresh), bool)
        old[slot] = False
        merged_keys, merged_ids = np.empty(len(old), np.int64), np.empty(len(old), np.int64)
        merged_keys[slot], merged_ids[slot] = fresh, fresh_ids
        merged_keys[old], merged_ids[old] = self.keys, self.ids
        self.keys, self.ids = merged_keys, merged_ids
        return ids, fresh[order]


def _product_tables(ta: np.ndarray, tb: np.ndarray, a0: int, b0: int):
    """Reachable pairs of two DFA tables, breadth first from (a0, b0).

    Returns the product table and the two components of every pair.
    """
    nb, size = tb.shape[0], ta.shape[1]
    index = _PairIndex()
    index.lookup(np.array([a0 * nb + b0], np.int64))
    pa, pb, blocks = [a0], [b0], []
    i = 0
    while i < len(pa):
        j = min(len(pa), i + max(1, _CHUNK // size))
        rows_a, rows_b = ta[pa[i:j]], tb[pb[i:j]]
        keys = (rows_a.astype(np.int64) * nb + rows_b).ravel()
        live = np.flatnonzero(((rows_a >= 0) & (rows_b >= 0)).ravel())
        ids, new = index.lookup(keys[live])
        pa.extend((new // nb).tolist())
        pb.extend((new % nb).tolist())
        block = np.full(keys.size, -1, np.int32)
        block[live] = ids
        blocks.append(block.reshape(j - i, size))
        _cells(len(pa) * size, "product table")
        i = j
    return np.concatenate(blocks), np.array(pa), np.array(pb)


# -- automata ---------------------------------------------------------------------


class Automaton:
    """A finite automaton with dense integer states and integer letter codes.

    The public constructor takes ``transitions`` as ``src -> {letter ->
    dsts}``, validates it and stores it in the nondeterministic form.
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
        self._load(arity, digit_bound, num_states, initial, finals, srcs, letters, dsts)

    def _load(self, arity, digit_bound, num_states, initial, finals, srcs, letters, dsts):
        """Validate and convert once; arc i is (srcs[i], letters[i], dsts[i])."""
        if arity < 0 or digit_bound < 0:
            raise ValueError(f"arity {arity} and digit_bound {digit_bound} must be non-negative")
        _check_keys(num_states, arity, digit_bound)
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
        self._init_nfa(arity, digit_bound, num_states, initial, finals,
                       *(np.array(a, np.int64) for a in (srcs, codes, dsts)))

    def _init_nfa(self, arity, digit_bound, num_states, initial, finals, srcs, codes, dsts):
        self._set(arity, digit_bound, num_states, initial, finals)
        _check_keys(self.num_states, arity, digit_bound)
        self._table = self._arcs_by_key = None
        self._arrays = _csr(self.num_states, srcs, codes, dsts)

    def _set(self, arity, digit_bound, num_states, initial, finals) -> None:
        self.arity = arity
        self.digit_bound = digit_bound
        self.num_states = int(num_states)
        self.initial = _state_set(initial)
        self.finals = _state_set(finals)
        self._letter_codes: dict[Letter, int] = {}

    @classmethod
    def _dfa(cls, arity: int, digit_bound: int, table: np.ndarray, finals) -> "Automaton":
        """Deterministic form: successor table, initial state 0."""
        self = cls.__new__(cls)
        self._set(arity, digit_bound, table.shape[0], (0,), finals)
        self._table = table.astype(np.int32, copy=False)
        self._arrays = self._arcs_by_key = None
        return self

    @classmethod
    def _nfa(cls, arity, digit_bound, num_states, initial, finals, srcs, codes, dsts) -> "Automaton":
        """Nondeterministic form from arc arrays in any order."""
        self = cls.__new__(cls)
        self._init_nfa(arity, digit_bound, num_states, initial, finals, srcs, codes, dsts)
        return self

    @property
    def deterministic(self) -> bool:
        return self._table is not None

    @property
    def alphabet_size(self) -> int:
        return (self.digit_bound + 1) ** self.arity

    def is_total(self) -> bool:
        return self.deterministic and not (self._table < 0).any()

    def num_transitions(self) -> int:
        if self.deterministic:
            return int(np.count_nonzero(self._table >= 0))
        return len(self._arrays[2])

    # -- array access ---------------------------------------------------------

    def _final_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_states, bool)
        mask[list(self.finals)] = True
        return mask

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as (srcs, codes, dsts), sorted by (src, code, dst)."""
        if self.deterministic:
            srcs, codes = np.nonzero(self._table >= 0)
            return srcs, codes, self._table[srcs, codes]
        indptr, codes, dsts = self._arrays
        return np.repeat(np.arange(self.num_states), np.diff(indptr)), codes, dsts

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.deterministic:
            return self._arrays
        srcs, codes, dsts = self._arc_arrays()
        return np.searchsorted(srcs, np.arange(self.num_states + 1)), codes, dsts

    def _useful(self) -> np.ndarray:
        """Mask of the states from which a final state can be reached."""
        useful = self._final_mask()
        if not self.deterministic:
            srcs, _, dsts = self._arc_arrays()
            return _reach(self.num_states, dsts, srcs, np.flatnonzero(useful))
        # a fixpoint over the rows still outside the mask, a chunk of rows at
        # a time; a missing arc (-1) reads the appended False
        step = max(1, _CHUNK // self.alphabet_size)
        grew = True
        while grew:
            grew = False
            rest = np.flatnonzero(~useful)
            for lo in range(0, len(rest), step):
                rows = rest[lo : lo + step]
                more = rows[np.append(useful, False)[self._table[rows]].any(axis=1)]
                useful[more] = True
                grew |= more.size > 0
        return useful

    def _gather(self, states: np.ndarray, erase: Optional[int] = None):
        """Arcs (pos, code, dst) leaving ``states[pos]``, in state order.

        With ``erase`` the codes are those of the letters without that track.
        """
        if self.deterministic:
            rows = self._table[states]
            pos, codes = np.nonzero(rows >= 0)
            dsts = rows[pos, codes]
        else:
            indptr, all_codes, all_dsts = self._arrays
            pos, idx = _ranges(indptr[states], indptr[states + 1])
            codes, dsts = all_codes[idx], all_dsts[idx]
        if erase is not None:
            low = (self.digit_bound + 1) ** (self.arity - 1 - erase)
            codes = codes // (low * (self.digit_bound + 1)) * low + codes % low
        return pos, codes, dsts

    def _flat_targets(self, states, row_of, size: int, width: int, column, erase=None) -> np.ndarray:
        """Indices ``(row_of[k] * size + code) * width + column[dst]`` of the
        arcs of ``states[k]``, codes as in ``_gather``; a missing arc of a
        table reads ``column[-1]``."""
        if not self.deterministic:
            pos, codes, dsts = self._gather(states, erase)
            return (row_of[pos] * size + codes) * width + column[dsts]
        targets = column[self._table[states]]
        if erase is not None:
            radix = self.digit_bound + 1
            split = targets.reshape(len(states), radix**erase, radix, -1)
            targets = split.transpose(0, 1, 3, 2)  # the erased digit last
        rows = row_of[:, None] * size + np.arange(size)
        return (rows[:, :, None] * width + targets.reshape(len(states), size, -1)).ravel()

    def _accepts_all(self, tracks: Sequence[np.ndarray]) -> np.ndarray:
        """Membership of many equal-length words of a deterministic automaton:
        ``tracks[t][w, j]`` is the j-th digit (MSD first) of track t of word w."""
        radix = self.digit_bound + 1
        table = np.vstack([self._table, np.full((1, self._table.shape[1]), -1, np.int32)])
        codes = np.zeros(tracks[0].shape, np.int64)
        for digits in tracks:
            codes = codes * radix + digits
        state = np.zeros(codes.shape[0], np.int64)
        for column in codes.T:
            state = table[state, column]  # -1 stays on the all-missing last row
        return np.append(self._final_mask(), False)[state]

    # -- run/acceptance ----------------------------------------------------

    def arcs(self):
        """Every arc as ``(src, letter, dst)``, in the order of ``to_text``."""
        radix = self.digit_bound + 1
        letters: dict[int, Letter] = {}
        srcs, codes, dsts = self._arc_arrays()
        for src, code, dst in zip(srcs.tolist(), codes.tolist(), dsts.tolist()):
            letter = letters.get(code)
            if letter is None:
                letter = letters[code] = _letter(code, self.arity, radix)
            yield src, letter, dst

    def accepts(self, word: TupleWord) -> bool:
        memo = self._letter_codes
        if self.deterministic:
            item = self._table.item
            state = 0
            for letter in word:
                code = memo.get(letter)
                if code is None and (code := self._new_code(letter)) < 0:
                    return False
                state = item(state, code)
                if state < 0:
                    return False
            return state in self.finals
        arcs = self._arc_dict()
        size = self.alphabet_size
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

    def _arc_dict(self) -> dict[int, list[int]]:
        """Targets of the nondeterministic form by ``src * alphabet_size +
        code``, built on first use."""
        if self._arcs_by_key is None:
            srcs, codes, dsts = self._arc_arrays()
            keys = srcs.astype(np.int64) * self.alphabet_size + codes
            self._arcs_by_key = arcs = {}
            for key, dst in zip(keys.tolist(), dsts.tolist()):
                arcs.setdefault(key, []).append(dst)
        return self._arcs_by_key

    # -- structural operations ----------------------------------------------

    def determinize(self, complete: bool = True) -> "Automaton":
        """Subset construction.  With ``complete`` a sink makes the result total."""
        if not self.deterministic:
            return self._subsets(complete=complete)
        if not complete or self.is_total():
            return self
        return Automaton._dfa(self.arity, self.digit_bound, _complete(self._table), self.finals)

    def minimize(self) -> "Automaton":
        """Minimal total equivalent of a deterministic automaton."""
        if not self.deterministic:
            raise ValueError("minimize requires a deterministic automaton")
        return _minimize_dfa(self)

    def determinize_minimize(self) -> "Automaton":
        """Equivalent deterministic, total, minimal automaton, canonically numbered."""
        return self.determinize(complete=False).minimize()

    def complement(self) -> "Automaton":
        """Complement w.r.t. all tuple words over the alphabet."""
        d = self.determinize(complete=True)
        return Automaton._dfa(d.arity, d.digit_bound, d._table, np.flatnonzero(~d._final_mask()))

    def intersect(self, other: "Automaton") -> "Automaton":
        """Product automaton over reachable state pairs."""
        self._require_compatible(other)
        if self.deterministic and other.deterministic:
            table, pa, pb = _product_tables(
                self._table, other._table, next(iter(self.initial)), next(iter(other.initial))
            )
            finals = np.flatnonzero(self._final_mask()[pa] & other._final_mask()[pb])
            return Automaton._dfa(self.arity, self.digit_bound, table, finals)
        return self._product_nfa(other)

    def _product_nfa(self, other: "Automaton") -> "Automaton":
        """Reachable pairs of two automata in CSR form, breadth first."""
        size = self.alphabet_size
        ia, ca, da = self._csr_arrays()
        ib, cb, db = other._csr_arrays()
        nb = other.num_states
        index = _PairIndex()
        starts = [p * nb + q for p in sorted(self.initial) for q in sorted(other.initial)]
        _, new = index.lookup(np.array(starts, np.int64))
        pa, pb = (new // nb).tolist(), (new % nb).tolist()
        srcs, codes, dsts = [], [], []
        degree = -(-len(ca) // max(1, self.num_states))
        per_chunk = max(1, min(_CHUNK // max(1, degree), np.iinfo(np.int64).max // size))
        i = 0
        while i < len(pa):
            j = min(len(pa), i + per_chunk)
            p, q = np.array(pa[i:j], np.int64), np.array(pb[i:j], np.int64)
            pos_a, arc_a = _ranges(ia[p], ia[p + 1])
            pos_b, arc_b = _ranges(ib[q], ib[q + 1])
            key_a = pos_a * size + ca[arc_a]
            key_b = pos_b * size + cb[arc_b]
            hit, arc_b_hit = _ranges(
                np.searchsorted(key_b, key_a, "left"), np.searchsorted(key_b, key_a, "right")
            )
            pair_keys = da[arc_a[hit]].astype(np.int64) * nb + db[arc_b[arc_b_hit]]
            ids, new = index.lookup(pair_keys)
            pa.extend((new // nb).tolist())
            pb.extend((new % nb).tolist())
            srcs.append(i + pos_a[hit])
            codes.append(ca[arc_a[hit]])
            dsts.append(ids)
            i = j
        fa, fb = self._final_mask(), other._final_mask()
        finals = np.flatnonzero(fa[pa] & fb[pb]) if pa else []
        empty = [np.empty(0, np.int64)]
        return Automaton._nfa(
            self.arity, self.digit_bound, len(pa), range(len(starts)), finals,
            np.concatenate(srcs + empty), np.concatenate(codes + empty), np.concatenate(dsts + empty),
        )

    def union(self, other: "Automaton") -> "Automaton":
        """Disjoint union (nondeterministic)."""
        self._require_compatible(other)
        off = self.num_states
        sa, ca, da = self._arc_arrays()
        sb, cb, db = other._arc_arrays()
        return Automaton._nfa(
            self.arity,
            self.digit_bound,
            off + other.num_states,
            sorted(self.initial) + [s + off for s in sorted(other.initial)],
            sorted(self.finals) + [s + off for s in sorted(other.finals)],
            np.concatenate([sa, sb + off]),
            np.concatenate([ca, cb]),
            np.concatenate([da, db + off]),
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
        on them survive.  New letter code c reads as old code ``old[c]``."""
        radix = self.digit_bound + 1
        new = np.arange(_cells(radix**arity, "placed alphabet"))
        old = np.zeros_like(new)
        for t in tracks:
            old = old * radix + new // radix ** (arity - 1 - t) % radix
        if self.deterministic:
            _cells(self.num_states * len(new), "placed table")
            table = np.take(self._table, old, axis=1)
            return Automaton._dfa(arity, self.digit_bound, table, self.finals)
        srcs, codes, dsts = self._arc_arrays()
        order = np.argsort(old, kind="stable")
        ranked = old[order]  # an arc goes to every new code c with old[c] == its code
        pos, at = _ranges(np.searchsorted(ranked, codes, "left"), np.searchsorted(ranked, codes, "right"))
        return Automaton._nfa(
            arity, self.digit_bound, self.num_states, sorted(self.initial), sorted(self.finals),
            srcs[pos], order[at], dsts[pos],
        )

    def project(self, track: int) -> "Automaton":
        """Erase a track and close under leading all-zero letters."""
        if self.arity < 2:
            raise ArityMismatch("cannot project a single-track automaton")
        if not (0 <= track < self.arity):
            raise ValueError(f"track {track} outside 0..{self.arity - 1}")
        return self._subsets(erase=track, zero_closed=True)

    def zero_closure(self) -> "Automaton":
        """Close the language under adding/removing leading all-zero letters."""
        return self._subsets(zero_closed=True)

    def _subsets(self, erase=None, zero_closed=False, complete=False) -> "Automaton":
        """Subset construction, one chunk of a breadth-first level at a time.

        ``erase`` drops that track from every letter.  ``zero_closed``
        closes the language under leading all-zero letters: the start
        subset holds every state reachable by zero letters and loops on the
        zero letter, which is what a fresh start state with all their arcs
        and a zero self-loop amounts to; a bit after the states marks it.
        Each subset holds only states from which a final state can be
        reached, and is keyed exactly by its membership bitmap over them.
        """
        arity = self.arity - (erase is not None)
        size = (self.digit_bound + 1) ** arity
        n = self.num_states
        final = self._final_mask()
        useful = self._useful()
        start = np.array(sorted(self.initial), np.int64)
        if zero_closed:
            seen = np.zeros(n, bool)
            seen[start] = True
            frontier = start
            while frontier.size:
                _, codes, dsts = self._gather(frontier, erase)
                nxt = np.unique(dsts[codes == 0])
                frontier = nxt[~seen[nxt]].astype(np.int64)
                seen[frontier] = True
            start = np.flatnonzero(seen)
        start = start[useful[start]]
        if not start.size:  # the language is empty
            table = np.full((1, size), 0 if complete else -1, np.int32)
            return Automaton._dfa(arity, self.digit_bound, table, [])
        # Bitmap columns: one per useful state, then the zero-closure
        # marker, then one that the other targets and missing arcs fall into.
        kept = np.flatnonzero(useful)
        u = len(kept)
        column = np.full(n + 1, u + 1, np.int64)
        column[kept] = np.arange(u)
        start_row = np.zeros(u + 1, bool)
        start_row[column[start]] = True
        start_row[u] = zero_closed
        index = {np.packbits(start_row, bitorder="little").tobytes(): 0}
        members = [start]
        finals = [bool(final[start].any())]
        final = final[kept]
        degree = self.alphabet_size if self.deterministic else -(-len(self._arrays[1]) // max(1, n))
        per_chunk = max(1, 4 * _CHUNK // _cells(size * (u + 1), "subset bitmap"))
        blocks = []
        i = 0
        while i < len(members):
            j = min(len(members), i + per_chunk)
            while j > i + 1 and sum(len(m) for m in members[i:j]) * degree > _CHUNK:
                j = (i + j) // 2
            group = members[i:j]
            owner = np.repeat(np.arange(j - i), [len(m) for m in group])
            hit = np.zeros((j - i) * size * (u + 2), bool)  # a row per (subset, letter)
            hit[self._flat_targets(np.concatenate(group), owner, size, u + 2, column, erase)] = True
            hit = hit.reshape(-1, u + 2)[:, : u + 1]
            if zero_closed and i == 0:
                hit[0] = start_row
            packed = np.packbits(hit, axis=1, bitorder="little")
            live = np.flatnonzero(packed.any(axis=1))
            rows = packed[live]
            keys, first, inverse = np.unique(
                rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                return_index=True, return_inverse=True,
            )
            ids = np.empty(len(keys), np.int32)
            for k in np.argsort(first):
                key = keys[k].tobytes()
                sid = index.get(key)
                if sid is None:
                    sid = index[key] = len(members)
                    row = hit[live[first[k]], :u]
                    members.append(kept[row])
                    finals.append(bool((row & final).any()))
                ids[k] = sid
            _cells(len(members) * size, "subset table")
            block = np.full((j - i) * size, -1, np.int32)
            block[live] = ids[inverse.ravel()]
            blocks.append(block.reshape(j - i, size))
            i = j
        table = np.concatenate(blocks)
        if complete:
            table = _complete(table)
        finals += [False] * (table.shape[0] - len(finals))
        return Automaton._dfa(arity, self.digit_bound, table, np.flatnonzero(finals))

    def is_empty(self) -> bool:
        return self.shortest_witness() is None

    def shortest_witness(self) -> Optional[TupleWord]:
        """A shortest accepted word, or None when the language is empty.

        Of the shortest words, the one met first breadth first, from the
        initial states in order over ascending letters.
        """
        final = self._final_mask()
        frontier = np.array(sorted(self.initial), np.int64)
        if final[frontier].any():
            return ()
        parent = np.full(self.num_states, -1, np.int64)
        via = np.zeros(self.num_states, np.int64)
        seen = np.zeros(self.num_states, bool)
        seen[frontier] = True
        while frontier.size:
            pos, codes, dsts = self._gather(frontier)
            hits = np.flatnonzero(final[dsts])
            if hits.size:
                k = hits[0]
                word = [codes[k]]
                state = frontier[pos[k]]
                while parent[state] >= 0:
                    word.append(via[state])
                    state = parent[state]
                radix = self.digit_bound + 1
                return tuple(_letter(int(c), self.arity, radix) for c in reversed(word))
            fresh = np.flatnonzero(~seen[dsts])
            targets, first = np.unique(dsts[fresh], return_index=True)
            order = np.argsort(first)
            arcs = fresh[first[order]]  # the arc discovering each new state
            new = targets[order].astype(np.int64)
            parent[new] = frontier[pos[arcs]]
            via[new] = codes[arcs]
            seen[new] = True
            frontier = new
        return None

    def equivalent(self, other: "Automaton") -> bool:
        """Language equality: finality agrees on every reachable pair of the
        completed determinized automata."""
        self._require_compatible(other)
        a, b = self.determinize(complete=True), other.determinize(complete=True)
        _, pa, pb = _product_tables(a._table, b._table, 0, 0)
        return bool(np.array_equal(a._final_mask()[pa], b._final_mask()[pb]))

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
        arity = digit_bound = num_states = None
        initial: list[int] = []
        finals: list[int] = []
        srcs: list[int] = []
        letters: list[Letter] = []
        dsts: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "arity":
                arity = int(rest)
            elif key == "digit_bound":
                digit_bound = int(rest)
            elif key == "num_states":
                num_states = int(rest)
            elif key == "initial":
                initial = [int(t) for t in rest.split()]
            elif key == "final":
                finals = [int(t) for t in rest.split()]
            elif key == "trans":
                src_s, letter_s, dst_s = rest.split()
                if not (letter_s.startswith("(") and letter_s.endswith(")")):
                    raise ValueError(f"line {lineno}: bad letter {letter_s!r}")
                letter = tuple(int(t) for t in letter_s[1:-1].split(",") if t)
                srcs.append(int(src_s))
                letters.append(letter)
                dsts.append(int(dst_s))
            else:
                raise ValueError(f"line {lineno}: unknown field {key!r}")
        if arity is None or digit_bound is None or num_states is None:
            raise ValueError("missing arity/digit_bound/num_states header")
        self = cls.__new__(cls)
        self._load(arity, digit_bound, num_states, initial, finals, srcs, letters, dsts)
        return self

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


# -- lazy construction -------------------------------------------------------
#
# Recognizers describe automata by frames over packed states: each
# state is one int64 key, and a step takes a whole array of keys at once.
# A lazy automaton is any object with:
#     initial_keys() -> int64 array of the initial states' keys, in order
#     final(keys)    -> bool mask of the final keys
#     fanout         -> the grid cells one state's step works on, at most
#     step(keys)     -> (pos, codes, targets): every arc leaving keys[pos],
#                       grouped by ascending pos; the order within a state
#                       is the order in which its new targets are numbered


def from_lazy(lazy, arity: int, digit_bound: int) -> Automaton:
    """Materialize a lazily described NFA breadth first, one level at a
    time, keeping only the states from which a final state can be reached.

    Each level is stepped in chunks of at most ``_CHUNK`` grid cells, and
    its targets are numbered in one lookup, new keys in order of first
    occurrence: the ids come out as a state-by-state exploration would
    assign them.
    """
    index = _PairIndex()
    _, level = index.lookup(np.asarray(lazy.initial_keys(), np.int64))
    levels = [level]
    code_type = np.int32 if (digit_bound + 1) ** arity <= 1 << 31 else np.int64
    srcs, codes, dsts = [], [], []
    per_chunk = max(1, _CHUNK // lazy.fanout)
    count = 0  # states of the levels before this one
    while level.size:
        targets = []
        for lo in range(0, len(level), per_chunk):
            pos, code, target = lazy.step(level[lo : lo + per_chunk])
            srcs.append((count + lo + pos).astype(np.int32))
            codes.append(code.astype(code_type))
            targets.append(target)
        ids, level = index.lookup(np.concatenate(targets))
        dsts.append(ids.astype(np.int32))
        levels.append(level)
        count += len(levels[-2])
        _cells(count + len(level), "explored state count")
    keys = np.concatenate(levels)
    n = len(keys)
    _check_keys(n, arity, digit_bound)
    finals = np.flatnonzero(lazy.final(keys))
    srcs = np.concatenate(srcs)
    codes = np.concatenate(codes)
    dsts = np.concatenate(dsts)
    useful = _reach(n, dsts, srcs, finals)
    renumber = np.cumsum(useful) - 1
    keep = useful[srcs] & useful[dsts]
    initial = np.arange(len(levels[0]))
    return Automaton._nfa(
        arity,
        digit_bound,
        int(useful.sum()),
        renumber[initial[useful[initial]]],
        renumber[finals[useful[finals]]],
        renumber[srcs[keep]],
        codes[keep],
        renumber[dsts[keep]],
    )


def _minimize_dfa(dfa: Automaton) -> Automaton:
    """Moore refinement over the table completed by a virtual sink, then a
    canonical breadth-first renumbering, one level at a time."""
    n, size = dfa._table.shape
    sink = n
    table = np.vstack([np.where(dfa._table < 0, sink, dfa._table), np.full((1, size), sink)])
    table = table.astype(np.int32)
    block = np.append(dfa._final_mask(), False).astype(np.int32)
    num_blocks = len(np.unique(block))
    while True:
        sig = np.ascontiguousarray(np.column_stack([block, block[table]]))
        _, inverse = np.unique(sig.view(np.dtype((np.void, sig.shape[1] * 4))).ravel(),
                               return_inverse=True)
        block = inverse.ravel().astype(np.int32)
        count = int(block.max()) + 1
        if count == num_blocks:
            break
        num_blocks = count
    _, rep = np.unique(block, return_index=True)
    moves = block[table[rep]]  # block transition table
    number = np.full(num_blocks, -1, np.int64)
    start = block[next(iter(dfa.initial))]
    number[start] = 0
    level = np.array([start])
    order = [level]
    count = 1
    while level.size:
        succ = moves[level].ravel()
        fresh, first = np.unique(succ[number[succ] < 0], return_index=True)
        level = fresh[np.argsort(first)]
        number[level] = np.arange(count, count + len(level))
        count += len(level)
        order.append(level)
    order = np.concatenate(order)
    final = np.append(dfa._final_mask(), False)[rep[order]]
    return Automaton._dfa(dfa.arity, dfa.digit_bound, number[moves[order]], np.flatnonzero(final))
