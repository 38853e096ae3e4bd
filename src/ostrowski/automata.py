"""Multi-track finite automata over digit-tuple alphabets, held in integer arrays.

Letters are ``arity``-tuples of digits in ``{0, ..., digit_bound}``.  Words
are read most significant letter first.  Several digit words combine into
one tuple word by convolution: pad the shorter words with leading zeros,
then read off the tuples position by position.

Inside an automaton a letter is an integer code: the letter read as a
mixed-radix number in base ``digit_bound + 1`` with track 0 most
significant, so ascending codes are the lexicographic order of letters.
Every automaton holds its arcs in one form, CSR arrays: the arcs of state
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

Adding, reordering and identifying tracks is one gather of letter codes:
each new letter code reads as one old code, and an arc goes to every new
code reading as its own.

Products, subset constructions, reachability and minimization each have
two kernels that give the same arrays.  The array kernels advance a whole
breadth-first level at once in numpy, at a fixed cost of a few dozen numpy
calls per level; the per-state kernels (``..._small``) run one state at a
time in plain Python over the CSR arrays as lists (``_lists``), at a cost
per arc but none per level.  So the per-state kernel runs when its
operands hold at most ``_SMALL`` states plus arcs per breadth-first level:
``_levels`` records the levels of the construction that made an automaton
(1 when not known; ``_padded_word`` gives a numeral's chain its length).
Small automata, most of those a sentence composes, and deep ones, such as
the chain of a long numeral, take the per-state kernels; wide ones, such
as the adder's stages, the array kernels.  The crossover was measured by
timing both kernels on every call of the benchmark's operations and of
numeral chains: on the benchmark's own operations a size-only rule at
``_SMALL`` does about as well, and the level count is what keeps deep
chains off the array kernels' per-level cost.  Minimization is
Moore refinement in the array kernel, a numpy round over the successor
table per step of the longest distinguishing word, and Hopcroft's
partition refinement in the per-state kernel, where a split costs only
the states it moves; Moore rounds in Python would cost a pass over every
state per round.

One explorer, ``_explore``, numbers the states of every array kernel that
numbers them breadth first: lazy exploration (``from_lazy``), products,
the canonical renumbering of minimization and the shortest witness.  It
advances a whole level of int64 keys at once, in chunks that bound its
memory, numbers new keys in order of first occurrence, and holds its arcs
plus states under the ``_MAX_CELLS`` guard.  A product state is keyed
exactly by its pair of state ids, a minimized state by its block, and a
state of a lazily described automaton by the int64 key its recognizer
packs it into; the recognizer steps whole arrays of keys and hands back
letter codes.  Two array kernels keep their own levels: the subset
construction's, which keys a subset by the bytes of the sorted ranks of
its states, and ``_reach_array``, which marks the states reachable along
arcs without holding any (emptiness, and the trims).  Subset
constructions and ``from_lazy`` leave out the states that cannot reach a
final state, so dead pairs and dead guesses never inflate them.  A
difference (and so a complement) is a product whose right side moves to
its dead state where it lacks an arc.  Only the array minimization and
batch membership (``_accepts_all``) build a successor table, under the
same guard.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ArityMismatch, AutomatonTooLarge, DigitOutOfRange

Letter = tuple[int, ...]
TupleWord = tuple[Letter, ...]

_MAX_CELLS = 1 << 27  # largest table (states x letters), arc count or state count held
_CHUNK = 1 << 21  # array elements one step of a breadth-first level works on
_SMALL = 512  # states plus arcs per breadth-first level up to which the per-state kernels run
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    """Arcs are sorted and searched by the int64 key ``src * letters +
    code``, so also every letter code fits an int64; 2**64
    letters never do, and their count is not computed."""
    wide = digit_bound >= 1 and arity >= 64
    if wide or max(num_states, 1) * (digit_bound + 1) ** arity - 1 > _INT64_MAX:
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


@functools.lru_cache(maxsize=128)
def _placement(tracks: tuple[int, ...], arity: int, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The map of ``Automaton._place`` from new letter codes to old ones:
    the new codes in the order of the old code each reads as, and those old
    codes, so an arc goes to every new code c with old[c] == its code.  The
    map depends only on its arguments, so calls share it, read-only."""
    new = np.arange(_cells(radix**arity, "placed alphabet"))
    old = np.zeros_like(new)
    for t in tracks:
        old = old * radix + new // radix ** (arity - 1 - t) % radix
    order = np.argsort(old, kind="stable")
    ranked = old[order]
    order.flags.writeable = ranked.flags.writeable = False
    return order, ranked


def _csr(n: int, letters: int, srcs, codes, dsts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted, duplicate-free CSR arrays of the arcs (srcs[i], codes[i], dsts[i])."""
    srcs, codes, dsts = (np.asarray(a, np.int64) for a in (srcs, codes, dsts))
    key = srcs * letters + codes
    order = np.lexsort((dsts, key))
    key, srcs, codes, dsts = key[order], srcs[order], codes[order], dsts[order]
    keep = np.ones(len(order), bool)
    keep[1:] = (key[1:] != key[:-1]) | (dsts[1:] != dsts[:-1])
    srcs, codes, dsts = srcs[keep], codes[keep], dsts[keep]
    return np.searchsorted(srcs, np.arange(n + 1)), codes, dsts.astype(np.int32)


def _distinct(values) -> np.ndarray:
    """``np.unique(values)`` of a 1-D array by a sort: numpy's hash-based
    form imports ``numpy.ma`` on first use and is slower on int64 keys."""
    v = np.sort(np.asarray(values))
    keep = np.ones(len(v), bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _reach(n: int, srcs: np.ndarray, dsts: np.ndarray, seeds, levels: int) -> np.ndarray:
    """Mask of the states reachable from ``seeds`` along the arcs srcs -> dsts
    of an automaton whose construction met ``levels`` breadth-first levels."""
    if n + len(srcs) > _SMALL * levels:
        return _reach_array(n, srcs, dsts, seeds)
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, t in zip(srcs.tolist(), dsts.tolist()):
        adj[s].append(t)
    return np.array(_reach_small(adj, np.asarray(seeds, np.int64).tolist()), bool)


def _reach_array(n: int, srcs: np.ndarray, dsts: np.ndarray, seeds) -> np.ndarray:
    """``_reach`` a breadth-first level at a time."""
    adj = dsts[np.argsort(srcs)].astype(np.intp)  # gathered by index, so no cast per level
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    seen = np.zeros(n, bool)
    frontier = _distinct(np.asarray(seeds, np.int64))
    seen[frontier] = True
    while frontier.size:
        _, idx = _ranges(indptr[frontier], indptr[frontier + 1])
        met = np.zeros(n, bool)
        met[adj[idx]] = True
        frontier = np.flatnonzero(met & ~seen)
        seen[frontier] = True
    return seen


def _reach_small(adj: list[list[int]], seeds) -> list[bool]:
    """Which states are reachable from ``seeds`` along ``adj[s]``."""
    seen = [False] * len(adj)
    stack = []
    for s in seeds:
        if not seen[s]:
            seen[s] = True
            stack.append(s)
    while stack:
        for t in adj[stack.pop()]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return seen


def _state_set(states) -> frozenset[int]:
    return frozenset(states.tolist() if isinstance(states, np.ndarray) else map(int, states))


class _PairIndex:
    """Exact int32 ids of int64 keys, new keys numbered in order of first
    occurrence, by binary search in the sorted keys seen."""

    def __init__(self):
        self.keys = np.empty(0, np.int64)  # sorted
        self.ids = np.empty(0, np.int32)
        self.count = 0

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of ``keys`` and the keys seen for the first time, in order."""
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        ids = np.empty(len(keys), np.int32)
        ids[found] = self.ids[at[found]]
        missing = (~found).nonzero()[0]
        if not missing.size:
            return ids, missing
        fresh, first, inverse = np.unique(keys[missing], return_index=True, return_inverse=True)
        order = first.argsort()
        fresh_ids = np.empty(len(fresh), np.int32)
        fresh_ids[order] = np.arange(self.count, self.count + len(fresh), dtype=np.int32)
        self.count += len(fresh)
        ids[missing] = fresh_ids[inverse.ravel()]
        # merge the new keys into the sorted ones
        slot = np.searchsorted(self.keys, fresh) + np.arange(len(fresh))
        old = np.ones(len(self.keys) + len(fresh), bool)
        old[slot] = False
        merged_keys, merged_ids = np.empty(len(old), np.int64), np.empty(len(old), np.int32)
        merged_keys[slot], merged_ids[slot] = fresh, fresh_ids
        merged_keys[old], merged_ids[old] = self.keys, self.ids
        self.keys, self.ids = merged_keys, merged_ids
        return ids, fresh[order]


def _explore(starts, step, fanout: int):
    """Breadth-first exploration from the keys ``starts``, one level at a time.

    ``step(keys)`` gives every arc ``(pos, codes, targets)`` leaving
    ``keys[pos]``, grouped by ascending pos; a level is stepped in chunks of
    at most ``_CHUNK`` cells, ``fanout`` of them per key.  States are
    numbered in order of first occurrence, the starts first, then each
    level's targets in arc order: so over ascending letters the ids come out
    as a state-by-state exploration would assign them.  Returns the keys by
    id, the arcs (srcs, codes, dsts) in that order, with int32 ids, and the
    number of levels; arcs and states together stay within ``_MAX_CELLS``.
    """
    index = _PairIndex()
    _, level = index.lookup(np.asarray(starts, np.int64))
    levels, degrees, codes, dsts = [level], [], [], []
    per_chunk = max(1, _CHUNK // max(1, fanout))
    arcs = 0
    while level.size:
        targets = []
        for lo in range(0, len(level), per_chunk):
            keys = level[lo : lo + per_chunk]
            pos, code, target = step(keys)
            degrees.append(np.bincount(pos, minlength=len(keys)))
            codes.append(code)
            targets.append(target)
        ids, level = index.lookup(targets[0] if len(targets) == 1 else np.concatenate(targets))
        dsts.append(ids)
        levels.append(level)
        arcs += len(ids)
        _cells(arcs + index.count, "explored arcs and states")
    keys, none = np.concatenate(levels), [np.empty(0, np.int32)]
    srcs = np.repeat(np.arange(len(keys), dtype=np.int32), np.concatenate(degrees + none))
    return keys, srcs, np.concatenate(codes + none), np.concatenate(dsts + none), len(levels) - 1


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
        self._init(arity, digit_bound, num_states, initial, finals, srcs, codes, dsts, False)

    def _init(self, arity, digit_bound, num_states, initial, finals, srcs, codes, dsts, deterministic,
              levels: int = 1):
        self._set(arity, digit_bound, num_states, initial, finals, deterministic, levels)
        self._arrays = _csr(self.num_states, self.alphabet_size, srcs, codes, dsts)

    def _set(self, arity, digit_bound, num_states, initial, finals, deterministic, levels: int) -> None:
        self.arity = arity
        self.digit_bound = digit_bound
        self.num_states = int(num_states)
        self.initial = _state_set(initial)
        self.finals = _state_set(finals)
        self.deterministic = deterministic
        self._levels = max(1, levels)  # breadth-first levels its construction met; 1 when not known
        self._letter_codes: dict[Letter, int] = {}
        self._arcs_by_key = None
        self._arc_lists = None
        _check_keys(self.num_states, arity, digit_bound)

    @classmethod
    def _build(cls, arity, digit_bound, num_states, initial, finals, srcs, codes, dsts,
               deterministic: bool, levels: int = 1) -> "Automaton":
        """An automaton from arc arrays in any order.  A deterministic one has
        the initial state 0 and at most one arc per (state, code)."""
        self = cls.__new__(cls)
        self._init(arity, digit_bound, num_states, initial, finals, srcs, codes, dsts, deterministic, levels)
        return self

    @classmethod
    def _from_rows(cls, arity, digit_bound, initial, finals, indptr: list, codes: list, dsts: list,
                   deterministic: bool, levels: int) -> "Automaton":
        """An automaton from CSR lists already sorted by (src, code, dst) and
        free of duplicates, as the per-state kernels emit them; the lists
        are kept as its ``_lists()``."""
        self = cls.__new__(cls)
        self._set(arity, digit_bound, len(indptr) - 1, initial, finals, deterministic, levels)
        self._arrays = (np.array(indptr, np.int64), np.array(codes, np.int64), np.array(dsts, np.int32))
        self._arc_lists = (indptr, codes, dsts)
        return self

    @classmethod
    def _everything(cls, arity: int, digit_bound: int) -> "Automaton":
        """All tuple words: one final state looping on every letter."""
        codes = np.arange(_cells((digit_bound + 1) ** arity, "alphabet"))
        return cls._build(arity, digit_bound, 1, [0], [0], codes * 0, codes, codes * 0, True)

    @classmethod
    def _padded_word(cls, digit_bound: int, digits: Sequence[int]) -> "Automaton":
        """The single-track words ``0* w`` of the digit word ``w`` (no leading
        zero): a chain of ``len(w) + 1`` states, one per breadth-first level."""
        n = len(digits)
        return cls._build(1, digit_bound, n + 1, [0], [n], [0, *range(n)], [0, *digits],
                          [0, *range(1, n + 1)], True, n + 1)

    @property
    def alphabet_size(self) -> int:
        return (self.digit_bound + 1) ** self.arity

    def is_total(self) -> bool:
        return self.deterministic and self.num_transitions() == self.num_states * self.alphabet_size

    def num_transitions(self) -> int:
        return len(self._arrays[2])

    def _degree(self) -> int:
        """Arcs per state, rounded up: the cells one state's step works on."""
        return -(-self.num_transitions() // max(1, self.num_states))

    # -- array access ---------------------------------------------------------

    def _final_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_states, bool)
        mask[list(self.finals)] = True
        return mask

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as (srcs, codes, dsts), sorted by (src, code, dst)."""
        indptr, codes, dsts = self._arrays
        return np.repeat(np.arange(self.num_states), np.diff(indptr)), codes, dsts

    def _lists(self) -> tuple[list, list, list]:
        """The CSR arrays as Python lists, for the per-state kernels; made
        on first use."""
        if self._arc_lists is None:
            self._arc_lists = tuple(a.tolist() for a in self._arrays)
        return self._arc_lists

    def _size(self) -> int:
        """States plus arcs: what the choice between the kernels reads."""
        return self.num_states + self.num_transitions()

    def _useful(self) -> np.ndarray:
        """Mask of the states from which a final state can be reached."""
        srcs, _, dsts = self._arc_arrays()
        return _reach(self.num_states, dsts, srcs, sorted(self.finals), self._levels)

    def _gather(self, states: np.ndarray, erase: Optional[int] = None):
        """Arcs (pos, code, dst) leaving ``states[pos]``, in state order.

        With ``erase`` the codes are those of the letters without that track.
        """
        indptr, all_codes, all_dsts = self._arrays
        pos, idx = _ranges(indptr[states], indptr[states + 1])
        codes, dsts = all_codes[idx], all_dsts[idx]
        if erase is not None:
            low = (self.digit_bound + 1) ** (self.arity - 1 - erase)
            codes = codes // (low * (self.digit_bound + 1)) * low + codes % low
        return pos, codes, dsts

    def _accepts_all(self, tracks: Sequence[np.ndarray]) -> np.ndarray:
        """Membership of many equal-length words of a deterministic automaton:
        ``tracks[t][w, j]`` is the j-th digit (MSD first) of track t of word w.
        The words run through a successor table built here, whose last row,
        a dead state, takes every missing arc."""
        n, radix = self.num_states, self.digit_bound + 1
        _cells((n + 1) * self.alphabet_size, "membership table")
        table = np.full((n + 1, self.alphabet_size), n, np.intp)  # its entries index it again
        srcs, codes, dsts = self._arc_arrays()
        table[srcs, codes] = dsts
        codes = np.zeros(tracks[0].shape, np.int64)
        for digits in tracks:
            codes = codes * radix + digits
        state = np.zeros(codes.shape[0], np.int64)
        for column in codes.T:
            state = table[state, column]
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
        arcs = self._arc_dict()
        size = self.alphabet_size
        if self.deterministic:  # one state per letter
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
            srcs, codes, dsts = self._arc_arrays()
            keys = (srcs.astype(np.int64) * self.alphabet_size + codes).tolist()
            if self.deterministic:
                self._arcs_by_key = dict(zip(keys, dsts.tolist()))
            else:
                self._arcs_by_key = arcs = {}
                for key, dst in zip(keys, dsts.tolist()):
                    arcs.setdefault(key, []).append(dst)
        return self._arcs_by_key

    # -- structural operations ----------------------------------------------

    def determinize(self, complete: bool = True) -> "Automaton":
        """Subset construction; a deterministic automaton stays as it is.
        With ``complete`` a dead state takes every missing arc, so the result
        is total."""
        d = self if self.deterministic else self._subsets()
        if complete and not d.is_total():
            return Automaton._everything(d.arity, d.digit_bound)._product(d, lambda a, b: b, dead=True)
        return d

    def minimize(self, total: bool = True) -> "Automaton":
        """Minimal equivalent of a deterministic automaton, canonically
        numbered: total, or with ``total=False`` trim, without the dead state
        (the empty language keeps its initial state, with no arcs)."""
        if not self.deterministic:
            raise ValueError("minimize requires a deterministic automaton")
        n = self.num_states
        if total:  # refused before an array as long as the alphabet is made
            _cells((n + 1) * self.alphabet_size, "minimization table")
        work = n + ((n + 1) * self.alphabet_size if total else self.num_transitions())
        return (_minimize_small if work <= _SMALL * self._levels else _minimize_array)(self, total)

    def determinize_minimize(self, total: bool = True) -> "Automaton":
        """Equivalent deterministic minimal automaton, canonically numbered;
        total unless ``total=False``."""
        return self.determinize(complete=False).minimize(total)

    def complement(self) -> "Automaton":
        """Complement w.r.t. all tuple words over the alphabet, total."""
        return Automaton._everything(self.arity, self.digit_bound).difference(self)

    def intersect(self, other: "Automaton") -> "Automaton":
        """Product automaton over reachable state pairs."""
        return self._product(other, np.logical_and)

    def difference(self, other: "Automaton") -> "Automaton":
        """The words of ``self`` that ``other`` rejects: a product with
        ``other`` determinized, whose dead state is never built."""
        return self._product(other.determinize(complete=False), lambda a, b: a & ~b, dead=True)

    def _product(self, other: "Automaton", final, dead: bool = False) -> "Automaton":
        """Reachable pairs of states, explored breadth first: a pair moves on
        each letter both components move on, so it costs the arcs of its
        components and no letter more.  With ``dead`` (``other``
        deterministic) a letter only ``self`` reads moves ``other`` to a dead
        state without arcs, numbered ``other.num_states``.  ``final``
        combines the final masks of the components, pair by pair.
        """
        self._require_compatible(other)
        _check_keys(other.num_states + dead, self.arity, self.digit_bound)  # the dead state's keys too
        small = self._size() + other._size() <= _SMALL * max(self._levels, other._levels)
        return (self._product_small if small else self._product_array)(other, final, dead)

    def _product_array(self, other: "Automaton", final, dead: bool) -> "Automaton":
        """``_product`` a breadth-first level at a time, numbered by ``_explore``."""
        size = self.alphabet_size
        ia, ca, da = self._arrays
        sb, cb, db = other._arc_arrays()
        keys_b = np.append(sb * size + cb, -1)  # ascending, then one no letter matches
        nb = other.num_states + dead
        fa, fb = self._final_mask(), np.append(other._final_mask(), False)[:nb]  # the dead state rejects
        db = np.append(db, nb - 1)  # the dead state, where no arc matches

        def step(pairs):
            p, q = np.divmod(pairs, nb)
            pos, arc = _ranges(ia[p], ia[p + 1])
            want = q[pos] * size + ca[arc]
            first = np.searchsorted(keys_b[:-1], want)
            if other.deterministic:  # at most one arc of other matches
                hit = keys_b[first] == want
                if dead:  # every arc of self moves
                    first[~hit] = len(keys_b) - 1
                else:
                    pos, arc, first = pos[hit], arc[hit], first[hit]
                to_b = db[first]
            else:
                hit, match = _ranges(first, np.searchsorted(keys_b[:-1], want, "right"))
                pos, arc, to_b = pos[hit], arc[hit], db[match]
            return pos, ca[arc], da[arc].astype(np.int64) * nb + to_b

        starts = [p * nb + q for p in sorted(self.initial) for q in sorted(other.initial)]
        pairs, srcs, codes, dsts, levels = _explore(starts, step, self._degree())
        return Automaton._build(
            self.arity, self.digit_bound, len(pairs), range(len(starts)),
            np.flatnonzero(final(fa[pairs // nb], fb[pairs % nb])), srcs, codes, dsts,
            self.deterministic and other.deterministic, levels,
        )

    def _product_small(self, other: "Automaton", final, dead: bool) -> "Automaton":
        """``_product`` one pair at a time, numbering pairs on first sight: the
        order ``_explore`` numbers them in."""
        size = self.alphabet_size
        ia, ca, da = self._lists()
        arcs_b = other._arc_dict()
        nb = other.num_states + dead
        miss = other.num_states if dead else None  # where other goes on a letter it lacks
        pairs = [(p, q) for p in sorted(self.initial) for q in sorted(other.initial)]
        index = {p * nb + q: i for i, (p, q) in enumerate(pairs)}
        starts = len(pairs)
        level = [1] * starts  # of each pair
        single, deterministic = other.deterministic, self.deterministic and other.deterministic
        indptr, codes, dsts = [0], [], []
        for i, (p, q) in enumerate(pairs):  # also the pairs appended while it runs
            lo = len(codes)
            for c, d in zip(ca[ia[p] : ia[p + 1]], da[ia[p] : ia[p + 1]]):
                if single:
                    e = arcs_b.get(q * size + c, miss)
                    if e is None:
                        continue
                    targets = (e,)
                else:
                    targets = arcs_b.get(q * size + c, ())
                for e in targets:
                    j = index.setdefault(d * nb + e, len(pairs))
                    if j == len(pairs):
                        pairs.append((d, e))
                        level.append(level[i] + 1)
                    codes.append(c)
                    dsts.append(j)
            if not deterministic:  # several targets on one code
                row = sorted(zip(codes[lo:], dsts[lo:]))
                codes[lo:], dsts[lo:] = [c for c, _ in row], [j for _, j in row]
            indptr.append(len(codes))
            _cells(len(codes) + len(pairs), "explored arcs and states")
        p, q = np.array(pairs, np.int64).reshape(-1, 2).T
        fb = np.append(other._final_mask(), False)  # the dead state rejects
        finals = np.flatnonzero(final(self._final_mask()[p], fb[q]))
        return Automaton._from_rows(self.arity, self.digit_bound, range(starts), finals, indptr, codes, dsts,
                                    deterministic, max(level, default=1))

    def union(self, other: "Automaton") -> "Automaton":
        """Disjoint union (nondeterministic)."""
        self._require_compatible(other)
        off = self.num_states
        sa, ca, da = self._arc_arrays()
        sb, cb, db = other._arc_arrays()
        return Automaton._build(
            self.arity, self.digit_bound, off + other.num_states,
            sorted(self.initial) + [s + off for s in sorted(other.initial)],
            sorted(self.finals) + [s + off for s in sorted(other.finals)],
            np.concatenate([sa, sb + off]), np.concatenate([ca, cb]), np.concatenate([da, db + off]), False,
            max(self._levels, other._levels),
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
        on them survive.  New letter code c reads as old code ``old[c]``, and
        an arc goes to every new code reading as its own, so a deterministic
        automaton stays deterministic."""
        order, ranked = _placement(tuple(tracks), arity, self.digit_bound + 1)
        srcs, codes, dsts = self._arc_arrays()
        lo, hi = np.searchsorted(ranked, codes, "left"), np.searchsorted(ranked, codes, "right")
        _cells(int((hi - lo).sum()), "placed arcs")
        pos, at = _ranges(lo, hi)
        return Automaton._build(
            arity, self.digit_bound, self.num_states, sorted(self.initial), sorted(self.finals),
            srcs[pos], order[at], dsts[pos], self.deterministic, self._levels,
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

    def _subsets(self, erase=None, zero_closed=False) -> "Automaton":
        """Subset construction, breadth first over ascending letters.

        ``erase`` drops that track from every letter.  ``zero_closed``
        closes the language under leading all-zero letters: the start
        subset holds every state reachable by zero letters and loops on the
        zero letter, which is what a fresh start state with all their arcs
        and a zero self-loop amounts to; a mark tells it from the subset of
        the same states without the loop.  Each subset holds only states
        from which a final state can be reached, so only the live (subset,
        letter) pairs, those with an arc into such a state, are met, and the
        work follows the arcs.  The result is deterministic and trim.
        """
        small = self._size() <= _SMALL * self._levels
        return (self._subsets_small if small else self._subsets_array)(erase, zero_closed)

    def _subsets_array(self, erase, zero_closed: bool) -> "Automaton":
        """``_subsets`` one chunk of a breadth-first level at a time."""
        arity = self.arity - (erase is not None)
        size = (self.digit_bound + 1) ** arity
        n = self.num_states
        final = self._final_mask()
        useful = self._useful()
        start = np.array(sorted(self.initial), np.int64)
        if zero_closed:
            srcs, codes, dsts = self._gather(np.arange(n), erase)
            zero = codes == 0
            start = np.flatnonzero(_reach(n, srcs[zero], dsts[zero], start, self._levels))
        start = start[useful[start]]
        if not start.size:  # the language is empty
            none = np.empty(0, np.int64)
            return Automaton._build(arity, self.digit_bound, 1, [0], [], none, none, none, True)
        # A subset is keyed by the bytes of the sorted ranks of its states
        # among the useful ones, then rank u marking the zero-closed start;
        # an arc into any other state is dropped.
        kept = np.flatnonzero(useful)
        u = len(kept)
        rank = np.full(n, u, np.int64)
        rank[kept] = np.arange(u)
        start_key = np.append(rank[start], u) if zero_closed else rank[start]
        index = {start_key.astype(np.int32).tobytes(): 0}
        degree = np.diff(self._arrays[0])
        members, load, finals = [start], [int(degree[start].sum())], [bool(final[start].any())]
        level = [1]  # of each subset
        load_of, final_of = np.append(degree[kept], 0), np.append(final[kept], False)  # by rank
        _check_keys(u + 1, arity, self.digit_bound)  # a pair (row, rank) packs into an int64
        budget = max(1, min(_CHUNK, _INT64_MAX // (size * (u + 1))))
        srcs, codes_out, dsts = [], [], []
        arcs = i = 0
        while i < len(members):
            j, work = i + 1, load[i]  # subsets whose arcs fit the budget
            while j < len(members) and j - i < budget and work + load[j] <= budget:
                work += load[j]
                j += 1
            group = members[i:j]
            owner = np.repeat(np.arange(j - i), [len(m) for m in group])
            pos, codes, targets = self._gather(np.concatenate(group), erase)
            ranks = rank[targets]
            live = ranks < u
            # the distinct pairs (row, rank), a row per (subset, letter)
            pairs = (owner[pos[live]] * size + codes[live]) * (u + 1) + ranks[live]
            if zero_closed and i == 0:  # the start subset loops on the zero letter
                pairs = np.concatenate([start_key, pairs])
            rows, ranks = np.divmod(_distinct(pairs), u + 1)
            head = np.flatnonzero(np.diff(rows, prepend=-1))  # the first pair of each row
            rows = rows[head]
            row_load = np.add.reduceat(load_of[ranks], head).tolist()
            row_final = np.logical_or.reduceat(final_of[ranks], head).tolist()
            bounds = np.append(head, len(ranks)).tolist()
            keys = ranks.astype(np.int32).tobytes()
            owners = i + rows // size
            ids = []
            for r, (lo, hi, owner) in enumerate(zip(bounds, bounds[1:], owners.tolist())):
                key = keys[4 * lo : 4 * hi]
                sid = index.get(key)
                if sid is None:
                    sid = index[key] = len(members)
                    members.append(kept[ranks[lo:hi]])
                    load.append(row_load[r])
                    finals.append(row_final[r])
                    level.append(level[owner] + 1)
                ids.append(sid)
            srcs.append(owners)
            codes_out.append(rows % size)
            dsts.append(np.array(ids, np.int64))
            arcs += len(rows)
            _cells(arcs + len(members), "subset arcs and states")
            i = j
        return Automaton._build(
            arity, self.digit_bound, len(members), [0], np.flatnonzero(finals),
            np.concatenate(srcs), np.concatenate(codes_out), np.concatenate(dsts), True, level[-1],
        )

    def _subsets_small(self, erase, zero_closed: bool) -> "Automaton":
        """``_subsets`` one subset at a time, numbering subsets on first sight
        over ascending letters.  A subset is keyed by the tuple of its sorted
        states, and the zero-closed start by that tuple with ``num_states``
        appended."""
        arity = self.arity - (erase is not None)
        n = self.num_states
        indptr, codes, dsts = self._lists()
        if erase is not None:
            low = (self.digit_bound + 1) ** (self.arity - 1 - erase)
            high = low * (self.digit_bound + 1)
            codes = [c // high * low + c % low for c in codes]
        back: list[list[int]] = [[] for _ in range(n)]
        for s in range(n):
            for t in dsts[indptr[s] : indptr[s + 1]]:
                back[t].append(s)
        useful = _reach_small(back, self.finals)
        start = sorted(self.initial)
        if zero_closed:
            zero = [[t for k, t in enumerate(dsts[indptr[s] : indptr[s + 1]], indptr[s]) if codes[k] == 0]
                    for s in range(n)]
            start = [s for s, hit in enumerate(_reach_small(zero, start)) if hit]
        start = [s for s in start if useful[s]]
        if not start:  # the language is empty
            return Automaton._from_rows(arity, self.digit_bound, [0], [], [0, 0], [], [], True, 1)
        _check_keys(sum(useful) + 1, arity, self.digit_bound)  # what the array kernel's keys refuse
        start_key = (*start, n) if zero_closed else tuple(start)
        index = {start_key: 0}
        members: list = [start]
        level = [1]  # of each subset
        finals, indptr_out, codes_out, dsts_out = [], [0], [], []
        for i, group in enumerate(members):  # also the subsets appended while it runs
            if not self.finals.isdisjoint(group):
                finals.append(i)
            moves: dict[int, set[int]] = {}
            for s in group:
                for k in range(indptr[s], indptr[s + 1]):
                    if useful[dsts[k]]:
                        moves.setdefault(codes[k], set()).add(dsts[k])
            keys = {c: tuple(sorted(targets)) for c, targets in moves.items()}
            if zero_closed and i == 0:  # its zero targets are in it, and it loops on the zero letter
                keys[0] = start_key
            for c in sorted(keys):
                sid = index.setdefault(keys[c], len(members))
                if sid == len(members):
                    members.append(keys[c])
                    level.append(level[i] + 1)
                codes_out.append(c)
                dsts_out.append(sid)
            indptr_out.append(len(codes_out))
            _cells(len(codes_out) + len(members), "subset arcs and states")
        return Automaton._from_rows(arity, self.digit_bound, [0], finals, indptr_out, codes_out, dsts_out, True,
                                    level[-1])

    def is_empty(self) -> bool:
        srcs, _, dsts = self._arc_arrays()
        reached = _reach(self.num_states, srcs, dsts, sorted(self.initial), self._levels)
        return not (reached & self._final_mask()).any()

    def shortest_witness(self) -> Optional[TupleWord]:
        """A shortest accepted word, or None when the language is empty.

        Of the shortest words, the one met first breadth first, from the
        initial states in order over ascending letters: on a deterministic
        automaton, the lexicographically least.  It is the path of arcs
        that first met each state, back from the final state met first.
        """
        start = sorted(self.initial)
        states, srcs, codes, dsts, _ = _explore(start, self._gather, self._degree())
        hits = np.flatnonzero(self._final_mask()[states])
        if not hits.size:
            return None
        met, first = np.unique(dsts, return_index=True)
        via = np.full(len(states), -1, np.int64)
        via[met] = first  # the arc that first met each state
        word, state = [], hits[0]
        while state >= len(start):
            word.append(int(codes[via[state]]))
            state = srcs[via[state]]
        return tuple(_letter(c, self.arity, self.digit_bound + 1) for c in reversed(word))

    def equivalent(self, other: "Automaton") -> bool:
        """Language equality: neither difference accepts a word."""
        a, b = self.determinize(complete=False), other.determinize(complete=False)
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
        arity = digit_bound = num_states = None
        initial: list[int] = []
        finals: list[int] = []
        transitions: dict[int, dict[Letter, list[int]]] = {}
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
                transitions.setdefault(int(src_s), {}).setdefault(letter, []).append(int(dst_s))
            else:
                raise ValueError(f"line {lineno}: unknown field {key!r}")
        if arity is None or digit_bound is None or num_states is None:
            raise ValueError("missing arity/digit_bound/num_states header")
        return cls(arity, digit_bound, num_states, initial, finals, transitions)

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
    """Materialize a lazily described NFA with ``_explore``, keyed by the
    recognizer's keys, then keep only the states from which a final state
    can be reached (a backward ``_reach`` over the arcs).
    """
    starts = np.asarray(lazy.initial_keys(), np.int64)
    keys, srcs, codes, dsts, levels = _explore(starts, lazy.step, lazy.fanout)
    n = len(keys)
    _check_keys(n, arity, digit_bound)
    finals = np.flatnonzero(lazy.final(keys))
    useful = _reach(n, dsts, srcs, finals, levels)
    renumber = np.cumsum(useful) - 1
    keep = useful[srcs] & useful[dsts]
    initial = np.arange(len(_distinct(starts)))
    return Automaton._build(
        arity, digit_bound, int(useful.sum()), renumber[initial[useful[initial]]],
        renumber[finals[useful[finals]]], renumber[srcs[keep]], codes[keep], renumber[dsts[keep]], False,
        levels,
    )


# -- minimization ----------------------------------------------------------------


def _minimize_array(dfa: Automaton, total: bool) -> Automaton:
    """Moore refinement over the successor table completed by a virtual dead
    state, then a canonical renumbering of the blocks by ``_explore``.

    The total form keeps the block of the dead state; the trim form drops
    it with every arc into it, and its table takes only the columns of the
    codes some arc reads, since every other code leads to the dead state.
    """
    n = dfa.num_states
    srcs, codes, dsts = dfa._arc_arrays()
    cols = np.arange(dfa.alphabet_size) if total else _distinct(codes)
    _cells((n + 1) * len(cols), "minimization table")
    table = np.full((n + 1, len(cols)), n, np.intp)  # table and block ids index, so no cast per round
    table[srcs, np.searchsorted(cols, codes)] = dsts
    block = np.append(dfa._final_mask(), False).astype(np.intp)
    num_blocks = 1 + int(block.max() != block.min())
    sig = np.empty((n + 1, len(cols) + 1), np.int32)
    rows = sig.view(np.dtype((np.void, sig.shape[1] * 4))).ravel()  # a state's signature
    while True:
        sig[:, 0], sig[:, 1:] = block, block[table]
        _, inverse = np.unique(rows, return_inverse=True)
        block = inverse.ravel()
        count = int(block.max()) + 1
        if count == num_blocks:
            break
        num_blocks = count
    rep = np.empty(num_blocks, np.int64)
    rep[block] = np.arange(n + 1)  # a state of each block: all move alike
    moves = block[table[rep]]  # block transition table; its entries index as keys
    dead = block[n]

    def step(blocks):  # arcs by column, codes only at the end
        rows = moves[blocks]
        pos, col = (rows >= 0 if total else rows != dead).nonzero()
        return pos, col, rows[pos, col]

    order, srcs, col, dsts, levels = _explore([block[next(iter(dfa.initial))]], step, len(cols))
    final = np.append(dfa._final_mask(), False)[rep[order]]
    return Automaton._build(dfa.arity, dfa.digit_bound, len(order), [0], np.flatnonzero(final),
                            srcs, cols[col], dsts, True, levels)


def _minimize_small(dfa: Automaton, total: bool) -> Automaton:
    """``Automaton.minimize`` by partition refinement over the arcs
    (Hopcroft), then the canonical renumbering of ``_minimize_array``.

    The DFA is completed by a dead state, numbered ``n``, that takes every
    missing arc.  A waiting block splits the others: it marks the states
    with an arc into it on one letter, and the marked states of a block
    move to a new block, so a split costs only them.  When a waiting
    block splits, both halves wait; when another one splits, either half
    may wait, and the smaller one does unless it holds the dead state.
    So the dead state's block never waits, and no arc into the dead
    state, most of which are not built, is ever read.
    """
    n = dfa.num_states
    indptr, codes, dsts = dfa._lists()
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
    level = [1]  # of each block met
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
                level.append(level[i] + 1)
            codes_out.append(c)
            dsts_out.append(j)
        indptr_out.append(len(codes_out))
    return Automaton._from_rows(dfa.arity, dfa.digit_bound, [0], out_finals, indptr_out, codes_out, dsts_out,
                                True, level[-1])
