"""Multi-track nondeterministic finite automata over digit-tuple alphabets.

Letters are ``arity``-tuples of digits in ``{0, ..., digit_bound}``.  Words
are read most significant letter first.  Several digit words combine into
one tuple word by convolution: pad the shorter words with leading zeros,
then read off the tuples position by position.

The toolkit provides the standard closure operations (boolean ops,
projection, cylindrification, determinization, minimization) with two
conventions that matter for numeration languages:

* projection closes the result under adding and removing leading all-zero
  letters, so ``L = 0*L`` and padding conventions compose;
* minimization renumbers states canonically (breadth-first from the
  initial state over lexicographically sorted letters), so rebuilding a
  construction yields bit-identical output.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import ArityMismatch, DigitOutOfRange

Letter = tuple[int, ...]
TupleWord = tuple[Letter, ...]


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


class Automaton:
    """A finite automaton with dense integer states.

    ``transitions`` maps ``src -> {letter -> (dst, ...)}``.
    """

    def __init__(
        self,
        arity: int,
        digit_bound: int,
        num_states: int,
        initial: Iterable[int],
        finals: Iterable[int],
        transitions: dict[int, dict[Letter, tuple[int, ...]]],
        _validate: bool = True,
    ):
        self.arity = arity
        self.digit_bound = digit_bound
        self.num_states = num_states
        self.initial = frozenset(initial)
        self.finals = frozenset(finals)
        self.transitions = transitions
        if _validate:
            self._validate()
        self.deterministic = self._check_deterministic()

    def _validate(self) -> None:
        for s in self.initial | self.finals:
            if not (0 <= s < self.num_states):
                raise ValueError(f"state {s} out of range")
        for src, arcs in self.transitions.items():
            if not (0 <= src < self.num_states):
                raise ValueError(f"state {src} out of range")
            for letter, dsts in arcs.items():
                if len(letter) != self.arity:
                    raise ArityMismatch(f"letter {letter} has arity {len(letter)}, want {self.arity}")
                for d in letter:
                    if d < 0 or d > self.digit_bound:
                        raise DigitOutOfRange(f"digit {d} outside 0..{self.digit_bound}")
                for t in dsts:
                    if not (0 <= t < self.num_states):
                        raise ValueError(f"state {t} out of range")

    def _check_deterministic(self) -> bool:
        if len(self.initial) != 1:
            return False
        return all(
            len(dsts) <= 1 for arcs in self.transitions.values() for dsts in arcs.values()
        )

    @property
    def alphabet_size(self) -> int:
        return (self.digit_bound + 1) ** self.arity

    def is_total(self) -> bool:
        if not self.deterministic:
            return False
        return all(
            len(self.transitions.get(s, {})) == self.alphabet_size
            for s in range(self.num_states)
        )

    def num_transitions(self) -> int:
        return sum(len(dsts) for arcs in self.transitions.values() for dsts in arcs.values())

    # -- run/acceptance ----------------------------------------------------

    def step(self, states: frozenset[int], letter: Letter) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out.update(self.transitions.get(s, {}).get(letter, ()))
        return frozenset(out)

    def accepts(self, word: TupleWord) -> bool:
        if self.deterministic:
            state = next(iter(self.initial))
            for letter in word:
                if len(letter) != self.arity:
                    raise ArityMismatch(
                        f"letter {letter} has arity {len(letter)}, want {self.arity}"
                    )
                dsts = self.transitions.get(state, {}).get(letter)
                if not dsts:
                    return False
                state = dsts[0]
            return state in self.finals
        current = self.initial
        for letter in word:
            if len(letter) != self.arity:
                raise ArityMismatch(f"letter {letter} has arity {len(letter)}, want {self.arity}")
            if not current:
                return False
            current = self.step(current, letter)
        return bool(current & self.finals)

    # -- structural operations ----------------------------------------------

    def determinize(self, complete: bool = True) -> "Automaton":
        """Subset construction.  With ``complete`` a sink makes the result total."""
        return determinize_lazy(
            _ExplicitLazy(self), self.arity, self.digit_bound, complete=complete
        )

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
        return Automaton(
            d.arity,
            d.digit_bound,
            d.num_states,
            d.initial,
            frozenset(range(d.num_states)) - d.finals,
            d.transitions,
            _validate=False,
        )

    def intersect(self, other: "Automaton") -> "Automaton":
        """Product automaton over reachable state pairs."""
        self._require_compatible(other)
        pairs: dict[tuple[int, int], int] = {}
        trans: dict[int, dict[Letter, tuple[int, ...]]] = {}
        queue = []
        for p in sorted(self.initial):
            for q in sorted(other.initial):
                pairs[(p, q)] = len(pairs)
                queue.append((p, q))
        for p, q in queue:
            src = pairs[(p, q)]
            arcs_p = self.transitions.get(p, {})
            arcs_q = other.transitions.get(q, {})
            arcs: dict[Letter, tuple[int, ...]] = {}
            for letter in sorted(set(arcs_p) & set(arcs_q)):
                dsts = []
                for tp in arcs_p[letter]:
                    for tq in arcs_q[letter]:
                        key = (tp, tq)
                        if key not in pairs:
                            pairs[key] = len(pairs)
                            queue.append(key)
                        dsts.append(pairs[key])
                arcs[letter] = tuple(sorted(set(dsts)))
            if arcs:
                trans[src] = arcs
        finals = [
            i for (p, q), i in pairs.items() if p in self.finals and q in other.finals
        ]
        return Automaton(
            self.arity,
            self.digit_bound,
            len(pairs),
            range(len(self.initial) * len(other.initial)),
            finals,
            trans,
            _validate=False,
        )

    def union(self, other: "Automaton") -> "Automaton":
        """Disjoint union (nondeterministic)."""
        self._require_compatible(other)
        off = self.num_states
        trans = {s: dict(arcs) for s, arcs in self.transitions.items()}
        for s, arcs in other.transitions.items():
            trans[s + off] = {
                letter: tuple(t + off for t in dsts) for letter, dsts in arcs.items()
            }
        return Automaton(
            self.arity,
            self.digit_bound,
            off + other.num_states,
            self.initial | {s + off for s in other.initial},
            self.finals | {s + off for s in other.finals},
            trans,
            _validate=False,
        )

    def cylindrify(self, position: int) -> "Automaton":
        """Insert a free track at ``position`` (0-based) of every letter."""
        if not (0 <= position <= self.arity):
            raise ValueError(f"track position {position} outside 0..{self.arity}")
        rng = range(self.digit_bound + 1)
        trans: dict[int, dict[Letter, tuple[int, ...]]] = {}
        for src, arcs in self.transitions.items():
            new_arcs = {}
            for letter, dsts in arcs.items():
                for d in rng:
                    new_arcs[letter[:position] + (d,) + letter[position:]] = dsts
            trans[src] = new_arcs
        return Automaton(
            self.arity + 1,
            self.digit_bound,
            self.num_states,
            self.initial,
            self.finals,
            trans,
            _validate=False,
        )

    def project(self, track: int) -> "Automaton":
        """Erase a track and close under leading all-zero letters."""
        if self.arity < 2:
            raise ArityMismatch("cannot project a single-track automaton")
        if not (0 <= track < self.arity):
            raise ValueError(f"track {track} outside 0..{self.arity - 1}")
        trans: dict[int, dict[Letter, tuple[int, ...]]] = {}
        for src, arcs in self.transitions.items():
            new_arcs: dict[Letter, set[int]] = {}
            for letter, dsts in arcs.items():
                new_arcs.setdefault(letter[:track] + letter[track + 1 :], set()).update(dsts)
            trans[src] = {letter: tuple(sorted(d)) for letter, d in new_arcs.items()}
        erased = Automaton(
            self.arity - 1,
            self.digit_bound,
            self.num_states,
            self.initial,
            self.finals,
            trans,
            _validate=False,
        )
        return erased.zero_closure()

    def zero_closure(self) -> "Automaton":
        """Close the language under adding/removing leading all-zero letters."""
        zero = (0,) * self.arity
        zreach = _closure(
            self.initial, lambda s: self.transitions.get(s, {}).get(zero, ())
        )
        fresh = self.num_states
        trans = {s: dict(arcs) for s, arcs in self.transitions.items()}
        fresh_arcs: dict[Letter, set[int]] = {zero: {fresh}}
        for s in zreach:
            for letter, dsts in self.transitions.get(s, {}).items():
                fresh_arcs.setdefault(letter, set()).update(dsts)
        trans[fresh] = {letter: tuple(sorted(d)) for letter, d in fresh_arcs.items()}
        finals = set(self.finals)
        if zreach & self.finals:
            finals.add(fresh)
        return Automaton(
            self.arity,
            self.digit_bound,
            self.num_states + 1,
            {fresh},
            finals,
            trans,
            _validate=False,
        )

    def is_empty(self) -> bool:
        return self.shortest_witness() is None

    def shortest_witness(self) -> Optional[TupleWord]:
        """A shortest accepted word, or None when the language is empty."""
        if self.initial & self.finals:
            return ()
        seen = set(self.initial)
        frontier: list[tuple[int, TupleWord]] = [(s, ()) for s in sorted(self.initial)]
        while frontier:
            nxt: list[tuple[int, TupleWord]] = []
            for s, word in frontier:
                for letter in sorted(self.transitions.get(s, {})):
                    for t in self.transitions[s][letter]:
                        if t in self.finals:
                            return word + (letter,)
                        if t not in seen:
                            seen.add(t)
                            nxt.append((t, word + (letter,)))
            frontier = nxt
        return None

    def equivalent(self, other: "Automaton") -> bool:
        """Language equality via synchronized subset exploration."""
        self._require_compatible(other)
        start = (frozenset(self.initial), frozenset(other.initial))
        seen = {start}
        queue = [start]
        while queue:
            sa, sb = queue.pop()
            if bool(sa & self.finals) != bool(sb & other.finals):
                return False
            letters = set()
            for s in sa:
                letters.update(self.transitions.get(s, {}))
            for s in sb:
                letters.update(other.transitions.get(s, {}))
            for letter in letters:
                key = (self.step(sa, letter), other.step(sb, letter))
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
        return True

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
        triples = []
        for src in sorted(self.transitions):
            for letter in sorted(self.transitions[src]):
                for dst in self.transitions[src][letter]:
                    triples.append((src, letter, dst))
        triples.sort()
        for src, letter, dst in triples:
            lines.append(f"trans {src} ({','.join(str(d) for d in letter)}) {dst}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Automaton":
        arity = digit_bound = num_states = None
        initial: list[int] = []
        finals: list[int] = []
        trans: dict[int, dict[Letter, list[int]]] = {}
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
                trans.setdefault(int(src_s), {}).setdefault(letter, []).append(int(dst_s))
            else:
                raise ValueError(f"line {lineno}: unknown field {key!r}")
        if arity is None or digit_bound is None or num_states is None:
            raise ValueError("missing arity/digit_bound/num_states header")
        transitions = {
            src: {letter: tuple(sorted(dsts)) for letter, dsts in arcs.items()}
            for src, arcs in trans.items()
        }
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
# Recognizer builders describe automata by successor rules over structured
# (hashable) states; these helpers explore them breadth-first.  A lazy
# automaton is any object with:
#     initial_states() -> iterable of hashable states
#     is_final(state)  -> bool
#     successors(state) -> iterable of (letter, state)


class _ExplicitLazy:
    def __init__(self, a: Automaton):
        self.a = a

    def initial_states(self):
        return sorted(self.a.initial)

    def is_final(self, s) -> bool:
        return s in self.a.finals

    def successors(self, s):
        for letter, dsts in self.a.transitions.get(s, {}).items():
            for t in dsts:
                yield letter, t


def from_lazy(lazy, arity: int, digit_bound: int) -> Automaton:
    """Materialize a lazily-described NFA by breadth-first exploration,
    keeping only the states both reachable and co-reachable."""
    ids: dict[Hashable, int] = {}
    order: list[Hashable] = []

    def intern(state) -> int:
        sid = ids.get(state)
        if sid is None:
            sid = len(order)
            ids[state] = sid
            order.append(state)
        return sid

    initial = [intern(s) for s in lazy.initial_states()]
    srcs: list[int] = []
    lets: list[Letter] = []
    dsts: list[int] = []
    letter_cache: dict[Letter, Letter] = {}
    i = 0
    while i < len(order):
        state = order[i]
        src = i
        i += 1
        for letter, target in lazy.successors(state):
            letter = letter_cache.setdefault(letter, letter)
            srcs.append(src)
            lets.append(letter)
            dsts.append(intern(target))
    finals = [ids[s] for s in order if lazy.is_final(s)]
    useful = _useful_states(len(order), initial, finals, srcs, dsts)
    remap = {s: i for i, s in enumerate(sorted(useful))}
    transitions: dict[int, dict[Letter, list[int]]] = {}
    for src, letter, dst in zip(srcs, lets, dsts):
        if src in remap and dst in remap:
            transitions.setdefault(remap[src], {}).setdefault(letter, []).append(remap[dst])
    initial = [remap[s] for s in initial if s in remap]
    finals = [remap[s] for s in finals if s in remap]
    packed = {
        src: {letter: tuple(sorted(set(d))) for letter, d in arcs.items()}
        for src, arcs in transitions.items()
    }
    return Automaton(arity, digit_bound, len(remap), initial, finals, packed, _validate=False)


def _useful_states(n, initial, finals, srcs, dsts) -> set[int]:
    """The states both reachable and co-reachable."""
    adj: list[list[int]] = [[] for _ in range(n)]
    radj: list[list[int]] = [[] for _ in range(n)]
    for s, t in zip(srcs, dsts):
        adj[s].append(t)
        radj[t].append(s)
    fwd = _closure(initial, adj.__getitem__)
    return _closure((s for s in finals if s in fwd), lambda s: (t for t in radj[s] if t in fwd))


def determinize_lazy(lazy, arity: int, digit_bound: int, *, complete: bool = True) -> Automaton:
    """Subset construction over a lazy NFA; canonical BFS state numbering."""
    start = frozenset(lazy.initial_states())
    ids: dict[frozenset, int] = {start: 0}
    order = [start]
    trans: dict[int, dict[Letter, tuple[int, ...]]] = {}
    succ_cache: dict = {}
    i = 0
    while i < len(order):
        subset = order[i]
        src = i
        i += 1
        by_letter: dict[Letter, set] = {}
        for state in subset:
            moves = succ_cache.get(state)
            if moves is None:
                moves = list(lazy.successors(state))
                succ_cache[state] = moves
            for letter, target in moves:
                by_letter.setdefault(letter, set()).add(target)
        arcs = {}
        for letter in sorted(by_letter):
            subset2 = frozenset(by_letter[letter])
            sid = ids.get(subset2)
            if sid is None:
                sid = len(order)
                ids[subset2] = sid
                order.append(subset2)
            arcs[letter] = (sid,)
        trans[src] = arcs
    finals = [i for i, subset in enumerate(order) if any(lazy.is_final(s) for s in subset)]
    n = len(order)
    if complete:
        all_letters = list(itertools.product(range(digit_bound + 1), repeat=arity))
        sink = ids.get(frozenset())
        if sink is None and any(len(trans.get(s, {})) < len(all_letters) for s in range(n)):
            sink = n
            n += 1
            trans[sink] = {}
        if sink is not None:
            for src in range(n):
                arcs = trans.setdefault(src, {})
                for letter in all_letters:
                    arcs.setdefault(letter, (sink,))
    return Automaton(arity, digit_bound, n, [0], finals, trans, _validate=False)


def _minimize_dfa(dfa: Automaton) -> Automaton:
    """Moore refinement over the completed transition table (numpy row hashing)."""
    import numpy as np

    all_letters = list(itertools.product(range(dfa.digit_bound + 1), repeat=dfa.arity))
    letter_index = {letter: i for i, letter in enumerate(all_letters)}
    n = dfa.num_states
    sink = n  # virtual sink completes the table
    table = np.full((n + 1, len(all_letters)), sink, dtype=np.int32)
    for src, arcs in dfa.transitions.items():
        row = table[src]
        for letter, dsts in arcs.items():
            if dsts:
                row[letter_index[letter]] = dsts[0]
    block = np.zeros(n + 1, dtype=np.int32)
    for s in dfa.finals:
        block[s] = 1
    num_blocks = len(np.unique(block))
    while True:
        sig = np.column_stack([block, block[table]])
        _, inverse = np.unique(sig, axis=0, return_inverse=True)
        block = inverse.astype(np.int32)
        count = len(np.unique(block))
        if count == num_blocks:
            break
        num_blocks = count
    rep: dict[int, int] = {}
    for s in range(n + 1):
        rep.setdefault(int(block[s]), s)
    start = int(block[next(iter(dfa.initial))])
    numbering = {start: 0}
    order = [start]
    trans: dict[int, dict[Letter, tuple[int, ...]]] = {}
    i = 0
    while i < len(order):
        b = order[i]
        i += 1
        row = table[rep[b]]
        arcs = {}
        for li, letter in enumerate(all_letters):
            tb = int(block[row[li]])
            if tb not in numbering:
                numbering[tb] = len(order)
                order.append(tb)
            arcs[letter] = (numbering[tb],)
        trans[numbering[b]] = arcs
    finals = [numbering[b] for b in order if rep[b] in dfa.finals]
    return Automaton(
        dfa.arity,
        dfa.digit_bound,
        len(order),
        [0],
        finals,
        trans,
        _validate=False,
    )


def _closure(seed: Iterable[int], succ: Callable[[int], Iterable[int]]) -> set[int]:
    seen = set(seed)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for t in succ(s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen
