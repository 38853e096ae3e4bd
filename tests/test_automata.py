import itertools
import random

import numpy as np
import pytest

from ostrowski import automata, recognizers, words
from ostrowski.automata import Automaton, convolve
from ostrowski.bulk import batch_accepts
from ostrowski.errors import ArityMismatch, AutomatonTooLarge, DigitOutOfRange
from ostrowski.numeration import is_valid
from ostrowski.recognizers import build_valid_rep, from_lazy


def all_words(arity, bound, max_len):
    letters = list(itertools.product(range(bound + 1), repeat=arity))
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def enum_len(a):
    """Length bound keeping brute-force enumeration around 10^4 words."""
    return {2: 6, 3: 6, 4: 6, 9: 4}.get(a.alphabet_size, 3)


def language(a, max_len):
    """Brute-force language up to a length bound, as a boolean mask over the
    words of ``all_words(a.arity, a.digit_bound, max_len)`` in their order.

    Every word of each length is run at once by simulating the automaton on
    rows of state sets, read directly off its arcs: level k holds the state
    set reached by each of the L**k prefixes, in lexicographic order, and
    the prefixes of one level that reach the same set share one step.  The
    last level is never held as sets, only as its acceptance mask.
    """
    size, n = a.alphabet_size, a.num_states
    step = np.zeros((size, n, n), bool)  # step[letter, src, dst]
    for src, letter, dst in a.arcs():
        step[letter_code(letter, a.digit_bound), src, dst] = True
    final = np.zeros(n, bool)
    final[list(a.finals)] = True
    sets = np.zeros((1, n), bool)
    sets[0, list(a.initial)] = True
    masks = [(sets & final).any(axis=1)]
    for length in range(1, max_len + 1):
        distinct, inverse = np.unique(sets, axis=0, return_inverse=True)
        reached = (distinct[:, None, :, None] & step[None]).any(axis=2)  # [set, letter, dst]
        inverse = inverse.ravel()
        masks.append((reached & final).any(axis=2)[inverse].ravel())
        if length < max_len:
            sets = reached[inverse].reshape(-1, n)
    return np.concatenate(masks)


def letter_code(letter, bound):
    code = 0
    for d in letter:
        code = code * (bound + 1) + d
    return code


def accepted_words(a, max_len):
    mask = language(a, max_len)
    return [w for w, ok in zip(all_words(a.arity, a.digit_bound, max_len), mask) if ok]


def random_automaton(rng, arity=None, bound=None):
    arity = arity or rng.choice([1, 1, 2])
    bound = bound or rng.choice([1, 2, 3])
    n = rng.randint(1, 6)
    letters = list(itertools.product(range(bound + 1), repeat=arity))
    trans = {}
    for s in range(n):
        arcs = {}
        for letter in letters:
            k = min(rng.choice([0, 0, 1, 1, 2]), n)
            if k:
                arcs[letter] = tuple(sorted(rng.sample(range(n), k)))
        if arcs:
            trans[s] = arcs
    initial = rng.sample(range(n), rng.randint(1, min(2, n)))
    finals = rng.sample(range(n), rng.randint(0, n))
    return Automaton(arity, bound, n, initial, finals, trans)


def arc_map(a):
    """``src -> letter -> [dst]``, read once from ``a.arcs()``."""
    out = {}
    for src, letter, dst in a.arcs():
        out.setdefault(src, {}).setdefault(letter, []).append(dst)
    return out


def projection_oracle(a, track, w, arcs=None):
    """Membership in the projected-and-zero-closed language, by direct search
    on the original automaton (``track`` None erases no track): strip
    leading zero letters from the candidate, saturate the initial states
    under letters that are zero on the kept tracks, then consume the rest
    with the erased track unconstrained."""
    arcs = arc_map(a) if arcs is None else arcs
    while w and all(d == 0 for d in w[0]):
        w = w[1:]

    def erased(letter):
        return letter if track is None else letter[:track] + letter[track + 1 :]

    states = set(a.initial)
    while True:
        grown = set(states)
        for s in states:
            for letter, dsts in arcs.get(s, {}).items():
                if all(d == 0 for d in erased(letter)):
                    grown.update(dsts)
        if grown == states:
            break
        states = grown
    for target in w:
        nxt = set()
        for s in states:
            for letter, dsts in arcs.get(s, {}).items():
                if erased(letter) == target:
                    nxt.update(dsts)
        states = nxt
    return bool(states & a.finals)


# -- convolution ---------------------------------------------------------------


def test_convolve_examples():
    assert convolve([words.from_text("1 0"), words.from_text("1")], 3) == ((1, 0), (0, 1))
    assert convolve([(), ()], 3) == ()
    w = convolve(
        [words.from_text("1 0 0"), words.from_text("1 0 0 0"), words.from_text("1 0 0 0 0")],
        3,
    )
    assert len(w) == 5
    assert w[0] == (0, 0, 1)


def test_convolve_rejects_large_digits():
    with pytest.raises(DigitOutOfRange):
        convolve([(5,)], 3)


# -- acceptance ----------------------------------------------------------------


def test_accept_all_and_none():
    loop = {(d,): (0,) for d in range(3)}
    everything = Automaton(1, 2, 1, [0], [0], {0: loop})
    assert everything.accepts(())
    assert everything.accepts(((1,), (2,), (0,)))
    nothing = Automaton(1, 2, 1, [0], [], {0: loop})
    assert all(not nothing.accepts(w) for w in all_words(1, 2, 3))


def test_valid_rep_rejects_spec_word(golden):
    aut = build_valid_rep(golden)
    word = convolve([words.from_text("1 1 0")], 3)
    assert not aut.accepts(word)
    assert not is_valid(golden, words.from_text("1 1 0"))


def test_arity_mismatch():
    a = Automaton(2, 1, 1, [0], [0], {})
    with pytest.raises(ArityMismatch):
        a.accepts(((1,),))


def test_reading_direction_is_msd_first():
    # language: words whose FIRST letter is 1; reversing the input must differ
    a = Automaton(1, 1, 2, [0], [1], {0: {(1,): (1,)}, 1: {(0,): (1,), (1,): (1,)}})
    word = ((1,), (0,))
    assert a.accepts(word)
    assert not a.accepts(tuple(reversed(word)))


# -- determinization and minimization ------------------------------------------


def test_determinize_minimize_zero_star_one():
    # 0*1 over a unary track
    nfa = Automaton(1, 1, 2, [0], [1], {0: {(0,): (0,), (1,): (1,)}})
    dfa = nfa.determinize_minimize()
    assert dfa.num_states == 3  # start, accepted, sink
    assert dfa.deterministic and dfa.is_total()
    assert np.array_equal(language(nfa, 6), language(dfa, 6))


def test_determinize_minimize_idempotent():
    rng = random.Random(0)
    for _ in range(10):
        a = random_automaton(rng)
        d1 = a.determinize_minimize()
        d2 = d1.determinize_minimize()
        assert d1.to_text() == d2.to_text()


def test_determinize_preserves_language():
    rng = random.Random(1)
    for _ in range(20):
        a = random_automaton(rng)
        d = a.determinize_minimize()
        n = enum_len(a)
        assert np.array_equal(language(a, n), language(d, n))


def test_subsets_skip_dead_states():
    # state 2 cannot reach the final state 1, so no subset holds it
    nfa = Automaton(1, 1, 3, [0], [1], {0: {(0,): (1, 2), (1,): (2,)}, 2: {(0,): (2,)}})
    dfa = nfa.determinize()
    assert dfa.num_states == 2
    assert np.array_equal(language(nfa, 6), language(dfa, 6))


def test_determinize_is_trim():
    # the subset construction keeps no state that cannot reach a final
    # state (read off the arcs of a copy, which knows nothing of it), and a
    # DFA with missing arcs comes back as it is, with no arc added
    rng = random.Random(23)
    partial = 0
    for _ in range(30):
        nfa = random_automaton(rng)
        dfa = nfa.determinize()
        assert dfa.deterministic and np.array_equal(language(dfa, 4), language(nfa, 4))
        if not dfa.is_empty():
            assert all(Automaton.from_text(dfa.to_text())._useful())
        if not dfa.is_total():
            partial += 1
            again = dfa.determinize()
            assert again.num_transitions() == dfa.num_transitions() and again.to_text() == dfa.to_text()
    assert partial >= 10


def test_no_final_state_reachable():
    # the final state 1 is not reachable from the initial state 0
    nfa = Automaton(2, 1, 2, [0], [1], {0: {(0, 0): (0,), (1, 0): (0,)}, 1: {(0, 1): (1,)}})
    for a in (nfa, nfa.determinize()):
        for out in (a.determinize(), a.project(0), a.cylindrify(0).project(0)):
            assert out.deterministic and out.is_empty()
            assert Automaton.from_text(out.to_text()).to_text() == out.to_text()
        comp = a.complement()
        assert comp.is_total()
        assert language(comp, 3).all()


def test_trim_minimal_is_total_without_dead_state():
    # the total minimal DFA has at most one dead state, and the trim one
    # drops it, unless it is the initial state of the empty language
    rng = random.Random(13)
    dropped = 0
    for _ in range(40):
        a = random_automaton(rng)
        total, trim = a.determinize_minimize(), a.determinize_minimize(total=False)
        assert total.is_total() and trim.deterministic
        assert trim.minimize().equivalent(total)
        assert trim.minimize(total=False).to_text() == trim.to_text()
        dead = total._useful().count(False)
        assert dead <= 1
        if total.is_empty():
            assert trim.num_states == total.num_states == 1 and trim.num_transitions() == 0
        elif dead:
            assert trim.num_states == total.num_states - 1 and all(trim._useful())
            dropped += 1
        else:
            assert trim.to_text() == total.to_text()
    assert dropped >= 10


def distinguishable(d, p, q, arcs=None):
    """Some word separates states p and q of a total DFA (pair search)."""
    arcs = arc_map(d) if arcs is None else arcs
    seen = {(p, q)}
    queue = [(p, q)]
    while queue:
        p, q = queue.pop()
        if (p in d.finals) != (q in d.finals):
            return True
        for letter, (pn,) in arcs.get(p, {}).items():
            (qn,) = arcs[q][letter]
            if (pn, qn) not in seen:
                seen.add((pn, qn))
                queue.append((pn, qn))
    return False


def test_wide_alphabet_tables_refused_first():
    # 2**40 letters: the total minimal DFA needs a table of 3 * 2**40 cells
    # and is refused before any array that long is made; the trim one holds
    # only the letters its arcs read
    a = Automaton(40, 1, 2, [0], [1], {0: {(1,) * 40: (1,)}})
    with pytest.raises(AutomatonTooLarge):
        a.determinize_minimize()
    trim = a.determinize_minimize(total=False)
    assert (trim.num_states, trim.num_transitions()) == (2, 1)
    assert trim.accepts(((1,) * 40,)) and not trim.accepts(((0,) * 40,))


def test_keys_past_int64_refused():
    # 2**62 letters: the kernels hold Python integers, so automata over
    # them build and answer membership, whatever their arc keys
    a = Automaton(62, 1, 2, [0], [0, 1], {0: {(1,) * 62: (1,)}})
    dfa = a.determinize()
    assert dfa.deterministic and (dfa.num_states, dfa.num_transitions()) == (2, 1)
    assert dfa.accepts([]) and dfa.accepts([(1,) * 62]) and not dfa.accepts([(1,) * 62] * 2)
    loop = Automaton(62, 1, 1, [0], [0], {0: {(1,) * 62: (0,)}})
    closed = loop.cylindrify(0).project(0)
    assert closed.deterministic and closed.num_states == 2
    assert loop.difference(closed).is_empty()
    assert closed.difference(loop).accepts([(0,) * 62])
    three = Automaton(62, 1, 3, [0], [0], {0: {(1,) * 62: (1,)}})
    assert three.accepts([]) and not three.accepts([(1,) * 62])
    # letter codes past 64 bits are refused, and so are the int64 sort keys
    # of a lazy exploration (10 states times 2**62 letters) and the tables
    # of total minimization and batch membership
    with pytest.raises(AutomatonTooLarge, match="2\\*\\*64 letters do not fit 64-bit letter codes"):
        Automaton(64, 1, 1, [0], [0], {})
    for tracks in (62, 64):
        keys = f"^10 states times 2\\*\\*{tracks} letters do not fit 64-bit arc keys"
        with pytest.raises(AutomatonTooLarge, match=keys):
            from_lazy(_Chain(), tracks, 1)
    with pytest.raises(AutomatonTooLarge, match="minimization table"):
        dfa.minimize()
    with pytest.raises(AutomatonTooLarge, match="membership table"):
        batch_accepts(dfa, [np.zeros((1, 0), np.int8)] * 62)


class _Chain:
    """A lazy frame over one binary track: state k < 9 reads either digit
    into state k + 1, and state 9 is final (10 states, 18 arcs)."""

    fanout = 2

    def initial_keys(self):
        return np.array([0])

    def final(self, keys):
        return keys == 9

    def step(self, keys):
        pos, code = np.nonzero(np.repeat(keys[:, None] < 9, 2, axis=1))
        return pos, code, keys[pos] + 1


class _Graph:
    """A lazy frame over an explicit graph: key k steps along ``arcs[k]``,
    a list of (letter, target), in that order."""

    fanout = 8

    def __init__(self, starts, finals, arcs):
        self.starts, self.finals, self.arcs = starts, finals, arcs

    def initial_keys(self):
        return np.array(self.starts, np.int64)

    def final(self, keys):
        return np.isin(keys, list(self.finals))

    def step(self, keys):
        arcs = [(i, c, t) for i, k in enumerate(keys.tolist()) for c, t in self.arcs[k]]
        pos, codes, targets = (np.array(a, np.int64) for a in zip(*arcs)) if arcs else [np.empty(0, np.int64)] * 3
        return pos, codes, targets


def trimmed_by_reach(lazy, digit_bound):
    """``from_lazy`` on a frame of one track, by a plain breadth-first walk
    and ``automata._reach`` over the reversed arcs: the states numbered in
    order of first occurrence, the starts first, then each level's targets
    in arc order."""
    ids, arcs = {}, []

    def number(keys):  # the keys met for the first time, numbered in order
        fresh = [k for k in dict.fromkeys(keys) if k not in ids]
        ids.update(zip(fresh, itertools.count(len(ids))))
        return fresh

    level = number(lazy.initial_keys().tolist())
    n_starts = len(ids)
    while level:
        pos, codes, targets = (a.tolist() for a in lazy.step(np.array(level, np.int64)))
        fresh = number(targets)
        arcs += [(ids[level[p]], c, ids[t]) for p, c, t in zip(pos, codes, targets)]
        level = fresh
    keys = sorted(ids, key=ids.get)
    back = [[] for _ in keys]
    for src, _, dst in arcs:
        back[dst].append(src)
    finals = np.flatnonzero(lazy.final(np.array(keys, np.int64))).tolist()
    useful = automata._reach(list(itertools.accumulate(map(len, back), initial=0)),
                             list(itertools.chain.from_iterable(back)), finals)
    new = dict(zip((s for s in range(len(keys)) if useful[s]), itertools.count()))
    transitions = {}
    for src, code, dst in arcs:
        if src in new and dst in new:
            transitions.setdefault(new[src], {}).setdefault((code,), []).append(new[dst])
    return Automaton(1, digit_bound, len(new), [new[s] for s in range(n_starts) if s in new],
                     [new[f] for f in finals], transitions)


def random_graph(rng):
    """A graph with dead ends: a start that reaches no final state, states
    without arcs (a level of one that ends the walk), self-loops, and
    repeated arcs."""
    n = rng.randint(2, 40)
    arcs = [[] for _ in range(n)]
    for k in range(n):
        if rng.random() < 0.25:
            continue  # no arcs
        for _ in range(rng.randint(1, 4)):
            arcs[k].append((rng.randint(0, 2), k if rng.random() < 0.2 else rng.randrange(n)))
    dead = n
    arcs.append([(0, dead)])  # the dead start loops only on itself
    starts = rng.sample(range(n), rng.randint(1, min(3, n))) + [dead]
    rng.shuffle(starts)
    return _Graph(starts, set(rng.sample(range(n), rng.randint(1, min(4, n)))), arcs)


@pytest.mark.parametrize("walk", ["sets", "arrays"])
def test_from_lazy_keeps_what_reach_keeps(walk, monkeypatch):
    if walk == "arrays":  # the walk that larger frames take
        monkeypatch.setattr(recognizers, "_SET_WALK", 0)
    frames = [_Chain(), _Graph([0, 0], {2}, [[(0, 1), (1, 3)], [(0, 2)], [], [(1, 3)]])]
    rng = random.Random("trim")
    frames += [random_graph(rng) for _ in range(200)]
    for frame in frames:
        got, want = from_lazy(frame, 1, 2), trimmed_by_reach(frame, 2)
        assert got.to_text() == want.to_text()


def test_explored_arcs_and_states_guarded(monkeypatch):
    # one guard holds the arcs plus the states of every exploration: lazy
    # (10 states alone fit a cap of 12, with their 18 arcs they do not)
    # and products
    assert from_lazy(_Chain(), 1, 1).num_states == 10
    chain = Automaton(1, 1, 5, [0], [4], {s: {(0,): (s + 1,), (1,): (s + 1,)} for s in range(4)})
    assert chain.intersect(chain).num_states == 5
    monkeypatch.setattr(automata, "_MAX_CELLS", 12)
    with pytest.raises(AutomatonTooLarge):
        from_lazy(_Chain(), 1, 1)
    with pytest.raises(AutomatonTooLarge):
        chain.intersect(chain)  # 5 pairs and 8 arcs


def test_minimal_states_pairwise_distinguishable():
    rng = random.Random(2)
    for _ in range(10):
        d = random_automaton(rng).determinize_minimize()
        arcs = arc_map(d)
        for p in range(d.num_states):
            for q in range(p + 1, d.num_states):
                assert distinguishable(d, p, q, arcs)


# -- the kernels ----------------------------------------------------------------


def same_automaton(x, y):
    assert x.to_text() == y.to_text()
    assert x.deterministic == y.deterministic
    assert (x._indptr, x._codes, x._dsts) == (y._indptr, y._codes, y._dsts)


def random_tracks(rng, a_arity, b_arity):
    """Injective track maps of two operands whose landed tracks are 0..k-1."""
    while True:
        arity = rng.randint(max(a_arity, b_arity), a_arity + b_arity)
        ta, tb = rng.sample(range(arity), a_arity), rng.sample(range(arity), b_arity)
        if set(ta) | set(tb) == set(range(arity)):
            return ta, tb


def test_join_matches_place_and_intersect():
    # a product joined on shared tracks gives the arrays of placing both
    # operands on all tracks and intersecting, numbering included: on
    # deterministic operands and, as the product numbers pairs in order of
    # (letter, target pair), on nondeterministic ones too
    rng = random.Random(17)
    sentence = Automaton._from_rows(0, 2, [0], [0], [0, 1], [0], [0], True)
    cases = [(sentence, [], sentence, [])]
    for _ in range(80):
        bound = rng.choice([1, 2])
        a = random_automaton(rng, rng.choice([1, 2]), bound)
        b = random_automaton(rng, rng.choice([1, 2]), bound)
        if rng.random() < 0.6:
            a = a.determinize()
            if rng.random() < 0.3:
                a = a.minimize()
        if rng.random() < 0.6:
            b = b.determinize()
            if rng.random() < 0.3:
                b = b.minimize()
        ta, tb = random_tracks(rng, a.arity, b.arity)
        cases.append((a, ta, b, tb))
    deterministic = 0
    for a, ta, b, tb in cases:
        arity = len(set(ta) | set(tb))
        joined = a.intersect(b, ta, tb)
        placed = a._place(ta, arity).intersect(b._place(tb, arity))
        assert joined.arity == arity
        same_automaton(joined, placed)
        deterministic += joined.deterministic
    assert 20 <= deterministic <= 60
    a = random_automaton(rng, 2, 1)
    # a track map of the wrong length, two tracks on one, a track left out
    for ta, tb in (([0], [0]), ([0, 0], [1]), ([1, 0], [1, 1]), ([0, 2], [0])):
        with pytest.raises(ArityMismatch):
            a.intersect(random_automaton(rng, len(tb), 1), ta, tb)


def zero_closure_oracle(a, w, arcs=None):
    """Membership in the zero-closed language: ``projection_oracle`` erasing no track."""
    return projection_oracle(a, None, w, arcs)


def test_kernels_against_brute_force():
    # every kernel on random automata of 1-3 tracks, against the languages
    # of its operands read off their arcs, on all words up to length 4
    rng = random.Random(18)
    for _ in range(30):
        arity = rng.choice([1, 2, 3])
        bound = 1 if arity == 3 else rng.choice([1, 2])  # at most 9 letters, so 7,381 words
        a, b = random_automaton(rng, arity, bound), random_automaton(rng, arity, bound)
        max_len = 4
        la, lb = language(a, max_len), language(b, max_len)
        assert np.array_equal(language(a.intersect(b), max_len), la & lb)
        assert np.array_equal(language(a.difference(b), max_len), la & ~lb)
        da = a.determinize()
        assert np.array_equal(language(da, max_len), la)
        for total in (True, False):
            m = da.minimize(total)
            assert m.deterministic and (m.is_total() or not total)
            assert np.array_equal(language(m, max_len), la)
        arcs = arc_map(a)
        z = a.cylindrify(0).project(0)
        for w, ok in zip(all_words(arity, bound, max_len), language(z, max_len)):
            assert ok == zero_closure_oracle(a, w, arcs)
        if arity > 1:
            track = rng.randrange(arity)
            p = a.project(track)
            for w, ok in zip(all_words(arity - 1, bound, max_len), language(p, max_len)):
                assert ok == projection_oracle(a, track, w, arcs)


def random_numeral(rng, bound, length):
    """A digit word LSD first without a leading zero (the empty word is 0)."""
    return [rng.randint(0, bound) for _ in range(length - 1)] + [rng.randint(1, bound)] if length else []


def test_restrict_matches_chain_intersect_and_project():
    # pinning tracks to numerals gives the CSR lists of the path it replaces:
    # a product with each numeral's chain on its track, the pinned tracks
    # projected away, then the trim minimization
    rng = random.Random(22)
    cases = []
    for _ in range(60):
        arity = rng.choice([2, 3])
        bound = 1 if arity == 3 else rng.choice([1, 2])
        a = random_automaton(rng, arity, bound).determinize()
        pinned = rng.sample(range(arity), rng.randint(1, arity - 1))
        cases.append((a, {t: random_numeral(rng, bound, rng.randint(0, 4)) for t in pinned}))
    a = random_automaton(rng, 3, 1).determinize()
    cases += [(a, {1: []}), (a, {0: [1, 0, 1], 2: [1]}), (a, {2: [0, 1], 0: []})]
    kinds = set()
    for a, pins in cases:
        want = a
        for t, digits in pins.items():
            want = want.intersect(Automaton._padded_word(a.digit_bound, digits[::-1]), range(a.arity), [t])
        for t in sorted(pins, reverse=True):
            want = want.project(t)
        same_automaton(a.restrict(pins), want.minimize(total=False))
        lengths = {len(d) for d in pins.values()}
        kinds.update(kind for kind, seen in (("zero", 0 in lengths), ("two lengths", len(lengths) > 1),
                                             ("all but one", len(pins) == a.arity - 1 > 1)) if seen)
    assert kinds == {"zero", "two lengths", "all but one"}
    for pins in ({0: [1], 1: [], 2: [1]}, {3: [1]}):  # no track left free, a track out of range
        with pytest.raises(ArityMismatch):
            a.restrict(pins)


def test_kernel_refusals_name_the_operation(monkeypatch):
    chain = Automaton(1, 1, 5, [0], [4], {s: {(0,): (s + 1,), (1,): (s + 1,)} for s in range(4)})
    wide, right = chain.cylindrify(1), chain.determinize()
    dfa = Automaton(1, 2, 2, [0], [1], {0: {(1,): (1,)}}).determinize()
    monkeypatch.setattr(automata, "_MAX_CELLS", 12)
    cases = [
        (lambda: chain.intersect(chain),
         "intersect of 5 × 5 states, 1 tracks: explored arcs and states needs 13 entries, more than 12"),
        (lambda: chain.difference(right), "difference of 5 × 5 states, 1 tracks: explored arcs and states"),
        (lambda: chain.determinize(), "determinize of 5 states, 1 tracks: subset arcs and states"),
        (lambda: wide.project(0), "project of 5 states, 2 tracks: subset arcs and states"),
        (lambda: chain.cylindrify(0), "place of 5 states, 2 tracks: placed arcs needs 16 entries"),
        (lambda: wide.restrict({1: [1, 1, 1]}),
         "restrict of 5 states, 2 tracks: pinned arcs and states needs 16 entries, more than 12"),
        (lambda: Automaton._padded_word(1, [1, 0, 1], "<="), "<= chain of 3 digits over 2 letters needs 22 entries"),
    ]
    for call, message in cases:
        with pytest.raises(AutomatonTooLarge) as err:
            call()
        assert str(err.value).startswith(message)
    monkeypatch.setattr(automata, "_MAX_CELLS", 8)
    with pytest.raises(AutomatonTooLarge, match="^minimize of 2 states, 1 tracks: minimization table needs 9"):
        dfa.minimize()


def test_padded_word_is_a_chain_of_its_length():
    digits = [1, 0, 2, 0]
    a = Automaton._padded_word(2, digits)
    assert a.deterministic and a.num_states == 5
    for pad in range(3):
        assert a.accepts(tuple((d,) for d in [0] * pad + digits))
    for other in ([1, 0, 2], [1, 0, 2, 0, 0], [2, 0, 2, 0], [0, 1, 1, 2, 0]):
        assert not a.accepts(tuple((d,) for d in other))
    assert Automaton._padded_word(2, []).accepts(((0,), (0,)))


def test_padded_word_bounds_compare_length_then_digits():
    # 0* u with u at most or at least w: a shorter u is less, and one of
    # the same length compares digit by digit
    for digits in ([], [2], [1, 0, 2], [2, 2, 1]):
        chains = {op: Automaton._padded_word(2, digits, op) for op in ("<=", ">=")}
        assert all(a.deterministic for a in chains.values())
        for word in itertools.chain.from_iterable(itertools.product(range(3), repeat=k) for k in range(6)):
            u = list(word[next((i for i, d in enumerate(word) if d), len(word)):])
            key, bound = (len(u), u), (len(digits), digits)
            letters = tuple((d,) for d in word)
            assert (chains["<="].accepts(letters), chains[">="].accepts(letters)) == (key <= bound, key >= bound)


# -- boolean operations ---------------------------------------------------------


def test_boolean_identities():
    rng = random.Random(3)
    for _ in range(10):
        a = random_automaton(rng)
        comp = a.complement()
        assert a.intersect(comp).is_empty()
        union = a.union(comp)
        assert all(union.accepts(w) for w in all_words(a.arity, a.digit_bound, 3))
        for _ in range(200):
            w = tuple(
                tuple(rng.randrange(a.digit_bound + 1) for _ in range(a.arity))
                for _ in range(rng.randint(4, 8))
            )
            assert union.accepts(w)


def test_boolean_ops_against_brute_force():
    rng = random.Random(4)
    for _ in range(15):
        bound = rng.choice([1, 2])
        arity = rng.choice([1, 2])
        a = random_automaton(rng, arity, bound)
        b = random_automaton(rng, arity, bound)
        n = enum_len(a)
        la, lb = language(a, n), language(b, n)
        assert np.array_equal(language(a.intersect(b), n), la & lb)
        assert np.array_equal(language(a.union(b), n), la | lb)
        c = a.complement()  # the total minimal DFA, finals flipped
        assert np.array_equal(language(c, n), ~la)
        assert c.is_total() and c.to_text() == c.determinize_minimize().to_text()
        assert c.complement().to_text() == a.determinize_minimize().to_text()


def test_intersect_valid_with_first_digit_zero(golden):
    # over the golden expansion a_1 = 1 forces the position-1 digit to be 0,
    # so intersecting with "last letter is 0" changes nothing
    valid = build_valid_rep(golden)
    m = valid.digit_bound
    last_zero = Automaton(
        1, m, 2, [0], [1],
        {0: {(d,): (0, 1) if d == 0 else (0,) for d in range(m + 1)}},
    )
    combined = valid.intersect(last_zero)
    lv = language(valid, 6)
    lv[0] = False  # valid words minus the empty word
    assert np.array_equal(language(combined, 6), lv)


def test_boolean_requires_compatible():
    a = Automaton(1, 1, 1, [0], [0], {})
    b = Automaton(2, 1, 1, [0], [0], {})
    with pytest.raises(ArityMismatch):
        a.intersect(b)


# -- cylindrify / project --------------------------------------------------------


def test_cylindrify_project_identity():
    rng = random.Random(5)
    for _ in range(10):
        a = random_automaton(rng, arity=1, bound=2)
        lifted = a.cylindrify(1)
        assert lifted.arity == 2
        back = lifted.project(1)
        arcs = arc_map(lifted)
        for w in all_words(1, 2, 5):
            assert back.accepts(w) == projection_oracle(lifted, 1, w, arcs)


def placed_language(a, tracks, arity, max_len):
    """Brute-force language of ``a`` with old track i placed on new track
    ``tracks[i]``, as a mask over ``all_words(arity, a.digit_bound,
    max_len)``: a word is in it when reading each letter back on the old
    tracks gives a word of ``a``."""
    old = language(a, max_len)
    size = a.alphabet_size
    out = []
    for w in all_words(arity, a.digit_bound, max_len):
        code = 0
        for letter in w:
            code = code * size + letter_code(tuple(letter[t] for t in tracks), a.digit_bound)
        out.append(old[sum(size**k for k in range(len(w))) + code])
    return np.array(out, bool)


def test_place_against_brute_force():
    # insertions, permutations and repeated tracks (merges), on both forms
    rng = random.Random(12)
    cases = [(Automaton(0, 2, 1, [0], [0], {0: {(): (0,)}}), [], 2)]
    for _ in range(40):
        a = random_automaton(rng, arity=rng.choice([1, 2]), bound=rng.choice([1, 2]))
        if rng.random() < 0.5:
            a = a.determinize()
            if rng.random() < 0.5:
                a = a.minimize()
        arity = rng.randint(1, 3)
        cases.append((a, [rng.randrange(arity) for _ in range(a.arity)], arity))
    for a, tracks, arity in cases:
        placed = a._place(tracks, arity)
        assert (placed.arity, placed.deterministic) == (arity, a.deterministic)
        max_len = enum_len(placed) if placed.alphabet_size <= 9 else 2
        assert np.array_equal(language(placed, max_len), placed_language(a, tracks, arity, max_len))


def test_cylindrify_position_errors():
    a = Automaton(1, 1, 1, [0], [0], {})
    for position in (-1, 2):
        with pytest.raises(ValueError):
            a.cylindrify(position)


def test_project_single_track_errors():
    a = Automaton(1, 1, 1, [0], [0], {})
    with pytest.raises(ArityMismatch):
        a.project(0)
    b = Automaton(2, 1, 1, [0], [0], {})
    for track in (-1, 2):
        with pytest.raises(ValueError, match=f"track {track} outside 0..1"):
            b.project(track)


def test_minimize_refuses_nfa():
    nfa = Automaton(1, 1, 2, [0], [1], {0: {(0,): (0, 1)}})
    with pytest.raises(ValueError, match="minimize requires a deterministic automaton"):
        nfa.minimize()
    assert nfa.determinize().minimize().accepts(((0,),))


def test_project_against_brute_force():
    rng = random.Random(6)
    for _ in range(15):
        bound = rng.choice([1, 2])
        a = random_automaton(rng, arity=2, bound=bound)
        track = rng.choice([0, 1])
        p = a.project(track)
        arcs = arc_map(a)
        for w in all_words(1, bound, 5):
            assert p.accepts(w) == projection_oracle(a, track, w, arcs)


def test_zero_closure_property():
    rng = random.Random(7)
    for _ in range(10):
        a = random_automaton(rng, arity=1, bound=2).cylindrify(0).project(0)
        zero = (0,)
        for w in accepted_words(a, 4):  # alphabet 3: cheap
            assert a.accepts((zero,) + w)
            if w and w[0] == zero:
                assert a.accepts(w[1:])


# -- emptiness / equivalence ------------------------------------------------------


def test_empty_when_no_finals():
    a = Automaton(1, 1, 2, [0], [], {0: {(0,): (1,)}})
    assert a.is_empty()
    assert a.shortest_witness() is None


def lex_least_shortest(a):
    """The lexicographically least of the shortest accepted words, or None,
    by a search over state sets read off the arcs: ``co[j]`` holds the
    states from which some word of length exactly j is accepted."""
    arcs = arc_map(a)
    letters = list(itertools.product(range(a.digit_bound + 1), repeat=a.arity))

    def move(states, letter):
        return {t for s in states for t in arcs.get(s, {}).get(letter, ())}

    co = [set(a.finals)]
    for _ in range(a.num_states):
        co.append({s for s in range(a.num_states) if any(set(d) & co[-1] for d in arcs.get(s, {}).values())})
    # a shortest accepted word follows a path without repeated states
    length = next((j for j in range(a.num_states) if set(a.initial) & co[j]), None)
    if length is None:
        return None
    word, states = [], set(a.initial)
    for j in range(length, 0, -1):
        letter = next(x for x in letters if move(states, x) & co[j - 1])
        word.append(letter)
        states = move(states, letter)
    return tuple(word)


def test_shortest_witness_against_search():
    # on a DFA the witness is the least of the shortest accepted words; on
    # an NFA (one, several or no initial states) an accepted word of the
    # shortest length; emptiness agrees with the witness either way
    rng = random.Random(14)
    for _ in range(40):
        nfa = random_automaton(rng)
        n, arcs = nfa.num_states, arc_map(nfa)
        every = Automaton(nfa.arity, nfa.digit_bound, n, range(n), nfa.finals, arcs)
        none = Automaton(nfa.arity, nfa.digit_bound, n, [], nfa.finals, arcs)
        for a in (nfa, every, none, nfa.determinize(), nfa.determinize_minimize()):
            least, witness = lex_least_shortest(a), a.shortest_witness()
            assert a.is_empty() == (witness is None) == (least is None)
            if witness is not None:
                assert a.accepts(witness) and len(witness) == len(least)
                if a.deterministic:
                    assert witness == least


def test_valid_rep_witness(golden):
    aut = build_valid_rep(golden)
    assert not aut.is_empty()
    assert aut.shortest_witness() == ()  # zero is represented by the empty word


def test_equivalent_after_determinize():
    rng = random.Random(8)
    for _ in range(10):
        a = random_automaton(rng)
        assert a.equivalent(a.determinize_minimize())


def test_not_equivalent_detects_difference():
    a = Automaton(1, 1, 2, [0], [1], {0: {(1,): (1,)}})
    b = Automaton(1, 1, 2, [0], [1], {0: {(0,): (1,)}})
    assert not a.equivalent(b)


# -- interchange format ------------------------------------------------------------


def test_negative_state_count_refused():
    with pytest.raises(ValueError):
        Automaton(1, 1, -1, [], [], {})


def test_interchange_round_trip(tmp_path):
    rng = random.Random(9)
    for _ in range(10):
        a = random_automaton(rng)
        text = a.to_text()
        again = Automaton.from_text(text)
        assert again.to_text() == text
        path = tmp_path / "a.aut"
        a.save(path)
        assert Automaton.load(path).to_text() == text


def test_interchange_fields():
    a = Automaton(2, 3, 2, [0], [1], {0: {(1, 2): (1,)}})
    text = a.to_text()
    assert "arity 2" in text
    assert "digit_bound 3" in text
    assert "num_states 2" in text
    assert "trans 0 (1,2) 1" in text


def test_canonical_rebuild(golden):
    a = build_valid_rep.__wrapped__(golden)
    b = build_valid_rep.__wrapped__(golden)
    assert a.to_text() == b.to_text()
