import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ostrowski import (
    AutomatonTooLarge,
    ContinuedFraction,
    NotQuadratic,
    build_adder,
    build_digit_sum,
    build_equality,
    build_less_than,
    build_pass_automaton,
    build_va_graph,
    build_valid_rep,
    bulk,
    convolve,
    encode,
    is_valid,
    pass1,
    pass2,
    pass3,
    words,
)
from ostrowski.automata import from_lazy
from ostrowski.contfrac import automaton_parameters
from ostrowski.recognizers import _DigitInput, _Pass1Lazy, _Pass2Lazy, _Pass3Lazy, _SumInput

from oracles import differential_pass_check, pass_oracle


def sigma_words(m, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(m + 1), repeat=length)


# -- valid representations -------------------------------------------------------


def test_valid_rep_examples(golden, sqrt2):
    aut = build_valid_rep(golden)
    m = golden.parameters().m
    assert aut.accepts(convolve([words.from_text("1 0 0 1 0 0")], m))
    assert aut.accepts(convolve([words.from_text("0 0 1 0 0 1 0 0")], m))
    assert not aut.accepts(convolve([words.from_text("1 1 0")], m))
    assert not aut.accepts(convolve([words.from_text("1")], m))
    assert aut.accepts(())
    assert aut.accepts(convolve([(0, 0, 0, 0)], m))
    aut2 = build_valid_rep(sqrt2)
    m2 = sqrt2.parameters().m
    assert aut2.accepts(convolve([words.from_text("1 1")], m2))
    assert not aut2.accepts(convolve([words.from_text("1 2")], m2))


def test_valid_rep_differential(any_cf):
    aut = build_valid_rep(any_cf)
    m = any_cf.parameters().m
    rng = random.Random(0)
    for _ in range(2000):
        w = tuple(rng.randrange(m + 1) for _ in range(rng.randint(0, 9)))
        assert aut.accepts(convolve([w], m)) == is_valid(any_cf, w)


def test_not_quadratic_raises():
    cf = ContinuedFraction(1, (1, 1, 1), ())
    with pytest.raises(NotQuadratic):
        build_valid_rep(cf)
    with pytest.raises(NotQuadratic):
        build_adder(cf)


# -- digit sum -------------------------------------------------------------------


def test_digit_sum_examples(golden):
    aut = build_digit_sum(golden)
    m = golden.parameters().m
    x, y = words.from_text("1 0 0"), words.from_text("1 0 0 0")
    s = words.from_text("1 1 0 0")
    assert aut.accepts(convolve([x, y, s], m))
    wrong = words.from_text("1 1 0 1")
    assert not aut.accepts(convolve([x, y, wrong], m))
    invalid = words.from_text("1 1 0")  # invalid first track
    assert not aut.accepts(convolve([invalid, y, words.from_text("1 1 1 0")], m))


def test_digit_sum_differential(any_cf):
    aut = build_digit_sum(any_cf)
    m = any_cf.parameters().m
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(300), rng.randrange(300)
        x, y = encode(any_cf, a).digits, encode(any_cf, b).digits
        n = max(len(x), len(y))
        s = tuple(p + q for p, q in zip(words.pad(x, n), words.pad(y, n)))
        assert aut.accepts(convolve([x, y, s], m))
        if n:
            bad = list(s)
            bad[rng.randrange(n)] += 1
            if max(bad) <= m:
                assert not aut.accepts(convolve([x, y, tuple(bad)], m))


# -- pass automata ---------------------------------------------------------------


def test_pass_examples(golden):
    m = golden.parameters().m
    a1 = build_pass_automaton(golden, 1)
    assert a1.accepts(convolve([words.from_text("0 1 1 0 0"), words.from_text("1 0 0 0 0")], m))
    a2 = build_pass_automaton(golden, 2)
    assert a2.accepts(convolve([words.from_text("0 0 1 1"), words.from_text("0 1 0 0")], m))
    a3 = build_pass_automaton(golden, 3)
    # pass 3 leaves an already-normalized word unchanged
    w = words.from_text("0 1 0 0 0 0")
    out = pass3(golden, w)
    assert words.strip(out) == words.strip(w)
    assert a3.accepts(convolve([words.pad(w, 7), out], m))


def test_pass_differential_exhaustive_short(golden):
    m = golden.parameters().m
    rng = random.Random(2)
    inputs = list(sigma_words(m, 5))
    for pass_no in (1, 2, 3):
        differential_pass_check(golden, pass_no, inputs, rng, rejects_per_word=2)


def test_pass_differential_sampled(sqrt2, mixed):
    for cf in (sqrt2, mixed):
        m = cf.parameters().m
        rng = random.Random(3)
        inputs = [
            tuple(rng.randrange(m + 1) for _ in range(rng.randint(1, 7)))
            for _ in range(400)
        ]
        for pass_no in (1, 2, 3):
            differential_pass_check(cf, pass_no, inputs, rng, rejects_per_word=2)


def test_pass_rejects_non_fixpoints(golden):
    # pass 3: conv(w, w) accepted only when the pass leaves w unchanged
    m = golden.parameters().m
    aut = build_pass_automaton(golden, 3)
    for z in sigma_words(m, 5):
        expected = pass_oracle(golden, 3, z, len(z))
        got = aut.accepts(convolve([z, z], m))
        assert got == (expected == tuple(z))


# -- the composed adder ----------------------------------------------------------


def test_adder_examples(golden):
    aut = build_adder(golden)
    m = golden.parameters().m

    def conv(ms, ns, s):
        return convolve(
            [encode(golden, ms).digits, encode(golden, ns).digits, encode(golden, s).digits], m
        )

    assert aut.accepts(conv(2, 3, 5))
    assert not aut.accepts(conv(2, 3, 4))
    assert not aut.accepts(conv(2, 3, 6))
    for n in range(51):
        assert aut.accepts(conv(0, n, n))


def test_adder_symmetric(golden):
    aut = build_adder(golden)
    m = golden.parameters().m
    rng = random.Random(4)
    for _ in range(200):
        a, b = rng.randrange(101), rng.randrange(101)
        s = rng.randrange(210)
        w1 = convolve([encode(golden, a).digits, encode(golden, b).digits, encode(golden, s).digits], m)
        w2 = convolve([encode(golden, b).digits, encode(golden, a).digits, encode(golden, s).digits], m)
        assert aut.accepts(w1) == aut.accepts(w2)


def test_adder_deterministic_minimal_canonical(golden):
    aut = build_adder(golden)
    assert aut.deterministic and aut.is_total()
    rebuilt = build_adder.__wrapped__(golden)
    assert rebuilt.to_text() == aut.to_text()


def test_adder_matches_unfused_composition(any_cf):
    # build_adder reads x + y in its first stage; compose digit-sum and the
    # three pass relations one by one instead, with the same operations and
    # the same trim stages
    dfa = build_digit_sum(any_cf)
    for pass_no in (1, 2, 3):
        relation = build_pass_automaton(any_cf, pass_no).cylindrify(0).cylindrify(0)
        dfa = dfa.cylindrify(3).intersect(relation).project(2).minimize(total=False)
    valid_z = build_valid_rep(any_cf).cylindrify(0).cylindrify(0)
    composed = dfa.intersect(valid_z).zero_closure().determinize_minimize()
    assert composed.to_text() == build_adder(any_cf).to_text()


@settings(max_examples=6, deadline=None, database=None)
@given(
    preperiod=st.lists(st.integers(1, 2), max_size=2),
    period=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_recognizers_beyond_fixtures(preperiod, period, seed):
    cf = ContinuedFraction(1, tuple(preperiod), tuple(period))
    m = cf.parameters().m
    rng = random.Random(seed)
    inputs = [tuple(rng.randrange(m + 1) for _ in range(rng.randint(1, 8))) for _ in range(150)]
    for pass_no in (1, 2, 3):
        differential_pass_check(cf, pass_no, inputs, rng, rejects_per_word=2)
    adder = build_adder(cf)
    for _ in range(100):
        a, b = rng.randrange(1000), rng.randrange(1000)
        x, y = encode(cf, a).digits, encode(cf, b).digits
        assert adder.accepts(convolve([x, y, encode(cf, a + b).digits], m))
        assert not adder.accepts(convolve([x, y, encode(cf, a + b + 1).digits], m))
        if a + b:
            assert not adder.accepts(convolve([x, y, encode(cf, a + b - 1).digits], m))


def test_state_keys_that_overflow_int64_refused():
    # pass-1 keys take 11 phases times (2q + 2)**6 buffer values on 1;(q),
    # which passes 2**63 from q = 485 on; the adder's first stage has two
    # flags more, and passes it from q = 385 on
    fits = automaton_parameters(ContinuedFraction.from_text("1;(484)"))
    frame = _Pass1Lazy(fits, _DigitInput(fits))
    assert math.prod(frame.key.radices) <= 2**63
    with pytest.raises(AutomatonTooLarge):
        build_pass_automaton(ContinuedFraction.from_text("1;(485)"), 1)
    with pytest.raises(AutomatonTooLarge):
        build_adder(ContinuedFraction.from_text("1;(385)"))
    # the keys of 1;(20) fit, but its table of viable pass-1 states would
    # take 11 * 42**6 cells; it is refused before one is allocated
    with pytest.raises(AutomatonTooLarge):
        build_pass_automaton(ContinuedFraction.from_text("1;(20)"), 1)


def unpruned(frame):
    """The frame exploring every state, as with an all-true viability table."""

    class Unpruned(frame):
        def _viable_keys(self, keys):
            return np.ones(len(keys), bool)

    return Unpruned


# Each example explores every unpruned frame (about 1 s with a quotient 2),
# so a failure is reported as found, without shrinking it for minutes.
@settings(max_examples=5, deadline=None, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(
    preperiod=st.lists(st.integers(1, 2), max_size=2),
    period=st.lists(st.integers(1, 2), min_size=1, max_size=3),
)
def test_viability_prune_keeps_every_pass_frame(preperiod, period):
    params = automaton_parameters(ContinuedFraction(1, tuple(preperiod), tuple(period)))
    frames = [
        (_Pass1Lazy, (_DigitInput,), 2),
        (_Pass1Lazy, (_SumInput,), 3),
        (_Pass2Lazy, (), 2),
        (_Pass3Lazy, (), 2),
    ]
    for frame, hooks, arity in frames:
        args = [params] + [hook(params) for hook in hooks]
        pruned = from_lazy(frame(*args), arity, params.m)
        assert pruned.to_text() == from_lazy(unpruned(frame)(*args), arity, params.m).to_text()


def test_pass1_explores_only_states_it_keeps(golden, sqrt2):
    class Recorded(_Pass1Lazy):
        def step(self, keys):
            pos, codes, target = super().step(keys)
            met.update(target.tolist())
            return pos, codes, target

    for cf in (golden, sqrt2):
        params = automaton_parameters(cf)
        frame = Recorded(params)
        met = set(frame.initial_keys().tolist())
        kept = from_lazy(frame, 2, params.m)
        assert len(met) == kept.num_states == build_pass_automaton(cf, 1).num_states


def test_adder_functional(golden):
    # each (x, y) prefix has exactly one completing valid third track; every
    # third track of the given length is a candidate, checked a block at a time
    aut = build_adder(golden)
    m = golden.parameters().m
    for a, b in [(3, 4), (12, 9), (54, 33), (0, 88)]:
        x, y = encode(golden, a).digits, encode(golden, b).digits
        length = len(encode(golden, a + b).digits) + 2
        completions = set()
        xs, ys = (np.array(words.pad(w, length)[::-1]) for w in (x, y))  # MSD first
        total = (m + 1) ** length
        for start in range(0, total, 1 << 20):
            # the candidates in itertools.product order, one row of digits
            # per position, MSD first
            rest = np.arange(start, min(total, start + (1 << 20)))
            digits = np.empty((length, len(rest)), np.uint8)
            for j in reversed(range(length)):
                rest, digits[j] = np.divmod(rest, m + 1)
            lsd = digits[::-1].T
            valid = lsd[bulk.batch_is_valid(golden, lsd)]
            fixed = [np.broadcast_to(t, valid.shape) for t in (xs, ys)]
            accepted = valid[aut._accepts_all(fixed + [valid[:, ::-1]])]
            completions.update(bulk.batch_decode(golden, accepted).tolist())
        assert completions == {a + b}


# -- order, equality, V ----------------------------------------------------------


def test_equality_and_less_than(any_cf):
    m = any_cf.parameters().m
    eq = build_equality(any_cf).determinize(complete=False)
    lt = build_less_than(any_cf).determinize(complete=False)
    table = [encode(any_cf, n).digits for n in range(130)]
    for a in range(0, 130, 3):
        for b in range(0, 130, 2):
            w = convolve([table[a], table[b]], m)
            assert eq.accepts(w) == (a == b)
            assert lt.accepts(w) == (a < b)


def test_less_than_order_axioms(golden):
    lt = build_less_than(golden).determinize(complete=False)
    m = golden.parameters().m
    table = [encode(golden, n).digits for n in range(60)]
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = rng.randrange(60), rng.randrange(60), rng.randrange(60)
        assert not lt.accepts(convolve([table[a], table[a]], m))
        if lt.accepts(convolve([table[a], table[b]], m)) and lt.accepts(
            convolve([table[b], table[c]], m)
        ):
            assert lt.accepts(convolve([table[a], table[c]], m))


def v_of(cf, n):
    if n == 0:
        return 1
    digits = encode(cf, n).digits
    k = next(i for i, d in enumerate(digits) if d)
    return cf.convergent_denominators(k)[k]


def test_va_examples(golden, sqrt2):
    m = golden.parameters().m
    va = build_va_graph(golden)
    assert v_of(golden, 10) == 2
    assert va.accepts(convolve([encode(golden, 10).digits, encode(golden, 2).digits], m))
    assert va.accepts(convolve([encode(golden, 0).digits, encode(golden, 1).digits], m))
    m2 = sqrt2.parameters().m
    va2 = build_va_graph(sqrt2)
    assert va2.accepts(convolve([encode(sqrt2, 3).digits, encode(sqrt2, 1).digits], m2))


def test_va_differential(any_cf):
    m = any_cf.parameters().m
    va = build_va_graph(any_cf).determinize(complete=False)
    table = [encode(any_cf, n).digits for n in range(730)]
    for x in range(0, 600, 7):
        vx = v_of(any_cf, x)
        assert va.accepts(convolve([table[x], table[vx]], m))
        for y in (0, 1, vx - 1, vx + 1, x):
            if 0 <= y < 730 and y != vx:
                assert not va.accepts(convolve([table[x], table[y]], m))


def test_pass_automaton_bad_number(golden):
    with pytest.raises(ValueError):
        build_pass_automaton(golden, 4)
