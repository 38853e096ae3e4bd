import functools
import hashlib
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
    rules,
    words,
)
from ostrowski.contfrac import automaton_parameters
from ostrowski.recognizers import (
    _digit_grid,
    _Pass1Lazy,
    _Pass2Lazy,
    _Pass3Lazy,
    _PhaseSets,
    from_lazy,
)

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
    # build_adder joins a pass-1 relation of its own, over phase sets and
    # only the digits two valid digits can sum to; compose digit-sum and
    # the three relations of build_pass_automaton one by one instead, with
    # the same operations and the same trim stages, joining each relation
    # on the track it reads
    dfa = build_digit_sum(any_cf)
    for pass_no in (1, 2, 3):
        relation = build_pass_automaton(any_cf, pass_no)
        dfa = dfa.intersect(relation, (0, 1, 2), (2, 3)).project(2).minimize(total=False)
    composed = dfa.intersect(build_valid_rep(any_cf), (0, 1, 2), (2,)).cylindrify(0).project(0).determinize_minimize()
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
    # which passes 2**63 from q = 485 on; the adder's pass 1 has a mask of
    # the 11 phases in place of one phase, so its keys take
    # 2**11 * (2q + 2)**6 values and pass it from q = 203 on
    fits = automaton_parameters(ContinuedFraction.from_text("1;(484)"))
    frame = _Pass1Lazy(fits)
    assert math.prod(frame.key.radices) <= 2**63
    with pytest.raises(AutomatonTooLarge, match=r"^pass 1 of 1;\(485\): states with fields of \(11, 972,"):
        build_pass_automaton(ContinuedFraction.from_text("1;(485)"), 1)
    fits = automaton_parameters(ContinuedFraction.from_text("1;(202)"))
    frame = _PhaseSets(_Pass1Lazy(fits, bounded=True))  # made, not explored
    assert frame.key.radices[0] == 2**11 and math.prod(frame.key.radices) <= 2**63
    with pytest.raises(AutomatonTooLarge, match=r"^the adder's pass 1 of 1;\(203\): "
                                                r"states with fields of \(2048, 408,"):
        build_adder(ContinuedFraction.from_text("1;(203)"))
    with pytest.raises(AutomatonTooLarge, match=r"^the adder's pass 1 of 1;\(385\): states"):
        build_adder(ContinuedFraction.from_text("1;(385)"))
    # the keys of 1;(20) fit, but its table of viable pass-1 states would
    # take 11 * 42**5 masks; it is refused before one is allocated
    with pytest.raises(AutomatonTooLarge, match=r"^pass 1 of 1;\(20\): viability table needs 1437603552 masks"):
        build_pass_automaton(ContinuedFraction.from_text("1;(20)"), 1)
    # the width-3 tables of 1;(40) fit the guard, but no word holds 82-bit masks
    with pytest.raises(AutomatonTooLarge, match=r"^pass 2 of 1;\(40\): viability masks of 82 bits"):
        build_pass_automaton(ContinuedFraction.from_text("1;(40)"), 2)


def test_huge_digit_grids_refused():
    # the grid of two digits 0..mu takes (mu + 1)**2 cells, past the size
    # guard from mu = 11,585 on; the builders reading two valid tracks
    # refuse it before it is made, naming the stage and the expansion
    with pytest.raises(AutomatonTooLarge, match=r"grid of 2-tuples of digits 0\.\.11585 needs 134235396 entries"):
        _digit_grid(2, 11585)
    huge = ContinuedFraction.from_text("1;(100000)")
    grid = r"1;\(100000\): grid of 2-tuples of digits 0\.\.100000 needs 10000200001 entries"
    for build, stage in ((build_digit_sum, "digit sum"), (build_less_than, "less-than"), (build_adder, "digit sum")):
        with pytest.raises(AutomatonTooLarge, match=f"^{stage} of {grid}"):
            build(huge)


# Past a partial quotient of 6 the dense table of viable pass-1 states was
# refused (184,549,376 cells on 1;(7), 408,146,688 on 2;(1,8)); the masks
# take 11 * 16**5 and 12 * 18**5.  The other expansions pin the adder's
# text on more single quotients and mixed periods.
ADDERS = [
    ("1;(7)", 17, "6c1403a706d52736ff83b1586060339b0ef2568f2798560e50c899af9abb9737"),
    ("2;(1,8)", 36, "b0db88d8bf86ff7ade3d506ca8cc3d34ce467d055692dd9e54f3193472b1685d"),
    ("1;(4)", 17, "61844df0e6f879ddafdb7e874c09c6b1056a09bd96a9d549f699e74ab80e8a8c"),
    ("1;(5)", 17, "ed6452ef1da21d4d0f70bf7128b95ebe13b5dae211f2e8180eb845a96b14d53e"),
    ("1;(6)", 17, "c2c83da79de068267f4a45f5f43a865ae81eadbb6145880bc1592207f8bf9316"),
    ("2;1,(1,2,3)", 77, "bfb423c652f2ab75818b685dd22afc38fdbe89bf534cacc08239f42d3939118f"),
    ("0;(2,1)", 39, "9bebee5fb716c238230ef93af1c116124640ecb6fee1cb6c77c8850f2ea61751"),
    ("3;2,(1,1,3)", 77, "45a3be19553152327e190446c28b771f796cb34d42d42f8b68d0b1b3bfa1beb2"),
    ("1;2,1,(3)", 32, "aec5d729462c2209e99b104da8770bedbdeecf6277e265affe18ba755bc5b9bc"),
    ("0;1,2,(2,3,1)", 89, "8947621ce2161982d546d4602ae595d0c47de222bf031f7486b9a3b1271804c8"),
    ("2;(1,3)", 37, "bc056980dd1eec874765894e4b5f90a31f0471bad64dba8ac08eb79bedf28973"),
]


@pytest.mark.parametrize("text, states, digest", ADDERS, ids=[text for text, _, _ in ADDERS])
def test_adder_past_the_dense_table(text, states, digest):
    cf = ContinuedFraction.from_text(text)
    adder = build_adder(cf)
    assert adder.num_states == states
    assert hashlib.sha256(adder.to_text().encode()).hexdigest() == digest
    m = cf.parameters().m
    rng = random.Random(text)
    for _ in range(100):
        a, b = (rng.randrange(10 ** rng.randint(1, 15)) for _ in range(2))
        x, y = encode(cf, a).digits, encode(cf, b).digits
        assert adder.accepts(convolve([x, y, encode(cf, a + b).digits], m))
        assert not adder.accepts(convolve([x, y, encode(cf, a + b + 1).digits], m))
        if a + b:
            assert not adder.accepts(convolve([x, y, encode(cf, a + b - 1).digits], m))


def test_pass1_past_the_dense_table():
    pass1 = build_pass_automaton.__wrapped__(ContinuedFraction.from_text("1;(7)"), 1)
    assert (pass1.num_states, pass1.num_transitions()) == (89079, 1488873)
    digest = "e0bb809a5f708b96dd1e1da54054fc2051f98ca0918c8ec7b42d2ae45a70c39b"
    assert hashlib.sha256(pass1.to_text().encode()).hexdigest() == digest


def unpruned(frame):
    """The frame exploring every state, as with a viability table of all
    bits set."""

    class Unpruned(frame):
        def _masks(self, index):
            return np.full(np.shape(index), (1 << (self.m + 1)) - 1)

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
        (_Pass1Lazy, {}, None),
        (_Pass1Lazy, {"bounded": True}, None),
        (_Pass2Lazy, {}, None),
        (_Pass3Lazy, {}, None),
        (_Pass1Lazy, {"bounded": True}, _PhaseSets),
    ]
    for frame, options, wrap in frames:
        stepped = []  # the keys each frame's own step is given
        automata = []
        for f in (frame, unpruned(frame)):
            lazy = f(params, **options)
            stepped.append(counted(lazy))
            automata.append(from_lazy((wrap or (lambda lazy: lazy))(lazy), 2, params.m))
        pruned, full = automata
        if frame is _Pass1Lazy:
            # the unpruned frame explores the states the table rules out
            assert stepped[0][0] < stepped[1][0], f"{options} {wrap}: {stepped[0][0]} keys stepped pruned, " \
                                                  f"{stepped[1][0]} unpruned"
        if wrap:
            # a phase set of the unpruned frame may also hold phases the
            # table rules out, which tell it from the same set without them:
            # the two accept alike, but need not be numbered alike
            assert pruned.num_states <= full.num_states
            pruned, full = pruned.determinize_minimize(total=False), full.determinize_minimize(total=False)
        # compared as one bool: a diff of the two texts would take minutes
        same = pruned.to_text() == full.to_text()
        assert same, f"{frame.__name__} {options} {wrap}: {pruned.num_states} states pruned, {full.num_states} unpruned"


def counted(lazy):
    """Count the keys given to ``lazy.step`` from now on, in the one-item list returned."""
    count, step = [0], lazy.step

    def counting(keys):
        count[0] += len(keys)
        return step(keys)

    lazy.step = counting
    return count


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


def scalar_pass1_step(frame, masks, keys, bounded):
    """The arcs of the pass-1 step on ``keys``, from the scalar window rules
    and the frame's viability ``masks`` (all of them, as a list), in the
    order of the frame's step: by key, input digit, claimed digit, then
    successor phase."""
    m, r = frame.m, frame.m + 1
    ub = tuple(frame.phases.windows(3)[frame.done].tolist())
    arcs = []
    for i, key in enumerate(keys):
        p, fields = divmod(key, r**6)
        v0, v1, v2, w0, w1, w2 = (fields // r**k % r for k in range(5, -1, -1))
        u, last = tuple(frame.u[p].tolist()), p == frame.last
        for s in range(r):
            if bounded and s > 2 * (u[3] - last):  # what two valid digits sum to
                continue
            _, (settle, *nv) = rules.window_a(u, (v0, v1, v2, s))
            if settle != w0 or nv[2] > m:
                continue
            claims = range(r)
            if last:
                _, out = rules.window_b(ub, nv)
                if (out[0], out[1]) != (w1, w2) or out[2] > m:
                    continue
                claims = [out[2]]
            for y in claims:
                for t in frame.phases.next[p].tolist():
                    index = digits_after(r, t, *nv, w1, w2)  # the successor without its last claim
                    if t >= 0 and masks[index] >> y & 1:
                        arcs.append((i, s * r + y, index * r + y))
    return arcs


def scalar_phase_set_step(frame, masks, keys, bounded):
    """The arcs of ``_PhaseSets(frame)`` on ``keys`` from the scalar pass-1
    step of the member keys: one arc per source, letter and target fields,
    holding the target phases of every member's arc, in that order."""
    rest = (frame.m + 1) ** 6
    arcs = []
    for i, key in enumerate(keys):
        mask, fields = divmod(key, rest)
        members = [p * rest + fields for p in range(frame.phases.count) if mask >> p & 1]
        joined = {}
        for _, code, target in scalar_pass1_step(frame, masks, members, bounded):
            phase, fields_to = divmod(target, rest)
            joined[code, fields_to] = joined.get((code, fields_to), 0) | 1 << phase
        arcs += [(i, code, bits * rest + f) for (code, f), bits in sorted(joined.items())]
    return arcs


def pass1_keys(frame, rng, count):
    """Seeded pass-1 keys: uniform ones, and ones of windows the rules
    settle as their first claim says, each phase alike, so that last-phase
    keys the closing window accepts occur too."""
    m, r = frame.m, frame.m + 1
    ub = tuple(frame.phases.windows(3)[frame.done].tolist())
    keys = [rng.randrange(frame.phases.count * r**6) for _ in range(count)]
    while len(keys) < 2 * count:
        p = rng.randrange(frame.phases.count)
        v = [rng.randrange(r) for _ in range(4)]
        _, full = rules.window_a(tuple(frame.u[p].tolist()), tuple(v))
        w = [full[0], rng.randrange(r), rng.randrange(r)]
        if p == frame.last or rng.random() < 0.5:
            _, out = rules.window_b(ub, full[1:])
            w[1:] = out[:2]
        if max(w) <= m:
            keys.append(digits_after(r, p, *v[:3], *w))
    return keys


def digits_after(radix, first, *digits):
    """``first`` followed by base-``radix`` digits, most significant first."""
    return functools.reduce(lambda number, d: number * radix + d, digits, first)


def test_pass1_step_matches_the_scalar_rules():
    rng = random.Random("pass-1 step")
    for _ in range(5):
        preperiod = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        cf = ContinuedFraction(rng.randint(0, 3), preperiod, period)
        for bounded in (False, True):
            frame = _Pass1Lazy(automaton_parameters(cf), bounded=bounded)
            masks = frame._masks(np.arange(frame.phases.count * (frame.m + 1) ** 5)).tolist()
            keys = pass1_keys(frame, rng, 150)
            assert any(k // (frame.m + 1) ** 6 == frame.last for k in keys)
            pos, codes, targets = frame.step(np.array(keys, np.int64))
            got = list(zip(pos.tolist(), codes.tolist(), targets.tolist()))
            assert got == scalar_pass1_step(frame, masks, keys, bounded), f"{cf} bounded={bounded}"
            closing = [a for a in got if keys[a[0]] // (frame.m + 1) ** 6 == frame.last]
            assert closing, f"{cf}: no last-phase key closes"
            sets = _PhaseSets(frame)
            set_keys = [rng.randrange(1, 1 << frame.phases.count) * sets.rest + k % sets.rest for k in keys]
            pos, codes, targets = sets.step(np.array(set_keys, np.int64))
            got = list(zip(pos.tolist(), codes.tolist(), targets.tolist()))
            assert got == scalar_phase_set_step(frame, masks, set_keys, bounded), f"{cf} bounded={bounded}, phase sets"


def first_stage(cf, phase_sets):
    """The adder's pass-1 relation, over the digits two valid digits can
    sum to, with or without phase sets."""
    params = automaton_parameters(cf)
    frame = _Pass1Lazy(params, bounded=True)
    return from_lazy(_PhaseSets(frame) if phase_sets else frame, 2, params.m)


def test_phase_sets_accept_as_the_per_phase_first_stage():
    rng = random.Random("phase sets")
    for _ in range(12):
        preperiod = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        cf = ContinuedFraction(rng.randint(0, 3), preperiod, period)
        sets, phases = (first_stage(cf, s).determinize_minimize(total=False).to_text() for s in (True, False))
        assert sets == phases, str(cf)


SHRUNK = {"1;(1)": (68, 218), "1;(2)": (302, 1593), "1;(4)": (1748, 16610), "1;(3,1,2)": (835, 4519),
          "2;(1,8)": (2206, 13017)}


@pytest.mark.parametrize("text, size", SHRUNK.items(), ids=SHRUNK)
def test_phase_sets_shrink_the_first_stage(text, size):
    # each stage leaves one target per letter, on mixed periods too: it is
    # a DFA, its determinization is skipped, and it has about a tenth to a
    # fifth of the per-phase stage's states
    cf = ContinuedFraction.from_text(text)
    stage = first_stage(cf, True)
    assert stage.deterministic and (stage.num_states, stage.num_transitions()) == size
    assert stage.num_states < first_stage(cf, False).num_states


def test_adder_functional(golden):
    # each (x, y) prefix has exactly one completing valid third track; every
    # third track of the given length is a candidate, checked a block at a time
    aut = build_adder(golden)
    m = golden.parameters().m
    for a, b in [(3, 4), (12, 9), (54, 33), (0, 88)]:
        x, y = encode(golden, a).digits, encode(golden, b).digits
        length = len(encode(golden, a + b).digits) + 2
        completions = set()
        xs, ys = (np.array([words.pad(w, length)]) for w in (x, y))  # one candidate each
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
            accepted = valid[[k for _, _, k in bulk.batch_accepts(aut, [xs, ys, valid])]]
            completions.update(bulk.batch_decode(golden, accepted).tolist())
        assert completions == {a + b}


# -- order, equality, V ----------------------------------------------------------


def test_equality_and_less_than(any_cf):
    m = any_cf.parameters().m
    eq = build_equality(any_cf).determinize()
    lt = build_less_than(any_cf).determinize()
    table = [encode(any_cf, n).digits for n in range(130)]
    for a in range(0, 130, 3):
        for b in range(0, 130, 2):
            w = convolve([table[a], table[b]], m)
            assert eq.accepts(w) == (a == b)
            assert lt.accepts(w) == (a < b)


def test_less_than_order_axioms(golden):
    lt = build_less_than(golden).determinize()
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
    va = build_va_graph(any_cf).determinize()
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
