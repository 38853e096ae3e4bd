"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  All tolerances are exact."""

import functools
import itertools
import random
import time

import numpy as np
import pytest

from oracles import differential_pass_check
from ostrowski import (
    ContinuedFraction,
    add,
    bulk,
    convolve,
    decide,
    decode,
    encode,
    enumerate_solutions,
    is_valid,
    words,
)
from ostrowski.automata import Automaton
from ostrowski.recognizers import (
    build_adder,
    build_equality,
    build_less_than,
    build_pass_automaton,
    build_va_graph,
    build_valid_rep,
)

ALGO_CFS = ["1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)"]
AUTOMATA_CFS = ["1;(1)", "1;(2)"]
SWEEP_LIMIT = 2000


def report(number, name):
    def hook(fn):
        @functools.wraps(fn)  # keeps the fixture signature visible to pytest
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS{f' [{detail}]' if detail else ''}")

        return wrapper

    return hook


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive M, N <= 2000 addition sweep on all four expansions.

    One vectorized run feeds criteria 1-4: it asserts the window lemmas
    at run time (check=True) and records the digit-bound, value-
    preservation, validity and decode facts the criteria state.
    """
    results = {}
    t_start = time.time()
    for spec in ALGO_CFS:
        cf = ContinuedFraction.from_text(spec)
        table = bulk.encode_table(cf, 2 * SWEEP_LIMIT)
        n_all = np.arange(SWEEP_LIMIT + 1)
        caps = np.array(
            [cf.partial_quotient(k) for k in range(1, table.shape[1] + 4)], dtype=np.int16
        )
        ok = {
            "decode": True,
            "valid": True,
            "step1_bound": True,
            "preserved": True,
            "matches_encoding": True,
        }
        for m_lo in range(0, SWEEP_LIMIT + 1, 250):
            m_idx = np.repeat(np.arange(m_lo, min(m_lo + 250, SWEEP_LIMIT + 1)), len(n_all))
            n_idx = np.tile(n_all, len(m_idx) // len(n_all))
            x, y = table[m_idx], table[n_idx]
            s, z3, w, v3 = bulk.batch_add(cf, x, y, check=True, return_stages=True)
            sums = m_idx.astype(np.int64) + n_idx
            ok["decode"] &= bool((bulk.batch_decode(cf, v3) == sums).all())
            ok["valid"] &= bool(bulk.batch_is_valid(cf, v3).all())
            width1 = z3.shape[1]
            ok["step1_bound"] &= bool(
                (z3[:, 0] <= caps[0] - 1).all() and (z3 <= caps[:width1]).all()
            )
            for stage in (s, z3, w):
                ok["preserved"] &= bool((bulk.batch_decode(cf, stage) == sums).all())
            ok["matches_encoding"] &= bool(
                (v3[:, : table.shape[1]] == table[sums]).all()
                and not v3[:, table.shape[1] :].any()
            )
        results[spec] = ok
    results["elapsed"] = time.time() - t_start
    return results


@report(1, "adder correctness, exhaustive M,N <= 2000 on four expansions")
def test_criterion_1_adder_correctness(sweep):
    for spec in ALGO_CFS:
        assert sweep[spec]["decode"], spec
        assert sweep[spec]["valid"], spec
        assert sweep[spec]["matches_encoding"], spec
        # tie the vectorized sweep to the scalar pass implementation
        cf = ContinuedFraction.from_text(spec)
        rng = random.Random(17)
        for _ in range(60):
            m_value, n_value = rng.randrange(2001), rng.randrange(2001)
            result = add(cf, m_value, n_value)
            assert decode(cf, result.digits) == m_value + n_value
            assert is_valid(cf, result.digits)
    assert sweep["elapsed"] < 30, f"sweep took {sweep['elapsed']:.1f}s"
    return f"{sweep['elapsed']:.1f}s"


@report(2, "first-pass digit bounds across the sweep")
def test_criterion_2_pass1_bound(sweep):
    for spec in ALGO_CFS:
        assert sweep[spec]["step1_bound"], spec


@report(3, "value preserved by every pass across the sweep")
def test_criterion_3_value_preservation(sweep):
    for spec in ALGO_CFS:
        assert sweep[spec]["preserved"], spec


@report(4, "window lemmas hold as runtime assertions across the sweep")
def test_criterion_4_window_lemmas(sweep):
    # batch_add ran with check=True: any lemma violation (during pass 1),
    # forbidden pass-2 pattern, or capped-then-nonzero pass-3 output would
    # have raised InternalInvariantError and failed the sweep fixture.
    assert all(sweep[spec] for spec in ALGO_CFS)


@report(5, "pass automata match the passes (exhaustive golden, sampled sqrt2)")
def test_criterion_5_pass_automata_differential():
    t0 = time.time()
    golden = ContinuedFraction.from_text("1;(1)")
    m = golden.parameters().m
    rng = random.Random(23)
    inputs = [
        tuple(z)
        for length in range(1, 9)
        for z in itertools.product(range(m + 1), repeat=length)
    ]
    checked = 0
    for pass_no in (1, 2, 3):
        checked += differential_pass_check(golden, pass_no, inputs, rng, rejects_per_word=2)
    sqrt2 = ContinuedFraction.from_text("1;(2)")
    m2 = sqrt2.parameters().m
    for pass_no in (1, 2, 3):
        samples = [
            tuple(rng.randrange(m2 + 1) for _ in range(rng.randint(1, 8)))
            for _ in range(10**4)
        ]
        checked += differential_pass_check(sqrt2, pass_no, samples, rng, rejects_per_word=1)
    elapsed = time.time() - t0
    assert elapsed < 120, f"differential took {elapsed:.1f}s"
    return f"{checked} inputs, {elapsed:.1f}s"


@report(6, "composed adder automaton on M,N <= 300 with +/-1 rejection")
def test_criterion_6_adder_automaton():
    details = []
    for spec in AUTOMATA_CFS:
        cf = ContinuedFraction.from_text(spec)
        m = cf.parameters().m
        t0 = time.time()
        adder = build_adder(cf)
        build_time = time.time() - t0
        assert build_time < 300, f"{spec} build took {build_time:.1f}s"
        table = [encode(cf, n).digits for n in range(603)]
        t0 = time.time()
        for a in range(301):
            for b in range(301):
                s = a + b
                assert adder.accepts(convolve([table[a], table[b], table[s]], m))
                assert not adder.accepts(convolve([table[a], table[b], table[s + 1]], m))
                if s > 0:
                    assert not adder.accepts(
                        convolve([table[a], table[b], table[s - 1]], m)
                    )
        check_time = time.time() - t0
        assert check_time < 120, f"{spec} membership took {check_time:.1f}s"
        details.append(f"{spec}: build {build_time:.1f}s, checks {check_time:.1f}s")
    return "; ".join(details)


@report(7, "automata toolkit against brute-force language enumeration")
def test_criterion_7_toolkit():
    import test_automata as ta

    rng = random.Random(29)
    combos = [(1, 1), (1, 2), (1, 3), (2, 1)] * 5 + [(2, 3), (1, 15), (2, 15)]
    count = 0
    for arity, bound in combos:
        a = ta.random_automaton(rng, arity, bound)
        b = ta.random_automaton(rng, arity, bound)
        letters = (bound + 1) ** arity
        assert letters <= 256
        max_len = 6 if letters <= 4 else 3
        la = ta.language(a, max_len)
        lb = ta.language(b, max_len)
        assert np.array_equal(ta.language(a.intersect(b), max_len), la & lb)
        assert np.array_equal(ta.language(a.union(b), max_len), la | lb)
        assert np.array_equal(ta.language(a.complement(), max_len), ~la)
        d = a.determinize_minimize()
        assert d.deterministic and d.is_total()
        assert np.array_equal(ta.language(d, max_len), la)
        arcs = ta.arc_map(d)
        for p in range(d.num_states):
            for q in range(p + 1, d.num_states):
                assert ta.distinguishable(d, p, q, arcs)
        if arity == 2:
            track = rng.choice([0, 1])
            proj = a.project(track)
            arcs = ta.arc_map(a)
            for w in ta.all_words(1, bound, max_len):
                assert proj.accepts(w) == ta.projection_oracle(a, track, w, arcs)
        count += 1
    assert count >= 20
    return f"{count} automata"


@report(8, "base relations: validity, equality, order, V-graph")
def test_criterion_8_base_relations():
    golden = ContinuedFraction.from_text("1;(1)")
    m = golden.parameters().m
    valid = build_valid_rep(golden).determinize()
    assert valid.equivalent(build_valid_rep(golden))
    for length in range(0, 11):
        for digits in itertools.product(range(m + 1), repeat=length):
            lsd = tuple(reversed(digits))
            assert valid.accepts(tuple((d,) for d in digits)) == is_valid(golden, lsd)
    for spec in AUTOMATA_CFS:
        cf = ContinuedFraction.from_text(spec)
        mb = cf.parameters().m
        table = [encode(cf, n).digits for n in range(2003)]
        eq = build_equality(cf).determinize()
        lt = build_less_than(cf).determinize()
        for a in range(501):
            for b in range(501):
                w = convolve([table[a], table[b]], mb)
                assert eq.accepts(w) == (a == b)
                assert lt.accepts(w) == (a < b)
        va = build_va_graph(cf).determinize()
        assert va.accepts(convolve([table[0], table[1]], mb))  # V(0) = 1
        for x in range(2001):
            if x == 0:
                vx = 1
            else:
                k = next(i for i, d in enumerate(table[x]) if d)
                vx = cf.convergent_denominators(k)[k]
            assert va.accepts(convolve([table[x], table[vx]], mb))
            for y in (vx - 1, vx + 1):
                if 0 <= y != vx:
                    assert not va.accepts(convolve([table[x], table[y]], mb))


@report(9, "decision procedure sentence suite and V-fixpoint enumeration")
def test_criterion_9_decision_procedure():
    t0 = time.time()
    suite = [
        ("A x. A y. x + y = y + x", True),
        ("A x. A y. A z. (x + y) + z = x + (y + z)", True),
        ("E x. ~ x = 0 & x + x = x", False),
        ("A x. E y. (x = y + y) | (x = y + y + 1)", True),
        ("A x. E y. V(x) = y", True),
    ]
    for spec in AUTOMATA_CFS:
        cf = ContinuedFraction.from_text(spec)
        for text, expected in suite:
            assert decide(cf, text) == expected, (spec, text)
    golden = ContinuedFraction.from_text("1;(1)")
    sols = enumerate_solutions(golden, "V(x) = x", 60)
    assert sorted(s[0] for s in sols) == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    elapsed = time.time() - t0
    assert elapsed < 300, f"decision suite took {elapsed:.1f}s"
    return f"{elapsed:.1f}s"
