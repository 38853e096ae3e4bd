import random
from fractions import Fraction

import pytest

from ostrowski import ContinuedFraction, IndexBeyondKnownPrefix, NotQuadratic


def test_partial_quotients_constant_periods(golden, sqrt2):
    assert golden.partial_quotient(7) == 1
    assert sqrt2.partial_quotient(3) == 2


def test_partial_quotient_indexes_into_period():
    cf = ContinuedFraction(0, (1, 2), (3, 1, 4))
    # the period starts right after the preperiod: a_3 a_4 a_5 = 3 1 4, then repeats
    assert [cf.partial_quotient(k) for k in range(1, 9)] == [1, 2, 3, 1, 4, 3, 1, 4]
    assert cf.partial_quotient(6) == 3
    # the convention is pinned independently by the exact-fraction oracle
    for k in range(1, 9):
        assert cf.convergent_denominators(k)[k] == fraction_denominator(cf, k)


def test_partial_quotient_beyond_prefix_raises():
    cf = ContinuedFraction(2, (5, 3), ())
    assert cf.partial_quotient(2) == 3
    with pytest.raises(IndexBeyondKnownPrefix):
        cf.partial_quotient(3)


def test_quotients_kept_between_calls():
    cf = ContinuedFraction(0, (1, 2), (3, 1, 4))
    want = [cf.partial_quotient(k) for k in range(1, 41)]
    for n in (0, 2, 3, 40, 7, 17, 40):
        got = cf.quotients(n)
        assert got == want[:n]
        got.append(99)  # each call returns a list of its own
    assert cf.quotients(40) == want
    assert cf == ContinuedFraction(0, (1, 2), (3, 1, 4))
    assert hash(cf) == hash(ContinuedFraction(0, (1, 2), (3, 1, 4)))
    with pytest.raises(ValueError):
        cf.quotients(-1)
    prefix_only = ContinuedFraction(2, (5, 3), ())
    assert prefix_only.quotients(2) == [5, 3]
    with pytest.raises(IndexBeyondKnownPrefix):
        prefix_only.quotients(3)


def test_denominators_kept_between_calls():
    # the kept denominators follow the recurrence however they grew, each
    # call returns a list of its own, and a rational prefix still raises
    cf = ContinuedFraction(0, (1, 2), (3, 1, 4))
    aks = cf.quotients(80)
    want = [1, aks[0]]
    for a in aks[1:]:
        want.append(a * want[-1] + want[-2])
    for n in (0, 1, 5, 3, 80, 17, 40):
        got = cf.convergent_denominators(n)
        assert got == want[: n + 1]
        got.append(99)
    assert cf._known_denominators(80)[:81] == want
    assert cf == ContinuedFraction(0, (1, 2), (3, 1, 4))
    prefix_only = ContinuedFraction(2, (5, 3), ())
    assert prefix_only.convergent_denominators(2) == [1, 5, 16]
    with pytest.raises(IndexBeyondKnownPrefix):
        prefix_only.convergent_denominators(3)
    assert prefix_only.convergent_denominators(1) == [1, 5]


def test_fibonacci_denominators(golden):
    assert golden.convergent_denominators(6) == [1, 1, 2, 3, 5, 8, 13]


def fraction_denominator(cf, k):
    """Independent oracle: evaluate [a0; a1..ak] by exact fraction folding."""
    value = Fraction(cf.partial_quotient(k))
    for i in range(k - 1, 0, -1):
        value = cf.partial_quotient(i) + 1 / value
    value = cf.a0 + 1 / value
    return value.denominator


def test_denominators_against_fraction_oracle(sqrt2):
    assert sqrt2.convergent_denominators(4) == [1, 2, 5, 12, 29]
    for k in range(1, 12):
        assert sqrt2.convergent_denominators(k)[k] == fraction_denominator(sqrt2, k)


def test_denominators_against_fraction_oracle_all(any_cf):
    qs = any_cf.convergent_denominators(10)
    for k in range(1, 11):
        assert qs[k] == fraction_denominator(any_cf, k)


def test_q0_alone(any_cf):
    assert any_cf.convergent_denominators(0) == [1]


def test_monotone_and_recurrence(any_cf):
    qs = any_cf.convergent_denominators(52)
    for k in range(1, 52):
        assert qs[k + 1] > qs[k]
    rng = random.Random(1)
    for _ in range(20):
        k = rng.randint(1, 50)
        assert qs[k + 1] - any_cf.partial_quotient(k + 1) * qs[k] == qs[k - 1]


def test_periodicity(any_cf):
    p = len(any_cf.period)
    for k in range(len(any_cf.preperiod) + 1, len(any_cf.preperiod) + 20):
        assert any_cf.partial_quotient(k) == any_cf.partial_quotient(k + p)


def test_parameters_golden(golden):
    p = golden.parameters()
    assert (p.mu, p.m, p.xi, p.nu) == (1, 3, 6, 9)


def test_parameters_mu_m(sqrt2, mixed):
    p = sqrt2.parameters()
    assert (p.mu, p.m) == (2, 5)
    p = mixed.parameters()
    assert (p.mu, p.m) == (2, 5)


def test_parameters_invariants(any_cf):
    p = any_cf.parameters()
    assert p.m == 2 * p.mu + 1
    assert p.xi > 4
    assert p.nu - p.xi >= 3
    for i in range(1, p.nu + 1):
        assert p.unrolled[i - 1] == any_cf.partial_quotient(i)
    # past nu the expansion repeats the block a_xi .. a_nu
    for i in range(p.nu + 1, p.nu + 12):
        assert p.unrolled[p.xi - 1 + (i - p.xi) % (p.nu - p.xi + 1)] == any_cf.partial_quotient(i)


def test_parameters_require_period():
    with pytest.raises(NotQuadratic):
        ContinuedFraction(1, (1, 1), ()).parameters()


def test_text_round_trip(any_cf):
    assert ContinuedFraction.from_text(any_cf.to_text()) == any_cf


def test_parse_forms():
    assert ContinuedFraction.from_text("1;(2)") == ContinuedFraction(1, (), (2,))
    assert ContinuedFraction.from_text("0;1,(1,2)") == ContinuedFraction(0, (1,), (1, 2))
    assert ContinuedFraction.from_text("2;5,3") == ContinuedFraction(2, (5, 3), ())
    assert ContinuedFraction.from_text("-3;2,(7)") == ContinuedFraction(-3, (2,), (7,))


def test_parse_errors_name_token():
    with pytest.raises(ValueError, match="x"):
        ContinuedFraction.from_text("1;x,(2)")
    with pytest.raises(ValueError, match="a0"):
        ContinuedFraction.from_text("q;(2)")
    with pytest.raises(ValueError, match="separator"):
        ContinuedFraction.from_text("12")
    with pytest.raises(ValueError, match="parenthes"):
        ContinuedFraction.from_text("1;(2")
    for empty in ("1;()", "1;2,( )", "0;1,2,()"):
        with pytest.raises(ValueError, match="empty period"):
            ContinuedFraction.from_text(empty)


def test_parse_reads_ascii_digits_only():
    # int() would also read underscores and other scripts' digits
    for text, role in [("1;(1_0)", "period"), ("1;(\u0663)", "period"), ("1_0;(1)", "a0"),
                       ("1;\u0661,(2)", "preperiod"), ("1;(\uff12)", "period"), ("1;(+)", "period")]:
        with pytest.raises(ValueError, match=f"bad {role} token"):
            ContinuedFraction.from_text(text)
    # what was accepted keeps its value: signs, leading zeros, blanks around tokens
    assert ContinuedFraction.from_text(" +1 ; 02 , ( 007 ) ") == ContinuedFraction(1, (2,), (7,))
    assert ContinuedFraction.from_text("-0;(1)") == ContinuedFraction(0, (), (1,))


def test_quotients_must_be_positive():
    with pytest.raises(ValueError):
        ContinuedFraction(1, (0,), (1,))
    with pytest.raises(ValueError):
        ContinuedFraction(1, (), (1, -2))
