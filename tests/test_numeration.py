import itertools

import pytest

import numpy as np

from ostrowski import ContinuedFraction, bulk, decode, encode, is_valid, numeration, words
from ostrowski.errors import CfMismatch, InternalInvariantError


def valid_words(cf, length):
    """Brute-force oracle: every valid digit word of exactly this length
    (leading zeros allowed), generated from the digit constraints alone."""
    caps = [cf.partial_quotient(k) for k in range(1, length + 1)]
    for digits in itertools.product(*[range(caps[k] + 1) for k in range(length)]):
        if digits and digits[0] >= caps[0]:
            continue
        if any(digits[k] == caps[k] and digits[k - 1] != 0 for k in range(1, length)):
            continue
        yield digits


def test_uniqueness_brute_force(any_cf):
    # Valid words of length L decode bijectively onto [0, q_L).
    for length in range(0, 11):
        values = sorted(decode(any_cf, w) for w in valid_words(any_cf, length))
        q_l = any_cf.convergent_denominators(length)[length]
        assert values == list(range(q_l))


def brute_force_encoding(cf, n, max_len=10):
    matches = [
        w
        for length in range(max_len + 1)
        for w in valid_words(cf, length)
        if decode(cf, w) == n and (not w or w[-1] != 0)
    ]
    assert len(matches) == 1
    return matches[0]


def test_encode_examples_against_brute_force(golden, sqrt2):
    assert encode(golden, 10).digits == brute_force_encoding(golden, 10)
    assert str(encode(golden, 10)) == "1 0 0 1 0 0"
    assert encode(sqrt2, 3).digits == brute_force_encoding(sqrt2, 3)
    assert str(encode(sqrt2, 3)) == "1 1"


def test_encode_zero_is_empty(any_cf):
    w = encode(any_cf, 0)
    assert w.digits == ()
    assert str(w) == "0"


def test_encode_matches_brute_force(any_cf):
    for n in range(0, 40):
        assert encode(any_cf, n).digits == brute_force_encoding(any_cf, n)


def test_decode_examples(golden, sqrt2):
    assert decode(golden, words.from_text("1 0 0 1 0 0")) == 10
    assert decode(golden, (0,) * 7) == 0
    assert decode(sqrt2, words.from_text("1 1")) == 3


def test_decode_accepts_invalid_words(golden):
    # Intermediate pass words are not valid representations but have values.
    assert decode(golden, words.from_text("0 1 1 0 0")) == 5
    assert decode(golden, words.from_text("3 3")) == 3 * 1 + 3 * 1


def test_is_valid_examples(golden):
    assert is_valid(golden, words.from_text("1 0 0 1 0 0"))
    assert not is_valid(golden, words.from_text("1"))  # b_1 must be < a_1 = 1
    assert not is_valid(golden, words.from_text("1 1 0"))  # cap followed by nonzero


def test_is_valid_allows_leading_zeros(any_cf):
    w = encode(any_cf, 17).digits + (0, 0, 0)
    assert is_valid(any_cf, w)


def test_round_trip(any_cf):
    for n in range(10**4 + 1):
        assert decode(any_cf, encode(any_cf, n).digits) == n


def test_greedy_leading_digit(any_cf):
    # Most significant nonzero digit sits at position k+1 for the largest
    # q_k <= N, except when a_1 = 1 ties q_0 = q_1 (N = b*q_0 cases shift up).
    qs = any_cf.convergent_denominators(30)
    for n in range(1, 2000):
        digits = encode(any_cf, n).digits
        top = len(digits)  # position of the leading nonzero digit
        k = max(i for i in range(len(qs)) if qs[i] <= n)
        if any_cf.partial_quotient(1) == 1 and n == 1:
            assert top == 2
        else:
            assert top == k + 1


@pytest.mark.parametrize("text", ["1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)", "1;(30)", "1;(100000)"])
def test_greedy_at_place_values(text):
    # q_k - 1, q_k and q_k + 1 for every k until q_k is past 2^64: the
    # encoder's comparison-first step meets rem == q, rem == q - 1 and
    # rem == q + 1.  A valid word of value n is rho(n), since the
    # representation is unique.
    cf = ContinuedFraction.from_text(text)
    qs = cf.convergent_denominators(8)
    while qs[-2] < 2**64:
        qs = cf.convergent_denominators(2 * len(qs))
    values = sorted({v for q in qs for v in (q - 1, q, q + 1)})
    assert max(values) > 2**64
    rows = [encode(cf, n).digits for n in values]
    for n, digits in zip(values, rows):
        assert is_valid(cf, digits) and decode(cf, digits) == n, n
    for k, q in enumerate(qs):
        if k > 0 and q > qs[k - 1]:  # q_0 = q_1 ties when a_1 = 1
            assert encode(cf, q).digits == (0,) * k + (1,)
    # the batch encoder's int64 remainders below 2^63, Python integers past it
    low = sum(n < 2**63 for n in values)
    for batch, want in [(np.array(values[:low], dtype=np.int64), rows[:low]), (np.array(values, dtype=object), rows)]:
        table = bulk.batch_encode(cf, batch)
        assert [tuple(int(d) for d in row[: len(digits)]) for row, digits in zip(table, want)] == want
        assert all(not row[len(digits):].any() for row, digits in zip(table, want))


def test_greedy_remainder_left_over_is_typed(golden, monkeypatch):
    # a place-value list the greedy cannot exhaust: the same typed error,
    # with the same message, from the scalar and the batch encoder (an
    # assert would vanish under python -O)
    bad = lambda cf, n: ([2, 5], [1, 1])
    monkeypatch.setattr(numeration, "_place_values", bad)
    monkeypatch.setattr(bulk, "_place_values", bad)
    with pytest.raises(InternalInvariantError, match="greedy encoding failed to exhaust the remainder"):
        encode(golden, 3)
    with pytest.raises(InternalInvariantError, match="greedy encoding failed to exhaust the remainder"):
        bulk.batch_encode(golden, [3])


def test_word_text_round_trip():
    assert words.from_text("12 0 3") == (3, 0, 12)
    assert words.to_text((3, 0, 12)) == "12 0 3"
    assert words.to_text(()) == "0"
    with pytest.raises(ValueError, match="x2"):
        words.from_text("1 x2")


def test_word_addition_operator(golden):
    assert (encode(golden, 2) + encode(golden, 3)).value() == 5


def test_cf_mismatch(golden, sqrt2):
    with pytest.raises(CfMismatch):
        encode(golden, 2) + encode(sqrt2, 3)
