import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostrowski import (
    ContinuedFraction,
    add,
    add_words,
    bulk,
    decode,
    digitwise_sum,
    encode,
    is_valid,
    pass1,
    pass2,
    pass3,
    words,
)
from ostrowski.addition import _pass1_core, _width3_core
from ostrowski.errors import (
    CfMismatch,
    DigitOutOfRange,
    IndexBeyondKnownPrefix,
    InputTooShort,
    InternalInvariantError,
    OstrowskiError,
)
from ostrowski.rules import (
    c_preimages_array,
    rewrite,
    window_a,
    window_a_inplace,
    window_b,
    window_b_inplace,
    window_c,
    window_c_inplace,
)


def msd(text):
    return words.from_text(text)


def test_digitwise_sum_examples(golden, sqrt2):
    s = digitwise_sum(encode(golden, 2), encode(golden, 3))
    assert words.to_text(s) == "0 1 1 0 0"
    s = digitwise_sum(encode(golden, 0), encode(golden, 0))
    assert words.to_text(s) == "0"
    s = digitwise_sum(encode(sqrt2, 3), encode(sqrt2, 3))
    assert words.to_text(s) == "0 2 2"


def test_digitwise_sum_cf_mismatch(golden, sqrt2):
    with pytest.raises(CfMismatch):
        digitwise_sum(encode(golden, 1), encode(sqrt2, 1))


def test_pass1_examples(golden, sqrt2):
    out = pass1(golden, msd("0 1 1 0 0"))
    assert words.to_text(out) == "1 0 0 0 0"
    assert decode(golden, out) == 5
    assert pass1(golden, msd("0 0 0 0")) == msd("0 0 0 0")
    out = pass1(sqrt2, msd("0 0 2 2"))
    assert decode(sqrt2, out) == 6
    assert all(out[k - 1] <= sqrt2.partial_quotient(k) for k in range(1, 5))


def test_pass1_rule_a2_fires_at_k5(golden):
    trace = []
    pass1(golden, msd("0 1 1 0 0"), trace=trace)
    first = trace[0]
    assert (first.pass_no, first.k, first.rule) == (1, 5, "A2")
    assert first.before == (0, 1, 1, 0)
    assert first.after == (1, 0, 0, 0)


def test_pass1_errors(golden):
    with pytest.raises(InputTooShort):
        pass1(golden, (1, 0, 0))
    with pytest.raises(DigitOutOfRange):
        pass1(golden, (3, 0, 0, 0))  # 3 > 2*mu for the golden expansion
    # but the unchecked mode runs the bare rules
    pass1(golden, (3, 0, 0, 0), check=False)


def test_pass2_examples(golden):
    assert words.to_text(pass2(golden, msd("0 1 1"))) == "0 1 0 0"
    assert decode(golden, pass2(golden, msd("0 1 1"))) == 2
    assert words.to_text(pass2(golden, msd("1 0 0 0 0"))) == "0 1 0 0 0 0"
    assert words.to_text(pass2(golden, (0,) * 5)) == "0 0 0 0 0 0"


def test_pass3_examples(golden):
    assert words.to_text(pass3(golden, msd("0 1 1 0"))) == "0 1 0 0 0"
    assert decode(golden, pass3(golden, msd("0 1 1 0"))) == 3
    assert words.to_text(pass3(golden, msd("0 1 0 0 0 0"))) == "0 0 1 0 0 0 0"
    assert words.to_text(pass3(golden, (0,) * 4)) == "0 0 0 0 0"


def test_add_examples(golden, sqrt2):
    assert str(add(golden, 2, 3)) == "1 0 0 0 0"
    assert str(add(golden, 10, 9)) == "1 0 1 0 0 1 0"
    assert str(add(sqrt2, 3, 3)) == "1 0 1"


def test_add_words_matches_add(golden):
    assert add_words(encode(golden, 10), encode(golden, 9)) == add(golden, 10, 9)


def stage_words(cf, m_value, n_value):
    s = words.pad(digitwise_sum(encode(cf, m_value), encode(cf, n_value)), 4)
    z3 = pass1(cf, s)
    w = pass2(cf, z3)
    v3 = pass3(cf, w)
    return s, z3, w, v3


def test_value_preserved_each_pass(any_cf):
    rng = random.Random(7)
    for _ in range(150):
        m_value, n_value = rng.randrange(3000), rng.randrange(3000)
        s, z3, w, v3 = stage_words(any_cf, m_value, n_value)
        total = m_value + n_value
        assert decode(any_cf, s) == total
        assert decode(any_cf, z3) == total
        assert decode(any_cf, w) == total
        assert decode(any_cf, v3) == total


def test_pass1_digit_bounds(any_cf):
    rng = random.Random(8)
    for _ in range(150):
        s, z3, _, _ = stage_words(any_cf, rng.randrange(3000), rng.randrange(3000))
        assert z3[0] <= any_cf.partial_quotient(1) - 1
        for k in range(2, len(z3) + 1):
            assert z3[k - 1] <= any_cf.partial_quotient(k)


def test_pass2_forbidden_pattern_absent(any_cf):
    rng = random.Random(9)
    for _ in range(150):
        _, _, w, _ = stage_words(any_cf, rng.randrange(3000), rng.randrange(3000))
        caps = [any_cf.partial_quotient(k) for k in range(1, len(w) + 1)]
        for k in range(4, len(w) + 1):
            assert not (
                w[k - 1] == caps[k - 1]
                and w[k - 2] < caps[k - 2]
                and w[k - 3] == caps[k - 3]
                and w[k - 4] > 0
            )


def test_result_valid_and_correct(any_cf):
    for m_value in range(0, 120):
        for n_value in range(0, 120):
            result = add(any_cf, m_value, n_value)
            assert is_valid(any_cf, result.digits)
            assert decode(any_cf, result.digits) == m_value + n_value
            assert result.digits == encode(any_cf, m_value + n_value).digits


def test_trace_record_format(golden):
    trace = []
    add(golden, 2, 3, trace=trace)
    lines = [str(t) for t in trace]
    assert lines[0] == "pass=1 k=5 window_before=0 1 1 0 window_after=1 0 0 0 rule=A2"
    assert all(
        line.startswith("pass=") and " k=" in line and " rule=" in line for line in lines
    )
    rules = {line.rsplit("rule=", 1)[1] for line in lines}
    allowed = {"A1", "A2", "A3", "B1", "B2", "B3", "B4", "B5", "C", "skip"}
    assert rules <= allowed


class CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_pass1_single_scan(golden):
    s = words.pad(digitwise_sum(encode(golden, 987), encode(golden, 986)), 4)
    work = CountingList(s)
    aks = [golden.partial_quotient(k) for k in range(1, len(s) + 1)]
    _pass1_core(work, aks, check=True, trace=None)
    assert work.reads <= 4 * len(s)


def test_pass23_single_scan(golden):
    z3 = pass1(golden, words.pad(digitwise_sum(encode(golden, 987), encode(golden, 986)), 4))
    aks = [golden.partial_quotient(k) for k in range(1, len(z3) + 2)]
    work = CountingList(list(z3) + [0])
    _width3_core(work, aks, range(3, len(work) + 1), 2, None)
    assert work.reads <= 4 * len(work)
    work = CountingList(list(work) + [0])
    _width3_core(work, aks + [golden.partial_quotient(len(aks) + 1)],
                 range(len(work), 2, -1), 3, None)
    assert work.reads <= 4 * len(work)


def pass_outcome(run, cf, word, **kw):
    try:
        return run(cf, word, **kw)
    except OstrowskiError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", ["1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)", "2;(1,8)"])
def test_untraced_passes_match_traced(text):
    # An untraced pass steps over idle windows; a traced one runs every
    # step.  Both must give the same word, or the same error and message,
    # with the checks on and off: on every word of length 4 and 5 with
    # digits 0..2a_k+1 at position k, and on random words up to length 9
    # with digits 0..2mu+1 anywhere.
    cf = ContinuedFraction.from_text(text)
    caps = cf.quotients(9)
    cases = [w for n in (4, 5) for w in itertools.product(*(range(2 * a + 2) for a in caps[:n]))]
    rng = random.Random(20)
    cases += [tuple(rng.randrange(2 * max(caps) + 2) for _ in range(rng.randrange(4, 10))) for _ in range(2000)]
    for word in cases:
        for run in (pass1, pass2, pass3):
            for check in (True, False):
                trace = []
                traced = pass_outcome(run, cf, word, check=check, trace=trace)
                assert pass_outcome(run, cf, word, check=check) == traced, (run.__name__, word, check)
                if not isinstance(traced[0], type):  # a finished traced pass recorded every step
                    assert len(trace) == len(word) - 2 + (run is not pass1)


@pytest.mark.parametrize("text", ["1;(30)", "2;(1,8)", "1;(100000)"])
def test_add_matches_encode_of_the_sum_at_1e300(text):
    cf = ContinuedFraction.from_text(text)
    rng = random.Random(21)
    pairs = [(rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300)) for _ in range(8)]
    pairs += [(0, 10**300), (10**300 - 1, 1), (cf.convergent_denominators(200)[-1] - 1, 1)]
    for m_value, n_value in pairs:
        trace = []
        result = add(cf, m_value, n_value, trace=trace)
        assert result == add(cf, m_value, n_value) == encode(cf, m_value + n_value)
        assert decode(cf, result) == m_value + n_value


def test_bulk_matches_scalar(any_cf):
    rng = random.Random(10)
    pairs = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(300)]
    table = bulk.encode_table(any_cf, 2000)
    x = table[[p[0] for p in pairs]]
    y = table[[p[1] for p in pairs]]
    s, z3, w, v3 = bulk.batch_add(any_cf, x, y, return_stages=True)
    for row, (m_value, n_value) in enumerate(pairs):
        ss, zz, ww, vv = stage_words(any_cf, m_value, n_value)
        assert tuple(s[row, : len(ss)]) == ss and not s[row, len(ss):].any()
        assert tuple(z3[row, : len(zz)]) == zz
        assert tuple(w[row, : len(ww)]) == ww and not w[row, len(ww):].any()
        assert tuple(v3[row, : len(vv)]) == vv and not v3[row, len(vv):].any()


def padded_encodings(cf, values):
    """The reference for batch_encode: scalar encode, zero-padded."""
    rows = [encode(cf, n).digits for n in values]
    width = max(len(r) for r in rows)
    return np.array([words.pad(r, width) for r in rows])


def test_batch_encode_matches_scalar(any_cf):
    table = bulk.batch_encode(any_cf, np.arange(5001))
    assert np.array_equal(table, padded_encodings(any_cf, range(5001)))
    assert table.dtype == np.int8
    # past 2**63 the remainders are Python integers (an object array)
    rng = random.Random(16)
    big = [rng.randrange(10**e, 10 ** (e + 1)) for e in (rng.randrange(18, 30) for _ in range(200))]
    assert min(big) < 2**63 < max(big)
    table = bulk.batch_encode(any_cf, big)
    assert table.dtype == np.int8
    assert np.array_equal(table, padded_encodings(any_cf, big))
    edge = [2**63 - 1, 2**63, 2**64 - 1]
    assert np.array_equal(bulk.batch_encode(any_cf, np.array(edge, np.uint64)), padded_encodings(any_cf, edge))
    # the table of 0..limit, its empty forms and its width
    assert np.array_equal(bulk.encode_table(any_cf, 5000), padded_encodings(any_cf, range(5001)))
    assert bulk.batch_encode(any_cf, []).shape == (0, 0)
    assert bulk.encode_table(any_cf, 0).shape == (1, 0)
    assert bulk.encode_table(any_cf, 100).shape == (101, len(encode(any_cf, 100)))
    with pytest.raises(ValueError, match="negative"):
        bulk.batch_encode(any_cf, [3, -1, 5])


def test_batch_encode_large_quotient():
    cf = ContinuedFraction(1, (), (9000,))
    rng = random.Random(17)
    values = [*range(2000), *(rng.randrange(10**15) for _ in range(200)), *(rng.randrange(10**40) for _ in range(50))]
    table = bulk.batch_encode(cf, values)
    assert table.dtype == np.int32
    assert np.array_equal(table, padded_encodings(cf, values))


def test_encoders_stop_at_a_rational_prefix():
    cf = ContinuedFraction(2, (5, 3), ())  # q = 1, 5, 16
    assert np.array_equal(bulk.batch_encode(cf, range(16)), padded_encodings(cf, range(16)))
    for encoder in (lambda n: encode(cf, n), lambda n: bulk.batch_encode(cf, [0, n])):
        with pytest.raises(IndexBeyondKnownPrefix, match="a_3 requested"):
            encoder(16)


def test_bulk_decode_and_valid(any_cf):
    table = bulk.encode_table(any_cf, 500)
    values = bulk.batch_decode(any_cf, table)
    assert list(values) == list(range(501))
    assert bulk.batch_is_valid(any_cf, table).all()
    bad = np.array(table[:50])
    bad[:, 0] = any_cf.partial_quotient(1)  # violates b_1 < a_1
    assert not bulk.batch_is_valid(any_cf, bad).any()
    for row in [(-1,), (0, -1), (0, 0, -2)]:  # negative digits
        assert not is_valid(any_cf, row)
        assert not bulk.batch_is_valid(any_cf, np.array([row], dtype=np.int16)).any()
    assert bulk.batch_is_valid(any_cf, np.zeros((2, 0), dtype=np.int16)).all()
    # rho(0) is the empty word: rows of no digits decode to 0
    empty = bulk.encode_table(any_cf, 0)
    assert empty.shape == (1, 0)
    assert list(bulk.batch_decode(any_cf, empty)) == [0]
    assert list(bulk.batch_decode(any_cf, np.zeros((3, 0), dtype=np.int16))) == [0, 0, 0]


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_bulk_decode_magnitude_of_the_type_minimum(golden, dtype):
    # np.abs of the type's minimum stays negative; the bound must not read it
    row = np.zeros((1, 85), dtype)
    row[0, -1] = np.iinfo(dtype).min
    want = int(np.iinfo(dtype).min) * golden.convergent_denominators(84)[84]
    assert want < -(2**63)
    assert [int(v) for v in bulk.batch_decode(golden, row)] == [want]


def test_bulk_decode_exact_past_int64(golden):
    # 2**63 < s < q_92 for the golden ratio: 92-digit representations.
    sums = [10**19 + i * 9 * 10**15 for i in range(8)]
    rows = np.array([encode(golden, s).digits for s in sums], dtype=np.int16)
    assert rows.shape == (8, 92)
    assert [int(v) for v in bulk.batch_decode(golden, rows)] == sums
    halves = [encode(golden, s // 2).digits for s in sums]
    rests = [encode(golden, s - s // 2).digits for s in sums]
    width = max(len(d) for d in halves + rests)
    x = np.array([words.pad(d, width) for d in halves], dtype=np.int16)
    y = np.array([words.pad(d, width) for d in rests], dtype=np.int16)
    out = bulk.batch_add(golden, x, y)
    assert out.shape == (8, 94)
    assert [int(v) for v in bulk.batch_decode(golden, out)] == sums


@pytest.mark.parametrize(
    "cap, dtype", [(30, np.int8), (31, np.int16), (8190, np.int16), (8191, np.int32), (30000, np.int32)]
)
def test_bulk_large_quotients_do_not_wrap(cap, dtype):
    # digits at the caps, so pass digits near 2 * cap: on 1;(30000),
    # cap * cap + cap - 2 has digits (29997, 0, 1), and twice it needs int32
    cf = ContinuedFraction(1, (), (cap,))
    values = [cap * cap + cap - 2, cap * cap, cap * cap - 1, 2 * cap * cap + cap + 1, cap**3 + cap * cap - 1]
    assert encode(cf, values[0]).digits == (cap - 3, 0, 1)
    pairs = list(itertools.product(values, repeat=2))
    width = max(len(encode(cf, v).digits) for v in values)
    x = np.array([words.pad(encode(cf, m_value).digits, width) for m_value, _ in pairs], dtype=np.int16)
    y = np.array([words.pad(encode(cf, n_value).digits, width) for _, n_value in pairs], dtype=np.int16)
    out = bulk.batch_add(cf, x, y)
    assert out.dtype == dtype
    for row, (m_value, n_value) in enumerate(pairs):
        want = add(cf, m_value, n_value).digits
        assert tuple(out[row, : len(want)]) == want and not out[row, len(want):].any()
    table = bulk.encode_table(cf, cap - 1)  # first digits up to cap - 1
    assert table.dtype == dtype
    assert list(bulk.batch_decode(cf, table)) == list(range(cap))


def test_bulk_blocks_keep_global_rows(golden):
    # a batch over two and a half blocks at the real block size
    table = bulk.encode_table(golden, 2000)
    block = bulk._CELLS // (max(table.shape[1] + 1, 4) + 2)
    rng = np.random.default_rng(11)
    ia, ib = rng.integers(0, 1001, 5 * block // 2), rng.integers(0, 1001, 5 * block // 2)
    out = bulk.batch_add(golden, table[ia], table[ib])
    assert np.array_equal(out[:, : table.shape[1]], table[ia + ib])
    assert not out[:, table.shape[1]:].any()
    # an invalid row past the first block makes pass 1 raise, naming it
    x = np.zeros((2 * block, 6), dtype=np.int16)
    row = block + 41
    x[row] = (0, 0, 0, 0, 2, 2)
    with pytest.raises(InternalInvariantError, match=rf"pass 1 .* rows \[{row}\]"):
        bulk.batch_add(golden, x, np.zeros_like(x))


def test_bulk_rejects_input_digits_out_of_range(golden):
    # the golden ratio adds on int8: digits past it would wrap when cast
    # (65537 to 1, so 65537 + 65537 would come out as rho(2)), and a
    # negative one would pass through the passes unchanged; all are refused
    # by row, and check=False skips only the pass invariants
    rows = ((40000, 0, 0), np.int64), ((65537, 0, 0), np.int64), ((128, 0, 0), np.int16), ((-1, 0, 0), np.int8)
    for row, dtype in rows:
        x = np.zeros((6, 3), dtype)
        x[4] = row
        for args in ((x, x), (x, np.zeros_like(x)), (np.zeros_like(x), x)):
            for check in (True, False):
                with pytest.raises(DigitOutOfRange, match=r"rows \[4\]"):
                    bulk.batch_add(golden, *args, check=check)
    # a negative digit is refused also where its unsigned reading is within
    # the caps: -100 reads as 156 on int8 and -30000 as 35536 on int16
    for text, digits in (("1;(100)", (-100, -128)), ("1;(20000)", (-30000,))):
        cf = ContinuedFraction.from_text(text)
        for digit in digits:
            x = np.zeros((6, 3), np.int8 if digit >= -128 else np.int16)
            x[4, 1] = digit
            for check in (True, False):
                with pytest.raises(DigitOutOfRange, match=r"rows \[4\]"):
                    bulk.batch_add(cf, x, np.zeros_like(x), check=check)
    # a digit of 2 * mu passes the input check; the pass invariants judge it
    x = np.full((1, 3), 2, np.int8)
    bulk.batch_add(golden, x, x, check=False)
    with pytest.raises(InternalInvariantError):
        bulk.batch_add(golden, x, x)


def test_bulk_refuses_digit_matrices_that_are_not_2d(golden):
    flat, cube, good = np.zeros(3, np.int8), np.zeros((1, 2, 3), np.int8), np.zeros((2, 3), np.int8)
    for x, y in ((flat, flat), (cube, cube), (good, flat), (flat, good), (good, np.zeros((2, 4), np.int8))):
        for check in (True, False):
            with pytest.raises(ValueError, match=re.escape(f"2-D of one shape, not {x.shape} and {y.shape}")):
                bulk.batch_add(golden, x, y, check=check)


FIXTURES = ("1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)")
FIXTURES_AND_WIDE = FIXTURES + ("1;(31)",)  # 1;(31) adds on int16


# rows (LSD first) that pass pass 1 and then show pass 2's forbidden pattern,
# and that pass pass 2 but leave pass 3 with a capped digit before a nonzero one
LATE_FAILURES = {
    "0;1,(1,2)": ((0, 0, 0, 3, 0, 2), (0, 0, 0, 2, 0, 4)),
    "1;(3,1,2)": ((0, 3, 0, 5, 0, 5), (0, 0, 0, 4, 0, 6)),
}


def random_non_sums(cf, rng, count):
    """Digit matrices of 1-6 rows and 1-9 columns, digits in 0..2mu at one of
    four densities: uniform, or in every fourth at, next to or twice the
    position's cap."""
    for trial in range(count):
        rows, given = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        aks = cf.quotients(max(given + 1, 4) + 2)
        if trial % 4 == 3:
            caps = np.array(aks[:given])
            near = np.stack([0 * caps, caps - 1, caps, caps + 1, 2 * caps, 2 * caps + 1])
            digits = np.minimum(near[rng.integers(0, 6, (rows, given)), np.arange(given)], 2 * max(aks))
        else:
            digits = rng.integers(0, 2 * max(aks) + 1, (rows, given))
        dense = (0.1, 0.3, 0.7, 0.9)[trial % 4]
        yield np.where(rng.random((rows, given)) < dense, digits, 0).astype(np.int16)


def first_report(bad_at, pick):
    """Where the batch reports the per-row failures ``bad_at`` (a step or
    position per row, None where the row passes), ``pick`` of them, and
    the first five rows failing there; None when no row fails."""
    at = pick((k for k in bad_at if k is not None), default=None)
    return (None, []) if at is None else (at, [r for r, k in enumerate(bad_at) if k == at][:5])


def capped_pattern_at(aks, w):
    """The lowest position k at which pass 2's output ``w`` shows
    (a_k, < a_{k-1}, a_{k-2}, > 0), else None."""
    return next((k for k in range(4, len(w) + 1) if w[k - 1] == aks[k - 1] and w[k - 2] < aks[k - 2]
                 and w[k - 3] == aks[k - 3] and w[k - 4] > 0), None)


def capped_then_nonzero_at(aks, v):
    """The lowest position k at which pass 3's output ``v`` has a capped
    digit followed by a nonzero digit, else None."""
    return next((k for k in range(2, len(v) + 1) if v[k - 1] == aks[k - 1] and v[k - 2] > 0), None)


def pass1_fails_at(cf, s):
    """The step at which the checked scalar pass 1 raises on ``s``, else None."""
    try:
        pass1(cf, s)
    except InternalInvariantError as error:
        return int(re.match(r"step (\d+):", str(error)).group(1))
    return None


@pytest.mark.parametrize("text", FIXTURES_AND_WIDE)
def test_batch_kernel_on_non_sums_matches_the_scalar_passes(text):
    # digit matrices that are no digit sums, y = 0: with check=False every
    # stage is the scalar pass with check=False, row by row; with
    # check=True the batch reports what the scalar checks find: pass 1 at
    # its largest failing step (the first the pass meets), else pass 2,
    # then pass 3, at the lowest failing output position, naming the first
    # rows that fail there
    cf = ContinuedFraction.from_text(text)
    late = LATE_FAILURES.get(text, ())
    crafted = [np.array(late[k:], np.int16) for k in range(len(late))]  # fails pass 2, then pass 3 alone
    seen = set()
    for x in itertools.chain(crafted, random_non_sums(cf, np.random.default_rng(29), 120)):
        y = np.zeros_like(x)
        width = max(x.shape[1] + 1, 4)
        aks = cf.quotients(width + 2)
        stages = [a.tolist() for a in bulk.batch_add(cf, x, y, check=False, return_stages=True)]
        for r, row in enumerate(x.tolist()):
            s = tuple(row) + (0,) * (width - len(row))
            z3 = pass1(cf, s, check=False)
            w = pass2(cf, z3, check=False)
            assert [tuple(a[r]) for a in stages] == [s, z3, w, pass3(cf, w, check=False)], (text, row)
        reports = (
            ("pass 1 window invariant violated at step {}", max,
             [pass1_fails_at(cf, tuple(s)) for s in stages[0]]),
            ("pass 2 output shows the forbidden capped pattern at position {}", min,
             [capped_pattern_at(aks, w) for w in stages[2]]),
            ("pass 3 output has capped digit at position {} followed by nonzero", min,
             [capped_then_nonzero_at(aks, v) for v in stages[3]]),
        )
        for message, pick, bad_at in reports:
            at, rows = first_report(bad_at, pick)
            if at is not None:
                seen.add(message[:6])
                with pytest.raises(InternalInvariantError) as error:
                    bulk.batch_add(cf, x, y)
                assert str(error.value) == f"{message.format(at)}, rows {np.array(rows)}"
                break
        else:
            seen.add("passes")
            assert bulk.batch_add(cf, x, y).tolist() == stages[3]
    assert seen >= {"pass 1", "passes"} | ({"pass 2", "pass 3"} if late else set()), seen


def test_bulk_rejects_non_integer_digits(golden):
    # refused before numpy adds them, whether the checks are on or off
    good = np.zeros((3, 3), np.int16)
    for bad in (np.zeros((3, 3), np.float64), np.zeros((3, 3), object)):
        for args in ((bad, good), (good, bad)):
            for check in (True, False):
                with pytest.raises(DigitOutOfRange, match="not of integers"):
                    bulk.batch_add(golden, *args, check=check)


small_expansions = st.builds(
    ContinuedFraction,
    st.just(1),
    st.lists(st.integers(1, 5), max_size=3).map(tuple),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
)
magnitudes = st.one_of(  # small, or with 6, 60 or 300 decimal digits
    st.integers(0, 1000), st.sampled_from((6, 60, 300)).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d))
)


@settings(max_examples=40, deadline=None, database=None)
@given(
    cf=st.one_of(st.sampled_from(FIXTURES).map(ContinuedFraction.from_text), small_expansions),
    pairs=st.lists(st.tuples(magnitudes, magnitudes), max_size=4),
    pad=st.integers(0, 2),
    block_rows=st.integers(1, 3),
)
@example(cf=ContinuedFraction.from_text("1;(1)"), pairs=[], pad=0, block_rows=1)  # the empty batch
@example(cf=ContinuedFraction.from_text("1;(1)"), pairs=[(0, 0), (0, 0)], pad=0, block_rows=1)  # zero-width
@example(cf=ContinuedFraction.from_text("1;(2)"), pairs=[(10**300, 7), (3, 10**299), (0, 10**300)], pad=1, block_rows=2)
# the edge of the digit types: 1;(30) adds on int8, 1;(31) on int16
@example(cf=ContinuedFraction.from_text("1;(30)"), pairs=[(928, 928), (29790, 959), (10**60, 1)], pad=0, block_rows=2)
@example(cf=ContinuedFraction.from_text("1;(31)"), pairs=[(990, 990), (30783, 991), (10**60, 1)], pad=1, block_rows=1)
def test_batch_add_matches_scalar_add(cf, pairs, pad, block_rows):
    xs = [encode(cf, m_value).digits for m_value, _ in pairs]
    ys = [encode(cf, n_value).digits for _, n_value in pairs]
    given_width = max(map(len, xs + ys), default=0) + pad
    x = np.array([words.pad(d, given_width) for d in xs], dtype=np.int16).reshape(len(pairs), given_width)
    y = np.array([words.pad(d, given_width) for d in ys], dtype=np.int16).reshape(len(pairs), given_width)
    width = max(given_width + 1, 4)
    stages = bulk.batch_add(cf, x, y, return_stages=True)
    assert [a.shape for a in stages] == [(len(pairs), n) for n in (width, width, width + 1, width + 2)]
    dtype = np.int8 if max(cf.quotients(width + 2)) <= 30 else np.int16
    assert all(a.dtype == dtype for a in stages)
    v3 = bulk.batch_add(cf, x, y)
    assert v3.dtype == dtype and np.array_equal(v3, stages[3])
    for row, (m_value, n_value) in enumerate(pairs):
        want = add(cf, m_value, n_value).digits
        assert want == encode(cf, m_value + n_value).digits
        for got, scalar in zip(stages, stage_words(cf, m_value, n_value)):
            assert tuple(got[row, : len(scalar)]) == scalar and not got[row, len(scalar):].any()
        assert tuple(v3[row, : len(want)]) == want
    # blocks of a few rows each give the same bytes
    with mock.patch.object(bulk, "_CELLS", block_rows * (width + 2)):
        blocked = bulk.batch_add(cf, x, y, return_stages=True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stages, blocked))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_array_rules_match_scalar(dtype):
    # every window over digits 0..6 under every cap triple in 1..3
    for width, scalar, inplace in ((4, window_a, window_a_inplace), (3, window_b, window_b_inplace),
                                   (3, window_c, window_c_inplace)):
        windows = np.array(list(itertools.product(range(7), repeat=width)), dtype).T
        for u in itertools.product(range(1, 4), repeat=3):
            got = np.stack(rewrite(inplace, u, tuple(windows)))
            want = np.array([scalar(u, tuple(map(int, v)))[1] for v in windows.T]).T
            assert got.dtype == dtype and np.array_equal(got, want), (scalar.__name__, u)


def test_c_preimages_array():
    bound = 5
    windows = list(itertools.product(range(bound + 1), repeat=3))
    after = tuple(np.array(windows).T)
    for u in itertools.product(range(1, 4), repeat=2):
        exists, before = c_preimages_array(u, after, bound)
        for k, w in enumerate(windows):
            got = sorted(tuple(int(b[k, j]) for b in before) for j in range(2) if exists[k, j])
            assert got == [v for v in windows if window_c(u, v)[1] == w], (u, w)
