import random

import numpy as np
import pytest

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
from ostrowski.errors import CfMismatch, DigitOutOfRange, InputTooShort


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


def test_bulk_decode_and_valid(any_cf):
    table = bulk.encode_table(any_cf, 500)
    values = bulk.batch_decode(any_cf, table)
    assert list(values) == list(range(501))
    assert bulk.batch_is_valid(any_cf, table).all()
    bad = np.array(table[:50])
    bad[:, 0] = any_cf.partial_quotient(1)  # violates b_1 < a_1
    assert not bulk.batch_is_valid(any_cf, bad).any()


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
