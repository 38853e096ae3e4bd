"""Tests of the benchmark's own parts: oracle, automaton reader, tracer, report.

    python3 -m pytest -q bench/test_bench.py
"""

import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import clock  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = oracle.Expansion("1;(1)")


def test_self_check_passes():
    oracle.self_check()


def test_zeckendorf_by_hand():
    assert oracle.to_text(GOLDEN.encode(10)) == "1 0 0 1 0 0"
    assert GOLDEN.decode((0, 0, 1, 0, 0, 1)) == 10
    assert oracle.to_text(GOLDEN.encode(0)) == "0"


def test_v_fixpoints_of_golden_up_to_60_are_fibonacci():
    assert GOLDEN.fixpoints(60) == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [x for x in range(61) if GOLDEN.v(x) == x] == [1, 2, 3, 5, 8, 13, 21, 34, 55]


@pytest.mark.parametrize("text", ["1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)"])
def test_greedy_encoding_is_valid_and_round_trips(text):
    e = oracle.Expansion(text)
    for n in list(range(500)) + [random.Random(n).randrange(10**60) for n in range(20)]:
        digits = e.encode(n)
        assert e.decode(digits) == n and e.is_valid(digits)
    table = e.encode_range(700, e.width(699))
    assert all(e.decode(tuple(int(d) for d in table[n])) == n for n in range(700))


def test_valid_words_are_exactly_the_representations():
    # Every valid word of length <= 6 decodes to a distinct number, and the
    # numbers below q_6 are each hit once: uniqueness of representation.
    e = oracle.Expansion("1;(2)")
    words = [w for w in _all_words(6, e.m) if e.is_valid(w)]
    values = sorted(e.decode(w) for w in words)
    assert values == list(range(e.q(6)))


def _all_words(n, m):
    if n == 0:
        yield ()
        return
    for w in _all_words(n - 1, m):
        for d in range(m + 1):
            yield w + (d,)


def test_text_automaton_runs_and_samples():
    # Words over {0,1} with no two adjacent ones (the golden valid words).
    text = "\n".join(["arity 1", "digit_bound 1", "num_states 2", "initial 0", "final 0 1",
                      "trans 0 (0) 0", "trans 0 (1) 1", "trans 1 (0) 0"])
    aut = oracle.TextAutomaton(text)
    assert aut.accepts([(1,), (0,), (1,)]) and not aut.accepts([(1,), (1,)])
    for word in aut.random_accepted(random.Random(0), 20, max_len=8):
        assert aut.accepts(word)
    assert oracle.convolve([(1,), (0, 1)], extra=1) == [(0, 0), (0, 1), (1, 0)]
    assert oracle.track([(0, 0), (0, 1), (1, 0)], 1) == (0, 1, 0)


def test_tail_percentiles():
    rows = run.tail_percentiles({"a": [i / 1000 for i in range(1, 101)], "b": [0.001, 0.003]})
    assert rows["a"]["count"] == 100 and rows["a"]["p90_ms"] == pytest.approx(90.0)
    assert "p90_ms" not in rows["b"] and rows["b"]["median_ms"] == pytest.approx(2.0)


def test_tracer_wraps_importers_and_splits_self_time():
    ost = run.load_program()
    tracer = spans.Tracer()
    original = ost.numeration.encode
    tracer.install()
    try:
        assert ost.addition.encode is ost.numeration.encode is not original
        cf = ost.contfrac.ContinuedFraction.from_text("1;(2)")
        assert ost.addition.add(cf, 10**40, 10**40 + 7).value() == 2 * 10**40 + 7
        assert tracer.calls["addition.add"] == 1 and tracer.calls["numeration.encode"] == 2
        assert tracer.calls["contfrac.ContinuedFraction.partial_quotient"] > 0
        recomputed = spans.self_time_by_parent(tracer)
        for name, self_s in recomputed.items():
            assert tracer.self_seconds(name) == pytest.approx(self_s, abs=1e-9)
        assert tracer.seconds("addition.add") >= tracer.seconds("addition.pass1") > 0
        with tracer.paused():
            ost.addition.add(cf, 1, 2)
        assert tracer.calls["addition.add"] == 1
    finally:
        for name in list(sys.modules):  # drop the wrapped modules for later tests
            if name == "ostrowski" or name.startswith("ostrowski."):
                del sys.modules[name]


def test_recorder_counts_known_faults_as_failed():
    import contextlib

    rec = workloads.Recorder(clock.SpeedClock(), contextlib.nullcontext)
    ok, _ = rec.time("x", lambda: 1 / 0)
    rec.check(False, "known", known_fault=True)
    assert (ok, rec.attempted, rec.failed, rec.correct) == (False, 1, 2, True)
    rec.check(False, "wrong")
    assert not rec.correct


def test_layer_metrics_match_benchmark_json():
    import json

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = run.layer_metrics(spans.Tracer(), 0.3)
    assert [(m["name"], m["unit"]) for m in declared] == [(k, u) for k, (_, u) in produced.items()]


def test_every_workload_reports_every_end_to_end_metric():
    import json

    declared = [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    for work in (workloads.Arith, workloads.Build, workloads.Decide):
        assert declared == ["setup_s", "peak_rss_mb", *work.PARTS], work.__name__


def test_speed_clock_scales_by_tick_speed_and_drops_tick_time():
    speed = clock.SpeedClock()
    speed.times = [1.0, 2.0, 3.0, 10.0]
    speed.lengths = [2 * clock.NOMINAL_TICK_S, 2 * clock.NOMINAL_TICK_S, 2 * clock.NOMINAL_TICK_S, 1.0]
    # Ticks twice as slow as nominal halve the interval; the far tick is ignored.
    assert speed.corrected(1.5, 2.5, 4.0) == pytest.approx(2.0)
    speed = clock.SpeedClock()
    speed.start()
    try:
        def spin():  # longer than TICK_S however fast the machine runs
            t = time.perf_counter()
            while time.perf_counter() - t < 3 * clock.TICK_S:
                clock.reference_loop()

        _, (t0, t1, seconds) = speed.timed(spin)
    finally:
        speed.stop()
    assert len(speed.lengths) >= 2 and seconds < t1 - t0  # one tick before, one inside
