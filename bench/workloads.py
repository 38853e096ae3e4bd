"""The three workloads: what each sets up, what one round does, how it is checked.

A workload object is built from a seed; its constructor is the set-up
(input generation plus whatever the program must build before the timed
phase).  ``prepare`` runs untimed warm-ups, ``run_round`` performs one
whole round of operations, timing each call and checking its output
after the clock has stopped, and ``metrics`` turns the recorded timings
into the end-to-end metrics.  Every round performs the same operations,
so the share of failed operations is the same in every run.

Every workload reports the same end-to-end metrics.  Besides ``setup_s``
and ``peak_rss_mb``, a round falls into three parts; ``PARTS`` maps each
part's metric to the operation classes it sums, and the metric is the
part's seconds per round.  ``figures`` gives the same timings in the
workload's own terms (``add_per_s``, ``assoc_s``, ...) for the report.

Program code is always reached through module attributes at call time
(``self.ost.addition.add``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle

SUBPROCESS_TIMEOUT_S = 150


class Recorder:
    """Timed operations per class, and the counts of the result line.

    Each operation's interval is kept raw; ``finish`` turns the intervals
    into durations, corrected for machine speed (see ``clock.py``) or not.
    Classes starting with one of ``raw_classes`` run without ticks and stay
    uncorrected; those starting with one of ``child_classes`` run in a
    child process that reports its own ticks, ``fn`` returning
    ``(output, ticks)``.  ``key`` groups operations of like cost within
    a class (one expansion's adds at one magnitude, one sentence), and
    ``robust_total`` counts each group at its median.
    """

    def __init__(self, clock, pause, raw_classes=(), child_classes=()):
        self.clock = clock
        self.pause = pause  # context manager silencing the tracer during checks
        self.raw_classes = tuple(raw_classes)
        self.child_classes = tuple(child_classes)
        self.intervals: list[tuple] = []  # (class, key, start, end, seconds, ticks or None)
        self.samples: dict[str, list[float]] = {}
        self.repeats: dict[tuple, list[float]] = {}  # (class, key) -> seconds
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0
        self.problems: list[str] = []

    def time(self, cls: str, fn, *args, key=None):
        """Run one timed operation; returns (ok, output).  A raise counts as failed."""
        self.attempted += 1
        try:
            if cls.startswith(self.raw_classes + self.child_classes):
                mark = self.clock.mark()
                out = fn(*args)
                t0, t1, seconds = self.clock.raw_since(mark)
                ticks = None
                if cls.startswith(self.child_classes):
                    out, ticks = out
                    seconds -= sum(ticks)
                interval = (t0, t1, seconds, ticks)
            else:
                out, interval = self.clock.timed(fn, *args)
                interval += (None,)
        except Exception as exc:  # any fault of the program is a failed operation
            self.failed += 1
            self.problems.append(f"{cls}: {type(exc).__name__}: {str(exc)[:120]}")
            return False, None
        self.intervals.append((cls, key, *interval))
        return True, out

    def check(self, ok: bool, what: str, known_fault: bool = False) -> None:
        """A wrong output makes the run incorrect, unless the operation is a
        known fault, which counts as failed instead."""
        if ok:
            return
        if known_fault:
            self.failed += 1
        else:
            self.correct = False
        self.problems.append(f"wrong output: {what}")

    def finish(self, corrected: bool) -> None:
        self.samples = {}
        self.repeats = {}
        for cls, key, t0, t1, seconds, ticks in self.intervals:
            if corrected and not cls.startswith(self.raw_classes):
                seconds = self.clock.corrected(t0, t1, seconds, ticks)
            self.samples.setdefault(cls, []).append(seconds)
            self.repeats.setdefault((cls, key), []).append(seconds)

    def robust_total(self, *prefixes: str) -> float:
        """Total time of the classes, each operation counted at the median
        of its group, so a spell of slowness on a shared core moves it less."""
        return sum(statistics.median(v) * len(v) for (cls, _), v in self.repeats.items() if cls.startswith(prefixes))

    def total(self, *prefixes: str) -> float:
        return sum(sum(v) for k, v in self.samples.items() if k.startswith(prefixes))

    def count(self, *prefixes: str) -> int:
        return sum(len(v) for k, v in self.samples.items() if k.startswith(prefixes))


def part_metrics(work, rec: Recorder) -> dict:
    """Seconds per round of each of the workload's three parts."""
    return {name: (rec.robust_total(*prefixes) / rec.rounds, "s") for name, prefixes in work.PARTS.items()}


def clear_caches(caches) -> None:
    for c in caches:
        c.cache_clear()


# -- arith ------------------------------------------------------------------------


class Arith:
    """Scalar ``add`` at three magnitudes, and ``batch_add`` of 3,000,000 rows
    per expansion in 1,000,000-row calls."""

    EXPANSIONS = ("1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)")
    # Decimal digits of M and N: seeded pairs per expansion.  An add at
    # 10^6 is dominated by per-call overhead, one at 10^300 by the digit
    # loops of the three passes.
    MAGNITUDES = {6: 240, 60: 96, 300: 48}
    PARTS = {
        "part_a_s": ("add:short",),  # scalar add at 10^6 and 10^60
        "part_b_s": ("add:long",),  # scalar add at 10^300
        "part_c_s": ("batch_add",),  # 4 x 3 x 1,000,000 rows
    }
    TABLE_VALUES = 2**14  # rho(0), ..., rho(16383) encoded during set-up
    BATCH_ROWS = 3_000_000  # per expansion and round, in BATCH_CALLS calls
    BATCH_CALLS = 3
    WIDE_SUMS = [10**19 + i * 9 * 10**15 for i in range(8)]  # 2**63 < sum < q_92 of 1;(1)
    setup_repeats = 3
    # Over 20 runs the raw time of 1,000,000-row batch_add calls drifted
    # with the run's median tick (ratio 0.99-1.07 where the raw time moved
    # 18 %), so it is corrected like the scalar adds.
    raw_classes = ("wide_decode",)
    child_classes = ()

    def __init__(self, ost, seed: int):
        self.ost = ost
        rng = random.Random(seed)
        self.cfs = [ost.contfrac.ContinuedFraction.from_text(t) for t in self.EXPANSIONS]
        self.pairs = {
            d: [(rng.randrange(10 ** (d - 1), 10**d), rng.randrange(10 ** (d - 1), 10**d)) for _ in range(n)]
            for d, n in self.MAGNITUDES.items()
        }
        self.tables = [ost.bulk.encode_table(cf, self.TABLE_VALUES - 1) for cf in self.cfs]
        gen = np.random.default_rng(seed)
        self.index = [
            (gen.integers(0, self.TABLE_VALUES, self.BATCH_ROWS, dtype=np.int32),
             gen.integers(0, self.TABLE_VALUES, self.BATCH_ROWS, dtype=np.int32))
            for _ in self.cfs
        ]
        self.oracles = [oracle.Expansion(t) for t in self.EXPANSIONS]
        self._expected_tables: dict[int, np.ndarray] = {}

    def prepare(self) -> None:
        """One untimed call of each batch shape, so timed calls start warm."""
        for i, cf in enumerate(self.cfs):
            x, y = self._batch_inputs(i, 0)
            self.ost.bulk.batch_add(cf, x, y, check=True)

    def _rows(self, h: int) -> slice:
        n = self.BATCH_ROWS // self.BATCH_CALLS
        return slice(h * n, (h + 1) * n)

    def _batch_inputs(self, i: int, h: int):
        ia, ib = self.index[i]
        rows = self._rows(h)
        return self.tables[i][ia[rows]], self.tables[i][ib[rows]]

    def run_round(self, rec: Recorder) -> None:
        # Scalar and batch work alternate per expansion, so every part
        # samples the whole run rather than one stretch of it.
        add = lambda cf, a, b: self.ost.addition.add(cf, a, b)
        for i, (cf, orc) in enumerate(zip(self.cfs, self.oracles)):
            for d in self.MAGNITUDES:
                cls = f"add:{'long' if d >= 300 else 'short'}@1e{d}"
                results = [(a, b, rec.time(cls, add, cf, a, b, key=i)) for a, b in self.pairs[d]]
                with rec.pause():
                    for a, b, (ok, word) in results:
                        if ok:
                            rec.check(word.digits == orc.encode(a + b), f"add {orc.text} {a} {b}")
            for h in range(self.BATCH_CALLS):
                x, y = self._batch_inputs(i, h)
                ok, out = rec.time("batch_add", lambda: self.ost.bulk.batch_add(cf, x, y, check=True), key=i)
                del x, y
                if ok:
                    with rec.pause():
                        rec.check(self._batch_matches(i, h, out), f"batch_add {orc.text}")
                del out
        self._wide_decode(rec)

    def _batch_matches(self, i: int, h: int, out: np.ndarray) -> bool:
        """Every row equals the oracle's encoding of the row's M + N."""
        orc = self.oracles[i]
        expected = self._expected_tables.get(i)
        if expected is None:
            count = 2 * self.TABLE_VALUES - 1
            expected = orc.encode_range(count, orc.width(count - 1))
            self._expected_tables[i] = expected
        rows = self._rows(h)
        ia, ib = self.index[i][0][rows], self.index[i][1][rows]
        width = expected.shape[1]
        if out.shape[0] != ia.size or out.shape[1] < width:
            return False
        for lo in range(0, ia.size, 250_000):
            hi = lo + 250_000
            want = expected[ia[lo:hi].astype(np.int64) + ib[lo:hi]]
            if not (np.array_equal(out[lo:hi, :width], want) and not out[lo:hi, width:].any()):
                return False
        return True

    def _wide_decode(self, rec: Recorder) -> None:
        """Known fault: batch_decode of 1;(1) sums 92 and 94 columns wide.

        The sums lie between 2**63 and q_92, so their representations are
        92 digits long; 94 is the width ``batch_add`` returns for them.
        Decoding them exactly needs more than int64.
        """
        orc, cf = self.oracles[0], self.cfs[0]
        sums = self.WIDE_SUMS
        for width in (92, 94):
            rows = np.zeros((len(sums), width), dtype=np.int16)
            for r, s in enumerate(sums):
                digits = orc.encode(s)
                rows[r, : len(digits)] = digits
            ok, values = rec.time("wide_decode", self.ost.bulk.batch_decode, cf, rows)
            if ok:
                with rec.pause():
                    rec.check([int(v) for v in values] == sums, f"batch_decode width {width}", known_fault=True)

    def metrics(self, rec: Recorder) -> dict:
        return part_metrics(self, rec)

    def figures(self, rec: Recorder) -> dict:
        return {
            "add_per_s": rec.count("add:") / rec.total("add:"),
            "batch_add_per_s": rec.count("batch_add") * self.BATCH_ROWS / self.BATCH_CALLS / rec.total("batch_add"),
        }


# -- build ------------------------------------------------------------------------


class Build:
    """Every relation ``ostrowski build`` offers, from empty caches, and a
    fixed list of cold command-line runs.

    A round builds the nine relations of 1;(1) three times, each time from
    empty caches and followed by the command list, then the nine of 1;(2)
    once from empty caches.  Each command is corrected by the ticks of its
    own process (see cli_child.py).
    """

    EXPANSIONS = ("1;(1)", "1;(2)")
    RELATIONS = ("valid", "sum", "pass1", "pass2", "pass3", "adder", "eq", "lt", "va")
    SAMPLES = 60  # checked inputs per relation
    REPEATS = (3, 1)  # builds of each expansion's relations per round
    PARTS = {
        "part_a_s": ("build:1;(1):",),
        "part_b_s": ("build:1;(2):",),
        "part_c_s": ("cli:",),
    }
    setup_repeats = 5
    raw_classes = ()
    child_classes = ("cli:",)

    def __init__(self, ost, seed: int, root: Path, caches):
        self.ost = ost
        self.root = root
        self.caches = caches
        self.rng = random.Random(seed)
        self.seed = seed
        self.cfs = [ost.contfrac.ContinuedFraction.from_text(t) for t in self.EXPANSIONS]
        self.oracles = [oracle.Expansion(t) for t in self.EXPANSIONS]
        a, b = self.rng.randrange(10**29, 10**30), self.rng.randrange(10**29, 10**30)
        golden = self.EXPANSIONS[0]
        self.cli_commands = [
            ("decide", ["decide", "--cf", golden, "--formula", "A x. A y. x + y = y + x"]),
            ("enumerate", ["enumerate", "--cf", golden, "--formula", "V(x) = x", "--bound", "60"]),
            ("add", ["add", "--cf", golden, str(a), str(b)]),
            ("build", ["build", "--cf", golden, "--relation", "adder"]),
        ]
        self.cli_add = (a, b)
        self.lists = 0

    def prepare(self) -> None:
        pass

    def _builder(self, name: str):
        r = self.ost.recognizers
        return {
            "valid": lambda cf: r.build_valid_rep(cf),
            "sum": lambda cf: r.build_digit_sum(cf),
            "pass1": lambda cf: r.build_pass_automaton(cf, 1),
            "pass2": lambda cf: r.build_pass_automaton(cf, 2),
            "pass3": lambda cf: r.build_pass_automaton(cf, 3),
            "adder": lambda cf: r.build_adder(cf),
            "eq": lambda cf: r.build_equality(cf),
            "lt": lambda cf: r.build_less_than(cf),
            "va": lambda cf: r.build_va_graph(cf),
        }[name]

    def run_round(self, rec: Recorder) -> None:
        for _ in range(self.REPEATS[0]):
            self._build_all(rec, self.cfs[0], self.oracles[0])
            self._cli_list(rec)
        for _ in range(self.REPEATS[1]):
            self._build_all(rec, self.cfs[1], self.oracles[1])

    def _build_all(self, rec: Recorder, cf, orc) -> None:
        clear_caches(self.caches)
        for rel in self.RELATIONS:
            ok, aut = rec.time(f"build:{orc.text}:{rel}", self._builder(rel), cf)
            if ok:
                with rec.pause():
                    text = aut.to_text()
                    rec.check(check_relation(rel, oracle.TextAutomaton(text), orc, self.rng, self.SAMPLES),
                              f"{rel} on {orc.text}")

    def _cli_list(self, rec: Recorder) -> None:
        for name, argv in self.cli_commands:
            ok, proc = rec.time(f"cli:{name}", run_cli, self.root, argv)
            if ok:
                rec.check(self._cli_output_ok(name, proc), f"ostrowski {' '.join(argv)}")
        self.lists += 1

    def _cli_output_ok(self, name: str, proc) -> bool:
        orc = self.oracles[0]
        out = proc.stdout
        if name == "decide":
            return proc.returncode == 0 and out.strip() == "true"
        if proc.returncode != 0:
            return False
        if name == "enumerate":
            return out.split() == [str(x) for x in orc.fixpoints(60)]
        if name == "add":
            return out.strip() == oracle.to_text(orc.encode(sum(self.cli_add)))
        return check_relation("adder", oracle.TextAutomaton(out), orc, random.Random(self.seed), 20)

    def metrics(self, rec: Recorder) -> dict:
        return part_metrics(self, rec)

    def figures(self, rec: Recorder) -> dict:
        """``build_s``: the 18 relations, each expansion built once."""
        per_build = [rec.total(f"build:{t}:") / (n * rec.rounds) for t, n in zip(self.EXPANSIONS, self.REPEATS)]
        return {"build_s": sum(per_build), "cli_s": rec.total("cli:") / self.lists}


def run_cli(root: Path, argv: list[str]):
    """One cold ``ostrowski`` process on the checkout's sources; returns the
    finished process and the lengths of the ticks it ran around the command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py"), *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    proc.stderr = stderr
    return proc, json.loads(last)["ticks"]


def check_relation(rel: str, aut: "oracle.TextAutomaton", orc: "oracle.Expansion", rng, samples: int) -> bool:
    """Check a built recognizer against the oracle on seeded inputs."""
    conv = oracle.convolve
    enc = orc.encode

    def run(tracks) -> bool:
        return aut.accepts(conv(tracks, extra=rng.randrange(2)))

    if rel.startswith("pass"):
        # Each accepted pair (z, z') has z' = pass(z), and passes keep the value.
        words = aut.random_accepted(rng, samples * 5)
        return len(words) >= samples and all(
            orc.decode(oracle.track(w, 0)) == orc.decode(oracle.track(w, 1)) for w in words
        )
    ok = True
    for _ in range(samples):
        a, b = rng.randrange(2000), rng.randrange(2000)
        if rel == "valid":
            word = tuple(rng.randrange(aut.digit_bound + 1) for _ in range(rng.randrange(1, 9)))
            ok &= run([word]) == orc.is_valid(word) and run([enc(a)])
        elif rel == "sum":
            x, y = enc(a), enc(b)
            n = max(len(x), len(y))
            s = [(x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0) for i in range(n)]
            ok &= run([x, y, tuple(s)])
            if n:
                s[rng.randrange(n)] += 1
                ok &= not run([x, y, tuple(s)])
        elif rel == "adder":
            ok &= run([enc(a), enc(b), enc(a + b)]) and not run([enc(a), enc(b), enc(a + b + 1)])
            ok &= a + b == 0 or not run([enc(a), enc(b), enc(a + b - 1)])
        elif rel == "eq":
            ok &= run([enc(a), enc(a)]) and run([enc(a), enc(b)]) == (a == b)
        elif rel == "lt":
            ok &= run([enc(a), enc(b)]) == (a < b) and not run([enc(a), enc(a)])
        elif rel == "va":
            ok &= run([enc(a), enc(orc.v(a))]) and run([enc(a), enc(b)]) == (b == orc.v(a))
        else:
            raise ValueError(rel)
    return ok


# -- decide -----------------------------------------------------------------------


class Decide:
    """Light sentences, associativity and bounded enumeration over warm adders."""

    EXPANSIONS = ("1;(1)", "1;(2)")
    FAMILY = 96  # seeded light sentences per expansion, 16 of each shape
    FIXED = (
        ("A x. x = x", True),
        ("E x. ~(x = x)", False),
        ("A x. 0 <= x", True),
        ("E x. A y. y <= x", False),
        ("A x. E y. V(x) = y", True),
        ("A x. V(x) = x", False),
        ("A x. A y. x <= y | y <= x", True),
        ("A x. A y. x <= y & y <= x -> x = y", True),
        ("A x. x + 0 = x", True),
        ("E x. 3 + x = 2", False),
    )
    DEEP = "(" * 2000 + "0 = 0" + ")" * 2000  # true; a known fault today
    ASSOCIATIVITY = "A x. A y. A z. (x + y) + z = x + (y + z)"
    ENUMERATIONS = (("x + y = z", 3, 20), ("E z. x + z = y & V(z) = z", 2, 40), ("V(x) = y", 2, 120))
    EXPANSION_CACHES = ("_eq_dfa", "_le_dfa", "_va_dfa", "_valid_dfa")
    PARTS = {
        "part_a_s": ("sentence",),  # the light sentences
        "part_b_s": ("assoc",),  # associativity on both expansions
        "part_c_s": ("enumerate",),
    }
    ROUND_CACHES = ("_constant_dfa", "_universe")
    setup_repeats = 1
    raw_classes = ()
    child_classes = ()

    def __init__(self, ost, seed: int):
        self.ost = ost
        rng = random.Random(seed)
        self.cfs = [ost.contfrac.ContinuedFraction.from_text(t) for t in self.EXPANSIONS]
        self.oracles = [oracle.Expansion(t) for t in self.EXPANSIONS]
        self.sentences = [self._family(rng, orc) + list(self.FIXED) for orc in self.oracles]
        # Fill only the caches keyed on the expansion alone; the per-round
        # caches (numerals, valid-track universes) start empty every round.
        for cf in self.cfs:
            ost.recognizers.build_adder(cf)
            for name in self.EXPANSION_CACHES:
                fn = getattr(ost.logic, name, None)
                if fn is not None:
                    fn(cf)
        self.round_caches = [c for c in (getattr(ost.logic, n, None) for n in self.ROUND_CACHES)
                             if hasattr(c, "cache_clear")]
        self.candidates = 0

    @staticmethod
    def _family(rng: random.Random, orc: "oracle.Expansion") -> list[tuple[str, bool]]:
        out = []
        for i in range(Decide.FAMILY):
            kind = i % 6
            if kind == 0:
                c = rng.randrange(1000, 10000)
                out.append((f"E x. x + x = {c}", c % 2 == 0))
            elif kind == 1:
                a, b = rng.randrange(100, 1000), rng.randrange(100, 1000)
                out.append((f"E x. x + {a} = {b}", b >= a))
            elif kind == 2:
                c = rng.randrange(100, 300)
                out.append((f"E x. E y. x + y = {c} & V(x) = y", any(orc.v(x) == c - x for x in range(c + 1))))
            elif kind == 3:
                a = rng.randrange(100, 1000)
                b = a + rng.randrange(a)
                out.append((f"E x. V(x) = x & {a} <= x & x <= {b}", any(a <= x <= b for x in orc.fixpoints(b))))
            elif kind == 4:
                a = rng.randrange(100, 1000)
                b = a + rng.choice((1, 2))
                out.append((f"A x. x <= {a} | {b} <= x", b <= a + 1))
            else:
                a, b = rng.randrange(10**5, 10**6), rng.randrange(10**5, 10**6)
                c = a + b + rng.choice((0, 1))
                out.append((f"{a} + {b} = {c}", c == a + b))
        return out

    def prepare(self) -> None:
        pass

    def run_round(self, rec: Recorder) -> None:
        # The light operations run in two passes, each from the same caches
        # and each followed by associativity on one expansion.
        for assoc_cf in self.cfs:
            clear_caches(self.round_caches)
            for cf, orc, sentences in zip(self.cfs, self.oracles, self.sentences):
                for text, truth in sentences:
                    self._sentence(rec, cf, text, truth)
                self._sentence(rec, cf, self.DEEP, True)
                for text, arity, bound in self.ENUMERATIONS:
                    self._enumerate(rec, cf, orc, text, arity, bound)
            ok, verdict = rec.time("assoc", self.ost.logic.decide, assoc_cf, self.ASSOCIATIVITY, key=str(assoc_cf))
            if ok:
                rec.check(verdict is True, f"associativity on {assoc_cf}")

    def _sentence(self, rec: Recorder, cf, text: str, truth: bool) -> None:
        deep = text is self.DEEP
        ok, verdict = rec.time("deep_sentence" if deep else "sentence", self.ost.logic.decide, cf, text,
                               key=(str(cf), text))
        if ok:
            rec.check(verdict == truth, f"{text[:60]} on {cf}", known_fault=deep)

    def _enumerate(self, rec: Recorder, cf, orc, text: str, arity: int, bound: int) -> None:
        ok, sols = rec.time("enumerate", self.ost.logic.enumerate_solutions, cf, text, bound, key=(str(cf), text))
        if ok:
            self.candidates += (bound + 1) ** arity
            with rec.pause():
                rec.check(sorted(map(tuple, sols)) == brute_force(orc, text, bound), f"enumerate {text} on {cf}")

    def metrics(self, rec: Recorder) -> dict:
        return part_metrics(self, rec)

    def figures(self, rec: Recorder) -> dict:
        return {
            "sentences_per_s": rec.count("sentence") / rec.total("sentence"),
            "assoc_s": rec.total("assoc") / rec.rounds,
            "enumerate_per_s": self.candidates / rec.total("enumerate"),
        }


def brute_force(orc: "oracle.Expansion", text: str, bound: int) -> list[tuple[int, ...]]:
    """The solution sets of the enumerated formulas, from the oracle's arithmetic."""
    r = range(bound + 1)
    if text == "x + y = z":
        return [(x, y, x + y) for x in r for y in r if x + y <= bound]
    if text == "E z. x + z = y & V(z) = z":
        fix = set(orc.fixpoints(bound))
        return [(x, y) for x in r for y in r if y - x in fix]
    if text == "V(x) = y":
        return [(x, orc.v(x)) for x in r if orc.v(x) <= bound]
    raise ValueError(text)


# -- traced runs ------------------------------------------------------------------


def layer_probe(ost, rec: Recorder, caches) -> None:
    """One small call into every layer on 1;(1), from empty caches.

    Traced runs make it after their round, so that every per-layer metric
    is a measured figure on every workload, also for the layers the
    workload itself leaves idle (automata on ``arith``, bulk and logic on
    ``build``).  It is the same fixed work on every workload and adds no
    operation to the result's counts; its outputs are checked like the
    workload's.
    """
    clear_caches(caches)
    cf = ost.contfrac.ContinuedFraction.from_text("1;(1)")
    orc = oracle.Expansion("1;(1)")
    a, b = 3 * 10**40 + 7, 10**40 + 11
    word = ost.addition.add(cf, a, b)
    table = ost.bulk.encode_table(cf, 255)
    idx = np.arange(256)
    sums = ost.bulk.batch_add(cf, table[idx], table[idx[::-1]], check=True)
    adder = ost.recognizers.build_adder(cf)
    verdict = ost.logic.decide(cf, "A x. E y. x <= y & ~(y = x) | V(x) = x")
    sols = ost.logic.enumerate_solutions(cf, "V(x) = y", 30)
    with rec.pause():
        rec.check(word.digits == orc.encode(a + b), "probe add")
        want = orc.encode_range(256, orc.width(255))[255]
        rec.check(sums.shape[0] == 256 and sums.shape[1] >= want.size and (sums[:, : want.size] == want).all()
                  and not sums[:, want.size:].any(), "probe batch_add")
        rec.check(check_relation("adder", oracle.TextAutomaton(adder.to_text()), orc, random.Random(0), 20),
                  "probe adder")
        rec.check(verdict is True, "probe decide")
        rec.check(sorted(map(tuple, sols)) == brute_force(orc, "V(x) = y", 30), "probe enumerate")
