"""Benchmark command: one workload, one seed, one fresh process.

    python3 bench/run.py --workload {arith,build,decide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/``.  The run sets up (timed as ``setup_s``), warms up, then repeats
whole rounds of the workload until ``--seconds`` have passed, one caller
on one thread.  Every output is checked against ``oracle.py`` with the
clock stopped.  A report (environment, per-class latency percentiles,
and with ``--trace 1`` the per-layer summary and the span file) goes to
``.bench_out/``; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, the same names on every workload (``setup_s``,
``peak_rss_mb`` and the seconds per round of the workload's three parts,
see ``workloads.py``), their times corrected for the machine's speed at
the moment (see ``clock.py``).  With ``--trace 1`` the program's public
entry points are wrapped in spans (see ``spans.py``), the run sets up
once, performs exactly one round and then ``workloads.layer_probe``, and
the metrics are the per-layer metrics of ``BENCHMARK.json``.
"""

import time

T_START = time.perf_counter()  # "process start" for setup_s, before any heavy import

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import clock  # noqa: E402  (the benchmark's own modules live beside this file)


def load_program():
    """Import the checkout's ``ostrowski`` and every layer module, or exit 2."""
    src = ROOT / "src"
    if not (src / "ostrowski" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}/ostrowski; run from a full checkout")
    sys.path.insert(0, str(src))
    import importlib

    import ostrowski

    if Path(ostrowski.__file__).resolve().parent != (src / "ostrowski").resolve():
        sys.exit(f"error: imported ostrowski from {ostrowski.__file__}, not from {src}")
    ns = argparse.Namespace()
    for layer in ("contfrac", "numeration", "addition", "bulk", "automata", "recognizers", "logic", "cli"):
        setattr(ns, layer, importlib.import_module(f"ostrowski.{layer}"))
    return ns


def program_caches():
    """Every ``functools.lru_cache`` in the program, each once."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "ostrowski" or name.startswith("ostrowski."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentiles(samples: dict) -> dict:
    """Median, and for classes of at least 40 samples the highest whole
    percentile with at least ten samples beyond it (nearest rank)."""
    out = {}
    for cls, values in sorted(samples.items()):
        values = sorted(values)
        n = len(values)
        row = {"count": n, "median_ms": statistics.median(values) * 1e3}
        if n >= 40:
            p = (100 * (n - 10)) // n
            rank = -(-p * n // 100)  # ceil(p n / 100), so n - rank >= 10 samples lie beyond
            row[f"p{p}_ms"] = values[rank - 1] * 1e3
        out[cls] = row
    return out


def layer_metrics(tracer, cli_startup_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced run."""
    s, self_s, calls = tracer.seconds, tracer.self_seconds, tracer.calls
    minimize_in = tracer.states_in["automata.Automaton.minimize"]
    minimize_out = tracer.states_out["automata.Automaton.minimize"]
    base = ("build_valid_rep", "build_digit_sum", "build_equality", "build_less_than", "build_va_graph")
    return {
        "contfrac.partial_quotient_calls": (calls["contfrac.ContinuedFraction.partial_quotient"], "count"),
        "contfrac.convergent_denominators_s": (s("contfrac.ContinuedFraction.convergent_denominators"), "s"),
        "numeration.encode_s": (s("numeration.encode"), "s"),
        "numeration.encode_calls": (calls["numeration.encode"], "count"),
        "numeration.decode_s": (s("numeration.decode"), "s"),
        "numeration.is_valid_s": (s("numeration.is_valid"), "s"),
        "addition.pass1_s": (s("addition.pass1"), "s"),
        "addition.pass2_s": (s("addition.pass2"), "s"),
        "addition.pass3_s": (s("addition.pass3"), "s"),
        "addition.add_self_s": (self_s("addition.add") + self_s("addition.add_words"), "s"),
        "bulk.batch_add_s": (s("bulk.batch_add"), "s"),
        "bulk.encode_table_s": (s("bulk.encode_table"), "s"),
        "automata.from_lazy_s": (s("automata.from_lazy"), "s"),
        "automata.from_lazy_states": (tracer.states_out["automata.from_lazy"], "count"),
        "automata.determinize_s": (s("automata.determinize_lazy"), "s"),
        "automata.determinize_states": (tracer.states_out["automata.determinize_lazy"], "count"),
        "automata.minimize_s": (s("automata.Automaton.minimize"), "s"),
        "automata.minimize_states_in": (minimize_in, "count"),
        "automata.minimize_keep_ratio": (minimize_out / minimize_in if minimize_in else 0.0, "ratio"),
        "automata.intersect_s": (s("automata.Automaton.intersect"), "s"),
        "automata.intersect_states": (tracer.states_out["automata.Automaton.intersect"], "count"),
        "automata.project_s": (s("automata.Automaton.project"), "s"),
        "automata.cylindrify_s": (s("automata.Automaton.cylindrify"), "s"),
        "automata.complement_s": (s("automata.Automaton.complement"), "s"),
        "automata.union_s": (s("automata.Automaton.union"), "s"),
        "automata.accepts_s": (s("automata.Automaton.accepts"), "s"),
        "automata.accepts_calls": (calls["automata.Automaton.accepts"], "count"),
        "automata.max_states": (tracer.max_states, "count"),
        "recognizers.build_adder_s": (s("recognizers.build_adder"), "s"),
        "recognizers.build_adder_self_s": (self_s("recognizers.build_adder"), "s"),
        "recognizers.build_pass_automaton_s": (s("recognizers.build_pass_automaton"), "s"),
        "recognizers.base_relations_s": (sum(s(f"recognizers.{b}") for b in base), "s"),
        "logic.parse_s": (s("logic.parse"), "s"),
        "logic.decide_self_s": (self_s("logic.decide"), "s"),
        "logic.compile_formula_s": (s("logic.compile_formula"), "s"),
        "logic.enumerate_self_s": (self_s("logic.enumerate_solutions"), "s"),
        "cli.startup_s": (cli_startup_s, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("arith", "build", "decide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    speed = clock.SpeedClock(ticking=not args.trace)
    speed.start()
    speed.tick()
    try:
        return run(args, speed)
    finally:
        speed.stop()


def run(args, speed) -> int:
    ost = load_program()
    import numpy as np

    import oracle
    import spans
    import workloads

    # Set-up is corrected by a tick before the imports, ticks while the
    # workload builds its inputs, and one at "ready"; a tick taken while
    # modules load reads up to twice too slow.
    speed.arm()
    oracle.self_check()
    caches = program_caches()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    if args.workload == "arith":
        work = workloads.Arith(ost, args.seed)
    elif args.workload == "build":
        work = workloads.Build(ost, args.seed, ROOT, caches)
    else:
        work = workloads.Decide(ost, args.seed)
    speed.disarm()
    speed.tick()
    setup_s = speed.corrected(*speed.raw_since((T_START, 0.0)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [setup_s]
    if not tracer:
        setups += [child_setup_seconds(args) for _ in range(work.setup_repeats - 1)]
    rec = workloads.Recorder(speed, tracer.paused if tracer else contextlib.nullcontext,
                             work.raw_classes, work.child_classes)
    with rec.pause():
        work.prepare()
    t0 = time.perf_counter()
    while True:
        work.run_round(rec)
        rec.rounds += 1
        if tracer or time.perf_counter() - t0 >= args.seconds:
            break
    measured_s = time.perf_counter() - t0
    if tracer:
        workloads.layer_probe(ost, rec, caches)

    e2e = {"setup_s": (statistics.median(setups), "s"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    rec.finish(corrected=False)
    uncorrected = {k: v for k, (v, _) in work.metrics(rec).items()} | work.figures(rec)
    rec.finish(corrected=True)
    e2e.update(work.metrics(rec))
    figures = work.figures(rec)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "rounds": rec.rounds, "measured_s": measured_s, "setup_samples_s": setups,
        "end_to_end": {k: v for k, (v, _) in e2e.items()}, "figures": figures,
        "end_to_end_uncorrected": uncorrected,
        "speed": speed.summary(),
        "operations": tail_percentiles(rec.samples), "problems": dict(Counter(rec.problems)),
    }
    metrics = e2e
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        with tracer.paused():
            startup = statistics.median(_cold_startup(workloads) for _ in range(3))
        metrics = layer_metrics(tracer, startup)
        report["spans"] = tracer.write(out_dir / f"{stem}.spans.gz")
        report["layers"] = tracer.summary()
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    for cls, row in report["operations"].items():
        print("op", cls, json.dumps(row))
    print("report", json.dumps({k: report[k] for k in ("workload", "seed", "nproc", "commit", "python", "numpy",
                                                        "rounds", "measured_s", "speed", "end_to_end",
                                                        "figures", "end_to_end_uncorrected")}))
    for problem, count in report["problems"].items():
        print("problem", f"{count}x", problem)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in manifest["per_layer" if tracer else "end_to_end"]]
    if declared != [(k, u) for k, (_, u) in metrics.items()]:
        sys.exit(f"error: metrics {list(metrics)} differ from those BENCHMARK.json declares")
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _cold_startup(workloads) -> float:
    """Wall time of a trivial cold command (``cf info``)."""
    t0 = time.perf_counter()
    proc, _ = workloads.run_cli(ROOT, ["cf", "info", "--cf", "1;(1)"])
    if proc.returncode != 0:
        raise RuntimeError(f"ostrowski cf info failed: {proc.stderr.strip()[-300:]}")
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
