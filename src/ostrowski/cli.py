"""Command-line interface.

One-shot subcommands over a continued fraction given as ``a0;p1,...,(c1,...)``:

    cf info       expansion summary and automaton parameters
    encode        natural number -> digit word
    decode        digit word -> natural number
    validate      digit-constraint check
    add           three-pass addition, optionally with a window trace
    build         emit a recognizer automaton in the interchange format
    run           run a stored automaton on convolved digit words
    decide        truth of a first-order sentence over (N, +, V)
    enumerate     satisfying tuples of a formula up to a bound
    selftest      quick differential suites

Exit codes: 0 success (or sentence true), 1 sentence false / word rejected,
2 malformed input, 3 expansion not eventually periodic where automata are
required, 141 stdout closed by its reader (the shell's status for SIGPIPE),
with nothing on stderr.  Output is deterministic; ``--json`` wraps results as
``{"command": ..., "result": ...}``, and errors, besides their line on
stderr, as ``{"command": ..., "error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import words
from .addition import add, digitwise_sum, pass1
from .contfrac import ContinuedFraction
from .errors import NotQuadratic, OstrowskiError
from .numeration import decode, encode, is_valid


def _recognizer(name: str, *extra):
    """``recognizers.<name>(cf, *extra)``, importing the automaton layers
    only when a relation is built: the arithmetic commands never load numpy."""

    def build(cf):
        from . import recognizers

        return getattr(recognizers, name)(cf, *extra)

    return build


_RELATIONS = {
    "valid": _recognizer("build_valid_rep"),
    "sum": _recognizer("build_digit_sum"),
    "pass1": _recognizer("build_pass_automaton", 1),
    "pass2": _recognizer("build_pass_automaton", 2),
    "pass3": _recognizer("build_pass_automaton", 3),
    "adder": _recognizer("build_adder"),
    "eq": _recognizer("build_equality"),
    "lt": _recognizer("build_less_than"),
    "va": _recognizer("build_va_graph"),
}


def _emit(args, command: str, result, plain: str) -> None:
    if args.json:
        print(f'{{"command": {json.dumps(command)}, "result": {_json(result)}}}')
    else:
        print(plain)


def _json(value) -> str:
    """``json.dumps(value, sort_keys=True)``, but every int, at any depth, is
    written in chunks: json.dumps refuses ints past 4,300 digits."""
    if type(value) is int:
        return "-" * (value < 0) + words.to_decimal(abs(value))
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    return json.dumps(value)


def _integer(text: str) -> int:
    """An integer argument of any length: ASCII digits after an optional sign."""
    value = words.integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return value


def _natural(text: str) -> int:
    """A nonnegative integer argument of any length."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _cf(args) -> ContinuedFraction:
    return ContinuedFraction.from_text(args.cf)


def cmd_cf_info(args) -> int:
    cf = _cf(args)
    info = {
        "a0": cf.a0,
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
        "quadratic": cf.is_quadratic,
    }
    lines = [f"expansion: {cf}", f"quadratic: {str(cf.is_quadratic).lower()}"]
    known = len(cf.preperiod) if not cf.is_quadratic else 10
    if known > 0:
        qs = cf.convergent_denominators(min(known, 10))
        info["denominators"] = qs
        lines.append("denominators: " + " ".join(str(q) for q in qs))
    if cf.is_quadratic:
        p = cf.parameters()
        info.update({"mu": p.mu, "m": p.m, "xi": p.xi, "nu": p.nu, "unrolled": list(p.unrolled)})
        lines.append(f"mu: {p.mu}  m: {p.m}  xi: {p.xi}  nu: {p.nu}")
        lines.append("unrolled: " + " ".join(str(a) for a in p.unrolled))
    _emit(args, "cf info", info, "\n".join(lines))
    return 0


def cmd_encode(args) -> int:
    cf = _cf(args)
    word = encode(cf, args.value)
    _emit(args, "encode", str(word), str(word))
    return 0


def cmd_decode(args) -> int:
    cf = _cf(args)
    value = decode(cf, words.from_text(args.word))
    _emit(args, "decode", value, words.to_decimal(value))
    return 0


def cmd_validate(args) -> int:
    cf = _cf(args)
    ok = is_valid(cf, words.from_text(args.word))
    _emit(args, "validate", ok, "true" if ok else "false")
    return 0


def cmd_add(args) -> int:
    cf = _cf(args)
    trace = [] if args.trace else None
    result = add(cf, args.m, args.n, trace=trace)
    if args.json:
        payload = {"sum": str(result)}
        if trace is not None:
            payload["trace"] = [str(t) for t in trace]
        _emit(args, "add", payload, "")
    else:
        if trace is not None:
            for step in trace:
                print(step)
        print(result)
    return 0


def cmd_build(args) -> int:
    cf = _cf(args)
    automaton = _RELATIONS[args.relation](cf)
    text = automaton.to_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _emit(args, "build", {"relation": args.relation, "file": args.output,
                              "states": automaton.num_states}, f"wrote {args.output}")
    else:
        if args.json:
            _emit(args, "build", {"relation": args.relation, "automaton": text}, "")
        else:  # a line at a time: one long write cut short by a closed stdout raises nothing
            sys.stdout.writelines(text.splitlines(keepends=True))
    return 0


def cmd_run(args) -> int:
    from .automata import Automaton, convolve

    automaton = Automaton.load(args.automaton)
    tracks = [words.from_text(w) for w in args.word]
    if len(tracks) != automaton.arity:
        raise ValueError(
            f"automaton has {automaton.arity} tracks, got {len(tracks)} words"
        )
    accepted = automaton.accepts(convolve(tracks, automaton.digit_bound))
    _emit(args, "run", accepted, "accepted" if accepted else "rejected")
    return 0 if accepted else 1


def cmd_decide(args) -> int:
    from .logic import decide, parse

    cf = _cf(args)
    formula = parse(args.formula)
    verdict = decide(cf, formula)
    witness = None
    if args.witness and verdict:
        witness = _witness(cf, formula)
    if args.json:
        payload = {"verdict": verdict}
        if witness is not None:
            payload["witness"] = list(witness)
        _emit(args, "decide", payload, "")
    else:
        print("true" if verdict else "false")
        if witness is not None:
            print("witness: " + " ".join(words.to_decimal(n) for n in witness))
    return 0 if verdict else 1


def _witness(cf, formula):
    """Decoded values satisfying a true E x1...E xk. body: one per name, 0 for a name the body ignores."""
    from .logic import Exists, compile_formula, free_vars

    names, body = [], formula
    while isinstance(body, Exists):
        names = [n for n in names if n != body.var] + [body.var]  # each name at its innermost binding
        body = body.body
    if not names:
        return None
    free = [n for n in names if n in free_vars(body)]
    word = compile_formula(cf, body, free).shortest_witness() if free else ()  # true, so never None
    values = {n: decode(cf, tuple(reversed([letter[i] for letter in word]))) for i, n in enumerate(free)}
    return [values.get(n, 0) for n in names]


def cmd_enumerate(args) -> int:
    from .logic import enumerate_solutions

    cf = _cf(args)
    sols = enumerate_solutions(cf, args.formula, args.bound)
    if args.json:
        _emit(args, "enumerate", [list(t) for t in sols], "")
    else:
        for tup in sols:
            print(" ".join(words.to_decimal(n) for n in tup))
    return 0


def cmd_selftest(args) -> int:
    cf = _cf(args)
    limit = args.max
    failures = []

    def suite(name, ok):
        print(f"{'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    suite(
        "encode/decode round trip",
        all(decode(cf, encode(cf, n).digits) == n for n in range(limit + 1)),
    )
    suite(
        "addition against re-encoding",
        all(
            add(cf, a, b).digits == encode(cf, a + b).digits
            for a in range(0, limit + 1, 7)
            for b in range(0, limit + 1, 3)
        ),
    )
    ok = True
    if cf.is_quadratic:
        from .automata import convolve
        from .logic import decide
        from .recognizers import build_pass_automaton, build_valid_rep

        m = cf.parameters().m
        valid = build_valid_rep(cf)
        rng = random.Random(0)
        for _ in range(500):
            w = tuple(rng.randrange(m + 1) for _ in range(rng.randint(0, 9)))
            if valid.accepts(convolve([w], m)) != is_valid(cf, w):
                ok = False
        suite("valid-representation automaton", ok)
        pa = build_pass_automaton(cf, 1)
        ok = True
        for _ in range(200):
            a = rng.randrange(limit + 1)
            b = rng.randrange(limit + 1)
            s = words.pad(digitwise_sum(encode(cf, a), encode(cf, b)), 4)
            z3 = pass1(cf, s)
            if not pa.accepts(convolve([s, z3], m)):
                ok = False
        suite("first-pass automaton on digit sums", ok)
        from .bulk import batch_add, encode_table

        table = encode_table(cf, limit)
        pairs = [(rng.randrange(limit + 1), rng.randrange(limit + 1)) for _ in range(500)]
        sums = batch_add(cf, table[[a for a, _ in pairs]], table[[b for _, b in pairs]]).tolist()
        suite("addition in bulk", all(
            row[: len(want)] == list(want) and not any(row[len(want):])
            for row, want in zip(sums, (add(cf, a, b).digits for a, b in pairs))
        ))
        suite("decision procedure", decide(cf, "A x. A y. x + y = y + x"))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrowski",
        description="Ostrowski numeration: arithmetic, automata, decision procedure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cf=True):
        if cf:
            p.add_argument("--cf", required=True, help="continued fraction, e.g. '1;(2)'")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("cf", help="continued fraction utilities")
    cf_sub = p.add_subparsers(dest="cf_command", required=True)
    p_info = cf_sub.add_parser("info", help="summary and automaton parameters")
    common(p_info)
    p_info.set_defaults(func=cmd_cf_info)

    p = sub.add_parser("encode", help="number to digit word")
    common(p)
    p.add_argument("value", type=_integer)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="digit word to number")
    common(p)
    p.add_argument("word", help="MSD-first digits, e.g. '1 0 0 1 0 0'")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("validate", help="check representation validity")
    common(p)
    p.add_argument("word")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("add", help="three-pass addition")
    common(p)
    p.add_argument("m", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("--trace", action="store_true", help="print window steps")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("build", help="construct a recognizer automaton")
    common(p)
    p.add_argument("--relation", required=True, choices=sorted(_RELATIONS))
    p.add_argument("-o", "--output", help="write interchange format to a file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="run a stored automaton on digit words")
    common(p, cf=False)
    p.add_argument("--automaton", required=True)
    p.add_argument("--word", action="append", required=True, help="one per track")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("decide", help="decide a first-order sentence")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--witness", action="store_true", help="print a witness for a true existential")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("enumerate", help="satisfying tuples up to a bound")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--bound", type=_natural, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("selftest", help="run quick differential suites")
    common(p)
    p.add_argument("--max", type=_natural, default=200)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 141  # the reader closed stdout
    try:
        try:
            return args.func(args)
        except BrokenPipeError:
            raise
        except (OstrowskiError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            # the error line is out: a closed stdout loses only its JSON copy
            status = 3 if isinstance(exc, NotQuadratic) else 2
            if args.json:
                command = " ".join(filter(None, (args.command, getattr(args, "cf_command", None))))
                error = {"type": type(exc).__name__, "message": str(exc)}
                print(f'{{"command": {json.dumps(command)}, "error": {_json(error)}}}')
            return status
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return status


if __name__ == "__main__":
    sys.exit(main())
