import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ostrowski import cli, words
from ostrowski.automata import Automaton
from ostrowski.cli import main
from ostrowski.contfrac import ContinuedFraction
from ostrowski.errors import AutomatonTooLarge
from ostrowski.numeration import decode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_example(capsys):
    code, out, _ = run(capsys, "encode", "--cf", "1;(1)", "10")
    assert code == 0
    assert out == "1 0 0 1 0 0\n"


def test_decode_and_validate(capsys):
    code, out, _ = run(capsys, "decode", "--cf", "1;(1)", "1 0 0 1 0 0")
    assert (code, out) == (0, "10\n")
    code, out, _ = run(capsys, "validate", "--cf", "1;(1)", "1 1 0")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "validate", "--cf", "1;(1)", "1 0 0")
    assert (code, out) == (0, "true\n")


def test_add_example(capsys):
    code, out, _ = run(capsys, "add", "--cf", "1;(1)", "2", "3")
    assert code == 0
    assert out == "1 0 0 0 0\n"


def test_add_trace_format(capsys):
    code, out, _ = run(capsys, "add", "--cf", "1;(1)", "2", "3", "--trace")
    lines = out.strip().splitlines()
    assert lines[-1] == "1 0 0 0 0"
    assert lines[0].startswith("pass=1 k=5 window_before=0 1 1 0 ")
    assert all("rule=" in line for line in lines[:-1])


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "--cf", "1;(2)", "--formula", "A x. A y. x + y = y + x")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "decide", "--cf", "1;(2)", "--formula", "E x. ~ x = 0 & x + x = x")
    assert (code, out) == (1, "false\n")


def test_decide_witness(capsys):
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--formula", "E x. x + x = 10", "--witness")
    assert code == 0
    assert out == "true\nwitness: 5\n"
    # a true sentence with no leading E has no witness to print
    code, out, err = run(capsys, "decide", "--cf", "1;(1)", "--formula", "A x. x = x", "--witness")
    assert (code, out, err) == (0, "true\n", "")
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--formula", "A x. x = x", "--witness", "--json")
    assert (code, json.loads(out)) == (0, {"command": "decide", "result": {"verdict": True}})


@pytest.mark.parametrize("formula,witness", [
    ("E x. E y. x = 3", [3, 0]),  # y is not read by the body
    ("E x. E x. x = 3", [3]),  # one value per name, at its innermost binding
    ("E x. A x. x = x", [0]),  # a body without free variables
    ("E y. E x. E y. x + 1 = y", [0, 1]),
])
def test_decide_witness_of_unread_and_rebound_names(capsys, formula, witness):
    code, out, err = run(capsys, "decide", "--cf", "1;(1)", "--witness", "--formula", formula)
    assert (code, out, err) == (0, "true\nwitness: " + " ".join(map(str, witness)) + "\n", "")
    code, out, err = run(capsys, "decide", "--cf", "1;(1)", "--witness", "--json", "--formula", formula)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "decide", "result": {"verdict": True, "witness": witness}}


def test_malformed_input_exit_2(capsys):
    code, _, err = run(capsys, "encode", "--cf", "1;x", "10")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "decide", "--cf", "1;(1)", "--formula", "x + = y")
    assert code == 2
    code, out, err = run(capsys, "cf", "info", "--cf", "1;()")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "empty period" in err
    deep = "(" * 2000 + "0 = 0" + ")" * 2000
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--formula", deep)
    assert (code, out) == (0, "true\n")


def test_number_tokens_are_ascii_digits(capsys):
    # int() would read "1_0" as ten and "\u0663" as three
    for argv, message in [
        (("decode", "--cf", "1;(1)", "1_0"), "bad digit token '1_0'"),
        (("decode", "--cf", "1;(1)", "\u0663 1"), "bad digit token '\u0663'"),
        (("validate", "--cf", "1;(1)", "1 \uff10"), "bad digit token"),
        (("encode", "--cf", "1;(1_0)", "5"), "bad period token '1_0'"),
        (("decode", "--cf", "1;(\u0663)", "1"), "bad period token"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err and "Traceback" not in err
    with pytest.raises(ValueError, match="bad digit token"):
        words.from_text("\u0663 1")
    # accepted tokens keep their values
    assert words.from_text("+1 007 -0") == (0, 7, 1)
    code, out, _ = run(capsys, "decode", "--cf", "+1;(02)", "+1 0")
    assert (code, out) == (0, "2\n")


def test_decide_free_variable_exit_2(capsys):
    code, out, err = run(capsys, "decide", "--cf", "1;(1)", "--formula", "x = x")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_not_quadratic_exit_3(capsys):
    code, _, err = run(capsys, "build", "--cf", "2;3,4", "--relation", "adder")
    assert code == 3
    code, _, err = run(capsys, "decide", "--cf", "2;3,4", "--formula", "A x. x = x")
    assert code == 3


def test_enumerate_not_quadratic_exit_3(capsys):
    # the expansion is refused before the bound is encoded, which would run
    # past its known quotients at 500
    for bound in ("5", "500"):
        code, out, err = run(capsys, "enumerate", "--cf", "1;2,3", "--formula", "x = x", "--bound", bound)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "quadratic" in err and "Traceback" not in err


def test_build_and_run(capsys, tmp_path):
    path = str(tmp_path / "adder.aut")
    code, out, _ = run(capsys, "build", "--cf", "1;(1)", "--relation", "adder", "-o", path)
    assert code == 0
    code, out, _ = run(
        capsys, "run", "--automaton", path, "--word", "1 0", "--word", "1 0 0", "--word", "1 0 0 0"
    )
    assert (code, out) == (0, "accepted\n")  # 2 + 3 = 5
    code, out, _ = run(
        capsys, "run", "--automaton", path, "--word", "1 0", "--word", "1 0 0", "--word", "1 0 1"
    )
    assert (code, out) == (1, "rejected\n")


def test_run_oversized_automaton_exit_2(capsys, tmp_path):
    # A declared state count or an alphabet past the integer arrays (10**12
    # states; 16**40 letters, past any 64-bit letter code) is refused with a
    # typed error, not a MemoryError or a wrapped letter code; a negative
    # state count is refused too, not read as an automaton that rejects.
    many_states = "arity 1\ndigit_bound 1\nnum_states 1000000000000\ninitial 0\nfinal 1\ntrans 0 (1) 1\n"
    wide = "arity 40\ndigit_bound 15\nnum_states 2\ninitial 0\nfinal 1\ntrans 0 (" + ",".join(["1"] * 40) + ") 1\n"
    negative = "arity 1\ndigit_bound 1\nnum_states -1\ninitial\nfinal\n"
    for text, arity, error in ((many_states, 1, AutomatonTooLarge), (wide, 40, AutomatonTooLarge),
                               (negative, 1, ValueError)):
        with pytest.raises(error):
            Automaton.from_text(text)
        path = tmp_path / "big.aut"
        path.write_text(text)
        code, out, err = run(capsys, "run", "--automaton", str(path), *["--word", "1"] * arity)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err


def test_run_malformed_lines_name_their_line(capsys, tmp_path):
    # a transition with too few fields and a final state that is no number
    # end in one error line naming the line, not a bare Python message
    head = "arity 1\ndigit_bound 1\nnum_states 2\ninitial 0\n"
    for body, line in (("final 1\ntrans 0 (1)\n", 6), ("final x\n", 5), ("trans 0 1 1\nfinal 1\n", 5),
                       ("final 1\nstates 2\n", 6)):
        path = tmp_path / "bad.aut"
        path.write_text(head + body)
        with pytest.raises(ValueError, match=f"^line {line}: "):
            Automaton.from_text(head + body)
        code, out, err = run(capsys, "run", "--automaton", str(path), "--word", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1 and "Traceback" not in err


def test_run_missing_header_and_word_count_exit_2(capsys, tmp_path):
    # a file without its header, and a word count other than the arity,
    # end in one error line
    path = tmp_path / "bad.aut"
    path.write_text("initial 0\nfinal 0\n")
    code, out, err = run(capsys, "run", "--automaton", str(path), "--word", "1")
    assert (code, out, err) == (2, "", "error: missing arity/digit_bound/num_states header\n")
    path.write_text("arity 1\ndigit_bound 1\nnum_states 1\ninitial 0\nfinal 0\n")
    code, out, err = run(capsys, "run", "--automaton", str(path), "--word", "1", "--word", "0")
    assert (code, out, err) == (2, "", "error: automaton has 1 tracks, got 2 words\n")


def test_run_number_tokens_are_ascii_digits(capsys, tmp_path):
    # int() would read each token below as the ASCII number it replaces:
    # an underscore, an Arabic-Indic, a fullwidth and, inside a letter,
    # another Arabic-Indic digit
    lines = ["arity 1", "digit_bound 3", "num_states 10", "initial 2", "final 1", "trans 2 (3) 1"]
    path = tmp_path / "digits.aut"
    path.write_text("\n".join(lines) + "\n")
    assert run(capsys, "run", "--automaton", str(path), "--word", "3")[:2] == (0, "accepted\n")
    for line, old, new in ((3, "10", "1_0"), (4, "2", "\u0662"), (5, "1", "\uff11"), (6, "(3)", "(\u0663)")):
        text = "\n".join(lines[: line - 1] + [lines[line - 1].replace(old, new)] + lines[line:]) + "\n"
        with pytest.raises(ValueError, match=f"^line {line}: bad .* token"):
            Automaton.from_text(text)
        path.write_text(text)
        code, out, err = run(capsys, "run", "--automaton", str(path), "--word", "3")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1 and "Traceback" not in err


def test_run_huge_arity_exit_2(capsys, tmp_path):
    # 2**10**12 letters are refused without computing their count
    text = "arity 1000000000000\ndigit_bound 1\nnum_states 1\ninitial 0\nfinal 0\n"
    with pytest.raises(AutomatonTooLarge):
        Automaton.from_text(text)
    path = tmp_path / "wide.aut"
    path.write_text(text)
    code, out, err = run(capsys, "run", "--automaton", str(path), "--word", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_decide_long_numerals(capsys):
    n, n1 = "9" * 5000, "1" + "0" * 5000
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--formula", f"{n} + 1 = {n1}")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--formula", f"{n} = {n1}")
    assert (code, out) == (1, "false\n")


def test_long_integer_arguments(capsys):
    # past the 4300 digits int() reads and writes at once
    n = 10**5000 - 1
    code, word, _ = run(capsys, "encode", "--cf", "1;(1)", "9" * 5000)
    assert code == 0
    code, out, _ = run(capsys, "decode", "--cf", "1;(1)", word.strip())
    assert (code, out) == (0, "9" * 5000 + "\n")
    code, out, _ = run(capsys, "decode", "--cf", "1;(1)", "--json", word.strip())
    assert (code, out) == (0, '{"command": "decode", "result": ' + "9" * 5000 + "}\n")
    code, out, _ = run(capsys, "add", "--cf", "1;(1)", "9" * 5000, "+" + "8" * 5000)
    assert code == 0
    assert decode(ContinuedFraction.from_text("1;(1)"), words.from_text(out)) == n + n // 9 * 8
    code, payload, _ = run(capsys, "add", "--cf", "1;(1)", "9" * 5000, "8" * 5000, "--json")
    assert (code, json.loads(payload)) == (0, {"command": "add", "result": {"sum": out.strip()}})
    for bad in ("12x", "", "-", "1_000", "١"):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--cf", "1;(1)", bad])
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err


def test_long_witness_output(capsys, monkeypatch):
    # a witness past the 4300 digits int() writes at once, in plain and JSON output
    monkeypatch.setattr(cli, "_witness", lambda cf, formula: [10**5000 - 1, 0])
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--witness", "--formula", "E x. x = 1")
    assert (code, out) == (0, "true\nwitness: " + "9" * 5000 + " 0\n")
    code, out, _ = run(capsys, "decide", "--cf", "1;(1)", "--json", "--witness", "--formula", "E x. x = 1")
    assert (code, out) == (0, '{"command": "decide", "result": {"verdict": true, "witness": [' + "9" * 5000 + ", 0]}}\n")


def test_build_stdout_is_interchange(capsys):
    code, out, _ = run(capsys, "build", "--cf", "1;(1)", "--relation", "eq")
    assert code == 0
    assert out.startswith("arity 2\ndigit_bound 3\n")


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--cf", "1;(1)", "--formula", "V(x) = x", "--bound", "60")
    assert code == 0
    assert out.split("\n")[:-1] == ["1", "2", "3", "5", "8", "13", "21", "34", "55"]


def test_json_schema(capsys, tmp_path):
    code, out, _ = run(capsys, "encode", "--cf", "1;(1)", "10", "--json")
    payload = json.loads(out)
    assert payload == {"command": "encode", "result": "1 0 0 1 0 0"}
    code, out, _ = run(capsys, "cf", "info", "--cf", "1;(1)", "--json")
    payload = json.loads(out)
    assert payload["command"] == "cf info"
    assert payload["result"]["m"] == 3
    # each --json result holds what the plain form prints
    build = ["build", "--cf", "1;(1)", "--relation", "eq"]
    _, text, _ = run(capsys, *build)
    code, out, _ = run(capsys, *build, "--json")
    assert (code, json.loads(out)) == (0, {"command": "build", "result": {"relation": "eq", "automaton": text}})
    path = str(tmp_path / "eq.aut")
    code, out, _ = run(capsys, *build, "-o", path, "--json")
    states = Automaton.load(path).num_states
    assert (code, json.loads(out)) == (0, {"command": "build", "result": {"relation": "eq", "file": path,
                                                                          "states": states}})
    enum = ["enumerate", "--cf", "1;(1)", "--formula", "E z. x + z = y", "--bound", "2"]
    _, plain, _ = run(capsys, *enum)
    code, out, _ = run(capsys, *enum, "--json")
    assert (code, json.loads(out)) == (0, {"command": "enumerate", "result": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2],
                                                                             [2, 2]]})
    assert plain == "0 0\n0 1\n0 2\n1 1\n1 2\n2 2\n"
    _, plain, _ = run(capsys, "add", "--cf", "1;(1)", "2", "3", "--trace")
    code, out, _ = run(capsys, "add", "--cf", "1;(1)", "2", "3", "--trace", "--json")
    *trace, total = plain.splitlines()
    assert (code, json.loads(out)) == (0, {"command": "add", "result": {"sum": total, "trace": trace}})


def test_cf_info_plain(capsys):
    code, out, _ = run(capsys, "cf", "info", "--cf", "0;1,(1,2)")
    assert code == 0
    assert "quadratic: true" in out
    assert "mu: 2  m: 5" in out


def test_output_deterministic(capsys):
    args = ("enumerate", "--cf", "1;(1)", "--formula", "E y. x = y + y", "--bound", "20")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--cf", "1;(1)", "--max", "60")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.strip().splitlines())
    assert "ok addition in bulk" in out.splitlines()


def test_enumerate_refuses_bad_bounds(capsys):
    args = ["enumerate", "--cf", "1;(1)", "--formula", "x = x", "--bound"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--bound" in err and "nonnegative" in err
    code, out, err = run(capsys, *args, "100000000000000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bound 100000000000000000000000" in err and "Traceback" not in err


def test_selftest_refuses_negative_max(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--cf", "1;(1)", "--max", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max" in err and "nonnegative" in err
    code, out, _ = run(capsys, "selftest", "--cf", "1;(1)", "--max", "0")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.strip().splitlines())


def test_json_errors_are_structured(capsys):
    # under --json an error is also one object on stdout, with the same
    # exit code and stderr line as without it
    cases = [
        (["build", "--cf", "1;(20)", "--relation", "pass1"], 2, "build", "AutomatonTooLarge"),
        (["build", "--cf", "1;2,3", "--relation", "adder"], 3, "build", "NotQuadratic"),
        (["encode", "--cf", "1;(x)", "5"], 2, "encode", "ValueError"),
        (["cf", "info", "--cf", "1;()"], 2, "cf info", "ValueError"),
        (["decide", "--cf", "1;(1)", "--formula", "x ="], 2, "decide", "FormulaSyntaxError"),
        # builders that would lay out a grid of two digits 0..100000
        (["build", "--cf", "1;(100000)", "--relation", "lt"], 2, "build", "AutomatonTooLarge"),
        (["build", "--cf", "1;(100000)", "--relation", "sum"], 2, "build", "AutomatonTooLarge"),
        (["decide", "--cf", "1;(100000)", "--formula", "E x. x + 1 = 2"], 2, "decide", "AutomatonTooLarge"),
        (["decide", "--cf", "1;(100000)", "--formula", "E x. x + 1 <= 2"], 2, "decide", "AutomatonTooLarge"),
    ]
    messages = []
    for argv, want, command, kind in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (want, "")
        code, payload, json_err = run(capsys, *argv, "--json")
        assert (code, json_err) == (want, err)
        messages.append(err.removeprefix("error: ").removesuffix("\n"))
        assert json.loads(payload) == {"command": command, "error": {"type": kind, "message": messages[-1]}}
    assert messages[0].startswith("pass 1 of 1;(20): viability table needs 1437603552 masks")
    grid = "of 1;(100000): grid of 2-tuples of digits 0..100000 needs 10000200001 entries"
    for message, stage in zip(messages[5:], ["less-than", "digit sum", "digit sum", "less-than"]):
        assert message.startswith(f"{stage} {grid}")


def test_numeral_bound_needs_no_two_digit_grid(capsys):
    # a variable bounded by a numeral reads one track of valid words, so it
    # decides where the less-than relation's grid of two digits is refused
    for formula, code, want in (("E x. x <= 2", 0, "true\n"), ("A x. 5 <= x", 1, "false\n")):
        assert run(capsys, "decide", "--cf", "1;(12000)", "--formula", formula) == (code, want, "")
    code, out, err = run(capsys, "decide", "--cf", "1;(12000)", "--formula", "E x. x + 1 <= 2")
    assert (code, out) == (2, "") and err.startswith("error: less-than of 1;(12000): grid of 2-tuples")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_closed_stdout_exits_141_quietly(json_flag):
    # the 1;(2) first-pass relation is about 500 KB, more than a pipe holds,
    # so the command still writes when its reader closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "ostrowski.cli", "build", "--cf", "1;(2)", "--relation", "pass1", *json_flag]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize("argv, status, error", [
    (["build", "--cf", "1;(100000)", "--relation", "lt"], 2, "error: less-than of 1;(100000): grid of 2-tuples"),
    (["build", "--cf", "1;2", "--relation", "lt"], 3, "error: recognizers require an eventually periodic"),
    (["build", "--cf", "1;(1)", "--relation", "adder"], 141, None),
], ids=["too-large", "not-quadratic", "success"])
def test_closed_stdout_keeps_the_error_status(argv, status, error):
    # stdout is a pipe whose reader closed before the command ran: a failed
    # command still puts its error line on stderr and exits with its own
    # status, though the JSON copy of the error cannot be written
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "ostrowski.cli", *argv, "--json"], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == status
    if error:
        assert len(lines) == 1 and lines[0].startswith(error)
    else:
        assert lines == []
