import json

import pytest

from ostrowski.cli import main


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


def test_malformed_input_exit_2(capsys):
    code, _, err = run(capsys, "encode", "--cf", "1;x", "10")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "decide", "--cf", "1;(1)", "--formula", "x + = y")
    assert code == 2
    deep = "(" * 2000 + "0 = 0" + ")" * 2000
    code, _, err = run(capsys, "decide", "--cf", "1;(1)", "--formula", deep)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_not_quadratic_exit_3(capsys):
    code, _, err = run(capsys, "build", "--cf", "2;3,4", "--relation", "adder")
    assert code == 3
    code, _, err = run(capsys, "decide", "--cf", "2;3,4", "--formula", "A x. x = x")
    assert code == 3


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


def test_build_stdout_is_interchange(capsys):
    code, out, _ = run(capsys, "build", "--cf", "1;(1)", "--relation", "eq")
    assert code == 0
    assert out.startswith("arity 2\ndigit_bound 3\n")


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--cf", "1;(1)", "--formula", "V(x) = x", "--bound", "60")
    assert code == 0
    assert out.split("\n")[:-1] == ["1", "2", "3", "5", "8", "13", "21", "34", "55"]


def test_json_schema(capsys):
    code, out, _ = run(capsys, "encode", "--cf", "1;(1)", "10", "--json")
    payload = json.loads(out)
    assert payload == {"command": "encode", "result": "1 0 0 1 0 0"}
    code, out, _ = run(capsys, "cf", "info", "--cf", "1;(1)", "--json")
    payload = json.loads(out)
    assert payload["command"] == "cf info"
    assert payload["result"]["m"] == 3


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
