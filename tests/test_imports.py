"""What a cold process loads, and the package namespace that loads lazily.

The numeration, the adder and the automaton toolkit are plain Python, so
the commands that only use them must not pay for importing numpy; the
automaton layers load when a command first needs them.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ostrowski

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one command as ``python -m ostrowski.cli`` would, then reports the
# loaded modules
PROBE = """
import contextlib, io, json, sys
from ostrowski.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

GOLDEN = ["--cf", "1;(1)"]
ARITHMETIC = [
    ["add", *GOLDEN, "2", "3", "--trace"],
    ["encode", *GOLDEN, "10"],
    ["decode", *GOLDEN, "1 0 0 1 0 0"],
    ["validate", *GOLDEN, "1 0 0"],
    ["cf", "info", *GOLDEN],
]
AUTOMATA = [
    ["decide", *GOLDEN, "--formula", "A x. A y. x + y = y + x"],
    ["enumerate", *GOLDEN, "--formula", "V(x) = x", "--bound", "60"],
    ["build", *GOLDEN, "--relation", "adder"],
]


def cold(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return set(report["modules"])


@pytest.mark.parametrize("argv", ARITHMETIC, ids=[" ".join(a[:a.index("--cf")]) for a in ARITHMETIC])
def test_arithmetic_commands_load_no_numpy(argv):
    loaded = cold(argv)
    assert "numpy" not in loaded
    assert not loaded & {"ostrowski.automata", "ostrowski.bulk", "ostrowski.logic", "ostrowski.recognizers"}


@pytest.mark.parametrize("argv", AUTOMATA, ids=[a[0] for a in AUTOMATA])
def test_automaton_commands_load_what_they_run(argv):
    loaded = cold(argv)
    assert "ostrowski.automata" in loaded
    assert "numpy.ma" not in loaded  # np.unique's hash form imports it
    if argv[0] == "build":
        assert "ostrowski.logic" not in loaded


# builds the nine relations of ``ostrowski build`` on one expansion, decides
# and enumerates in the same process, then reports the loaded modules
NINE = """
import json, sys
import ostrowski
from ostrowski import recognizers as r
cf = ostrowski.ContinuedFraction.from_text(sys.argv[1])
r.build_valid_rep(cf), r.build_digit_sum(cf), r.build_adder(cf)
r.build_equality(cf), r.build_less_than(cf), r.build_va_graph(cf)
for k in (1, 2, 3):
    r.build_pass_automaton(cf, k)
assert ostrowski.decide(cf, "A x. A y. x + y = y + x")
assert ostrowski.enumerate_solutions(cf, "V(x) = x", 60)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("text", ["1;(1)", "1;(2)"])
def test_building_every_relation_loads_no_numpy_ma(text):
    # a plain np.unique imports numpy.ma, 15 ms of every cold command
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NINE, text], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "numpy.ma" not in json.loads(proc.stdout)


def test_run_loads_no_numpy(tmp_path):
    # reading and running a stored automaton is plain Python
    path = tmp_path / "adder.aut"
    ostrowski.build_adder(ostrowski.ContinuedFraction.from_text("1;(1)")).save(path)
    loaded = cold(["run", "--automaton", str(path), "--word", "1 0", "--word", "1 0 0", "--word", "1 0 0 0"])
    assert "numpy" not in loaded
    assert "ostrowski.automata" in loaded
    assert not loaded & {"ostrowski.bulk", "ostrowski.logic", "ostrowski.recognizers"}


def test_automata_module_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, ostrowski.automata; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_lazy_names_are_their_home_objects():
    for name in ostrowski.__all__:
        value = getattr(ostrowski, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"ostrowski.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    for name, home in ostrowski._LAZY.items():
        module = importlib.import_module(f"ostrowski.{home}")
        assert ostrowski.__getattr__(name) is (module if name == home else getattr(module, name))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ostrowski import *", namespace)
    for name in ostrowski.__all__:
        assert namespace[name] is getattr(ostrowski, name)


def test_unknown_attribute_and_dir():
    with pytest.raises(AttributeError, match="no_such_name"):
        ostrowski.no_such_name
    with pytest.raises(ImportError):
        exec("from ostrowski import no_such_name", {})
    assert set(ostrowski._LAZY) <= set(dir(ostrowski))
    assert set(ostrowski.__all__) <= set(dir(ostrowski))
