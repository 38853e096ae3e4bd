"""Run one cold ``ostrowski`` command in this process, with a tick before and after.

    python3 bench/cli_child.py <ostrowski arguments...>

The command runs exactly as ``python3 -m ostrowski.cli`` would run it, and
its output and exit status pass through unchanged.  The tick lengths go to
standard error as the last line, ``{"ticks": [before, after]}``, so that
the parent can correct the command's time by the speed of the core the
command ran on (see ``clock.py``); the parent's own ticks do not see it.
"""

import json
import runpy
import sys
import time

import clock  # found beside this file, which is sys.path[0]


def tick() -> float:
    t0 = time.perf_counter()
    clock.reference_loop()
    return time.perf_counter() - t0


if __name__ == "__main__":
    before = tick()
    sys.argv = ["ostrowski", *sys.argv[1:]]
    del sys.path[0]  # the command cannot import the benchmark's modules
    status = 0
    try:
        runpy.run_module("ostrowski.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    sys.stdout.flush()
    print(json.dumps({"ticks": [before, tick()]}), file=sys.stderr)
    sys.exit(status)
