"""Spans around the program's public entry points, installed from outside.

``Tracer.install`` wraps every public function of each layer module and
every public method of the classes the module defines, and rebinds the
wrapper in every ``ostrowski`` module that imported the original, so
calls between modules are caught too.  Each call becomes a span (name,
start, end, parent) kept in memory in flat arrays; ``write`` saves them
when the run ends.  Self time (span time minus the time of its direct
child spans) and the output size of calls returning an automaton are
folded in as spans close.

A few leaf calls run millions of times per round (a partial quotient per
digit, a window rewrite per explored transition); they are counted
instead of timed, so their cost stays in their caller's self time.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("contfrac", "numeration", "addition", "bulk", "automata", "recognizers", "logic", "cli")

COUNT_ONLY = {
    "contfrac.ContinuedFraction.partial_quotient",
    "contfrac.AutomatonParameters.quotient",
    "recognizers.window_a",
    "recognizers.window_b",
    "recognizers.window_c",
    "automata.Automaton.step",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.name_of = array.array("i")
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # outermost spans of each name, ns
        self.self_ns: Counter = Counter()
        self.states_out: Counter = Counter()
        self.states_in: Counter = Counter()
        self.max_states = 0
        self._stack: list[list] = []  # [span id, name id, child ns]
        self._open: Counter = Counter()
        self._paused = False

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "ostrowski") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, name, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        is_minimize = name == "automata.Automaton.minimize"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = len(self.start)
            stack = self._stack
            self.start.append(clock())
            self.end.append(0)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name_of.append(nid)
            frame = [sid, nid, 0]
            stack.append(frame)
            self._open[nid] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                t = clock()
                stack.pop()
                self._open[nid] -= 1
                dur = t - self.start[sid]
                self.end[sid] = t
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[2]
                if not self._open[nid]:
                    self.total[name] += dur
                if stack:
                    stack[-1][2] += dur
            states = getattr(out, "num_states", None)
            if isinstance(states, int):
                self.states_out[name] += states
                self.max_states = max(self.max_states, states)
                if is_minimize:
                    self.states_in[name] += args[0].num_states
            return out

        return traced

    # -- reading --------------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def seconds(self, name: str) -> float:
        return self.total[name] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def summary(self) -> dict:
        names = sorted(set(self.calls) | set(self.total))
        return {
            n: {
                "calls": self.calls[n],
                "total_s": self.total[n] / 1e9,
                "self_s": self.self_ns[n] / 1e9,
                **({"states_out": self.states_out[n]} if n in self.states_out else {}),
            }
            for n in names
        }

    def write(self, path) -> int:
        """Save every span as ``id parent name start_ns end_ns``; returns the count."""
        with gzip.open(path, "wt") as fh:
            fh.write("id parent name start_ns end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i} {self.parent[i]} {self.names[self.name_of[i]]} {self.start[i]} {self.end[i]}\n")
        return len(self.start)


def self_time_by_parent(tracer: Tracer) -> dict[str, float]:
    """Self seconds per name recomputed from the stored spans (a cross-check)."""
    child = defaultdict(int)
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    out: Counter = Counter()
    for i in range(len(tracer.start)):
        out[tracer.names[tracer.name_of[i]]] += tracer.end[i] - tracer.start[i] - child[i]
    return {k: v / 1e9 for k, v in out.items()}
