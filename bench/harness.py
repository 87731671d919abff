"""Timed repetitions in forked children, and the span tracer for traced runs.

Every repetition of an operation runs in a child forked from the benchmark
process, one child at a time, so no memo, cache or other module state that a
repetition fills is visible to the next one. The child times the operation
itself and sends its result back over a pipe as JSON; the parent reads the
child's peak resident set size from ``os.wait4``. ``reference_loop`` gives
the machine's momentary speed, by which the benchmark scales its times.
"""

from __future__ import annotations

import importlib
import json
import os
import traceback
from collections import deque
from time import perf_counter
from typing import Any, Callable

#: The traced functions, by home module. ``element_oracle.maximum_flow`` is
#: scipy's solver as the element oracle imports it.
TRACED = {
    "arith": ("factorize", "divisors", "totient"),
    "quotient": ("build_quotient", "components_without"),
    "formulas": ("classify", "kappa_formula", "upper_bound_ii"),
    "connectivity": ("kappa_class",),
    "element_oracle": ("element_adjacency", "kappa_element_oracle", "maximum_flow"),
    "separators": ("optimal_Z", "check_disconnects", "enumerate_min_separators"),
    "cli": ("build_report", "main"),
}
TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
SPLIT_NAME = "quotient.components_without"
_MODULES = ("pgk",) + tuple(f"pgk.{m}" for m in TRACED)

#: The sum of all BFS levels the reference loop computes, checked on every call.
_REFERENCE_TOTAL = 266008


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work, breadth-first
    searches over a fixed graph of lists, the kind of work pgk does most.
    It shares no code with pgk, so only the machine's speed moves it."""
    size = 400
    adj = [[(a * 37 + k * 101) % size for k in range(6)] for a in range(size)]
    start = perf_counter()
    total = 0
    for source in range(0, size, 2):
        level = [-1] * size
        level[source] = 0
        queue = deque([source])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if level[b] < 0:
                    level[b] = level[a] + 1
                    queue.append(b)
        total += sum(level)
    seconds = perf_counter() - start
    if total != _REFERENCE_TOTAL:
        raise RuntimeError(f"reference loop computed {total}, not {_REFERENCE_TOTAL}")
    return seconds


class ChildFailed(Exception):
    """The operation raised in the child, or the child died."""


def run_forked(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """Run fn(*args) in a forked child; return its JSON-able result and the
    child's peak RSS in MB."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            payload = {"ok": fn(*args)}
        except BaseException:  # report every failure to the parent, then exit
            payload = {"error": traceback.format_exc()}
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        except BaseException:
            code = 1
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:  # drain before waiting, so a full pipe cannot block
        text = inp.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not text:
        raise ChildFailed(f"child exited with status {status}")
    payload = json.loads(text)
    if "error" in payload:
        raise ChildFailed(payload["error"])
    return payload["ok"], usage.ru_maxrss / 1024.0


class Tracer:
    """Spans (name, start, end, parent) around every traced function.

    ``install`` rebinds each traced function in every pgk module that holds
    it, because the modules import names directly; a call is thus recorded
    whichever module makes it. Spans stay in memory until ``summary``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.splits = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if name == SPLIT_NAME and len(result) >= 2:
                self.splits += 1
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for module, names in TRACED.items():
            home = importlib.import_module(f"pgk.{module}")
            for name in names:
                fn = getattr(home, name)
                wrapped[id(fn)] = self._wrap(f"{module}.{name}", fn)
        for module_name in _MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def summary(self) -> dict:
        """Calls and self seconds per traced name, plus the split count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(TRACED_NAMES, 0)
        self_s = dict.fromkeys(TRACED_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - inner
        return {"calls": calls, "self_s": self_s, "splits": self.splits}
