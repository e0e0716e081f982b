"""Spans recorded from outside the package, around its public functions.

:func:`instrument` replaces a function at every binding the package holds:
the attribute of its own module, each ``from .x import f`` copy in other
modules and the package-level name.  Calls then go through a wrapper that
records a span (name, start, end, parent span, operation id) in memory.
Nothing under the package's source changes, and :meth:`Tracer.restore`
puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

ROOT = "op"  # name of the span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self._op)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Call fn() inside a root span that carries the operation id."""
        self._op = op_id
        i = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(i)

    def wrap(self, name: str, fn, gauge=None):
        """fn with a span around each call; gauge(args, kwargs) -> int, if
        given, is recorded as the running maximum under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if gauge is not None:
                g = gauge(args, kwargs)
                if g > self.maxima[name]:
                    self.maxima[name] = g
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def instrument(self, package: str, targets) -> None:
        """Wrap each ``(module, function, gauge)`` of the package at every
        binding held by the package's loaded modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module_name, func_name, gauge in targets:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original, gauge)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its child spans cover (one
        thread, so children never overlap and their durations add)."""
        dur = self.durations()
        out = dur[:]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[i]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += d * 1e-9
            row["self_s"] += s * 1e-9
        return dict(out)

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "spans": [list(r) for r in zip(self.names, self.starts, self.ends, self.parents, self.op_ids)],
        }
