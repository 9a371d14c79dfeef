"""Spans around the calls one todaflow module makes into another.

The tracer replaces a function where its caller looks it up (the caller
module's global, or the package attribute the benchmark itself calls), so
the library is never edited.  Each span is (name, start, end, parent, op);
spans stay in memory and are written out when the run ends.  Counts that
a span cannot express (matrix rows, Lanczos steps, RK4 steps, JacobiMatrix
constructions) are taken at the same boundaries.

install() needs the imported todaflow package; aggregate() is plain
arithmetic on the recorded spans and is used by the harness.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(j, *_args, **_kw):
    return j.n


def _lanczos_steps(_mu, n, *_args, **_kw):
    return n


def _rk4_steps(_j0, times, dt, *_args, **_kw):
    return int(sum(round(w / dt) for w in np.diff(np.asarray(times, dtype=float))))


# (caller module, bound name, span name, quantity taken from the arguments)
BINDINGS = (
    ("todaflow", "solve_toda_finite", "flow.solve_toda_finite", None),
    ("todaflow", "solve_toda_semi_infinite", "semi_infinite.solve_toda_semi_infinite", None),
    ("todaflow.flow", "eigendecompose", "jacobi.eigendecompose", ("rows", _rows)),
    ("todaflow.flow", "moser_evolve", "flow.moser_evolve", None),
    ("todaflow.flow", "jacobi_from_measure", "moments.jacobi_from_measure", ("steps", _lanczos_steps)),
    ("todaflow.semi_infinite", "eigendecompose", "jacobi.eigendecompose", ("rows", _rows)),
    ("todaflow.semi_infinite", "solve_toda_finite", "flow.solve_toda_finite", None),
    ("todaflow.semi_infinite", "evolve_moments", "flow.evolve_moments", None),
    ("todaflow.cli", "main", "cli.main", None),
    ("todaflow.cli", "load_config", "cli.load_config", None),
    ("todaflow.cli", "run", "cli.run", None),
    ("todaflow.cli", "solve_toda_finite", "flow.solve_toda_finite", None),
    ("todaflow.cli", "eigendecompose", "jacobi.eigendecompose", ("rows", _rows)),
    ("todaflow.cli", "evolve_moments", "flow.evolve_moments", None),
    ("todaflow.cli", "rk4_toda", "oracle.rk4_toda", ("steps", _rk4_steps)),
    ("todaflow.cli", "compare_trajectories", "oracle.compare_trajectories", None),
    ("todaflow.cli", "write_trajectory_csv", "cli.write_trajectory_csv", None),
)

OP_SPAN = "op"


class Tracer:
    """Records spans and counts for the op currently running (op = -1: none)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def span(self, name: str, fn, quantity=None):
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            if quantity is not None:
                # A changed library signature must not stop the run; the count then reads low.
                try:
                    self.counts[f"{name}.{quantity[0]}"] += quantity[1](*args, **kwargs)
                except (TypeError, AttributeError, ValueError, ZeroDivisionError):
                    pass
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)

        return traced

    def run_op(self, op: int, fn, *args):
        """Run one op under a root span; spans and counts are attributed to it."""
        self.op = op
        try:
            return self.span(OP_SPAN, fn)(*args)
        finally:
            self.op = -1

    def install(self) -> None:
        """Wrap every binding that exists; a missing one is skipped, not an error."""
        for module_name, attr, name, quantity in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.span(name, original, quantity))
        jacobi_cls = importlib.import_module("todaflow.jacobi").JacobiMatrix
        post_init = jacobi_cls.__post_init__

        def counted(obj):
            if self.op >= 0:
                self.counts["jacobi.JacobiMatrix.builds"] += 1
            post_init(obj)

        self._restore.append((jacobi_cls, "__post_init__", post_init))
        jacobi_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def aggregate(spans, scale: dict) -> dict:
    """Per span name: calls, busy seconds (inclusive) and self seconds (minus direct children).

    Each duration is multiplied by scale[op] of the op it belongs to (the
    harness passes the op's reference-speed factor).  Same-thread spans
    nest, so the direct children of a span cover disjoint parts of it and
    self time is its duration minus their sum.
    """
    duration = [(end - start) * scale[op] for _name, start, end, _parent, op in spans]
    child_time = defaultdict(float)
    for i, (_name, _start, _end, parent, _op) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, _start, _end, _parent, _op) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["busy_s"] += duration[i]
        entry["self_s"] += duration[i] - child_time[i]
    return dict(out)
