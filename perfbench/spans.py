"""In-memory spans recorded by wrapping nullwave's functions.

Each wrapper replaces a module attribute under the name its caller looks it
up by -- ``nullwave.pipeline.march`` is what ``run_pipeline`` calls,
``nullwave.picard.rhs_wave`` what the Picard stages call -- so the package
runs unchanged and only the calls named here are seen.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 at top level).  Spans stay in a list until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("nullwave.pipeline", "build_diagonal_data", "data_gauge.build_diagonal"),
    ("nullwave.pipeline", "march", "dn_core.march"),
    ("nullwave.pipeline", "sigma_wave_residual", "dn_core.sigma_residual"),
    ("nullwave.pipeline", "picard_fixed_point", "picard.fixed_point"),
    ("nullwave.pipeline", "contraction_ratio", "picard.contraction"),
    ("nullwave.picard", "picard_apply", "picard.apply"),
    ("nullwave.picard", "rhs_wave", "picard.rhs_wave"),
    ("nullwave.pipeline", "integrate_frame", "geometry.integrate_frame"),
    ("nullwave.pipeline", "reconstruct_coords", "geometry.reconstruct_coords"),
    ("nullwave.pipeline", "degeneracy_monitor", "geometry.degeneracy"),
    ("nullwave.crossval", "rect_solve", "crossval.rect_solve"),
    ("nullwave.crossval", "pullback_compare", "crossval.pullback"),
    ("nullwave.crossval", "phase_shift", "crossval.phase_shift"),
    ("nullwave.crossval", "phase_function", "background.phase_function"),
    ("nullwave.geometry", "phase_function", "background.phase_function"),
    ("nullwave.background", "phase_function", "background.phase_function"),
    ("nullwave.background", "adaptive_simpson", "background.simpson"),
)


class Tracer:
    """Span recorder; ``install`` wraps the functions, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def install(self):
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self):
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def by_name(self) -> dict:
        """{name: {calls, total_s, self_s}} over the recorded spans.

        total_s counts a span nested inside another of the same name once;
        self_s is span time minus the time of its child spans.
        """
        child_time = [0.0] * len(self.spans)
        above = []  # names of each span's ancestors
        table = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                above.append(above[parent] | {self.spans[parent][0]})
            else:
                above.append(frozenset())
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            if name not in above[-1]:
                row["total_s"] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            table[name]["self_s"] += end - start - inner
        return table


def span_cost_s(calls: int = 20000, batches: int = 7) -> float:
    """Seconds one span adds to a call: the median over `batches` of the
    per-call time of a wrapped no-op minus that of the bare no-op."""
    tracer = Tracer()

    def noop():
        pass

    wrapped = tracer._wrap(noop, "noop")
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append((t2 - 2 * t1 + t0) / calls)
    return median(costs)
