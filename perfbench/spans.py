"""Call-site spans for the benchmark's traced run.

The package is not edited.  While a ``Tracer`` is installed, each public
entry point listed in ``CALL_SITES`` is replaced, as an attribute of the
module that calls it, by a wrapper that records a span (name, layer, start,
end, parent) and, for solves and kernel calls, counters.  Spans of one
operation share its index; they stay in memory until the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of one operation add up to its root span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("cli", "pricing", "storage", "flexibility", "lp", "simplex",
          "analysis")

#: (calling module, attribute, layer, span name)
CALL_SITES = (
    ("flexarb.cli", "load_price_csv", "pricing", "pricing.load"),
    ("flexarb.cli", "build_storage_lp", "storage", "storage.build"),
    ("flexarb.cli", "extract_storage_schedule", "storage", "storage.extract"),
    ("flexarb.cli", "build_flex_lp", "flexibility", "flexibility.build"),
    ("flexarb.cli", "extract_flex_schedule", "flexibility",
     "flexibility.extract"),
    ("flexarb.cli", "nominal_profile", "flexibility", "flexibility.nominal"),
    ("flexarb.cli", "solve_lp", "lp", "lp.solve"),
    ("flexarb.cli", "ramp_rate_sweep", "analysis", "analysis.sweep"),
    ("flexarb.cli", "monte_carlo_run", "analysis", "analysis.mc"),
    ("flexarb.cli", "default_price_generator", "analysis", "analysis.other"),
    ("flexarb.cli", "arbitrage_gain", "analysis", "analysis.other"),
    ("flexarb.cli", "equivalent_full_cycles", "analysis", "analysis.other"),
    ("flexarb.cli", "switching_count", "analysis", "analysis.other"),
    ("flexarb.cli", "mc_to_dict", "analysis", "analysis.other"),
    ("flexarb.cli", "write_sweep_csv", "analysis", "analysis.write"),
    ("flexarb.cli", "write_sweep_json", "analysis", "analysis.write"),
    ("flexarb.analysis", "solve_lp", "lp", "lp.solve"),
    ("flexarb.analysis", "build_storage_lp", "storage", "storage.build"),
    ("flexarb.analysis", "extract_storage_schedule", "storage",
     "storage.extract"),
    ("flexarb.analysis", "synthetic_day", "pricing", "pricing.gen"),
    ("flexarb.lp", "validate_lp", "lp", "lp.validate"),
    ("flexarb._simplex", "simplex_numpy", "simplex", "simplex.kernel"),
    ("flexarb._simplex", "simplex_numba", "simplex", "simplex.kernel"),
)


@dataclass
class Span:
    op: int
    name: str
    layer: str
    parent: int  # index in Tracer.spans; -1 for an operation's root
    start: float
    end: float = -1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op -> counter -> value
        self.backends = set()
        self._stack = []
        self._op = -1

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self._op, name, layer, parent,
                               time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Root span of one CLI invocation, in the ``cli`` layer."""
        self._op = op
        idx = self._open("cli.main", "cli")
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self._op][key] += value

    def _wrap(self, fn, name: str, layer: str):
        record = _RECORDERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                record(self, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every call site with its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, layer, name in CALL_SITES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, layer))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _record_solve(tracer: Tracer, args, solution) -> None:
    problem = args[0]
    tracer.count("solves")
    tracer.count("iterations", solution.stats.iterations)
    tracer.count("nonoptimal", solution.status.value != "optimal")
    tracer.count("rows", problem.n_rows)
    tracer.count("cols", problem.n_cols)
    tracer.backends.add(solution.stats.backend)


def _record_kernel(tracer: Tracer, args, result) -> None:
    tracer.count("kernel_calls")


_RECORDERS = {"lp.solve": _record_solve, "simplex.kernel": _record_kernel}


def self_seconds(spans) -> dict:
    """Self time per (op, layer): span time minus its children's time."""
    out = defaultdict(float)
    for s in spans:
        out[(s.op, s.layer)] += s.seconds
        if s.parent >= 0:
            out[(s.op, spans[s.parent].layer)] -= s.seconds
    return out


def well_formed(spans) -> bool:
    """Every span closed, inside its parent, and of the parent's operation."""
    for s in spans:
        if s.end < s.start:
            return False
        if s.parent >= 0:
            p = spans[s.parent]
            if p.op != s.op or s.start < p.start or s.end > p.end:
                return False
    return True
