"""Spans and counters recorded from outside the program.

The tracer replaces the names ``fspec.experiments`` and ``fspec.solver`` call
(and three methods on fspec classes) with wrappers that record a span or a
count, and puts the originals back afterwards.  Spans are kept in memory as
``[name, start, end, parent, rep]`` and written out when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter

import numpy as np

# layer span -> names bound in fspec.experiments / fspec.solver
_FUNCTION_SPANS = {
    "fiber.resolve": ("resolve_fiber_nodes",),
    "fiber.oracle": ("volume_density", "symbol_matrix", "randers_energy_direct"),
    "solver.assemble": ("assemble",),
    "solver.solve": ("solve",),
    "metrics.bilipschitz": ("bilipschitz_ratio",),
}
ROOT_SPAN = "experiments"


def patch(owner, name, replacement):
    """Set owner.name and return a function that restores the previous value."""
    previous = owner.__dict__[name]
    setattr(owner, name, replacement)
    return lambda: setattr(owner, name, previous)


def capture_fields(symbol_field_cls, sink):
    """Append every SymbolField.compute result to sink; returns the restorer."""
    compute = symbol_field_cls.__dict__["compute"].__func__

    def captured(cls, *args, **kwargs):
        field = compute(cls, *args, **kwargs)
        sink.append(field)
        return field

    return patch(symbol_field_cls, "compute", classmethod(captured))


def _max_rel_residual(spectrum):
    values = np.asarray(spectrum.values)
    ref = float(values[1]) if values.size > 1 else max(float(values[0]), 1.0)
    return float((spectrum.residuals / np.maximum(np.abs(values), ref)).max())


class Tracer:
    """Records spans and per-repetition counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._rep = None

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._rep]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def start_rep(self, rep):
        self._rep = rep
        self.counts[rep] = Counter()
        return self._open(ROOT_SPAN)

    def end_rep(self, record):
        self._close(record)
        self._rep = None

    def _count(self, **amounts):
        counts = self.counts[self._rep]
        for key, value in amounts.items():
            counts[key] += value

    def _peak(self, **values):
        counts = self.counts[self._rep]
        for key, value in values.items():
            counts[key] = max(counts[key], value)

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, fspec_experiments, fspec_solver, symbol_field_cls,
                field_cls, report_cls):
        """Wrap every traced entry point; returns a function that unwraps them."""
        restorers = []
        after = {
            "resolve_fiber_nodes": lambda q: self._peak(fiber_nodes=q.size),
            "assemble": lambda p: self._count(K_nnz=p.K.nnz),
            "solve": self._after_solve,
        }
        for span, names in _FUNCTION_SPANS.items():
            for name in names:
                for module in (fspec_experiments, fspec_solver):
                    if name in module.__dict__:
                        wrapped = self._timed(span, module.__dict__[name],
                                              after.get(name))
                        restorers.append(patch(module, name, wrapped))

        compute = symbol_field_cls.__dict__["compute"].__func__

        def traced_compute(cls, *args, **kwargs):
            # tracemalloc's own cost stays inside the span it measures
            record = self._open("fiber.field")
            tracemalloc.start()
            try:
                field = compute(cls, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._close(record)
            constant = (field.mu.min() == field.mu.max()
                        and bool(np.all(field.sigma_star == field.sigma_star[0, 0])))
            nodes = 1 if constant else field.grid.node_count
            self._count(field_calls=1, field_node_evals=nodes * field.fiber_nodes)
            self._peak(field_peak_mib=peak / 2**20)
            return field

        restorers.append(patch(symbol_field_cls, "compute",
                               classmethod(traced_compute)))

        constant_value = field_cls.__dict__["constant_value"]

        def counted_constant_value(field, *args, **kwargs):
            self._count(constant_value_calls=1)
            return constant_value(field, *args, **kwargs)

        restorers.append(patch(field_cls, "constant_value", counted_constant_value))

        write = report_cls.__dict__["write"]

        def traced_write(report, *args, **kwargs):
            record = self._open("experiments.write")
            try:
                written = write(report, *args, **kwargs)
            finally:
                self._close(record)
            self._count(write_bytes=sum(path.stat().st_size for path in written))
            return written

        restorers.append(patch(report_cls, "write", traced_write))

        def uninstall():
            for restore in reversed(restorers):
                restore()
        return uninstall

    def _after_solve(self, spectrum):
        self._count(solve_calls=1, solve_nodes=spectrum.vectors.shape[0])
        self._peak(max_rel_residual=_max_rel_residual(spectrum))

    # -- summaries ----------------------------------------------------------

    def self_times(self, rep):
        """Self time per span name within one repetition, in seconds."""
        own = {}
        child = Counter()
        for index, (name, start, end, parent, span_rep) in enumerate(self.spans):
            if span_rep != rep:
                continue
            own[index] = (name, end - start)
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for index, (name, duration) in own.items():
            totals[name] += duration - child[index]
        return totals

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "rep"],
                "spans": self.spans}
