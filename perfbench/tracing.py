"""Spans around halflab's cross-module calls, recorded from outside.

The recorder replaces, for the length of a traced pass, the names through
which one halflab module calls another (`halflab.resolvent.solve_banded`,
`halflab.layers.gaussian_e`, ...) with wrappers that record a span, then
puts the originals back.  The program's source is not touched.  A span
holds its name, start, end and parent; self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


def _half_work(u0, a, b, r, p, p_b, nsteps):
    return _stencil_work(len(u0), r, p, nsteps)


def _whole_work(u0, a, r, p, nsteps):
    return _stencil_work(len(u0), r, p, nsteps)


def _stencil_work(n_cells, r, p, nsteps):
    # the kernels update cells r .. N-p-1 each step, one multiply-add per
    # stencil term
    cells = max(n_cells - p - r, 0) * int(nsteps)
    return cells, 2 * (p + r + 1) * cells


# (span name, module, attribute, work counter from the call's arguments).
# Only names looked up at call time are wrapped: a module attribute another
# module reads through `module.attr`, or a name imported into the caller.
TARGETS = (
    ("scheme.check_hypothesis_one", "halflab.cli", "check_hypothesis_one", None),
    ("scheme.check_hypothesis_one", "halflab.layers", "check_hypothesis_one", None),
    ("scheme.check_hypothesis_one", "halflab.gaussian", "check_hypothesis_one", None),
    ("spectral.check_hypothesis_two", "halflab.cli", "check_hypothesis_two", None),
    ("spectral.lopatinskii_derivative_at_one", "halflab.layers",
     "lopatinskii_derivative_at_one", None),
    ("spectral.projector_set", "halflab.layers", "projector_set", None),
    ("resolvent.inverse_laplace_table", "halflab.cli", "inverse_laplace_table", None),
    ("resolvent.solve_banded", "halflab.resolvent", "solve_banded", None),
    ("resolvent.guard", "halflab.resolvent", "lopatinskii", None),
    ("evolution.kernel", "halflab._kernels", "evolve_half", _half_work),
    ("evolution.kernel", "halflab._kernels", "evolve_whole", _whole_work),
    ("evolution.apply_half_line", "halflab.cli", "apply_half_line", None),
    ("evolution.growth_experiment", "halflab.cli", "growth_experiment", None),
    ("gaussian.gaussian_e", "halflab.layers", "gaussian_e", None),
    ("layers.err_bound_fit", "halflab.cli", "err_bound_fit", None),
    ("layers.rc_empirical", "halflab.cli", "rc_empirical", None),
    ("layers.rc_analytic", "halflab.cli", "rc_analytic", None),
    ("layers.ru_analytic", "halflab.cli", "ru_analytic", None),
    ("cli.artifacts", "halflab.svg", "line_chart", None),
    ("cli.artifacts", "halflab.svg", "heatmap", None),
    ("cli.artifacts", "halflab.cli", "_csv", None),
)

# computed, not measured: one read of u^n and one write of u^{n+1} per
# cell update, 8-byte floats
BYTES_PER_CELL_UPDATE = 16


class Recorder:
    """In-memory span tree of one traced pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # each span: [name, start, end, parent, child_s, work]
        self.spans = []
        self._stack = []

    def _enter(self, name, work=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, work])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        if span[3] is not None:
            self.spans[span[3]][4] += end - span[1]

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, work(*args, **kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def totals(self) -> dict:
        """Per span name: calls, s, self_s and summed work counters.  No
        target calls another target of the same name, so durations of one
        name never overlap."""
        out = {}
        for name, start, end, _, child_s, work in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "cells": 0, "flops": 0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s
            if work is not None:
                agg["cells"] += work[0]
                agg["flops"] += work[1]
        return out

    def write(self, path, meta: dict):
        spans = [{"name": s[0], "start": s[1] - self.t0, "end": s[2] - self.t0,
                  "parent": s[3], "work": s[5]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)


def resolve():
    """(span name, module object, attribute, original, work counter) for
    every target.  A target that does not resolve raises LookupError: its
    span would otherwise read as a silent zero."""
    out = []
    for name, module, attr, work in TARGETS:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if not callable(orig):
            raise LookupError(f"trace target {module}.{attr} (span {name}) "
                              f"is not a function")
        out.append((name, mod, attr, orig, work))
    return out


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    replaced = []
    try:
        for name, mod, attr, orig, work in resolve():
            setattr(mod, attr, recorder.wrap(name, orig, work))
            replaced.append((mod, attr, orig))
        yield recorder
    finally:
        for mod, attr, orig in reversed(replaced):
            setattr(mod, attr, orig)


def layer_metrics(totals: dict) -> dict:
    """Flatten span totals (one entry per span name, zeros for names that
    did not occur) into metric name -> value."""
    out = {}
    for name, agg in totals.items():
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.s"] = agg["s"]
        out[f"{name}.self_s"] = agg["self_s"]
    kern = totals["evolution.kernel"]
    out["evolution.kernel.cell_updates"] = kern["cells"]
    out["evolution.kernel.flops"] = kern["flops"]
    out["evolution.kernel.bytes_computed"] = kern["cells"] * BYTES_PER_CELL_UPDATE
    out["evolution.kernel.cell_updates_per_s"] = \
        kern["cells"] / kern["s"] if kern["s"] > 0 else 0.0
    return out
