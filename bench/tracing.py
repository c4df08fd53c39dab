"""Span tracing from outside the program, for the per-layer metrics.

Public functions of each pcdimer module are wrapped where their callers look
them up, only while a ``Tracer`` is installed.  Each call records a span
(name, start, end, parent); spans stay in memory until the run writes them
out.  A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import pcdimer.cli
import pcdimer.entanglement
import pcdimer.experiments
import pcdimer.hilbert
import pcdimer.liouvillian
import pcdimer.solvers

# (namespace, attribute, span name): every place a caller looks a traced
# function up, so each call is seen exactly once
_TARGETS = (
    (pcdimer.cli, "run", "cli.run"),
    (pcdimer.cli, "parse_config", "cli.parse_config"),
    (pcdimer.cli, "sweep_phase_detuning", "experiments.sweep_phase_detuning"),
    (pcdimer.cli, "dynamics_run", "experiments.dynamics_run"),
    (pcdimer.cli, "stark_switch_protocol", "experiments.stark_switch_protocol"),
    (pcdimer.cli, "convergence_scan", "solvers.convergence_scan"),
    (pcdimer.cli, "steady_state", "solvers.steady_state"),
    (pcdimer.experiments, "steady_state", "solvers.steady_state"),
    (pcdimer.solvers, "steady_state", "solvers.steady_state"),
    (pcdimer.experiments, "evolve", "solvers.evolve"),
    (pcdimer.cli, "build_liouvillian", "liouvillian.build"),
    (pcdimer.experiments, "build_liouvillian", "liouvillian.build"),
    (pcdimer.solvers, "build_liouvillian", "liouvillian.build"),
    (pcdimer.liouvillian, "build_effective_hamiltonian", "model.hamiltonian"),
    (pcdimer.cli, "identify_dark_state", "model.dark_state"),
    (pcdimer.experiments, "identify_dark_state", "model.dark_state"),
    (pcdimer.solvers, "qd_negativity", "entanglement.qd_negativity"),
    (pcdimer.entanglement, "partial_trace", "hilbert.partial_trace"),
    (pcdimer.hilbert.DensityMatrix, "__init__", "hilbert.density_matrix"),
)


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                if name == "solvers.steady_state":
                    want_info = kwargs.pop("return_info", False)
                    state, info = fn(*args, return_info=True, **kwargs)
                    counters["solvers.steady_state.refined"] += info.refined
                    result = (state, info) if want_info else state
                else:
                    result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if name == "liouvillian.build":
                counters["liouvillian.nnz"] += result.matrix.nnz
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced lookup through a span wrapper, then restore."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in _TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(_TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child_time[k]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
