"""Steady states, transient integration and Fock-truncation convergence."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

from .entanglement import qd_negativity
from .exceptions import (
    DegenerateSteadyStateError,
    IntegrationError,
    SingularSolveError,
)
from .hilbert import CompositeSpace, DensityMatrix, NumericPolicy, lowering_operators
from .liouvillian import Superoperator, build_liouvillian, identity_bra
from .model import SystemParams

__all__ = [
    "STEADY_RESIDUAL_TOL",
    "SteadyStateInfo",
    "steady_state",
    "Schedule",
    "Trajectory",
    "evolve",
    "ConvergenceReport",
    "convergence_scan",
    "OBSERVABLES",
]

# residual bound ||L vec(rho_ss)|| for an accepted steady state (L in 1/ps)
STEADY_RESIDUAL_TOL = 1e-9

# steady states and integrated trajectories carry a slightly relaxed
# positivity slack; roundoff at the solver tolerance can dip further below
# zero than freshly constructed states do
_SOLVER_POLICY = NumericPolicy(algebraic_tol=1e-10, positivity_slack=1e-8)

_DEGENERACY_SV_RATIO = 1e-12  # second singular value below this * ||L|| => degenerate

# integrator defaults: embedded Runge-Kutta 5(4), per-step relative tolerance
_RTOL = 1e-8
_ATOL = 1e-10
_TRACE_DRIFT_TOL = 1e-7


@dataclass(frozen=True)
class SteadyStateInfo:
    """Diagnostics of a steady-state solve."""

    residual: float
    refined: bool


def _diagnose_kernel(liouville: Superoperator):
    """On solver failure, distinguish a degenerate kernel from plain
    ill-conditioning via the dense singular spectrum."""
    dense = liouville.matrix.toarray()
    singular_values = np.linalg.svd(dense, compute_uv=False)
    norm = singular_values[0] if singular_values.size else 0.0
    kernel_dim = int(np.sum(singular_values < _DEGENERACY_SV_RATIO * max(norm, 1.0)))
    if kernel_dim >= 2:
        raise DegenerateSteadyStateError(
            f"the generator kernel is {kernel_dim}-dimensional; "
            "the steady state is not unique",
            kernel_dimension=kernel_dim,
        )
    cond = norm / singular_values[-1] if singular_values[-1] > 0 else float("inf")
    raise SingularSolveError(
        "steady-state solve failed on a nondegenerate generator "
        f"(condition estimate {cond:.3e})",
        condition_estimate=cond,
    )


def steady_state(liouville: Superoperator, return_info: bool = False):
    """Unique steady state of a trace-preserving generator.

    One row of the sparse system is replaced by the trace functional and the
    result of a direct solve is polished with one step of iterative
    refinement.  Raises ``DegenerateSteadyStateError`` when the kernel is
    (numerically) more than one-dimensional.
    """
    d = liouville.dim
    bra = identity_bra(liouville.space)
    trace_row = sp.csr_matrix(bra.reshape(1, -1))
    a = sp.vstack([trace_row, liouville.matrix[1:, :]], format="csc")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0

    try:
        lu = splu(a)
        pivots = np.abs(lu.U.diagonal())
        if pivots.min() <= 1e-14 * max(1.0, pivots.max()):
            _diagnose_kernel(liouville)  # zero pivot: singular to precision
        x = lu.solve(b)
        refined = False
        residual_lin = np.linalg.norm(a @ x - b)
        if residual_lin > 1e-13 * max(1.0, np.linalg.norm(x)):
            x = x + lu.solve(b - a @ x)
            refined = True
    except (RuntimeError, ValueError):
        _diagnose_kernel(liouville)

    if not np.all(np.isfinite(x)):
        _diagnose_kernel(liouville)

    rho = x.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    residual = float(np.linalg.norm(
        liouville.matrix @ rho.reshape(-1, order="F")))
    if residual > STEADY_RESIDUAL_TOL:
        _diagnose_kernel(liouville)

    state = DensityMatrix(liouville.space, rho, policy=_SOLVER_POLICY)
    if return_info:
        return state, SteadyStateInfo(residual=residual, refined=refined)
    return state


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant parameter schedule: parameters hold within a
    segment and switch instantaneously at segment boundaries."""

    segments: tuple[tuple[float, SystemParams], ...]

    def __post_init__(self):
        segments = tuple((float(d), p) for d, p in self.segments)
        if not segments:
            raise IntegrationError("schedule needs at least one segment")
        if any(d <= 0 for d, _ in segments):
            raise IntegrationError("segment durations must be positive")
        spaces = {p.space() for _, p in segments}
        if len(spaces) != 1:
            raise IntegrationError("all schedule segments must share one space")
        object.__setattr__(self, "segments", segments)

    @staticmethod
    def constant(params: SystemParams, duration: float) -> "Schedule":
        return Schedule(((duration, params),))

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def space(self) -> CompositeSpace:
        return self.segments[0][1].space()


@dataclass(frozen=True)
class Trajectory:
    """Sampled open-system evolution with named observable series."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    observables: dict[str, np.ndarray]

    def peak(self, name: str) -> tuple[float, float]:
        """(time, value) of the maximum of one observable series."""
        series = self.observables[name]
        k = int(np.argmax(series))
        return float(self.times[k]), float(series[k])


@lru_cache(maxsize=16)
def _population_operators(space: CompositeSpace):
    named = []
    counts = {"qubit": 0, "boson": 0}
    for sub, low in zip(space.subsystems, lowering_operators(space)):
        counts[sub.kind] += 1
        label = "qd" if sub.kind == "qubit" else "m"
        named.append((f"pop_{label}{counts[sub.kind]}",
                      low.matrix.conj().T @ low.matrix))
    return tuple(named)


def _observables_from_states(space, states):
    named = _population_operators(space)
    result = {name: np.array([np.trace(op @ s.matrix).real for s in states])
              for name, op in named}
    kinds = tuple(s.kind for s in space.subsystems)
    if len(kinds) >= 2 and kinds[0] == kinds[1] == "qubit":
        result["negativity"] = np.array([qd_negativity(s) for s in states])
    return result


def evolve(schedule: Schedule, rho0: DensityMatrix, t_grid,
           rtol: float = _RTOL, atol: float = _ATOL) -> Trajectory:
    """Integrate d(rho)/dt = L rho across the schedule and sample on t_grid.

    Uses an adaptive embedded Runge-Kutta 5(4) pair with per-step relative
    tolerance ``rtol``; segment boundaries are hit exactly and the state is
    handed over unchanged.  The raw trace drift over the full horizon must
    stay below 1e-7 or an ``IntegrationError`` is raised; sampled states are
    re-symmetrized and trace-normalized before being returned.
    """
    space = schedule.space()
    if rho0.space != space:
        raise IntegrationError("initial state does not live on the schedule's space")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise IntegrationError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(t_grid) <= 0):
        raise IntegrationError("t_grid must be strictly increasing")
    total = schedule.total_duration
    if t_grid[0] < 0 or t_grid[-1] > total * (1 + 1e-12):
        raise IntegrationError(
            f"t_grid must lie within [0, {total}] (schedule duration)"
        )
    # snap grid points within roundoff of the horizon onto it, so segment
    # accumulation error cannot drop the final sample
    t_grid = np.where(np.abs(t_grid - total) <= 1e-9 * max(1.0, total),
                      total, t_grid)

    d = space.total_dim
    y = rho0.matrix.reshape(-1, order="F").astype(complex)
    sampled: list[np.ndarray] = []
    sample_times: list[float] = []
    if t_grid[0] == 0.0:
        sampled.append(rho0.matrix.copy())
        sample_times.append(0.0)

    t_cursor = 0.0
    for seg_index, (duration, params) in enumerate(schedule.segments):
        last = seg_index == len(schedule.segments) - 1
        t_end = total if last else min(t_cursor + duration, total)
        liouville = build_liouvillian(params).matrix

        def rhs(_t, vec, mat=liouville):
            return mat @ vec

        wanted = t_grid[(t_grid > t_cursor) & (t_grid <= t_end)]
        t_eval = np.unique(np.concatenate([wanted, [t_end]]))
        sol = solve_ivp(rhs, (t_cursor, t_end), y, method="RK45",
                        rtol=rtol, atol=atol, t_eval=t_eval)
        if not sol.success:
            raise IntegrationError(
                f"integration failed in segment ending at {t_end} ps: {sol.message}"
            )
        for k, t in enumerate(sol.t):
            if t in wanted:
                sampled.append(sol.y[:, k].reshape((d, d), order="F"))
                sample_times.append(float(t))
        y = sol.y[:, -1]
        t_cursor = t_end

    drift = max(abs(np.trace(m) - 1.0) for m in sampled)
    if drift > _TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drift {drift:.3e} exceeds {_TRACE_DRIFT_TOL:.0e}",
            error_estimate=float(drift),
        )

    states = []
    for m in sampled:
        m = 0.5 * (m + m.conj().T)
        m = m / np.trace(m).real
        states.append(DensityMatrix(space, m, policy=_SOLVER_POLICY))
    states = tuple(states)

    times = np.array(sample_times)
    return Trajectory(times=times, states=states,
                      observables=_observables_from_states(space, states))


# named steady-state functionals usable by convergence scans and sweeps
OBSERVABLES = {
    "negativity": lambda params, rho: qd_negativity(rho),
    "pop_qd1": lambda params, rho: _population(rho, "pop_qd1"),
    "pop_qd2": lambda params, rho: _population(rho, "pop_qd2"),
    "pop_m1": lambda params, rho: _population(rho, "pop_m1"),
    "pop_m2": lambda params, rho: _population(rho, "pop_m2"),
}


def _population(rho: DensityMatrix, name: str) -> float:
    for op_name, op in _population_operators(rho.space):
        if op_name == name:
            return float(np.trace(op @ rho.matrix).real)
    raise KeyError(name)


def resolve_observable(observable):
    """Accept either a registry name or a callable(params, rho) -> float."""
    if callable(observable):
        return observable
    try:
        return OBSERVABLES[observable]
    except KeyError:
        raise KeyError(
            f"unknown observable {observable!r}; known: {sorted(OBSERVABLES)}"
        ) from None


@dataclass(frozen=True)
class ConvergenceReport:
    """Steady-state observable versus Fock cutoff."""

    cutoffs: tuple[int, ...]
    values: tuple[float, ...]
    relative_differences: tuple[float, ...]
    converged: tuple[bool, ...]
    threshold: float

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


def convergence_scan(params: SystemParams, observable="negativity",
                     cutoffs=(1, 2), threshold: float = 0.01) -> ConvergenceReport:
    """Recompute a steady-state observable at increasing Fock cutoffs and
    report the successive relative differences."""
    cutoffs = tuple(int(c) for c in cutoffs)
    if any(c < 1 for c in cutoffs) or any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be ascending integers >= 1")
    func = resolve_observable(observable)
    values = []
    for cutoff in cutoffs:
        p = params.with_truncation(cutoff)
        rho = steady_state(build_liouvillian(p))
        values.append(float(func(p, rho)))
    rel_diffs = []
    flags = []
    for prev, cur in zip(values, values[1:]):
        delta = abs(cur - prev)
        if abs(prev) > 1e-12:
            rel = delta / abs(prev)
        else:
            rel = 0.0 if delta <= 1e-12 else float("inf")
        rel_diffs.append(rel)
        flags.append(rel < threshold)
    return ConvergenceReport(
        cutoffs=cutoffs,
        values=tuple(values),
        relative_differences=tuple(rel_diffs),
        converged=tuple(flags),
        threshold=threshold,
    )
