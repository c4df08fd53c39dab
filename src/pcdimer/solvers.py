"""Steady states, exact transient propagation and Fock-truncation convergence."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, splu

from .entanglement import negativity, qd_negativity
from .exceptions import (
    DegenerateSteadyStateError,
    IntegrationError,
    SingularSolveError,
)
from .hilbert import (
    CompositeSpace,
    DensityMatrix,
    NumericPolicy,
    _partial_trace_matrix,
    check_density_matrix,
    lowering_operators,
)
from .liouvillian import Superoperator, build_liouvillian, identity_bra
from .model import SystemParams

__all__ = [
    "STEADY_RESIDUAL_TOL",
    "SteadyStateInfo",
    "steady_state",
    "Schedule",
    "PropagationInfo",
    "Trajectory",
    "evolve",
    "ConvergenceReport",
    "convergence_scan",
    "OBSERVABLES",
]

# residual bound ||L vec(rho_ss)|| for an accepted steady state (L in 1/ps)
STEADY_RESIDUAL_TOL = 1e-9

# steady states and propagated trajectories carry a slightly relaxed
# positivity slack; roundoff at the solver tolerance can dip further below
# zero than freshly constructed states do
_SOLVER_POLICY = NumericPolicy(algebraic_tol=1e-10, positivity_slack=1e-8)

_DEGENERACY_SV_RATIO = 1e-12  # second singular value below this * ||L|| => degenerate

_TRACE_DRIFT_TOL = 1e-7

# Liouville dimensions D^2 up to this (Fock cutoff 1) propagate with dense
# exp(L dt) matrices; larger spaces with the action of the exponential
_DENSE_PROPAGATOR_MAX_DIM = 256
# step lengths within this relative distance share one propagator
_SHARED_STEP_TOL = 1e-12


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
class PropagationInfo:
    """Diagnostics of one ``evolve`` call.

    ``route`` is ``"dense_expm"`` or ``"expm_multiply"``; ``propagators``
    counts the dense exp(L dt) matrices built, or the ``expm_multiply``
    calls; ``max_trace_drift`` is the largest |Tr(rho) - 1| of the raw
    sampled states, before renormalization.
    """

    route: str
    propagators: int
    max_trace_drift: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled open-system evolution with named observable series.

    ``matrices`` is the validated ``(n, d, d)`` stack of sampled states;
    ``states`` wraps it as ``DensityMatrix`` objects on first access.
    """

    times: np.ndarray
    space: CompositeSpace
    matrices: np.ndarray = field(repr=False)
    observables: dict[str, np.ndarray]
    info: PropagationInfo

    @cached_property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(DensityMatrix(self.space, m, policy=_SOLVER_POLICY)
                     for m in self.matrices)

    def peak(self, name: str) -> tuple[float, float]:
        """(time, value) of the maximum of one observable series."""
        series = self.observables[name]
        k = int(np.argmax(series))
        return float(self.times[k]), float(series[k])


@lru_cache(maxsize=16)
def _population_operators(space: CompositeSpace):
    """(names, (k, d, d) stack of number operators), one per subsystem."""
    names, ops = [], []
    counts = {"qubit": 0, "boson": 0}
    for sub, low in zip(space.subsystems, lowering_operators(space)):
        counts[sub.kind] += 1
        label = "qd" if sub.kind == "qubit" else "m"
        names.append(f"pop_{label}{counts[sub.kind]}")
        ops.append(low.matrix.conj().T @ low.matrix)
    ops = np.array(ops)
    ops.flags.writeable = False
    return tuple(names), ops


def _populations(space: CompositeSpace, matrices: np.ndarray) -> dict:
    """Re Tr(n_k rho) for every subsystem, over one state or a stack."""
    names, ops = _population_operators(space)
    values = np.einsum("kij,...ji->k...", ops, matrices).real
    return dict(zip(names, values))


def _trajectory_observables(space: CompositeSpace, matrices: np.ndarray) -> dict:
    """Populations and, for two leading emitters, the negativity of every
    state of a validated stack."""
    result = _populations(space, matrices)
    kinds = tuple(s.kind for s in space.subsystems)
    if len(kinds) >= 2 and kinds[0] == kinds[1] == "qubit":
        reduced = _partial_trace_matrix(matrices, space.dims, (0, 1))
        check_density_matrix(reduced, _SOLVER_POLICY)
        result["negativity"] = negativity(reduced)
    return result


def _step_runs(steps: np.ndarray) -> list[list]:
    """Consecutive step lengths as [length, count] runs; a step joins the
    run before it when the two agree to within ``_SHARED_STEP_TOL``."""
    runs: list[list] = []
    for h in steps.tolist():
        if runs and abs(h - runs[-1][0]) <= _SHARED_STEP_TOL * runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    return runs


def _propagate_dense(generator: sp.csr_matrix, y: np.ndarray, steps: np.ndarray):
    """States after each step by matvecs with one dense expm(L h) per
    distinct step length; returns (states, propagators built)."""
    dense = generator.toarray()
    built: list[tuple[float, np.ndarray]] = []
    out = np.empty((steps.size, y.size), dtype=complex)
    k = 0
    for h, count in _step_runs(steps):
        propagator = next((p for key, p in built
                           if abs(h - key) <= _SHARED_STEP_TOL * key), None)
        if propagator is None:
            propagator = scipy.linalg.expm(dense * h)
            built.append((h, propagator))
        for _ in range(count):
            y = propagator @ y
            out[k] = y
            k += 1
    return out, len(built)


def _propagate_sparse(generator: sp.csr_matrix, y: np.ndarray, steps: np.ndarray):
    """States after each step by ``expm_multiply`` on each run of equal
    steps, never forming exp(L h); returns (states, expm_multiply calls)."""
    runs = _step_runs(steps)
    out = []
    for h, count in runs:
        states = expm_multiply(generator, y, start=0.0, stop=count * h,
                               num=count + 1, endpoint=True)[1:]
        out.append(states)
        y = states[-1]
    return np.concatenate(out), len(runs)


def _propagate_schedule(schedule: Schedule, rho0: DensityMatrix,
                        t_grid: np.ndarray, propagate):
    """Column-stacked states at every time of ``t_grid``, as an (n, D^2)
    array, and the propagator count of ``propagate`` summed over segments."""
    total = schedule.total_duration
    y = rho0.matrix.reshape(-1, order="F").astype(complex)
    sampled = [y[None, :]] if t_grid[0] == 0.0 else []
    propagators = 0
    t_cursor = 0.0
    for seg_index, (duration, params) in enumerate(schedule.segments):
        last = seg_index == len(schedule.segments) - 1
        t_end = total if last else min(t_cursor + duration, total)
        wanted = t_grid[(t_grid > t_cursor) & (t_grid <= t_end)]
        # the state must also reach the boundary unless it is a sample or
        # the horizon
        stops = wanted
        if not last and (wanted.size == 0 or wanted[-1] < t_end):
            stops = np.append(wanted, t_end)
        if stops.size:
            states, built = propagate(build_liouvillian(params).matrix, y,
                                      np.diff(stops, prepend=t_cursor))
            propagators += built
            sampled.append(states[:wanted.size])
            y = states[-1]
        t_cursor = t_end
    return np.concatenate(sampled), propagators


def evolve(schedule: Schedule, rho0: DensityMatrix, t_grid) -> Trajectory:
    """Propagate d(rho)/dt = L rho exactly across the schedule and sample on
    t_grid.

    Each segment's generator is built once.  The state moves between
    consecutive sample times, and to the segment boundaries, by the exact
    exp(L dt), so boundaries are hit exactly and the state is handed over
    unchanged.  Two routes, chosen by the Liouville dimension D^2:

    - D^2 <= 256 (Fock cutoff 1): one dense ``scipy.linalg.expm(L dt)`` per
      distinct step length, applied by matrix-vector products; step lengths
      that agree to within 1e-12 relative share one propagator.
    - larger spaces: the action of the exponential on the state,
      ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
      Comput. 33, 488 (2011)), once per run of equal steps.

    The raw trace drift over the sampled states must stay below 1e-7 or an
    ``IntegrationError`` is raised; the sampled states are re-symmetrized,
    trace-normalized and validated as one stack.  ``Trajectory.info`` records
    the route, the propagator count and the largest drift.
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
    dense = d * d <= _DENSE_PROPAGATOR_MAX_DIM
    vecs, propagators = _propagate_schedule(
        schedule, rho0, t_grid, _propagate_dense if dense else _propagate_sparse)
    # read in C order, each column-stacked sample is rho^T
    transposed = vecs.reshape(-1, d, d)
    drift = float(np.abs(np.trace(transposed, axis1=1, axis2=2) - 1.0).max())
    if not drift <= _TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drift {drift:.3e} exceeds {_TRACE_DRIFT_TOL:.0e}",
            error_estimate=drift,
        )

    matrices = transposed.conj()  # rho^H
    matrices += transposed.transpose(0, 2, 1)
    matrices /= np.trace(matrices, axis1=1, axis2=2).real[:, None, None]
    check_density_matrix(matrices, _SOLVER_POLICY)
    matrices.flags.writeable = False

    info = PropagationInfo(route="dense_expm" if dense else "expm_multiply",
                           propagators=propagators, max_trace_drift=drift)
    return Trajectory(times=t_grid, space=space,
                      matrices=matrices,
                      observables=_trajectory_observables(space, matrices),
                      info=info)


# named steady-state functionals usable by convergence scans and sweeps
OBSERVABLES = {
    "negativity": lambda params, rho: qd_negativity(rho),
    "pop_qd1": lambda params, rho: _population(rho, "pop_qd1"),
    "pop_qd2": lambda params, rho: _population(rho, "pop_qd2"),
    "pop_m1": lambda params, rho: _population(rho, "pop_m1"),
    "pop_m2": lambda params, rho: _population(rho, "pop_m2"),
}


def _population(rho: DensityMatrix, name: str) -> float:
    return float(_populations(rho.space, rho.matrix)[name])


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
