"""Steady states, exact transient propagation and Fock-truncation convergence."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import ztrsyl as _trsyl
from scipy.sparse.linalg import LinearOperator, expm_multiply, gmres

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
from .liouvillian import Superoperator, build_liouvillian
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

# GMRES restart length: the preconditioned bordered system takes 10-17
# steps on the benchmark systems, and up to ~120 on random physical
# parameters whose jump rates dominate their Hamiltonian
_GMRES_RESTART = 128
# target of ||A x - b|| / ||b|| for the bordered system A x = b; the
# forward error is about this over the generator's relative spectral gap
_BORDERED_RESIDUAL_TOL = 1e-14
# relative residual the uniqueness certificate must reach
_CERTIFICATE_RTOL = 1e-6
# |Im w| <= this * max |w| marks an eigenvalue of H_eff as non-decaying
_NON_DECAYING_TOL = 1e-12
# eigenvector-basis condition number above which the no-jump inverse takes
# the Schur route (eps * cond^2 ~ 1e-4)
_EIGENBASIS_COND_MAX = 1e6

_TRACE_DRIFT_TOL = 1e-7

# Liouville dimensions D^2 up to this (Fock cutoff 1) propagate with dense
# exp(L dt) matrices; larger spaces with the action of the exponential
_DENSE_PROPAGATOR_MAX_DIM = 256
# step lengths within this relative distance share one propagator
_SHARED_STEP_TOL = 1e-12


@dataclass(frozen=True)
class SteadyStateInfo:
    """Diagnostics of a steady-state solve.

    ``residual`` is ||L vec(rho)|| of the accepted state; ``refined`` says
    that a warm-started correction pass was needed to bring the relative
    bordered residual below 1e-14; ``iterations`` counts the GMRES steps of
    the solve, both passes included.
    """

    residual: float
    refined: bool
    iterations: int


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


def _no_jump_inverse(h_eff: np.ndarray, shift: float):
    """Exact inverse of the no-jump part X -> -i (H_eff X - X H_eff^dag),
    as a function on column-stacked vectors.

    With H_eff = V diag(w) V^-1 the no-jump part scales the entries of
    V^-1 X V^-H by -i (w_i - conj(w_j)), so one eigendecomposition makes the
    inverse two matrix products on each side and a division.  Applying it
    loses about eps cond(V)^2; near an exceptional point, where V is
    (nearly) singular, the inverse is instead one triangular Sylvester solve
    on the complex Schur form H_eff = Q T Q^dag (Bartels-Stewart), exact
    under unitary similarity.

    An eigenvalue with zero imaginary part belongs to a pure state that H
    keeps and every jump annihilates.  Two or more of them make the steady
    state degenerate.  A single one would leave a zero denominator; the
    inverse is taken with that eigenvalue moved off the real axis by
    ``shift / 2`` instead, which makes the denominator ``shift``.
    """
    d = h_eff.shape[0]
    w, v = np.linalg.eig(h_eff)
    tol = _NON_DECAYING_TOL * np.abs(w).max()
    stationary = np.abs(w.imag) <= tol
    if np.count_nonzero(stationary) >= 2:
        # k equal levels span k^2 stationary operators |v_i><v_j|
        levels = np.sort(w.real[stationary])
        groups = np.split(levels, np.nonzero(np.diff(levels) > tol)[0] + 1)
        kernel_dim = sum(g.size ** 2 for g in groups)
        raise DegenerateSteadyStateError(
            f"the generator kernel is at least {kernel_dim}-dimensional: "
            f"{levels.size} levels of H_eff never decay; "
            "the steady state is not unique",
            kernel_dimension=kernel_dim,
        )
    w[stationary] -= 0.5j * shift

    try:
        v_inv = np.linalg.inv(v)
        # eig returns unit columns, so ||V||_F = sqrt(d)
        well_conditioned = np.sqrt(d) * np.linalg.norm(v_inv) <= _EIGENBASIS_COND_MAX
    except np.linalg.LinAlgError:  # a defective H_eff
        well_conditioned = False
    if well_conditioned:
        v_h, v_inv_h = v.conj().T, v_inv.conj().T
        denominators = -1j * (w[:, None] - w.conj()[None, :])

        def apply(y: np.ndarray) -> np.ndarray:
            y = y.reshape((d, d), order="F")
            return (v @ ((v_inv @ y @ v_inv_h) / denominators) @ v_h).reshape(
                -1, order="F")

        return apply

    t, q = scipy.linalg.schur(h_eff, output="complex")
    level = np.nonzero(np.abs(np.diag(t).imag) <= tol)[0]
    t[level, level] -= 0.5j * shift
    q_h = q.conj().T

    def apply(y: np.ndarray) -> np.ndarray:
        # T X' - X' T^dag = i Q^dag Y Q, X = Q X' Q^dag
        c = q_h @ y.reshape((d, d), order="F") @ q
        x, scale, _ = _trsyl(t, t, c, trana="N", tranb="C", isgn=-1)
        return (q @ x @ q_h).reshape(-1, order="F") * (1j / scale)

    return apply


@lru_cache(maxsize=8)
def _certificate_rhs(n: int) -> np.ndarray:
    """Fixed-seed random right-hand side of the uniqueness certificate."""
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs.flags.writeable = False
    return rhs


def steady_state(liouville: Superoperator, return_info: bool = False):
    """Unique steady state of a trace-preserving generator.

    Solves the trace-bordered system (L + s |e_0>><<I|) x = s e_0, with s
    the largest entry of |L|.  It is nonsingular exactly when the kernel of
    L is one-dimensional, and its solution has unit trace.  GMRES solves
    it, right preconditioned with the exact inverse of the no-jump part of
    L (``_no_jump_inverse``, one eigendecomposition of H_eff), so that only
    the recycling terms and the border are left to iterate on: 10-17 steps
    on the benchmark systems at Fock cutoffs 1-4.  A pass that misses a
    relative bordered residual of 1e-14 is followed by one warm-started
    correction pass.

    A degenerate generator makes the bordered system singular but still
    consistent, so GMRES alone would return a state.  Two checks stop that:
    two or more non-decaying levels of H_eff raise
    ``DegenerateSteadyStateError`` before any iteration, and a second GMRES
    on a fixed-seed random right-hand side must reach a relative residual
    of 1e-6 (on a singular system it stalls near 0.3).  A stalled
    certificate, a non-finite result or a steady-state residual
    ||L vec(rho)|| above ``STEADY_RESIDUAL_TOL`` goes to a dense singular
    value diagnosis, which raises ``DegenerateSteadyStateError`` or
    ``SingularSolveError``.
    """
    d = liouville.dim
    n = d * d
    matrix = liouville.matrix
    # the trace border, and the denominator of a non-decaying level, carry
    # the generator's own scale, so the solve does not depend on its units
    weight = float(np.abs(matrix.data).max()) if matrix.nnz else 1.0
    precondition = _no_jump_inverse(liouville.h_eff, weight)
    trace_entries = slice(None, None, d + 1)

    def bordered(y):
        x = precondition(y)
        out = matrix @ x
        out[0] += weight * x[trace_entries].sum()
        return out

    operator = LinearOperator((n, n), matvec=bordered, dtype=complex)
    b = np.zeros(n, dtype=complex)
    b[0] = weight
    steps = [0]

    def count(_):
        steps[0] += 1

    def solve(rhs, rtol, passes, x0=None):
        return gmres(operator, rhs, x0=x0, rtol=rtol, restart=_GMRES_RESTART,
                     maxiter=passes, callback=count, callback_type="pr_norm")

    y, info = solve(b, _BORDERED_RESIDUAL_TOL, 1)
    refined = info != 0
    if refined:
        y, _ = solve(b, _BORDERED_RESIDUAL_TOL, 1, x0=y)
    iterations = steps[0]
    _, certified = solve(_certificate_rhs(n), _CERTIFICATE_RTOL, 2)
    if certified != 0:
        _diagnose_kernel(liouville)

    x = precondition(y)
    if not np.all(np.isfinite(x)):
        _diagnose_kernel(liouville)

    rho = x.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    residual = float(np.linalg.norm(
        matrix @ rho.reshape(-1, order="F")))
    if residual > STEADY_RESIDUAL_TOL:
        _diagnose_kernel(liouville)

    state = DensityMatrix(liouville.space, rho, policy=_SOLVER_POLICY)
    if return_info:
        return state, SteadyStateInfo(residual=residual, refined=refined,
                                      iterations=iterations)
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
    counts, on the dense route, the dense exp(L dt) matrices built plus the
    single-step ``expm_multiply`` calls for step lengths taken only once,
    and on the ``expm_multiply`` route its calls; ``max_trace_drift`` is the
    largest |Tr(rho) - 1| of the raw sampled states, before renormalization.
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
    distinct step length.  A step length taken only once moves the state by
    ``expm_multiply`` instead, never forming exp(L h); returns (states,
    dense propagators built plus single-step ``expm_multiply`` calls)."""
    runs = _step_runs(steps)
    dense = None
    built: list[tuple[float, np.ndarray]] = []
    out = np.empty((steps.size, y.size), dtype=complex)
    k = singles = 0
    for h, count in runs:
        if count == 1 and sum(c for key, c in runs
                              if abs(h - key) <= _SHARED_STEP_TOL * key) == 1:
            y = expm_multiply(generator * h, y)
            out[k] = y
            k += 1
            singles += 1
            continue
        propagator = next((p for key, p in built
                           if abs(h - key) <= _SHARED_STEP_TOL * key), None)
        if propagator is None:
            if dense is None:
                dense = generator.toarray()
            propagator = scipy.linalg.expm(dense * h)
            built.append((h, propagator))
        for _ in range(count):
            y = propagator @ y
            out[k] = y
            k += 1
    return out, len(built) + singles


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
      that agree to within 1e-12 relative share one propagator, and a step
      length taken only once (the partial steps at a segment switch) moves
      the state by ``expm_multiply`` instead.
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
