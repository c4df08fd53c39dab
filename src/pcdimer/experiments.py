"""Steady-state sweeps and transient protocols over the dimer model.

Each sweep kind is declared once, in ``SWEEPS``: its axes, slowest first,
and how many emitters must start resonant with the lower normal mode.  Each
axis, in ``_AXES``, holds its CSV columns, how a point's value sets the
parameters, and its default grid (``default_grid``), a range that resolves
the dark-state resonance, the polariton branches or the collapse scales of
the model.  The command line reads the same table.  Runs under the
dark-state drive (the splitting axis, ``dynamics_run`` and
``stark_switch_protocol``) all set it by one rule, ``_dark_drive``: the
antisymmetric phase at the dark-state frequency.  Every grid point is an
independent steady state; the points are cut, in C order, into fixed-size
batches that are each solved in one lockstep call (``solvers.steady_states``),
sequentially or by a worker pool that maps batches with order-preserving
assembly.  The batches do not depend on the worker count, so parallel and
sequential runs produce identical grids.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, SolverError
from .hilbert import DensityMatrix
# build_liouvillian and steady_state are looked up here by bench/tracing.py
from .liouvillian import build_liouvillian, build_liouvillians  # noqa: F401
from .model import SystemParams, identify_dark_state
from .solvers import (
    Schedule,
    SteadyStateInfo,
    Trajectory,
    batch_points,
    evolve,
    observables,
    steady_state,  # noqa: F401
    steady_states,
)

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "sweep_phase_detuning",
    "sweep_detuning",
    "sweep_dephasing",
    "sweep_splitting",
    "dynamics_run",
    "stark_switch_protocol",
    "oscillation_period",
    "SWEEPS",
    "default_grid",
    "INITIAL_STATES",
]

# ---------------------------------------------------------------------------
# generic sweep engine
# ---------------------------------------------------------------------------

def _dark_drive(params: SystemParams) -> SystemParams:
    """Drive both emitters at the dark-state frequency with the optimal
    (antisymmetric) phase difference."""
    dark = identify_dark_state(params)
    return (params
            .with_drive(phase1=np.pi, phase2=0.0)
            .with_drive_detuning(dark.detuning))


# each sweep axis: its CSV columns, its setter (params, value) -> params and
# its default grid for a base system (the mode linewidth pairs have none)
_AXES = {
    "phi": (("phi_rad",),
            lambda params, value: params.with_drive(phase1=value, phase2=0.0),
            lambda base: np.linspace(0.0, 2.0 * np.pi, 61)),
    "delta": (("delta_ueV",), SystemParams.with_drive_detuning,
              lambda base: np.linspace(
                  -(span := 3.0 * np.abs(base.coupling.as_array()[0]).max()),
                  span, 121)),
    "detuning": (("qd2_detuning_ueV",), SystemParams.with_qd2_detuning,
                 lambda base: np.linspace(-50.0, 50.0, 101)),
    "gamma_d": (("gamma_d_ueV",), SystemParams.with_dephasing,
                lambda base: np.linspace(0.0, 5.0, 51)),
    # moves the upper mode and drives the shifted dark state with the
    # antisymmetric phase, the rule of every dark-drive run (a fixed drive
    # would just fall off resonance instead of probing the protection)
    "splitting": (("splitting_ueV",),
                  lambda params, value: _dark_drive(params.with_splitting(value)),
                  lambda base: np.linspace(
                      0.0, 3.0 * base.splitting if base.splitting > 0 else 6600.0, 41)),
    "mode_linewidths": (("gamma_m1_ueV", "gamma_m2_ueV"),
                        lambda params, value: params.with_mode_linewidths(*value),
                        None),
}

# each sweep kind: its axes, slowest first, and how many emitters (QD1
# first) must start resonant with the lower normal mode
SWEEPS = {
    "phase_detuning": (("phi", "delta"), 2),
    "qd_detuning": (("detuning",), 1),
    "dephasing": (("gamma_d",), 0),
    "splitting": (("splitting",), 2),
}


def default_grid(axis: str, base: SystemParams) -> np.ndarray:
    """The default grid of a sweep axis for a base system: ranges that
    resolve the dark-state resonance, the polariton branches and the
    collapse scales of the model."""
    return _AXES[axis][2](base)


@dataclass(frozen=True)
class SweepAxis:
    """One named sweep parameter with its value grid."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in _AXES:
            raise DomainError(
                f"unknown sweep axis {self.name!r}; known: {sorted(_AXES)}"
            )
        values = tuple(
            tuple(float(x) for x in v) if np.iterable(v) else float(v)
            for v in self.values
        )
        if not values:
            raise DomainError(f"axis {self.name!r} has an empty grid")
        flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
        if not np.all(np.isfinite(flat)):
            raise DomainError(f"axis {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus one or two axes."""

    base: SystemParams
    axes: tuple[SweepAxis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 2:
            raise DomainError("a sweep takes one or two axes")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    def point_params(self, indices) -> SystemParams:
        params = self.base
        for axis, k in zip(self.axes, indices):
            params = _AXES[axis.name][1](params, axis.values[k])
        return params


@dataclass(frozen=True)
class SweepResult:
    """Negativity grid with per-point solver diagnostics: the steady-state
    residual and the GMRES step counts of the solve and of its uniqueness
    certificate at every point (NaN, 0 and 0 where the solve failed), and
    the number of points solved per batch."""

    axes: tuple[SweepAxis, ...]
    values: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    iterations: np.ndarray = field(repr=False)
    certificate_iterations: np.ndarray = field(repr=False)
    batch_points: int
    failures: tuple[str, ...] = ()

    def to_records(self):
        """(column names, row iterator) for CSV serialization, C-order."""
        columns = []
        for ax in self.axes:
            columns.extend(_AXES[ax.name][0])
        columns += ["negativity", "residual", "converged"]
        rows = []
        for indices in itertools.product(*(range(len(ax)) for ax in self.axes)):
            row = []
            for ax, k in zip(self.axes, indices):
                v = ax.values[k]
                row.extend(v if isinstance(v, tuple) else (v,))
            row.append(float(self.values[indices]))
            row.append(float(self.residuals[indices]))
            row.append(int(self.converged[indices]))
            rows.append(tuple(row))
        return tuple(columns), tuple(rows)


# the diagnostics that a sweep records for a point whose solve failed
_FAILED = SteadyStateInfo(residual=np.nan, refined=False, iterations=0,
                          certificate_iterations=0)


def _evaluate_batch(points):
    """Solve one batch of sweep points together and take the negativities
    of its steady states, as their stacked coordinates, in one call.
    Returns per point, as arrays: the negativity, the residual, the GMRES
    steps of the solve and of its certificate, whether it converged and its
    failure message ("" where it converged).  A point's solver failure is
    reported there, never raised."""
    solved = steady_states(build_liouvillians(points))
    converged = np.array([not isinstance(outcome, SolverError) for outcome in solved])
    values = np.full(len(points), np.nan)
    if converged.any():
        states = np.array([state for state, _ in itertools.compress(solved, converged)])
        values[converged] = observables(points[0].space(), states)["negativity"]
    infos = [outcome[1] if ok else _FAILED for outcome, ok in zip(solved, converged)]
    return (values,
            np.array([info.residual for info in infos]),
            np.array([info.iterations for info in infos]),
            np.array([info.certificate_iterations for info in infos]),
            converged,
            np.array(["" if ok else str(outcome)
                      for outcome, ok in zip(solved, converged)], dtype=object))


def run_sweep(spec: SweepSpec, n_workers: int = 1) -> SweepResult:
    """Evaluate the sweep grid in fixed C-order batches.

    The grid points are cut in C order into batches of
    ``solvers.batch_points(D^2)`` points, a size set by the Liouville
    dimension alone; each batch builds its generators and solves them in one
    ``steady_states`` call.  A process pool of the smallest of
    ``n_workers``, the batch count and the usable CPUs (this process's CPU
    affinity, else ``os.cpu_count()``) maps the batches when that is above
    one; otherwise they run in this process, where a pool would add only
    its start-up cost.  Per-point solver failures are recorded
    (NaN value, converged=False) and the sweep continues.  Results are
    bit-identical for any worker count.
    """
    shape = spec.shape
    index_list = list(itertools.product(*(range(n) for n in shape)))
    size = batch_points(spec.base.space().total_dim ** 2)
    tasks = [[spec.point_params(idx) for idx in index_list[k:k + size]]
             for k in range(0, len(index_list), size)]

    # a pool forks all its workers at the first submit
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(n_workers, len(tasks), cpus)
    if workers > 1:
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_evaluate_batch, tasks, chunksize=chunk))
    else:
        batches = [_evaluate_batch(t) for t in tasks]
    values, residuals, iterations, certificate_iterations, converged, messages = (
        np.concatenate(column).reshape(shape) for column in zip(*batches))
    return SweepResult(
        axes=spec.axes,
        values=values,
        residuals=residuals,
        converged=converged,
        iterations=iterations,
        certificate_iterations=certificate_iterations,
        batch_points=size,
        failures=tuple(f"point {idx}: {messages[idx]}"
                       for idx in index_list if not converged[idx]),
    )


# ---------------------------------------------------------------------------
# the standard steady-state studies
# ---------------------------------------------------------------------------

def _sweep(kind: str, base: SystemParams, grids, n_workers: int,
           linewidth_sets=None) -> SweepResult:
    """The ``kind`` sweep of ``SWEEPS`` over ``grids``, one per axis (None
    for the axis's default grid), then over the mode linewidth pairs if
    given."""
    names, resonant = SWEEPS[kind]
    if any(dot.omega != base.modes[0].omega for dot in base.dots[:resonant]):
        raise DomainError("emitters must start resonant with the lower normal mode")
    axes = [SweepAxis(name, tuple(default_grid(name, base) if grid is None
                                  else np.asarray(grid, float)))
            for name, grid in zip(names, grids)]
    if linewidth_sets is not None:
        axes.append(SweepAxis("mode_linewidths",
                              tuple(tuple(pair) for pair in linewidth_sets)))
    return run_sweep(SweepSpec(base, tuple(axes)), n_workers)


def sweep_phase_detuning(base: SystemParams, phi_grid=None, delta_grid=None,
                         n_workers: int = 1) -> SweepResult:
    """Steady-state negativity over drive phase difference and drive detuning."""
    return _sweep("phase_detuning", base, (phi_grid, delta_grid), n_workers)


def sweep_detuning(base: SystemParams, detuning_grid=None,
                   n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the emitter-emitter detuning."""
    return _sweep("qd_detuning", base, (detuning_grid,), n_workers)


def sweep_dephasing(base: SystemParams, gamma_d_grid=None,
                    n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the (joint) pure-dephasing rate."""
    return _sweep("dephasing", base, (gamma_d_grid,), n_workers)


def sweep_splitting(base: SystemParams, splitting_grid, linewidth_sets=None,
                    n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the normal-mode splitting, each point
    under the dark-state drive of ``dynamics_run``.

    Stands in for the interdot-distance dependence: the splitting (and
    optionally the mode linewidth pair) is the physically controlling variable.
    """
    return _sweep("splitting", base, (splitting_grid,), n_workers, linewidth_sets)


# ---------------------------------------------------------------------------
# transient dynamics
# ---------------------------------------------------------------------------

INITIAL_STATES = {
    "qd1_excited": (1, 0, 0, 0),
    "photon_mode1": (0, 0, 1, 0),
    "vacuum": (0, 0, 0, 0),
}


def _sample_times(horizon: float, samples: int) -> np.ndarray:
    """The ``samples`` equally spaced times from 0 to ``horizon``; a
    ``DomainError`` unless the horizon is positive and finite and
    ``samples`` an integer >= 2 (a bool is not one)."""
    if not 0 < horizon < np.inf:
        raise DomainError("horizon must be positive and finite")
    if (isinstance(samples, bool) or not isinstance(samples, (int, np.integer))
            or samples < 2):
        raise DomainError(f"samples must be an integer >= 2, got {samples!r}")
    return np.linspace(0.0, horizon, samples)


def dynamics_run(base: SystemParams, initial: str, horizon: float,
                 samples: int = 801) -> Trajectory:
    """Free dynamics under constant dark-state drive from a chosen initial
    state ('qd1_excited', 'photon_mode1' or 'vacuum')."""
    try:
        occupations = INITIAL_STATES[initial]
    except KeyError:
        raise DomainError(
            f"unknown initial state {initial!r}; choose from {sorted(INITIAL_STATES)}"
        ) from None
    t_grid = _sample_times(horizon, samples)
    params = _dark_drive(base)
    rho0 = DensityMatrix.basis_state(params.space(), occupations)
    return evolve(Schedule.constant(params, horizon), rho0, t_grid)


def stark_switch_protocol(base: SystemParams, tau: float,
                          initial_detuning: float, horizon: float,
                          samples: int = 801) -> Trajectory:
    """Two-segment protocol: emitter 2 starts detuned while the initial
    exciton in emitter 1 swaps into the resonant mode, then is switched into
    resonance at t = tau (instantaneous frequency switch).

    The drive stays at the dark-state frequency of the resonant configuration
    with the antisymmetric phase for all times.
    """
    if not 0 < tau < horizon:
        raise DomainError("tau must lie strictly inside (0, horizon)")
    t_grid = _sample_times(horizon, samples)
    resonant = _dark_drive(base)
    detuned = resonant.with_qd2_detuning(initial_detuning)
    rho0 = DensityMatrix.basis_state(resonant.space(), INITIAL_STATES["qd1_excited"])
    schedule = Schedule(((tau, detuned), (horizon - tau, resonant)))
    return evolve(schedule, rho0, t_grid)


# a maximum counts towards ``oscillation_period`` when its prominence is at
# least this fraction of the series' span
_PEAK_PROMINENCE_FRACTION = 0.1


def oscillation_period(times, values) -> float:
    """Period estimate from successive maxima of an oscillating series."""
    from scipy.signal import find_peaks

    values = np.asarray(values, float)
    span = float(values.max() - values.min())
    if span <= 0:
        raise DomainError("series does not oscillate")
    peaks, _ = find_peaks(values, prominence=_PEAK_PROMINENCE_FRACTION * span)
    if len(peaks) < 2:
        raise DomainError(
            f"found {len(peaks)} peaks; need at least 2 to measure a period"
        )
    return float(np.mean(np.diff(np.asarray(times, float)[peaks])))
