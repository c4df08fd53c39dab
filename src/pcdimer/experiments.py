"""Steady-state sweeps and transient protocols over the dimer model.

Sweep grids default to ranges that resolve the dark-state resonance, the
polariton branches and the collapse scales of the model.  Every grid point is
an independent steady state; the points are cut, in C order, into fixed-size
batches that are each solved in one lockstep call (``solvers.steady_states``),
sequentially or by a worker pool that maps batches with order-preserving
assembly.  The batches do not depend on the worker count, so parallel and
sequential runs produce identical grids.
"""

from __future__ import annotations

import itertools
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
    "default_phi_grid",
    "default_delta_grid",
    "default_qd_detuning_grid",
    "default_gamma_d_grid",
    "INITIAL_STATES",
]

def default_phi_grid() -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, 61)


def default_delta_grid(coupling: float = 110.0) -> np.ndarray:
    g = abs(coupling)
    return np.linspace(-3.0 * g, 3.0 * g, 121)


def default_qd_detuning_grid() -> np.ndarray:
    return np.linspace(-50.0, 50.0, 101)


def default_gamma_d_grid() -> np.ndarray:
    return np.linspace(0.0, 5.0, 51)


# ---------------------------------------------------------------------------
# generic sweep engine
# ---------------------------------------------------------------------------

# each sweep axis: its CSV columns and its setter (params, value) -> params
_AXES = {
    "phi": (("phi_rad",),
            lambda params, value: params.with_drive(phase1=value, phase2=0.0)),
    "delta": (("delta_ueV",), SystemParams.with_drive_detuning),
    "qd2_detuning": (("qd2_detuning_ueV",), SystemParams.with_qd2_detuning),
    "gamma_d": (("gamma_d_ueV",), SystemParams.with_dephasing),
    # moves the upper mode and re-tunes the drive onto the shifted dark state
    # (the dark resonance tracks the splitting; a fixed drive frequency would
    # just fall off resonance instead of probing the protection)
    "splitting": (("splitting_ueV",),
                  lambda params, value: (moved := params.with_splitting(value))
                  .with_drive_detuning(identify_dark_state(moved).detuning)),
    "mode_linewidths": (("gamma_m1_ueV", "gamma_m2_ueV"),
                        lambda params, value: params.with_mode_linewidths(*value)),
}


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


def _evaluate_batch(points):
    """Solve one batch of sweep points together and take the negativities
    of its steady states, as their stacked coordinates, in one call; never
    raises for a point's solver failure (failures are reported inline, per
    point)."""
    solved = steady_states(build_liouvillians(points))
    ok = [k for k, outcome in enumerate(solved)
          if not isinstance(outcome, SolverError)]
    values = np.full(len(points), np.nan)
    if ok:
        states = np.array([solved[k][0] for k in ok])
        values[ok] = observables(points[0].space(), states)["negativity"]
    outcomes = []
    for value, outcome in zip(values.tolist(), solved):
        if isinstance(outcome, SolverError):
            outcomes.append((value, float("nan"), 0, 0, False, str(outcome)))
        else:
            info = outcome[1]
            outcomes.append((value, info.residual, info.iterations,
                             info.certificate_iterations, True, ""))
    return outcomes


def run_sweep(spec: SweepSpec, n_workers: int = 1) -> SweepResult:
    """Evaluate the sweep grid in fixed C-order batches.

    The grid points are cut in C order into batches of
    ``solvers.batch_points(D^2)`` points, a size set by the Liouville
    dimension alone; each batch builds its generators and solves them in one
    ``steady_states`` call.  With ``n_workers > 1`` a process pool maps the
    batches; a sweep of one batch runs in this process, since a pool would
    add only its start-up cost.  Per-point solver failures are recorded
    (NaN value, converged=False) and the sweep continues.  Results are
    bit-identical for any worker count.
    """
    shape = spec.shape
    index_list = list(itertools.product(*(range(n) for n in shape)))
    size = batch_points(spec.base.space().total_dim ** 2)
    tasks = [[spec.point_params(idx) for idx in index_list[k:k + size]]
             for k in range(0, len(index_list), size)]

    if n_workers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (8 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            batches = list(pool.map(_evaluate_batch, tasks, chunksize=chunk))
    else:
        batches = [_evaluate_batch(t) for t in tasks]
    outcomes = itertools.chain.from_iterable(batches)

    values = np.empty(shape)
    residuals = np.empty(shape)
    converged = np.empty(shape, dtype=bool)
    iterations = np.empty(shape, dtype=int)
    certificate_iterations = np.empty(shape, dtype=int)
    failures = []
    for idx, (value, residual, steps, certificate_steps, ok, message) in zip(
            index_list, outcomes):
        values[idx] = value
        residuals[idx] = residual
        iterations[idx] = steps
        certificate_iterations[idx] = certificate_steps
        converged[idx] = ok
        if not ok:
            failures.append(f"point {idx}: {message}")
    return SweepResult(
        axes=spec.axes,
        values=values,
        residuals=residuals,
        converged=converged,
        iterations=iterations,
        certificate_iterations=certificate_iterations,
        batch_points=size,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# the standard steady-state studies
# ---------------------------------------------------------------------------

def _require_resonant(params: SystemParams, both: bool = True):
    omega_ref = params.modes[0].omega
    targets = params.dots if both else params.dots[:1]
    if any(d.omega != omega_ref for d in targets):
        raise DomainError(
            "emitters must start resonant with the lower normal mode"
        )


def sweep_phase_detuning(base: SystemParams, phi_grid=None, delta_grid=None,
                         n_workers: int = 1) -> SweepResult:
    """Steady-state negativity over drive phase difference and drive detuning."""
    _require_resonant(base)
    phi = default_phi_grid() if phi_grid is None else np.asarray(phi_grid, float)
    g = abs(base.coupling.as_array()[0, 0])
    delta = default_delta_grid(g) if delta_grid is None else np.asarray(delta_grid, float)
    spec = SweepSpec(base, (SweepAxis("phi", tuple(phi)),
                            SweepAxis("delta", tuple(delta))))
    return run_sweep(spec, n_workers)


def sweep_detuning(base: SystemParams, detuning_grid=None,
                   n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the emitter-emitter detuning."""
    _require_resonant(base, both=False)
    grid = (default_qd_detuning_grid() if detuning_grid is None
            else np.asarray(detuning_grid, float))
    spec = SweepSpec(base, (SweepAxis("qd2_detuning", tuple(grid)),))
    return run_sweep(spec, n_workers)


def sweep_dephasing(base: SystemParams, gamma_d_grid=None,
                    n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the (joint) pure-dephasing rate."""
    grid = (default_gamma_d_grid() if gamma_d_grid is None
            else np.asarray(gamma_d_grid, float))
    spec = SweepSpec(base, (SweepAxis("gamma_d", tuple(grid)),))
    return run_sweep(spec, n_workers)


def sweep_splitting(base: SystemParams, splitting_grid, linewidth_sets=None,
                    n_workers: int = 1) -> SweepResult:
    """Steady-state negativity versus the normal-mode splitting.

    Stands in for the interdot-distance dependence: the splitting (and
    optionally the mode linewidth pair) is the physically controlling variable.
    """
    _require_resonant(base)
    axes = [SweepAxis("splitting", tuple(np.asarray(splitting_grid, float)))]
    if linewidth_sets is not None:
        axes.append(SweepAxis("mode_linewidths",
                              tuple(tuple(pair) for pair in linewidth_sets)))
    spec = SweepSpec(base, tuple(axes))
    return run_sweep(spec, n_workers)


# ---------------------------------------------------------------------------
# transient dynamics
# ---------------------------------------------------------------------------

INITIAL_STATES = {
    "qd1_excited": (1, 0, 0, 0),
    "photon_mode1": (0, 0, 1, 0),
    "vacuum": (0, 0, 0, 0),
}


def _dark_drive(params: SystemParams) -> SystemParams:
    """Drive both emitters at the dark-state frequency with the optimal
    (antisymmetric) phase difference."""
    dark = identify_dark_state(params)
    return (params
            .with_drive(phase1=np.pi, phase2=0.0)
            .with_drive_detuning(dark.detuning))


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
