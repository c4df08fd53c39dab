"""Independent references for every CSV the benchmark makes the CLI write.

The reference generator never touches ``pcdimer.liouvillian``: it takes the
rotating-frame Hamiltonian from ``pcdimer.model`` and adds an explicit jump
list through ``scipy.sparse.kron``.  Steady states come from the dense null
vector (SVD) up to D^2 = 1296 and from shift-invert Arnoldi above that;
trajectories come from exact ``scipy.linalg.expm`` propagation.  Partial
trace, partial transpose and populations are recomputed here as well.

References are computed once per config and cached; a mismatch beyond the
tolerances below counts as a failed op.
"""

from __future__ import annotations

import io
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

from pcdimer.model import build_effective_hamiltonian, identify_dark_state

HBAR_UEV_PS = 658.2119569
DENSE_MAX_D2 = 1296
# shift for the Arnoldi null-vector search, far below the smallest nonzero
# decay rate of any benchmark generator (~1e-4 / ps)
ARNOLDI_SHIFT = -1e-8

# Steady states agree with the reference to ~1e-15 (the CLI's residual bound
# is 1e-9); RK45 trajectories (rtol 1e-8, atol 1e-10) agree with exact
# propagation to ~2e-8 over 4000 ps.
STEADY_TOL = 1e-8
TRAJECTORY_TOL = 1e-6

_INITIAL_OCCUPATIONS = {
    "qd1_excited": (1, 0, 0, 0),
    "photon_mode1": (0, 0, 1, 0),
    "vacuum": (0, 0, 0, 0),
}


def _lowering_operators(n_max: int):
    """(sigma_1, sigma_2, a_1, a_2) on (QD1, QD2, mode1, mode2)."""
    dims = (2, 2, n_max + 1, n_max + 1)
    local = (sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex)),) * 2
    local += (sp.diags(np.sqrt(np.arange(1, n_max + 1, dtype=complex)), 1),) * 2
    ops = []
    for position, low in enumerate(local):
        out = sp.identity(1, dtype=complex, format="csr")
        for k, dim in enumerate(dims):
            factor = low if k == position else sp.identity(dim, dtype=complex)
            out = sp.kron(out, factor, format="csr")
        ops.append(out)
    return ops


@lru_cache(maxsize=8)
def _dissipative_part(modes, dots, truncation: int) -> sp.csr_matrix:
    """Sum of the Lindblad dissipators (ueV) of the explicit jump list."""
    sm1, sm2, a1, a2 = _lowering_operators(truncation)
    (m1, m2), (q1, q2) = modes, dots
    jumps = [(a1, m1.gamma), (a2, m2.gamma),
             (a1.conj().T, m1.pump), (a2.conj().T, m2.pump),
             (sm1, q1.gamma), (sm2, q2.gamma),
             # gamma_d is the coherence-decay rate: projector jump at 2x
             (sm1.conj().T @ sm1, 2.0 * q1.gamma_d),
             (sm2.conj().T @ sm2, 2.0 * q2.gamma_d)]
    eye = sp.identity(sm1.shape[0], dtype=complex, format="csr")
    total = sp.csr_matrix((eye.shape[0] ** 2,) * 2, dtype=complex)
    for c, rate in jumps:
        if rate == 0:
            continue
        cdc = c.conj().T @ c
        total = total + rate * (sp.kron(c.conj(), c) - 0.5 * sp.kron(eye, cdc)
                                - 0.5 * sp.kron(cdc.T, eye))
    return total


def reference_generator(params) -> sp.csc_matrix:
    """Lindblad generator in 1/ps from H plus an explicit jump list."""
    h = sp.csr_matrix(build_effective_hamiltonian(params).matrix)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    total = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    total = total + _dissipative_part(params.modes, params.dots, params.truncation)
    return sp.csc_matrix(total) / HBAR_UEV_PS


def _as_state(vec: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(vec.size)))
    rho = vec.reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def steady_reference(params) -> np.ndarray:
    """Null vector of the reference generator as a density matrix."""
    gen = reference_generator(params)
    if gen.shape[0] <= DENSE_MAX_D2:
        _, sv, vh = np.linalg.svd(gen.toarray())
        if sv[-2] <= 1e-10 * sv[0]:
            raise ValueError("reference generator kernel is not one-dimensional")
        return _as_state(vh[-1].conj())
    _, vecs = eigs(gen, k=1, sigma=ARNOLDI_SHIFT)
    return _as_state(vecs[:, 0])


def observables(rho: np.ndarray, n_max: int) -> dict:
    """Negativity of the emitter pair and the four populations."""
    m = (n_max + 1) ** 2
    pair = np.einsum("aibi->ab", rho.reshape(4, m, 4, m))
    pt = pair.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    eig = np.linalg.eigvalsh(pt)
    diag = rho.diagonal().real.reshape(2, 2, n_max + 1, n_max + 1)
    n = np.arange(n_max + 1)
    return {"negativity": float(-eig[eig < 0].sum()),
            "pop_qd1": float(diag[1].sum()),
            "pop_qd2": float(diag[:, 1].sum()),
            "pop_m1": float(np.einsum("abij,i->", diag, n)),
            "pop_m2": float(np.einsum("abij,j->", diag, n))}


def _dark_drive(params):
    dark = identify_dark_state(params)
    return params.with_drive(phase1=np.pi, phase2=0.0).with_drive_detuning(dark.detuning)


def trajectory_reference(segments, initial: str, horizon: float,
                         samples: int, n_max: int) -> dict:
    """Observables on the sample grid by exact piecewise propagation.

    ``segments`` is a list of (duration, params); a sample interval that
    contains a switch is split there, and each piece applies expm(L * piece).
    """
    dim = 4 * (n_max + 1) ** 2
    index = 0
    for occ, d in zip(_INITIAL_OCCUPATIONS[initial], (2, 2, n_max + 1, n_max + 1)):
        index = index * d + occ
    vec = np.zeros(dim * dim, dtype=complex)
    vec[index * dim + index] = 1.0

    gens = [reference_generator(p).toarray() for _, p in segments]
    switches = np.cumsum([duration for duration, _ in segments])[:-1]
    propagators = {}

    def step(seg, dt):
        if (seg, dt) not in propagators:
            propagators[seg, dt] = scipy.linalg.expm(gens[seg] * dt)
        return propagators[seg, dt]

    times = np.linspace(0.0, horizon, samples)
    dt = horizon / (samples - 1)
    series = {name: [] for name in ("negativity", "pop_qd1", "pop_qd2",
                                    "pop_m1", "pop_m2")}
    for k, t in enumerate(times):
        if k:
            t0 = times[k - 1]
            seg = int(np.searchsorted(switches, t0, side="right"))
            inside = switches[(switches > t0) & (switches < t)]
            # whole intervals share one cached propagator per segment
            cursor = t0
            for switch in inside:
                vec = step(seg, switch - cursor) @ vec
                cursor, seg = switch, seg + 1
            vec = step(seg, dt if cursor == t0 else t - cursor) @ vec
        for name, value in observables(_as_state(vec), n_max).items():
            series[name].append(value)
    return {"t_ps": times, **{k: np.array(v) for k, v in series.items()}}


def read_csv(data: bytes) -> dict:
    """Columns of a CLI CSV by name (the first line is the manifest tag)."""
    lines = data.decode("utf-8").splitlines()
    header = lines[1].split(",")
    table = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",", ndmin=2)
    return {name: table[:, k] for k, name in enumerate(header)}


class Oracle:
    """Checks CLI outputs of one workload; references are cached per config."""

    def __init__(self):
        self._refs: dict = {}

    def _reference(self, key, run_config):
        if key not in self._refs:
            self._refs[key] = _REFERENCES[run_config.command](run_config)
        return self._refs[key]

    def check(self, key, run_config, csv_bytes: bytes) -> list[str]:
        """One message per failed op in this output; empty when all match.

        ``key`` names the config; its reference is computed on first use.
        """
        columns = read_csv(csv_bytes)
        return _CHECKS[run_config.command](self._reference(key, run_config),
                                           columns)


def _sweep_reference(cfg):
    phi = np.linspace(*cfg.sweep_grids["phi"])
    delta = np.linspace(*cfg.sweep_grids["delta"])
    values = np.empty((phi.size, delta.size))
    for i, p in enumerate(phi):
        for j, d in enumerate(delta):
            point = (cfg.params.with_drive(phase1=float(p), phase2=0.0)
                     .with_drive_detuning(float(d)))
            values[i, j] = observables(steady_reference(point), 1)["negativity"]
    return {"phi": phi, "delta": delta, "negativity": values.ravel()}


def _check_sweep(ref, cols):
    failures = []
    n = ref["negativity"].size
    if cols["negativity"].size != n:
        return [f"expected {n} sweep rows, got {cols['negativity'].size}"] * n
    phi = np.repeat(ref["phi"], ref["delta"].size)
    delta = np.tile(ref["delta"], ref["phi"].size)
    for k in range(n):
        got = cols["negativity"][k]
        if cols["converged"][k] != 1:
            failures.append(f"point {k}: not converged")
        elif (abs(cols["phi_rad"][k] - phi[k]) > 1e-12
              or abs(cols["delta_ueV"][k] - delta[k]) > 1e-9):
            failures.append(f"point {k}: grid coordinates moved")
        elif not abs(got - ref["negativity"][k]) <= STEADY_TOL:
            failures.append(f"point {k}: negativity {float(got)!r} vs "
                            f"reference {float(ref['negativity'][k])!r}")
    return failures


def _convergence_reference(cfg):
    values = []
    for cutoff in cfg.cutoffs:
        rho = steady_reference(cfg.params.with_truncation(cutoff))
        values.append(observables(rho, cutoff)["negativity"])
    return {"cutoff": np.array(cfg.cutoffs, float), "negativity": np.array(values)}


def _check_convergence(ref, cols):
    if cols["cutoff"].shape != ref["cutoff"].shape or np.any(cols["cutoff"] != ref["cutoff"]):
        return ["cutoff column does not match the requested cutoffs"]
    diff = np.abs(cols["negativity"] - ref["negativity"])
    if not np.all(diff <= STEADY_TOL):
        return [f"negativity per cutoff {cols['negativity'].tolist()} vs "
                f"reference {ref['negativity'].tolist()}"]
    return []


def _dynamics_reference(cfg):
    resonant = _dark_drive(cfg.params)
    return trajectory_reference([(cfg.horizon_ps, resonant)], cfg.initial,
                                cfg.horizon_ps, cfg.samples, cfg.params.truncation)


def _protocol_reference(cfg):
    resonant = _dark_drive(cfg.params)
    detuned = resonant.with_qd2_detuning(cfg.initial_detuning_uev)
    segments = [(cfg.tau_ps, detuned), (cfg.horizon_ps - cfg.tau_ps, resonant)]
    return trajectory_reference(segments, "qd1_excited", cfg.horizon_ps,
                                cfg.samples, cfg.params.truncation)


def _check_trajectory(ref, cols):
    if cols["t_ps"].shape != ref["t_ps"].shape:
        return [f"expected {ref['t_ps'].size} samples, got {cols['t_ps'].size}"]
    worst = {name: float(np.max(np.abs(cols[name] - ref[name])))
             for name in ref}
    bad = {k: v for k, v in worst.items()
           if not v <= (1e-9 * ref["t_ps"][-1] if k == "t_ps" else TRAJECTORY_TOL)}
    return [f"trajectory deviates from expm propagation: {bad}"] if bad else []


_REFERENCES = {"sweep": _sweep_reference, "convergence": _convergence_reference,
               "dynamics": _dynamics_reference, "protocol": _protocol_reference}
_CHECKS = {"sweep": _check_sweep, "convergence": _check_convergence,
           "dynamics": _check_trajectory, "protocol": _check_trajectory}
