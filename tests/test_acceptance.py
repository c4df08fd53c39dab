"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see the lines for passing tests).

Two checks are known to fail for documented physical reasons and are left
red on purpose rather than loosened; see the notes inside criterion 3 and
criterion 8.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from pcdimer.cli import parse_config, run
from pcdimer.entanglement import bell_state, negativity, partial_transpose_first
from pcdimer.experiments import (
    dynamics_run,
    oscillation_period,
    stark_switch_protocol,
    sweep_detuning,
    sweep_phase_detuning,
)
from pcdimer.hilbert import CompositeSpace, DensityMatrix, Operator, qubit, qubit_lowering
from pcdimer.liouvillian import assemble_generator, build_liouvillian
from pcdimer.model import HBAR_UEV_PS, identify_dark_state, preset_params
from pcdimer.solvers import Schedule, convergence_scan, evolve, steady_state

N_WORKERS = 2

PHI_STEP = 2 * np.pi / 60
DELTA_STEP = 5.5


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {number}: {status} — {detail}"
    print(line)
    return line


def dark_tuned(params):
    dark = identify_dark_state(params)
    return (params.with_drive(phase1=np.pi, phase2=0.0)
            .with_drive_detuning(dark.detuning))


@pytest.fixture(scope="module")
def preset():
    return preset_params("dimer30_dc901")


def test_criterion_1_bell_state_negativity():
    """All four Bell states reach negativity 0.5 with transposed spectrum
    {0.5, 0.5, 0.5, -0.5}, both to 1e-10."""
    worst_value = 0.0
    worst_spectrum = 0.0
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        rho = bell_state(kind)
        worst_value = max(worst_value, abs(negativity(rho) - 0.5))
        spectrum = np.sort(np.linalg.eigvalsh(partial_transpose_first(rho)))
        worst_spectrum = max(worst_spectrum, np.max(np.abs(
            spectrum - np.array([-0.5, 0.5, 0.5, 0.5]))))
    passed = worst_value < 1e-10 and worst_spectrum < 1e-10
    line = report(1, passed, f"max negativity error {worst_value:.2e}, "
                             f"max spectrum error {worst_spectrum:.2e}")
    assert passed, line


def test_criterion_2_phase_detuning_map(preset):
    """The full phase/detuning map peaks at the antisymmetric drive phase on
    the dark state with value 0.103 +- 0.02."""
    result = sweep_phase_detuning(preset, n_workers=N_WORKERS)
    assert result.converged.all()
    k = np.unravel_index(np.nanargmax(result.values), result.values.shape)
    phi_max = result.axes[0].values[k[0]]
    delta_max = result.axes[1].values[k[1]]
    value = result.values[k]
    dark = identify_dark_state(preset)
    phi_ok = abs(phi_max - np.pi) <= PHI_STEP * (1 + 1e-9)
    delta_ok = abs(delta_max - dark.detuning) <= DELTA_STEP * (1 + 1e-9)
    value_ok = abs(value - 0.103) <= 0.02
    passed = phi_ok and delta_ok and value_ok
    line = report(2, passed,
                  f"max {value:.4f} at phi={phi_max:.4f} (target pi), "
                  f"delta={delta_max:.2f} (dark state {dark.detuning:.2f})")
    assert passed, line


def test_criterion_3_truncation_convergence(preset):
    """Steady-state negativity changes by < 1% between Fock cutoffs 1 and 2.

    KNOWN RED: the honest change is ~1.3% (cutoff 2 is itself converged:
    cutoff 2 -> 3 changes by ~1e-4 %).  The two-photon manifold shifts the
    doubly-excited dressed states enough to move the saturated negativity by
    just over the stated percent; no free parameter of the configuration can
    reduce it below 1% without breaking the other criteria.
    """
    base = dark_tuned(preset)
    scan = convergence_scan(base, "negativity", cutoffs=(1, 2))
    rel = scan.relative_differences[0]
    passed = rel < 0.01
    line = report(3, passed, f"relative change cutoff 1 -> 2: {rel:.4%} "
                             f"(values {scan.values[0]:.6f} -> {scan.values[1]:.6f})")
    assert passed, line


def test_criterion_4_dephasing_ratio(preset):
    """Negativity at 1 ueV pure dephasing is 82% +- 5 points of the
    dephasing-free value (emitter decay off)."""
    base = dark_tuned(preset)
    n0 = float(negativity_of(base))
    n1 = float(negativity_of(base.with_dephasing(1.0)))
    ratio = n1 / n0
    passed = abs(ratio - 0.82) <= 0.05
    line = report(4, passed, f"ratio {ratio:.4f} (N0 {n0:.5f}, N1 {n1:.5f})")
    assert passed, line


def negativity_of(params):
    from pcdimer.entanglement import qd_negativity

    return qd_negativity(steady_state(build_liouvillian(params)))


def test_criterion_5_emitter_detuning_collapse(preset):
    """Entanglement drops to 20-30% of its resonant value at 10 ueV emitter
    detuning and below 0.01 beyond 40 ueV."""
    base = dark_tuned(preset)
    result = sweep_detuning(base, np.array([0.0, 10.0, 41.0, 50.0]),
                            n_workers=1)
    ratio = result.values[1] / result.values[0]
    tail = max(result.values[2], result.values[3])
    passed = 0.20 <= ratio <= 0.30 and tail < 0.01
    line = report(5, passed, f"N(10)/N(0) = {ratio:.4f}, "
                             f"max N beyond 40 ueV = {tail:.5f}")
    assert passed, line


def test_criterion_6_driven_two_level_oracle():
    """Driven lossy two-level steady state matches the saturation formula
    W^2 / (g^2/4 + 2 W^2) to 1e-8 over a 5x5 drive/decay grid."""
    space = CompositeSpace((qubit(),))
    sm = qubit_lowering(space, 0)
    worst = 0.0
    for drive in (0.1, 0.5, 1.0, 3.0, 10.0):
        for gamma in (0.2, 1.0, 2.5, 8.0, 30.0):
            h = Operator(space, drive * (sm.matrix.conj().T + sm.matrix))
            rho = steady_state(assemble_generator(h, [(sm, gamma)]))
            expected = drive**2 / (gamma**2 / 4 + 2 * drive**2)
            worst = max(worst, abs(rho.matrix[1, 1].real - expected))
    passed = worst < 1e-8
    line = report(6, passed, f"max deviation from saturation formula {worst:.2e}")
    assert passed, line


def test_criterion_7_single_excitation_transfer():
    """A lossless resonant emitter-mode pair completes the excitation swap at
    t = pi hbar / (2 g) = 9.40 ps for g = 110 ueV, to 1e-6 in population."""
    from pcdimer.model import CouplingMatrix, DriveParams, ModeParams, QDParams, SystemParams

    g = 110.0
    params = SystemParams(
        modes=(ModeParams(0.0, 0.0), ModeParams(9000.0, 0.0)),
        dots=(QDParams(0.0), QDParams(0.0)),
        coupling=CouplingMatrix(((g, 0.0), (0.0, 0.0))),
        drive=DriveParams(amplitude=0.0),
    )
    t_swap = np.pi * HBAR_UEV_PS / (2 * g)
    rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
    trajectory = evolve(Schedule.constant(params, t_swap), rho0,
                        np.array([0.0, t_swap]))
    error = abs(trajectory.observables["pop_m1"][-1] - 1.0)
    passed = error < 1e-6
    line = report(7, passed, f"transfer time {t_swap:.4f} ps, "
                             f"population error {error:.2e}")
    assert passed, line


def test_criterion_8_dynamics_peaks(preset):
    """Photon-seeded run peaks above 0.45; the switch protocol with 0.66 ueV
    emitter decay peaks at 0.2 +- 0.05; the slow negativity oscillation
    period lies within 15% of 4 pi hbar (8.27 ns) for a 1 ueV drive.

    KNOWN RED (all three clauses, same root cause): the ground state couples
    to the antisymmetric emitter state with matrix element sqrt(2) * drive,
    so the negativity oscillates with period ~2 pi hbar / (2 sqrt(2) drive)
    = 1.4-1.5 ns, not 8.27 ns (the target corresponds to reading the quoted
    oscillation rate drive/2 as an ordinary rather than angular frequency;
    hbar/period of the simulated trace is 0.46 ueV ~ drive/2).  The peak
    criteria then sit on opposite sides of one trade-off: the first peak
    arrives at ~0.74 ns, where the peak height is controlled solely by the
    dark-state loss rate 2 g^2 gamma_2 / splitting^2.  No splitting both
    keeps the photon-seeded peak above 0.45 (needs a slow dark state) and
    pulls the lossy protocol peak down to 0.25 (needs a fast one); the
    shipped splitting favors the steady-state map, giving 0.42 and 0.27.
    """
    photon = dynamics_run(preset, "photon_mode1", horizon=6000.0, samples=601)
    photon_peak = float(photon.observables["negativity"].max())
    peak_ok = photon_peak > 0.45

    protocol = stark_switch_protocol(preset.with_qd_decay(0.66), tau=9.0,
                                     initial_detuning=1500.0,
                                     horizon=1600.0, samples=321)
    stark_peak = float(protocol.observables["negativity"].max())
    stark_ok = abs(stark_peak - 0.2) <= 0.05

    period = oscillation_period(photon.times, photon.observables["negativity"])
    period_target = 4 * np.pi * HBAR_UEV_PS
    period_ok = abs(period - period_target) / period_target <= 0.15

    passed = peak_ok and stark_ok and period_ok
    line = report(8, passed,
                  f"photon-seeded peak {photon_peak:.4f} (>0.45: {peak_ok}), "
                  f"protocol peak {stark_peak:.4f} (0.2+-0.05: {stark_ok}), "
                  f"period {period:.0f} ps vs {period_target:.0f} ps "
                  f"(15%: {period_ok})")
    assert passed, line


def test_criterion_9_property_suite(preset, tmp_path):
    """Generator and output properties: trace preservation, dissipativity,
    sparse/dense agreement, integrator-vs-exponential agreement, local
    unitary invariance and byte-identical sweep outputs."""
    checks = {}
    params = dark_tuned(preset).with_qd_decay(0.66).with_dephasing(0.3)
    liouville = build_liouvillian(params)

    checks["trace preservation"] = liouville.trace_defect() < 1e-10

    spectrum = np.linalg.eigvals(liouville.matrix.toarray())
    checks["dissipativity"] = spectrum.real.max() <= 1e-9

    from test_liouvillian import dense_reference_generator
    dense = dense_reference_generator(params)
    checks["sparse equals dense"] = np.max(np.abs(
        liouville.matrix.toarray() - dense)) < 1e-12

    rho0 = DensityMatrix.basis_state(params.space(), (0, 0, 1, 0))
    t_grid = np.linspace(0.0, 50.0, 6)[1:]
    trajectory = evolve(Schedule.constant(params, 50.0), rho0, t_grid)
    vec0 = rho0.matrix.reshape(-1, order="F")
    worst = 0.0
    for k, t in enumerate(t_grid):
        reference = (expm(liouville.matrix.toarray() * t) @ vec0).reshape(
            (16, 16), order="F")
        worst = max(worst, np.linalg.norm(trajectory.matrices[k] - reference))
    checks["integrator matches exponential"] = worst < 1e-7

    rng = np.random.default_rng(97)
    invariance = 0.0
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        z1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = np.kron(np.linalg.qr(z1)[0], np.linalg.qr(z2)[0])
        invariance = max(invariance, abs(
            negativity(u @ rho @ u.conj().T) - negativity(rho)))
    checks["local unitary invariance"] = invariance < 1e-10

    config_text = """
[run]
command = sweep
preset = dimer30_dc901

[sweep]
kind = phase_detuning
phi_min = 0
phi_max = 6.283185307179586
phi_points = 5
delta_min = -22
delta_max = 0
delta_points = 3
"""
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        config = parse_config(config_text + f"\n[output]\ndirectory = {out}\n")
        assert run(config, quiet=True) == 0
        digests.append((out / "sweep_phase_detuning.csv").read_bytes())
    checks["deterministic sweep bytes"] = digests[0] == digests[1]

    passed = all(checks.values())
    line = report(9, passed, "; ".join(
        f"{name}: {'ok' if ok else 'FAILED'}" for name, ok in checks.items()))
    assert passed, line
