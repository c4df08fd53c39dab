from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from pcdimer.exceptions import DomainError
from pcdimer.hilbert import lowering_operators
from pcdimer.model import (
    HBAR_UEV_PS,
    CouplingMatrix,
    DriveParams,
    ModeParams,
    QDParams,
    SystemParams,
    build_effective_hamiltonian,
    coupling_from_field,
    identify_dark_state,
    preset_params,
)

# field amplitude that inverts to a 110 ueV coupling at the reference
# transition energy 1.3 eV and squared dipole 0.51 eV nm^3
EY_FOR_110_UEV = 5.389469106139507e-05


def total_excitation(space):
    """Sum of all emitter populations and photon numbers."""
    return sum(low.matrix.conj().T @ low.matrix for low in lowering_operators(space))


def lab_hamiltonian(params, t):
    """Laboratory-frame Hamiltonian at time t (ps): no frequency shift, and
    the drive phases rotate as phi_n - w_p t / hbar."""
    s = params.drive.pump_freq * t / HBAR_UEV_PS
    return build_effective_hamiltonian(params.with_drive(
        pump_freq=0.0, phase1=params.drive.phase1 - s,
        phase2=params.drive.phase2 - s)).matrix


def make_params(g=((110.0, 110.0), (110.0, -110.0)), splitting=2200.0,
                gammas=(67.0, 37.0), dot_omegas=(0.0, 0.0),
                drive=DriveParams(amplitude=0.0), truncation=1):
    return SystemParams(
        modes=(ModeParams(0.0, gammas[0]), ModeParams(splitting, gammas[1])),
        dots=(QDParams(dot_omegas[0]), QDParams(dot_omegas[1])),
        coupling=CouplingMatrix(g),
        drive=drive,
        truncation=truncation,
    )


class TestCouplingFromField:
    def test_zero_field(self):
        assert coupling_from_field(1.3, 0.51, 0.0) == 0.0

    def test_square_root_scaling_in_dipole(self):
        g1 = coupling_from_field(1.3, 0.51, 1e-4)
        g4 = coupling_from_field(1.3, 4 * 0.51, 1e-4)
        assert np.isclose(g4, 2 * g1, rtol=1e-14)

    def test_linear_in_field(self):
        g = coupling_from_field(1.3, 0.51, 1e-4)
        assert np.isclose(coupling_from_field(1.3, 0.51, 3e-4), 3 * g, rtol=1e-14)

    def test_reference_inversion(self):
        assert np.isclose(coupling_from_field(1.3, 0.51, EY_FOR_110_UEV), 110.0,
                          rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            coupling_from_field(-1.3, 0.51, 1e-4)
        with pytest.raises(DomainError):
            coupling_from_field(1.3, -0.51, 1e-4)

    @pytest.mark.parametrize("inputs", [
        (np.nan, 0.51, 1e-5), (1.3, np.nan, 1e-5), (1.3, 0.51, np.nan),
        (np.inf, 0.51, 1e-5), (1.3, np.inf, 1e-5), (1.3, 0.51, np.inf),
        (1.3, 0.51, -np.inf),
    ])
    def test_non_finite_inputs_rejected(self, inputs):
        # before, a NaN or infinite input came back as a NaN or infinite
        # coupling that only a parameter record would reject
        with pytest.raises(DomainError, match="must be finite"):
            coupling_from_field(*inputs)


class TestEffectiveHamiltonian:
    def test_decoupled_undriven_is_diagonal(self):
        params = make_params(g=((0.0, 0.0), (0.0, 0.0)), splitting=700.0,
                             dot_omegas=(10.0, 20.0),
                             drive=DriveParams(amplitude=0.0, pump_freq=5.0))
        h = build_effective_hamiltonian(params).matrix
        assert np.allclose(h, np.diag(np.diag(h)))
        # basis indices: |1000> = 8, |0001> = 1, |1101> = 13
        assert np.isclose(h[8, 8].real, 10.0 - 5.0)
        assert np.isclose(h[1, 1].real, 700.0 - 5.0)
        assert np.isclose(h[13, 13].real, (10.0 - 5.0) + (20.0 - 5.0) + (700.0 - 5.0))

    def test_exactly_hermitian_for_random_parameters(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            g = tuple(tuple(complex(*rng.standard_normal(2)) * 100 for _ in range(2))
                      for _ in range(2))
            params = make_params(
                g=g,
                drive=DriveParams(amplitude=rng.uniform(0, 5),
                                  phase1=rng.uniform(0, 2 * np.pi),
                                  phase2=rng.uniform(0, 2 * np.pi),
                                  pump_freq=rng.uniform(-100, 100)),
            )
            h = build_effective_hamiltonian(params).matrix
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_jaynes_cummings_splitting(self):
        # one emitter resonant with one mode, single coupling: the
        # single-excitation block reduces to [[0, g], [g, 0]]
        g = 110.0
        params = make_params(g=((g, 0.0), (0.0, 0.0)), splitting=9000.0)
        h = build_effective_hamiltonian(params).matrix
        n = total_excitation(params.space())
        single = np.isclose(np.diag(n).real, 1.0)
        block = h[np.ix_(single, single)]
        vals = np.linalg.eigvalsh(block)
        # split pair, the decoupled emitter, and the far detuned mode
        assert np.allclose(vals, [-g, 0.0, g, 9000.0], atol=1e-10)


class TestLabFrame:
    def test_reduces_to_effective_at_zero_pump_frequency(self):
        params = make_params(drive=DriveParams(amplitude=2.0, phase1=0.7,
                                               pump_freq=0.0))
        h_lab = lab_hamiltonian(params, t=0.0)
        h_eff = build_effective_hamiltonian(params).matrix
        assert np.allclose(h_lab, h_eff)

    def test_hermitian_at_all_times(self):
        params = make_params(drive=DriveParams(amplitude=1.0, phase1=0.3,
                                               pump_freq=137.0))
        for t in np.linspace(0.0, 50.0, 7):
            h = lab_hamiltonian(params, t=t)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_rotating_frame_transform(self):
        # R H R^dag - hbar R (dR^dag/dt) must reproduce the rotating-frame
        # Hamiltonian; R(t) = exp(i w_p t N) built by matrix exponential
        rng = np.random.default_rng(59)
        params = make_params(drive=DriveParams(amplitude=1.5, phase1=2.1,
                                               phase2=0.4, pump_freq=83.0))
        n = total_excitation(params.space())
        h_eff = build_effective_hamiltonian(params).matrix
        for t in rng.uniform(0.0, 100.0, size=10):
            r = expm(1j * params.drive.pump_freq * t / HBAR_UEV_PS * n)
            h_lab = lab_hamiltonian(params, t=t)
            transformed = r @ h_lab @ r.conj().T - params.drive.pump_freq * n
            assert np.max(np.abs(transformed - h_eff)) < 1e-12 * max(
                1.0, np.max(np.abs(h_eff)))

    def test_pump_shift_moves_single_excitation_energies(self):
        params = make_params(drive=DriveParams(amplitude=0.0, pump_freq=0.0))
        shift = 17.0
        shifted = params.with_drive(pump_freq=shift)
        n = np.diag(total_excitation(params.space())).real
        single = np.isclose(n, 1.0)
        h0 = build_effective_hamiltonian(params).matrix
        h1 = build_effective_hamiltonian(shifted).matrix
        e0 = np.linalg.eigvalsh(h0[np.ix_(single, single)])
        e1 = np.linalg.eigvalsh(h1[np.ix_(single, single)])
        assert np.allclose(e1, e0 - shift, atol=1e-10)


def reference_dark_state(params):
    """The dark state from a hand-built drive-free single-excitation block on
    (QD1, QD2, mode 1, mode 2), selected and phased as ``identify_dark_state``
    does: the oracle of its read of the model's Hamiltonian."""
    g = params.coupling.as_array()
    block = np.zeros((4, 4), dtype=complex)
    block[0, 0] = params.dots[0].omega
    block[1, 1] = params.dots[1].omega
    block[2, 2] = params.modes[0].omega
    block[3, 3] = params.modes[1].omega
    for m in range(2):
        for n in range(2):
            block[n, 2 + m] = g[m, n]
            block[2 + m, n] = np.conj(g[m, n])
    energies, vectors = np.linalg.eigh(block)
    weights = np.sum(np.abs(vectors[2:, :]) ** 2, axis=0)
    best = int(np.flatnonzero(weights <= weights.min() + 1e-12)[0])
    vec = vectors[:, best].copy()
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec / (vec[pivot] / abs(vec[pivot]))
    return (float(energies[best] - params.modes[0].omega), float(weights[best]), vec)


energies = st.floats(-3000.0, 3000.0)
real_couplings = st.floats(-300.0, 300.0).map(complex)
complex_couplings = st.complex_numbers(max_magnitude=300.0)


@st.composite
def dark_state_params(draw):
    """Frequencies, real or complex couplings, any drive and rates, and Fock
    cutoffs 1-3."""
    couplings = draw(st.sampled_from((real_couplings, complex_couplings)))
    g = tuple(tuple(draw(couplings) for _ in range(2)) for _ in range(2))
    rates = st.floats(0.0, 100.0)
    return SystemParams(
        modes=tuple(ModeParams(draw(energies), draw(rates)) for _ in range(2)),
        dots=tuple(QDParams(draw(energies), draw(rates), draw(rates))
                   for _ in range(2)),
        coupling=CouplingMatrix(g),
        drive=DriveParams(draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 6.3)),
                          draw(st.floats(0.0, 6.3)), draw(energies)),
        truncation=draw(st.integers(1, 3)))


class TestDarkState:
    @settings(max_examples=200, deadline=None)
    @given(params=dark_state_params().filter(
        lambda p: p.coupling.as_array().any()))
    def test_equals_hand_built_block(self, params):
        # the block read from the model's H is the hand-built one entry for
        # entry, so the results are bit-identical, whatever the drive and
        # the cutoff
        detuning, weight, amplitudes = reference_dark_state(params)
        dark = identify_dark_state(params)
        assert dark.detuning == detuning
        assert dark.photonic_weight == weight
        assert np.array_equal(dark.amplitudes, amplitudes)

    def test_symmetric_single_mode(self):
        g = 110.0
        params = make_params(g=((g, g), (0.0, 0.0)), splitting=9000.0)
        dark = identify_dark_state(params)
        assert abs(dark.detuning) < 1e-12
        assert dark.photonic_weight < 1e-12
        assert np.allclose(np.abs(dark.amplitudes[:2]), [1, 1] / np.sqrt(2))
        assert np.isclose(dark.amplitudes[0] * dark.amplitudes[1].conjugate(),
                          -0.5)

    def test_antibonding_mode_protects_symmetric_combination(self):
        g = 110.0
        params = make_params(g=((0.0, 0.0), (g, -g)), splitting=0.0)
        dark = identify_dark_state(params)
        assert abs(dark.detuning) < 1e-12
        assert dark.photonic_weight < 1e-12
        assert np.isclose(dark.amplitudes[0] * dark.amplitudes[1].conjugate(),
                          +0.5)

    def test_polariton_branches(self):
        g = 110.0
        params = make_params(g=((g, g), (0.0, 0.0)), splitting=9000.0)
        block = np.zeros((4, 4), dtype=complex)
        block[0, 2] = block[1, 2] = g
        block[2, 0] = block[2, 1] = g
        block[3, 3] = 9000.0
        vals = np.linalg.eigvalsh(block)
        assert np.isclose(vals[0], -np.sqrt(2) * g)
        assert np.isclose(vals[2], np.sqrt(2) * g)

    def test_preset_dark_state_energy(self):
        # second-order repulsion from the far antibonding mode:
        # (S - sqrt(S^2 + 8 g^2)) / 2
        params = preset_params("dimer30_dc901")
        dark = identify_dark_state(params)
        s = params.splitting
        expected = (s - np.sqrt(s**2 + 8 * 110.0**2)) / 2
        assert np.isclose(dark.detuning, expected, atol=1e-9)
        assert dark.photonic_weight < 0.01

    def test_all_couplings_zero_is_degenerate(self):
        params = make_params(g=((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(DomainError):
            identify_dark_state(params)


class TestPresets:
    def test_dc901_linewidths(self):
        params = preset_params("dimer30_dc901")
        assert (params.modes[0].gamma, params.modes[1].gamma) == (67.0, 37.0)

    def test_dc2252_linewidths(self):
        params = preset_params("dimer30_dc2252")
        assert (params.modes[0].gamma, params.modes[1].gamma) == (17.0, 16.0)

    def test_drive_amplitude(self):
        for name in ("dimer30_dc901", "dimer30_dc2252", "generic_weak_pump"):
            assert preset_params(name).drive.amplitude == 1.0

    def test_truncation_is_single_photon(self):
        assert preset_params("dimer30_dc901").truncation == 1

    def test_dots_resonant_with_lower_mode(self):
        params = preset_params("dimer30_dc901")
        assert params.dots[0].omega == params.modes[0].omega
        assert params.dots[1].omega == params.modes[0].omega

    def test_coupling_sign_pattern(self):
        g = preset_params("dimer30_dc901").coupling.as_array()
        assert np.allclose(g, [[110.0, 110.0], [110.0, -110.0]])

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            preset_params("dimer45_dc100")


class TestParameterValidation:
    def test_negative_rates_rejected(self):
        # NaN and infinity fail the checks too
        for rate in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                ModeParams(0.0, rate)
            with pytest.raises(DomainError):
                ModeParams(0.0, 1.0, pump=rate)
            with pytest.raises(DomainError):
                QDParams(0.0, gamma=rate)
            with pytest.raises(DomainError):
                QDParams(0.0, gamma_d=rate)
            with pytest.raises(DomainError):
                DriveParams(amplitude=rate)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_energies_and_phases_rejected(self, value):
        for make in (lambda x: ModeParams(x, 1.0), lambda x: QDParams(x),
                     lambda x: DriveParams(1.0, phase1=x), lambda x: DriveParams(1.0, phase2=x),
                     lambda x: DriveParams(1.0, pump_freq=x)):
            with pytest.raises(DomainError, match="must be finite"):
                make(value)

    def test_truncation_minimum(self):
        with pytest.raises(DomainError):
            make_params(truncation=0)

    def test_sweep_helpers_return_modified_copies(self):
        params = preset_params("dimer30_dc901")
        detuned = params.with_qd2_detuning(25.0)
        assert detuned.dots[1].omega == params.dots[0].omega + 25.0
        assert params.dots[1].omega == params.dots[0].omega
        assert params.with_splitting(3000.0).splitting == 3000.0
        assert params.with_dephasing(2.0).dots[0].gamma_d == 2.0
        detuned = params.with_drive_detuning(-11.0)
        assert detuned.drive.pump_freq - detuned.modes[0].omega == -11.0

    def test_total_excitation_counts(self):
        params = make_params(truncation=2)
        n = total_excitation(params.space())
        assert np.allclose(n, np.diag(np.diag(n)))
        assert np.diag(n).real.max() == 1 + 1 + 2 + 2

    def test_coupling_matrix_shape(self):
        with pytest.raises(DomainError):
            CouplingMatrix(((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))
        with pytest.raises(DomainError):
            CouplingMatrix(((np.inf, 0.0), (0.0, 0.0)))
