import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from pcdimer.exceptions import DomainError, SolverError
from pcdimer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    Operator,
    boson,
    boson_annihilation,
    hermitian_basis,
    hermitian_coordinates,
    hermitian_matrices,
    qubit,
    qubit_lowering,
)
from pcdimer.liouvillian import (
    GeneratorBatch,
    _Template,
    _stacked_csr,
    assemble_generator,
    build_liouvillian,
    build_liouvillians,
    identity_bra,
)
from pcdimer.model import (
    HBAR_UEV_PS,
    CouplingMatrix,
    DriveParams,
    ModeParams,
    QDParams,
    SystemParams,
    build_effective_hamiltonian,
    coefficients,
    model_terms,
    preset_params,
)
from pcdimer.solvers import steady_state

QUBIT = CompositeSpace((qubit(),))


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def propagate(liouville, rho0, t):
    """Dense matrix-exponential propagation, the module-independent oracle."""
    vec = rho0.reshape(-1, order="F")
    out = expm(liouville.matrix.toarray() * t) @ vec
    d = rho0.shape[0]
    return out.reshape((d, d), order="F")


def apply_generator(liouville, x):
    """Action of the generator on a matrix, by the column-stacked product."""
    d = x.shape[0]
    return (liouville.matrix @ x.reshape(-1, order="F")).reshape((d, d), order="F")


def bare_params(modes=(ModeParams(0.0, 0.0), ModeParams(0.0, 0.0)),
                dots=(QDParams(0.0), QDParams(0.0))):
    """Uncoupled, undriven system with resonant levels, so H = 0 and only
    the rates given in ``modes`` and ``dots`` act."""
    return SystemParams(
        modes=modes,
        dots=dots,
        coupling=CouplingMatrix(((0.0, 0.0), (0.0, 0.0))),
        drive=DriveParams(amplitude=0.0),
        truncation=1,
    )


class TestVectorization:
    def test_sandwich_identity(self):
        # vec(A rho B) == (B^T kron A) vec(rho) for column stacking
        rng = np.random.default_rng(67)
        for _ in range(10):
            a, rho, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                         for _ in range(3))
            lhs = (a @ rho @ b).reshape(-1, order="F")
            rhs = np.kron(b.T, a) @ rho.reshape(-1, order="F")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_trace_pairs_with_identity_bra(self):
        rng = np.random.default_rng(71)
        space = CompositeSpace((qubit(), boson(2)))
        rho = DensityMatrix(space, random_density(rng, 6))
        bra = identity_bra(space)
        assert np.isclose(bra @ rho.matrix.reshape(-1, order="F"), 1.0)


class TestDissipator:
    def test_zero_rate_is_zero(self):
        h = Operator(QUBIT, np.zeros((2, 2)))
        liouville = assemble_generator(h, [(qubit_lowering(QUBIT, 0), 0.0)])
        assert liouville.matrix.nnz == 0

    def test_negative_rate_rejected(self):
        h = Operator(QUBIT, np.zeros((2, 2)))
        for rate in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                assemble_generator(h, [(qubit_lowering(QUBIT, 0), rate)])

    def test_amplitude_damping_law(self):
        # analytic decay: excited population e^(-gamma t / hbar); equals 1/e
        # at t = hbar / gamma
        gamma = 40.0
        h = Operator(QUBIT, np.zeros((2, 2)))
        liouville = assemble_generator(h, [(qubit_lowering(QUBIT, 0), gamma)])
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for t in (0.5, HBAR_UEV_PS / gamma, 30.0):
            rho_t = propagate(liouville, rho0, t)
            assert np.isclose(rho_t[1, 1].real, np.exp(-gamma * t / HBAR_UEV_PS),
                              atol=1e-12)

    def test_trace_annihilated_for_random_jumps(self):
        rng = np.random.default_rng(73)
        space = CompositeSpace((qubit(), boson(1)))
        h = Operator(space, np.zeros((4, 4)))
        for _ in range(5):
            jump = Operator(space, rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
            d = assemble_generator(h, [(jump, rng.uniform(0.1, 10.0))])
            assert d.trace_defect() < 1e-10 * max(1.0, abs(d.matrix).max())

    def test_jump_on_another_space_rejected(self):
        # a jump of another dimension, and one of the same dimension declared
        # on another space, both fail typed before anything is built
        h = Operator(QUBIT, np.zeros((2, 2)))
        mode = CompositeSpace((boson(1),))
        for jump in (qubit_lowering(CompositeSpace((qubit(), boson(1))), 0),
                     Operator(mode, np.array([[0.0, 1.0], [0.0, 0.0]]))):
            with pytest.raises(DomainError, match="space"):
                assemble_generator(h, [(jump, 1.0)])

    def test_non_hermitian_hamiltonian_rejected(self):
        # a complex-symmetric H keeps the commutator's trace but not
        # Hermiticity; its anti-Hermitian part fails the trace check of
        # the one-member contraction, with and without a jump
        space = preset_params("dimer30_dc901").space()
        rng = np.random.default_rng(5)
        sm = Operator(space, np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(8)))
        for eps in (1e-3, 0.1, 1.0):
            h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            s = rng.standard_normal((16, 16))
            h = Operator(space, 50.0 * (h + h.conj().T + 1j * eps * (s + s.T)))
            for jumps in ([], [(sm, 30.0)]):
                with pytest.raises(DomainError, match="does not preserve the trace"):
                    assemble_generator(h, jumps)


class TestDephasing:
    # emitter 1 dephasing alone, the only nonzero rate of the model
    GAMMA_D = 2.5

    def liouville(self):
        dots = (QDParams(0.0, gamma_d=self.GAMMA_D), QDParams(0.0))
        return build_liouvillian(bare_params(dots=dots))

    def test_populations_untouched(self):
        rng = np.random.default_rng(79)
        rho0 = random_density(rng, 16)
        rho_t = propagate(self.liouville(), rho0, 25.0)
        assert np.allclose(np.diag(rho_t), np.diag(rho0), atol=1e-12)

    def test_coherence_decay_rate(self):
        # gamma_d is the coherence-decay rate: the emitter-1 coherence
        # |rho_ge(t)| falls as e^(-gamma_d t / hbar)
        psi = np.zeros(16, dtype=complex)
        psi[[0, 8]] = np.sqrt(0.5)  # (|g> + |e>) of emitter 1, rest in vacuum
        rho0 = np.outer(psi, psi.conj())
        for t in (1.0, 100.0, 700.0):
            rho_t = propagate(self.liouville(), rho0, t)
            assert np.isclose(
                rho_t[0, 8], 0.5 * np.exp(-self.GAMMA_D * t / HBAR_UEV_PS),
                atol=1e-12)

    def test_zero_rate(self):
        assert build_liouvillian(bare_params()).matrix.nnz == 0


class TestIncoherentPump:
    def test_zero_rate(self):
        space = CompositeSpace((boson(1),))
        h = Operator(space, np.zeros((2, 2)))
        a = boson_annihilation(space, 0)
        a_dag = Operator(space, a.matrix.conj().T)
        assert assemble_generator(h, [(a_dag, 0.0)]).matrix.nnz == 0

    def test_truncated_mode_rate_balance(self):
        # two-level rate equations for the cutoff-1 mode give the steady
        # photon number P / (P + gamma)
        space = CompositeSpace((boson(1),))
        pump_rate, loss_rate = 3.0, 11.0
        h = Operator(space, np.zeros((2, 2)))
        a = boson_annihilation(space, 0)
        a_dag = Operator(space, a.matrix.conj().T)
        liouville = assemble_generator(h, [(a, loss_rate), (a_dag, pump_rate)])
        rho = steady_state(liouville)
        n = np.trace(a_dag.matrix @ a.matrix @ rho.matrix).real
        assert np.isclose(n, pump_rate / (pump_rate + loss_rate), atol=1e-12)

    def test_trace_preserved(self):
        modes = (ModeParams(0.0, 0.0, pump=2.0), ModeParams(0.0, 0.0))
        assert build_liouvillian(bare_params(modes=modes)).trace_defect() < 1e-10

    def test_rate_normalisation(self):
        # pump of mode 1 alone at cutoff 1: the vacuum empties into |1> as
        # 1 - e^(-P t / hbar)
        pump = 4.0
        modes = (ModeParams(0.0, 0.0, pump=pump), ModeParams(0.0, 0.0))
        liouville = build_liouvillian(bare_params(modes=modes))
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[0, 0] = 1.0
        for t in (1.0, HBAR_UEV_PS / pump, 600.0):
            rho_t = propagate(liouville, rho0, t)
            # basis index 2 is (g, g, n1 = 1, n2 = 0)
            assert np.isclose(rho_t[2, 2].real,
                              1.0 - np.exp(-pump * t / HBAR_UEV_PS), atol=1e-12)


def _embed(space, local, position):
    mats = [np.eye(dim, dtype=complex) for dim in space.dims]
    mats[position] = local
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _reference_lowering(params):
    """(sigma_1, sigma_2, a_1, a_2) by explicit Kronecker products."""
    space = params.space()
    nb = params.truncation + 1
    boson_low = np.diag(np.sqrt(np.arange(1, nb, dtype=float)), 1).astype(complex)
    qubit_low = np.array([[0, 1], [0, 0]], dtype=complex)
    return tuple(_embed(space, qubit_low if k < 2 else boson_low, k)
                 for k in range(4))


def dense_reference_hamiltonian(params):
    """Rotating-frame Hamiltonian (ueV) term by term from its definition,
    independent of the term template of ``model``."""
    sm1, sm2, a1, a2 = _reference_lowering(params)
    sm, a = (sm1, sm2), (a1, a2)
    g = params.coupling.as_array()
    wp = params.drive.pump_freq
    h = np.zeros_like(sm1)
    for m in range(2):
        h += (params.modes[m].omega - wp) * (a[m].conj().T @ a[m])
        h += (params.dots[m].omega - wp) * (sm[m].conj().T @ sm[m])
        for n in range(2):
            coupling = np.conj(g[m, n]) * (a[m].conj().T @ sm[n])
            h += coupling + coupling.conj().T
    for n, omega in enumerate((params.drive.omega1, params.drive.omega2)):
        drive = omega * sm[n].conj().T
        h += drive + drive.conj().T
    return h


def reference_jumps(params):
    """The eight (jump operator, rate) pairs, rates in ueV."""
    sm1, sm2, a1, a2 = _reference_lowering(params)
    jumps = []
    for a, mode in zip((a1, a2), params.modes):
        jumps += [(a, mode.gamma), (a.conj().T, mode.pump)]
    for sm, dot in zip((sm1, sm2), params.dots):
        jumps += [(sm, dot.gamma), (sm.conj().T @ sm, 2.0 * dot.gamma_d)]
    return jumps


def dense_reference_generator(params, sparse=False):
    """Brute-force construction by explicit Kronecker products, independent
    of the template path; dense, or with ``scipy.sparse.kron`` where the
    dense D^2 x D^2 matrix would be too large."""
    kron = (lambda x, y: sp.kron(x, y, format="csr")) if sparse else np.kron
    h = dense_reference_hamiltonian(params)
    eye = np.eye(h.shape[0])
    total = -1j * (kron(eye, h) - kron(h.T, eye))
    for c, rate in reference_jumps(params):
        cdc = c.conj().T @ c
        total = total + rate * (
            kron(c.conj(), c)
            - 0.5 * kron(eye, cdc)
            - 0.5 * kron(cdc.T, eye)
        )
    return total / HBAR_UEV_PS


def reference_h_eff(params):
    """(H - (i/2) sum r C^dag C) / hbar in 1/ps."""
    h = dense_reference_hamiltonian(params)
    decay = sum(rate * (c.conj().T @ c) for c, rate in reference_jumps(params))
    return (h - 0.5j * decay) / HBAR_UEV_PS


def full_params():
    return SystemParams(
        modes=(ModeParams(0.0, 67.0, pump=0.4), ModeParams(2200.0, 37.0, pump=0.1)),
        dots=(QDParams(0.0, gamma=0.66, gamma_d=0.8),
              QDParams(3.0, gamma=1.1, gamma_d=0.2)),
        coupling=CouplingMatrix(((110.0, 110.0), (110.0, -110.0))),
        drive=DriveParams(amplitude=1.0, phase1=np.pi, pump_freq=-11.0),
        truncation=1,
    )


def dephased_closed_params(cutoff):
    """Lossless and undriven, with dephasing on both emitters alone: H keeps
    the total excitation number, so the steady state is never unique."""
    return SystemParams(
        modes=(ModeParams(0.0, 0.0), ModeParams(2200.0, 0.0)),
        dots=(QDParams(0.0, gamma_d=0.5), QDParams(0.0, gamma_d=0.5)),
        coupling=CouplingMatrix.bonding_antibonding(110.0),
        drive=DriveParams(amplitude=0.0), truncation=cutoff)


rates = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
energies = st.floats(-3000.0, 3000.0)
couplings = st.complex_numbers(max_magnitude=300.0)
phases = st.floats(0.0, 2.0 * np.pi)


@st.composite
def physical_params(draw):
    """Any physical parameter set at cutoff 1 or 2: every rate >= 0 (zero
    included), arbitrary complex couplings and drive."""
    modes = tuple(ModeParams(draw(energies), draw(rates), pump=draw(rates))
                  for _ in range(2))
    dots = tuple(QDParams(draw(energies), gamma=draw(rates), gamma_d=draw(rates))
                 for _ in range(2))
    g = tuple(tuple(draw(couplings) for _ in range(2)) for _ in range(2))
    drive = DriveParams(amplitude=draw(st.floats(0.0, 50.0)),
                        phase1=draw(phases), phase2=draw(phases),
                        pump_freq=draw(energies))
    return SystemParams(modes=modes, dots=dots, coupling=CouplingMatrix(g),
                        drive=drive, truncation=draw(st.integers(1, 2)))


class TestHermitianCoordinates:
    def test_coordinate_layout(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        x = hermitian_basis(3) @ rho.reshape(-1, order="F")
        s = np.sqrt(2.0)
        expected = [rho[0, 0], rho[1, 1], rho[2, 2],
                    s * rho[0, 1].real, s * rho[0, 1].imag,
                    s * rho[0, 2].real, s * rho[0, 2].imag,
                    s * rho[1, 2].real, s * rho[1, 2].imag]
        assert np.max(np.abs(x - expected)) <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(params=physical_params(), seed=st.integers(0, 2 ** 32 - 1))
    @example(params=full_params().with_truncation(2), seed=0)
    def test_real_form(self, params, seed):
        # U is unitary, Hermitian matrices round-trip through their real
        # coordinates, and U D U^H is real up to roundoff for the Kronecker
        # reference generator D, which preserves Hermiticity
        d = params.space().total_dim
        u = hermitian_basis(d)
        assert abs(u @ u.conj().T - sp.identity(d * d)).max() <= 1e-14
        rho = random_density(np.random.default_rng(seed), d)
        x = u @ rho.reshape(-1, order="F")
        assert np.max(np.abs(x.imag)) <= 1e-14
        back = hermitian_matrices(x.real, d)
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - rho)) <= 1e-14
        reference = sp.csr_matrix(dense_reference_generator(params, sparse=True))
        real_form = u @ reference @ u.conj().T
        scale = max(1.0, np.abs(reference.data).max(initial=0.0))
        assert np.abs(real_form.data.imag).max(initial=0.0) <= 1e-14 * scale

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_coordinates_of_matrices(self, d, seed):
        # the gather gives Re(U vec(rho)) bit for bit, the coordinates of
        # the Hermitian part, and inverts hermitian_matrices to roundoff
        rng = np.random.default_rng(seed)
        rho = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        x = hermitian_coordinates(rho, d)
        for matrix, coordinates in zip(rho, x, strict=True):
            expected = (hermitian_basis(d) @ matrix.reshape(-1, order="F")).real
            assert np.array_equal(coordinates, expected)
        hermitian = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        assert np.max(np.abs(hermitian_matrices(x, d) - hermitian)) <= 1e-14 * np.abs(rho).max()
        back = hermitian_coordinates(hermitian_matrices(x, d), d)
        assert np.max(np.abs(back - x)) <= 1e-15 * np.abs(x).max()


class TestBuildLiouvillian:
    def test_dimension(self):
        liouville = build_liouvillian(preset_params("dimer30_dc901"))
        assert liouville.matrix.shape == (256, 256)

    @settings(max_examples=25, deadline=None)
    @given(params=physical_params())
    @example(params=full_params())
    def test_sparse_matches_dense_reference(self, params):
        liouville = build_liouvillian(params)
        # the Kronecker-product reference is sparse above cutoff 1, where a
        # dense 1296 x 1296 generator costs seconds per draw
        reference = dense_reference_generator(
            params, sparse=params.space().total_dim ** 2 > 256)
        assert abs(liouville.matrix - reference).max() < 1e-12
        assert liouville.trace_defect() < 1e-12

    def test_keeps_no_jump_hamiltonian(self):
        # h_eff = (H - (i/2) sum r C^dag C) / hbar, and the generator's
        # no-jump part is X -> -i (h_eff X - X h_eff^dag)
        params = full_params()
        space = params.space()
        liouville = build_liouvillian(params)
        h = build_effective_hamiltonian(params).matrix
        _, model_jumps = model_terms(space)
        jumps = list(zip(model_jumps, coefficients(params)[-len(model_jumps):]))
        decay = sum(rate * (c.conj().T @ c) for c, rate in jumps)
        expected = (h - 0.5j * decay) / HBAR_UEV_PS
        assert np.max(np.abs(liouville.h_eff - expected)) < 1e-15
        assert not liouville.h_eff.flags.writeable
        x = random_density(np.random.default_rng(5), space.total_dim)
        no_jump = -1j * (liouville.h_eff @ x - x @ liouville.h_eff.conj().T)
        recycled = sum(rate * (c @ x @ c.conj().T)
                       for c, rate in jumps) / HBAR_UEV_PS
        assert np.allclose(apply_generator(liouville, x), no_jump + recycled,
                           atol=1e-13)

    def test_trace_preservation(self):
        liouville = build_liouvillian(full_params())
        assert liouville.trace_defect() < 1e-10

    def test_dissipativity(self):
        liouville = build_liouvillian(full_params())
        eigenvalues = np.linalg.eigvals(liouville.matrix.toarray())
        assert eigenvalues.real.max() <= 1e-9

    def test_closed_system_spectrum_is_level_differences(self):
        # with no losses the generator is -i [H, .] / hbar: its spectrum is
        # i (E_j - E_k) / hbar for all level pairs
        params = SystemParams(
            modes=(ModeParams(0.0, 0.0), ModeParams(500.0, 0.0)),
            dots=(QDParams(0.0), QDParams(0.0)),
            coupling=CouplingMatrix(((110.0, 110.0), (110.0, -110.0))),
            drive=DriveParams(amplitude=0.0),
            truncation=1,
        )
        liouville = build_liouvillian(params)
        h_vals = np.linalg.eigvalsh(build_effective_hamiltonian(params).matrix)
        expected = np.sort_complex(
            1j * (h_vals[None, :] - h_vals[:, None]).ravel() / HBAR_UEV_PS)
        actual = np.sort_complex(np.linalg.eigvals(liouville.matrix.toarray()))
        assert np.allclose(np.sort(actual.imag), np.sort(expected.imag), atol=1e-10)
        assert np.max(np.abs(actual.real)) < 1e-10

    def test_hermiticity_preserved_under_application(self):
        rng = np.random.default_rng(83)
        liouville = build_liouvillian(full_params())
        for _ in range(5):
            rho = random_density(rng, 16)
            image = apply_generator(liouville, rho)
            assert np.max(np.abs(image - image.conj().T)) < 1e-12

    def test_positivity_along_sampled_evolution(self):
        liouville = build_liouvillian(full_params())
        space = full_params().space()
        rho0 = DensityMatrix.basis_state(space, (1, 0, 0, 0))
        for t in (0.5, 5.0, 50.0, 500.0):
            rho_t = propagate(liouville, rho0.matrix, t)
            assert np.linalg.eigvalsh(0.5 * (rho_t + rho_t.conj().T)).min() >= -1e-8

    def test_commutator_superoperator_action(self):
        # with no jumps the generator is -i [H, .] / hbar
        rng = np.random.default_rng(89)
        space = CompositeSpace((qubit(), qubit()))
        h = rng.standard_normal((4, 4))
        h = Operator(space, h + h.T)
        comm = assemble_generator(h, [])
        rho = random_density(rng, 4)
        expected = -1j * (h.matrix @ rho - rho @ h.matrix) / HBAR_UEV_PS
        assert np.allclose(apply_generator(comm, rho), expected, atol=1e-12)


# every stored entry of a generator is at least this large in magnitude:
# subnormal parts are flushed to zero at assembly
TINY = np.finfo(float).tiny


def assert_matches_reference(params, liouville):
    """Generator, no-jump Hamiltonian and Hamiltonian against the explicit
    Kronecker construction, to 1e-13 relative; the CSR is canonical and
    stores no zeros."""
    d2 = params.space().total_dim ** 2
    reference = dense_reference_generator(params, sparse=d2 > 256)
    diff = abs(sp.csr_matrix(reference) - liouville.matrix).max()
    assert diff <= 1e-13 * abs(sp.csr_matrix(reference)).max() + TINY
    h_eff = reference_h_eff(params)
    assert np.abs(liouville.h_eff - h_eff).max() <= 1e-13 * np.abs(h_eff).max() + TINY
    h = dense_reference_hamiltonian(params)
    assert (np.abs(build_effective_hamiltonian(params).matrix - h).max()
            <= 1e-13 * np.abs(h).max() + TINY)
    assert liouville.matrix.has_canonical_format
    assert np.all(liouville.matrix.data != 0)


def assembled_model_generator(params):
    """``assemble_generator`` of the model's Hamiltonian and rated jumps."""
    space = params.space()
    _, jumps = model_terms(space)
    rates = coefficients(params)[-len(jumps):]
    return assemble_generator(
        build_effective_hamiltonian(params),
        [(Operator(space, c), rate) for c, rate in zip(jumps, rates)])


def same_outcome(first, second):
    """Bit-identical steady states, or the same failure."""
    try:
        rho = steady_state(first).matrix
    except SolverError as exc:
        with pytest.raises(type(exc)):
            steady_state(second)
        return
    assert np.array_equal(rho, steady_state(second).matrix)


def common_cutoff(batch):
    return [p.with_truncation(batch[0].truncation) for p in batch]


class TestTemplate:
    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(physical_params(), min_size=1, max_size=4).map(common_cutoff))
    @example(batch=[full_params().with_truncation(3)])
    @example(batch=[bare_params(), full_params()])
    def test_batch_matches_reference(self, batch):
        for params, liouville in zip(batch, build_liouvillians(batch), strict=True):
            assert_matches_reference(params, liouville)

    @settings(max_examples=25, deadline=None)
    @given(params=physical_params())
    @example(params=full_params().with_truncation(2))
    def test_assembled_generator_matches_template(self, params):
        # the model's Hamiltonian and jumps through assemble_generator give
        # the template's L to 1e-14 relative
        member = build_liouvillian(params)
        assert (abs(assembled_model_generator(params).matrix - member.matrix).max()
                <= 1e-14 * abs(member.matrix).max())

    @pytest.mark.parametrize("params", [
        full_params(), full_params().with_truncation(2), dephased_closed_params(2),
        preset_params("dimer30_dc901").with_truncation(2),
        # undriven and lossless, with integer energies: many levels share
        # one energy, and their coherences cancel exactly in both
        bare_params().with_truncation(2).with_drive(pump_freq=1.0)])
    def test_assembled_generator_has_template_pattern(self, params):
        assembled = assembled_model_generator(params).matrix
        member = build_liouvillian(params).matrix
        for name in ("indices", "indptr"):
            assert np.array_equal(getattr(assembled, name), getattr(member, name))

    @settings(max_examples=10, deadline=None)
    @given(batch=st.lists(physical_params(), min_size=2, max_size=5).map(common_cutoff))
    def test_member_alone_or_in_batch_is_bit_identical(self, batch):
        for together in (build_liouvillians(batch), build_liouvillians(batch[::-1])[::-1]):
            for params, member in zip(batch, together, strict=True):
                alone = build_liouvillian(params)
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(alone.matrix, name),
                                          getattr(member.matrix, name))
                assert np.array_equal(alone.h_eff, member.h_eff)
                same_outcome(alone, member)

    def test_batch_shares_one_space(self):
        with pytest.raises(DomainError):
            build_liouvillians([full_params(), full_params().with_truncation(2)])

    def test_batch_is_block_diagonal(self):
        batch = [full_params(), full_params().with_drive(phase1=0.5)]
        generators = build_liouvillians(batch)
        assert not generators.h_eff.flags.writeable
        alone = [build_liouvillian(p) for p in batch]
        joined = GeneratorBatch.join(generators)
        assert all(member is generator for member, generator in zip(joined, generators))
        for together in (generators, joined):
            expected = sp.block_diag([single.real_recycling for single in alone])
            assert (together.real_recycling != expected).nnz == 0
            for member, single in zip(together, alone, strict=True):
                for name in ("real_matrix", "matrix"):
                    assert (getattr(member, name) != getattr(single, name)).nnz == 0

    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(physical_params(), min_size=1, max_size=3).map(common_cutoff))
    @example(batch=[dephased_closed_params(1)])
    @example(batch=[dephased_closed_params(2), full_params().with_truncation(2)])
    def test_template_emits_the_real_forms(self, batch):
        # the template's G and R_h are U D U^H and U (D - N) U^H entry by
        # entry, real and without stored zeros, for the Kronecker reference
        # D and its no-jump part N
        d = batch[0].space().total_dim
        u = hermitian_basis(d)
        for params, member in zip(batch, build_liouvillians(batch), strict=True):
            reference = sp.csr_matrix(dense_reference_generator(params, sparse=d * d > 256))
            no_jump = no_jump_part(member.space, reference_h_eff(params))
            for real, complex_form in ((member.real_matrix, reference),
                                       (member.real_recycling, reference - no_jump)):
                expected = u @ complex_form @ u.conj().T
                scale = max(1.0, abs(expected).max())
                assert real.dtype == np.float64
                assert np.all(real.data != 0)
                assert abs(real - expected).max() <= 1e-14 * scale

    def test_generators_compare_by_identity(self):
        # equality, membership and hashing neither raise nor compare the
        # sparse matrices: a generator equals itself alone
        first, second = build_liouvillian(full_params()), build_liouvillian(full_params())
        assert first == first and first != second
        batch = build_liouvillians([full_params(), full_params().with_drive(phase1=0.5)])
        assert batch[1] is batch[1] and batch[1] in batch
        assert first not in batch
        assert batch == batch and batch != build_liouvillians([full_params()])
        assert len({first, second, first, batch, batch, batch[0]}) == 4

    def test_generators_pickle(self):
        # generators cross process boundaries: a batch, a member and an
        # assembled generator come back with equal forms
        batch = build_liouvillians([full_params(), full_params().with_drive(phase1=0.5)])
        unread = pickle.loads(pickle.dumps(batch))  # before any member exists
        assembled = assemble_generator(Operator(QUBIT, np.zeros((2, 2))),
                                       [(qubit_lowering(QUBIT, 0), 2.0)])
        generators = (batch, batch[1], assembled)
        copies = [pickle.loads(pickle.dumps(generator)) for generator in generators]
        for generator, copy in zip(generators, copies):
            assert (copy.real_recycling != generator.real_recycling).nnz == 0
            assert np.array_equal(copy.h_eff, generator.h_eff)
        # G and L of the batch's members and of the single generators
        for generator, copy in [*zip(batch, copies[0]), *zip(batch, unread),
                                *zip(generators[1:], copies[1:])]:
            for name in ("real_matrix", "matrix"):
                assert (getattr(copy, name) != getattr(generator, name)).nnz == 0

    @pytest.mark.parametrize("factors, theta", [
        ([1.0, 2.0], [0.0, 2.0]),  # the decay term removes twice what the jump returns
        ([1j, 1.0], [1.0, 0.0]),  # an anti-Hermitian Hamiltonian term
    ])
    def test_trace_check_reads_h_eff(self, factors, theta):
        # the trace check takes the no-jump part from the anti-Hermitian part
        # of H_eff: a corrupted term fails the member that carries it
        sigma_x = sp.csr_matrix(np.array([[0.0], [1.0], [1.0], [0.0]], dtype=complex))
        template = _Template.build(QUBIT, sigma_x, [qubit_lowering(QUBIT, 0).matrix])
        broken = dataclasses.replace(template, a=(template.a @ sp.diags(factors)).tocsc())
        assert broken.contract([[0.0, 0.0]])[0].matrix.nnz == 0
        with pytest.raises(DomainError, match="does not preserve the trace"):
            broken.contract([[0.0, 0.0], theta])

    @pytest.mark.parametrize("values", [[[0.0], [3.0], [5.0]],
                                        [[0.0, 1.0], [3.0, 0.0], [5.0, 2.0]]])
    def test_stacking_leaves_the_values_unchanged(self, values):
        # the stacked matrix drops its zeros from a copy of the values, for
        # one member as for several
        values = np.array(values)
        before = values.copy()
        matrix = _stacked_csr(values, np.array([0, 1, 1], dtype=np.int32),
                              np.array([0, 2, 3], dtype=np.int32))
        assert np.array_equal(values, before)
        expected = sp.block_diag([sp.csr_matrix(([v[0], v[1], v[2]], [0, 1, 1], [0, 2, 3]),
                                                shape=(2, 2)) for v in before.T])
        assert (matrix != expected).nnz == 0 and np.all(matrix.data != 0)

    @pytest.mark.parametrize("cutoff, retained_mb, peak_mb", [(3, 1.0, 3.0), (4, 2.0, 6.0)])
    def test_template_footprint(self, cutoff, retained_mb, peak_mb):
        # the model template holds the maps to H_eff and R_h and no map to
        # G: what it keeps, and the peak of its build, by tracemalloc
        space = full_params().with_truncation(cutoff).space()
        hamiltonian, jumps = model_terms(space)
        _Template.build(space, hamiltonian, jumps)  # fills the per-dimension caches
        tracemalloc.start()
        try:
            template = _Template.build(space, hamiltonian, jumps)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert template.r.shape[1] == len(jumps)
        assert retained <= retained_mb * 1e6
        assert peak <= peak_mb * 1e6

    def test_trace_check_per_member(self):
        # a template whose recycling part is doubled, so that it returns
        # twice the population the anticommutator removes: the member with
        # a nonzero rate fails
        template = _Template.build(QUBIT, sp.csr_matrix((4, 1), dtype=complex),
                                   [qubit_lowering(QUBIT, 0).matrix])
        broken = dataclasses.replace(template, r=2.0 * template.r)
        assert broken.contract([[0.0, 0.0]])[0].matrix.nnz == 0
        with pytest.raises(DomainError, match="does not preserve the trace"):
            broken.contract([[0.0, 0.0], [0.0, 2.0]])


def no_jump_part(space, h_eff):
    """-i (I kron H_eff - conj(H_eff) kron I), the no-jump part of L."""
    eye = sp.identity(space.total_dim, format="csr")
    h = sp.csr_matrix(h_eff)
    return -1j * (sp.kron(eye, h) - sp.kron(h.conj(), eye))


def complex_recycling(liouville):
    """The complex recycling terms R = U^H R_h U of a generator, mapped
    back from its real form."""
    u = hermitian_basis(liouville.space.total_dim)
    return (u.conj().T @ liouville.real_recycling @ u).tocsr()


def assert_recycling_matches(liouville):
    """R is L less its no-jump part N, entry by entry: equal to L wherever N
    has no entry, to roundoff of L elsewhere; canonical, without stored
    zeros."""
    recycling, matrix = complex_recycling(liouville), liouville.matrix
    no_jump = no_jump_part(liouville.space, liouville.h_eff)
    assert recycling.has_canonical_format
    assert np.all(recycling.data != 0)
    scale = max(abs(matrix).max(), 1.0)
    assert abs(recycling - (matrix - no_jump)).max() <= 1e-15 * scale
    outside = recycling - matrix
    outside = outside - outside.multiply(abs(no_jump).sign())
    outside.eliminate_zeros()
    assert outside.nnz == 0


class TestRecyclingTerms:
    def test_assembled_closed_system_has_no_recycling(self):
        # assemble_generator keeps the R_h it builds: a closed system's is
        # empty, where L less its no-jump part would leave roundoff residues
        rng = np.random.default_rng(89)
        space = CompositeSpace((qubit(), boson(1)))
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        generator = assemble_generator(Operator(space, h + h.conj().T), [])
        assert complex_recycling(generator).nnz == 0 and generator.real_recycling.nnz == 0

    @settings(max_examples=15, deadline=None)
    @given(params=physical_params())
    @example(params=full_params().with_truncation(2))
    def test_recycling_is_generator_less_no_jump_part(self, params):
        assert_recycling_matches(build_liouvillian(params))

    def test_dephased_closed_system(self):
        # dephasing alone: on a population, and on a coherence between
        # levels of one H energy and the same emitter occupations, the
        # recycling entry cancels the no-jump part, so L stores none there
        liouville = build_liouvillian(dephased_closed_params(1))
        assert_recycling_matches(liouville)
        n = liouville.matrix.shape[0]

        def keys(matrix):
            coo = matrix.tocoo()
            return set((coo.row * n + coo.col).tolist())

        recycling = complex_recycling(liouville)
        assert recycling.nnz == 112
        assert len(keys(recycling) - keys(liouville.matrix)) == 24
