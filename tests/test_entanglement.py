import numpy as np
import pytest

from pcdimer.entanglement import (
    bell_state,
    negativity,
    partial_transpose_first,
    qd_negativity,
)
from pcdimer.exceptions import DomainError
from pcdimer.hilbert import CompositeSpace, DensityMatrix, boson, partial_trace, qubit

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBellStates:
    def test_psi_minus_matrix_elements(self):
        rho = bell_state("psi-").matrix
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(rho, expected)

    def test_phi_plus_matrix_elements(self):
        rho = bell_state("phi+").matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        assert np.allclose(rho, expected)

    @pytest.mark.parametrize("kind", BELL_KINDS)
    def test_purity(self, kind):
        rho = bell_state(kind).matrix
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", BELL_KINDS)
    def test_reduction_is_maximally_mixed(self, kind):
        rho = bell_state(kind)
        for keep in ([0], [1]):
            reduced = partial_trace(rho, keep=keep)
            assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            bell_state("sigma+")


class TestPartialTranspose:
    def test_bell_block_forms(self):
        # transposed Bell matrices: the coherence moves between the
        # inner (01,10) and outer (00,11) blocks
        for sign, kind in ((1.0, "phi+"), (-1.0, "phi-")):
            pt = partial_transpose_first(bell_state(kind))
            expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
            expected[1, 2] = expected[2, 1] = 0.5 * sign
            assert np.allclose(pt, expected)
        for sign, kind in ((1.0, "psi+"), (-1.0, "psi-")):
            pt = partial_transpose_first(bell_state(kind))
            expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
            expected[0, 3] = expected[3, 0] = 0.5 * sign
            assert np.allclose(pt, expected)

    def test_product_state_transposes_first_factor(self):
        rng = np.random.default_rng(23)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        pt = partial_transpose_first(np.kron(rho_a, rho_b))
        assert np.allclose(pt, np.kron(rho_a.T, rho_b), atol=1e-12)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(pt)),
            np.sort(np.linalg.eigvalsh(np.kron(rho_a, rho_b))),
            atol=1e-12,
        )

    def test_involution(self):
        rng = np.random.default_rng(29)
        rho = random_density(rng, 4)
        assert np.allclose(partial_transpose_first(partial_transpose_first(rho)), rho)

    def test_partial_transpose_stays_hermitian(self):
        # transposing one factor of a Hermitian matrix keeps it Hermitian,
        # so its spectrum stays real
        rng = np.random.default_rng(17)
        for _ in range(5):
            pt = partial_transpose_first(random_density(rng, 4))
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-15
            assert np.max(np.abs(np.linalg.eigvals(pt).imag)) < 1e-12

    def test_bell_characteristic_polynomial(self):
        # det(pt - x) expands to x^4 - x^3 + x/4 - 1/16, i.e. roots
        # {1/2, 1/2, 1/2, -1/2}
        frozen = np.array([1.0, -1.0, 0.0, 0.25, -0.0625])
        for kind in BELL_KINDS:
            pt = partial_transpose_first(bell_state(kind))
            coeffs = np.poly(np.linalg.eigvalsh(pt))
            assert np.allclose(coeffs, frozen, atol=1e-10)


class TestNegativity:
    @pytest.mark.parametrize("kind", BELL_KINDS)
    def test_bell_states_reach_half(self, kind):
        assert abs(negativity(bell_state(kind)) - 0.5) < 1e-10
        spectrum = np.linalg.eigvalsh(partial_transpose_first(bell_state(kind)))
        assert np.allclose(np.sort(spectrum), [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_product_states_are_separable(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert negativity(rho) == 0.0

    def test_werner_state(self):
        # closed form: max(0, (3p - 1) / 4), cross-checked by direct
        # eigendecomposition over a p grid
        singlet = bell_state("psi-").matrix
        for p in np.linspace(0.0, 1.0, 11):
            rho = p * singlet + (1 - p) * np.eye(4) / 4
            expected = max(0.0, (3 * p - 1) / 4)
            direct = -np.sum(np.minimum(np.linalg.eigvalsh(
                partial_transpose_first(rho)), 0.0))
            assert abs(negativity(rho) - expected) < 1e-12
            assert abs(direct - expected) < 1e-12
        assert abs(negativity(2 / 3 * singlet + (1 / 3) * np.eye(4) / 4) - 0.25) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(negativity(rotated) - negativity(rho)) < 1e-10

    def test_symmetric_under_transposing_either_qubit(self):
        rng = np.random.default_rng(41)
        swap = np.eye(4)[[0, 2, 1, 3]]
        for _ in range(10):
            rho = random_density(rng, 4)
            other = swap @ rho @ swap  # relabel the qubits, transpose "qubit 2"
            assert abs(negativity(rho) - negativity(other)) < 1e-10

    def test_separable_mixtures_have_zero_negativity(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            rho = np.zeros((4, 4), dtype=complex)
            weights = rng.dirichlet(np.ones(4))
            for w in weights:
                rho += w * np.kron(random_density(rng, 2), random_density(rng, 2))
            assert negativity(rho) < 1e-12

    def test_stack_matches_per_state_loop(self):
        # reference: the one-matrix formula, one state at a time
        rng = np.random.default_rng(53)
        stack = np.array([random_density(rng, 4) for _ in range(12)]
                         + [bell_state(kind).matrix for kind in BELL_KINDS]
                         + [np.eye(4) / 4])
        batched = negativity(stack.reshape(17, 1, 4, 4))
        assert batched.shape == (17, 1)
        for rho, value in zip(stack, batched[:, 0], strict=True):
            spectrum = np.linalg.eigvalsh(partial_transpose_first(rho))
            expected = -spectrum[spectrum < -1e-12].sum()
            assert abs(value - expected) <= 1e-14
            assert value == negativity(rho)
        assert batched[-1, 0] == 0.0 and not np.signbit(batched[-1, 0])

    def test_stack_shape_checked(self):
        with pytest.raises(DomainError):
            negativity(np.zeros((3, 4, 2)))

    def test_range_bounds(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = negativity(random_density(rng, 4))
            assert 0.0 <= n <= 0.5 + 1e-12


class TestFullSystemReduction:
    def test_bell_pair_with_vacuum_modes(self):
        space = CompositeSpace((qubit(), qubit(), boson(1), boson(1)))
        psi = np.zeros(16, dtype=complex)
        psi[4] = 1 / np.sqrt(2)   # |01;00>
        psi[8] = -1 / np.sqrt(2)  # |10;00>
        rho = DensityMatrix.from_pure(space, psi)
        assert abs(qd_negativity(rho) - 0.5) < 1e-12

    def test_vacuum(self):
        space = CompositeSpace((qubit(), qubit(), boson(1), boson(1)))
        rho = DensityMatrix.basis_state(space, (0, 0, 0, 0))
        assert qd_negativity(rho) == 0.0

    def test_excitation_in_mode_leaves_dots_separable(self):
        space = CompositeSpace((qubit(), qubit(), boson(1), boson(1)))
        rho = DensityMatrix.basis_state(space, (0, 0, 1, 0))
        assert qd_negativity(rho) == 0.0

    def test_requires_two_leading_qubits(self):
        space = CompositeSpace((boson(1), qubit(), qubit()))
        rho = DensityMatrix(space, np.eye(8) / 8)
        with pytest.raises(DomainError):
            qd_negativity(rho)
