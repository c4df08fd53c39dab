import numpy as np
import pytest

from pcdimer.exceptions import DomainError
from pcdimer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    Operator,
    boson,
    boson_annihilation,
    embed,
    lowering_operators,
    partial_trace,
    qubit,
    qubit_lowering,
)


def two_qubit_two_mode(n_max=1):
    b = boson(n_max)
    return CompositeSpace((qubit(), qubit(), b, b))


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestSpaces:
    def test_dims_and_total(self):
        space = two_qubit_two_mode(2)
        assert space.dims == (2, 2, 3, 3)
        assert space.total_dim == 36

    def test_qubit_dimension_fixed(self):
        with pytest.raises(DomainError):
            CompositeSpace((qubit(), boson(0)))

    def test_empty_space_rejected(self):
        with pytest.raises(DomainError):
            CompositeSpace(())


class TestBosonOperators:
    def test_lowest_truncation_matrix(self):
        space = CompositeSpace((boson(1),))
        a = boson_annihilation(space, 0)
        assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        space = CompositeSpace((boson(2),))
        a = boson_annihilation(space, 0)
        n = a.dag() @ a
        assert np.allclose(n.matrix, np.diag([0.0, 1.0, 2.0]))

    def test_truncated_commutator(self):
        # direct matrix product: the canonical commutator breaks in the
        # top level of the truncated ladder
        space = CompositeSpace((boson(2),))
        a = boson_annihilation(space, 0)
        comm = a @ a.dag() - a.dag() @ a
        assert np.allclose(comm.matrix, np.diag([1.0, 1.0, -2.0]))

    def test_number_eigenvalues_below_cutoff(self):
        # the truncated ladder keeps the integer spectrum for every level
        # below the cutoff (sqrt(k)^2 re-rounds to k only within 1 ulp)
        space = CompositeSpace((boson(5),))
        a = boson_annihilation(space, 0)
        n = (a.dag() @ a).matrix
        for k in range(6):
            ket = np.zeros(6)
            ket[k] = 1.0
            assert np.allclose(n @ ket, k * ket, rtol=0, atol=1e-12)

    def test_position_must_be_boson(self):
        space = two_qubit_two_mode()
        with pytest.raises(DomainError):
            boson_annihilation(space, 0)
        with pytest.raises(DomainError):
            boson_annihilation(space, 7)


class TestQubitOperators:
    def test_lowering_matrix(self):
        space = CompositeSpace((qubit(),))
        sm = qubit_lowering(space, 0)
        assert np.array_equal(sm.matrix, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_excited_projector(self):
        space = CompositeSpace((qubit(),))
        sm = qubit_lowering(space, 0)
        assert np.allclose((sm.dag() @ sm).matrix, np.diag([0.0, 1.0]))

    def test_completeness(self):
        space = CompositeSpace((qubit(),))
        sm = qubit_lowering(space, 0)
        total = sm @ sm.dag() + sm.dag() @ sm
        assert np.allclose(total.matrix, np.eye(2))

    def test_position_must_be_qubit(self):
        space = two_qubit_two_mode()
        with pytest.raises(DomainError):
            qubit_lowering(space, 2)


class TestLoweringOperators:
    def test_model_space_order(self):
        # (sigma_1, sigma_2, a_1, a_2) for the (QD1, QD2, mode1, mode2) space
        space = two_qubit_two_mode(2)
        ops = lowering_operators(space)
        expected = (qubit_lowering(space, 0), qubit_lowering(space, 1),
                    boson_annihilation(space, 2), boson_annihilation(space, 3))
        assert len(ops) == 4
        for op, ref in zip(ops, expected):
            assert np.array_equal(op.matrix, ref.matrix)

    def test_cached_per_space(self):
        space = two_qubit_two_mode()
        assert lowering_operators(space) is lowering_operators(two_qubit_two_mode())
        assert not lowering_operators(space)[0].matrix.flags.writeable


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        space = two_qubit_two_mode()
        for k, d in enumerate(space.dims):
            op = embed(np.eye(d), space, k)
            assert np.array_equal(op.matrix, np.eye(space.total_dim))

    def test_distinct_positions_commute(self):
        rng = np.random.default_rng(7)
        space = two_qubit_two_mode()
        for _ in range(5):
            i, j = rng.choice(4, size=2, replace=False)
            di, dj = space.dims[i], space.dims[j]
            x = embed(rng.standard_normal((di, di)) + 1j * rng.standard_normal((di, di)), space, i)
            y = embed(rng.standard_normal((dj, dj)) + 1j * rng.standard_normal((dj, dj)), space, j)
            assert np.allclose((x @ y).matrix, (y @ x).matrix, atol=1e-12)

    def test_dimension_of_embedded_operator(self):
        space = CompositeSpace((qubit(),) * 4)
        op = embed(np.array([[0, 1], [1, 0]]), space, 2)
        assert op.matrix.shape == (16, 16)

    def test_dimension_mismatch(self):
        space = two_qubit_two_mode()
        with pytest.raises(DomainError):
            embed(np.eye(3), space, 0)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        space = CompositeSpace((qubit(), boson(2)))
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        rho = DensityMatrix(space, np.kron(rho_a, rho_b))
        reduced = partial_trace(rho, keep=[0])
        assert np.allclose(reduced.matrix, rho_a, atol=1e-12)

    def test_bell_pair_with_mode_vacua(self):
        space = two_qubit_two_mode()
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1 / np.sqrt(2)   # |00;00>
        psi[12] = 1 / np.sqrt(2)  # |11;00>
        rho = DensityMatrix.from_pure(space, psi)
        reduced = partial_trace(rho, keep=(0, 1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_maximally_mixed(self):
        space = CompositeSpace((qubit(),) * 4)
        rho = DensityMatrix(space, np.eye(16) / 16)
        reduced = partial_trace(rho, keep=(0, 1))
        assert np.allclose(reduced.matrix, np.eye(4) / 4, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        space = two_qubit_two_mode()
        for _ in range(10):
            rho = DensityMatrix(space, random_density(rng, 16))
            reduced = partial_trace(rho, keep=(1, 3))
            assert abs(np.trace(reduced.matrix) - 1) < 1e-12
            assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) < 1e-12

    def test_local_operator_slides_through(self):
        # Tr_B[(X_A (x) I_B) rho] == X_A Tr_B[rho]
        rng = np.random.default_rng(5)
        space = CompositeSpace((qubit(), boson(2)))
        for _ in range(10):
            rho = random_density(rng, 6)
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = partial_trace(
                Operator(space, embed(x, space, 0).matrix @ rho), keep=[0]
            ).matrix
            rhs = x @ partial_trace(Operator(space, rho), keep=[0]).matrix
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_empty_keep_rejected(self):
        space = two_qubit_two_mode()
        rho = DensityMatrix(space, np.eye(16) / 16)
        with pytest.raises(DomainError):
            partial_trace(rho, keep=[])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        space = CompositeSpace((qubit(),))
        with pytest.raises(DomainError):
            DensityMatrix(space, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        space = CompositeSpace((qubit(),))
        with pytest.raises(DomainError):
            DensityMatrix(space, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        space = CompositeSpace((qubit(),))
        with pytest.raises(DomainError):
            DensityMatrix(space, np.diag([1.5, -0.5]))

    def test_basis_state_index_ordering(self):
        space = two_qubit_two_mode()
        rho = DensityMatrix.basis_state(space, (1, 0, 0, 0))
        assert rho.matrix[8, 8] == 1.0  # first qubit is the slowest index

    def test_pure_state_normalization(self):
        space = CompositeSpace((qubit(),))
        rho = DensityMatrix.from_pure(space, [2.0, 0.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
