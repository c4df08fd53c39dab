from functools import reduce
import tracemalloc

import numpy as np
import pytest

from pcdimer.exceptions import DomainError
from pcdimer.hilbert import (
    DEFAULT_POLICY,
    CompositeSpace,
    DensityMatrix,
    Operator,
    basis_index,
    boson,
    boson_annihilation,
    _CHECK_BLOCK_BYTES,
    check_coordinates,
    check_density_matrix,
    hermitian_coordinates,
    lowering_operators,
    occupation_table,
    partial_trace,
    _partial_trace_matrix,
    qubit,
    qubit_lowering,
)


def two_qubit_two_mode(n_max=1):
    b = boson(n_max)
    return CompositeSpace((qubit(), qubit(), b, b))


def kron_lowering(dims, position):
    """The lowering operator of subsystem ``position`` as a Kronecker product
    of its local ladder and identities, subsystem 0 leftmost."""
    local = np.diag(np.sqrt(np.arange(1, dims[position], dtype=float)), 1)
    factors = [local if k == position else np.eye(d) for k, d in enumerate(dims)]
    return reduce(np.kron, factors).astype(complex)


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
        a = boson_annihilation(space, 0).matrix
        n = a.conj().T @ a
        assert np.allclose(n, np.diag([0.0, 1.0, 2.0]))

    def test_truncated_commutator(self):
        # direct matrix product: the canonical commutator breaks in the
        # top level of the truncated ladder
        space = CompositeSpace((boson(2),))
        a = boson_annihilation(space, 0).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm, np.diag([1.0, 1.0, -2.0]))

    def test_number_eigenvalues_below_cutoff(self):
        # the truncated ladder keeps the integer spectrum for every level
        # below the cutoff (sqrt(k)^2 re-rounds to k only within 1 ulp)
        space = CompositeSpace((boson(5),))
        a = boson_annihilation(space, 0).matrix
        n = a.conj().T @ a
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
        sm = qubit_lowering(space, 0).matrix
        assert np.allclose(sm.conj().T @ sm, np.diag([0.0, 1.0]))

    def test_completeness(self):
        space = CompositeSpace((qubit(),))
        sm = qubit_lowering(space, 0).matrix
        total = sm @ sm.conj().T + sm.conj().T @ sm
        assert np.allclose(total, np.eye(2))

    def test_position_must_be_qubit(self):
        space = two_qubit_two_mode()
        with pytest.raises(DomainError):
            qubit_lowering(space, 2)


class TestLoweringOperators:
    def test_model_space_order(self):
        # (sigma_1, sigma_2, a_1, a_2) for the (QD1, QD2, mode1, mode2)
        # space; the per-kind accessors return the same cached operators
        space = two_qubit_two_mode(2)
        ops = lowering_operators(space)
        assert len(ops) == 4
        for k, op in enumerate(ops):
            assert op.matrix.tobytes() == kron_lowering(space.dims, k).tobytes()
        accessors = (qubit_lowering, qubit_lowering, boson_annihilation, boson_annihilation)
        for k, accessor in enumerate(accessors):
            assert accessor(space, k) is ops[k]

    @pytest.mark.parametrize("subsystems", [
        (qubit(), boson(2), qubit(), boson(3)),
        (boson(1), qubit(), boson(2)),
        (boson(3), boson(1), qubit(), qubit()),
    ], ids=["q_b2_q_b3", "b1_q_b2", "b3_b1_q_q"])
    def test_bit_identical_to_kronecker_reference(self, subsystems):
        space = CompositeSpace(subsystems)
        ops = lowering_operators(space)
        assert len(ops) == len(subsystems)
        for k, op in enumerate(ops):
            reference = kron_lowering(space.dims, k)
            assert op.matrix.dtype == reference.dtype
            assert op.matrix.tobytes() == reference.tobytes()

    def test_distinct_positions_commute(self):
        space = CompositeSpace((qubit(), boson(2), qubit(), boson(1)))
        ops = [op.matrix for op in lowering_operators(space)]
        for i in range(4):
            for j in range(i + 1, 4):
                x, y = ops[i], ops[j]
                assert np.allclose(x @ y, y @ x, rtol=0, atol=1e-12)
                assert np.allclose(x @ y.conj().T, y.conj().T @ x, rtol=0, atol=1e-12)

    def test_dimension_on_four_qubits(self):
        # sigma at position 2 takes |0010> (index 2) to |0000> and nothing else
        space = CompositeSpace((qubit(),) * 4)
        sm = lowering_operators(space)[2].matrix
        assert sm.shape == (16, 16)
        assert list(zip(*np.nonzero(sm))) == [(0, 2), (1, 3), (4, 6), (5, 7),
                                              (8, 10), (9, 11), (12, 14), (13, 15)]

    def test_cached_per_space(self):
        space = two_qubit_two_mode()
        assert lowering_operators(space) is lowering_operators(two_qubit_two_mode())
        assert not lowering_operators(space)[0].matrix.flags.writeable


class TestOccupationTable:
    def test_rows_in_kronecker_order(self):
        space = CompositeSpace((qubit(), boson(2)))
        table = occupation_table(space)
        assert table.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
        assert not table.flags.writeable
        assert occupation_table(space) is occupation_table(CompositeSpace((qubit(), boson(2))))

    def test_index_inverts_the_table(self):
        space = two_qubit_two_mode(2)
        table = occupation_table(space)
        assert [basis_index(space, row) for row in table.astype(int).tolist()] == list(
            range(space.total_dim))
        # dims (2, 2, 3, 3): strides 18, 9, 3, 1
        assert basis_index(space, np.array([1, 0, 2, 1])) == 18 + 2 * 3 + 1

    @pytest.mark.parametrize("occupations", [
        (0, 0, 0.5, 0), (0, 0, 2, 0), (-1, 0, 0, 0), (0, 0, 0), (0, 0, 0, 0, 0),
        (0, 0, None, 0),
    ], ids=["fractional", "above_cutoff", "negative", "too_few", "too_many", "none"])
    def test_rejects_occupations_of_no_basis_state(self, occupations):
        space = two_qubit_two_mode()
        with pytest.raises(DomainError):
            basis_index(space, occupations)
        with pytest.raises(DomainError):
            DensityMatrix.basis_state(space, occupations)


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
                Operator(space, np.kron(x, np.eye(3)) @ rho), keep=[0]
            ).matrix
            rhs = x @ partial_trace(Operator(space, rho), keep=[0]).matrix
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(17)
        space = two_qubit_two_mode()
        stack = np.array([random_density(rng, 16) for _ in range(5)])
        for keep in ((0, 1), (1, 3), (2,)):
            reduced = _partial_trace_matrix(stack, space.dims, keep)
            for rho, red in zip(stack, reduced, strict=True):
                single = partial_trace(Operator(space, rho), keep).matrix
                assert np.array_equal(red, single)

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

    def test_positivity_slack_boundary(self):
        # the default slack is 1e-9: a dip just inside passes, just beyond
        # fails and names the eigenvalue
        space = CompositeSpace((qubit(),))
        DensityMatrix(space, np.diag([1.0 + 0.9e-9, -0.9e-9]))
        with pytest.raises(DomainError, match="negative eigenvalue -1.100e-09"):
            DensityMatrix(space, np.diag([1.0 + 1.1e-9, -1.1e-9]))

    def test_nan_rejected(self):
        space = CompositeSpace((qubit(),))
        with pytest.raises(DomainError, match="not Hermitian"):
            DensityMatrix(space, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_basis_state_index_ordering(self):
        space = two_qubit_two_mode()
        rho = DensityMatrix.basis_state(space, (1, 0, 0, 0))
        assert rho.matrix[8, 8] == 1.0  # first qubit is the slowest index

    def test_pure_state_normalization(self):
        space = CompositeSpace((qubit(),))
        rho = DensityMatrix.from_pure(space, [2.0, 0.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


class TestCheckDensityMatrix:
    """The stack check raises exactly what the one-state path raises."""

    SPACE = CompositeSpace((qubit(),))
    GOOD = np.diag([0.25, 0.75]).astype(complex)
    NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    WRONG_TRACE = np.diag([0.5, 0.6]).astype(complex)
    NON_POSITIVE = np.diag([1.5, -0.5]).astype(complex)

    def single_error(self, matrix):
        with pytest.raises(DomainError) as exc_info:
            DensityMatrix(self.SPACE, matrix)
        return str(exc_info.value)

    @pytest.mark.parametrize("order, culprit", [
        (("GOOD", "NON_HERMITIAN", "WRONG_TRACE", "NON_POSITIVE"), "NON_HERMITIAN"),
        (("NON_POSITIVE", "WRONG_TRACE", "NON_HERMITIAN"), "NON_HERMITIAN"),
        (("GOOD", "NON_POSITIVE", "WRONG_TRACE"), "WRONG_TRACE"),
        (("GOOD", "GOOD", "NON_POSITIVE"), "NON_POSITIVE"),
    ])
    def test_same_error_as_single_state(self, order, culprit):
        stack = np.array([getattr(self, name) for name in order])
        with pytest.raises(DomainError) as exc_info:
            check_density_matrix(stack)
        assert str(exc_info.value) == self.single_error(getattr(self, culprit))

    def test_first_offending_state_is_named(self):
        worse = np.diag([1.9, -0.9]).astype(complex)
        stack = np.array([self.GOOD, self.NON_POSITIVE, worse])
        with pytest.raises(DomainError) as exc_info:
            check_density_matrix(stack)
        assert str(exc_info.value) == self.single_error(self.NON_POSITIVE)

    @pytest.mark.parametrize("entry", [1e-6, np.nan])
    def test_hermiticity_error_names_the_first_offender(self, entry):
        # the message of the full-matrix defect, for a stack with one
        # non-Hermitian member and for one NaN entry
        rng = np.random.default_rng(29)
        stack = np.array([random_density(rng, 16) for _ in range(5)])
        stack[3, 2, 9] += entry
        full = np.abs(stack - stack.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
        with pytest.raises(DomainError) as exc_info:
            check_density_matrix(stack)
        assert str(exc_info.value) == (
            f"density matrix is not Hermitian (defect {full[3]:.3e})")

    def test_valid_stack_passes(self):
        rng = np.random.default_rng(23)
        stack = np.array([random_density(rng, 16) for _ in range(7)])
        check_density_matrix(stack.reshape(7, 1, 16, 16))

    @staticmethod
    def long_stack(n):
        """n valid 16 x 16 states, more than three check blocks."""
        rng = np.random.default_rng(31)
        stack = np.array([random_density(rng, 16) for _ in range(n)])
        assert stack.nbytes > 3 * _CHECK_BLOCK_BYTES
        return stack

    @pytest.mark.parametrize("late, message", [
        ("non_hermitian", "density matrix is not Hermitian (defect 1.000e-06)"),
        ("wrong_trace", "density matrix trace differs from 1 by 1.000e-01"),
        ("nan", "density matrix is not Hermitian (defect nan)"),
    ])
    def test_tests_keep_their_order_across_blocks(self, late, message):
        # a non-positive state in the first block does not pre-empt a
        # Hermiticity or trace defect in the last block: each test runs
        # over the whole stack before the next one starts
        stack = self.long_stack(250)
        stack[3] = np.diag([1.5, -0.5] + [0.0] * 14)
        if late == "non_hermitian":
            stack[-2, 2, 9] += 1e-6
        elif late == "wrong_trace":
            stack[-2] *= 1.1
        else:
            stack[-1, 5, 5] = np.nan
        with pytest.raises(DomainError) as exc_info:
            check_density_matrix(stack)
        assert str(exc_info.value) == message

    def test_blocked_stack_names_its_first_non_positive_state(self):
        # two non-positive states in different blocks: the earlier one is
        # named; the states before it pass
        stack = self.long_stack(250)
        stack[100] = np.diag([1.7, -0.7] + [0.0] * 14)
        stack[240] = np.diag([1.9, -0.9] + [0.0] * 14)
        assert 240 * stack[0].nbytes >= 2 * _CHECK_BLOCK_BYTES
        with pytest.raises(DomainError,
                           match="negative eigenvalue -7.000e-01"):
            check_density_matrix(stack)
        check_density_matrix(stack[:100])

    def test_trajectory_stack_footprint(self):
        # the coordinates of an (801, 16, 16) trajectory stack are checked
        # block by block: the temporaries of one gathered block, not of the
        # whole stack (3.3 MB of complex matrices)
        stack = np.broadcast_to(random_density(np.random.default_rng(37), 16),
                                (801, 16, 16))
        x = hermitian_coordinates(stack, 16)
        assert x.shape == (801, 256)
        check_coordinates(x, 16, DEFAULT_POLICY)  # fill the per-dimension caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            check_coordinates(x, 16, DEFAULT_POLICY)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1e6
