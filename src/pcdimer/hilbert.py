"""Composite Hilbert spaces, elementary operators, the partial trace, and
the one format and the one check of states.

The basis is fixed once per space by its occupation table
(``occupation_table``): row i holds the occupations of basis state i,
subsystem 0 slowest (the leftmost Kronecker factor), and ``basis_index`` is
the one lookup back.  Qubits are ordered (ground, excited); truncated bosons
are ordered (0, 1, ..., n_max).  Every reader of the basis layout reads the
table.

A state of dimension d is carried as its d^2 real coordinates over an
orthonormal basis of Hermitian operators (``hermitian_basis``): the d
populations, then sqrt(2) Re rho_ij and sqrt(2) Im rho_ij for each i < j in
row-major order.  Steady states, trajectories and reduced states all take
this format, and ``check_coordinates`` is the one trace and positivity test
of states; ``check_density_matrix`` adds the Hermiticity test for matrices
from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError

__all__ = [
    "NumericPolicy",
    "DEFAULT_POLICY",
    "SubsystemSpec",
    "CompositeSpace",
    "Operator",
    "DensityMatrix",
    "check_coordinates",
    "check_density_matrix",
    "hermitian_basis",
    "hermitian_coordinates",
    "hermitian_matrices",
    "inverse_gather",
    "qubit",
    "boson",
    "basis_index",
    "boson_annihilation",
    "qubit_lowering",
    "lowering_operators",
    "occupation_table",
    "partial_trace",
]


@dataclass(frozen=True)
class NumericPolicy:
    """Central tolerance record used by all validation checks.

    Attributes
    ----------
    algebraic_tol : float
        Tolerance for algebraic identities (Hermiticity, unit trace, ...).
    positivity_slack : float
        How far below zero an eigenvalue of a density matrix may dip
        before the state is rejected.
    """

    algebraic_tol: float = 1e-10
    positivity_slack: float = 1e-9


DEFAULT_POLICY = NumericPolicy()

# bytes of complex matrices that the positivity test of check_coordinates
# gathers from the coordinates at a time.  On the coordinates of an
# (801, 16, 16) trajectory stack (2-vCPU machine, one BLAS thread; medians of
# 40 interleaved calls) blocks of 64, 128, 256, 512, 1024 and 4096 KB took
# 4.4, 3.8, 3.6, 3.6, 3.8 and 3.9 ms; at 256 KB the tracemalloc peak of a call
# is 0.60 MB (6.6 MB at 4096 KB, the whole stack at once)
_CHECK_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SubsystemSpec:
    """One tensor factor: a two-level system or a truncated bosonic mode."""

    kind: str  # "qubit" or "boson"
    dim: int

    def __post_init__(self):
        if self.kind not in ("qubit", "boson"):
            raise DomainError(f"unknown subsystem kind {self.kind!r}")
        if self.dim < 2:
            raise DomainError(f"subsystem dimension must be >= 2, got {self.dim}")
        if self.kind == "qubit" and self.dim != 2:
            raise DomainError("a qubit has dimension exactly 2")


def qubit() -> SubsystemSpec:
    return SubsystemSpec("qubit", 2)


def boson(n_max: int) -> SubsystemSpec:
    """Bosonic mode truncated at occupation ``n_max`` (dimension n_max + 1)."""
    return SubsystemSpec("boson", n_max + 1)


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of subsystems; ordering is immutable."""

    subsystems: tuple[SubsystemSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        if not self.subsystems:
            raise DomainError("a composite space needs at least one subsystem")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def total_dim(self) -> int:
        return math.prod(s.dim for s in self.subsystems)

    def _check_position(self, position: int, kind: str | None = None) -> SubsystemSpec:
        if not 0 <= position < len(self.subsystems):
            raise DomainError(
                f"subsystem index {position} out of range for {len(self.subsystems)} subsystems"
            )
        sub = self.subsystems[position]
        if kind is not None and sub.kind != kind:
            raise DomainError(f"subsystem {position} is a {sub.kind}, expected a {kind}")
        return sub

    def subspace(self, keep: Sequence[int]) -> "CompositeSpace":
        return CompositeSpace(tuple(self.subsystems[k] for k in keep))


@dataclass(frozen=True)
class Operator:
    """A square complex matrix tagged with the space it acts on, copied
    read-only at construction; products and sums are taken on ``matrix``."""

    space: CompositeSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise DomainError(
                f"operator matrix has shape {mat.shape}, expected ({d}, {d})"
            )
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


class DensityMatrix(Operator):
    """Operator that additionally satisfies the state invariants:
    Hermitian, unit trace and positive semidefinite (within the policy)."""

    def __init__(self, space: CompositeSpace, matrix,
                 policy: NumericPolicy = DEFAULT_POLICY):
        super().__init__(space=space, matrix=matrix)
        object.__setattr__(self, "policy", policy)
        check_density_matrix(self.matrix, policy)

    @classmethod
    def _checked(cls, space: CompositeSpace, matrix: np.ndarray,
                 policy: NumericPolicy) -> "DensityMatrix":
        """An instance whose read-only complex ``matrix`` its producer has
        already validated under ``policy``: a steady-state solve checks the
        coordinates of its whole batch at once, and gathers the matrix from
        them."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "policy", policy)
        return self

    @staticmethod
    def from_pure(space: CompositeSpace, amplitudes) -> "DensityMatrix":
        """Density matrix |psi><psi| of a (normalized) pure state."""
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        if psi.shape != (space.total_dim,):
            raise DomainError(
                f"state vector has length {psi.size}, expected {space.total_dim}"
            )
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise DomainError("cannot normalize the zero vector")
        psi = psi / norm
        return DensityMatrix(space, np.outer(psi, psi.conj()))

    @staticmethod
    def basis_state(space: CompositeSpace,
                    occupations: Sequence[int]) -> "DensityMatrix":
        """Product basis state |n_0 n_1 ... n_k> as a density matrix."""
        psi = np.zeros(space.total_dim, dtype=complex)
        psi[basis_index(space, occupations)] = 1.0
        return DensityMatrix.from_pure(space, psi)


@lru_cache(maxsize=8)
def inverse_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """U^H of ``hermitian_basis`` as an index map: for the real and the
    imaginary part of each C-order entry of rho, interleaved, the
    coordinate it copies and the factor it takes (1 for a population,
    +-sqrt(1/2) for a coherence, 0 for the imaginary part of a
    population)."""
    i, j = np.triu_indices(d, 1)
    upper, lower = i * d + j, j * d + i
    re = d + 2 * np.arange(i.size)
    source = np.zeros((d * d, 2), dtype=np.intp)
    factor = np.zeros((d * d, 2))
    source[::d + 1, 0] = np.arange(d)
    factor[::d + 1, 0] = 1.0
    source[upper] = source[lower] = np.column_stack((re, re + 1))
    factor[upper] = np.sqrt(0.5)
    factor[lower] = np.sqrt(0.5), -np.sqrt(0.5)
    source, factor = source.ravel(), factor.ravel()
    source.flags.writeable = factor.flags.writeable = False
    return source, factor


@lru_cache(maxsize=8)
def _forward_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The real part of U as an index map: for each coordinate, the two
    parts of the interleaved real and imaginary parts of the C-order
    entries it reads, (2, d^2), and their factors, (2, d^2): a population
    reads the real part of its diagonal entry (twice, with factors 1 and
    0), sqrt(2) Re rho_ij the real parts of rho_ij and rho_ji, and
    sqrt(2) Im rho_ij their imaginary parts with factors +-sqrt(1/2)."""
    i, j = np.triu_indices(d, 1)
    upper, lower = 2 * (i * d + j), 2 * (j * d + i)
    parts = np.empty((2, d * d), dtype=np.intp)
    weights = np.full((2, d * d), np.sqrt(0.5))
    parts[:, :d] = 2 * (d + 1) * np.arange(d)
    weights[:, :d] = [[1.0], [0.0]]
    parts[:, d::2] = upper, lower
    parts[:, d + 1::2] = upper + 1, lower + 1
    weights[1, d + 1::2] = -np.sqrt(0.5)
    parts.flags.writeable = weights.flags.writeable = False
    return parts, weights


@lru_cache(maxsize=8)
def hermitian_basis(d: int) -> sp.csr_matrix:
    """Sparse unitary U from column-stacked vec(rho) to the real coordinates
    of a Hermitian d x d matrix: the d populations rho_ii, then
    sqrt(2) Re rho_ij and sqrt(2) Im rho_ij for each i < j in row-major
    order.

    The coordinates expand rho over an orthonormal basis of Hermitian
    operators, so U L U^H is a real matrix for every generator L that
    preserves Hermiticity (Alicki & Lendi, Quantum Dynamical Semigroups and
    Applications, LNP 286 (1987)).  Cached per dimension; do not modify.
    """
    source, factor = inverse_gather(d)
    # U^H puts factor x[source] into the real part and i factor x[source]
    # into the imaginary part of C-order entry e = i d + j, which sits at
    # i + j d of vec(rho); U is its conjugate transpose
    entry = np.repeat(np.arange(d * d), 2)
    values = factor * np.tile([1.0, -1j], d * d)
    keep = factor != 0
    return sp.csr_matrix(
        (values[keep], (source[keep], (entry % d * d + entry // d)[keep])),
        shape=(d * d, d * d))


def hermitian_matrices(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian (..., d, d) matrices of a real (..., d^2) array of
    ``hermitian_basis`` coordinates: the inverse of U as one gather of the
    real and imaginary parts, Hermitian by construction (each coherence
    and its transpose copy the same coordinates, the imaginary part with
    opposite signs)."""
    source, factor = inverse_gather(d)
    parts = np.take(np.asarray(x, dtype=float), source, axis=-1)
    parts *= factor
    return parts.view(complex).reshape(parts.shape[:-1] + (d, d))


def hermitian_coordinates(matrices: np.ndarray, d: int) -> np.ndarray:
    """The real (..., d^2) ``hermitian_basis`` coordinates of a stack of
    (..., d, d) matrices: the real part of U vec(rho), which is exactly the
    coordinates of the Hermitian part (rho + rho^dag) / 2, as two gathers
    of the real and imaginary parts; the inverse of
    ``hermitian_matrices``."""
    parts, weights = _forward_gather(d)
    flat = np.ascontiguousarray(matrices, dtype=complex).view(float)
    flat = flat.reshape(flat.shape[:-2] + (-1,))
    x = np.take(flat, parts[0], axis=-1)
    x *= weights[0]
    second = np.take(flat, parts[1], axis=-1)
    second *= weights[1]
    x += second
    return x


def check_density_matrix(matrix, policy: NumericPolicy = DEFAULT_POLICY) -> None:
    """Check the state invariants of one density matrix or of a
    ``(..., d, d)`` stack of them: Hermitian within ``policy.algebraic_tol``
    (the largest entry of |m - m^H| of each state; a NaN defect fails), then
    the trace and positivity tests of ``check_coordinates`` on the
    ``hermitian_coordinates`` of the stack, which are those of its Hermitian
    part.  Each test runs over the whole stack before the next starts; the
    ``DomainError`` names the defect of the first offending state.
    """
    m = np.asarray(matrix)
    d = m.shape[-1]
    defect = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max(axis=(-2, -1))
    if not np.max(defect, initial=0.0) <= policy.algebraic_tol:
        first = _first_above(defect, policy.algebraic_tol)
        raise DomainError(f"density matrix is not Hermitian (defect {first:.3e})")
    check_coordinates(hermitian_coordinates(m, d), d, policy)


def check_coordinates(x, d: int, policy: NumericPolicy) -> None:
    """Check the state invariants of one state or of a stack of states given
    by their real ``(..., d^2)`` ``hermitian_basis`` coordinates ``x``: the
    population coordinates of each state sum to 1 within
    ``policy.algebraic_tol``, then no state has an eigenvalue below
    ``-policy.positivity_slack``.  Each test runs over all states before the
    next starts; the ``DomainError`` names the defect of the first offending
    state.  The states need no Hermiticity test: one coordinate feeds both
    entries of each coherence pair.

    Positivity is a Cholesky test of m + slack I, which has a factor exactly
    when no eigenvalue of m lies below -slack (up to roundoff), on blocks of
    at most ``_CHECK_BLOCK_BYTES`` of complex matrices gathered from the
    coordinates, the slack added to their diagonals, so its temporaries are
    bounded by one block.  The factorization costs a fraction of the
    eigenvalues, which decide only when it fails.
    """
    x = np.reshape(x, (-1, d * d))
    defect = np.abs(x[:, :d].sum(axis=1) - 1.0)
    if not np.max(defect, initial=0.0) <= policy.algebraic_tol:
        first = _first_above(defect, policy.algebraic_tol)
        raise DomainError(f"density matrix trace differs from 1 by {first:.3e}")
    slack = policy.positivity_slack
    rows = max(1, _CHECK_BLOCK_BYTES // (d * d * np.dtype(complex).itemsize))
    for start in range(0, len(x), rows):
        shifted = hermitian_matrices(x[start:start + rows], d)
        shifted.reshape(len(shifted), -1)[:, ::d + 1] += slack
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = np.linalg.eigvalsh(shifted)[:, 0] - slack
            if min_eig.min() < -slack:
                first = -_first_above(-min_eig, slack)
                raise DomainError(f"density matrix has negative eigenvalue {first:.3e}")


def _first_above(values, limit: float) -> float:
    """First entry of ``values`` (C order) that is not <= ``limit``."""
    values = np.ravel(values)
    return float(values[np.argmax(~(values <= limit))])


@lru_cache(maxsize=16)
def occupation_table(space: CompositeSpace) -> np.ndarray:
    """The read-only (d, k) table of the basis: row i holds the occupations
    of basis state i, one per subsystem, subsystem 0 slowest.  Float, so
    that the population coordinates times it are the Tr(n_k rho).  Cached
    per space."""
    dims = space.dims
    table = np.indices(dims, dtype=float).reshape(len(dims), -1).T
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _basis_indices(space: CompositeSpace) -> dict[tuple, int]:
    """Basis index of each row of ``occupation_table``, keyed by the row."""
    return {tuple(row): i for i, row in enumerate(occupation_table(space).tolist())}


def basis_index(space: CompositeSpace, occupations: Sequence[int]) -> int:
    """Index of the basis state with the given occupations, one per
    subsystem; ``DomainError`` when no basis state has them."""
    try:
        return _basis_indices(space)[tuple(occupations)]
    except (KeyError, TypeError):
        raise DomainError(f"no basis state has occupations {tuple(occupations)}") from None


def boson_annihilation(space: CompositeSpace, position: int) -> Operator:
    """Photon destruction operator of the mode at ``position``."""
    space._check_position(position, kind="boson")
    return lowering_operators(space)[position]


def qubit_lowering(space: CompositeSpace, position: int) -> Operator:
    """Lowering operator |g><e| of the two-level system at ``position``."""
    space._check_position(position, kind="qubit")
    return lowering_operators(space)[position]


@lru_cache(maxsize=16)
def lowering_operators(space: CompositeSpace) -> tuple[Operator, ...]:
    """Lowering operator of every subsystem, in subsystem order, each
    sqrt(n_k) |n - e_k><n| over the basis states n of ``occupation_table``:
    |g><e| for a qubit (n_k <= 1), the truncated photon destruction
    operator for a boson.

    For the model space (QD1, QD2, mode1, mode2) this is (sigma_1, sigma_2,
    a_1, a_2).  Cached per space; the operators are immutable.
    """
    table = occupation_table(space)
    operators = []
    for k, unit in enumerate(np.eye(table.shape[1])):
        columns = np.flatnonzero(table[:, k])
        rows = [basis_index(space, n) for n in (table[columns] - unit).tolist()]
        matrix = np.zeros((len(table), len(table)), dtype=complex)
        matrix[rows, columns] = np.sqrt(table[columns, k])
        operators.append(Operator(space, matrix))
    return tuple(operators)


@lru_cache(maxsize=64)
def _partial_trace_subscripts(dims: tuple[int, ...], keep: tuple[int, ...]):
    """einsum subscripts that trace out every subsystem not in ``keep``
    (sorted), over any leading stack axes, and the kept dimension."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for k in range(n):
        if k not in keep:
            col[k] = row[k]  # contracted index
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return "..." + "".join(row) + "".join(col) + "->..." + out, d_keep


def _partial_trace_matrix(matrix: np.ndarray, dims: Sequence[int],
                          keep: Sequence[int]) -> np.ndarray:
    """Partial trace of one matrix or of a ``(..., D, D)`` stack."""
    dims = tuple(dims)
    subscripts, d_keep = _partial_trace_subscripts(dims, tuple(sorted(keep)))
    batch = matrix.shape[:-2]
    reduced = np.einsum(subscripts, matrix.reshape(batch + dims + dims))
    return reduced.reshape(batch + (d_keep, d_keep))


def partial_trace(op, keep: Iterable[int]):
    """Trace out every subsystem not listed in ``keep``.

    The kept subsystems retain their original relative order.  Returns a
    ``DensityMatrix`` for density-matrix input, otherwise an ``Operator``.
    """
    keep = sorted(set(keep))
    if not keep:
        raise DomainError("keep set must not be empty")
    space = op.space
    for k in keep:
        space._check_position(k)
    reduced = _partial_trace_matrix(op.matrix, space.dims, keep)
    sub_space = space.subspace(keep)
    if isinstance(op, DensityMatrix):
        return DensityMatrix(sub_space, reduced, op.policy)
    return Operator(sub_space, reduced)
