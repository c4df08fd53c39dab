"""Composite Hilbert spaces, elementary operators and the partial trace.

The tensor-product convention is fixed once at space construction: subsystem 0
is the slowest index (leftmost Kronecker factor).  Qubits are ordered
(ground, excited); truncated bosons are ordered (0, 1, ..., n_max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
import math
from typing import Iterable, Sequence

import numpy as np

from .exceptions import DomainError

__all__ = [
    "NumericPolicy",
    "DEFAULT_POLICY",
    "SubsystemSpec",
    "CompositeSpace",
    "Operator",
    "DensityMatrix",
    "check_density_matrix",
    "qubit",
    "boson",
    "boson_annihilation",
    "qubit_lowering",
    "embed",
    "lowering_operators",
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

# bytes of a stack that each test of check_density_matrix takes at a time.
# On a (801, 16, 16) trajectory stack (2-vCPU Xeon, one BLAS thread; medians
# of 30 calls) blocks of 32, 64, 128, 256, 512 and 1024 KB took 7.1, 5.4,
# 4.5, 4.2, 4.2 and 4.5 ms, the whole stack at once 7.2 ms; at 256 KB the
# tracemalloc peak of a call is 0.53 MB (1.05 MB at 512 KB, 6.6 MB whole)
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
        already validated under ``policy``, for a whole stack at once."""
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
        dims = space.dims
        if len(occupations) != len(dims):
            raise DomainError("one occupation number per subsystem is required")
        index = 0
        for n, d in zip(occupations, dims):
            if not 0 <= n < d:
                raise DomainError(f"occupation {n} out of range for dimension {d}")
            index = index * d + n
        psi = np.zeros(space.total_dim, dtype=complex)
        psi[index] = 1.0
        return DensityMatrix.from_pure(space, psi)


def check_density_matrix(matrix, policy: NumericPolicy = DEFAULT_POLICY) -> None:
    """Check the state invariants of one density matrix or of a
    ``(..., d, d)`` stack of them: Hermitian and unit trace within
    ``policy.algebraic_tol``, no eigenvalue below ``-policy.positivity_slack``.

    The three tests run in that order, each over the whole stack in C order
    before the next starts; the ``DomainError`` names the defect of the
    first offending state.  A NaN defect fails.  Each test takes the stack
    in blocks of ``_CHECK_BLOCK_BYTES``, so its temporaries are bounded by
    one block, not by the stack.
    """
    m = np.asarray(matrix)
    d = m.shape[-1]
    stack = m.reshape((-1, d, d))
    rows = max(1, _CHECK_BLOCK_BYTES // (d * d * m.itemsize))
    blocks = [stack[start:start + rows] for start in range(0, len(stack), rows)]
    for test in (_check_hermitian, _check_trace, _check_positive):
        for block in blocks:
            test(block, policy)


def _check_hermitian(block: np.ndarray, policy: NumericPolicy) -> None:
    defect = _hermiticity_defect(block)
    if not defect.max() <= policy.algebraic_tol:
        first = _first_above(defect, policy.algebraic_tol)
        raise DomainError(f"density matrix is not Hermitian (defect {first:.3e})")


def _check_trace(block: np.ndarray, policy: NumericPolicy) -> None:
    defect = abs(block.trace(0, -2, -1) - 1.0)
    if not defect.max() <= policy.algebraic_tol:
        first = _first_above(defect, policy.algebraic_tol)
        raise DomainError(f"density matrix trace differs from 1 by {first:.3e}")


def _check_positive(block: np.ndarray, policy: NumericPolicy) -> None:
    slack = policy.positivity_slack
    _check_shifted_positive(block + _scaled_identity(block.shape[-1], slack), slack)


def _check_shifted_positive(shifted: np.ndarray, slack: float) -> None:
    """The positivity test of a block of matrices m that already carry
    their slack, ``shifted`` = m + slack * I: it has a Cholesky factor
    exactly when no eigenvalue of m lies below -slack (up to roundoff); the
    factorization costs a fraction of the eigenvalues, which decide only
    when it fails."""
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(shifted)[..., 0] - slack
        if min_eig.min() < -slack:
            first = -_first_above(-min_eig, slack)
            raise DomainError(f"density matrix has negative eigenvalue {first:.3e}")


def _hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """max |m_ij - conj(m_ji)| of each matrix of a ``(..., d, d)`` stack,
    over the pairs i <= j only: the pair (j, i) gives the same number, so
    this equals the maximum of |m - m^H| bit for bit, NaN included."""
    upper, lower = _triangle_pairs(m.shape[-1])
    flat = m.reshape(m.shape[:-2] + (-1,))
    # conjugate and subtract in place on the two gathered halves
    diff = flat.take(upper, axis=-1)
    mirror = flat.take(lower, axis=-1)
    np.subtract(diff, np.conjugate(mirror, out=mirror), out=diff)
    return np.abs(diff).max(axis=-1)


@lru_cache(maxsize=32)
def _triangle_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """C-order flat indices into a dim x dim matrix of the dim (dim + 1) / 2
    entries m_ij with i <= j, and of their mirror entries m_ji in the same
    order.  Two gathers of half the stack each: one gather of both halves
    took 4.7 against 1.2 ms on a (801, 16, 16) trajectory stack (2-vCPU
    Xeon, one BLAS thread)."""
    i, j = np.triu_indices(dim)
    upper, lower = i * dim + j, j * dim + i
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@lru_cache(maxsize=32)
def _scaled_identity(dim: int, scale: float) -> np.ndarray:
    out = scale * np.eye(dim)
    out.flags.writeable = False
    return out


def _first_above(values, limit: float) -> float:
    """First entry of ``values`` (C order) that is not <= ``limit``."""
    values = np.ravel(values)
    return float(values[np.argmax(~(values <= limit))])


def _local_annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed(local, space: CompositeSpace, position: int) -> Operator:
    """Embed a single-subsystem matrix with identities on all other factors."""
    sub = space._check_position(position)
    local = np.asarray(local, dtype=complex)
    if local.shape != (sub.dim, sub.dim):
        raise DomainError(
            f"local matrix has shape {local.shape}, subsystem {position} "
            f"has dimension {sub.dim}"
        )
    factors = [
        local if k == position else np.eye(d, dtype=complex)
        for k, d in enumerate(space.dims)
    ]
    full = reduce(np.kron, factors)
    return Operator(space, full)


def boson_annihilation(space: CompositeSpace, position: int) -> Operator:
    """Photon destruction operator of the mode at ``position``."""
    sub = space._check_position(position, kind="boson")
    return embed(_local_annihilation(sub.dim), space, position)


def qubit_lowering(space: CompositeSpace, position: int) -> Operator:
    """Lowering operator |g><e| of the two-level system at ``position``."""
    space._check_position(position, kind="qubit")
    return embed(np.array([[0, 1], [0, 0]], dtype=complex), space, position)


@lru_cache(maxsize=16)
def lowering_operators(space: CompositeSpace) -> tuple[Operator, ...]:
    """Lowering operator of every subsystem, in subsystem order: |g><e| for
    a qubit, the truncated photon destruction operator for a boson.

    For the model space (QD1, QD2, mode1, mode2) this is (sigma_1, sigma_2,
    a_1, a_2).  Cached per space; the operators are immutable.
    """
    return tuple(
        qubit_lowering(space, k) if sub.kind == "qubit"
        else boson_annihilation(space, k)
        for k, sub in enumerate(space.subsystems)
    )


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
