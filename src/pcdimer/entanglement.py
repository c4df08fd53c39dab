"""Two-qubit entanglement quantified by the negativity of the partial transpose.

The two-qubit basis is ordered (|00>, |01>, |10>, |11>) and the partial
transpose is taken with respect to the first qubit.  The partial transpose
and the negativity accept one 4x4 matrix or a ``(..., 4, 4)`` stack.
Eigenvalues inside (-EIGENVALUE_NOISE_FLOOR, 0) are treated as zero so that
roundoff cannot produce a spurious nonzero negativity.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError
from .hilbert import CompositeSpace, DensityMatrix, partial_trace, qubit

__all__ = [
    "TWO_QUBIT_SPACE",
    "EIGENVALUE_NOISE_FLOOR",
    "bell_state",
    "partial_transpose_first",
    "negativity",
    "qd_negativity",
]

TWO_QUBIT_SPACE = CompositeSpace((qubit(), qubit()))

EIGENVALUE_NOISE_FLOOR = 1e-12

_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_state(kind: str) -> DensityMatrix:
    """Density matrix of one of the four Bell states ('phi+', 'phi-', 'psi+', 'psi-')."""
    try:
        psi = _BELL_VECTORS[kind]
    except KeyError:
        raise DomainError(
            f"unknown Bell state {kind!r}; choose from {sorted(_BELL_VECTORS)}"
        ) from None
    return DensityMatrix.from_pure(TWO_QUBIT_SPACE, psi)


def _as_two_qubit_matrix(rho) -> np.ndarray:
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 two-qubit matrix, got shape {m.shape}")
    return m


def partial_transpose_first(rho) -> np.ndarray:
    """Partial transpose with respect to the first qubit.

    Implements <a1 a2|rho^T1|a1' a2'> = <a1' a2|rho|a1 a2'>; the output is
    Hermitian with the same trace as the input.
    """
    m = _as_two_qubit_matrix(rho)
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(m.shape)


def negativity(rho):
    """Absolute sum of the negative eigenvalues of the partial transpose.

    Ranges from 0 (separable) to 0.5 (maximally entangled Bell states).
    Returns a float for one matrix and an array for a stack.
    """
    magnitudes = -np.linalg.eigvalsh(partial_transpose_first(rho))
    magnitudes[magnitudes <= EIGENVALUE_NOISE_FLOOR] = 0.0
    result = magnitudes.sum(axis=-1)
    return float(result) if result.ndim == 0 else result


def qd_negativity(rho_full: DensityMatrix) -> float:
    """Negativity of the two emitters after tracing out the photonic modes.

    Expects a state on the (qubit, qubit, boson, boson) composite space.
    """
    kinds = tuple(s.kind for s in rho_full.space.subsystems)
    if len(kinds) < 2 or kinds[0] != "qubit" or kinds[1] != "qubit":
        raise DomainError(
            "expected a space whose first two subsystems are the emitter qubits"
        )
    reduced = partial_trace(rho_full, keep=(0, 1))
    return negativity(reduced)
