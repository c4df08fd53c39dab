"""Sparse assembly of the Lindblad generator.

Vectorization is column-stacking throughout: ``vec(rho) = rho.ravel(order="F")``
and ``vec(A rho B) = (B^T kron A) vec(rho)``.  All superoperator formulas in
this module are written against that convention.

Hamiltonians and jump rates enter hbar-scaled (in ueV); the generator divides
by ``HBAR_UEV_PS`` exactly once at assembly, so an assembled Liouvillian has
units of 1/ps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .hilbert import DEFAULT_POLICY, CompositeSpace, Operator
from .model import (
    HBAR_UEV_PS,
    SystemParams,
    build_effective_hamiltonian,
    jump_operators,
)

__all__ = [
    "Superoperator",
    "assemble_generator",
    "build_liouvillian",
]


@dataclass(frozen=True)
class Superoperator:
    """Sparse matrix of dimension D^2 x D^2 acting on column-stacked states.

    ``h_eff`` is the read-only D x D no-jump Hamiltonian
    H - (i/2) sum r C^dag C of the generator, divided by hbar (1/ps): the
    generator is X -> -i (h_eff X - X h_eff^dag) plus the recycling terms
    sum r C X C^dag.  Trace preservation (the vectorized identity is a left
    null vector) is checked at construction.  Instances are treated as
    immutable and may be shared freely across workers.
    """

    space: CompositeSpace
    matrix: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.space.total_dim
        d2 = d * d
        if self.matrix.shape != (d2, d2):
            raise DomainError(
                f"superoperator has shape {self.matrix.shape}, expected ({d2}, {d2})"
            )
        h_eff = np.asarray(self.h_eff, dtype=complex)
        if h_eff.shape != (d, d):
            raise DomainError(
                f"no-jump Hamiltonian has shape {h_eff.shape}, expected ({d}, {d})"
            )
        h_eff.flags.writeable = False
        object.__setattr__(self, "h_eff", h_eff)
        if not isinstance(self.matrix, sp.csr_matrix):
            raise DomainError(
                "superoperator matrix must be a scipy.sparse.csr_matrix, got "
                f"{type(self.matrix).__name__}"
            )
        defect = self.trace_defect()
        scale = max(1.0, np.abs(self.matrix.data).max() if self.matrix.nnz else 1.0)
        if defect > DEFAULT_POLICY.algebraic_tol * scale:
            raise DomainError(
                f"superoperator does not preserve the trace (defect {defect:.3e})"
            )

    def trace_defect(self) -> float:
        """Max magnitude of <<I| L, zero for a trace-preserving generator."""
        bra = identity_bra(self.space)
        return float(np.max(np.abs(bra @ self.matrix)))


def identity_bra(space: CompositeSpace) -> np.ndarray:
    """Row vector <<I| whose pairing with vec(rho) gives Tr(rho)."""
    d = space.total_dim
    bra = np.zeros(d * d, dtype=complex)
    bra[:: d + 1] = 1.0
    return bra


def assemble_generator(h: Operator, jumps) -> Superoperator:
    """Full generator (-i [H, .] + sum of dissipators) / hbar, in 1/ps.

    Each jump C with rate r contributes r (C rho C^dag - {C^dag C, rho} / 2).
    The anticommutators fold into H_eff = H - (i/2) sum r C^dag C, so the
    generator is -i (I kron H_eff) + i ((H_eff^dag)^T kron I)
    + sum r conj(C) kron C, built in one pass from coordinate triplets;
    H_eff / hbar is kept as ``Superoperator.h_eff``.

    Parameters
    ----------
    h : Operator
        hbar-scaled Hamiltonian in ueV.
    jumps : iterable of (Operator, float)
        Jump operators with their hbar-scaled rates in ueV; zero-rate entries
        are skipped and negative rates raise ``DomainError``.
    """
    d = h.space.total_dim
    decay = np.zeros((d, d), dtype=complex)
    rows, cols, vals = [], [], []
    for jump, rate in jumps:
        if rate < 0:
            raise DomainError(f"dissipator rate must be >= 0, got {rate}")
        if rate == 0:
            continue
        c = jump.matrix
        decay += rate * (c.conj().T @ c)
        i, j = np.nonzero(c)
        # conj(C) kron C: entry (i1, j1) of conj(C) times (i2, j2) of C
        rows.append((i[:, None] * d + i[None, :]).ravel())
        cols.append((j[:, None] * d + j[None, :]).ravel())
        vals.append((rate * np.conj(c[i, j])[:, None] * c[i, j][None, :]).ravel())

    offsets = np.arange(d) * d
    left = h.matrix - 0.5j * decay  # acts from the left: I kron left
    i, j = np.nonzero(left)
    rows.append((offsets[:, None] + i[None, :]).ravel())
    cols.append((offsets[:, None] + j[None, :]).ravel())
    vals.append(np.tile(-1j * left[i, j], d))
    right = (h.matrix + 0.5j * decay).T  # acts from the right: right kron I
    i, j = np.nonzero(right)
    rows.append((i[:, None] * d + np.arange(d)[None, :]).ravel())
    cols.append((j[:, None] * d + np.arange(d)[None, :]).ravel())
    vals.append(np.repeat(1j * right[i, j], d))

    matrix = sp.csr_matrix(
        (np.concatenate(vals) / HBAR_UEV_PS,
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * d, d * d),
    )
    matrix.eliminate_zeros()  # entries that cancelled exactly
    return Superoperator(h.space, matrix, left / HBAR_UEV_PS)


def build_liouvillian(params: SystemParams) -> Superoperator:
    """Lindblad generator of the full system in 1/ps: the rotating-frame
    Hamiltonian with the eight loss, decay, dephasing and pump channels."""
    space = params.space()
    return assemble_generator(build_effective_hamiltonian(params, space),
                              jump_operators(params, space))
