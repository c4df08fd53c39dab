"""Sparse assembly of the Lindblad generator.

Vectorization is column-stacking throughout: ``vec(rho) = rho.ravel(order="F")``
and ``vec(A rho B) = (B^T kron A) vec(rho)``.  All superoperator formulas in
this module are written against that convention.

Hamiltonians and jump rates enter hbar-scaled (in ueV); the generator divides
by ``HBAR_UEV_PS`` exactly once, in its template, so an assembled Liouvillian
has units of 1/ps.

A generator is linear in a real coefficient vector theta: the coefficients
of Hermitian Hamiltonian terms T_k, then the rates r_j of jump operators C_j.
A ``_Template`` holds, for one set of term operators, the union sparsity
pattern of every term's superoperator and the sparse maps from theta to the
no-jump Hamiltonian and to the values on that pattern, so a generator, or a
batch of them, is a coefficient contraction: three sparse products with
theta and three scatters.  The model's template is built once per Fock space,
and a contraction emits a batch's generators as one ``GeneratorBatch``:
block-diagonal L and R and the stack of no-jump Hamiltonians.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .hilbert import DEFAULT_POLICY, CompositeSpace, Operator
from .model import (
    HBAR_UEV_PS,
    SystemParams,
    build_effective_hamiltonian,  # noqa: F401  (looked up here by bench/tracing.py)
    coefficients,
    model_terms,
)

__all__ = [
    "GeneratorBatch",
    "Superoperator",
    "assemble_generator",
    "build_liouvillian",
    "build_liouvillians",
    "hermitian_basis",
    "hermitian_matrices",
]


@dataclass(frozen=True)
class Superoperator:
    """Sparse matrix of dimension D^2 x D^2 acting on column-stacked states.

    ``h_eff`` is the read-only D x D no-jump Hamiltonian
    H - (i/2) sum r C^dag C of the generator, divided by hbar (1/ps): the
    generator is X -> -i (h_eff X - X h_eff^dag) plus the recycling terms
    sum r C X C^dag.  ``recycling`` is the CSR matrix R = sum r conj(C) kron C
    of those terms, L less its no-jump part, without stored zeros: a
    template writes it exactly, and the constructor derives it as that
    difference, to roundoff.  Trace preservation (the vectorized identity is
    a left null vector) is checked at construction, or for a whole batch at
    once where a template assembles the generators.  Instances are treated
    as immutable and may be shared freely across workers.
    """

    space: CompositeSpace
    matrix: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)
    recycling: sp.csr_matrix = field(init=False, repr=False)

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
        eye = sp.identity(d, format="csr")
        h = sp.csr_matrix(h_eff)
        recycling = sp.csr_matrix(
            self.matrix + 1j * sp.kron(eye, h) - 1j * sp.kron(h.conj(), eye))
        recycling.eliminate_zeros()
        object.__setattr__(self, "recycling", recycling)

    @classmethod
    def _checked(cls, space: CompositeSpace, matrix: sp.csr_matrix,
                 h_eff: np.ndarray, recycling: sp.csr_matrix) -> "Superoperator":
        """An instance whose shapes, format and trace preservation its
        assembler has checked already, for a whole batch at once; ``h_eff``
        must be read-only."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "h_eff", h_eff)
        object.__setattr__(self, "recycling", recycling)
        return self

    def trace_defect(self) -> float:
        """Max magnitude of <<I| L, zero for a trace-preserving generator."""
        bra = identity_bra(self.space)
        return float(np.max(np.abs(bra @ self.matrix)))


def _block_diagonal(matrices: list) -> sp.csr_matrix:
    """CSR block-diagonal matrix of equally sized CSR blocks; a single
    block is returned as it is."""
    if len(matrices) == 1:
        return matrices[0]
    n = matrices[0].shape[0]
    starts = np.cumsum([0] + [m.nnz for m in matrices])
    indices = np.concatenate([m.indices + k * n for k, m in enumerate(matrices)])
    indptr = np.concatenate([m.indptr[:-1] + start
                             for m, start in zip(matrices, starts)]
                            + [starts[-1:]])
    size = len(matrices) * n
    return sp.csr_matrix((np.concatenate([m.data for m in matrices]),
                          indices, indptr), shape=(size, size))


def _block(matrix: sp.csr_matrix, m: int, n: int) -> sp.csr_matrix:
    """Diagonal block m of a CSR block-diagonal matrix of n x n blocks; a
    matrix of one block is returned as it is."""
    if matrix.shape[0] == n:
        return matrix
    start, stop = matrix.indptr[m * n], matrix.indptr[(m + 1) * n]
    return sp.csr_matrix((matrix.data[start:stop], matrix.indices[start:stop] - m * n,
                          matrix.indptr[m * n:(m + 1) * n + 1] - start), shape=(n, n))


@dataclass(frozen=True)
class GeneratorBatch(Sequence):
    """Generators of one space as block-diagonal CSR matrices, member m in
    the rows and columns m D^2 to (m + 1) D^2 - 1: ``matrix`` holds the
    generators L and ``recycling`` their recycling parts R (see
    ``Superoperator``); ``h_eff`` is the read-only (B, d, d) stack of
    no-jump Hamiltonians.  Indexing gives a member as a ``Superoperator``,
    a slice a list of them; a batch of one holds its member's matrices."""

    space: CompositeSpace
    matrix: sp.csr_matrix = field(repr=False)
    recycling: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)

    @staticmethod
    def join(members) -> "GeneratorBatch":
        """The batch of a sequence of ``Superoperator`` that share one space."""
        members = list(members)
        space = members[0].space
        if any(member.space != space for member in members):
            raise DomainError("a generator batch must share one space")
        h_eff = np.array([member.h_eff for member in members])
        h_eff.flags.writeable = False
        return GeneratorBatch(
            space, _block_diagonal([member.matrix for member in members]),
            _block_diagonal([member.recycling for member in members]), h_eff)

    def __len__(self) -> int:
        return len(self.h_eff)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[m] for m in range(len(self))[index]]
        m = range(len(self))[index]
        n = self.space.total_dim ** 2
        return Superoperator._checked(self.space, _block(self.matrix, m, n),
                                      self.h_eff[m], _block(self.recycling, m, n))


def identity_bra(space: CompositeSpace) -> np.ndarray:
    """Row vector <<I| whose pairing with vec(rho) gives Tr(rho)."""
    d = space.total_dim
    bra = np.zeros(d * d, dtype=complex)
    bra[:: d + 1] = 1.0
    return bra


@lru_cache(maxsize=8)
def _inverse_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
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
    source, factor = _inverse_gather(d)
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
    source, factor = _inverse_gather(d)
    parts = np.take(np.asarray(x, dtype=float), source, axis=-1)
    parts *= factor
    return parts.view(complex).reshape(parts.shape[:-1] + (d, d))


def _term_entries(d: int, hamiltonian: sp.spmatrix, jumps):
    """Per term, what its coefficient 1 contributes to the three parts of
    the generator L = -i (I kron A) + i (B kron I) + R, divided by hbar.

    A Hamiltonian term T (a column of the sparse (d^2, K) ``hamiltonian``,
    C-order flattened) gives A = T and B = T^T; a jump C (a dense d x d
    array of ``jumps``) gives A = -(i/2) C^dag C,
    B = (i/2) (C^dag C)^T and R = conj(C) kron C.  A is the term's part of
    the no-jump Hamiltonian.  Yields ``(a_keys, a_values, b_keys, b_values,
    r_keys, r_values)`` per term: C-order flat indices, without repeats,
    into the d x d matrices A and B and into the D^2 x D^2 generator.
    """
    n = d * d
    none = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    columns = hamiltonian.tocsc()
    for k in range(columns.shape[1]):
        span = slice(columns.indptr[k], columns.indptr[k + 1])
        flat = columns.indices[span].astype(np.int64)
        t = columns.data[span] / HBAR_UEV_PS
        yield (flat, t, (flat % d) * d + flat // d, t) + none
    for c in jumps:
        i, j = np.nonzero(c)
        v = c[i, j]
        decay = c.conj().T @ c
        p, q = np.nonzero(decay)
        w = decay[p, q] / HBAR_UEV_PS
        # entry (i1 d + i2, j1 d + j2) of conj(C) kron C is conj(C_i1j1) C_i2j2
        yield (p * d + q, -0.5j * w, q * d + p, 0.5j * w,
               ((i[:, None] * d + i) * n + (j[:, None] * d + j)).ravel(),
               (np.conj(v)[:, None] * v).ravel() / HBAR_UEV_PS)


def _union(keys) -> np.ndarray:
    """Sorted distinct values of a sequence of integer arrays (a sort and a
    mask: ``np.unique`` took ten times longer on the keys of a template)."""
    keys = np.sort(np.concatenate(keys))
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


def _coefficient_map(rows: list, values: list, size: int) -> sp.csc_matrix:
    """(size, K) CSC matrix whose column k holds ``values[k]`` at the rows
    ``rows[k]``."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    return sp.csc_matrix(
        (np.concatenate(values), np.concatenate(rows).astype(np.int32), indptr),
        shape=(size, len(rows)))


@dataclass(frozen=True)
class _Template:
    """Generators of one set of term operators as linear maps of theta.

    With L = -i (I kron A) + i (B kron I) + R as in ``_term_entries``,
    ``a``, ``b`` and ``r`` map theta to the C-order flattened A (the no-jump
    Hamiltonian) and B and to the values of R, all in 1/ps, with one
    column per term, so that each value sums its terms in one fixed order
    whatever the batch.  ``indices``/``indptr`` are the CSR pattern of the
    union of every term's entries in L, and ``r_indices``/``r_indptr`` that
    of R, whose entries sit at ``r_positions`` of L's pattern;
    ``a_pattern`` lists the flat indices of A that some term fills and
    ``a_positions[b, k]`` the place of entry ``a_pattern[k]`` of block b of
    I kron A in the pattern, and likewise for B kron I.  ``trace`` sums the
    entries of the trace rows of L (rows i (d + 1)) column by column,
    giving <<I| L.
    """

    space: CompositeSpace
    indices: np.ndarray
    indptr: np.ndarray
    a: sp.csc_matrix
    b: sp.csc_matrix
    r: sp.csc_matrix
    r_indices: np.ndarray
    r_indptr: np.ndarray
    r_positions: np.ndarray
    a_pattern: np.ndarray
    a_positions: np.ndarray
    b_pattern: np.ndarray
    b_positions: np.ndarray
    trace: sp.csr_matrix

    @staticmethod
    def build(space: CompositeSpace, hamiltonian: sp.spmatrix, jumps) -> "_Template":
        d = space.total_dim
        n = d * d
        a_keys, a_values, b_keys, b_values, r_keys, r_values = zip(
            *_term_entries(d, hamiltonian, jumps))
        a_pattern = _union(a_keys)
        b_pattern = _union(b_keys)
        blocks = np.arange(d, dtype=np.int64)[:, None]
        # flat index of entry (b d + i, b d + j) of I kron A is
        # b d (n + 1) + i n + j, of entry (i d + b, j d + b) of B kron I
        # i d n + j d + b (n + 1)
        in_a = blocks * (d * (n + 1)) + (a_pattern // d) * n + a_pattern % d
        in_b = (b_pattern // d) * (d * n) + (b_pattern % d) * d + blocks * (n + 1)
        r_union = _union(r_keys)
        union = _union((in_a.ravel(), in_b.ravel(), r_union))
        rows = union // n
        trace_rows = np.flatnonzero(rows % (d + 1) == 0)

        def place(keys, pattern=union):
            return np.searchsorted(pattern, keys).astype(np.int32)

        return _Template(
            space=space,
            indices=(union % n).astype(np.int32),
            indptr=np.searchsorted(rows, np.arange(n + 1)).astype(np.int32),
            a=_coefficient_map(a_keys, a_values, n),
            b=_coefficient_map(b_keys, b_values, n),
            r=_coefficient_map([place(k, r_union) for k in r_keys], r_values,
                               r_union.size),
            r_indices=(r_union % n).astype(np.int32),
            r_indptr=np.searchsorted(r_union // n, np.arange(n + 1)).astype(np.int32),
            r_positions=place(r_union),
            a_pattern=a_pattern.astype(np.int32),
            a_positions=place(in_a),
            b_pattern=b_pattern.astype(np.int32),
            b_positions=place(in_b),
            trace=sp.csr_matrix(
                (np.ones(trace_rows.size), (union[trace_rows] % n, trace_rows)),
                shape=(n, union.size)),
        )

    def contract(self, thetas: np.ndarray) -> GeneratorBatch:
        """The generators of the rows of the (B, K) coefficient array
        ``thetas``: three sparse products for the whole batch, three
        scatters of R, A and B into the pattern, then the block-diagonal L
        and R of the batch, each member without its exact zeros."""
        thetas = np.asarray(thetas, dtype=float)
        d = self.space.total_dim
        a = self.a @ thetas.T  # (d^2, B)
        recycling = self.r @ thetas.T  # (nnz of R, B)
        values = np.zeros((self.indices.size, len(thetas)), dtype=complex)
        values[self.r_positions] = recycling
        values[self.a_positions] += -1j * a[self.a_pattern]
        values[self.b_positions] += 1j * (self.b @ thetas.T)[self.b_pattern]
        h_eff = np.ascontiguousarray(a.T).reshape(-1, d, d)
        for array in (values, recycling, h_eff):
            # subnormal parts become exact zeros: they carry no physics and
            # overflow the divisions of scipy's expm and norm estimator
            parts = array.view(float)
            parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
        # each member's <<I| L against its own largest entry
        defects = np.abs(self.trace @ values).max(axis=0, initial=0.0)
        scales = np.maximum(1.0, np.abs(values).max(axis=0, initial=0.0))
        bad = np.flatnonzero(defects > DEFAULT_POLICY.algebraic_tol * scales)
        if bad.size:
            raise DomainError(
                "superoperator does not preserve the trace "
                f"(defect {defects[bad[0]]:.3e})")
        h_eff.flags.writeable = False
        return GeneratorBatch(
            self.space, _stacked_csr(values, self.indices, self.indptr),
            _stacked_csr(recycling, self.r_indices, self.r_indptr), h_eff)


def _stacked_csr(values: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR matrix of the columns of ``values`` (nnz, B), each
    a member's values on the pattern ``indices``/``indptr``, without its
    exact zeros."""
    n = indptr.size - 1
    size, count = values.shape
    values = np.ascontiguousarray(values.T)
    keep = values != 0
    counts = np.zeros(keep.size + 1, dtype=np.int32)
    np.cumsum(keep, out=counts[1:])
    offsets = np.arange(count)[:, None]
    starts = (indptr[:-1] + size * offsets).ravel()
    return sp.csr_matrix(
        (values[keep], (indices + n * offsets)[keep],
         np.append(counts[starts], counts[-1])), shape=(count * n,) * 2)


@lru_cache(maxsize=8)
def _model_template(space: CompositeSpace) -> _Template:
    hamiltonian, jumps = model_terms(space)
    return _Template.build(space, hamiltonian, [c.toarray() for c in jumps])


def assemble_generator(h: Operator, jumps) -> Superoperator:
    """Full generator (-i [H, .] + sum of dissipators) / hbar, in 1/ps.

    Each jump C with rate r contributes r (C rho C^dag - {C^dag C, rho} / 2).
    The anticommutators fold into H_eff = H - (i/2) sum r C^dag C, so the
    generator is -i (I kron H_eff) + i ((H_eff^dag)^T kron I)
    + sum r conj(C) kron C; H_eff / hbar is kept as ``Superoperator.h_eff``.
    Contracted from the template of the terms (H, C_1, ...) with the
    coefficients (1, r_1, ...).

    Parameters
    ----------
    h : Operator
        hbar-scaled Hamiltonian in ueV.
    jumps : iterable of (Operator, float)
        Jump operators with their hbar-scaled rates in ueV; zero-rate entries
        contribute nothing and negative rates raise ``DomainError``.
    """
    jumps = list(jumps)
    for _, rate in jumps:
        if rate < 0:
            raise DomainError(f"dissipator rate must be >= 0, got {rate}")
    template = _Template.build(
        h.space, sp.csr_matrix(h.matrix.reshape(-1, 1)),
        [jump.matrix for jump, _ in jumps])
    return template.contract([[1.0] + [rate for _, rate in jumps]])[0]


def build_liouvillians(points) -> GeneratorBatch:
    """Lindblad generators in 1/ps of parameter sets that share one space,
    contracted together from the space's cached template into one
    ``GeneratorBatch``: the rotating-frame Hamiltonian with the eight loss,
    pump, decay and dephasing channels of ``model.model_terms``."""
    points = list(points)
    space = points[0].space()
    if any(p.space() != space for p in points):
        raise DomainError("a generator batch must share one space")
    return _model_template(space).contract(np.array([coefficients(p) for p in points]))


def build_liouvillian(params: SystemParams) -> Superoperator:
    """Lindblad generator of the full system in 1/ps: the rotating-frame
    Hamiltonian with the eight loss, decay, dephasing and pump channels."""
    return build_liouvillians([params])[0]
