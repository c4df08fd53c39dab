"""Sparse assembly of the Lindblad generator, in two equivalent forms.

Vectorization is column-stacking throughout: ``vec(rho) = rho.ravel(order="F")``
and ``vec(A rho B) = (B^T kron A) vec(rho)``.  All superoperator formulas in
this module are written against that convention.

Hamiltonians and jump rates enter hbar-scaled (in ueV); the generator divides
by ``HBAR_UEV_PS`` exactly once, in its template, so an assembled Liouvillian
has units of 1/ps.

A generator L preserves Hermiticity, so the real coordinates x = U vec(rho)
of ``hermitian_basis`` carry it as the real matrix G = U L U^H, and its
recycling terms R as R_h = U R U^H.  G is the form the solvers read: the
steady states iterate on it and the trajectories propagate with it.  The
complex L and R stay available, exact, for the API and its checks: one
helper, ``_lindblad_forms``, builds them from the Lindblad formula.

A generator is linear in a real coefficient vector theta: the coefficients
of Hermitian Hamiltonian terms T_k, then the rates r_j of jump operators C_j.
A ``_Template`` holds, for one set of term operators, the sparse maps from
theta to the no-jump Hamiltonian and to the values of G and R_h on their
union sparsity patterns, so a batch of generators is a coefficient
contraction: three sparse products with theta and one scatter.  A
member's L and R are built from its no-jump Hamiltonian, the template's
jumps and its own rates only when they are read.  The model's template is
built once per Fock space, and a contraction emits a batch's generators as
one ``GeneratorBatch``: block-diagonal G and R_h and the stack of no-jump
Hamiltonians.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    "hermitian_coordinates",
    "hermitian_matrices",
]


@dataclass(frozen=True, eq=False, init=False)
class Superoperator:
    """Lindblad generator on a space of dimension D, in two forms.

    ``matrix`` is the sparse D^2 x D^2 generator L acting on column-stacked
    vec(rho), and ``real_matrix`` the real CSR matrix G = U L U^H acting on
    the real coordinates of ``hermitian_basis``.  ``h_eff`` is the
    read-only D x D no-jump Hamiltonian H - (i/2) sum r C^dag C of the
    generator, divided by hbar (1/ps): the generator is
    X -> -i (h_eff X - X h_eff^dag) plus the recycling terms
    sum r C X C^dag.  ``recycling`` is the CSR matrix
    R = sum r conj(C) kron C of those terms, L less its no-jump part,
    without stored zeros, and ``real_recycling`` is R_h = U R U^H.

    A generator built from a matrix L checks its shape, format and trace
    preservation (the vectorized identity is a left null vector) here; R is
    derived as L less its no-jump part, to roundoff, and G and R_h are
    formed from L and R on first read, where an imaginary part beyond
    roundoff (a generator that does not preserve Hermiticity) raises
    ``DomainError``.  A member of a template's ``GeneratorBatch`` cuts G
    and R_h from its batch's on first read, and builds L and R from its
    ``h_eff``, the template's jumps and its own rates (``_lindblad_forms``)
    only when they are read.  Instances are treated as immutable, compare
    by identity, and may be shared freely across workers.
    """

    space: CompositeSpace
    h_eff: np.ndarray = field(repr=False)

    def __init__(self, space: CompositeSpace, matrix: sp.csr_matrix,
                 h_eff: np.ndarray):
        d = space.total_dim
        d2 = d * d
        if matrix.shape != (d2, d2):
            raise DomainError(
                f"superoperator has shape {matrix.shape}, expected ({d2}, {d2})"
            )
        h_eff = np.asarray(h_eff, dtype=complex)
        if h_eff.shape != (d, d):
            raise DomainError(
                f"no-jump Hamiltonian has shape {h_eff.shape}, expected ({d}, {d})"
            )
        if not isinstance(matrix, sp.csr_matrix):
            raise DomainError(
                "superoperator matrix must be a scipy.sparse.csr_matrix, got "
                f"{type(matrix).__name__}"
            )
        h_eff.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "h_eff", h_eff)
        object.__setattr__(self, "_forms", None)
        self.__dict__["matrix"] = matrix
        defect = self.trace_defect()
        scale = max(1.0, np.abs(matrix.data).max() if matrix.nnz else 1.0)
        if defect > DEFAULT_POLICY.algebraic_tol * scale:
            raise DomainError(
                f"superoperator does not preserve the trace (defect {defect:.3e})"
            )

    @classmethod
    def _member(cls, batch: "GeneratorBatch", m: int) -> "Superoperator":
        """Member m of a template's ``batch``, whose checks the template has
        made for the whole batch at once.  It keeps the batch's forms, not
        the batch, so that no reference cycle outlives a batch."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", batch.space)
        object.__setattr__(self, "h_eff", batch.h_eff[m])
        # the batch's G and R_h, the member's index, the template's jumps
        # and the member's rates
        object.__setattr__(self, "_forms", (batch.real_matrix, batch.real_recycling, m,
                                            batch.jumps, batch.rates[m]))
        return self

    def _cut(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        """This member's diagonal block of a block-diagonal batch form."""
        return _block(matrix, self._forms[2], self.space.total_dim ** 2)

    @cached_property
    def _lindblad(self) -> tuple:
        # a template member's L and R: A = h_eff and B = conj(h_eff), its
        # Hamiltonian being Hermitian
        return _lindblad_forms(self.h_eff, self.h_eff.conj(), *self._forms[3:])

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        # reached only by template members: a generator built from L holds it
        return self._lindblad[0]

    @cached_property
    def recycling(self) -> sp.csr_matrix:
        if self._forms:
            return self._lindblad[1]
        # L less its no-jump part, the L of no jumps
        recycling = self.matrix - _lindblad_forms(self.h_eff, self.h_eff.conj(), (), ())[0]
        recycling.eliminate_zeros()
        return recycling

    @cached_property
    def real_matrix(self) -> sp.csr_matrix:
        if self._forms:
            return self._cut(self._forms[0])
        return _real_form(self.matrix, self.space.total_dim)

    @cached_property
    def real_recycling(self) -> sp.csr_matrix:
        if self._forms:
            return self._cut(self._forms[1])
        return _real_form(self.recycling, self.space.total_dim)

    def trace_defect(self) -> float:
        """Max magnitude of <<I| L, zero for a trace-preserving generator."""
        bra = identity_bra(self.space)
        return float(np.max(np.abs(bra @ self.matrix)))


def _lindblad_forms(a: np.ndarray, b: np.ndarray, jumps, rates) -> tuple:
    """The generator L = R - i (I kron A) + i (B kron I) and its recycling
    terms R = sum_j r_j (conj(C_j) kron C_j / hbar), of the d x d matrices
    A and B (1/ps), the entries of conj(C_j) kron C_j / hbar of each jump
    (``_recycling_entries``) and the rates r_j (ueV): canonical CSR
    matrices without stored zeros, and with subnormal parts flushed to
    zero.  Each entry sums its terms from zero in one fixed order: the
    jumps' in jump order, then -i A, then i B.  The no-jump part
    -i (A X - X B^T) is X -> -i (h_eff X - X h_eff^dag) for A = h_eff and
    B = conj(h_eff)."""
    d = a.shape[0]
    n = d * d
    keys = [k for k, _ in jumps]
    values = [v * rate for (_, v), rate in zip(jumps, rates)]
    recycled = sum(k.size for k in keys)
    # I kron A holds A_pq at (s d + p, s d + q) and B kron I holds B_pq at
    # (p d + s, q d + s), for s = 0 ... d - 1
    s = np.arange(d)[:, None]
    p, q = np.nonzero(a)
    keys.append(((s * d + p) * n + s * d + q).ravel())
    values.append(np.broadcast_to(-1j * a[p, q], (d, p.size)).ravel())
    p, q = np.nonzero(b)
    keys.append(((p * d + s) * n + q * d + s).ravel())
    values.append(np.broadcast_to(1j * b[p, q], (d, p.size)).ravel())
    pattern, slot = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.concatenate(values)

    def summed(count):
        # the CSR matrix of the sums of the first count values, each from
        # zero and in order
        data = np.empty(pattern.size, dtype=complex)
        data.real = np.bincount(slot[:count], values.real[:count], pattern.size)
        data.imag = np.bincount(slot[:count], values.imag[:count], pattern.size)
        _flush_subnormals(data)
        keep = data != 0
        at = pattern[keep]
        return sp.csr_matrix(
            (data[keep], at % n, np.searchsorted(at // n, np.arange(n + 1))), shape=(n, n))

    return summed(values.size), summed(recycled)


def _recycling_entries(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices (row D^2 + column) and values of
    conj(C) kron C / hbar for a dense d x d jump C, without repeats."""
    d = c.shape[0]
    i, j = np.nonzero(c)
    v = c[i, j]
    # entry (i1 d + i2, j1 d + j2) of conj(C) kron C is conj(C_i1j1) C_i2j2
    return (((i[:, None] * d + i) * d * d + (j[:, None] * d + j)).ravel(),
            (np.conj(v)[:, None] * v).ravel() / HBAR_UEV_PS)


def _real_form(matrix: sp.csr_matrix, d: int) -> sp.csr_matrix:
    """U M U^H of a superoperator M in the coordinates of
    ``hermitian_basis``, as a real CSR matrix.

    U M U^H is real exactly when M preserves Hermiticity; the product leaves
    an imaginary part of roundoff size.  Like the trace check, that part
    must stay within ``algebraic_tol`` times the largest entry (and at
    least 1), or a ``DomainError`` is raised: a nonzero imaginary part is
    never dropped silently.
    """
    u = hermitian_basis(d)
    g = u @ matrix @ u.conj().T
    scale = max(1.0, np.abs(g.data).max(initial=0.0))
    leak = np.abs(g.data.imag).max(initial=0.0)
    if not leak <= DEFAULT_POLICY.algebraic_tol * scale:
        raise DomainError(
            "generator does not preserve Hermiticity (imaginary part "
            f"{leak:.3e} in real coordinates)")
    return sp.csr_matrix((g.data.real, g.indices, g.indptr), shape=g.shape)


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


@dataclass(frozen=True, eq=False)
class GeneratorBatch(Sequence):
    """Generators of one space as block-diagonal CSR matrices, member m in
    the rows and columns m D^2 to (m + 1) D^2 - 1: ``real_matrix`` holds
    their G and ``real_recycling`` their R_h (see ``Superoperator``), and
    ``h_eff`` is the read-only (B, d, d) stack of no-jump Hamiltonians.  A
    template's batch also keeps the template's ``jumps`` (the entries of
    each conj(C) kron C / hbar) and the read-only (B, J) ``rates`` of its
    members, from which a member builds its complex L and R.  Indexing
    gives a member as a ``Superoperator``, the same object on every access,
    and a slice a list of them; a batch joined from generators gives the
    generators it was given, and a batch of one holds its member's
    matrices.  Batches compare by identity."""

    space: CompositeSpace
    real_matrix: sp.csr_matrix = field(repr=False)
    real_recycling: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)
    jumps: tuple = field(repr=False, default=())
    rates: np.ndarray | None = field(repr=False, default=None)

    @staticmethod
    def join(members) -> "GeneratorBatch":
        """The batch of a sequence of ``Superoperator`` that share one space."""
        members = tuple(members)
        space = members[0].space
        if any(member.space != space for member in members):
            raise DomainError("a generator batch must share one space")
        h_eff = np.array([member.h_eff for member in members])
        h_eff.flags.writeable = False
        batch = GeneratorBatch(
            space, _block_diagonal([member.real_matrix for member in members]),
            _block_diagonal([member.real_recycling for member in members]), h_eff)
        object.__setattr__(batch, "_members", members)
        return batch

    @cached_property
    def _members(self) -> tuple:
        return tuple(Superoperator._member(self, m) for m in range(len(self)))

    def __len__(self) -> int:
        return len(self.h_eff)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._members[index])
        return self._members[index]


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


def _term_entries(d: int, hamiltonian: sp.spmatrix, jumps):
    """Per term, what its coefficient 1 contributes to the no-jump
    Hamiltonian A and to the recycling terms R of the generator
    L = -i (I kron A) + i (conj(A) kron I) + R, divided by hbar.

    A Hamiltonian term T (a column of the sparse (d^2, K) ``hamiltonian``,
    C-order flattened) gives A = T; a jump C (a dense d x d array of
    ``jumps``) gives A = -(i/2) C^dag C and R = conj(C) kron C.  Yields
    ``(a_keys, a_values, r_keys, r_values)`` per term: C-order flat
    indices, without repeats, into the d x d matrix A and into the
    D^2 x D^2 generator.
    """
    none = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    columns = hamiltonian.tocsc()
    for k in range(columns.shape[1]):
        span = slice(columns.indptr[k], columns.indptr[k + 1])
        yield (columns.indices[span].astype(np.int64),
               columns.data[span] / HBAR_UEV_PS) + none
    for c in jumps:
        decay = c.conj().T @ c
        p, q = np.nonzero(decay)
        yield (p * d + q, -0.5j * (decay[p, q] / HBAR_UEV_PS)) + _recycling_entries(c)


def _coefficient_map(rows: list, values: list, size: int) -> sp.csc_matrix:
    """(size, K) CSC matrix whose column k holds ``values[k]`` at the rows
    ``rows[k]``."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    return sp.csc_matrix(
        (np.concatenate(values), np.concatenate(rows).astype(np.int32), indptr),
        shape=(size, len(rows)))


@lru_cache(maxsize=8)
def _pair_coordinates(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per C-order entry e = i d + j of a d x d matrix, the first
    ``hermitian_basis`` coordinate of the pair {i, j} (the population i, or
    sqrt(2) Re of the coherence, whose sqrt(2) Im coordinate follows it)
    and sign(j - i): rho_ij = (x_re + i sign x_im) / sqrt(2) off the
    diagonal, so U holds sqrt(1/2) and -i sign sqrt(1/2) in the column of
    vec index i + j d."""
    i, j = np.divmod(np.arange(d * d), d)
    low, high = np.minimum(i, j), np.maximum(i, j)
    pair = low * d - low * (low + 1) // 2 + high - low - 1
    first = np.where(i == j, i, d + 2 * pair)
    return first, np.sign(j - i)


# no-jump entries per chunk of ``_real_entries``, which bounds the
# temporaries of a template build
_REAL_CHUNK = 16384


def _real_entries(d: int, a_pattern: np.ndarray, terms):
    """The entries of G = U L U^H and R_h = U R U^H as real linear maps,
    one (d^2, d^2 width) CSR matrix per chunk of sources: entry
    (row, column width + source) is the coefficient of the source in entry
    (row, column) of the real form, with width = 2 len(a_pattern) +
    len(terms).  Sources 2 j and 2 j + 1 are Re and Im of entry
    ``a_pattern[j]`` of the no-jump Hamiltonian A, source
    2 len(a_pattern) + k the coefficient of term k.  The chunks hold
    disjoint sources, each with its repeated entries summed.

    The no-jump part is X -> Z + Z^dag with Z = -i A X, which assumes
    Hermitian Hamiltonian terms (see ``_term_entries``), so A alone gives
    its entries: A_ps takes X_sq into Z_pq for every q.  The recycling part
    takes each entry of R through the at most two entries of U in its row
    and column; every product of those is real or imaginary, so each entry
    reads one part of its source.  Every entry is written in four slots
    (first or Im coordinate of the row and of the column); a slot that
    does not exist, at a population, takes a zero value.  The no-jump part
    comes in chunks of about ``_REAL_CHUNK`` entries, which keep the
    temporaries small, and the recycling part in one.
    """
    n = d * d
    first, sign = _pair_coordinates(d)
    half = np.sqrt(0.5)
    root2 = np.sqrt(2.0)
    width = 2 * a_pattern.size + len(terms)

    def chunk(row, col, sources, parts):
        # the four slots of entries whose first coordinates are row, col
        rows = np.concatenate((row, row + 1, row, row + 1))
        keys = np.concatenate([(col + dc) * width + source
                               for dc, source in zip((0, 0, 1, 1), sources)])
        matrix = sp.csr_matrix((np.concatenate(parts), (rows, keys)),
                               shape=(n, n * width))
        matrix.sum_duplicates()
        return matrix

    # no-jump part: Z_pq = -i A_ps X_sq, and X_sq = u x over the first
    # coordinate (u = 1 or sqrt(1/2)) plus i sign sqrt(1/2) x_im; Y puts
    # 2 Re Z_pp into a population, sqrt(2) Re Z_pq into Re and
    # sign sqrt(2) Im Z_pq into Im of the pair {p, q}
    step = max(1, _REAL_CHUNK // d)
    for start in range(0, a_pattern.size, step):
        p, s = np.divmod(a_pattern[start:start + step], d)
        z = (p[:, None] * d + np.arange(d)).ravel()
        x = (s[:, None] * d + np.arange(d)).ravel()
        re = 2 * np.repeat(np.arange(start, start + p.size, dtype=np.int32), d)
        row_sign, col_sign = sign[z], sign[x]
        row_factor = np.where(row_sign == 0, 2.0, root2)
        u = np.where(col_sign == 0, 1.0, half)
        yield chunk(first[z], first[x], (re + 1, re, re, re + 1),
                    (row_factor * u, -root2 * row_sign * u,
                     half * row_factor * col_sign, row_sign * col_sign))
    # recycling part, one chunk: entry (vec p, vec q) of R, vec p = i2 + i1 d
    # for rho[i2, i1], takes Re(U[a, p] v conj(U[b, q]))
    keys = np.concatenate([t[2] for t in terms])
    v = np.concatenate([t[3] for t in terms])
    source = 2 * a_pattern.size + np.repeat(np.arange(len(terms), dtype=np.int32),
                                            [t[2].size for t in terms])
    vp, vq = np.divmod(keys, n)
    ep, eq = (vp % d) * d + vp // d, (vq % d) * d + vq // d
    row_sign, col_sign = sign[ep], sign[eq]
    u_row = np.where(row_sign == 0, 1.0, half)
    u_col = np.where(col_sign == 0, 1.0, half)
    yield chunk(first[ep], first[eq], (source,) * 4,
                (u_row * u_col * v.real, half * row_sign * u_col * v.imag,
                 -half * col_sign * u_row * v.imag,
                 0.5 * row_sign * col_sign * v.real))


@dataclass(frozen=True)
class _Template:
    """Generators of one set of term operators as linear maps of theta.

    ``a`` maps theta to the C-order flattened no-jump Hamiltonian A, in
    1/ps, whose entries ``a_pattern`` some term fills.  ``n`` maps the real
    and imaginary parts of those entries, interleaved, to the values of
    the no-jump part of G on G's pattern ``indices``/``indptr``, and ``r``
    maps theta, one column per term, to the values of R_h on its pattern
    ``r_indices``/``r_indptr``, whose entries sit at ``r_positions`` of
    G's; G is their sum.  Each value sums its sources in one fixed order,
    whatever the batch.  ``trace`` sums the entries of G's population rows
    (the first d) column by column, giving <<I| L U^H.  The real maps assume
    Hermitian Hamiltonian terms, as the model's are (see ``_real_entries``);
    ``assemble_generator``, whose H may be any matrix, forms its G from L.
    ``jumps`` holds the entries of conj(C) kron C / hbar of each jump C
    (``_recycling_entries``), whose rates are the last coefficients of
    theta: a member reads them to build its complex L and R.
    """

    space: CompositeSpace
    jumps: tuple = field(repr=False)
    a: sp.csc_matrix = field(repr=False)
    a_pattern: np.ndarray = field(repr=False)
    n: sp.csr_matrix = field(repr=False)
    r: sp.csr_matrix = field(repr=False)
    indices: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    r_indices: np.ndarray = field(repr=False)
    r_indptr: np.ndarray = field(repr=False)
    r_positions: np.ndarray = field(repr=False)
    trace: sp.csr_matrix = field(repr=False)

    @staticmethod
    def build(space: CompositeSpace, hamiltonian: sp.spmatrix, jumps) -> "_Template":
        d = space.total_dim
        size = d * d
        terms = tuple(_term_entries(d, hamiltonian, jumps))
        a_keys = [t[0] for t in terms]
        a_pattern = np.unique(np.concatenate(a_keys))
        parts = 2 * a_pattern.size
        # one CSR over (row, column x width + source), the sum of the
        # chunks' disjoint entries, orders each row by column, then by source
        entries = None
        for chunk in _real_entries(d, a_pattern, terms):
            entries = chunk if entries is None else entries + chunk
        entries.eliminate_zeros()
        values, pointers = entries.data, entries.indptr
        column, source = np.divmod(entries.indices, parts + len(terms))
        del entries
        # an entry opens a position of G where its row begins or its column
        # differs from the entry before it
        opens = np.empty(column.size, dtype=bool)
        opens[:1] = True
        np.not_equal(column[1:], column[:-1], out=opens[1:])
        opens[pointers[:-1][pointers[:-1] < column.size]] = True
        counts = np.zeros(column.size + 1, dtype=np.int32)
        np.cumsum(opens, out=counts[1:])
        indptr = counts[pointers]
        indices = column[opens]
        del column, opens
        position = counts[1:]
        position -= 1

        def by_row(at, columns, data, shape):
            # CSR of entries already in row order
            starts = np.zeros(shape[0] + 1, dtype=np.int32)
            np.cumsum(np.bincount(at, minlength=shape[0]), out=starts[1:])
            return sp.csr_matrix((data, columns, starts), shape=shape)

        no_jump = source < parts
        n_map = by_row(position[no_jump], source[no_jump], values[no_jump],
                       (indices.size, parts))
        recycling = ~no_jump
        at = position[recycling]
        new = np.ones(at.size, dtype=bool)
        new[1:] = at[1:] != at[:-1]
        r_positions = at[new]
        r_map = by_row(np.cumsum(new) - 1, source[recycling] - parts,
                       values[recycling], (r_positions.size, len(terms)))
        r_rows = np.searchsorted(indptr, r_positions, side="right") - 1
        population_end = indptr[d]
        return _Template(
            space=space,
            jumps=tuple(t[2:] for t in terms[hamiltonian.shape[1]:]),
            a=_coefficient_map(a_keys, [t[1] for t in terms], size),
            a_pattern=a_pattern,
            n=n_map,
            r=r_map,
            indices=indices,
            indptr=indptr,
            r_indices=indices[r_positions],
            r_indptr=np.searchsorted(r_rows, np.arange(size + 1)).astype(np.int32),
            r_positions=r_positions,
            trace=sp.csr_matrix(
                (np.ones(population_end),
                 (indices[:population_end], np.arange(population_end))),
                shape=(size, indices.size)),
        )

    def contract(self, thetas: np.ndarray) -> GeneratorBatch:
        """The generators of the rows of the (B, K) coefficient array
        ``thetas``: three sparse products for the whole batch (A, then the
        no-jump part of G from A, and R_h), one scatter of R_h into G, the
        trace check of every member, then the block-diagonal G and R_h of
        the batch, each member without its exact zeros.  The batch keeps
        the jumps and each member's rates for its complex L and R."""
        thetas = np.asarray(thetas, dtype=float)
        d = self.space.total_dim
        a = self.a @ thetas.T  # (d^2, B)
        entries = a[self.a_pattern]
        parts = np.stack((entries.real, entries.imag), axis=1).reshape(-1, len(thetas))
        recycling = self.r @ thetas.T  # (nnz of R_h, B)
        values = self.n @ parts  # (nnz of G, B)
        values[self.r_positions] += recycling
        h_eff = np.ascontiguousarray(a.T).reshape(-1, d, d)
        _flush_subnormals(values, recycling, h_eff)
        # each member's <<I| L U^H against its own largest entry
        defects = np.abs(self.trace @ values).max(axis=0, initial=0.0)
        scales = np.maximum(1.0, np.abs(values).max(axis=0, initial=0.0))
        bad = np.flatnonzero(defects > DEFAULT_POLICY.algebraic_tol * scales)
        if bad.size:
            raise DomainError(
                "superoperator does not preserve the trace "
                f"(defect {defects[bad[0]]:.3e})")
        h_eff.flags.writeable = False
        rates = thetas[:, thetas.shape[1] - len(self.jumps):].copy()
        rates.flags.writeable = False
        return GeneratorBatch(
            self.space, _stacked_csr(values, self.indices, self.indptr),
            _stacked_csr(recycling, self.r_indices, self.r_indptr), h_eff,
            self.jumps, rates)


def _flush_subnormals(*arrays):
    """Sets subnormal parts to exact zeros in place: they carry no physics
    and overflow the divisions of scipy's expm and norm estimator."""
    for array in arrays:
        parts = array.view(float)
        parts[np.abs(parts) < np.finfo(float).tiny] = 0.0


def _stacked_csr(values: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR matrix of the columns of ``values`` (nnz, B), each
    a member's values on the pattern ``indices``/``indptr``, without its
    exact zeros."""
    n = indptr.size - 1
    size, count = values.shape
    blocks = np.arange(count, dtype=indices.dtype)[:, None]
    columns = indices + n * blocks
    starts = indptr[:-1] + size * blocks
    matrix = sp.csr_matrix(
        (np.ascontiguousarray(values.T).ravel(), columns.ravel(),
         np.append(starts.ravel(), values.size)), shape=(count * n,) * 2)
    matrix.eliminate_zeros()
    return matrix


@lru_cache(maxsize=8)
def _model_template(space: CompositeSpace) -> _Template:
    hamiltonian, jumps = model_terms(space)
    return _Template.build(space, hamiltonian, [c.toarray() for c in jumps])


def assemble_generator(h: Operator, jumps) -> Superoperator:
    """Full generator (-i [H, .] + sum of dissipators) / hbar, in 1/ps.

    Each jump C with rate r contributes r (C rho C^dag - {C^dag C, rho} / 2).
    The anticommutators fold into H_eff = H - (i/2) sum r C^dag C, kept
    divided by hbar as ``Superoperator.h_eff``, and the generator is
    -i (I kron H_eff) + i (B kron I) + sum r conj(C) kron C with
    B = H^T + (i/2) sum r (C^dag C)^T, all divided by hbar
    (``_lindblad_forms``): the Hamiltonian part stays the commutator
    -i [H, .], which preserves the trace for any H.  R is kept as built,
    free of the roundoff residues of L less its no-jump part.  H may be
    any matrix, so the real forms are formed from L and R on first read,
    with their Hermiticity check.

    Parameters
    ----------
    h : Operator
        hbar-scaled Hamiltonian in ueV.
    jumps : iterable of (Operator, float)
        Jump operators with their hbar-scaled rates in ueV; zero-rate entries
        contribute nothing, and negative or non-finite rates raise
        ``DomainError``.
    """
    jumps = list(jumps)
    for _, rate in jumps:
        if not 0 <= rate < np.inf:
            raise DomainError(f"dissipator rate must be finite and >= 0, got {rate}")
    rates = [float(rate) for _, rate in jumps]
    a = h.matrix / HBAR_UEV_PS
    b = h.matrix.T / HBAR_UEV_PS
    for (jump, _), rate in zip(jumps, rates):
        decay = jump.matrix.conj().T @ jump.matrix / HBAR_UEV_PS
        a = a + rate * (-0.5j * decay)
        b = b + rate * (0.5j * decay.T)
    _flush_subnormals(a)
    matrix, recycling = _lindblad_forms(
        a, b, [_recycling_entries(jump.matrix) for jump, _ in jumps], rates)
    generator = Superoperator(h.space, matrix, a)
    generator.__dict__["recycling"] = recycling
    return generator


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
