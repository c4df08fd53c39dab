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
complex L and R stay available, exact, for the API and its checks.

A generator is linear in a real coefficient vector theta: the coefficients
of Hermitian Hamiltonian terms T_k, then the rates r_j of jump operators C_j.
A ``_Template`` holds, for one set of term operators, the sparse maps from
theta to the no-jump Hamiltonian and to the values of G and R_h on their
union sparsity patterns, so a batch of generators is a coefficient
contraction: three sparse products with theta and one scatter.  L and R are
contracted from the template's maps of the complex entries only when they
are read.  The model's template is built once per Fock space, and a
contraction emits a batch's generators as one ``GeneratorBatch``:
block-diagonal G and R_h and the stack of no-jump Hamiltonians.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

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
    ``DomainError``.  A member of a ``GeneratorBatch`` cuts each form from
    its batch's on first read, so its complex forms are contracted only
    when they are read.  Instances are treated as immutable, compare by
    identity, and may be shared freely across workers.
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
        """Member m of ``batch``, whose checks its assembler has made for
        the whole batch at once.  It keeps the batch's forms, not the
        batch, so that no reference cycle outlives a batch."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", batch.space)
        object.__setattr__(self, "h_eff", batch.h_eff[m])
        # the batch's G, R_h and complex forms, and the member's index
        object.__setattr__(self, "_forms", (batch.real_matrix, batch.real_recycling,
                                            batch.complex_forms, m))
        return self

    def _cut(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        """This member's diagonal block of a block-diagonal batch form."""
        return _block(matrix, self._forms[-1], self.space.total_dim ** 2)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        # reached only by batch members: a generator built from L holds it
        return self._cut(self._forms[2]()[0])

    @cached_property
    def recycling(self) -> sp.csr_matrix:
        if self._forms:
            return self._cut(self._forms[2]()[1])
        eye = sp.identity(self.space.total_dim, format="csr")
        h = sp.csr_matrix(self.h_eff)
        recycling = sp.csr_matrix(
            self.matrix + 1j * sp.kron(eye, h) - 1j * sp.kron(h.conj(), eye))
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
    ``h_eff`` is the read-only (B, d, d) stack of no-jump Hamiltonians.
    ``matrix`` (the generators L) and ``recycling`` (their R) are formed
    together by ``complex_forms``, a callable that caches its result, when
    first read.  Indexing gives a member as a ``Superoperator``, the same
    object on every access, and a slice a list of them; a batch of one
    holds its member's matrices.  Batches compare by identity."""

    space: CompositeSpace
    real_matrix: sp.csr_matrix = field(repr=False)
    real_recycling: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)
    complex_forms: Callable[[], tuple] = field(repr=False)

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
            space, _block_diagonal([member.real_matrix for member in members]),
            _block_diagonal([member.real_recycling for member in members]), h_eff,
            _Once(partial(_joined_complex_forms, members)))

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.complex_forms()[0]

    @property
    def recycling(self) -> sp.csr_matrix:
        return self.complex_forms()[1]

    @cached_property
    def _members(self) -> tuple:
        return tuple(Superoperator._member(self, m) for m in range(len(self)))

    def __len__(self) -> int:
        return len(self.h_eff)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._members[index])
        return self._members[index]


class _Once:
    """A zero-argument callable's result, formed on the first call and kept
    (unlike ``functools.cache``, it pickles with its batch)."""

    def __init__(self, form: Callable[[], tuple]):
        self._form = form
        self._value = None

    def __call__(self) -> tuple:
        if self._value is None:
            self._value = self._form()
        return self._value


def _joined_complex_forms(members) -> tuple:
    """The block-diagonal L and R of a list of ``Superoperator``."""
    return (_block_diagonal([member.matrix for member in members]),
            _block_diagonal([member.recycling for member in members]))


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
    B = conj(A) for every term (a Hermitian H), so A alone gives its
    entries: A_ps takes X_sq into Z_pq for every q.  The recycling part
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
    keys = np.concatenate([t[4] for t in terms])
    v = np.concatenate([t[5] for t in terms])
    source = 2 * a_pattern.size + np.repeat(np.arange(len(terms), dtype=np.int32),
                                            [t[4].size for t in terms])
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
class _ComplexPattern:
    """Generators of one set of term operators in their complex forms, as
    linear maps of theta: with L = -i (I kron A) + i (B kron I) + R as in
    ``_term_entries``, ``a``, ``b`` and ``r`` map theta to the C-order
    flattened A (the no-jump Hamiltonian) and B and to the values of R, in
    1/ps.  ``indices``/``indptr`` are the CSR pattern of the union of
    every term's entries in L, and ``r_indices``/``r_indptr`` that of R,
    whose entries sit at ``r_positions`` of L's pattern; ``a_pattern``
    lists the flat indices of A that some term fills and
    ``a_positions[b, k]`` the place of entry ``a_pattern[k]`` of block b of
    I kron A in the pattern, and likewise for B kron I."""

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

    @staticmethod
    def build(d: int, terms) -> "_ComplexPattern":
        n = d * d
        a_keys, a_values, b_keys, b_values, r_keys, r_values = zip(*terms)
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

        def place(keys, pattern=union):
            return np.searchsorted(pattern, keys).astype(np.int32)

        return _ComplexPattern(
            indices=(union % n).astype(np.int32),
            indptr=np.searchsorted(union // n, np.arange(n + 1)).astype(np.int32),
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
        )

    def contract(self, thetas) -> tuple:
        """The block-diagonal L and R of the rows of the (B, K) coefficient
        array ``thetas`` and the (B, d, d) stack of their no-jump
        Hamiltonians: three sparse products and three scatters of R, A and
        B into L's pattern."""
        thetas = np.asarray(thetas, dtype=float)
        a = self.a @ thetas.T  # (d^2, B)
        recycling = self.r @ thetas.T  # (nnz of R, B)
        values = np.zeros((self.indices.size, len(thetas)), dtype=complex)
        values[self.r_positions] = recycling
        values[self.a_positions] += -1j * a[self.a_pattern]
        values[self.b_positions] += 1j * (self.b @ thetas.T)[self.b_pattern]
        d = math.isqrt(self.a.shape[0])
        h_eff = np.ascontiguousarray(a.T).reshape(-1, d, d)
        _flush_subnormals(values, recycling, h_eff)
        return (_stacked_csr(values, self.indices, self.indptr),
                _stacked_csr(recycling, self.r_indices, self.r_indptr), h_eff)


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
    ``terms`` are the per-term entries of ``_term_entries``, from which the
    complex half (``_ComplexPattern``) is built on first use.
    """

    space: CompositeSpace
    terms: tuple = field(repr=False)
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
        a_pattern = _union(a_keys)
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
            terms=terms,
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

    @cached_property
    def _complex(self) -> _ComplexPattern:
        return _ComplexPattern.build(self.space.total_dim, self.terms)

    def contract(self, thetas: np.ndarray) -> GeneratorBatch:
        """The generators of the rows of the (B, K) coefficient array
        ``thetas``: three sparse products for the whole batch (A, then the
        no-jump part of G from A, and R_h), one scatter of R_h into G, the
        trace check of every member, then the block-diagonal G and R_h of
        the batch, each member without its exact zeros.  The complex L and R
        are contracted on first read (``complex_forms``)."""
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
        return GeneratorBatch(
            self.space, _stacked_csr(values, self.indices, self.indptr),
            _stacked_csr(recycling, self.r_indices, self.r_indptr), h_eff,
            _Once(partial(self._complex_forms, thetas)))

    def _complex_forms(self, thetas: np.ndarray) -> tuple:
        """The block-diagonal L and R of the rows of ``thetas``."""
        return self._complex.contract(thetas)[:2]


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
    The anticommutators fold into H_eff = H - (i/2) sum r C^dag C, so the
    generator is -i (I kron H_eff) + i ((H_eff^dag)^T kron I)
    + sum r conj(C) kron C; H_eff / hbar is kept as ``Superoperator.h_eff``.
    Contracted from the complex maps of the terms (H, C_1, ...) with the
    coefficients (1, r_1, ...).  H may be any matrix, so the real forms
    are formed from L on first read, with their Hermiticity check.

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
    terms = _term_entries(h.space.total_dim, sp.csr_matrix(h.matrix.reshape(-1, 1)),
                          [jump.matrix for jump, _ in jumps])
    matrix, _, h_eff = _ComplexPattern.build(h.space.total_dim, tuple(terms)).contract(
        [[1.0] + [rate for _, rate in jumps]])
    return Superoperator(h.space, matrix, h_eff[0])


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
