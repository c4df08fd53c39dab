"""Sparse assembly of the Lindblad generator.

The generator is that of one master equation,
X -> -i (H_eff X - X H_eff^dag) + sum r C X C^dag, with the no-jump
Hamiltonian H_eff = H - (i/2) sum r C^dag C of a Hermitian H.

Vectorization is column-stacking throughout: ``vec(rho) = rho.ravel(order="F")``
and ``vec(A rho B) = (B^T kron A) vec(rho)``.  All superoperator formulas in
this module are written against that convention.

Hamiltonians and jump rates enter hbar-scaled (in ueV); the generator divides
by ``HBAR_UEV_PS`` exactly once, in its template, so an assembled Liouvillian
has units of 1/ps.

A generator L preserves Hermiticity, so the real coordinates x = U vec(rho)
of ``hilbert.hermitian_basis`` (the state format, defined in ``hilbert``)
carry it as the real matrix G = U L U^H, and its recycling terms
R = sum r conj(C) kron C as R_h = U R U^H.  The steady states iterate on
H_eff and R_h, and the trajectories propagate with G.
One formula, ``_real_generator``, forms G from H_eff and R_h; since U is
unitary, the complex L is U^H G U, formed from G only when it is read.

A generator is linear in a real coefficient vector theta: the coefficients
of Hermitian Hamiltonian terms T_k, then the rates r_j of jump operators C_j.
A ``_Template`` holds, for one set of term operators, the sparse maps from
theta to H_eff and from the rates to the values of R_h on the union of the
jumps' patterns, so a batch of generators is a coefficient contraction: two
sparse products with theta.  Every generator is a member of a contraction:
the model's template is built once per Fock space and contracts a batch of
parameter sets into one ``GeneratorBatch`` (block-diagonal R_h and the
stack of H_eff), and ``assemble_generator`` contracts a one-member template
of one Hamiltonian term and its jumps.  A member's G is formed from its
H_eff and R_h, and its L from its G, only when they are read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .hilbert import (
    DEFAULT_POLICY,
    CompositeSpace,
    Operator,
    hermitian_basis,
    hermitian_coordinates,
    inverse_gather,
)
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
]


@dataclass(frozen=True, eq=False, init=False)
class Superoperator:
    """Lindblad generator on a space of dimension D, in two forms.

    ``real_matrix`` is the real CSR matrix G = U L U^H acting on the real
    coordinates of ``hermitian_basis``, and ``matrix`` the sparse D^2 x D^2
    generator L = U^H G U acting on column-stacked vec(rho), a canonical
    CSR matrix without stored zeros.  ``h_eff`` is the read-only D x D
    no-jump Hamiltonian H - (i/2) sum r C^dag C of the generator, with H
    Hermitian, divided by hbar (1/ps): the generator is
    X -> -i (h_eff X - X h_eff^dag) plus the recycling terms
    sum r C X C^dag, whose real form ``real_recycling`` is R_h = U R U^H
    with R = sum r conj(C) kron C.

    A generator has no public constructor: it is a member of a template's
    ``GeneratorBatch`` (``build_liouvillians``, ``build_liouvillian`` and
    ``assemble_generator``), whose checks the template made.  It cuts R_h
    from its batch's, forms G from its ``h_eff`` and R_h on first read
    (``_real_generator``), and maps G back to L through ``hermitian_basis``
    only when L is read.  Instances are treated as immutable, compare by
    identity, and may be shared freely across workers.
    """

    space: CompositeSpace
    h_eff: np.ndarray = field(repr=False)

    @classmethod
    def _member(cls, batch: "GeneratorBatch", m: int) -> "Superoperator":
        """Member m of a template's ``batch``, whose checks the template has
        made for the whole batch at once.  It keeps the batch's forms, not
        the batch, so that no reference cycle outlives a batch."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", batch.space)
        object.__setattr__(self, "h_eff", batch.h_eff[m])
        # the batch's R_h and the member's index
        object.__setattr__(self, "_forms", (batch.real_recycling, m))
        return self

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        u = hermitian_basis(self.space.total_dim)
        return (u.conj().T @ self.real_matrix @ u).tocsr()

    @cached_property
    def real_matrix(self) -> sp.csr_matrix:
        return _real_generator(self.h_eff, self.real_recycling)

    @cached_property
    def real_recycling(self) -> sp.csr_matrix:
        return _block(self._forms[0], self._forms[1], self.space.total_dim ** 2)

    def trace_defect(self) -> float:
        """Max magnitude of <<I| L, zero for a trace-preserving generator."""
        bra = identity_bra(self.space)
        return float(np.max(np.abs(bra @ self.matrix)))


def _recycling_entries(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices (row D^2 + column) and values of
    conj(C) kron C / hbar for a dense d x d jump C, without repeats."""
    d = c.shape[0]
    i, j = np.nonzero(c)
    v = c[i, j]
    # entry (i1 d + i2, j1 d + j2) of conj(C) kron C is conj(C_i1j1) C_i2j2
    return (((i[:, None] * d + i) * d * d + (j[:, None] * d + j)).ravel(),
            (np.conj(v)[:, None] * v).ravel() / HBAR_UEV_PS)


def _real_terms(out: np.ndarray, into: np.ndarray, c: np.ndarray, d: int):
    """The entries of the real map x -> Re(U vec(M)) for the terms
    M_out += c X_in, with out and into C-order entries of d x d matrices and
    X the Hermitian matrix of the coordinates x: flat keys (row D^2 +
    column) and values, repeats not summed.  On the real and imaginary
    parts of the entries, Re(U vec(M)) is the transpose of the gather of
    ``hilbert.hermitian_matrices``, which fills each part from one coordinate with
    one factor, so each term gives four real entries: Re c Re X and
    -Im c Im X into Re M, Im c Re X and Re c Im X into Im M."""
    source, factor = inverse_gather(d)
    out = np.concatenate((2 * out, 2 * out, 2 * out + 1, 2 * out + 1))
    into = np.concatenate((2 * into, 2 * into + 1, 2 * into, 2 * into + 1))
    values = np.concatenate((c.real, -c.imag, c.imag, c.real)) * (factor[out] * factor[into])
    return source[out] * (d * d) + source[into], values


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sums of their real values, each
    in input order, with subnormal sums flushed and zero sums dropped."""
    keep = values != 0
    pattern, slot = np.unique(keys[keep], return_inverse=True)
    sums = np.bincount(slot, values[keep], pattern.size).astype(float, copy=False)
    _flush_subnormals(sums)
    keep = sums != 0
    return pattern[keep], sums[keep]


def _real_generator(h: np.ndarray, recycling: sp.csr_matrix) -> sp.csr_matrix:
    """G = U L U^H of the generator with no-jump Hamiltonian h (d x d, its
    Hamiltonian part Hermitian) and recycling terms R_h, as a canonical
    real CSR matrix without stored zeros.  For a Hermitian X the no-jump
    part is M + M^dag with M = -i h X, whose coordinates are
    2 Re(U vec(M)): the ``_real_terms`` of 2 M, M_pq += -i h_ps X_sq for
    every column q, summed with the entries of R_h."""
    d = h.shape[0]
    n = d * d
    p, s = np.nonzero(h)
    q = np.arange(d)
    keys, values = _real_terms((p[:, None] * d + q).ravel(), (s[:, None] * d + q).ravel(),
                               np.repeat(-2j * h[p, s], d), d)
    rows = np.repeat(np.arange(n), np.diff(recycling.indptr))
    pattern, data = _summed(np.concatenate((keys, rows * n + recycling.indices)),
                            np.concatenate((values, recycling.data)))
    return sp.csr_matrix(
        (data, pattern % n, np.searchsorted(pattern // n, np.arange(n + 1))), shape=(n, n))


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
    """Generators of one space in the two forms that a steady-state solve
    reads: ``real_recycling``, the block-diagonal CSR matrix of their R_h
    (see ``Superoperator``), member m in the rows and columns m D^2 to
    (m + 1) D^2 - 1, and ``h_eff``, the read-only (B, d, d) stack of
    no-jump Hamiltonians.  A batch has no G of its own; its members form
    theirs when read.  A template's batch and a joined batch hold the same
    three fields.  Indexing gives a member as a
    ``Superoperator``, the same object on every access, and a slice a list
    of them; a batch joined from generators gives the generators it was
    given, and a batch of one holds its member's matrices.  Batches compare
    by identity."""

    space: CompositeSpace
    real_recycling: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)

    @staticmethod
    def join(members) -> "GeneratorBatch":
        """The batch of a sequence of ``Superoperator`` that share one space;
        it reads their R_h and H_eff, not their G."""
        members = tuple(members)
        space = members[0].space
        if any(member.space != space for member in members):
            raise DomainError("a generator batch must share one space")
        h_eff = np.array([member.h_eff for member in members])
        h_eff.flags.writeable = False
        blocks = [member.real_recycling for member in members]
        batch = GeneratorBatch(
            space, blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr"),
            h_eff)
        object.__setattr__(batch, "_members", members)
        return batch

    @cached_property
    def _members(self) -> tuple:
        return tuple(Superoperator._member(self, m) for m in range(len(self)))

    @cached_property
    def scales(self) -> np.ndarray:
        """Per member, the scale of its generator read from H_eff and R_h
        without G: the largest of |h_pp - conj(h_qq)| over level pairs (the
        rates on the no-jump part's diagonal), twice the largest
        off-diagonal |h_pq| and the largest |R_h| entry; 1 for a zero
        generator.  On the preset's map points it matched the largest entry
        of |G| to 1e-3."""
        d = self.space.total_dim
        diagonal = np.diagonal(self.h_eff, axis1=1, axis2=2)
        spread = np.abs(diagonal[:, :, None] - diagonal.conj()[:, None, :]).max(axis=(1, 2))
        off = np.abs(self.h_eff)
        off[:, range(d), range(d)] = 0.0
        magnitudes = np.abs(self.real_recycling.data)
        bounds = self.real_recycling.indptr[::d * d]
        recycled = [magnitudes[start:stop].max(initial=0.0)
                    for start, stop in zip(bounds[:-1], bounds[1:])]
        scales = np.maximum.reduce([spread, 2.0 * off.max(axis=(1, 2)), recycled])
        scales[scales == 0] = 1.0
        return scales

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


@dataclass(frozen=True)
class _Template:
    """Generators of one set of term operators as linear maps of theta.

    ``a`` maps theta to the C-order flattened no-jump Hamiltonian A in ueV,
    which ``contract`` divides by hbar once, so that equal energies cancel
    exactly.  ``r`` maps the jump rates, the last coefficients of theta, to
    the values of R_h = U R U^H on its pattern ``r_indices``/``r_indptr``,
    the union of the jumps' patterns: column j holds the real form of
    conj(C_j) kron C_j / hbar, built once per template.  Each value sums its
    sources in one fixed order, whatever the batch.  Neither G nor L is
    held: a member forms them only when read.
    """

    space: CompositeSpace
    a: sp.csc_matrix = field(repr=False)
    r: sp.csr_matrix = field(repr=False)
    r_indices: np.ndarray = field(repr=False)
    r_indptr: np.ndarray = field(repr=False)

    @staticmethod
    def build(space: CompositeSpace, hamiltonian: sp.csc_matrix, jumps) -> "_Template":
        """The template of the (d^2, K) CSC matrix ``hamiltonian``, whose
        column k is the C-order flattened Hermitian term T_k, and of the
        dense d x d ``jumps``."""
        d = space.total_dim
        n = d * d
        # each jump's R_h: conj(C) kron C takes X to C X C^dag, Hermitian,
        # whose coordinates are Re(U vec(C X C^dag)); entry (a, b) of the
        # Kronecker product maps vec index b to a, and vec index j d + i is
        # C-order entry i d + j
        forms = []
        for key, value in map(_recycling_entries, jumps):
            a, b = np.divmod(key, n)
            forms.append(_summed(*_real_terms(a % d * d + a // d, b % d * d + b // d,
                                              value, d)))
        # one row per position of the union pattern, its columns the jumps
        # in order; the empty leading arrays admit a template of no jumps
        pattern, slot = np.unique(
            np.concatenate([np.empty(0, dtype=np.intp)] + [keys for keys, _ in forms]),
            return_inverse=True)
        jump = np.repeat(np.arange(len(forms)), [keys.size for keys, _ in forms])
        return _Template(
            space=space,
            # A times hbar: the terms T_k, then per jump -(i/2) C^dag C
            a=sp.hstack([hamiltonian] + [sp.csc_matrix(-0.5j * (c.conj().T @ c).reshape(-1, 1))
                                         for c in jumps], format="csc"),
            r=sp.csr_matrix((np.concatenate([np.empty(0)] + [sums for _, sums in forms]),
                             (slot, jump)), shape=(pattern.size, len(forms))),
            r_indices=(pattern % n).astype(np.int32),
            r_indptr=np.searchsorted(pattern // n, np.arange(n + 1)).astype(np.int32),
        )

    def contract(self, thetas: np.ndarray) -> GeneratorBatch:
        """The generators of the rows of the (B, K) coefficient array
        ``thetas``: two sparse products for the whole batch (A and R_h) and
        the trace check of every member, then the stack of H_eff and the
        block-diagonal R_h of the batch, each member's without its exact
        zeros, from which a member forms its G, and from G its L, when read.

        The trace check reads no G: <<I| L U^H is the coordinate vector of
        -i (A - A^dag), twice the anti-Hermitian part of H_eff, which the
        no-jump part takes out of the trace, plus the column sums of R_h's
        population rows (the first d), which the jumps put back.
        """
        thetas = np.asarray(thetas, dtype=float)
        d = self.space.total_dim
        n = d * d
        h_eff = np.ascontiguousarray((self.a @ thetas.T).T).reshape(-1, d, d)
        h_eff /= HBAR_UEV_PS
        # the rates are the last coefficients; (nnz of R_h, B)
        recycling = self.r @ thetas[:, thetas.shape[1] - self.r.shape[1]:].T
        _flush_subnormals(recycling, h_eff)
        # the population rows come first in R_h's pattern
        end = self.r_indptr[d]
        count = len(thetas)
        restored = np.bincount(
            (np.arange(count)[:, None] * n + self.r_indices[:end]).ravel(),
            recycling[:end].T.ravel(), count * n).reshape(count, n)
        defects = np.abs(
            hermitian_coordinates(-1j * (h_eff - h_eff.conj().transpose(0, 2, 1)), d)
            + restored).max(axis=1, initial=0.0)
        h_eff.flags.writeable = False
        batch = GeneratorBatch(
            self.space, _stacked_csr(recycling, self.r_indices, self.r_indptr), h_eff)
        bad = np.flatnonzero(defects > DEFAULT_POLICY.algebraic_tol
                             * np.maximum(1.0, batch.scales))
        if bad.size:
            raise DomainError(
                "superoperator does not preserve the trace "
                f"(defect {defects[bad[0]]:.3e})")
        return batch


def _flush_subnormals(*arrays):
    """Sets subnormal parts to exact zeros in place: they carry no physics
    and overflow the divisions of scipy's Pade expm, the exact-propagation
    oracle that the generators are checked against."""
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
        (values.T.flatten(), columns.ravel(),
         np.append(starts.ravel(), values.size)), shape=(count * n,) * 2)
    matrix.eliminate_zeros()
    return matrix


@lru_cache(maxsize=8)
def _model_template(space: CompositeSpace) -> _Template:
    return _Template.build(space, *model_terms(space))


def assemble_generator(h: Operator, jumps) -> Superoperator:
    """Full generator (-i [H, .] + sum of dissipators) / hbar, in 1/ps, of a
    Hermitian H.

    Each jump C with rate r contributes r (C rho C^dag - {C^dag C, rho} / 2).
    The anticommutators fold into H_eff = H - (i/2) sum r C^dag C, kept
    divided by hbar as ``Superoperator.h_eff``.  The generator is the one
    member of the contraction of a template whose one Hamiltonian term is H,
    with coefficient 1, and whose jumps are the C: the same path, formula
    and checks as the model's generators.  The template's trace check takes
    the anti-Hermitian part of H_eff out of the trace, so a non-Hermitian H
    raises ``DomainError`` here.

    Parameters
    ----------
    h : Operator
        Hermitian hbar-scaled Hamiltonian in ueV.
    jumps : iterable of (Operator, float)
        Jump operators on the space of H with their hbar-scaled rates in
        ueV; zero-rate entries contribute nothing, and a jump on another
        space or a negative or non-finite rate raises ``DomainError``.
    """
    jumps = list(jumps)
    for jump, rate in jumps:
        if jump.space != h.space:
            raise DomainError("a jump operator must act on the space of H")
        if not 0 <= rate < np.inf:
            raise DomainError(f"dissipator rate must be finite and >= 0, got {rate}")
    template = _Template.build(h.space, sp.csc_matrix(h.matrix.reshape(-1, 1)),
                               [jump.matrix for jump, _ in jumps])
    return template.contract([[1.0, *(rate for _, rate in jumps)]])[0]


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
