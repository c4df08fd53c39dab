"""Steady states, exact transient propagation and Fock-truncation convergence."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math
import operator

import numpy as np
import scipy.sparse as sp

# qd_negativity is looked up here by bench/tracing.py
from .entanglement import negativity, qd_negativity  # noqa: F401
from .exceptions import (
    DegenerateSteadyStateError,
    DomainError,
    IntegrationError,
    SingularSolveError,
    SolverError,
)
from .hilbert import (
    CompositeSpace,
    DensityMatrix,
    NumericPolicy,
    basis_index,
    check_coordinates,
    hermitian_coordinates,
    hermitian_matrices,
    inverse_gather,
    occupation_table,
)
from .liouvillian import GeneratorBatch, Superoperator, build_liouvillian
from .model import HBAR_UEV_PS, SystemParams

__all__ = [
    "STEADY_RESIDUAL_TOL",
    "SteadyStateInfo",
    "batch_points",
    "steady_states",
    "steady_state",
    "Schedule",
    "PropagationInfo",
    "Trajectory",
    "evolve",
    "ConvergenceReport",
    "scan_cutoffs",
    "convergence_scan",
    "observables",
    "OBSERVABLES",
]

# residual bound ||L vec(rho_ss)|| for an accepted steady state (L in 1/ps)
STEADY_RESIDUAL_TOL = 1e-9

# relative change of an observable between successive Fock cutoffs below
# which a convergence scan reports the cutoff converged
_CONVERGED_REL_DIFF = 0.01

# steady states and propagated trajectories carry a slightly relaxed
# positivity slack; roundoff at the solver tolerance can dip further below
# zero than freshly constructed states do
_SOLVER_POLICY = NumericPolicy(algebraic_tol=1e-10, positivity_slack=1e-8)

# GMRES restart length: the preconditioned bordered system takes 10-17
# steps on the benchmark systems, and up to ~120 on random physical
# parameters whose jump rates dominate their Hamiltonian
_GMRES_RESTART = 128
# GMRES passes a system may take: a second, warm-started pass refines a
# solution whose true residual missed its target
_GMRES_PASSES = 2
# target of ||A x - b|| / ||b|| for the bordered system A x = b; the
# forward error is about this over the generator's relative spectral gap
_BORDERED_RESIDUAL_TOL = 1e-14
# relative residual the uniqueness certificate must reach
_CERTIFICATE_RTOL = 1e-6
# Krylov vectors preallocated per GMRES system; the basis grows, by
# doubling up to the restart length, only when a system needs more (a
# full-length basis for a 12-point batch raised the map's peak RSS from 71
# to 87 MB: numpy advises huge pages for arrays of 4 MB and more)
_BASIS_COLUMNS = 16
# byte budget of the preallocated Krylov bases of one steady-state batch,
# which sets the batch size: with real float64 coordinates, 64 points at
# Fock cutoff 1 (D^2 = 256), 12 at cutoff 2, 4 at cutoff 3 and 1 above.  A
# batch costs a fixed part (the bookkeeping of its lockstep GMRES steps,
# the stacked eig and inv, the invariant-block closure) plus a part per
# point: the contraction plus solve of seed-1 benchmark map points (2-vCPU
# machine, one BLAS thread, medians of 30 rounds in one process, batches of
# 4 to 64 points) fit about 2 ms per batch plus 0.46-0.48 ms per point.  So
# a 60-point map block pays the fixed part once, not three times as in
# batches of 24, 24 and 12, for ~3 MB more of basis
_BATCH_BASIS_BYTES = 4_500_000
# |Im w| <= this * max |w| marks an eigenvalue of H_eff as non-decaying
_NON_DECAYING_TOL = 1e-12
# eigenvector-basis condition number above which the no-jump inverse takes
# the Schur route (eps * cond^2 ~ 1e-4)
_EIGENBASIS_COND_MAX = 1e6
# eigenbasis condition bound up to which the eigenbasis inverse counts as
# exact, so that a GMRES step may apply the recycling terms alone: the
# inverse loses about eps * cond^2, which this keeps at the bordered target
_RECYCLING_COND_MAX = np.sqrt(_BORDERED_RESIDUAL_TOL / np.finfo(float).eps)

_TRACE_DRIFT_TOL = 1e-7

# Liouville dimensions D^2 up to this (Fock cutoff 1) propagate with dense
# exp(L dt) matrices; larger spaces with the action of the exponential
_DENSE_PROPAGATOR_MAX_DIM = 256
# consecutive step lengths within this relative distance form one run of
# equal steps, which shares one propagator
_SHARED_STEP_TOL = 1e-12
# on the dense route, a run of equal steps gets a dense exp(G h) when its
# Taylor steps would sum at least _DENSE_MIN_TERMS terms (m s per step,
# ``_taylor_plan``: 45 terms per substep), the cost measure of Al-Mohy &
# Higham (SIAM J. Sci. Comput. 33, 488 (2011)); otherwise each of its steps
# is one Taylor action.  On the twelve bench dynamics generators of seeds 1
# and 2 (D^2 = 256, 2-vCPU Xeon, one BLAS thread, medians of 11-21 calls)
# one dense propagator took 6.0-9.0 ms at 5 ps, the sample step of the
# 801-sample runs, and one Taylor step (m s = 180, of which it sums 116
# from the preset's ground state) 0.84-1.50 ms, so a run of seven such
# steps (m s = 1,260) takes one propagator.  A Taylor step grows with h and a propagator
# only with log h: counted in terms summed, one propagator cost 780-1,220
# at 5 ps, 860-1,620 at 20 ps, 1,650-1,770 at 100 ps and 1,800-3,020 at
# 1000 ps, where one Taylor step took 98-188 ms
_DENSE_MIN_TERMS = 1200
# theta_m, the largest ||A||_1 at which the degree-m Taylor polynomial
# approximates exp(A) to unit roundoff 2^-53 in backward error (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1; theta_16 from
# Higham, Functions of Matrices (SIAM, 2008), Table A.3), for the two
# degrees in use: the dense propagator takes m = 16, with the polynomial's
# coefficients 1/k!, k = 0..16, and the Taylor action m = 45.  The action
# stops below the paper's 55: the terms of a substep sum to up to about
# e^theta_m times the result, which cancels on lossless rotations.  In runs
# of one to seven steps of up to 1 ps (1,500 draws of cutoff-1 physical
# parameters) degrees up to 55 erred by up to 9.3e-13 of max |y|, degrees
# up to 45 by 1.2e-13.  A substep sums terms only until the paper's
# early-termination test passes, which sets the cost more than the degree
# does: over 400 log-spaced steps at each of Fock cutoffs 1 and 2
# (||G h||_1 from 1e-3 to 2e3, the dark-tuned preset, a random state) the
# fixed degree summed as many terms as the least m s over degrees 1-30,
# 35, 40 and 45 in 246 steps, 18-20 fewer in 4 and one more in the 150
# steps below ||G h||_1 = 0.93, whose chosen degree ran to its last term:
# 277,656 against 277,580 terms at cutoff 1, 283,092 against 283,017 at
# cutoff 2, with results within 5e-16
_TAYLOR_THETA = {16: 7.81e-1, 45: 7.2}
_TAYLOR_COEFFICIENTS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 17.0)])
# the unit roundoff of float64, the Taylor action's truncation tolerance
_UNIT_ROUNDOFF = 2.0 ** -53
# samples per block of the dense route, a power of two: after the first
# _SAMPLE_BLOCK matvecs, each later block of that many samples is one
# product with (P^B)^T, P^B formed by log2(B) squarings.  800 steps of the
# benchmark generator (D^2 = 256, 2-vCPU Xeon, one BLAS thread; medians of
# 60 alternated calls in each of four processes) took 10.9-11.3 ms as a
# matvec chain and 4.7-5.5, 5.2-5.9, 7.2-7.5 and 7.2-7.9 ms in blocks of
# 4, 8, 16 and 32
_SAMPLE_BLOCK = 4


@dataclass(frozen=True)
class SteadyStateInfo:
    """Diagnostics of a steady-state solve.

    ``residual`` is ||L vec(rho)|| of the accepted state; ``refined`` says
    that a warm-started correction pass was needed to bring the relative
    bordered residual below 1e-14; ``iterations`` counts the GMRES steps of
    the solve, both passes included, and ``certificate_iterations`` those of
    the uniqueness certificate.
    """

    residual: float
    refined: bool
    iterations: int
    certificate_iterations: int


def _diagnose_kernel(stalled: bool) -> SolverError:
    """The error of a failed steady-state member, by one rule at every
    Liouville dimension: a uniqueness certificate that ``stalled`` (missed
    its target) marks the bordered system as singular to the solver's
    precision, a kernel of at least two dimensions; any other failure is a
    plain ``SingularSolveError``.
    """
    if stalled:
        return DegenerateSteadyStateError(
            "the uniqueness certificate stalled: the generator kernel is "
            "at least 2-dimensional; the steady state is not unique",
            kernel_dimension=2,
        )
    return SingularSolveError(
        "steady-state solve failed although the uniqueness certificate "
        "converged")


def _invariant_blocks(h_eff: np.ndarray, recycling: sp.csr_matrix) -> np.ndarray:
    """Per member of a batch, the number of blocks of Fock basis states
    that H and every active jump leave invariant: a lower bound on the
    dimension of the generator kernel.

    The blocks are the weakly connected components of the graph on the d
    basis states whose edges are the nonzeros of H_eff (those of H and of
    the C^dag C) and the population transfers j -> i, the entries
    R_h[i, j] = sum r |C_ij|^2 of the leading d x d block of the recycling
    terms in real coordinates (the populations are the first d
    coordinates), nonzero exactly where an active jump has C_ij != 0.  For
    i != j they are the entries of G too, since its no-jump part moves no
    population.  The projector onto a block commutes with H and every
    active jump, a strong symmetry, so each block holds a stationary state
    of its own (Buca & Prosen, New J. Phys. 14, 073007 (2012)).  ``h_eff``
    is the (B, d, d) stack and ``recycling`` the block-diagonal R_h of the
    batch.

    The components come from the reachability closure of the symmetrized
    (B, d, d) adjacency with its diagonal set, by repeated squaring (at
    most ceil(log2 d) stacked products): a state heads its block when no
    state of lower index reaches it.
    """
    count, d = h_eff.shape[:2]
    n = d * d
    nodes = np.arange(count * d)
    # the population rows of every member, gathered as one index array
    rows = (nodes // d) * n + nodes % d
    starts = recycling.indptr[rows]
    lengths = recycling.indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    entries = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
    source = np.repeat(nodes, lengths)
    local = recycling.indices[entries] % n
    transfer = (local < d) & (recycling.data[entries] != 0)
    linked = h_eff != 0
    linked[source[transfer] // d, source[transfer] % d, local[transfer]] = True
    linked |= linked.transpose(0, 2, 1)
    linked[:, np.arange(d), np.arange(d)] = True
    reach = linked.astype(float)
    while True:
        # the products count paths, at most d, so they are exact
        closed = (reach @ reach > 0).astype(float)
        if np.array_equal(closed, reach):
            break
        reach = closed
    return np.count_nonzero(reach.argmax(axis=2) == np.arange(d), axis=1)


def _no_jump_inverse(h_eff: np.ndarray, shift: np.ndarray, blocks: np.ndarray):
    """Exact inverses of the no-jump parts X -> -i (H_eff X - X H_eff^dag)
    of a stack of no-jump Hamiltonians ``h_eff`` (B, d, d).

    With H_eff = V diag(w) V^-1 the no-jump part scales the entries of
    V^-1 X V^-H by -i (w_i - conj(w_j)), so one eigendecomposition makes the
    inverse two matrix products on each side and a division; the B
    eigendecompositions are one stacked ``np.linalg.eig`` call.  Applying it
    loses about eps cond(V)^2; for a member near an exceptional point, where
    V is (nearly) singular, the inverse is instead one triangular Sylvester
    solve on the complex Schur form H_eff = Q T Q^dag (Bartels-Stewart),
    exact under unitary similarity.

    An eigenvalue with zero imaginary part belongs to a pure state that H
    keeps and every jump annihilates.  Two or more of them make the steady
    state degenerate, as do ``blocks[m] >= 2`` invariant blocks of basis
    states (``_invariant_blocks``).  A single one would leave a zero
    denominator; the inverse is taken with that eigenvalue moved off the
    real axis by ``shift[m] / 2`` instead, which makes the denominator
    ``shift[m]``.

    Returns ``(apply, errors, exact)``.  ``errors`` maps the index of every
    degenerate member to its ``DegenerateSteadyStateError``, whose kernel
    dimension is the larger of the two bounds.  ``apply(y, active=None)``
    acts on a (L, k, d, d) stack of matrices, k per member, for the L
    other members in order; matrices outside an (L, k) mask ``active``
    are skipped and come back zero.  ``exact`` (L,) marks the
    members whose inverse is that of their no-jump part N to roundoff: no
    level shifted, and a bound on cond(V) that keeps eps cond^2 at the
    1e-14 bordered target.  For them L N^-1 = I + R N^-1, with R the
    recycling terms, so a GMRES step need not multiply by L.  The bound
    takes the unit columns of V: its singular values have sum sigma^2 = d,
    so every (sigma - 1/sigma)^2 is at most e = ||V^-1||_F^2 - d and
    cond(V) <= s^2 with s - 1/s = sqrt(e).  So cond(V) <= C when
    e <= (C - 1)^2 / C, C = ``_RECYCLING_COND_MAX``; a NaN e fails it.
    """
    d = h_eff.shape[1]
    w, v = np.linalg.eig(h_eff)
    tol = _NON_DECAYING_TOL * np.abs(w).max(axis=1)
    stationary = np.abs(w.imag) <= tol[:, None]
    errors = {}
    degenerate = (np.count_nonzero(stationary, axis=1) >= 2) | (blocks >= 2)
    for m in np.nonzero(degenerate)[0].tolist():
        # k equal levels span k^2 stationary operators |v_i><v_j|
        levels = np.sort(w[m].real[stationary[m]])
        groups = np.split(levels, np.nonzero(np.diff(levels) > tol[m])[0] + 1)
        kernel_dim = sum(g.size ** 2 for g in groups)
        if kernel_dim < blocks[m]:
            kernel_dim = int(blocks[m])
            reason = (f"H and the jumps leave {kernel_dim} blocks of basis "
                      "states invariant")
        elif levels.size == d and np.any(h_eff[m] != h_eff[m].conj().T):
            reason = (f"all {d} levels of H_eff count as non-decaying, though H_eff is "
                      f"not Hermitian: its decay rates lie below {_NON_DECAYING_TOL:g} of "
                      f"its largest energy, {HBAR_UEV_PS * np.abs(w[m]).max():.3g} ueV")
        else:
            reason = f"{levels.size} levels of H_eff never decay"
        errors[m] = DegenerateSteadyStateError(
            f"the generator kernel is at least {kernel_dim}-dimensional: "
            f"{reason}; the steady state is not unique",
            kernel_dimension=kernel_dim,
        )
    live = [m for m in range(h_eff.shape[0]) if m not in errors]
    h_eff, w, v, tol = h_eff[live], w[live], v[live], tol[live]
    shift, stationary = np.asarray(shift)[live], stationary[live]
    w[stationary] -= 0.5j * np.broadcast_to(shift[:, None], w.shape)[stationary]

    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # a defective H_eff among the members
        v_inv = np.full_like(v, np.nan)
        for m in range(len(live)):
            try:
                v_inv[m] = np.linalg.inv(v[m])
            except np.linalg.LinAlgError:
                pass
    # eig returns unit columns, so ||V||_F = sqrt(d); NaN fails the tests
    inverse_norm = np.linalg.norm(v_inv, axis=(1, 2))
    eigen = np.sqrt(d) * inverse_norm <= _EIGENBASIS_COND_MAX
    # the cond(V) bound above, on e = ||V^-1||_F^2 - d
    exact = inverse_norm ** 2 - d <= (_RECYCLING_COND_MAX - 1.0) ** 2 / _RECYCLING_COND_MAX
    exact &= ~stationary.any(axis=1)
    # X = V [(V^-1 Y V^-H) / den] V^H (contiguous, like every stack the
    # products below see)
    left_in = v_inv
    right_in = np.ascontiguousarray(v_inv.conj().transpose(0, 2, 1))
    left_out = v
    right_out = np.ascontiguousarray(v.conj().transpose(0, 2, 1))
    denominators = -1j * (w[:, :, None] - w.conj()[:, None, :])

    schur = []
    for m in np.nonzero(~eigen)[0].tolist():
        # loaded by this route alone, which no other solve needs
        import scipy.linalg

        t, q = scipy.linalg.schur(h_eff[m], output="complex")
        level = np.nonzero(np.abs(np.diag(t).imag) <= tol[m])[0]
        t[level, level] -= 0.5j * shift[m]
        schur.append((m, t, q, q.conj().T))

    def apply(y: np.ndarray, active: np.ndarray | None = None) -> np.ndarray:
        # contiguous, so that a member's products take the same path
        # whatever the size and layout of the stack
        y = np.ascontiguousarray(y)
        if active is None:
            active = np.ones(y.shape[:2], dtype=bool)
        take = active & eigen[:, None]
        if take.all():
            return (left_out[:, None] @ ((left_in[:, None] @ y @ right_in[:, None])
                                         / denominators[:, None])
                    @ right_out[:, None])
        out = np.zeros_like(y)
        members = np.nonzero(take)[0]
        out[take] = (left_out[members]
                     @ ((left_in[members] @ y[take] @ right_in[members])
                        / denominators[members])
                     @ right_out[members])
        for m, t, q, q_h in schur:
            for k in np.nonzero(active[m])[0]:
                # T X' - X' T^dag = i Q^dag Y Q, X = Q X' Q^dag
                c = q_h @ y[m, k] @ q
                z, scale, _ = scipy.linalg.lapack.ztrsyl(
                    t, t, c, trana="N", tranb="C", isgn=-1)
                out[m, k] = (q @ z @ q_h) * (1j / scale)
        return out

    return apply, errors, exact


def _rotation(f: np.ndarray, g: np.ndarray):
    """Real Givens rotations (c, s, r) with c f + s g = r and
    -s f + c g = 0, elementwise; c = 1, s = 0 where f = g = 0."""
    r = np.hypot(f, g)
    nonzero = r > 0
    safe = np.where(nonzero, r, 1.0)
    return np.where(nonzero, f / safe, 1.0), g / safe, r


def _lockstep_gmres(operator, rhs: np.ndarray, rtol: np.ndarray):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
    (1986)) on a stack of independent real systems A_s x_s = b_s, run in
    lockstep.

    ``rhs`` is (..., n); ``operator(v, active)`` applies every A_s to its
    own vector of an array of that shape, so one step is one operator call
    for all systems.  It may skip the systems outside the boolean mask
    ``active`` (None: all), whose vectors are zero, and return zero for
    them.  Each system keeps its own Krylov basis, Givens rotations and
    stop step.  The basis is orthogonalized at every dimension by classical
    Gram-Schmidt with one reorthogonalization, which keeps it orthogonal to
    working precision ("twice is enough": Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 1069 (2005)): two stacked products over the
    whole stack in every step, stopped systems and their zero vectors
    included.  A pass
    ends for a system when its residual estimate reaches
    ``rtol * ||b_s||`` (``rtol`` broadcasts over ``rhs.shape[:-1]``), at an
    exact solution, at a non-finite estimate or after ``_GMRES_RESTART``
    steps.  A system whose true residual then misses its target takes
    another pass, warm-started, up to ``_GMRES_PASSES`` in all.  The basis,
    the Hessenberg matrices, the rotations and the coefficient rows are
    allocated once per call and grow together.
    Returns x, the steps and passes taken and whether the target was
    reached, each shaped like ``rhs`` without its last axis.
    """
    shape, n = rhs.shape[:-1], rhs.shape[-1]
    b = rhs.reshape(-1, n)
    count = b.shape[0]
    target = np.broadcast_to(rtol, shape).reshape(-1) * np.linalg.norm(b, axis=1)
    eps = np.finfo(float).eps

    def apply(v, active=None):
        # contiguous both ways: a system's arithmetic must not depend on
        # the layout the stack size happens to give
        out = operator(np.ascontiguousarray(v).reshape(rhs.shape),
                       None if active is None else active.reshape(shape))
        return np.ascontiguousarray(out).reshape(count, n)

    x = np.zeros_like(b)
    r, rnorm = b, np.linalg.norm(b, axis=1)
    steps = np.zeros(count, dtype=int)
    used = np.zeros(count, dtype=int)
    columns = min(_BASIS_COLUMNS, _GMRES_RESTART)
    # basis[i] holds the i-th Krylov vector of every system, contiguous
    basis = np.empty((columns + 1, count, n))
    hessenberg = np.empty((count, columns, columns))
    # the product of a pass's Givens rotations, applied to each new
    # Hessenberg column in one product
    rotations = np.empty((count, columns + 1, columns + 1))
    # the Gram-Schmidt coefficients of the step's new vector
    coefficients = np.empty((count, columns + 1))
    g = np.empty((count, _GMRES_RESTART + 1))
    for _pass in range(_GMRES_PASSES):
        active = rnorm > target
        if not active.any():
            break
        used += active
        basis[0] = r * (active / np.where(active, rnorm, 1.0))[:, None]
        g[:] = 0.0
        g[:, 0] = np.where(active, rnorm, 0.0)
        rotations[:] = 0.0
        rotations[:, 0, 0] = 1.0
        stop = np.zeros(count, dtype=int)
        for j in range(_GMRES_RESTART):
            if j == columns:  # the basis grows only when a system needs it
                columns = min(2 * columns, _GMRES_RESTART)
                grown = np.empty((columns + 1, count, n))
                grown[:j + 1] = basis[:j + 1]
                basis = grown
                grown = np.empty((count, columns, columns))
                grown[:, :j, :j] = hessenberg[:, :j, :j]
                hessenberg = grown
                grown = np.zeros((count, columns + 1, columns + 1))
                grown[:, :j + 1, :j + 1] = rotations[:, :j + 1, :j + 1]
                rotations = grown
                coefficients = np.empty((count, columns + 1))
            w = apply(basis[j], active)
            h0 = np.linalg.norm(w, axis=1)
            row = coefficients[:, :j + 2]
            row[:] = 0.0
            # classical Gram-Schmidt, then once more, over the whole stack:
            # a stopped system's vectors are zero and stay so
            previous = basis[:j + 1].transpose(1, 0, 2)
            for _ in range(2):
                projection = (previous @ w[:, :, None])[:, :, 0]
                w -= (projection[:, None, :] @ previous)[:, 0]
                row[:, :j + 1] += projection
            h1 = np.linalg.norm(w, axis=1)
            row[:, j + 1] = h1
            breakdown = h1 <= eps * h0
            keep = active & ~breakdown
            basis[j + 1] = w * (keep / np.where(keep, h1, 1.0))[:, None]
            column = (rotations[:, :j + 1, :j + 1] @ row[:, :j + 1, None])[:, :, 0]
            c, s, column[:, j] = _rotation(column[:, j], h1)
            hessenberg[:, :j + 1, j] = column
            # the new rotation mixes rows j and j + 1 of the product
            previous_row = rotations[:, j, :j + 1].copy()
            rotations[:, j, :j + 1] = c[:, None] * previous_row
            rotations[:, j, j + 1] = s
            rotations[:, j + 1, :j + 1] = -s[:, None] * previous_row
            rotations[:, j + 1, j + 1] = c
            g[:, j + 1] = -s * g[:, j]
            g[:, j] *= c
            estimate = np.abs(g[:, j + 1])
            stop[active] = j + 1
            active &= ~((estimate <= target) | breakdown | ~np.isfinite(estimate))
            if not active.any():
                break
            basis[j + 1] *= active[:, None]
        # back substitution, each system on its own first stop_s columns; the
        # sums run in a fixed order and past stop_s add exact zeros, so a
        # system's result does not depend on the others
        k = int(stop.max())
        y = np.zeros((count, k))
        for i in range(k - 1, -1, -1):
            diagonal = hessenberg[:, i, i]
            usable = (i < stop) & (diagonal != 0)
            residual = g[:, i].copy()
            for col in range(i + 1, k):
                residual -= hessenberg[:, i, col] * y[:, col]
            y[:, i] = np.where(usable, residual, 0.0) / np.where(usable, diagonal, 1.0)
        for i in range(k):
            x += y[:, i, None] * basis[i]
        steps += stop
        r = b - apply(x)
        rnorm = np.linalg.norm(r, axis=1)
    return (x.reshape(rhs.shape), steps.reshape(shape), used.reshape(shape),
            (rnorm <= target).reshape(shape))


@lru_cache(maxsize=8)
def _certificate_rhs(n: int) -> np.ndarray:
    """Fixed-seed random right-hand side of the uniqueness certificate: the
    real coordinates of a random Hermitian matrix."""
    rhs = np.random.default_rng(0).standard_normal(n)
    rhs.flags.writeable = False
    return rhs


def batch_points(dim2: int) -> int:
    """Steady states solved together in one batch at Liouville dimension
    D^2: as many as fit two real float64 Krylov bases of
    ``_BASIS_COLUMNS`` vectors each into ``_BATCH_BASIS_BYTES`` (64 at
    D^2 = 256, 12 at 1296, 4 at 4096), and at least one.  A sweep of up to
    that many points is one batch."""
    per_point = 2 * (_BASIS_COLUMNS + 1) * dim2 * np.dtype(float).itemsize
    return max(1, _BATCH_BASIS_BYTES // per_point)


def _no_jump_coordinates(h_eff: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """The real coordinates of the no-jump parts -i (H_eff X - X H_eff^dag)
    of a stack of (..., d, d) matrices X, for a stack ``h_eff`` of no-jump
    Hamiltonians that broadcasts against it.  Added to R_h x, they give G x
    for the coordinates x of X without G."""
    no_jump = -1j * (h_eff @ matrices - matrices @ h_eff.conj().swapaxes(-1, -2))
    return hermitian_coordinates(no_jump, h_eff.shape[-1])


def _residuals(batch: GeneratorBatch, x: np.ndarray) -> np.ndarray:
    """||G x|| per member of a batch, for its (B, D^2) real coordinates x,
    without G, from the Hermitian matrices of x."""
    h_eff = batch.h_eff
    recycled = (batch.real_recycling @ x.reshape(-1)).reshape(x.shape)
    no_jump = _no_jump_coordinates(h_eff, hermitian_matrices(x, h_eff.shape[1]))
    return np.linalg.norm(no_jump + recycled, axis=1)


def steady_states(liouvilles) -> list:
    """Unique steady states of a batch of trace-preserving generators that
    share one space, solved together: a ``GeneratorBatch``, or a sequence
    of ``Superoperator`` joined into one.

    The solve runs in float64, in the real coordinates x = U vec(rho) of
    ``hilbert.hermitian_basis``, on the real generators G = U L U^H
    (populations first), read as their two parts: the no-jump Hamiltonian
    H_eff and the recycling terms R_h = U R U^H.  Each generator gives the
    trace-bordered system (G + s e_0 t^T) x = s e_0, where t sums the d
    population coordinates (the trace), e_0 is the population of the first
    basis state and s the generator's scale from H_eff and R_h
    (``GeneratorBatch.scales``: the largest of |h_pp - conj(h_qq)|, twice
    the largest off-diagonal |h_pq| and the largest |R_h| entry; on the
    preset's map points it matched the largest entry of |G| to 1e-3).  It is
    nonsingular exactly when the kernel of G is one-dimensional, and its
    solution has unit trace.  Every member contributes two systems to one
    lockstep GMRES (``_lockstep_gmres``, restart 128, two passes): the
    bordered system, to a relative residual of 1e-14 (a second, warm-started
    pass sets ``refined``), and its uniqueness certificate, the same matrix
    with a fixed-seed random real right-hand side (a random Hermitian
    matrix), to 1e-6.  All systems are right preconditioned with the inverse
    P^-1 of their no-jump part N (``_no_jump_inverse``, one stacked
    eigendecomposition of the H_eff), applied between one gather of the
    coordinates to Hermitian matrices and one gather back, so that only the
    recycling terms R_h = U R U^H and the border are left to iterate on:
    10-17 steps on the benchmark systems at Fock cutoffs 1-4.  Where P^-1
    inverts N to roundoff, G P^-1 = I + R_h P^-1, and a step applies y + R_h
    P^-1 y plus the border: R_h holds about a fifth of G's nonzeros.  A
    member with a shifted non-decaying level, or whose eigenbasis is too
    ill-conditioned for that, applies G P^-1 y plus the border instead, as
    coords(-i (H_eff X - X H_eff^dag)) + R_h x with X = P^-1 y and x its
    coordinates (``_no_jump_coordinates``, the formula of the residual
    below).  The choice is read per member from its data, so a member's
    arithmetic does not depend on its batch.  A GMRES step is one batched
    preconditioner call and one sparse product with the block-diagonal R_h
    per right-hand side; systems that have stopped are skipped.  No solve
    forms G, and so no L = U^H G U either.  The solve runs on numpy and
    scipy.sparse alone at every Liouville dimension (the Krylov bases by
    classical Gram-Schmidt with one reorthogonalization); only a member on
    the Schur route of ``_no_jump_inverse`` loads ``scipy.linalg``.

    A degenerate generator makes the bordered system singular but still
    consistent, so GMRES alone would return a state.  Three checks stop
    that.  Before any iteration, two or more non-decaying levels of H_eff,
    or two or more blocks of basis states that H and the active jumps leave
    invariant (``_invariant_blocks``, read from the leading d x d block of
    R_h), give a ``DegenerateSteadyStateError`` carrying the larger of the
    two kernel bounds.  On a singular system the certificate stalls (near a
    relative residual of 0.3).  A stalled certificate, a non-finite result,
    a steady-state residual ||L vec(rho)|| = ||G x|| above
    ``STEADY_RESIDUAL_TOL`` (on the whole generator, as
    ||coords(-i (H_eff X - X H_eff^dag)) + R_h x|| with X the state's
    matrix, so without G) or a state that fails the density check (one
    ``hilbert.check_coordinates`` over the coordinates of the batch's
    states, repeated per member only when it fails) goes to
    ``_diagnose_kernel``, one rule at every Fock cutoff: a stalled
    certificate gives ``DegenerateSteadyStateError`` with kernel dimension
    2, any other failure ``SingularSolveError``.  Failures stay with their
    member.

    Returns one entry per generator, in order: ``(x, SteadyStateInfo)``
    with x the read-only (D^2,) coordinates of the trace-normalized state,
    or the ``SolverError`` of a failed member.  The states stay in
    coordinates, the format that ``observables`` reads.
    """
    batch = (liouvilles if isinstance(liouvilles, GeneratorBatch)
             else GeneratorBatch.join(liouvilles))
    count = len(batch)
    d = batch.space.total_dim
    n = d * d
    # the trace border, and the denominator of a non-decaying level, carry
    # each generator's own scale, so the solve does not depend on its units
    weights = batch.scales
    precondition, outcomes, exact = _no_jump_inverse(
        batch.h_eff, weights, _invariant_blocks(batch.h_eff, batch.real_recycling))
    live = [m for m in range(count) if m not in outcomes]
    if not live:
        return [outcomes[m] for m in range(count)]
    size = len(live)
    if size < count:
        batch = GeneratorBatch.join([batch[m] for m in live])
    weights = weights[live]
    # the identity of I + R_h P^-1, on the members whose P^-1 is exact; the
    # others apply their no-jump part to X = P^-1 y
    recycled = True if exact.all() else exact[:, None, None]
    inexact = np.flatnonzero(~exact)
    inexact_h_eff = batch.h_eff[inexact, None]

    def bordered(y, active=None):
        # X = P^-1 y: the no-jump inverse of the Hermitian matrices of y
        matrices = precondition(hermitian_matrices(y, d), active)
        x = hermitian_coordinates(matrices, d)
        out = np.zeros_like(x)
        # one product per column (solve or certificate) that some member
        # still iterates on
        for k in range(x.shape[1]):
            if active is None or active[:, k].any():
                out[:, k] = (batch.real_recycling @ x[:, k].reshape(-1)).reshape(size, n)
        np.add(out, y, out=out, where=recycled)
        if inexact.size:
            out[inexact] += _no_jump_coordinates(inexact_h_eff, matrices[inexact])
        out[:, :, 0] += weights[:, None] * x[:, :, :d].sum(axis=2)
        return out

    rhs = np.zeros((size, 2, n))
    rhs[:, 0, 0] = weights
    rhs[:, 1] = _certificate_rhs(n)
    y, steps, passes, reached = _lockstep_gmres(
        bordered, rhs, np.array([_BORDERED_RESIDUAL_TOL, _CERTIFICATE_RTOL]))
    x = hermitian_coordinates(precondition(hermitian_matrices(y[:, :1], d))[:, 0], d)
    accepted = reached[:, 1] & np.all(np.isfinite(x), axis=1)
    # the coordinates of the accepted states, trace-normalized: the
    # populations come first
    coordinates = np.zeros((size, n))
    coordinates[accepted] = x[accepted] / x[accepted, :d].sum(axis=1)[:, None]
    # ||L vec(rho)|| = ||G x||, U being unitary
    residuals = _residuals(batch, coordinates)
    valid = accepted & (residuals <= STEADY_RESIDUAL_TOL)
    # a state that fails validation (a negative eigenvalue from a nearly
    # singular generator) is a failed solve; one check covers the batch,
    # and only a failed one is repeated per member to find the culprits
    try:
        if valid.any():
            check_coordinates(coordinates[valid], d, _SOLVER_POLICY)
    except DomainError:
        for i in np.flatnonzero(valid).tolist():
            try:
                check_coordinates(coordinates[i], d, _SOLVER_POLICY)
            except DomainError:
                valid[i] = False
    coordinates.flags.writeable = False
    for i, m in enumerate(live):
        if not valid[i]:
            outcomes[m] = _diagnose_kernel(not reached[i, 1])
            continue
        outcomes[m] = (coordinates[i], SteadyStateInfo(
            residual=float(residuals[i]), refined=bool(passes[i, 0] > 1),
            iterations=int(steps[i, 0]), certificate_iterations=int(steps[i, 1])))
    return [outcomes[m] for m in range(count)]


def steady_state(liouville: Superoperator, return_info: bool = False):
    """Unique steady state of a trace-preserving generator: a one-member
    ``steady_states`` batch, whose arithmetic is the member's in any batch,
    gathered to a ``DensityMatrix`` (its checks made by the solve).
    Raises the member's ``DegenerateSteadyStateError`` or
    ``SingularSolveError`` when it fails."""
    (outcome,) = steady_states([liouville])
    if isinstance(outcome, SolverError):
        raise outcome
    x, info = outcome
    matrix = hermitian_matrices(x, liouville.space.total_dim)
    matrix.flags.writeable = False
    state = DensityMatrix._checked(liouville.space, matrix, _SOLVER_POLICY)
    return (state, info) if return_info else state


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant parameter schedule: parameters hold within a
    segment and switch instantaneously at segment boundaries."""

    segments: tuple[tuple[float, SystemParams], ...]

    def __post_init__(self):
        segments = tuple((float(d), p) for d, p in self.segments)
        if not segments:
            raise IntegrationError("schedule needs at least one segment")
        if not all(0 < d < np.inf for d, _ in segments):
            raise IntegrationError("segment durations must be positive and finite")
        spaces = {p.space() for _, p in segments}
        if len(spaces) != 1:
            raise IntegrationError("all schedule segments must share one space")
        object.__setattr__(self, "segments", segments)

    @staticmethod
    def constant(params: SystemParams, duration: float) -> "Schedule":
        return Schedule(((duration, params),))

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def space(self) -> CompositeSpace:
        return self.segments[0][1].space()


@dataclass(frozen=True)
class PropagationInfo:
    """Diagnostics of one ``evolve`` call.

    ``route`` is ``"dense_expm"`` or ``"taylor_action"``;
    ``dense_propagators`` counts the dense exp(G dt) matrices built by
    ``_dense_propagator`` (none on the ``taylor_action`` route);
    ``taylor_steps`` counts the steps taken by ``_taylor_action``: on the
    dense route each step of a run of equal steps that gets no dense
    propagator (one whose Taylor steps would sum fewer than
    ``_DENSE_MIN_TERMS`` terms), on the other every step;
    ``propagators`` is their sum; ``max_trace_drift`` is the largest
    |Tr(rho) - 1| of the raw sampled states, before renormalization.
    """

    route: str
    dense_propagators: int
    taylor_steps: int
    max_trace_drift: float

    @property
    def propagators(self) -> int:
        return self.dense_propagators + self.taylor_steps


@dataclass(frozen=True)
class Trajectory:
    """Sampled open-system evolution with named observable series.

    ``coordinates`` is the read-only ``(n, D^2)`` array of the validated
    sampled states in the real coordinates of
    ``hilbert.hermitian_basis``; ``matrices`` gathers their complex
    ``(n, d, d)`` stack on each read and does not keep it.
    """

    times: np.ndarray
    space: CompositeSpace
    coordinates: np.ndarray = field(repr=False)
    observables: dict[str, np.ndarray]
    info: PropagationInfo

    @property
    def matrices(self) -> np.ndarray:
        """The read-only ``(n, d, d)`` density matrices of the samples."""
        matrices = hermitian_matrices(self.coordinates, self.space.total_dim)
        matrices.flags.writeable = False
        return matrices

    def peak(self, name: str) -> tuple[float, float]:
        """(time, value) of the maximum of one observable series."""
        series = self.observables[name]
        k = int(np.argmax(series))
        return float(self.times[k]), float(series[k])


# the population names of the model space (QD1, QD2, mode1, mode2)
_POPULATIONS = ("pop_qd1", "pop_qd2", "pop_m1", "pop_m2")


@lru_cache(maxsize=16)
def _emitter_map(space: CompositeSpace) -> np.ndarray:
    """The partial trace over the modes (subsystems 2 and up) as a map of
    ``hilbert.hermitian_basis`` coordinates: the sparse (16, D^2) 0/1 matrix
    from the coordinates of a model-space state to those of its reduced
    emitter state, held as the (16, r) table of the columns of its rows,
    r the number of mode states.  Each reduced population sums the r
    populations, and each reduced coherence the r coherences, of the basis
    states whose mode occupations agree (``hilbert.occupation_table``); the
    positions of a coherence's Re and Im coordinates are read from
    ``hilbert.inverse_gather``.  Cached per space; do not modify."""
    d = space.total_dim
    occupations = occupation_table(space)
    modes = np.unique(occupations[:, 2:], axis=0).tolist()
    # members[a, m]: the basis state of emitter state a and mode state m
    members = np.array([[basis_index(space, (*a, *m)) for m in modes]
                        for a in np.unique(occupations[:, :2], axis=0).tolist()])
    source = inverse_gather(d)[0]
    a, b = np.triu_indices(len(members), 1)
    # the real and imaginary parts of each coherence's upper entry
    part = 2 * (members[a] * d + members[b])
    coherences = np.stack((source[part], source[part + 1]), axis=1).reshape(-1, len(modes))
    table = np.concatenate((members, coherences))
    table.flags.writeable = False
    return table


def observables(space: CompositeSpace, x: np.ndarray,
                policy: NumericPolicy = _SOLVER_POLICY) -> dict:
    """The observables of one model-space state or of a stack, given by
    their real ``hermitian_basis`` coordinates ``x`` (..., D^2), in CSV
    column order: the negativity of the two emitters, then the population
    Tr(n_k rho) of each subsystem (``pop_qd1``, ``pop_qd2``, ``pop_m1``,
    ``pop_m2``).  Both are linear in x: the populations of every state are
    one product of its d population coordinates with the (d, 4) occupation
    table, and the coordinates of the reduced emitter states one sparse
    (16, D^2) map (``_emitter_map``).  The reduced coordinates are checked
    under ``policy`` (``hilbert.check_coordinates``), then gathered to
    4 x 4 matrices for the negativity."""
    d = space.total_dim
    e = space.dims[0] * space.dims[1]
    # each row of the 0/1 map is a sum of the coordinates it gathers
    reduced = np.take(x, _emitter_map(space), axis=-1).sum(axis=-1)
    check_coordinates(reduced, e, policy)
    populations = np.moveaxis(x[..., :d] @ occupation_table(space), -1, 0)
    return {"negativity": negativity(hermitian_matrices(reduced, e)),
            **dict(zip(_POPULATIONS, populations))}


# named steady-state functionals ``(params, rho) -> value`` of convergence
# scans, each checked under the state's own policy
OBSERVABLES = {
    name: lambda params, rho, name=name: observables(
        rho.space, hermitian_coordinates(rho.matrix, rho.space.total_dim),
        rho.policy)[name]
    for name in ("negativity",) + _POPULATIONS
}


def _step_runs(steps: np.ndarray) -> list[list]:
    """Consecutive step lengths as [length, count] runs; a step joins the
    run before it when the two agree to within ``_SHARED_STEP_TOL``."""
    runs: list[list] = []
    for h in steps.tolist():
        if runs and abs(h - runs[-1][0]) <= _SHARED_STEP_TOL * runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    return runs


def _dense_propagator(generator: sp.csr_matrix, norm: float, h: float) -> np.ndarray:
    """The dense exp(G h) of a sparse generator of 1-norm ``norm``, by
    scaling and squaring its degree-16 Taylor polynomial, without a linear
    solve.

    s is the least integer with ||G h||_1 / 2^s <= theta_16 = 0.781; the
    1-norm bounds the alpha_p of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
    488 (2011)), so T_16(A) of A = G h / 2^s has a backward error of at
    most unit roundoff, and exp(G h) = T_16(A)^(2^s), s squarings.  The
    polynomial takes the Paterson-Stockmeyer form (SIAM J. Comput. 2, 60
    (1973)) on A, A^2, A^3 and A^4: T_16 = B_0 + A^4 (B_1 + A^4 (B_2 + A^4
    (B_3 + A^4 / 16!))), B_j = sum_i A^i / (4 j + i)!, i = 0..3.  The powers
    are sparse-by-dense products, since G is sparse (3,256 of its 65,536
    entries at Fock cutoff 1); the Horner steps are three dense products.
    """
    mantissa, exponent = math.frexp(norm * h / _TAYLOR_THETA[16])
    # norm h / theta = mantissa 2^exponent, mantissa in [1/2, 1), or 0
    squarings = max(0, exponent - (mantissa == 0.5))
    a = generator * (h / 2.0 ** squarings)
    powers = [a.toarray()]
    for _ in range(3):
        powers.append(a @ powers[-1])
    a4 = powers[3]
    c = _TAYLOR_COEFFICIENTS
    n = a.shape[0]
    p = c[16] * a4
    for j in (3, 2, 1, 0):
        for i in range(1, 4):
            p += c[4 * j + i] * powers[i - 1]
        p.flat[::n + 1] += c[4 * j]
        if j:
            p = a4 @ p
    for _ in range(squarings):
        p = p @ p
    return p


def _taylor_plan(norm: float) -> tuple[int, int]:
    """The degree m = 45 and substeps s = ceil(norm / theta_45) of the
    Taylor action on a matrix of 1-norm ``norm``, so that every substep's
    matrix has 1-norm at most theta_45 = 7.2; m s bounds the terms summed."""
    return 45, math.ceil(norm / _TAYLOR_THETA[45])


def _taylor_action(generator: sp.csr_matrix, norm: float, h: float,
                   y: np.ndarray, out: np.ndarray):
    """Writes exp(G h) y into ``out``, by the truncated Taylor series with
    s substeps of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011),
    Algorithm 3.2, without the shift): y is moved s times by T_m(A), the
    degree-m Taylor polynomial of A = G h / s, m and s from
    ``_taylor_plan(||G h||_1)`` (``norm`` is ||G||_1): m = 45 and s =
    ceil(||G h||_1 / theta_45), so T_m(A) approximates exp(A) to unit
    roundoff in backward error.  Each term is one CSR matvec with A, added
    to ``out`` in place; a substep stops at the paper's early-termination
    test, two successive terms together below unit roundoff of the partial
    sum (in the inf-norm), which sets how many of the m terms it sums (26
    of 45 in a 1 ps step of the preset's ground state at Fock cutoff 1)."""
    # BLAS keeps the per-term bookkeeping cheap; loaded by the first step
    from scipy.linalg.blas import daxpy, idamax

    degree, substeps = _taylor_plan(norm * h)
    out[:] = y
    if not substeps:  # G h = 0
        return
    a = generator * (h / substeps)
    for _ in range(substeps):
        power = out
        previous = bound = abs(power[idamax(power)])
        coefficient = 1.0
        for j in range(1, degree + 1):
            power = a @ power
            coefficient /= j
            term = coefficient * abs(power[idamax(power)])
            daxpy(power, out, a=coefficient)
            # bound, the norm at the substep's start plus the terms since,
            # is at least ||out||, so ||out|| is read only when the test
            # can pass
            bound += term
            if (previous + term <= _UNIT_ROUNDOFF * bound
                    and previous + term <= _UNIT_ROUNDOFF * abs(out[idamax(out)])):
                break
            previous = term


def _propagate(generator: sp.csr_matrix, y: np.ndarray, steps: np.ndarray,
               out: np.ndarray):
    """Writes the coordinates after each step into the rows of ``out``;
    returns (dense propagators built, Taylor steps).  At D^2 <= 256, a run
    of equal steps whose Taylor steps would sum at least
    ``_DENSE_MIN_TERMS`` terms (m s = 45 ceil(||G h||_1 / theta_45) each,
    ``_taylor_plan``) gets one dense P = exp(G h), formed by
    ``_dense_propagator``: the run takes its first ``_SAMPLE_BLOCK`` states
    by matvecs and every later block of that many by one product with P^B,
    which is not counted as a propagator.  Every
    other step, and every step of a larger space, moves the state by one
    ``_taylor_action``, never forming exp(G h)."""
    dense = generator.shape[0] <= _DENSE_PROPAGATOR_MAX_DIM
    norm = float(abs(generator).sum(axis=0).max())
    k = built = taken = 0
    for h, count in _step_runs(steps):
        if not dense or count * math.prod(_taylor_plan(norm * h)) < _DENSE_MIN_TERMS:
            for _ in range(count):
                _taylor_action(generator, norm, h, y, out[k])
                y = out[k]
                k += 1
            taken += count
            continue
        propagator = _dense_propagator(generator, norm, h)
        built += 1
        head = min(count, _SAMPLE_BLOCK)
        for _ in range(head):
            y = out[k] = propagator @ y
            k += 1
        if count > head:
            # y_{j+B} = P^B y_j, so each later block of B samples is the
            # block before it times (P^B)^T, one matrix product
            power = np.ascontiguousarray(propagator.T)
            for _ in range(_SAMPLE_BLOCK.bit_length() - 1):
                power = power @ power
            end = k + count - head
            for start in range(k, end, _SAMPLE_BLOCK):
                stop = min(start + _SAMPLE_BLOCK, end)
                np.matmul(out[start - _SAMPLE_BLOCK:stop - _SAMPLE_BLOCK], power,
                          out=out[start:stop])
            k = end
            y = out[k - 1]
    return built, taken


def _propagate_schedule(schedule: Schedule, rho0: DensityMatrix,
                        t_grid: np.ndarray, propagate):
    """Real coordinates of the states at every time of ``t_grid``, as one
    (n, D^2) array, and the dense propagators and Taylor steps
    of ``propagate(generator, y, steps, out)`` summed over segments.  Each
    segment's call writes its states into a view of that array; the state
    at a switch that is not a sample is written into the row of the next
    sample, which the next segment overwrites, and is computed only when a
    sample follows.  Every segment's generator is built and checked before
    any propagation."""
    total = schedule.total_duration
    generators = [build_liouvillian(params).real_matrix
                  for _, params in schedule.segments]
    # U vec(rho0) is real up to the anti-Hermitian part of rho0, which its
    # validation bounds and which a Hermitian state does not carry
    y = hermitian_coordinates(rho0.matrix, rho0.space.total_dim)
    x = np.empty((t_grid.size, y.size))
    k = 0
    if t_grid[0] == 0.0:
        x[0] = y
        k = 1
    dense = taylor = 0
    t_cursor = 0.0
    for seg_index, (duration, _) in enumerate(schedule.segments):
        last = seg_index == len(schedule.segments) - 1
        t_end = total if last else min(t_cursor + duration, total)
        wanted = t_grid[(t_grid > t_cursor) & (t_grid <= t_end)]
        # a later sample needs the state at the switch
        stops = wanted
        if (k + wanted.size < t_grid.size
                and (wanted.size == 0 or wanted[-1] < t_end)):
            stops = np.append(wanted, t_end)
        if stops.size:
            built, taken = propagate(generators[seg_index], y,
                                     np.diff(stops, prepend=t_cursor),
                                     x[k:k + stops.size])
            dense += built
            taylor += taken
            y = x[k + stops.size - 1].copy()
        k += wanted.size
        t_cursor = t_end
    return x, dense, taylor


def evolve(schedule: Schedule, rho0: DensityMatrix, t_grid) -> Trajectory:
    """Propagate d(rho)/dt = L rho exactly across the schedule and sample on
    t_grid.

    The state moves in the real coordinates of ``hermitian_basis``: the
    populations, then sqrt(2) Re and sqrt(2) Im of each coherence.  Each
    segment's generator is read once, as the real matrix G = U L U^H that
    it forms on that read from the generator's H_eff and R_h; G is real by
    construction, every generator's Hamiltonian being Hermitian.
    The state moves between consecutive sample times, and to the segment
    boundaries, by the exact exp(G dt), so boundaries are hit exactly and
    the state is handed over unchanged.  Two routes, chosen by the Liouville
    dimension D^2, both in float64:

    - D^2 <= 256 (Fock cutoff 1): one dense P = exp(G dt) per run of
      equal steps (consecutive steps that agree to within 1e-12 relative)
      whose Taylor steps would sum at least ``_DENSE_MIN_TERMS`` terms, by
      scaling and squaring a degree-16 Taylor polynomial without a linear
      solve (``_dense_propagator``).  Such a run takes its first 4 states
      by matrix-vector products and every later block of 4 by one matrix
      product with P^4 (two squarings of P, formed per run and not counted
      as a propagator).  Every other run (the partial steps at a segment
      switch, the few sample steps before an early switch) moves the state
      by one Taylor action per step instead, which costs less than forming
      P.  A uniform sample grid gives each segment one run of full steps
      between at most two partial steps.
    - larger spaces: the action of the exponential on the state, one
      Taylor action per step and never a dense matrix.

    The Taylor action (``_taylor_action``) sums the truncated Taylor series
    of exp(G dt) applied to the state in substeps, one sparse matvec per
    term, after Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011),
    Algorithm 3.2), and writes each sample straight into its row.  Its
    degree is fixed at 45, with ceil(||G dt||_1 / 7.2) substeps, and each
    substep stops at the algorithm's early-termination test.

    Every segment writes its samples into one (n, D^2) coordinate array
    allocated for the whole schedule, and the trajectory keeps that array:
    no complex stack of the states is formed.  A non-finite coordinate, or
    a raw trace drift (the sum of the population coordinates minus one)
    above 1e-7 over the sampled states, raises ``IntegrationError``.  The
    coordinates are then trace-normalized in place and validated by
    ``hilbert.check_coordinates``: the population sums, and the positivity of
    every state, gathered to matrices a block at a time.  Hermiticity holds
    by construction, since one coordinate feeds both entries of each
    coherence pair.  The observables are read from the coordinates
    (``observables``).  ``Trajectory.info`` records the route, the dense
    propagators and Taylor steps, and the largest drift.
    """
    space = schedule.space()
    if rho0.space != space:
        raise IntegrationError("initial state does not live on the schedule's space")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise IntegrationError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(t_grid) <= 0):
        raise IntegrationError("t_grid must be strictly increasing")
    total = schedule.total_duration
    if t_grid[0] < 0 or t_grid[-1] > total * (1 + 1e-12):
        raise IntegrationError(
            f"t_grid must lie within [0, {total}] (schedule duration)"
        )
    # snap grid points within roundoff of the horizon onto it, so segment
    # accumulation error cannot drop the final sample
    t_grid = np.where(np.abs(t_grid - total) <= 1e-9 * max(1.0, total),
                      total, t_grid)

    d = space.total_dim
    dense = d * d <= _DENSE_PROPAGATOR_MAX_DIM
    x, dense_built, taylor_steps = _propagate_schedule(schedule, rho0, t_grid,
                                                       _propagate)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise IntegrationError("non-finite state coordinate at t = "
                               f"{t_grid[np.argmin(finite)]:g} ps")
    traces = x[:, :d].sum(axis=1)
    drift = float(np.abs(traces - 1.0).max())
    if not drift <= _TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drift {drift:.3e} exceeds {_TRACE_DRIFT_TOL:.0e}",
            error_estimate=drift,
        )

    x /= traces[:, None]
    check_coordinates(x, d, _SOLVER_POLICY)
    x.flags.writeable = False

    info = PropagationInfo(route="dense_expm" if dense else "taylor_action",
                           dense_propagators=dense_built,
                           taylor_steps=taylor_steps, max_trace_drift=drift)
    return Trajectory(times=t_grid, space=space, coordinates=x,
                      observables=observables(space, x), info=info)


@dataclass(frozen=True)
class ConvergenceReport:
    """Steady-state observable versus Fock cutoff."""

    cutoffs: tuple[int, ...]
    values: tuple[float, ...]
    relative_differences: tuple[float, ...]
    converged: tuple[bool, ...]

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


def scan_cutoffs(values) -> tuple[int, ...]:
    """The Fock cutoffs of a convergence scan: integers >= 1, strictly
    ascending, and at least two (one cutoff compares nothing).  Anything
    else raises ``DomainError``."""
    try:
        # integer text, or integers: no float is rounded into a cutoff
        cutoffs = tuple(int(c) if isinstance(c, str) else operator.index(c) for c in values)
    except (TypeError, ValueError):
        cutoffs = ()
    if len(cutoffs) < 2 or cutoffs[0] < 1 or any(np.diff(cutoffs) <= 0):
        raise DomainError("cutoffs must be >= 1, strictly ascending integers, and "
                          f"at least two cutoffs to compare; got {values!r}")
    return cutoffs


def convergence_scan(params: SystemParams, observable="negativity",
                     cutoffs=(1, 2)) -> ConvergenceReport:
    """Recompute a steady-state observable at increasing Fock cutoffs and
    report the successive relative differences, each converged below 1%.
    An unknown observable, or cutoffs that ``scan_cutoffs`` rejects, raise
    ``DomainError``."""
    if observable not in OBSERVABLES:
        raise DomainError(f"unknown observable {observable!r}; known "
                          f"observables: {', '.join(OBSERVABLES)}")
    cutoffs = scan_cutoffs(cutoffs)
    func = OBSERVABLES[observable]
    values = []
    for cutoff in cutoffs:
        p = params.with_truncation(cutoff)
        rho = steady_state(build_liouvillian(p))
        values.append(float(func(p, rho)))
    rel_diffs = []
    flags = []
    for prev, cur in zip(values, values[1:]):
        delta = abs(cur - prev)
        if abs(prev) > 1e-12:
            rel = delta / abs(prev)
        else:
            rel = 0.0 if delta <= 1e-12 else float("inf")
        rel_diffs.append(rel)
        flags.append(rel < _CONVERGED_REL_DIFF)
    return ConvergenceReport(
        cutoffs=cutoffs,
        values=tuple(values),
        relative_differences=tuple(rel_diffs),
        converged=tuple(flags),
    )
