import dataclasses
import math
import platform
import resource
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

import pcdimer.solvers
from pcdimer._malloc import fix_malloc_thresholds
from pcdimer.entanglement import partial_transpose_first, qd_negativity
from pcdimer.exceptions import (
    DegenerateSteadyStateError,
    DomainError,
    IntegrationError,
    SingularSolveError,
    SolverError,
)
from pcdimer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    Operator,
    boson,
    boson_annihilation,
    check_coordinates,
    hermitian_basis,
    hermitian_coordinates,
    hermitian_matrices,
    lowering_operators,
    partial_trace,
    qubit,
)
from pcdimer.liouvillian import (
    Superoperator,
    assemble_generator,
    build_liouvillian,
    build_liouvillians,
)
from pcdimer.model import (
    HBAR_UEV_PS,
    CouplingMatrix,
    DriveParams,
    ModeParams,
    QDParams,
    SystemParams,
    identify_dark_state,
    preset_params,
)
from pcdimer.hilbert import qubit_lowering
from pcdimer.solvers import (
    STEADY_RESIDUAL_TOL,
    _DENSE_MIN_TERMS,
    _RECYCLING_COND_MAX,
    _SAMPLE_BLOCK,
    _SOLVER_POLICY,
    OBSERVABLES,
    _dense_propagator,
    Schedule,
    _invariant_blocks,
    _no_jump_inverse,
    _propagate,
    _propagate_schedule,
    _taylor_action,
    _taylor_plan,
    _residuals,
    batch_points,
    convergence_scan,
    evolve,
    observables,
    steady_state,
    steady_states,
)
from pcdimer.experiments import stark_switch_protocol
from test_liouvillian import (
    common_cutoff,
    dephased_closed_params,
    full_params,
    physical_params,
    random_density,
)

QUBIT = CompositeSpace((qubit(),))
# how the message of a member whose uniqueness certificate stalled begins
CERTIFICATE_STALLED = "the uniqueness certificate stalled"


def driven_qubit_generator(drive, gamma):
    sm = qubit_lowering(QUBIT, 0)
    h = Operator(QUBIT, drive * (sm.matrix.conj().T + sm.matrix))
    return assemble_generator(h, [(sm, gamma)])


def sigma_x_dephased(space):
    """H = 3 sigma_x on the emitter at position 0 of ``space``, dephased in
    the sigma_x basis at rate 0.7; a boson at position 1 loses photons at
    rate 40."""
    sm = qubit_lowering(space, 0).matrix
    sx = Operator(space, sm + sm.conj().T)
    jumps = [(sx, 0.7)]
    if len(space.dims) > 1:
        jumps.append((boson_annihilation(space, 1), 40.0))
    return assemble_generator(Operator(space, 3.0 * sx.matrix), jumps)


# a system whose generator is zero
ZERO_PARAMS = SystemParams(
    modes=(ModeParams(0.0, 0.0), ModeParams(0.0, 0.0)),
    dots=(QDParams(0.0), QDParams(0.0)),
    coupling=CouplingMatrix(((0.0, 0.0), (0.0, 0.0))),
    drive=DriveParams(amplitude=0.0))
# a subnormal pump rate and nothing else
SUBNORMAL_PUMP_PARAMS = SystemParams(
    modes=(ModeParams(0.0, 0.0), ModeParams(0.0, 0.0, pump=2.2250738585e-313)),
    dots=(QDParams(0.0), QDParams(0.0)),
    coupling=CouplingMatrix(((0.0, 0.0), (0.0, 0.0))),
    drive=DriveParams(amplitude=0.0, pump_freq=1399.0))


def count_dense_builds(monkeypatch):
    """The shapes of the dense propagators that the solvers form, recorded
    in the returned list as they are built."""
    built = []
    build = pcdimer.solvers._dense_propagator

    def counting(generator, norm, h):
        propagator = build(generator, norm, h)
        built.append(propagator.shape)
        return propagator

    monkeypatch.setattr(pcdimer.solvers, "_dense_propagator", counting)
    return built


def dark_tuned(params):
    dark = identify_dark_state(params)
    return (params.with_drive(phase1=np.pi, phase2=0.0)
            .with_drive_detuning(dark.detuning))


def scaled_expm(dense, h):
    """exp(G h) for a dense G: scipy's Pade expm of G h / 2^k,
    ||G h / 2^k||_1 <= 1, squared k times.  expm of G h itself scales only
    to ||G h||_1 <= 5.4 and misses lossless rotations: on 24 cutoff-1 draws
    with steps up to 5 ps it erred by up to 4.8e-13 of max |P| against a
    long-double Taylor reference, this form and the dense propagator by up
    to 5.8e-14"""
    norm = np.abs(dense * h).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm))) if norm else 0
    propagator = expm(dense * (h / 2.0 ** squarings))
    for _ in range(squarings):
        propagator = propagator @ propagator
    return propagator


# the preset at its dark-state drive
DARK_PRESET = dark_tuned(preset_params("dimer30_dc901"))


def expm_oracle(segments, rho0, t_grid):
    """Sampled states by the dense matrix exponentials (``scaled_expm``) of
    each segment's real generator G, one per distinct step length, chained
    from sample to sample and across each switch: exp(G_k h) ... y_0,
    y_0 = U vec(rho0)."""
    d = rho0.space.total_dim
    y = hermitian_coordinates(rho0.matrix, d)
    start, states = 0.0, []
    for k, (duration, params) in enumerate(segments):
        dense = build_liouvillian(params).real_matrix.toarray()
        propagators = {}

        def step(y, h):
            if h not in propagators:
                propagators[h] = scaled_expm(dense, h)
            return propagators[h] @ y

        # the last segment takes every remaining sample (the horizon may
        # differ from the summed durations by roundoff)
        end = start + duration if k < len(segments) - 1 else np.inf
        t = start
        for sample in t_grid[(t_grid > start) & (t_grid <= end)]:
            y, t = step(y, sample - t), sample
            states.append(hermitian_matrices(y, d))
        if k < len(segments) - 1:
            y = step(y, end - t)
            start = end
    return states


def matvec_chain(generator, y, steps, out):
    """Reference for the dense route: writes the coordinates after each
    step into the rows of ``out`` by one matvec with exp(G h), a dense
    ``scaled_expm`` per distinct step, in the propagate contract of
    ``_propagate_schedule``."""
    dense = generator.toarray()
    propagators = {}
    for k, h in enumerate(steps.tolist()):
        if h not in propagators:
            propagators[h] = scaled_expm(dense, h)
        y = out[k] = propagators[h] @ y
    return len(propagators), 0


def trace_distance(rho1, rho2):
    diff = rho1 - rho2
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()


class TestSteadyState:
    def test_lossy_undriven_qubit_relaxes_to_ground(self):
        rho = steady_state(driven_qubit_generator(0.0, 5.0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_driven_two_level_saturation_formula(self):
        # resonant optical Bloch steady state: P_e = W^2 / (g^2/4 + 2 W^2)
        for drive in (0.2, 1.0, 5.0):
            for gamma in (0.5, 2.0, 20.0):
                rho, info = steady_state(driven_qubit_generator(drive, gamma),
                                         return_info=True)
                expected = drive**2 / (gamma**2 / 4 + 2 * drive**2)
                assert abs(rho.matrix[1, 1].real - expected) < 1e-10
                assert info.residual < 1e-9

    def test_matches_dense_null_space(self):
        # brute-force cross-check through the dense kernel of the generator
        liouville = driven_qubit_generator(1.3, 2.1)
        _, _, vh = np.linalg.svd(liouville.matrix.toarray())
        kernel = vh[-1].conj()
        rho_kernel = kernel.reshape((2, 2), order="F")
        rho_kernel = rho_kernel / np.trace(rho_kernel)
        rho = steady_state(liouville)
        assert np.allclose(rho.matrix, rho_kernel, atol=1e-10)

    def test_preset_steady_state_invariants(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho, info = steady_state(build_liouvillian(params), return_info=True)
        assert info.residual < 1e-9
        assert abs(np.trace(rho.matrix) - 1) < 1e-10
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-8

    def test_degenerate_kernel_detected(self):
        # a closed (dissipation-free) system preserves every level
        # population: the kernel is high-dimensional
        sm = qubit_lowering(QUBIT, 0).matrix
        h = Operator(QUBIT, (sm.conj().T @ sm) * 3.0)
        liouville = assemble_generator(h, [])
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(liouville)
        assert exc_info.value.kernel_dimension >= 2

    def test_degenerate_levels_found_before_iterating(self, monkeypatch):
        # every level of a closed system is stationary: H_eff = H has only
        # real eigenvalues, so no GMRES step and no post-failure diagnosis runs
        import pcdimer.solvers

        def unreachable(*args, **kwargs):
            raise AssertionError("the pre-check should have decided")

        monkeypatch.setattr(pcdimer.solvers, "_lockstep_gmres", unreachable)
        monkeypatch.setattr(pcdimer.solvers, "_diagnose_kernel", unreachable)
        space = CompositeSpace((qubit(), qubit()))
        cases = (
            (np.zeros((4, 4)), 16),  # one 4-fold level: 4^2 operators
            (np.diag([0.0, 1.0, 1.0, 2.0]), 6),  # 1 + 2^2 + 1
            (np.diag([0.0, 1.0, 2.0, 3.0]), 4),
        )
        for h, kernel_dim in cases:
            liouville = assemble_generator(Operator(space, h), [])
            dense_kernel = np.sum(np.linalg.svd(liouville.matrix.toarray(),
                                                compute_uv=False) < 1e-12)
            assert dense_kernel == kernel_dim
            with pytest.raises(DegenerateSteadyStateError) as exc_info:
                steady_state(liouville)
            assert exc_info.value.kernel_dimension == kernel_dim

    @pytest.mark.parametrize("space", [
        QUBIT, CompositeSpace((qubit(), boson(8)))], ids=["d2_4", "d2_324"])
    def test_stalled_certificate_decides_without_svd(self, space, monkeypatch):
        # dephasing in the sigma_x basis damps the coherences between the
        # sigma_x eigenstates only: every level decays under H_eff and the
        # jump joins the two basis states, yet I and sigma_x are both
        # stationary (next to a lossy mode: in its vacuum), so the bordered
        # system is singular but consistent.  The stalled certificate
        # decides at every Liouville dimension, with no dense SVD
        def unreachable(*args, **kwargs):
            raise AssertionError("no dense SVD diagnoses a failed solve")

        liouville = sigma_x_dephased(space)
        monkeypatch.setattr(np.linalg, "svd", unreachable)
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(liouville)
        assert exc_info.value.kernel_dimension == 2
        assert str(exc_info.value).startswith(CERTIFICATE_STALLED)

    def test_fock_dephasing_degeneracy_found_before_iterating(self, monkeypatch):
        # dephasing in the Fock basis with a diagonal H joins no two basis
        # states: two invariant blocks, found before any GMRES step
        import pcdimer.solvers

        def unreachable(*args, **kwargs):
            raise AssertionError("the invariant-block check should have decided")

        monkeypatch.setattr(pcdimer.solvers, "_lockstep_gmres", unreachable)
        monkeypatch.setattr(pcdimer.solvers, "_diagnose_kernel", unreachable)
        sm = qubit_lowering(QUBIT, 0).matrix
        number = Operator(QUBIT, sm.conj().T @ sm)
        liouville = assemble_generator(Operator(QUBIT, 3.0 * number.matrix),
                                       [(number, 0.7)])
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(liouville)
        assert exc_info.value.kernel_dimension == 2

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_dephased_closed_system_blocks(self, cutoff, monkeypatch):
        # lossless, undriven, dephasing only: H keeps the total excitation
        # number, so each of its 2 + 2 cutoff + 1 values is an invariant
        # block; found with no GMRES step and no diagnosis at any cutoff
        import pcdimer.solvers

        liouville = build_liouvillian(dephased_closed_params(cutoff))
        blocks = 2 * cutoff + 3
        # the population transfers are read from R_h; G gives the same graph
        for matrix in (liouville.real_recycling, liouville.real_matrix):
            assert _invariant_blocks(liouville.h_eff[None], matrix).tolist() == [blocks]
        assert reference_blocks(liouville) == blocks
        if cutoff == 1:  # the dense kernel, where it is cheap
            singular_values = np.linalg.svd(liouville.matrix.toarray(),
                                            compute_uv=False)
            assert np.sum(singular_values < 1e-12 * singular_values[0]) == blocks

        def unreachable(*args, **kwargs):
            raise AssertionError("the invariant-block check should have decided")

        monkeypatch.setattr(pcdimer.solvers, "_lockstep_gmres", unreachable)
        monkeypatch.setattr(pcdimer.solvers, "_diagnose_kernel", unreachable)
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(liouville)
        assert exc_info.value.kernel_dimension == blocks

    def test_exceptional_point_with_a_stationary_level(self):
        # an undriven emitter on a lossy mode at g = kappa / 4: the one-
        # excitation block of H_eff is a Jordan block, and the ground level
        # never decays; the steady state is the ground state
        space = CompositeSpace((qubit(), boson(1)))
        sm, a = qubit_lowering(space, 0), boson_annihilation(space, 1)
        kappa = 40.0
        h = Operator(space, kappa / 4 * (sm.matrix.conj().T @ a.matrix
                                         + a.matrix.conj().T @ sm.matrix))
        liouville = assemble_generator(h, [(a, kappa)])
        assert np.linalg.cond(np.linalg.eig(liouville.h_eff)[1]) > 1e6
        rho = steady_state(liouville)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_solve_info(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        for cutoff in (1, 2, 3):
            _, info = steady_state(build_liouvillian(params.with_truncation(cutoff)),
                                   return_info=True)
            assert 1 <= info.iterations <= 40
            assert 1 <= info.certificate_iterations <= 40
            assert not info.refined
            assert info.residual < 1e-11

    def test_agrees_with_long_time_evolution(self):
        params = dark_tuned(preset_params("dimer30_dc901")).with_qd_decay(6.6)
        liouville = build_liouvillian(params)
        rho_ss = steady_state(liouville)
        horizon = 50.0 * HBAR_UEV_PS / 6.6
        rho0 = DensityMatrix.basis_state(params.space(), (0, 0, 0, 0))
        trajectory = evolve(Schedule.constant(params, horizon), rho0,
                            np.linspace(0.0, horizon, 9))
        assert trace_distance(trajectory.matrices[-1], rho_ss.matrix) < 1e-5


@pytest.mark.parametrize("h_eff, exact", [
    (build_liouvillian(full_params()).h_eff, True),
    (build_liouvillian(full_params().with_truncation(2)).h_eff, True),
    # drive = gamma / 4: an exceptional point, the Schur route
    (driven_qubit_generator(5.0, 20.0).h_eff, False),
    (np.array([[1.0 - 0.5j, 1.0], [0.0, 1.0 - 0.5j]]), False),  # a Jordan block
], ids=["cutoff1", "cutoff2", "exceptional_point", "defective"])
def test_no_jump_inverse_is_exact(h_eff, exact):
    d = h_eff.shape[0]
    rng = np.random.default_rng(3)
    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    apply, errors, flags = _no_jump_inverse(h_eff[None], np.array([1.0]), np.array([1]))
    assert errors == {}
    # the recycling form applies only where the eigenbasis is well conditioned
    assert flags.tolist() == [exact]
    x = apply(y[None, None])[0, 0]
    no_jump = -1j * (h_eff @ x - x @ h_eff.conj().T)
    assert np.max(np.abs(no_jump - y)) <= 1e-10 * np.max(np.abs(y))


def test_no_jump_inverse_exact_bound_in_closed_form(monkeypatch):
    # e = ||V^-1||_F^2 - d <= (C - 1)^2 / C is the bound cond(V) <= s^2 <= C,
    # s = (sqrt(e) + sqrt(e + 4)) / 2, solved for e.  2 x 2 members with
    # eigenvectors at random angles a spread e = 2 cot^2 a from 7e-6 to
    # 1.5e3, around the threshold 4.86; member 0's eigenbasis is made
    # exactly singular, so its V^-1, and so e, is NaN and it fails either
    # form
    angles = np.random.default_rng(11).uniform(0.01, np.pi / 2, 200)
    vectors = np.zeros((angles.size, 2, 2))
    vectors[:, 0, 0] = 1.0
    vectors[:, 0, 1], vectors[:, 1, 1] = np.cos(angles), np.sin(angles)
    h_eff = vectors @ np.diag([1.0 - 0.5j, 2.0 - 0.7j]) @ np.linalg.inv(vectors)
    eig = np.linalg.eig

    def singular_for_member_0(h):
        w, v = eig(h)
        v = v.copy()
        v[0] = [[1.0, 1.0], [0.0, 0.0]]
        return w, v

    monkeypatch.setattr(np.linalg, "eig", singular_for_member_0)
    _, errors, exact = _no_jump_inverse(h_eff, np.ones(angles.size),
                                        np.ones(angles.size, dtype=int))
    assert errors == {}
    v = singular_for_member_0(h_eff)[1]
    inverse_norm = np.full(angles.size, np.nan)
    inverse_norm[1:] = np.linalg.norm(np.linalg.inv(v[1:]), axis=(1, 2))
    root_e = np.sqrt(np.maximum(inverse_norm ** 2 - 2, 0.0))
    old = ((root_e + np.sqrt(root_e ** 2 + 4.0)) / 2.0) ** 2 <= _RECYCLING_COND_MAX
    assert np.isnan(inverse_norm[0]) and not exact[0]
    assert exact.tolist() == old.tolist()
    assert 20 < np.count_nonzero(exact) < angles.size - 20


def test_no_jump_inverse_falls_back_per_member_on_a_singular_eigenbasis(monkeypatch):
    # H_eff = J - 0.5i I with J the 3 x 3 nilpotent Jordan block: every
    # eigenvector is e_1, so the exact eigenbasis V is singular and the
    # stacked inverse of V fails.  eig returns eigenvectors parallel only to
    # roundoff (V inverts), so here it returns the exact eigenpairs of that
    # member: the solver inverts V member by member and takes the Schur
    # route for that member alone
    jordan = np.diag(np.ones(2), 1) - 0.5j * np.eye(3)
    well = (np.diag([1.0 - 0.5j, 2.0 - 0.7j, -1.0 - 0.4j])
            + 0.1 * np.roll(np.eye(3), 1, axis=1))
    stack = np.stack([jordan, well])
    eig = np.linalg.eig

    def exact_for_jordan(h):
        w, v = eig(h)
        w, v = w.copy(), v.copy()
        w[0], v[0] = -0.5j, np.eye(3)[:, [0, 0, 0]]
        return w, v

    schur = scipy.linalg.schur
    schur_calls = []

    def counting_schur(h, **kwargs):
        schur_calls.append(h)
        return schur(h, **kwargs)

    solo_apply, _, solo_exact = _no_jump_inverse(well[None], np.array([1.0]),
                                                 np.array([1]))
    monkeypatch.setattr(np.linalg, "eig", exact_for_jordan)
    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(exact_for_jordan(stack)[1])
    apply, errors, flags = _no_jump_inverse(stack, np.array([1.0, 1.0]),
                                            np.array([1, 1]))
    assert errors == {}
    assert flags.tolist() == [False, bool(solo_exact[0])]
    assert len(schur_calls) == 1 and np.array_equal(schur_calls[0], jordan)

    rng = np.random.default_rng(5)
    y = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    x = apply(y)
    for k in range(2):
        no_jump = -1j * (jordan @ x[0, k] - x[0, k] @ jordan.conj().T)
        assert np.max(np.abs(no_jump - y[0, k])) <= 1e-14 * np.max(np.abs(y[0, k]))
    assert x[1].tobytes() == solo_apply(y[1:])[0].tobytes()


class TestSteadyStateProperties:
    @settings(max_examples=15, deadline=None)
    @given(params=physical_params().map(lambda p: p.with_truncation(1)))
    @example(params=full_params().with_truncation(2))
    # relative gap 3.9e-8: the solution dips to an eigenvalue of -1.4e-8
    @example(params=SystemParams(
        modes=(ModeParams(0.0, 0.0, pump=6.103515625e-05), ModeParams(0.0, 0.0)),
        dots=(QDParams(0.0, gamma=2.0), QDParams(0.0)),
        coupling=CouplingMatrix(((0.0, 0.0), (2.0, 1j))),
        drive=DriveParams(amplitude=47.0, pump_freq=189.0)))
    def test_random_physical_parameters(self, params):
        liouville = build_liouvillian(params)
        _, singular_values, vh = np.linalg.svd(liouville.matrix.toarray())
        gap = singular_values[-2] / singular_values[0] if singular_values[0] else 0.0
        # a second singular value below this ratio to the largest makes the
        # kernel degenerate
        degenerate_ratio = 1e-12
        degenerate = singular_values[-2] < degenerate_ratio * max(
            singular_values[0], 1.0)
        try:
            rho = steady_state(liouville)
        except SolverError as exc:
            # only a (nearly) degenerate kernel may fail, and an exactly
            # degenerate one fails as such
            assert gap < 1e-6, exc
            if degenerate:
                assert isinstance(exc, DegenerateSteadyStateError)
            return
        assert not degenerate
        matrix = rho.matrix
        assert abs(np.trace(matrix) - 1.0) <= _SOLVER_POLICY.algebraic_tol
        assert np.linalg.eigvalsh(matrix).min() >= -_SOLVER_POLICY.positivity_slack
        value = qd_negativity(rho)
        assert 0.0 <= value <= 0.5
        # the solver's forward error is about its 1e-14 relative residual
        # over the relative gap: compare where the gap is well open
        if gap < 1e-3:
            return
        d = params.space().total_dim
        kernel = vh[-1].conj().reshape((d, d), order="F")
        assert np.max(np.abs(matrix - kernel / np.trace(kernel))) <= 1e-10
        shifted = params.with_drive(phase1=params.drive.phase1 + 2.0 * np.pi)
        assert abs(qd_negativity(steady_state(build_liouvillian(shifted))) - value) <= 1e-10


    @settings(max_examples=40, deadline=None)
    @given(params=physical_params().map(lambda p: p.with_truncation(1)))
    @example(params=full_params())
    def test_emitter_exchange_symmetry(self, params):
        # exchanging the emitters, with their parameters, drive phases and
        # coupling columns, and flipping a_2 -> -a_2 is a unitary change of
        # basis: a weak symmetry of the model (Buca & Prosen, New J. Phys.
        # 14, 073007 (2012)) that keeps the negativity and the mode
        # populations and exchanges the emitter populations
        g = params.coupling.as_array()[:, ::-1] * np.array([[1.0], [-1.0]])
        exchanged = dataclasses.replace(
            params, dots=params.dots[::-1],
            coupling=CouplingMatrix(tuple(map(tuple, g))),
            drive=dataclasses.replace(params.drive, phase1=params.drive.phase2,
                                      phase2=params.drive.phase1))
        liouvilles = build_liouvillians([params, exchanged])
        # the two solves differ by up to the solver's 1e-14 relative
        # residual over the relative gap: 1e-10 holds from a gap of 1e-4
        singular_values = np.linalg.svd(liouvilles[0].matrix.toarray(),
                                        compute_uv=False)
        assume(singular_values[-2] >= 1e-4 * singular_values[0])
        outcomes = steady_states(liouvilles)
        assume(not any(isinstance(o, SolverError) for o in outcomes))
        values = observables(params.space(), np.array([x for x, _ in outcomes]))
        for name, swapped in (("negativity", "negativity"), ("pop_m1", "pop_m1"),
                              ("pop_m2", "pop_m2"), ("pop_qd1", "pop_qd2"),
                              ("pop_qd2", "pop_qd1")):
            assert abs(values[name][0] - values[swapped][1]) <= 1e-10, name


def reference_blocks(liouville):
    """The invariant blocks of one generator: the weak components of the
    graph of H_eff's nonzeros and of the population transfers
    R[i (d + 1), j (d + 1)], the leading d x d block of R_h."""
    d = liouville.space.total_dim
    return weak_components(liouville.h_eff, liouville.real_recycling[:d, :d].toarray())


def weak_components(h_eff, transfers):
    """The number of weak components of the graph of the nonzeros of the
    (d, d) arrays ``h_eff`` and ``transfers``, by scipy's csgraph."""
    graph = (h_eff != 0) | (transfers != 0)
    return scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="weak")[0]


def forbidden_generator(self):
    raise AssertionError("the generator G was read")


def record_inexact_members(monkeypatch) -> list:
    """A list that gets, per steady-state solve from now on, the indices of
    the members without an exact no-jump inverse, read from
    ``_no_jump_inverse`` (members that fail before the solve excluded)."""
    no_jump_inverse = pcdimer.solvers._no_jump_inverse
    inexact = []

    def recording(*args):
        apply, errors, exact = no_jump_inverse(*args)
        inexact.append(np.flatnonzero(~exact).tolist())
        return apply, errors, exact

    monkeypatch.setattr(pcdimer.solvers, "_no_jump_inverse", recording)
    return inexact


def assert_batch_matches_solo(liouvilles):
    """Every member of one batch solve against the same generator solved
    alone: states within 1e-12 and step counts within one, or the same
    failure type and kernel dimension."""
    outcomes = steady_states(liouvilles)
    assert len(outcomes) == len(liouvilles)
    for liouville, outcome in zip(liouvilles, outcomes):
        try:
            rho, info = steady_state(liouville, return_info=True)
        except SolverError as exc:
            assert type(outcome) is type(exc)
            assert (getattr(outcome, "kernel_dimension", None)
                    == getattr(exc, "kernel_dimension", None))
            continue
        assert not isinstance(outcome, SolverError), outcome
        batch_x, batch_info = outcome
        batch_rho = hermitian_matrices(batch_x, liouville.space.total_dim)
        assert np.max(np.abs(batch_rho - rho.matrix)) <= 1e-12
        assert abs(batch_info.iterations - info.iterations) <= 1
        assert abs(batch_info.residual - info.residual) <= 1e-12


class TestSteadyStateBatches:
    @settings(max_examples=10, deadline=None)
    @given(batch=st.lists(physical_params().map(lambda p: p.with_truncation(1)),
                          min_size=2, max_size=5))
    def test_members_match_solo_solves(self, batch):
        assert_batch_matches_solo([build_liouvillian(p) for p in batch])

    def test_failing_members_stay_with_their_member(self):
        # one space, five routes: the pre-checks (a closed system; dephasing
        # in the Fock basis, whose two emitter blocks are invariant), the
        # certificate (dephasing in the sigma_x basis with a lossy mode: I
        # and sigma_x of the emitter in the photon vacuum are both
        # stationary), the Schur route (the exceptional point of
        # test_exceptional_point_with_a_stationary_level) and the eigenbasis
        space = CompositeSpace((qubit(), boson(1)))
        sm, a = qubit_lowering(space, 0), boson_annihilation(space, 1)
        kappa = 40.0
        exchange = kappa / 4 * (sm.matrix.conj().T @ a.matrix
                                + a.matrix.conj().T @ sm.matrix)
        number = Operator(space, sm.matrix.conj().T @ sm.matrix)
        closed = assemble_generator(Operator(space, exchange), [])
        dephased = assemble_generator(Operator(space, 3.0 * number.matrix),
                                      [(a, kappa), (number, 0.7)])
        x_dephased = sigma_x_dephased(space)
        exceptional = assemble_generator(Operator(space, exchange), [(a, kappa)])
        driven = [assemble_generator(
            Operator(space, exchange + drive * (sm.matrix.conj().T + sm.matrix)),
            [(a, kappa), (sm, 2.0)]) for drive in (1.0, 7.0)]
        batch = [driven[0], closed, exceptional, dephased, x_dephased, driven[1]]
        assert_batch_matches_solo(batch)

        outcomes = steady_states(batch)
        assert isinstance(outcomes[1], DegenerateSteadyStateError)
        for k in (3, 4):
            assert isinstance(outcomes[k], DegenerateSteadyStateError)
            assert outcomes[k].kernel_dimension == 2
        assert "blocks of basis states invariant" in str(outcomes[3])
        assert str(outcomes[4]).startswith(CERTIFICATE_STALLED)
        x, _ = outcomes[2]
        assert np.allclose(hermitian_matrices(x, 4), np.diag([1.0, 0.0, 0.0, 0.0]),
                           atol=1e-12)
        for k in (0, 5):
            _, info = outcomes[k]
            assert info.residual < 1e-9
            assert info.certificate_iterations >= 1

    def test_one_stacked_density_check_per_batch(self, monkeypatch):
        # the batch's states are validated by one stacked coordinate check;
        # when it fails, the members are rechecked one by one and only the
        # offending member fails
        params = dark_tuned(preset_params("dimer30_dc901"))
        batch = [build_liouvillian(params.with_drive(amplitude=a))
                 for a in (5.0, 10.0, 20.0, 40.0)]
        solo = [steady_state(liouville).matrix for liouville in batch]
        check = pcdimer.solvers.check_coordinates
        shapes, flagged = [], []

        def recording(x, d, policy):
            shapes.append(np.shape(x))
            for m in hermitian_matrices(np.reshape(x, (-1, d * d)), d):
                if any(np.max(np.abs(m - f)) < 1e-9 for f in flagged):
                    raise DomainError("density matrix has negative eigenvalue "
                                      "-1.000e-03")
            check(x, d, policy)

        monkeypatch.setattr(pcdimer.solvers, "check_coordinates", recording)
        outcomes = steady_states(batch)
        assert shapes == [(4, 256)]
        for (x, _), reference in zip(outcomes, solo, strict=True):
            assert np.max(np.abs(hermitian_matrices(x, 16) - reference)) <= 1e-12

        def unreachable(*args, **kwargs):
            raise AssertionError("no dense SVD diagnoses a failed solve")

        monkeypatch.setattr(np.linalg, "svd", unreachable)
        shapes.clear()
        flagged.append(solo[2])
        outcomes = steady_states(batch)
        assert shapes == [(4, 256)] + [(256,)] * 4
        # the certificate converged: a plain singular solve
        assert isinstance(outcomes[2], SingularSolveError)
        for k in (0, 1, 3):
            x, info = outcomes[k]
            assert np.max(np.abs(hermitian_matrices(x, 16) - solo[k])) <= 1e-12
            assert info.residual <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(batch=st.lists(physical_params().map(lambda p: p.with_truncation(1)),
                          min_size=1, max_size=4))
    @example(batch=[dephased_closed_params(1), full_params(),
                    dephased_closed_params(1)])
    def test_invariant_blocks_read_from_recycling_terms(self, batch):
        # off the diagonal, the population transfers of G are R_h's entries,
        # and both give the blocks of the complex R's population entries
        generators = build_liouvillians(batch)
        blocks = _invariant_blocks(generators.h_eff, generators.real_recycling)
        whole = scipy.sparse.block_diag([member.real_matrix for member in generators],
                                        format="csr")
        assert np.array_equal(blocks, _invariant_blocks(generators.h_eff, whole))
        assert blocks.tolist() == [reference_blocks(member) for member in generators]

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 16, 36, 64]),
           densities=st.lists(st.tuples(st.sampled_from([0.0, 0.01, 0.05, 0.3]),
                                        st.sampled_from([0.0, 0.01, 0.05, 0.3])),
                              min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(d=16, densities=[(0.0, 0.0)], seed=0)
    @example(d=36, densities=[(0.0, 0.05), (0.3, 0.0), (0.01, 0.01)], seed=1)
    def test_invariant_blocks_match_csgraph(self, d, densities, seed):
        # random H_eff and transfer patterns per member (isolated states,
        # links by H_eff or by transfers alone, mixed members in one
        # batch): the numpy closure counts the csgraph weak components.
        # Entries of R_h outside the population block, and stored zeros in
        # it, link nothing
        rng = np.random.default_rng(seed)
        n = d * d
        h_eff = np.zeros((len(densities), d, d), dtype=complex)
        members, expected = [], []
        for m, (h_density, transfer_density) in enumerate(densities):
            linked = rng.random((d, d)) < h_density
            h_eff[m][linked] = rng.standard_normal(linked.sum()) + 1j
            transfers = np.where(rng.random((d, d)) < transfer_density,
                                 rng.uniform(0.1, 1.0, (d, d)), 0.0)
            rows = [*np.nonzero(transfers)[0], *rng.integers(0, d, d),
                    *rng.integers(0, n, 2 * d), *rng.integers(d, n, 2 * d)]
            cols = [*np.nonzero(transfers)[1], *rng.integers(0, d, d),
                    *rng.integers(d, n, 2 * d), *rng.integers(0, d, 2 * d)]
            data = [*transfers[transfers != 0], *np.zeros(d),
                    *rng.uniform(0.1, 1.0, 4 * d)]
            members.append(scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n)))
            expected.append(weak_components(h_eff[m], transfers))
        recycling = scipy.sparse.block_diag(members, format="csr")
        assert _invariant_blocks(h_eff, recycling).tolist() == expected

    def test_operator_choice_per_member(self, monkeypatch):
        # a regular member iterates on y + R_h P^-1 y; the lossy undriven
        # qubit (its ground level never decays, so its no-jump inverse is
        # shifted) and the exceptional point (an ill-conditioned eigenbasis,
        # the Schur route) on G P^-1 y, applied without G.  Each member's
        # choice is its own, so a batch of the sweeps' size at Fock cutoff 1
        # reproduces every solo solve bit for bit
        sm = qubit_lowering(QUBIT, 0)
        generators = [driven_qubit_generator(1.0, 2.0),
                      assemble_generator(Operator(QUBIT, np.zeros((2, 2))), [(sm, 2.0)]),
                      driven_qubit_generator(5.0, 20.0)]
        size = batch_points(256)
        assert size == 64
        batch = (generators * (size // 3 + 1))[:size]
        whole = record_inexact_members(monkeypatch)  # the members that apply G
        monkeypatch.setattr(Superoperator, "real_matrix", property(forbidden_generator))
        outcomes = steady_states(batch)
        solo = [steady_state(liouville, return_info=True) for liouville in generators]
        assert len(outcomes) == size
        for m, (x, info) in enumerate(outcomes):
            solo_rho, solo_info = solo[m % 3]
            assert np.array_equal(hermitian_matrices(x, 2), solo_rho.matrix)
            assert info == solo_info
        assert whole == [[m for m in range(size) if m % 3], [], [0], [0]]
        x, _ = outcomes[1]
        assert np.allclose(hermitian_matrices(x, 2), np.diag([1.0, 0.0]), atol=1e-12)

    def test_cutoff_two_batch_matches_solo(self):
        # D^2 = 1296 and, at cutoff 3, 4096: two points per batch,
        # orthogonalized by the stacked classical Gram-Schmidt with one
        # reorthogonalization that every dimension takes
        for cutoff in (2, 3):
            params = dark_tuned(preset_params("dimer30_dc901")).with_truncation(cutoff)
            assert_batch_matches_solo([build_liouvillian(params),
                                       build_liouvillian(full_params().with_truncation(cutoff))])

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_warm_batch_reuses_heap_pages(self):
        # with the malloc thresholds fixed (on import of the package), a
        # repeated full sweep batch allocates from the heap pages that the
        # last one freed, its Krylov basis (4.5 MB) included, above the
        # 4 MB from which numpy advises huge pages; under glibc's dynamic
        # thresholds the same solve could fault in several hundred fresh
        # pages
        params = dark_tuned(preset_params("dimer30_dc901"))
        points = [params.with_drive(phase1=phi)
                  for phi in np.linspace(0.0, 2.0 * np.pi, batch_points(256))]
        for _ in range(2):
            steady_states(build_liouvillians(points))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        steady_states(build_liouvillians(points))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50
        assert fix_malloc_thresholds()

    def test_members_share_one_space(self):
        with pytest.raises(DomainError):
            steady_states([driven_qubit_generator(1.0, 2.0),
                           build_liouvillian(full_params())])


class TestGeneratorFreeSolve:
    def test_exact_members_never_read_the_generator(self, monkeypatch):
        # every member here has an exact no-jump inverse, so its solve reads
        # H_eff and R_h alone: a sweep batch, a batch joined from members, a
        # single steady state and a convergence scan solve with every read
        # of G made to raise
        params = dark_tuned(preset_params("dimer30_dc901"))
        points = [params.with_drive(phase1=phi)
                  for phi in np.linspace(0.0, 2.0 * np.pi, batch_points(256))]
        batch = build_liouvillians(points)
        single = build_liouvillian(full_params().with_truncation(2))
        monkeypatch.setattr(Superoperator, "real_matrix", property(forbidden_generator))
        for outcome in steady_states(batch) + steady_states(batch[::5]):
            assert not isinstance(outcome, SolverError)
        steady_state(single)
        assert convergence_scan(params, cutoffs=(1, 2, 3)).values[0] > 0.1

    def test_inexact_members_never_read_the_generator(self, monkeypatch):
        # members without an exact no-jump inverse apply their no-jump part
        # to X = P^-1 y instead of multiplying by G: the undriven preset and
        # the lossy undriven qubit (a ground level that never decays, so a
        # shifted inverse) and the qubit at its exceptional point (the
        # Schur route), beside exact members and alone, solve with every
        # read of G made to raise.  G, formed afterwards, confirms the
        # states
        params = dark_tuned(preset_params("dimer30_dc901"))
        model = build_liouvillians([params, params.with_drive(amplitude=0.0),
                                    params.with_drive(phase1=0.0)])
        sm = qubit_lowering(QUBIT, 0)
        qubits = [driven_qubit_generator(1.0, 2.0),
                  assemble_generator(Operator(QUBIT, np.zeros((2, 2))), [(sm, 2.0)]),
                  driven_qubit_generator(5.0, 20.0)]
        batches = [model, qubits, model[1:2], qubits[2:]]
        inexact = record_inexact_members(monkeypatch)
        monkeypatch.setattr(Superoperator, "real_matrix", property(forbidden_generator))
        solved = [steady_states(batch) for batch in batches]
        assert inexact == [[1], [1, 2], [0], [0]]
        monkeypatch.undo()
        for batch, outcomes in zip(batches, solved, strict=True):
            for member, (x, info) in zip(batch, outcomes, strict=True):
                assert info.residual <= STEADY_RESIDUAL_TOL
                assert abs(np.linalg.norm(member.real_matrix @ x) - info.residual) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(physical_params(), min_size=1, max_size=3).map(common_cutoff),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(batch=[full_params().with_truncation(2)], seed=0)
    def test_residual_without_the_generator(self, batch, seed):
        # ||G x|| from H_eff and R_h equals the norm with G = U L U^H formed
        # explicitly, to 1e-13 relative, at Fock cutoffs 1 and 2
        generators = build_liouvillians(batch)
        d = generators.space.total_dim
        x = np.random.default_rng(seed).standard_normal((len(batch), d * d))
        u = hermitian_basis(d)
        residuals = _residuals(generators, x)
        for member, coordinates, residual in zip(generators, x, residuals, strict=True):
            expected = np.linalg.norm(((u @ member.matrix @ u.conj().T) @ coordinates).real)
            assert abs(residual - expected) <= 1e-13 * expected


class TestEvolve:
    def test_zero_generator_keeps_state_constant(self):
        params = SystemParams(
            modes=(ModeParams(0.0, 0.0), ModeParams(0.0, 0.0)),
            dots=(QDParams(0.0), QDParams(0.0)),
            coupling=CouplingMatrix(((0.0, 0.0), (0.0, 0.0))),
            drive=DriveParams(amplitude=0.0),
        )
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 1, 0))
        trajectory = evolve(Schedule.constant(params, 100.0), rho0,
                            np.linspace(0.0, 100.0, 11))
        for matrix in trajectory.matrices:
            assert np.allclose(matrix, rho0.matrix, atol=1e-12)

    def test_exponential_decay_of_an_undriven_emitter(self):
        gamma = 3.0
        params = SystemParams(
            modes=(ModeParams(0.0, 0.0), ModeParams(1000.0, 0.0)),
            dots=(QDParams(0.0, gamma=gamma), QDParams(0.0)),
            coupling=CouplingMatrix(((0.0, 0.0), (0.0, 0.0))),
            drive=DriveParams(amplitude=0.0),
        )
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.linspace(0.0, 800.0, 17)
        trajectory = evolve(Schedule.constant(params, 800.0), rho0, t_grid)
        expected = np.exp(-gamma * t_grid / HBAR_UEV_PS)
        assert np.max(np.abs(trajectory.observables["pop_qd1"] - expected)) < 1e-6

    def test_single_excitation_swap_timing(self):
        # lossless resonant exchange: complete transfer to the mode at
        # t = pi hbar / (2 g)
        g = 110.0
        params = SystemParams(
            modes=(ModeParams(0.0, 0.0), ModeParams(9000.0, 0.0)),
            dots=(QDParams(0.0), QDParams(0.0)),
            coupling=CouplingMatrix(((g, 0.0), (0.0, 0.0))),
            drive=DriveParams(amplitude=0.0),
        )
        t_swap = np.pi * HBAR_UEV_PS / (2 * g)
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        trajectory = evolve(Schedule.constant(params, t_swap), rho0,
                            np.array([0.0, t_swap / 2, t_swap]))
        assert abs(trajectory.observables["pop_m1"][-1] - 1.0) < 1e-6
        assert abs(trajectory.observables["pop_qd1"][-1]) < 1e-6

    def test_agrees_with_matrix_exponential_oracle(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        liouville = build_liouvillian(params)
        dense = liouville.matrix.toarray()
        rho0 = DensityMatrix.basis_state(params.space(), (0, 0, 1, 0))
        t_grid = np.linspace(0.0, 60.0, 11)[1:]
        trajectory = evolve(Schedule.constant(params, 60.0), rho0, t_grid)
        vec0 = rho0.matrix.reshape(-1, order="F")
        for k, t in enumerate(t_grid):
            reference = (expm(dense * t) @ vec0).reshape((16, 16), order="F")
            assert np.linalg.norm(trajectory.matrices[k] - reference) < 1e-7

    @settings(max_examples=10, deadline=None)
    @given(params=physical_params(), switched=physical_params(),
           gaps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
           horizon=st.floats(1.0, 40.0), switch=st.floats(0.1, 0.9))
    # a subnormal pump rate: its generator entries are flushed to zero, and
    # the oracle's dense expm stays finite
    @example(params=ZERO_PARAMS, switched=SUBNORMAL_PUMP_PARAMS,
             gaps=[1.0, 0.5], horizon=1.0, switch=0.5)
    def test_two_segment_schedule_matches_expm(self, params, switched, gaps,
                                               horizon, switch):
        # cutoff 1, the dense-propagator route; the switch falls off the
        # non-uniform sample grid
        params, switched = params.with_truncation(1), switched.with_truncation(1)
        t_grid = horizon * np.cumsum(gaps) / np.sum(gaps)
        tau = switch * horizon
        assume(np.min(np.abs(t_grid - tau)) > 1e-3 * horizon)
        segments = ((tau, params), (horizon - tau, switched))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 1))
        trajectory = evolve(Schedule(segments), rho0, t_grid)
        assert trajectory.info.route == "dense_expm"
        for state, reference in zip(trajectory.matrices,
                                    expm_oracle(segments, rho0, t_grid),
                                    strict=True):
            assert np.max(np.abs(state - reference)) <= 1e-10

    def test_sparse_route_matches_expm(self):
        # cutoff 2 (D^2 = 1296) takes the Taylor action; each step is one
        # Taylor step
        params = dark_tuned(preset_params("dimer30_dc901")).with_truncation(2)
        segments = ((1.3, params.with_qd2_detuning(40.0)), (0.6, params))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.array([0.0, 0.4, 0.8, 1.9])
        trajectory = evolve(Schedule(segments), rho0, t_grid)
        assert trajectory.info.route == "taylor_action"
        # steps 0.4, 0.4, 0.5 to the switch and 0.6
        assert trajectory.info.propagators == 4
        assert trajectory.info.taylor_steps == 4
        assert trajectory.info.dense_propagators == 0
        assert np.array_equal(trajectory.matrices[0], rho0.matrix)
        for state, reference in zip(trajectory.matrices[1:],
                                    expm_oracle(segments, rho0, t_grid[1:]),
                                    strict=True):
            assert np.max(np.abs(state - reference)) <= 1e-10

    def test_one_dense_propagator_per_distinct_step(self, monkeypatch):
        # a uniform grid needs one dense propagator per segment; the partial
        # step on each side of the switch is taken once and moves the state
        # by the Taylor action, counted with the propagators
        dense_built = count_dense_builds(monkeypatch)
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.linspace(0.0, 100.0, 21)
        constant = evolve(Schedule.constant(params, 100.0), rho0, t_grid)
        assert constant.info.propagators == 1
        assert constant.info.dense_propagators == 1
        assert len(dense_built) == 1
        dense_built.clear()
        switched = evolve(Schedule(((42.0, params), (58.0, params))), rho0, t_grid)
        assert switched.info.propagators == 4
        assert (switched.info.dense_propagators,
                switched.info.taylor_steps) == (2, 2)
        assert len(dense_built) == 2  # 4 before single steps moved off the dense route
        assert 0.0 <= switched.info.max_trace_drift < 1e-12
        for s1, s2 in zip(constant.matrices, switched.matrices):
            assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_protocol_run_builds_one_dense_propagator(self, monkeypatch):
        # 5 ps samples, switch at 9 ps: the 5 and 4 ps steps before it and
        # the 1 ps step after it are each taken once; only the 5 ps step of
        # the second segment is a dense propagator
        dense_built = count_dense_builds(monkeypatch)
        trajectory = stark_switch_protocol(preset_params("dimer30_dc901"),
                                           9.0, 1500.0, 4000.0, 801)
        assert trajectory.info.route == "dense_expm"
        assert trajectory.info.propagators == 4
        assert (trajectory.info.dense_propagators,
                trajectory.info.taylor_steps) == (1, 3)
        assert dense_built == [(256, 256)]

    def test_few_equal_steps_take_the_taylor_action(self, monkeypatch):
        # a step length taken twice in a segment, as the 5 ps samples before
        # a switch after 10 ps are, costs less as two Taylor steps than as a
        # dense exp(G h)
        dense_built = count_dense_builds(monkeypatch)
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.array([0.0, 5.0, 10.0])
        segments = ((10.0, params),)
        trajectory = evolve(Schedule(segments), rho0, t_grid)
        assert dense_built == []
        assert (trajectory.info.dense_propagators,
                trajectory.info.taylor_steps) == (0, 2)
        for state, reference in zip(trajectory.matrices[1:],
                                    expm_oracle(segments, rho0, t_grid[1:]),
                                    strict=True):
            assert np.max(np.abs(state - reference)) <= 1e-10

    def test_many_short_steps_take_the_taylor_action(self, monkeypatch):
        # 25 steps of 0.2 ps: their Taylor steps sum fewer terms than one
        # dense exp(G h) costs, however many steps there are
        dense_built = count_dense_builds(monkeypatch)
        params = dark_tuned(preset_params("dimer30_dc901"))
        generator = build_liouvillian(params).real_matrix
        norm = float(abs(generator).sum(axis=0).max())
        assert 25 * math.prod(_taylor_plan(norm * 0.2)) < _DENSE_MIN_TERMS
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.linspace(0.0, 5.0, 26)
        segments = ((5.0, params),)
        trajectory = evolve(Schedule(segments), rho0, t_grid)
        assert dense_built == []
        assert (trajectory.info.dense_propagators,
                trajectory.info.taylor_steps) == (0, 25)
        for state, reference in zip(trajectory.matrices[1:],
                                    expm_oracle(segments, rho0, t_grid[1:]),
                                    strict=True):
            assert np.max(np.abs(state - reference)) <= 1e-10

    def test_long_steps_take_a_dense_propagator(self, monkeypatch):
        # a 1000 ps step taken four times: its Taylor steps would sum some
        # 30,000 terms each, where one dense exp(G h) costs as much as
        # 1,800-3,000 of them
        dense_built = count_dense_builds(monkeypatch)
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.linspace(0.0, 4000.0, 5)
        segments = ((4000.0, params),)
        trajectory = evolve(Schedule(segments), rho0, t_grid)
        assert dense_built == [(256, 256)]
        assert (trajectory.info.dense_propagators,
                trajectory.info.taylor_steps) == (1, 0)
        for state, reference in zip(trajectory.matrices[1:],
                                    expm_oracle(segments, rho0, t_grid[1:]),
                                    strict=True):
            assert np.max(np.abs(state - reference)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(params=physical_params().map(lambda p: p.with_truncation(1)),
           count=st.sampled_from([1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1,
                                  2 * _SAMPLE_BLOCK, 2 * _SAMPLE_BLOCK + 1,
                                  3 * _SAMPLE_BLOCK + 1]),
           step=st.floats(0.01, 5.0), seed=st.integers(0, 2 ** 32 - 1))
    # a lossless rotation, ||G h||_1 = 33.3, on which expm of G h itself
    # drifted from the propagator by 1.01e-12 of max |y| over eight steps
    @example(params=dataclasses.replace(
        ZERO_PARAMS, dots=(QDParams(0.0), QDParams(1479.0)),
        drive=DriveParams(amplitude=0.0, pump_freq=-2368.0)), count=8, step=2.0, seed=1)
    def test_blocked_sampling_matches_matvec_chain(self, params, count, step,
                                                   seed):
        # a run whose Taylor steps would sum at least _DENSE_MIN_TERMS terms
        # takes a dense propagator, and its samples after the first block
        # come from products with P^B (runs that end inside, at and one past
        # a block boundary); they agree with one matvec per step up to
        # roundoff.  A cheaper run takes one Taylor action per step
        generator = build_liouvillian(params).real_matrix
        rho = random_density(np.random.default_rng(seed), 16)
        y = (hermitian_basis(16) @ rho.reshape(-1, order="F")).real
        steps = np.full(count, step)
        states, reference = np.empty((2, count, y.size))
        built, calls = _propagate(generator, y, steps, states)
        matvec_chain(generator, y, steps, reference)
        norm = abs(generator).sum(axis=0).max()
        terms = count * math.prod(_taylor_plan(norm * step))
        dense = terms >= _DENSE_MIN_TERMS
        assert (built, calls) == ((1, 0) if dense else (0, count))
        assert np.max(np.abs(states - reference)) <= 1e-12 * np.abs(reference).max()

    @settings(max_examples=10, deadline=None)
    @given(params=physical_params().map(lambda p: p.with_truncation(1)),
           switched=physical_params().map(lambda p: p.with_truncation(1)),
           samples=st.integers(2 * _SAMPLE_BLOCK, 4 * _SAMPLE_BLOCK),
           horizon=st.floats(1.0, 40.0), switch=st.floats(0.1, 0.9))
    def test_blocked_schedule_matches_matvec_chain(self, params, switched,
                                                   samples, horizon, switch):
        # two segments on a uniform grid: a run of equal steps on each side
        # of the switch, blocked where it takes a dense propagator and is
        # longer than B, and the single steps that reach and leave it
        # (steps up to ~5 ps, as above)
        t_grid = np.linspace(0.0, horizon, samples)
        tau = switch * horizon
        assume(np.min(np.abs(t_grid - tau)) > 1e-3 * horizon)
        schedule = Schedule(((tau, params), (horizon - tau, switched)))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 1))
        states, _, _ = _propagate_schedule(schedule, rho0, t_grid, _propagate)
        reference, _, _ = _propagate_schedule(schedule, rho0, t_grid, matvec_chain)
        assert np.max(np.abs(states - reference)) <= 1e-12 * np.abs(reference).max()

    @settings(max_examples=40, deadline=None)
    @given(params=physical_params().map(lambda p: p.with_truncation(1)),
           h=st.floats(0.01, 50.0))
    @example(params=ZERO_PARAMS, h=50.0)
    @example(params=SUBNORMAL_PUMP_PARAMS, h=1.0)
    @example(params=dark_tuned(preset_params("dimer30_dc901")), h=5.0)
    def test_dense_propagator_matches_expm(self, params, h):
        # the scaled and squared Taylor polynomial against the scaled Pade
        # expm, to 1e-13 of max |P| times max(1, ||G h||_1): the relative
        # condition number of exp at G h is at least ||G h|| (Van Loan,
        # SIAM J. Numer. Anal. 14, 971 (1977)), and both methods err by
        # about eps 2^s.  Over these draws s runs from 0 (the zero and
        # subnormal-pump systems, and small ||G h||) to 10, the preset at
        # 5 ps takes 5; 400 draws used at most 0.11 of the bound
        generator = build_liouvillian(params).real_matrix
        reference = scaled_expm(generator.toarray(), h)
        propagator = _dense_propagator(generator, float(abs(generator).sum(axis=0).max()), h)
        assert propagator.shape == (256, 256)
        norm = abs(generator * h).sum(axis=0).max()
        assert (np.max(np.abs(propagator - reference))
                <= 1e-13 * max(1.0, norm) * np.abs(reference).max())

    @settings(max_examples=25, deadline=None)
    @given(params=physical_params(), cutoff=st.sampled_from((1,) * 7 + (2,)),
           h=st.floats(0.01, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(params=ZERO_PARAMS, cutoff=1, h=50.0, seed=0)
    @example(params=SUBNORMAL_PUMP_PARAMS, cutoff=1, h=1.0, seed=0)
    @example(params=dark_tuned(preset_params("dimer30_dc901")), cutoff=1, h=5.0,
             seed=0)
    # the degree-45 action from ||G h||_1 = 1e-3 to 2e3 on the dark-tuned
    # preset (||G||_1 = 4.76 /ps at cutoff 1, 8.81 /ps at cutoff 2): one
    # substep up to theta_45 = 7.2, which stops after a few of its 45 terms
    # at 1e-3, and 278 substeps at 2e3
    @example(params=DARK_PRESET, cutoff=1, h=2.1e-4, seed=1)
    @example(params=DARK_PRESET, cutoff=1, h=0.021, seed=1)
    @example(params=DARK_PRESET, cutoff=1, h=1.5, seed=1)
    @example(params=DARK_PRESET, cutoff=1, h=10.5, seed=1)
    @example(params=DARK_PRESET, cutoff=1, h=63.0, seed=1)
    @example(params=DARK_PRESET, cutoff=1, h=420.0, seed=1)
    @example(params=DARK_PRESET, cutoff=2, h=1.1e-4, seed=2)
    @example(params=DARK_PRESET, cutoff=2, h=0.83, seed=2)
    @example(params=DARK_PRESET, cutoff=2, h=227.0, seed=2)
    def test_taylor_action_matches_expm(self, params, cutoff, h, seed):
        # one Taylor step of a random state against the scaled Pade expm, at
        # Fock cutoff 1 and, one draw in eight, cutoff 2: to 1e-12 of max |y|
        # up to ||G h||_1 = 10 and in proportion to ||G h||_1 above, the
        # lower bound of the condition number (as for the dense propagator).
        # A flat 1e-12 fails for lossless rotations by hundreds of radians,
        # whose Taylor terms cancel: 2 of 1,500 cutoff-1 draws exceeded it,
        # by up to 1.1e-12, at most 0.041 of this bound; scipy's
        # expm_multiply exceeded it in 18 of 1,000
        params = params.with_truncation(cutoff)
        generator = build_liouvillian(params).real_matrix
        d = params.space().total_dim
        rho = random_density(np.random.default_rng(seed), d)
        y = (hermitian_basis(d) @ rho.reshape(-1, order="F")).real
        reference = scaled_expm(generator.toarray(), h) @ y
        norm = float(abs(generator).sum(axis=0).max())
        state = np.empty_like(y)
        _taylor_action(generator, norm, h, y, state)
        assert (np.max(np.abs(state - reference))
                <= 1e-13 * max(10.0, norm * h) * np.abs(reference).max())

    @pytest.mark.parametrize("h", [1.0, 13.0, 50.0])
    def test_dense_propagator_of_a_rotation(self, h):
        # levels at multiples of the rotating-frame frequency and nothing
        # else: G h is a direct sum of 2 x 2 rotations by angles w, whose
        # exponential is [[cos w, -sin w], [sin w, cos w]].  The propagator
        # meets it to 1e-14 up to ||G h||_1 = 31 (s = 6); scipy's expm
        # missed it by 1.0e-13 at 13 ps and 2.5e-13 at 50 ps
        params = dataclasses.replace(
            ZERO_PARAMS, drive=DriveParams(amplitude=0.0, pump_freq=102.0))
        generator = build_liouvillian(params).real_matrix
        a = (generator * h).toarray()
        exact = np.eye(256)
        for i, j in zip(*np.nonzero(np.triu(a))):
            c, s = np.cos(a[j, i]), np.sin(a[j, i])
            exact[np.ix_([i, j], [i, j])] = [[c, -s], [s, c]]
        assert np.array_equal(a, np.triu(a) - np.triu(a).T)  # rotations only
        propagator = _dense_propagator(generator, float(abs(generator).sum(axis=0).max()), h)
        assert np.max(np.abs(propagator - exact)) <= 1e-14

    def test_batched_observables_match_per_state_values(self):
        params = dark_tuned(preset_params("dimer30_dc901")).with_qd_decay(0.66)
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        trajectory = evolve(Schedule.constant(params, 300.0), rho0,
                            np.linspace(0.0, 300.0, 31))
        space = params.space()
        numbers = {name: low.matrix.conj().T @ low.matrix for name, low in
                   zip(("pop_qd1", "pop_qd2", "pop_m1", "pop_m2"),
                       lowering_operators(space))}
        states = [DensityMatrix(space, m, policy=_SOLVER_POLICY)
                  for m in trajectory.matrices]
        for k, state in enumerate(states):
            # per-state loop references, one matrix at a time
            for name, number in numbers.items():
                expected = np.trace(number @ state.matrix).real
                assert abs(trajectory.observables[name][k] - expected) <= 1e-14
                assert abs(OBSERVABLES[name](params, state) - expected) <= 1e-14
            spectrum = np.linalg.eigvalsh(partial_transpose_first(
                partial_trace(state, (0, 1))))
            expected = -spectrum[spectrum < -1e-12].sum()
            assert abs(trajectory.observables["negativity"][k] - expected) <= 1e-14
        assert trajectory.observables["negativity"].max() > 0.01
        # the stacked negativities equal the per-state ones, bit for bit
        assert np.array_equal(trajectory.observables["negativity"],
                              [observables(space, x)["negativity"]
                               for x in trajectory.coordinates])

    def test_trajectory_keeps_read_only_coordinates(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        trajectory = evolve(Schedule.constant(params, 20.0), rho0,
                            np.linspace(0.0, 20.0, 5))
        assert trajectory.coordinates.shape == (5, 256)
        assert not trajectory.coordinates.flags.writeable
        # the matrix stack is gathered on each read and not kept
        matrices = trajectory.matrices
        assert not matrices.flags.writeable
        assert trajectory.matrices is not matrices
        assert "matrices" not in vars(trajectory)
        assert np.array_equal(matrices, hermitian_matrices(trajectory.coordinates, 16))
        assert np.array_equal(matrices[0], rho0.matrix)

    @pytest.mark.parametrize("defect, error, message", [
        ("nan", IntegrationError, "non-finite state coordinate at t = 20 ps"),
        ("drift", IntegrationError, "trace drift 1.000e-06 exceeds 1e-07"),
        ("coherence", DomainError, "negative eigenvalue"),
    ])
    def test_sampled_coordinates_are_validated(self, monkeypatch, defect, error,
                                               message):
        # a NaN in a coherence coordinate, a trace drift, or a coherence
        # too large for the populations of its pair in the last sample
        propagate = pcdimer.solvers._propagate

        def faulty(generator, y, steps, out):
            counts = propagate(generator, y, steps, out)
            if defect == "nan":
                out[-1, -1] = np.nan
            elif defect == "drift":
                out[-1, 0] += 1e-6
            else:
                out[-1, 16] += 1.0  # sqrt(2) Re rho_01
            return counts

        monkeypatch.setattr(pcdimer.solvers, "_propagate", faulty)
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        with pytest.raises(error, match=message):
            evolve(Schedule.constant(params, 20.0), rho0, np.linspace(0.0, 20.0, 5))

    @pytest.mark.parametrize("dip", [0.5e-8, 2e-8])
    def test_coordinate_check_matches_matrix_check(self, dip):
        # 150 states (three blocks of 64): the coordinate check passes or
        # fails as an independent check of the gathered matrices does (the
        # np.trace of each and its least np.linalg.eigvalsh eigenvalue), with
        # the same message, when state 130 has an eigenvalue -dip against
        # the 1e-8 slack
        rng = np.random.default_rng(5)
        states = np.array([random_density(rng, 16) for _ in range(150)])
        w, v = np.linalg.eigh(states[130])
        w[0] = -dip
        w[1:] *= (1.0 + dip) / w[1:].sum()
        states[130] = (v * w) @ v.conj().T
        x = hermitian_coordinates(states, 16)
        states = hermitian_matrices(x, 16)
        traces = np.trace(states, axis1=1, axis2=2)
        assert np.abs(traces - 1.0).max() <= _SOLVER_POLICY.algebraic_tol
        least = np.linalg.eigvalsh(states)[:, 0]
        below = np.flatnonzero(least < -_SOLVER_POLICY.positivity_slack)
        expected = (f"density matrix has negative eigenvalue {least[below[0]]:.3e}"
                    if below.size else None)
        try:
            check_coordinates(x, 16, _SOLVER_POLICY)
            outcome = None
        except DomainError as exc:
            outcome = str(exc)
        assert outcome == expected
        assert (outcome is not None) == (dip > _SOLVER_POLICY.positivity_slack)

    def test_long_run_footprint(self):
        # a cutoff-1, 4000 ps, 801-sample run allocates one coordinate array
        # (1.6 MB, kept by the trajectory) plus the temporaries of one dense
        # propagator (~3 MB at D^2 = 256, while the coordinates are live); it
        # peaked 4.9 MB above its start, against 6.4 MB when the trajectory
        # also kept its complex matrix stack (3.3 MB) and scipy's expm formed
        # the propagator, and 11.5 MB when every segment had its own sample
        # array and the density check took the whole stack at once
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        schedule = Schedule.constant(params, 4000.0)
        t_grid = np.linspace(0.0, 4000.0, 801)
        evolve(schedule, rho0, t_grid)  # fill the per-space caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evolve(schedule, rho0, t_grid)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_trace_drift_bounded(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (0, 0, 1, 0))
        trajectory = evolve(Schedule.constant(params, 2000.0), rho0,
                            np.linspace(0.0, 2000.0, 41))
        for matrix in trajectory.matrices:
            assert abs(np.trace(matrix) - 1.0) < 1e-12  # renormalized
            assert np.linalg.eigvalsh(matrix).min() > -1e-8

    def test_segment_restart_is_exact(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        rho0 = DensityMatrix.basis_state(params.space(), (1, 0, 0, 0))
        t_grid = np.linspace(0.0, 100.0, 21)
        single = evolve(Schedule.constant(params, 100.0), rho0, t_grid)
        split = evolve(Schedule(((40.0, params), (60.0, params))), rho0, t_grid)
        assert np.max(np.abs(single.matrices - split.matrices)) < 1e-8

    def test_grid_validation(self):
        params = preset_params("dimer30_dc901")
        rho0 = DensityMatrix.basis_state(params.space(), (0, 0, 0, 0))
        schedule = Schedule.constant(params, 10.0)
        with pytest.raises(IntegrationError):
            evolve(schedule, rho0, np.array([0.0, 5.0, 5.0]))
        with pytest.raises(IntegrationError):
            evolve(schedule, rho0, np.array([0.0, 20.0]))
        with pytest.raises(IntegrationError):
            evolve(schedule, rho0, np.array([]))

    def test_schedule_validation(self):
        params = preset_params("dimer30_dc901")
        for duration in (0.0, np.nan, np.inf):
            with pytest.raises(IntegrationError):
                Schedule(((duration, params),))
        with pytest.raises(IntegrationError):
            Schedule(((5.0, params), (5.0, params.with_truncation(2))))
        with pytest.raises(IntegrationError):
            Schedule(())

    def test_initial_state_space_checked(self):
        params = preset_params("dimer30_dc901")
        wrong = DensityMatrix.basis_state(params.with_truncation(2).space(),
                                          (0, 0, 0, 0))
        with pytest.raises(IntegrationError):
            evolve(Schedule.constant(params, 1.0), wrong, np.array([1.0]))


class TestConvergenceScan:
    def test_zero_drive_is_converged_at_zero(self):
        params = preset_params("dimer30_dc901").with_drive(amplitude=0.0)
        report = convergence_scan(params, "negativity", cutoffs=(1, 2))
        assert report.values == (0.0, 0.0)
        assert report.relative_differences == (0.0,)
        assert report.all_converged

    def test_weak_drive_truncation_error(self):
        # measured single-photon truncation error of the dark-drive
        # negativity: 1.32%; cutoff 2 itself is converged to ~1e-6
        params = dark_tuned(preset_params("dimer30_dc901"))
        report = convergence_scan(params, "negativity", cutoffs=(1, 2))
        assert 0.012 < report.relative_differences[0] < 0.015
        assert not report.all_converged

    def test_second_cutoff_is_converged(self):
        params = dark_tuned(preset_params("dimer30_dc901"))
        report = convergence_scan(params, "negativity", cutoffs=(2, 3))
        assert report.relative_differences[0] < 1e-4

    def test_strong_drive_flagged_nonconverged(self):
        params = dark_tuned(preset_params("dimer30_dc901")).with_drive(
            amplitude=50.0)
        report = convergence_scan(params, "pop_m1", cutoffs=(1, 2))
        assert report.relative_differences[0] > 0.01
        assert not report.all_converged

    def test_cutoffs_validated(self):
        params = preset_params("dimer30_dc901")
        # fewer than two cutoffs leave nothing to compare, and no float is
        # rounded into a cutoff
        for cutoffs in ((0, 1), (2, 2), (2, 1), ("one", 2), (1.5, 2.9), (), (2,)):
            with pytest.raises(DomainError):
                convergence_scan(params, "negativity", cutoffs=cutoffs)

    def test_unknown_observable(self):
        with pytest.raises(DomainError) as exc_info:
            convergence_scan(preset_params("dimer30_dc901"), "entropy")
        message = str(exc_info.value)
        assert "'entropy'" in message
        assert all(name in message for name in OBSERVABLES)
