import dataclasses
import json
import os

import numpy as np
import pytest

import pcdimer.experiments
from pcdimer.cli import parse_config, run
from pcdimer.entanglement import qd_negativity
from pcdimer.exceptions import DomainError
from pcdimer.experiments import (
    SWEEPS,
    SweepAxis,
    SweepResult,
    SweepSpec,
    default_grid,
    dynamics_run,
    oscillation_period,
    run_sweep,
    stark_switch_protocol,
    sweep_dephasing,
    sweep_detuning,
    sweep_phase_detuning,
    sweep_splitting,
)
from pcdimer.hilbert import DensityMatrix
from pcdimer.liouvillian import build_liouvillian
from pcdimer.model import identify_dark_state, preset_params
from pcdimer.solvers import Schedule, evolve, observables, steady_state, steady_states

COARSE_PHI = np.linspace(0.0, 2.0 * np.pi, 13)  # includes pi exactly


def dark_tuned(params):
    dark = identify_dark_state(params)
    return (params.with_drive(phase1=np.pi, phase2=0.0)
            .with_drive_detuning(dark.detuning))


@pytest.fixture(scope="module")
def preset():
    return preset_params("dimer30_dc901")


@pytest.fixture(scope="module")
def coarse_map(preset):
    dark = identify_dark_state(preset)
    delta = dark.detuning + np.array([-11.0, -5.5, 0.0, 5.5, 11.0])
    return sweep_phase_detuning(preset, COARSE_PHI, delta), delta


class TestPhaseDetuningSweep:
    def test_maximum_at_antisymmetric_drive_on_dark_state(self, coarse_map):
        result, delta = coarse_map
        k = np.unravel_index(np.argmax(result.values), result.values.shape)
        assert np.isclose(COARSE_PHI[k[0]], np.pi)
        assert np.isclose(delta[k[1]], delta[2])
        assert 0.08 < result.values[k] < 0.12

    def test_symmetric_drive_cannot_populate_dark_state(self, coarse_map):
        result, delta = coarse_map
        assert result.values[0, 2] < 0.02

    def test_two_pi_periodicity(self, coarse_map):
        result, _ = coarse_map
        assert np.allclose(result.values[0, :], result.values[-1, :], atol=1e-12)

    def test_all_points_converged(self, coarse_map):
        result, _ = coarse_map
        assert result.converged.all()
        assert np.nanmax(result.residuals) < 1e-9

    def test_requires_resonant_emitters(self, preset):
        with pytest.raises(DomainError):
            sweep_phase_detuning(preset.with_qd2_detuning(25.0),
                                 COARSE_PHI, np.array([0.0, 1.0]))


def recording_pool(monkeypatch):
    """Replaces the sweeps' process pool by one that maps in this process
    and records (max_workers, chunksize, batches) of each map in the list
    it returns."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            pools.append((self.max_workers, chunksize, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(pcdimer.experiments, "ProcessPoolExecutor", RecordingPool)
    return pools


class TestSweepEngine:
    def test_parallel_equals_sequential(self, preset, monkeypatch):
        # a sweep whose points fit one batch runs in this process whatever
        # the worker count: starting a pool raises here
        phi = np.linspace(0.0, 2.0 * np.pi, 5)
        delta = np.array([-22.0, -11.0, 0.0])
        seq = sweep_phase_detuning(preset, phi, delta, n_workers=1)
        assert seq.values.size <= seq.batch_points

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-batch sweep started a process pool")

        monkeypatch.setattr(pcdimer.experiments, "ProcessPoolExecutor", no_pool)
        par = sweep_phase_detuning(preset, phi, delta, n_workers=2)
        for name in ("values", "residuals", "iterations",
                     "certificate_iterations", "converged"):
            assert np.array_equal(getattr(seq, name), getattr(par, name)), name

    def test_batches_identical_for_any_worker_count(self, preset, tmp_path):
        # 13 x 12 points at cutoff 1 span three batches (64, 64, 28): the
        # pool maps batches, and their partition does not depend on the
        # workers
        phi = np.linspace(0.0, 2.0 * np.pi, 13)
        delta = np.linspace(-33.0, 22.0, 12)
        seq = sweep_phase_detuning(preset, phi, delta, n_workers=1)
        par = sweep_phase_detuning(preset, phi, delta, n_workers=2)
        assert seq.batch_points == par.batch_points
        assert 2 * seq.batch_points < seq.values.size <= 3 * seq.batch_points
        for name in ("values", "residuals", "iterations",
                     "certificate_iterations", "converged"):
            assert np.array_equal(getattr(seq, name), getattr(par, name)), name
        assert seq.converged.all()

        text = ("[run]\ncommand = sweep\npreset = dimer30_dc901\n"
                "threads = {threads}\n\n[sweep]\nkind = phase_detuning\n"
                "phi_min = 0\nphi_max = 6.283185307179586\nphi_points = 13\n"
                "delta_min = -33\ndelta_max = 22\ndelta_points = 12\n"
                "\n[output]\ndirectory = {out}\n")
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            assert run(parse_config(text.format(threads=threads, out=out)),
                       quiet=True) == 0
            outputs.append((out / "sweep_phase_detuning.csv").read_bytes())
            manifest = json.loads((out / "sweep_manifest.json").read_text())
            assert manifest["diagnostics"]["batch_points"] == seq.batch_points
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n_workers, cpus, affinity, expected", [
        (500, 64, True, (3, 1, 3)),  # capped at the batch count
        (500, 2, True, (2, 1, 3)),  # capped at the usable CPUs
        (2, 64, True, (2, 1, 3)),
        (500, 2, False, (2, 1, 3)),  # os.cpu_count() without an affinity call
        (500, 1, True, None),  # one usable CPU: no pool
        (500, None, False, None),  # an unknown CPU count counts as one
    ])
    def test_pool_is_capped(self, preset, monkeypatch, n_workers, cpus,
                            affinity, expected):
        # a pool forks all its workers at the first submit, so it may ask
        # for no more than batches and CPUs; 13 x 12 points span three
        # batches.  The recording pool starts no process
        phi = np.linspace(0.0, 2.0 * np.pi, 13)
        delta = np.linspace(-33.0, 22.0, 12)
        seq = sweep_phase_detuning(preset, phi, delta, n_workers=1)
        pools = recording_pool(monkeypatch)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        par = sweep_phase_detuning(preset, phi, delta, n_workers=n_workers)
        assert pools == ([] if expected is None else [expected])
        for name in ("values", "residuals", "iterations",
                     "certificate_iterations", "converged"):
            assert np.array_equal(getattr(seq, name), getattr(par, name)), name

    def test_pool_chunks_follow_the_capped_count(self, preset, monkeypatch):
        # batches of 4 points: 13 x 12 points make 39 batches, mapped in
        # chunks of 39 // (8 x 2) = 2 by two workers on two CPUs, where the
        # uncapped count of 500 would give chunks of one
        pools = recording_pool(monkeypatch)
        monkeypatch.setattr(pcdimer.experiments, "batch_points", lambda dim2: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        phi = np.linspace(0.0, 2.0 * np.pi, 13)
        delta = np.linspace(-33.0, 22.0, 12)
        sweep_phase_detuning(preset, phi, delta, n_workers=500)
        assert pools == [(2, 2, 39)]

    @pytest.mark.parametrize("cutoff, phi_points, batch", [(1, 9, 64), (2, 4, 12)])
    def test_values_equal_solo_negativity(self, preset, cutoff, phi_points, batch):
        # the negativities of a batch come from one stacked evaluation of
        # its steady-state coordinates; each equals the value of the point's
        # coordinates solved on its own, bit for bit, and the partial trace
        # of its matrix to 1e-14
        phi = np.linspace(0.0, 2.0 * np.pi, phi_points)
        delta = np.linspace(-33.0, 22.0, 3)
        spec = SweepSpec(preset.with_truncation(cutoff),
                         (SweepAxis("phi", tuple(phi)),
                          SweepAxis("delta", tuple(delta))))
        result = run_sweep(spec)
        assert result.batch_points == batch
        assert result.converged.all()
        for idx in np.ndindex(result.values.shape):
            liouville = build_liouvillian(spec.point_params(idx))
            ((x, _),) = steady_states([liouville])
            assert result.values[idx] == observables(liouville.space, x)["negativity"], idx
            rho = steady_state(liouville)
            assert abs(result.values[idx] - qd_negativity(rho)) <= 1e-14, idx

    def test_deterministic_repetition(self, preset):
        delta = np.array([-11.0, 0.0, 11.0])
        first = sweep_detuning(dark_tuned(preset), delta)
        second = sweep_detuning(dark_tuned(preset), delta)
        assert np.array_equal(first.values, second.values)

    def test_records_layout(self, preset):
        result = sweep_phase_detuning(preset, np.array([0.0, np.pi]),
                                      np.array([-11.0, 0.0]))
        columns, rows = result.to_records()
        assert columns == ("phi_rad", "delta_ueV", "negativity", "residual",
                           "converged")
        assert len(rows) == 4
        assert rows[0][:2] == (0.0, -11.0)
        assert rows[1][:2] == (0.0, 0.0)  # C-order: second axis fastest

    def test_axis_validation(self, preset):
        with pytest.raises(DomainError):
            SweepAxis("voltage", (0.0, 1.0))
        with pytest.raises(DomainError):
            SweepAxis("phi", ())
        with pytest.raises(DomainError):
            SweepAxis("phi", (np.nan,))
        with pytest.raises(DomainError):
            SweepSpec(preset, ())


class TestDetuningSweep:
    def test_negativity_collapses_with_emitter_detuning(self, preset):
        base = dark_tuned(preset)
        result = sweep_detuning(base, np.array([0.0, 10.0, 41.0]))
        values = result.values
        assert 0.20 <= values[1] / values[0] <= 0.30
        assert values[2] < 0.01

    def test_symmetric_when_rates_symmetric_and_far_split(self, preset):
        sym = preset.with_mode_linewidths(50.0, 50.0).with_splitting(50000.0)
        base = dark_tuned(sym)
        result = sweep_detuning(base, np.array([-30.0, -10.0, 10.0, 30.0]))
        assert abs(result.values[1] - result.values[2]) < 1e-3 * result.values[1]
        assert abs(result.values[0] - result.values[3]) < 1e-3 * result.values[1]


class TestDephasingSweep:
    def test_monotone_nonincreasing(self, preset):
        base = dark_tuned(preset)
        result = sweep_dephasing(base, np.array([0.0, 0.5, 1.0, 2.0, 5.0]))
        assert np.all(np.diff(result.values) <= 1e-12)

    def test_zero_dephasing_endpoint_matches_map_maximum(self, preset, coarse_map):
        base = dark_tuned(preset)
        result = sweep_dephasing(base, np.array([0.0, 1.0]))
        map_result, _ = coarse_map
        assert np.isclose(result.values[0], map_result.values.max(), atol=1e-9)


class TestSplittingSweep:
    def test_plateau_and_collapse(self, preset):
        base = dark_tuned(preset)
        grid = np.array([0.0, 55.0, 440.0, 2200.0, 4400.0, 6600.0])
        result = sweep_splitting(base, grid)
        assert result.values[0] < 0.02   # no spectral protection left
        assert result.values[-1] > 0.08  # well-split plateau near 0.1
        assert result.values[-2] > 0.08
        assert np.all(np.diff(result.values) > 0)

    def test_plateau_weakly_sensitive_to_mode_linewidths(self, preset):
        base = dark_tuned(preset)
        grid = np.array([2200.0, 4400.0])
        result = sweep_splitting(base, grid,
                                 linewidth_sets=[(67.0, 37.0), (17.0, 16.0)])
        broad = result.values[:, 0]
        narrow = result.values[:, 1]
        assert np.all(np.abs(narrow - broad) / broad < 0.20)
        columns, rows = result.to_records()
        assert columns[:3] == ("splitting_ueV", "gamma_m1_ueV", "gamma_m2_ueV")
        assert len(rows) == 4


class TestDynamics:
    def test_photon_seed_beats_exciton_seed(self, preset):
        photon = dynamics_run(preset, "photon_mode1", horizon=1500.0, samples=301)
        exciton = dynamics_run(preset, "qd1_excited", horizon=1500.0, samples=301)
        peak_photon = photon.observables["negativity"].max()
        peak_exciton = exciton.observables["negativity"].max()
        assert peak_photon > 0.4
        assert peak_exciton < peak_photon

    def test_vacuum_seed_is_driven_into_entanglement(self, preset):
        trajectory = dynamics_run(preset, "vacuum", horizon=1500.0, samples=301)
        assert trajectory.observables["negativity"].max() > 0.4
        assert trajectory.observables["negativity"][0] == 0.0

    def test_unknown_initial_state(self, preset):
        with pytest.raises(DomainError):
            dynamics_run(preset, "photon_mode2", horizon=10.0)

    @pytest.mark.parametrize("run, horizon, samples, match", [
        *(pytest.param("dynamics", horizon, 801, "horizon", id=str(horizon))
          for horizon in (0.0, np.nan, np.inf)),
        # and the sample count, of a protocol run too, is an integer >= 2
        *(pytest.param(run, 20.0, samples, "samples", id=f"{run}-samples={samples!r}")
          for run in ("dynamics", "protocol") for samples in (-1, 1, 2.5, True))])
    def test_horizon_must_be_positive_and_finite(self, preset, run, horizon,
                                                 samples, match):
        with pytest.raises(DomainError, match=match):
            if run == "dynamics":
                dynamics_run(preset, "vacuum", horizon=horizon, samples=samples)
            else:
                stark_switch_protocol(preset, 9.0, 1500.0, horizon, samples)

    def test_oscillation_period_matches_collective_drive(self, preset):
        # the ground <-> antisymmetric-state transition is driven with
        # matrix element sqrt(2) Omega_0, so the negativity oscillates with
        # a period close to 2 pi hbar / (2 sqrt(2) Omega_0) ~ 1.46 ns
        trajectory = dynamics_run(preset, "photon_mode1", horizon=6000.0,
                                  samples=601)
        period = oscillation_period(trajectory.times,
                                    trajectory.observables["negativity"])
        assert 1200.0 < period < 1700.0


class TestStarkProtocol:
    def test_matches_photon_seeded_run(self, preset):
        lossy = preset.with_qd_decay(0.66)
        protocol = stark_switch_protocol(lossy, tau=9.0, initial_detuning=1500.0,
                                         horizon=1500.0, samples=301)
        photon = dynamics_run(lossy, "photon_mode1", horizon=1500.0, samples=301)
        peak_protocol = protocol.observables["negativity"].max()
        peak_photon = photon.observables["negativity"].max()
        assert abs(peak_protocol - peak_photon) / peak_photon < 0.10

    def test_detuned_segment_holds_emitter_2(self, preset):
        protocol = stark_switch_protocol(preset, tau=9.0, initial_detuning=1500.0,
                                         horizon=40.0, samples=81)
        early = protocol.times <= 9.0
        assert protocol.observables["pop_qd2"][early].max() < 0.05
        assert protocol.observables["pop_qd1"][0] > 0.999

    def test_tau_bounds(self, preset):
        with pytest.raises(DomainError):
            stark_switch_protocol(preset, tau=0.0, initial_detuning=1500.0,
                                  horizon=100.0)
        with pytest.raises(DomainError):
            stark_switch_protocol(preset, tau=100.0, initial_detuning=1500.0,
                                  horizon=100.0)

    def test_optimal_transfer_time_near_half_swap(self, preset):
        # the first protocol segment alone: the mode population peaks near
        # pi hbar / (2 g) = 9.40 ps, pulled slightly earlier by the second mode
        detuned = dark_tuned(preset).with_qd2_detuning(1500.0)
        rho0 = DensityMatrix.basis_state(detuned.space(), (1, 0, 0, 0))
        trajectory = evolve(Schedule.constant(detuned, 15.0), rho0,
                            np.linspace(0.0, 15.0, 751))
        t_opt, population = trajectory.peak("pop_m1")
        assert abs(t_opt - 9.4) < 1.0
        assert population > 0.5


def moved_drive(params):
    """``params`` with the phases and the frequency of an off-resonant drive."""
    return params.with_drive(phase1=0.3, phase2=1.1, pump_freq=-4.0)


def with_dephasing_rates(params, gamma1, gamma2):
    dots = (dataclasses.replace(params.dots[0], gamma_d=gamma1),
            dataclasses.replace(params.dots[1], gamma_d=gamma2))
    return dataclasses.replace(params, dots=dots)


def result_data(result):
    """A trajectory's samples, or a sweep's records and step counts."""
    if isinstance(result, SweepResult):
        return (result.to_records(), result.iterations.tolist(),
                result.certificate_iterations.tolist())
    return (result.times.tolist(),
            {name: series.tolist() for name, series in result.observables.items()})


# the runs that set some of their inputs themselves, as the config format's
# table of them lists these inputs: each run on small grids, the change of
# those inputs, and the change of an input that the run reads
SETS_ITS_INPUTS = {
    "dynamics_run": (lambda p: dynamics_run(p, "photon_mode1", 30.0, 4),
                     moved_drive, lambda p: p.with_drive(amplitude=2.0)),
    "stark_switch_protocol": (lambda p: stark_switch_protocol(p, 9.0, 1500.0, 20.0, 5),
                              moved_drive, lambda p: p.with_drive(amplitude=2.0)),
    "sweep_phase_detuning": (lambda p: sweep_phase_detuning(p, [2.0, 3.0], [-12.0, -10.0]),
                             moved_drive, lambda p: p.with_drive(amplitude=2.0)),
    "sweep_splitting": (lambda p: sweep_splitting(p, [1000.0, 3000.0]),
                        moved_drive, lambda p: p.with_drive(amplitude=2.0)),
    "sweep_dephasing": (lambda p: sweep_dephasing(p, [0.0, 1.0]),
                        lambda p: with_dephasing_rates(p, 0.7, 0.2),
                        lambda p: p.with_drive(amplitude=2.0)),
}


@pytest.mark.parametrize("name", SETS_ITS_INPUTS)
def test_runs_overwrite_the_inputs_they_set(preset, name):
    # the dark-state drive of the transient runs and of the phi/delta and
    # splitting axes, and the dephasing rates of the gamma_d axis: changing
    # them leaves the run's output bit-identical, so the config format does
    # not take them, while an input the run reads moves its output
    evaluate, setting, reading = SETS_ITS_INPUTS[name]
    data = result_data(evaluate(preset))
    assert result_data(evaluate(setting(preset))) == data
    assert result_data(evaluate(reading(preset))) != data


class TestOscillationPeriod:
    def test_recovers_synthetic_period(self):
        t = np.linspace(0.0, 100.0, 2001)
        series = np.sin(2 * np.pi * t / 12.5) ** 2
        assert abs(oscillation_period(t, series) - 6.25) < 0.1

    def test_rejects_flat_series(self):
        with pytest.raises(DomainError):
            oscillation_period(np.arange(10.0), np.ones(10))


class TestDefaultGrids:
    def test_shapes_and_ranges(self, preset):
        phi = default_grid("phi", preset)
        assert len(phi) == 61 and phi[0] == 0.0 and np.isclose(phi[-1], 2 * np.pi)
        assert np.pi in phi
        delta = default_grid("delta", preset)
        assert len(delta) == 121 and delta[0] == -330.0 and delta[-1] == 330.0
        detuning = default_grid("detuning", preset)
        assert len(detuning) == 101 and detuning[0] == -50.0
        gamma_d = default_grid("gamma_d", preset)
        assert len(gamma_d) == 51 and gamma_d[-1] == 5.0
        # three times the base splitting, or 6600 ueV without one
        splitting = default_grid("splitting", preset)
        assert len(splitting) == 41 and splitting[0] == 0.0 and splitting[-1] == 6600.0
        assert default_grid("splitting", preset.with_splitting(1000.0))[-1] == 3000.0
        assert default_grid("splitting", preset.with_splitting(0.0))[-1] == 6600.0

    def test_every_kind_sweeps_its_default_grids(self, preset, monkeypatch):
        # a sweep given no grid runs each axis of its kind on that axis's
        # default grid; the recorded spec is read before any point is solved
        specs = []

        def record(spec, n_workers=1):
            specs.append(spec)

        monkeypatch.setattr(pcdimer.experiments, "run_sweep", record)
        sweep_phase_detuning(preset)
        sweep_detuning(preset)
        sweep_dephasing(preset)
        sweep_splitting(preset, None)
        for spec, (names, _) in zip(specs, SWEEPS.values(), strict=True):
            assert [axis.name for axis in spec.axes] == list(names)
            for axis in spec.axes:
                assert axis.values == tuple(default_grid(axis.name, preset))

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_resonance_rule(self, preset, kind):
        # each kind requires its first n emitters resonant with the lower
        # mode: detuning QD1 fails every kind with n >= 1, detuning QD2 only
        # those with n = 2
        _, resonant = SWEEPS[kind]
        sweep = {"phase_detuning": lambda p: sweep_phase_detuning(p, [np.pi], [0.0]),
                 "qd_detuning": lambda p: sweep_detuning(p, [0.0]),
                 "dephasing": lambda p: sweep_dephasing(p, [0.0]),
                 "splitting": lambda p: sweep_splitting(p, [2200.0])}[kind]
        qd1 = dataclasses.replace(preset.dots[0], omega=25.0)
        for params, n in ((dataclasses.replace(preset, dots=(qd1, preset.dots[1])), 1),
                          (preset.with_qd2_detuning(25.0), 2)):
            if resonant >= n:
                with pytest.raises(DomainError, match="resonant"):
                    sweep(params)
            else:
                assert sweep(params).converged.all()


class TestPaperClaims:
    """The two claims of the paper that no acceptance criterion checks."""

    # the splittings, in ueV, of the distance test: from 1.5 to 120 times
    # the broad mode's linewidth (67 ueV)
    SPLITTINGS = [100.0, 200.0, 500.0, 1200.0, 2200.0, 4000.0, 8000.0]

    def test_negativity_independent_of_splitting_above_linewidths(self, preset):
        # the distance claim: N is almost independent of the interdot
        # distance as long as the normal-mode splitting exceeds the mode
        # linewidths.  At Fock cutoff 2 (converged to ~1e-6 against cutoff
        # 3) the splitting sweep gives 0.0080, 0.0223, 0.0726, 0.0970,
        # 0.1008, 0.1019, 0.1023: within 6% of N(8000 ueV) from 1200 ueV
        # (18 broad linewidths) up, and a quarter of it or less at 100 and
        # 200 ueV.  The bounds come from that table (ROADMAP.md, finding
        # F3).  The sweep drives every point with the dark-state drive, so
        # the raw preset, whose drive phase is 0, gives the same data as
        # the dark-tuned preset
        base = preset.with_truncation(2)
        raw = sweep_splitting(base, self.SPLITTINGS)
        values = raw.values
        plateau = values[-1]
        assert 0.09 < plateau < 0.11
        split = np.array(self.SPLITTINGS) >= 1200.0
        assert np.all(np.abs(values[split] / plateau - 1.0) < 0.06), values
        assert np.all(values[:2] < 0.25 * plateau), values
        tuned = sweep_splitting(dark_tuned(base), self.SPLITTINGS)
        assert tuned.to_records() == raw.to_records()

    def test_transient_negativity_beats_twice_the_steady_value(self, preset):
        # the transient claim: with one emitter starting excited, the
        # negativity transiently exceeds twice its steady value.  The
        # Stark-switch protocol is the run held to it: QD1 starts excited
        # while QD2 is detuned, the exciton swaps into the resonant mode and
        # QD2 is switched into resonance at 9 ps.  It peaks at 0.4069 near
        # 725 ps, 3.98 times the steady 0.102143 of the same dark-tuned
        # system (3.76 at Fock cutoff 2).  A free run from qd1_excited,
        # with both emitters resonant from the start, peaks at only 1.22
        # times the steady value, so the claim is not held to that run
        trajectory = stark_switch_protocol(preset, 9.0, 1500.0, 4000.0, 801)
        t_peak, peak = trajectory.peak("negativity")
        steady = qd_negativity(steady_state(build_liouvillian(dark_tuned(preset))))
        assert peak > 2.0 * steady, (t_peak, peak, steady)
        assert abs(steady - 0.102143) < 1e-6
