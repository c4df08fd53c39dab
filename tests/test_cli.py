import ast
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcdimer
import pcdimer.cli
from pcdimer.cli import main, parse_config, run
from pcdimer.exceptions import (
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
)
from pcdimer.model import (
    CouplingMatrix,
    DriveParams,
    ModeParams,
    QDParams,
    SystemParams,
)

STEADY_PRESET = """
[run]
command = steady
preset = dimer30_dc901
"""

EXPLICIT_SYSTEM = """
[run]
command = steady

[system]
mode1_omega = 0.0
mode1_gamma = 67.0
mode2_omega = 2200.0
mode2_gamma = 37.0
qd1_omega = 0.0
qd2_omega = 0.0
coupling_m1_qd1 = 110.0
coupling_m1_qd2 = 110.0
coupling_m2_qd1 = 110.0
coupling_m2_qd2 = -110.0
truncation = 1

[drive]
amplitude = 1.0
"""

# no loss, decay or drive: the steady state is never unique; [run] comes
# last so tests can append keys to it
CLOSED_SYSTEM = """
[drive]
amplitude = 0.0
phase1 = 0.0
pump_freq = 0.0

[system]
mode1_omega = 0.0
mode1_gamma = 0.0
mode2_omega = 2200.0
mode2_gamma = 0.0
qd1_omega = 0.0
qd2_omega = 0.0
coupling_m1_qd1 = 110.0
coupling_m1_qd2 = 110.0
coupling_m2_qd1 = 110.0
coupling_m2_qd2 = -110.0

[run]
command = steady
"""

# a small run of each kind, by name: its [run] command and its own section
RUNS = {
    "steady": ("steady", ""),
    "convergence": ("convergence", "[convergence]\ncutoffs = 1,2\n"),
    "dynamics": ("dynamics", "[dynamics]\nhorizon_ps = 30.0\nsamples = 4\n"),
    "protocol": ("protocol", "[protocol]\ntau_ps = 9.0\nhorizon_ps = 20.0\nsamples = 5\n"),
    "phase_detuning": ("sweep", "[sweep]\nkind = phase_detuning\nphi_min = 2\n"
                                "phi_max = 3\nphi_points = 2\ndelta_min = -12\n"
                                "delta_max = -10\ndelta_points = 2\n"),
    "qd_detuning": ("sweep", "[sweep]\nkind = qd_detuning\ndetuning_min = -5\n"
                             "detuning_max = 5\ndetuning_points = 3\n"),
    "dephasing": ("sweep", "[sweep]\nkind = dephasing\ngamma_d_min = 0\n"
                           "gamma_d_max = 1\ngamma_d_points = 2\n"),
    "splitting": ("sweep", "[sweep]\nkind = splitting\nsplitting_min = 1000\n"
                           "splitting_max = 3000\nsplitting_points = 2\n"),
}

DRIVE_KEYS = ("amplitude", "delta", "phase1", "phase2", "pump_freq")
# a value of each key that differs from the one the run would use
VALUES = {"amplitude": "2.0", "delta": "-5.0",
          "phase1": "0.5", "phase2": "0.5", "pump_freq": "-5.0",
          "qd1_gamma_d": "0.5", "qd2_gamma_d": "0.5"}
# (run, section, key): the inputs that a run sets itself, which its config
# may not set
SET_BY_RUN = ([(run_name, "drive", key)
               for run_name in ("dynamics", "protocol", "phase_detuning", "splitting")
               for key in ("phase1", "phase2", "pump_freq", "delta")]
              + [("dephasing", "system", key) for key in ("qd1_gamma_d", "qd2_gamma_d")])
# (run, key): the [drive] keys that a run takes
TAKEN_DRIVE_KEYS = [(run_name, key) for run_name in RUNS for key in DRIVE_KEYS
                    if (run_name, "drive", key) not in SET_BY_RUN]


# the [system] keys of couplings and rates, and values at their edges
EDGE_KEYS = ("coupling_m1_qd1", "coupling_m1_qd2", "coupling_m2_qd1",
             "coupling_m2_qd2", "mode1_gamma", "mode2_gamma", "mode1_pump",
             "qd1_gamma", "qd2_gamma_d")
EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 110.0, 1e300, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def run_text(run_name, drive="", system=""):
    """The config of a small ``run_name`` run on the explicit system of the
    preset, with the line of another drive amplitude or extra lines in its
    [drive] section, and extra lines in its [system] section."""
    command, section = RUNS[run_name]
    if not drive.startswith("amplitude"):
        drive = "amplitude = 1.0\n" + drive
    return (EXPLICIT_SYSTEM.replace("command = steady", f"command = {command}")
            .replace("truncation = 1\n", "truncation = 1\n" + system)
            .replace("amplitude = 1.0\n", drive)
            + "\n" + section)


class TestParsing:
    def test_preset_resolves_reference_linewidths(self):
        config = parse_config(STEADY_PRESET)
        assert config.params.modes[0].gamma == 67.0
        assert config.params.modes[1].gamma == 37.0
        assert config.command == "steady"

    def test_dark_state_drive_applied_by_default(self):
        config = parse_config(STEADY_PRESET)
        assert np.isclose(config.params.drive.phase1, np.pi)
        params = config.params
        assert params.drive.pump_freq - params.modes[0].omega < 0.0

    def test_explicit_system_matches_preset(self):
        explicit = parse_config(EXPLICIT_SYSTEM)
        preset = parse_config(STEADY_PRESET)
        assert explicit.params == preset.params

    def test_empty_config_lists_requirements(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("")
        assert "command" in str(exc_info.value)

    def test_missing_system_keys_are_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[run]\ncommand = steady\n\n[system]\nmode1_omega = 0\n")
        assert "mode1_gamma" in str(exc_info.value)

    def test_truncation_range(self):
        bad = STEADY_PRESET + "\n[system]\ntruncation = 0\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(bad)
        assert ("invalid value 0 for [system] truncation: expected >= 1"
                in str(exc_info.value))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(STEADY_PRESET + "\n[output]\nfolder = x\n")
        assert "unknown key" in str(exc_info.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(STEADY_PRESET + "\n[plotting]\nstyle = dark\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ncommand = fly\npreset = dimer30_dc901\n")

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("command = steady\n")  # key before any section
        assert "syntax" in str(exc_info.value)

    def test_preset_and_system_are_exclusive(self):
        text = STEADY_PRESET + "\n[system]\nmode1_omega = 0.0\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_closed_system_parses_to_the_undriven_system(self):
        # phase1 = 0 and pump_freq = 0 replace the dark-state defaults (pi
        # and the dark-state frequency): the drive of DriveParams alone
        expected = SystemParams(
            modes=(ModeParams(0.0, 0.0), ModeParams(2200.0, 0.0)),
            dots=(QDParams(0.0), QDParams(0.0)),
            coupling=CouplingMatrix.bonding_antibonding(110.0),
            drive=DriveParams(amplitude=0.0))
        assert parse_config(CLOSED_SYSTEM).params == expected

    def test_explicit_drive_needs_no_dark_state(self):
        # with pump_freq given, the dark state is not looked up, so a
        # system whose couplings all vanish parses
        text = CLOSED_SYSTEM.replace("= 110.0", "= 0.0").replace("= -110.0", "= 0.0")
        params = parse_config(text).params
        assert not params.coupling.as_array().any()
        assert params.drive.pump_freq == 0.0

    @settings(max_examples=150, deadline=None)
    @given(run_name=st.sampled_from(sorted(RUNS)),
           values=st.fixed_dictionaries({key: EDGE_VALUES for key in EDGE_KEYS}))
    def test_edge_systems_raise_config_errors_only(self, run_name, values):
        # zero, negative, tiny and huge couplings and rates: a config that
        # parse_config refuses is a ConfigError, never another exception
        text = run_text(run_name)
        for key, value in values.items():
            text, found = re.subn(rf"^{key} = .*$", f"{key} = {value!r}", text,
                                  flags=re.M)
            if not found:
                text = text.replace("truncation = 1\n",
                                    f"truncation = 1\n{key} = {value!r}\n")
        try:
            with warnings.catch_warnings():
                # huge values may overflow on the way to a refused drive
                warnings.simplefilter("ignore", RuntimeWarning)
                parse_config(text)
        except ConfigError:
            pass

    def test_default_delta_grid_spans_the_lower_mode_couplings(self):
        # three times the larger lower-mode coupling, so QD1 uncoupled from
        # mode 1 still gets a range
        text = (run_text("phase_detuning").split("[sweep]")[0]
                .replace("coupling_m1_qd1 = 110.0", "coupling_m1_qd1 = 0")
                + "[sweep]\nkind = phase_detuning\n")
        assert parse_config(text).sweep_grids["delta"] == (-330.0, 330.0, 121)

    def test_empty_default_grid_is_a_config_error(self):
        # an explicit grid with max == min is refused, and so is a default
        # one: no lower-mode coupling leaves the delta grid at 0 to 0
        text = run_text("phase_detuning").split("[sweep]")[0]
        for key in ("m1_qd1", "m1_qd2"):
            text = text.replace(f"coupling_{key} = 110.0", f"coupling_{key} = 0")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text + "[sweep]\nkind = phase_detuning\n")
        message = str(exc_info.value)
        assert "[sweep] delta_max must exceed delta_min" in message
        assert all(key in message for key in ("delta_min", "delta_max", "delta_points"))

    def test_pump_freq_and_delta_are_exclusive(self):
        text = STEADY_PRESET + "\n[drive]\npump_freq = 0.0\ndelta = 0.0\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_pump_freq_alone_sets_the_drive_frequency(self):
        # an explicit drive frequency replaces the dark-state detuning; the
        # dark-state phase still applies
        config = parse_config(STEADY_PRESET + "\n[drive]\npump_freq = -7.5\n")
        assert config.params.drive.pump_freq == -7.5
        assert np.isclose(config.params.drive.phase1, np.pi)

    @pytest.mark.parametrize("text, match", [
        (STEADY_PRESET.replace("steady", "sweep")
         + "\n[sweep]\nkind = dephasing\n"
           "gamma_d_min = 1\ngamma_d_max = 1\ngamma_d_points = 3\n",
         r"\[sweep\] gamma_d_max must exceed gamma_d_min"),
        (STEADY_PRESET.replace("steady", "sweep"), r"missing required key \[sweep\] kind"),
        (STEADY_PRESET.replace("steady", "convergence") + "\n[convergence]\ncutoffs = 0,1\n",
         r"\[convergence\] cutoffs must be >= 1"),
        (EXPLICIT_SYSTEM.replace("mode2_gamma = 37.0", "mode2_gamma = -37.0"),
         r"invalid value -37.0 for \[system\] mode2_gamma: expected >= 0"),
        # a word that is no boolean: a KeyError traceback before
        (STEADY_PRESET.replace("steady", "sweep") + "allow_point_failures = maybe\n"
         + "\n[sweep]\nkind = dephasing\n",
         r"invalid value 'maybe' for \[run\] allow_point_failures: expected a boolean"),
    ], ids=["grid_max_not_above_min", "missing_sweep_kind", "cutoff_below_1",
            "negative_system_rate", "flag_not_a_boolean"])
    def test_invalid_value_is_named(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_real_coupling_run_id_is_stable(self):
        # the canonical physics dictionary, and so every real-coupling run
        # id, is part of the output contract
        expected = "f5ac10ebb8675eac7f4c84c636b0d0fa4374dcff665206be810cdd7a26bebfb7"
        assert parse_config(STEADY_PRESET).run_id() == expected
        assert parse_config(EXPLICIT_SYSTEM).run_id() == expected

    @pytest.mark.parametrize("command, section, expected", [
        ("sweep", "[sweep]\nkind = phase_detuning\n"
                  "phi_min = 0\nphi_max = 6.28\nphi_points = 5\n"
                  "delta_min = -22\ndelta_max = 0\ndelta_points = 3\n",
         "89e7c624264dff3bd01adebcdef0b7cb0c1837e3ef09047902460299a52dbfd7"),
        ("dynamics", "[dynamics]\ninitial = qd1_excited\nhorizon_ps = 500.0\n"
                     "samples = 51\n",
         "896b6c9343e10d0923dfa85a181bfc9c01ceb3d173a134ef9aa5f62bbe54cdcb"),
        ("protocol", "[protocol]\ntau_ps = 9.0\ninitial_detuning_uev = 1500.0\n"
                     "horizon_ps = 400.0\nsamples = 41\n",
         "51d811bdc59d5415d1f5e375c305c541c07280b18602ae427ed3626a3ae31351"),
        ("convergence", "[convergence]\ncutoffs = 1,2,3\nobservable = pop_m1\n",
         "3c945b5458d5d25dc31f2ae3f04983971696eda233aa29875f121c455e4231ce"),
    ], ids=["sweep", "dynamics", "protocol", "convergence"])
    def test_run_id_is_pinned(self, command, section, expected):
        # each command's section enters the canonical dictionary; a changed
        # id changes the manifest line of every CSV
        text = STEADY_PRESET.replace("steady", command) + "\n" + section
        assert parse_config(text).run_id() == expected

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    def test_convergence_run_id_ignores_truncation(self, tmp_path, capsys, truncation):
        # the scan sets every cutoff from its cutoffs, so [system] truncation
        # does not enter its id: all keep the pinned one.  --truncation would
        # not act either, and is a config error
        pinned = "3c945b5458d5d25dc31f2ae3f04983971696eda233aa29875f121c455e4231ce"
        text = (STEADY_PRESET.replace("steady", "convergence")
                + "\n[convergence]\ncutoffs = 1,2,3\nobservable = pop_m1\n")
        assert parse_config(text + f"\n[system]\ntruncation = {truncation}\n"
                            ).run_id() == pinned
        config_path = tmp_path / "run.cfg"
        config_path.write_text(text, encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--truncation", str(truncation), "--quiet"]) == 2
        assert "--truncation does not act on a convergence run" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("key", ["truncation", "seed"])
    def test_retired_run_keys_rejected(self, key):
        # the Fock cutoff is a [system] key, and every computation is
        # deterministic: [run] takes neither a truncation nor a seed
        with pytest.raises(ConfigError) as exc_info:
            parse_config(STEADY_PRESET + f"{key} = 3\n")
        message = str(exc_info.value)
        assert "unknown key" in message and "[run]" in message
        assert "known keys: command, preset, threads" in message

    def test_allow_point_failures_is_sweep_only(self):
        # only a sweep has points that may fail alone
        key = "allow_point_failures = true\n"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(STEADY_PRESET.replace("steady", "dynamics") + key)
        assert "unknown key 'allow_point_failures'" in str(exc_info.value)
        sweep = (STEADY_PRESET.replace("steady", "sweep") + key
                 + "\n[sweep]\nkind = phase_detuning\n")
        assert parse_config(sweep).allow_point_failures

    def test_complex_coupling_rejected(self):
        # the config format and the run id carry real couplings only; a
        # 110 + 30j coupling used to share the run id of 110
        config = parse_config(EXPLICIT_SYSTEM)
        g = config.params.coupling.as_array()
        g[0, 1] = 110.0 + 30.0j
        params = dataclasses.replace(config.params, coupling=CouplingMatrix(g))
        with pytest.raises(DomainError, match="real couplings"):
            dataclasses.replace(config, params=params)

    def test_grid_needs_all_three_fields(self):
        text = STEADY_PRESET.replace("steady", "sweep") + (
            "\n[sweep]\nkind = phase_detuning\nphi_min = 0\n"
        )
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_observable_lists_the_names(self):
        text = STEADY_PRESET.replace("steady", "convergence") + (
            "\n[convergence]\nobservable = foo\n")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert ("expected one of negativity, pop_qd1, pop_qd2, pop_m1, pop_m2"
                in str(exc_info.value))

    @pytest.mark.parametrize("cutoffs", ["2", "1"])
    def test_scan_needs_two_cutoffs(self, cutoffs):
        # a single cutoff leaves nothing to compare, so nothing converged
        text = STEADY_PRESET.replace("steady", "convergence") + (
            f"\n[convergence]\ncutoffs = {cutoffs}\n")
        with pytest.raises(ConfigError, match="at least two cutoffs"):
            parse_config(text)

    @pytest.mark.parametrize("cutoffs", ["2,1", "1,1", "1,3,2"])
    def test_cutoffs_must_ascend(self, cutoffs):
        text = STEADY_PRESET.replace("steady", "convergence") + (
            f"\n[convergence]\ncutoffs = {cutoffs}\n")
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_config(text)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# manifest=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def read_strict_json(path):
    """Parse JSON, rejecting the NaN and Infinity tokens JSON does not have."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestRun:
    def test_steady_outputs_and_manifest(self, tmp_path):
        config = parse_config(STEADY_PRESET + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(config, quiet=True) == 0
        comment, header, rows = read_csv(tmp_path / "steady.csv")
        assert header == ["negativity", "pop_qd1", "pop_qd2", "pop_m1",
                          "pop_m2", "residual"]
        assert len(rows) == 1
        assert 0.08 < float(rows[0][0]) < 0.12
        manifest = json.loads((tmp_path / "steady_manifest.json").read_text())
        assert manifest["run_id"] in comment
        digest = hashlib.sha256((tmp_path / "steady.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["steady.csv"] == digest
        assert manifest["version"]
        assert manifest["config"]["system"]["mode1"]["gamma"] == 67.0
        assert "seed" not in manifest

    def test_wall_time_survives_a_clock_step_back(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour at every reading during the run;
        # the manifest's duration is read from a monotonic clock
        readings = itertools.count()
        monkeypatch.setattr(pcdimer.cli, "time", types.SimpleNamespace(
            time=lambda: 1.0e9 - 3600.0 * next(readings),
            perf_counter=time.perf_counter))
        config = parse_config(STEADY_PRESET + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(config, quiet=True) == 0
        manifest = read_strict_json(tmp_path / "steady_manifest.json")
        assert manifest["wall_time_s"] >= 0.0

    def test_identical_config_gives_identical_bytes(self, tmp_path):
        dir1, dir2 = tmp_path / "a", tmp_path / "b"
        for directory in (dir1, dir2):
            config = parse_config(STEADY_PRESET
                                  + f"\n[output]\ndirectory = {directory}\n")
            assert run(config, quiet=True) == 0
        assert (dir1 / "steady.csv").read_bytes() == (dir2 / "steady.csv").read_bytes()

    def test_sweep_shape_contract(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "sweep")
                + "\n[sweep]\nkind = phase_detuning\n"
                  "phi_min = 0\nphi_max = 6.283185307179586\nphi_points = 3\n"
                  "delta_min = -22\ndelta_max = 0\ndelta_points = 5\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        assert run(config, quiet=True) == 0
        _, header, rows = read_csv(tmp_path / "sweep_phase_detuning.csv")
        assert header == ["phi_rad", "delta_ueV", "negativity", "residual",
                          "converged"]
        assert len(rows) == 15
        assert all(row[4] == "1" for row in rows)

    def test_protocol_time_series_columns(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "protocol")
                + "\n[protocol]\ntau_ps = 9.0\nhorizon_ps = 40.0\nsamples = 21\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        assert run(config, quiet=True) == 0
        _, header, rows = read_csv(tmp_path / "protocol.csv")
        assert header == ["t_ps", "negativity", "pop_qd1", "pop_qd2",
                          "pop_m1", "pop_m2"]
        assert len(rows) == 21
        assert float(rows[0][2]) > 0.999  # starts with the exciton in QD 1

    def test_dynamics_command(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "dynamics")
                + "\n[dynamics]\ninitial = photon_mode1\nhorizon_ps = 30.0\n"
                  "samples = 16\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        assert run(config, quiet=True) == 0
        _, _, rows = read_csv(tmp_path / "dynamics.csv")
        assert len(rows) == 16
        assert float(rows[0][4]) > 0.999  # photon seeded in mode 1
        diagnostics = json.loads(
            (tmp_path / "dynamics_manifest.json").read_text())["diagnostics"]
        assert diagnostics["propagation_route"] == "dense_expm"
        assert diagnostics["propagators_built"] == 1  # one uniform step
        assert diagnostics["dense_propagators"] == 1
        assert diagnostics["taylor_steps"] == 0
        assert 0.0 <= diagnostics["max_trace_drift"] < 1e-7

    def test_protocol_manifest_records_propagation(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "protocol")
                + "\n[protocol]\ntau_ps = 9.0\nhorizon_ps = 20.0\nsamples = 5\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text), quiet=True) == 0
        manifest_text = (tmp_path / "protocol_manifest.json").read_text()
        diagnostics = json.loads(manifest_text)["diagnostics"]
        assert diagnostics["propagation_route"] == "dense_expm"
        # 5 ps steps, 4 ps to the switch at 9 ps, 1 ps after it; the 5 ps
        # step after the switch is taken twice, fewer times than a dense
        # propagator pays for, so every step is one Taylor step
        assert diagnostics["propagators_built"] == 5
        assert diagnostics["dense_propagators"] == 0
        assert diagnostics["taylor_steps"] == 5
        assert 0.0 <= diagnostics["max_trace_drift"] < 1e-7
        assert "NaN" not in manifest_text and "Infinity" not in manifest_text

    def test_solver_failure_exit_code(self, tmp_path):
        # a fully closed system has no unique steady state
        config = parse_config(CLOSED_SYSTEM
                              + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(config, quiet=True) == 3

    def test_all_points_failed_manifest_is_strict_json(self, tmp_path):
        # a closed system stays degenerate at every dephasing rate, so every
        # sweep point fails and no residual exists
        text = (CLOSED_SYSTEM.replace("steady", "sweep")
                + "allow_point_failures = true\n"
                + "\n[sweep]\nkind = dephasing\n"
                  "gamma_d_min = 0\ngamma_d_max = 1\ngamma_d_points = 3\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(config, quiet=True) == 0

        diagnostics = read_strict_json(tmp_path / "sweep_manifest.json")["diagnostics"]
        assert diagnostics["n_converged"] == 0
        assert diagnostics["max_residual"] is None
        assert len(diagnostics["point_failures"]) == 3
        assert all("steady state" in f for f in diagnostics["point_failures"])
        assert diagnostics["max_iterations"] is None
        assert diagnostics["max_certificate_iterations"] is None
        assert diagnostics["batch_points"] == 64

    def test_point_failures_exit_3_and_still_write_outputs(self, tmp_path, capsys):
        # without allow_point_failures, failed points make the run exit 3
        # and say so on stderr, but the CSV and the manifest are written
        text = (CLOSED_SYSTEM.replace("steady", "sweep")
                + "\n[sweep]\nkind = dephasing\n"
                  "gamma_d_min = 0\ngamma_d_max = 1\ngamma_d_points = 3\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text), quiet=True) == 3
        assert "3 sweep points failed; first: " in capsys.readouterr().err
        _, _, rows = read_csv(tmp_path / "sweep_dephasing.csv")
        assert [row[-1] for row in rows] == ["0", "0", "0"]
        manifest = read_strict_json(tmp_path / "sweep_manifest.json")
        assert len(manifest["diagnostics"]["point_failures"]) == 3
        digest = hashlib.sha256((tmp_path / "sweep_dephasing.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["sweep_dephasing.csv"] == digest

    def test_splitting_sweep_with_linewidth_sets(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "sweep")
                + "\n[sweep]\nkind = splitting\nsplitting_min = 1000\n"
                  "splitting_max = 3000\nsplitting_points = 3\n"
                  "linewidth_sets = 67:37, 40:40\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        assert config.linewidth_sets == ((67.0, 37.0), (40.0, 40.0))
        assert run(config, quiet=True) == 0
        _, header, rows = read_csv(tmp_path / "sweep_splitting.csv")
        assert header[:3] == ["splitting_ueV", "gamma_m1_ueV", "gamma_m2_ueV"]
        assert [tuple(row[:3]) for row in rows] == [
            (s, g1, g2) for s in ("1000", "2000", "3000")
            for g1, g2 in (("67", "37"), ("40", "40"))]
        assert all(row[-1] == "1" for row in rows)

    def test_degenerate_generators_fail_quietly_and_typed(self, tmp_path,
                                                          monkeypatch, capfd):
        # the closed system and its dephasing sweep: every solve fails with
        # the typed degeneracy error, and no LAPACK message reaches stderr
        import pcdimer.cli
        import pcdimer.experiments

        failures = []

        def recording(solve):
            def wrapped(*args, **kwargs):
                try:
                    return solve(*args, **kwargs)
                except Exception as exc:
                    failures.append(exc)
                    raise
            return wrapped

        def recording_batch(solve):
            # a batch returns its members' failures instead of raising them
            def wrapped(*args, **kwargs):
                outcomes = solve(*args, **kwargs)
                failures.extend(o for o in outcomes if isinstance(o, Exception))
                return outcomes
            return wrapped

        monkeypatch.setattr(pcdimer.cli, "steady_state",
                            recording(pcdimer.cli.steady_state))
        monkeypatch.setattr(pcdimer.experiments, "steady_states",
                            recording_batch(pcdimer.experiments.steady_states))
        steady = parse_config(CLOSED_SYSTEM + f"\n[output]\ndirectory = {tmp_path}\n")
        sweep = parse_config(CLOSED_SYSTEM.replace("steady", "sweep")
                             + "allow_point_failures = true\n"
                             + "\n[sweep]\nkind = dephasing\n"
                               "gamma_d_min = 0\ngamma_d_max = 1\ngamma_d_points = 3\n"
                             + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(steady, quiet=True) == 3
        assert run(sweep, quiet=True) == 0

        assert len(failures) == 4
        for exc in failures:
            assert isinstance(exc, DegenerateSteadyStateError)
            assert exc.kernel_dimension >= 2
        err = capfd.readouterr().err
        assert "On entry to" not in err
        assert "not unique" in err

    def test_steady_manifest_records_solver_steps(self, tmp_path):
        config = parse_config(STEADY_PRESET + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(config, quiet=True) == 0
        diagnostics = read_strict_json(tmp_path / "steady_manifest.json")["diagnostics"]
        assert 1 <= diagnostics["iterations"] <= 80
        assert 1 <= diagnostics["certificate_iterations"] <= 80
        assert diagnostics["refined"] is False
        assert diagnostics["residual"] < 1e-9

    def test_sweep_manifest_records_max_iterations(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "sweep")
                + "\n[sweep]\nkind = qd_detuning\n"
                  "detuning_min = -5\ndetuning_max = 5\ndetuning_points = 3\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text), quiet=True) == 0
        diagnostics = read_strict_json(tmp_path / "sweep_manifest.json")["diagnostics"]
        assert 1 <= diagnostics["max_iterations"] <= 80
        assert 1 <= diagnostics["max_certificate_iterations"] <= 80
        assert diagnostics["batch_points"] == 64

    def test_convergence_command(self, tmp_path):
        text = (STEADY_PRESET.replace("steady", "convergence")
                + "\n[convergence]\ncutoffs = 1,2\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        config = parse_config(text)
        assert run(config, quiet=True) == 0
        _, header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["cutoff", "negativity", "rel_diff_prev", "converged"]
        assert [row[0] for row in rows] == ["1", "2"]

    def test_convergence_from_zero_manifest_is_strict_json(self, tmp_path):
        # strong drive: the negativity vanishes at cutoff 2 and returns at
        # cutoff 3, an infinite relative change
        text = (EXPLICIT_SYSTEM.replace("steady", "convergence")
                .replace("amplitude = 1.0", "amplitude = 20.0")
                .replace("qd2_omega = 0.0", "qd2_omega = 0.0\nqd1_gamma_d = 1.0\n"
                                            "qd2_gamma_d = 1.0")
                + "\n[convergence]\ncutoffs = 2,3\n"
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text), quiet=True) == 0
        _, _, rows = read_csv(tmp_path / "convergence.csv")
        assert float(rows[0][1]) == 0.0 and float(rows[1][1]) > 1e-3

        manifest = read_strict_json(tmp_path / "convergence_manifest.json")
        diagnostics = manifest["diagnostics"]
        assert diagnostics["relative_differences"] == [None]
        assert diagnostics["all_converged"] is False

    def test_seventeen_digit_precision(self, tmp_path):
        config = parse_config(STEADY_PRESET + f"\n[output]\ndirectory = {tmp_path}\n")
        run(config, quiet=True)
        _, _, rows = read_csv(tmp_path / "steady.csv")
        value = rows[0][0]
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.split(".")[-1]) >= 15  # full double precision kept


def per_value_csv(run_id, columns, rows) -> bytes:
    """The CSV bytes of the original writer, one formatting call per value."""
    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.17g}"

    lines = [f"# manifest={run_id}", ",".join(columns)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_bytes_match_per_value_formatting(tmp_path):
    from pcdimer.cli import _trajectory_rows, _write_csv
    from pcdimer.experiments import dynamics_run, sweep_dephasing
    from pcdimer.model import preset_params
    from pcdimer.solvers import convergence_scan

    params = preset_params("dimer30_dc901")
    trajectory = dynamics_run(params, "photon_mode1", 30.0, 16)
    obs = trajectory.observables
    names = ("negativity", "pop_qd1", "pop_qd2", "pop_m1", "pop_m2")
    # the original row layout: numpy scalars indexed per sample
    trajectory_rows = [(t,) + tuple(obs[name][k] for name in names)
                       for k, t in enumerate(trajectory.times)]
    report = convergence_scan(params, cutoffs=(1, 2))
    convergence_rows = [(1, report.values[0], 0.0, True),
                        (2, report.values[1], report.relative_differences[0],
                         report.converged[0]),
                        (3, float("nan"), float("inf"), np.bool_(False)),
                        (4, -0.0, 1e-300, np.True_)]
    tables = {
        "trajectory": (("t_ps",) + names, trajectory_rows),
        "sweep": sweep_dephasing(params, [0.0, 0.5, 2.0]).to_records(),
        "convergence": (("cutoff", "negativity", "rel_diff_prev", "converged"),
                        convergence_rows),
    }
    run_id = "0" * 64
    for name, (columns, rows) in tables.items():
        written = _write_csv(tmp_path / f"{name}.csv", run_id, columns, rows)
        expected = per_value_csv(run_id, columns, rows)
        assert written == hashlib.sha256(expected).hexdigest(), name
        assert (tmp_path / f"{name}.csv").read_bytes() == expected
    assert _trajectory_rows(trajectory)[1] == tuple(map(tuple, trajectory_rows))


def test_cli_import_leaves_out_scipy_integrate():
    # propagation needs no ODE integrator; importing one costs ~20 MB of
    # resident memory and ~0.3 s of start-up in every run
    code = ("import sys, pcdimer.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.integrate was imported"


def test_steady_runs_leave_out_sparse_graph_and_linalg():
    # no run loads scipy.sparse.csgraph or scipy.sparse.linalg: steady
    # states, sweeps, trajectories on both propagation routes and a
    # protocol; nor does any module of the package import the latter
    code = textwrap.dedent("""
        import pathlib
        import sys
        import pcdimer
        params = pcdimer.preset_params("dimer30_dc901")
        pcdimer.steady_state(pcdimer.build_liouvillian(params))
        assert pcdimer.sweep_detuning(params, [-5.0, 0.0, 5.0]).converged.all()
        routes = [pcdimer.dynamics_run(params.with_truncation(cutoff), "qd1_excited",
                                       20.0, samples=5).info.route
                  for cutoff in (1, 2)]
        assert routes == ["dense_expm", "taylor_action"], routes
        pcdimer.stark_switch_protocol(params, 9.0, 1500.0, 100.0, 21)
        loaded = [name for name in ("scipy.sparse.csgraph", "scipy.sparse.linalg")
                  if name in sys.modules]
        assert not loaded, loaded
        sources = pathlib.Path(pcdimer.__file__).parent.glob("*.py")
        assert not [path.name for path in sources
                    if "scipy.sparse.linalg" in path.read_text()]
    """)
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestMain:
    def test_end_to_end(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET, encoding="utf-8")
        code = main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "steady.csv").exists()

    def test_truncation_override(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET, encoding="utf-8")
        code = main(["--config", str(config_path), "--output", str(tmp_path),
                     "--truncation", "2", "--quiet"])
        assert code == 0
        manifest = json.loads((tmp_path / "steady_manifest.json").read_text())
        assert manifest["config"]["system"]["truncation"] == 2

    @pytest.mark.parametrize("run_name, threads, message", [
        ("dephasing", "2", None),
        ("dephasing", "0", "invalid --threads 0: minimum 1"),
        ("steady", "2", "--threads acts on sweep runs only, not on a steady run"),
    ], ids=["2-0", "0-2", "steady-2-2"])
    def test_threads_flag(self, tmp_path, capsys, run_name, threads, message):
        # the worker count acts on sweeps only; on any other run the flag
        # would change nothing, so it is a config error there
        config_path = tmp_path / "run.cfg"
        config_path.write_text(run_text(run_name), encoding="utf-8")
        code = main(["--config", str(config_path), "--output", str(tmp_path),
                     "--threads", threads, "--quiet"])
        if message:
            assert code == 2
            assert message in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [config_path]
        else:
            assert code == 0
            manifest = read_strict_json(tmp_path / "sweep_manifest.json")
            assert manifest["threads"] == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\ncommand = warp\n", encoding="utf-8")
        assert main(["--config", str(config_path), "--quiet"]) == 2
        # non-finite reals are config errors, not tracebacks of the solvers
        for command, section in (("dynamics", "[dynamics]\nhorizon_ps = nan\n"),
                                 ("dynamics", "[dynamics]\nhorizon_ps = inf\n"),
                                 ("steady", "[drive]\namplitude = nan\n"),
                                 ("steady", "[drive]\ndelta = nan\n")):
            config_path.write_text(STEADY_PRESET.replace("steady", command) + "\n"
                                   + section, encoding="utf-8")
            assert main(["--config", str(config_path), "--output", str(tmp_path),
                         "--quiet"]) == 2
            assert "expected a finite real number" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("run_name", ["steady", "dynamics", "protocol",
                                          "phase_detuning", "splitting"])
    def test_zero_couplings_exit_2_and_write_nothing(self, tmp_path, capsys,
                                                     run_name):
        # without pump_freq or delta (which all but the steady run withhold),
        # the drive is the dark state's, which vanishing couplings leave
        # undefined: before, a DomainError traceback and exit 1
        text = run_text(run_name)
        for key in ("m1_qd1", "m1_qd2", "m2_qd1", "m2_qd2"):
            text = re.sub(rf"^coupling_{key} = .*$", f"coupling_{key} = 0.0",
                          text, flags=re.M)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(text, encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        assert "all couplings vanish" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("command, extra, named, known", [
        # a section the command does not read
        ("steady", "[dynamics]\nbogus = 1\n", "section [dynamics]",
         "known sections: drive, output, run, system"),
        # another sweep kind's grid key
        ("sweep", "[sweep]\nkind = dephasing\nphi_min = 0\n", "'phi_min'",
         "known keys: gamma_d_max, gamma_d_min, gamma_d_points, kind"),
        # linewidth_sets belongs to the splitting sweep only
        ("sweep", "[sweep]\nkind = qd_detuning\nlinewidth_sets = 67:37\n",
         "'linewidth_sets'",
         "known keys: detuning_max, detuning_min, detuning_points, kind"),
        # an unknown key in a section the command reads
        ("dynamics", "[dynamics]\nhorizon = 10\n", "'horizon'",
         "known keys: horizon_ps, initial, samples"),
    ], ids=["unread_section", "other_kind_grid_key", "linewidth_sets",
            "unknown_key"])
    def test_unread_config_is_an_error(self, tmp_path, capsys, command, extra,
                                       named, known):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET.replace("steady", command) + "\n"
                               + extra, encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        message = capsys.readouterr().err
        assert named in message and known in message
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("run_name, section, key", SET_BY_RUN,
                             ids=[f"{run_name}-{key}" for run_name, _, key in SET_BY_RUN])
    def test_inputs_a_run_sets_are_config_errors(self, tmp_path, capsys, run_name,
                                                 section, key):
        # the run overwrites them, so each would give a new run id for the
        # same data
        config_path = tmp_path / "run.cfg"
        config_path.write_text(run_text(run_name, **{section: f"{key} = {VALUES[key]}\n"}),
                               encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        message = capsys.readouterr().err
        assert f"unknown key {key!r} in section [{section}]" in message
        known = message.split("known keys: ")[1].strip().split(", ")
        withheld = {k for r, s, k in SET_BY_RUN if (r, s) == (run_name, section)}
        if section == "drive":
            assert known == [k for k in DRIVE_KEYS if k not in withheld]
        else:
            assert "qd1_omega" in known and not withheld & set(known)
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("run_name", RUNS)
    def test_at_dark_state_is_an_unknown_key(self, tmp_path, capsys, run_name):
        # the dark-state drive is the only default; another drive is set by
        # the explicit keys, at_dark_state = false by phase1 = 0.0 and
        # pump_freq = 0.0
        config_path = tmp_path / "run.cfg"
        config_path.write_text(run_text(run_name, drive="at_dark_state = false\n"),
                               encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        assert ("unknown key 'at_dark_state' in section [drive]"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("run_name, key", TAKEN_DRIVE_KEYS,
                             ids=[f"{run_name}-{key}" for run_name, key in TAKEN_DRIVE_KEYS])
    def test_drive_keys_a_run_takes_change_its_data(self, tmp_path, run_name, key):
        data = []
        for k, drive in enumerate(("", f"{key} = {VALUES[key]}\n")):
            out = tmp_path / str(k)
            config = parse_config(run_text(run_name, drive=drive)
                                  + f"\n[output]\ndirectory = {out}\n")
            assert run(config, quiet=True) == 0
            (path,) = out.glob("*.csv")
            # the header and the data, below the manifest line
            data.append(path.read_text(encoding="utf-8").split("\n", 1)[1])
        assert data[0] != data[1]

    @pytest.mark.parametrize("sets", ["nan:40", "inf:40", "-5:40", "67:37,40:-1"])
    def test_bad_linewidth_sets_are_config_errors(self, tmp_path, capsys, sets):
        # before, each passed the parser and the run failed in the solver
        # (exit code 3): a non-finite axis or a negative mode linewidth
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET.replace("steady", "sweep")
                               + f"\n[sweep]\nkind = splitting\nlinewidth_sets = {sets}\n",
                               encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        assert "invalid [sweep] linewidth_sets" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config_path]

    def test_single_cutoff_scan_is_a_config_error(self, tmp_path, capsys):
        # a scan of one cutoff compares nothing: before, it exited 0 and
        # reported converged = 1 and "all_converged": true
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET.replace("steady", "convergence")
                               + "\n[convergence]\ncutoffs = 2\n", encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        assert "at least two cutoffs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config_path]

    @pytest.mark.parametrize("keys", [
        "tau_ps = 20.0\nhorizon_ps = 10.0\n",
        "tau_ps = 10.0\nhorizon_ps = 10.0\n",
        "horizon_ps = 5.0\n",  # against the default tau_ps = 9
    ], ids=["after", "equal", "default_tau"])
    def test_protocol_switch_after_horizon_is_a_config_error(
            self, tmp_path, capsys, keys):
        # rejected at parse time, before anything is propagated or written
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET.replace("steady", "protocol")
                               + "\n[protocol]\n" + keys, encoding="utf-8")
        assert main(["--config", str(config_path), "--output", str(tmp_path),
                     "--quiet"]) == 2
        message = capsys.readouterr().err
        assert "tau_ps" in message and "horizon_ps" in message
        assert list(tmp_path.iterdir()) == [config_path]

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg"), "--quiet"]) == 4

    def test_bad_truncation_flag(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET, encoding="utf-8")
        assert main(["--config", str(config_path), "--truncation", "0",
                     "--quiet"]) == 2

    def test_seed_flag_rejected(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(STEADY_PRESET, encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["--config", str(config_path), "--output", str(tmp_path),
                  "--seed", "7", "--quiet"])
        assert exc_info.value.code == 2
        assert not (tmp_path / "steady.csv").exists()


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps each of these lookups by name; one that
    # a refactor removes fails here, not first in the benchmark self-test
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    (entries,) = [node.value.elts for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "_TARGETS" for t in node.targets)]
    assert entries
    for entry in entries:
        owner, attr = entry.elts[0], entry.elts[1].value
        dotted = ast.unparse(owner).split(".")
        assert dotted[0] == "pcdimer"
        obj = pcdimer
        for name in dotted[1:]:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr)), ast.unparse(entry)


def test_readme_names_every_command_input():
    # the README's prose of each command's section, against the keys that
    # the command reads
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        readme = f.read()
    for command, keys in pcdimer.cli._INPUTS.items():
        for key in keys:
            assert f"`{key}" in readme, (command, key)
