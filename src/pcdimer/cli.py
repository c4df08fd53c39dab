"""Command-line front end: sectioned key-value configs in, CSV datasets plus
a JSON run manifest out.

Output format is frozen for reproducibility: UTF-8 CSV, LF line endings,
17 significant digits (round-trip exact for doubles), a leading comment line
binding each file to the run id, and a manifest carrying the resolved
configuration and the content hash of every output file.  Identical configs
produce byte-identical CSVs.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import ConfigError, DomainError, SolverError
from .model import (
    CouplingMatrix,
    DriveParams,
    ModeParams,
    PRESET_NAMES,
    QDParams,
    SystemParams,
    identify_dark_state,
    preset_params,
)
from .hilbert import hermitian_coordinates
from .liouvillian import build_liouvillian
from .solvers import (OBSERVABLES, convergence_scan, observables, scan_cutoffs,
                      steady_state)
from .experiments import (
    INITIAL_STATES,
    SWEEPS,
    default_grid,
    dynamics_run,
    stark_switch_protocol,
    sweep_dephasing,
    sweep_detuning,
    sweep_phase_detuning,
    sweep_splitting,
)

__all__ = ["RunConfig", "parse_config", "run", "main"]

COMMANDS = ("steady", "dynamics", "sweep", "protocol", "convergence")

# each kind of ``experiments.SWEEPS``: its sweep, called with the grids of
# its axes in their order; the lambdas look the sweep functions up at call
# time
_SWEEPS = {
    "phase_detuning": lambda params, grids, config: sweep_phase_detuning(
        params, *grids, n_workers=config.threads),
    "qd_detuning": lambda params, grids, config: sweep_detuning(
        params, *grids, n_workers=config.threads),
    "dephasing": lambda params, grids, config: sweep_dephasing(
        params, *grids, n_workers=config.threads),
    "splitting": lambda params, grids, config: sweep_splitting(
        params, *grids, linewidth_sets=config.linewidth_sets,
        n_workers=config.threads),
}

# the inputs that a run sets itself, by run and section, which its config
# may not set: the dark-state drive of ``experiments._dark_drive`` (dynamics
# and protocol runs, and every point of the splitting axis) and of the
# phi/delta axes, and the dephasing rates of the gamma_d axis
_DARK_DRIVE = ("phase1", "phase2", "pump_freq", "delta")
_SET_BY_RUN = {
    "dynamics run": {"drive": _DARK_DRIVE},
    "protocol run": {"drive": _DARK_DRIVE},
    "phase_detuning sweep": {"drive": _DARK_DRIVE},
    "splitting sweep": {"drive": _DARK_DRIVE},
    "dephasing sweep": {"system": ("qd1_gamma_d", "qd2_gamma_d")},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    command: str
    params: SystemParams
    preset: str | None = None
    threads: int = 1
    allow_point_failures: bool = False
    sweep_kind: str | None = None
    sweep_grids: dict | None = None
    linewidth_sets: tuple | None = None
    initial: str = "photon_mode1"
    horizon_ps: float = 4000.0
    samples: int = 801
    tau_ps: float = 9.0
    initial_detuning_uev: float = 1500.0
    cutoffs: tuple[int, ...] = (1, 2)
    observable: str = "negativity"
    output_dir: str = "."
    prefix: str | None = None

    def __post_init__(self):
        # the config format and the run id carry real couplings only
        g = self.params.coupling.as_array()
        if np.any(g.imag != 0):
            raise DomainError(
                "a run configuration takes real couplings only; got "
                + ", ".join(str(complex(x)) for x in g.ravel() if x.imag != 0)
            )

    def to_json_dict(self) -> dict:
        """Canonical resolved-physics dictionary; the run id hashes this."""
        p = self.params
        g = p.coupling.as_array()
        d = {
            "command": self.command,
            "system": {
                "mode1": dataclasses.asdict(p.modes[0]),
                "mode2": dataclasses.asdict(p.modes[1]),
                "qd1": dataclasses.asdict(p.dots[0]),
                "qd2": dataclasses.asdict(p.dots[1]),
                "coupling": [[g[m, n].real for n in range(2)] for m in range(2)],
                # a convergence scan sets every cutoff itself, from its
                # cutoffs below: its id holds the default truncation
                "truncation": 1 if self.command == "convergence" else p.truncation,
            },
            "drive": dataclasses.asdict(p.drive),
            # a constant: the dark-state drive is the only default, which
            # the resolved "drive" holds.  The key stays so that run ids keep
            # their values; it can go with the next change that moves every
            # default run id anyway (the default Fock cutoff)
            "at_dark_state": True,
        }
        if self.command == "sweep":
            d["sweep"] = {"kind": self.sweep_kind, "grids": self.sweep_grids,
                          "linewidth_sets": self.linewidth_sets}
            if self.sweep_kind == "splitting":
                # every point sets mode 2's frequency and the whole dark
                # drive, and with linewidth sets both mode linewidths: no
                # point reads the base values, which would change the id
                # and not the data
                del d["system"]["mode2"]["omega"]
                d["drive"] = {"amplitude": p.drive.amplitude}
                if self.linewidth_sets:
                    del d["system"]["mode1"]["gamma"], d["system"]["mode2"]["gamma"]
        elif self.command in _INPUTS:
            d[self.command] = {key: getattr(self, key) for key in _INPUTS[self.command]}
        return d

    def run_id(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _given(**values) -> dict:
    """The values that are not None: an absent key keeps the default that
    its dataclass field declares."""
    return {key: value for key, value in values.items() if value is not None}


def _finite(raw: str) -> float:
    """The finite float that ``raw`` spells; ``ValueError`` for anything
    else, "nan" and "inf" included."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


class _SectionReader:
    """Typed access to one config section.  It records every key it is asked
    for, present or not: those are the keys the section takes in this run.
    A key in ``withheld``, one that the run sets itself, reads as absent and
    is never recorded."""

    withheld: tuple[str, ...] = ()

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.items = dict(parser.items(name)) if parser.has_section(name) else {}
        self.asked: set[str] = set()

    def __contains__(self, key):
        if key in self.withheld:
            return False
        self.asked.add(key)
        return key in self.items

    def _get(self, key, cast, describe, default=None, minimum=None,
             choices=None):
        """The value of ``key`` by ``cast``, held to ``minimum`` or
        ``choices``; ``default`` when it is absent."""
        if key not in self:
            return default
        raw = value = self.items[key]
        try:
            value = cast(raw)
        except (TypeError, ValueError, LookupError):
            pass
        else:
            if choices is not None and value not in choices:
                describe = "one of " + ", ".join(choices)
            elif minimum is not None and value < minimum:
                describe = f">= {minimum}"
            else:
                return value
        raise ConfigError(
            f"invalid value {value!r} for [{self.name}] {key}: expected {describe}")

    def text(self, key, choices=None):
        return self._get(key, str, "text", choices=choices)

    def real(self, key, default=None, minimum=None):
        return self._get(key, _finite, "a finite real number", default, minimum)

    def integer(self, key, minimum=None):
        return self._get(key, int, "an integer", minimum=minimum)

    def flag(self, key):
        # configparser's words: true/false, yes/no, on/off, 1/0
        states = configparser.ConfigParser.BOOLEAN_STATES
        return self._get(key, lambda s: states[s.lower()], "a boolean (true/false)")

    def cutoffs(self, key):
        """Comma-separated Fock cutoffs, held to ``scan_cutoffs``."""
        raw = self.text(key)
        try:
            return None if raw is None else scan_cutoffs(raw.split(","))
        except DomainError as exc:
            raise ConfigError(f"[{self.name}] {exc}") from None


_TIME = functools.partial(_SectionReader.real, minimum=1e-9)
_SAMPLES = functools.partial(_SectionReader.integer, minimum=2)
# the own section of the dynamics, protocol and convergence commands: its
# keys in read order, each with its reader, each key the RunConfig field
# that it sets.  The run id holds these fields under the command's name
_INPUTS = {
    "dynamics": {
        "initial": functools.partial(_SectionReader.text, choices=INITIAL_STATES),
        "horizon_ps": _TIME,
        "samples": _SAMPLES,
    },
    "protocol": {
        "tau_ps": _TIME,
        "initial_detuning_uev": _SectionReader.real,
        "horizon_ps": _TIME,
        "samples": _SAMPLES,
    },
    "convergence": {
        "cutoffs": _SectionReader.cutoffs,
        "observable": functools.partial(_SectionReader.text, choices=OBSERVABLES),
    },
}


def _build_params(system: _SectionReader, drive: _SectionReader,
                  preset: str | None) -> SystemParams:
    if preset is not None:
        params = preset_params(preset)
    else:
        missing = [key for key in ("coupling_m1_qd1", "coupling_m1_qd2",
                                   "coupling_m2_qd1", "coupling_m2_qd2",
                                   "mode1_gamma", "mode1_omega",
                                   "mode2_gamma", "mode2_omega",
                                   "qd1_omega", "qd2_omega")
                   if key not in system]
        if missing:
            raise ConfigError(
                "no preset given and [system] is incomplete; missing keys: "
                + ", ".join(missing)
            )
        params = SystemParams(
            modes=tuple(
                ModeParams(system.real(f"mode{n}_omega"),
                           system.real(f"mode{n}_gamma", minimum=0.0),
                           **_given(pump=system.real(f"mode{n}_pump",
                                                     minimum=0.0)))
                for n in (1, 2)),
            dots=tuple(
                QDParams(system.real(f"qd{n}_omega"),
                         **_given(gamma=system.real(f"qd{n}_gamma", minimum=0.0),
                                  gamma_d=system.real(f"qd{n}_gamma_d",
                                                      minimum=0.0)))
                for n in (1, 2)),
            coupling=CouplingMatrix(tuple(
                tuple(system.real(f"coupling_m{m}_qd{n}") for n in (1, 2))
                for m in (1, 2))),
            drive=DriveParams(amplitude=0.0),
        )

    # with a preset, truncation is the one [system] key that is read
    truncation = system.integer("truncation", minimum=1)
    if truncation is not None:
        params = params.with_truncation(truncation)

    # the dark-state drive unless the keys give another: phase1 = pi, and
    # the drive frequency on the dark state
    if "pump_freq" in drive and "delta" in drive:
        raise ConfigError("give either [drive] pump_freq or delta, not both")
    params = params.with_drive(**_given(
        amplitude=drive.real("amplitude", minimum=0.0),
        phase1=drive.real("phase1", np.pi),
        phase2=drive.real("phase2"),
    ))
    if "pump_freq" in drive:
        params = params.with_drive(pump_freq=drive.real("pump_freq"))
    elif "delta" in drive:
        params = params.with_drive_detuning(drive.real("delta"))
    else:
        params = params.with_drive_detuning(identify_dark_state(params).detuning)
    return params


def _grid_spec(section: _SectionReader, name: str, default_grid) -> tuple:
    """The (min, max, points) of a grid, given or else the default; either
    way max must exceed min."""
    lo = section.real(f"{name}_min")
    hi = section.real(f"{name}_max")
    n = section.integer(f"{name}_points", minimum=2)
    if lo is None and hi is None and n is None:
        lo, hi, n = float(default_grid[0]), float(default_grid[-1]), len(default_grid)
    elif None in (lo, hi, n):
        raise ConfigError(
            f"[sweep] {name} grid needs all of {name}_min, {name}_max, "
            f"{name}_points"
        )
    if not hi > lo:
        raise ConfigError(f"[sweep] {name}_max must exceed {name}_min, got {lo!r} to "
                          f"{hi!r}: set {name}_min, {name}_max and {name}_points")
    return (lo, hi, n)


def _reject_unread(parser: configparser.ConfigParser,
                   readers: dict[str, _SectionReader], run_name: str):
    """Reject each present section the run never opened and each present
    key that no reader asked for."""
    for name in parser.sections():
        if name not in readers:
            raise ConfigError(
                f"unknown section [{name}] for a {run_name}; known sections: "
                + ", ".join(sorted(readers))
            )
        reader = readers[name]
        unread = sorted(reader.items.keys() - reader.asked)
        if unread:
            raise ConfigError(
                f"unknown key {unread[0]!r} in section [{name}] of a "
                f"{run_name}; known keys: {', '.join(sorted(reader.asked))}"
            )


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully resolve a sectioned key-value configuration.

    The keys read here, with ``_INPUTS``, are the only declaration of what
    each command takes: a present section the command does not open, or a
    present key that no reader asks for, is a ConfigError.  The readers
    never ask for the inputs that ``_SET_BY_RUN`` lists for the run.
    ``overrides`` maps (section, key) to the text of a value that replaces
    the config's, as the command-line flags do, so that the key's own
    reader checks it.  A bad config raises ConfigError and nothing else.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    for (name, key), value in (overrides or {}).items():
        if not parser.has_section(name):
            parser.add_section(name)
        parser.set(name, key, value)

    readers: dict[str, _SectionReader] = {}

    def section(name):
        readers[name] = _SectionReader(parser, name)
        return readers[name]

    run = section("run")
    command = run.text("command", choices=COMMANDS)
    if command is None:
        raise ConfigError(
            "missing required key [run] command; expected one of "
            + ", ".join(COMMANDS)
        )
    preset = run.text("preset", choices=PRESET_NAMES)
    run_name = f"{command} run"
    if command == "sweep":
        sweep = section("sweep")
        kind = sweep.text("kind", choices=SWEEPS)
        if kind is None:
            raise ConfigError("missing required key [sweep] kind")
        run_name = f"{kind} sweep"

    system = section("system")
    drive = section("drive")
    for name, keys in _SET_BY_RUN.get(run_name, {}).items():
        readers[name].withheld = keys
    if preset is None and not system.items:
        raise ConfigError(
            "required: either [run] preset or an explicit [system] section "
            f"(presets: {', '.join(PRESET_NAMES)})"
        )
    try:
        params = _build_params(system, drive, preset)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    output = section("output")

    kwargs = dict(
        command=command,
        params=params,
        preset=preset,
        threads=run.integer("threads", minimum=1),
        output_dir=output.text("directory"),
        prefix=output.text("prefix"),
    )

    if command == "sweep":
        kwargs["allow_point_failures"] = run.flag("allow_point_failures")
        kwargs.update(sweep_kind=kind, sweep_grids={
            name: _grid_spec(sweep, name, default_grid(name, params))
            for name in SWEEPS[kind][0]})
        raw_sets = sweep.text("linewidth_sets") if kind == "splitting" else None
        if raw_sets:
            try:
                sets = tuple(
                    tuple(_finite(x) for x in pair.split(":"))
                    for pair in raw_sets.split(",")
                )
                # the bound of [system] modeN_gamma
                if any(len(s) != 2 or min(s) < 0 for s in sets):
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    "invalid [sweep] linewidth_sets; expected g1:g2,g1:g2,... with finite g >= 0"
                ) from None
            kwargs["linewidth_sets"] = sets
    elif command in _INPUTS:
        inputs = section(command)
        kwargs.update((key, read(inputs, key)) for key, read in _INPUTS[command].items())

    _reject_unread(parser, readers, run_name)
    config = RunConfig(**_given(**kwargs))
    if command == "protocol" and not config.tau_ps < config.horizon_ps:
        raise ConfigError(
            f"[protocol] tau_ps = {config.tau_ps:g} must be less than horizon_ps "
            f"= {config.horizon_ps:g}: the switch must fall inside the run")
    return config


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _csv_body(rows) -> str:
    """The data lines of a nonempty table by one %-format over all its
    values: ints and bools print as integers, everything else with 17
    significant digits.  Each column takes the type of its first row."""
    line = ",".join("%d" if isinstance(v, (bool, int, np.bool_, np.integer))
                    else "%.17g" for v in rows[0]) + "\n"
    return (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def _write_csv(path: Path, run_id: str, columns, rows) -> str:
    text = f"# manifest={run_id}\n" + ",".join(columns) + "\n" + _csv_body(rows)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _trajectory_rows(trajectory):
    obs = trajectory.observables
    rows = tuple(zip(trajectory.times.tolist(),
                     *(series.tolist() for series in obs.values())))
    return ("t_ps",) + tuple(obs), rows


def _trajectory_diagnostics(trajectory) -> dict:
    info = trajectory.info
    return {"n_samples": int(len(trajectory.times)),
            "peak_negativity": float(trajectory.observables["negativity"].max()),
            "propagation_route": info.route,
            "propagators_built": info.propagators,
            "dense_propagators": info.dense_propagators,
            "taylor_steps": info.taylor_steps,
            "max_trace_drift": info.max_trace_drift}


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    # a monotonic clock: the wall clock can step backwards during a run
    started = time.perf_counter()
    run_id = config.run_id()
    out_dir = Path(config.output_dir)
    prefix = config.prefix or config.command
    diagnostics: dict = {}
    outputs: dict[str, str] = {}
    exit_code = 0

    def emit(name, columns, rows):
        path = out_dir / name
        outputs[name] = _write_csv(path, run_id, columns, rows)
        if not quiet:
            print(f"wrote {path}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        params = config.params

        if config.command == "steady":
            # one state through steady_state, the lookup that bench/tracing.py
            # wraps here, then back to its coordinates
            rho, info = steady_state(build_liouvillian(params), return_info=True)
            values = observables(
                rho.space, hermitian_coordinates(rho.matrix, rho.space.total_dim))
            emit(f"{prefix}.csv", tuple(values) + ("residual",),
                 [tuple(values.values()) + (info.residual,)])
            diagnostics = {"residual": info.residual,
                           "iterations": info.iterations,
                           "certificate_iterations": info.certificate_iterations,
                           "refined": info.refined}

        elif config.command == "sweep":
            grids = [np.linspace(*spec) for spec in config.sweep_grids.values()]
            result = _SWEEPS[config.sweep_kind](params, grids, config)
            columns, rows = result.to_records()
            emit(f"{prefix}_{config.sweep_kind}.csv", columns, rows)
            converged = result.converged

            def peak(values, cast):  # over the converged points; null if none
                return cast(values[converged].max()) if converged.any() else None

            diagnostics = {
                "n_points": int(result.values.size),
                "n_converged": int(converged.sum()),
                "max_residual": peak(result.residuals, float),
                "max_iterations": peak(result.iterations, int),
                "max_certificate_iterations": peak(result.certificate_iterations, int),
                "batch_points": result.batch_points,
                "point_failures": list(result.failures),
            }
            if result.failures and not config.allow_point_failures:
                print(f"{len(result.failures)} sweep points failed; first: "
                      f"{result.failures[0]}", file=sys.stderr)
                exit_code = 3

        elif config.command == "dynamics":
            trajectory = dynamics_run(params, config.initial,
                                      config.horizon_ps, config.samples)
            emit(f"{prefix}.csv", *_trajectory_rows(trajectory))
            diagnostics = _trajectory_diagnostics(trajectory)

        elif config.command == "protocol":
            trajectory = stark_switch_protocol(
                params, config.tau_ps, config.initial_detuning_uev,
                config.horizon_ps, config.samples)
            emit(f"{prefix}.csv", *_trajectory_rows(trajectory))
            diagnostics = _trajectory_diagnostics(trajectory)

        elif config.command == "convergence":
            report = convergence_scan(params, config.observable,
                                      cutoffs=config.cutoffs)
            columns = ("cutoff", config.observable, "rel_diff_prev", "converged")
            # the first cutoff has no predecessor: 0 and converged
            emit(f"{prefix}.csv", columns, list(zip(
                report.cutoffs, report.values, (0.0,) + report.relative_differences,
                (True,) + report.converged)))
            # a change from an exactly zero value is infinite; JSON has
            # no infinity, so it is written as null
            diagnostics = {"relative_differences":
                           [r if np.isfinite(r) else None
                            for r in report.relative_differences],
                           "all_converged": report.all_converged}

    except (SolverError, DomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4

    manifest = {
        "tool": "pcdimer",
        "version": __version__,
        "command": config.command,
        "preset": config.preset,
        "run_id": run_id,
        "config": config.to_json_dict(),
        "threads": config.threads,
        "wall_time_s": time.perf_counter() - started,
        "diagnostics": diagnostics,
        "outputs": outputs,
    }
    try:
        manifest_path = out_dir / f"{prefix}_manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                            allow_nan=False)
                                 + "\n", encoding="utf-8")
        if not quiet:
            print(f"wrote {manifest_path}")
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcdimer",
        description="Steady-state and transient entanglement of two emitters "
                    "coupled through the normal modes of a photonic dimer.",
    )
    parser.add_argument("--config", required=True,
                        help="path to the run configuration file")
    parser.add_argument("--output", default=None,
                        help="output directory (overrides [output] directory)")
    parser.add_argument("--truncation", default=None,
                        help="override [system] truncation, the per-mode Fock "
                             "cutoff (not for convergence)")
    parser.add_argument("--threads", default=None,
                        help="sweep worker count (overrides [run] threads)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4

    # each flag is read, and checked, as the config key it overrides
    flags = {("output", "directory"): args.output,
             ("system", "truncation"): args.truncation,
             ("run", "threads"): args.threads}
    try:
        config = parse_config(text, {key: value for key, value in flags.items()
                                     if value is not None})
        if args.truncation is not None and config.command == "convergence":
            raise ConfigError("--truncation does not act on a convergence run, "
                              "whose [convergence] cutoffs set the Fock cutoffs")
        if args.threads is not None and config.command != "sweep":
            raise ConfigError(f"--threads acts on sweep runs only, not on a "
                              f"{config.command} run")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
