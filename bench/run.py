"""pcdimer benchmark: seeded workloads driven through the CLI entry point.

    python3 bench/run.py --workload {map,cutoff_scan,dynamics} --seed N \
        --seconds S --trace {0,1}

Each op is ``pcdimer.cli.run(pcdimer.cli.parse_config(text))`` on config
text generated from the seed (``workloads.py``), in one process with
``threads = 1`` and the BLAS pools at one thread unless the environment says
otherwise.  The loop runs whole cycles of the workload's configs until
``--seconds`` have passed.  Afterwards, outside the timed region, every
output is checked against an independent reference (``oracle.py``); an op
fails on a nonzero exit code, an unconverged point, an output that differs
between repeats of the same config, or a reference mismatch.

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json ``end_to_end``):
``setup_s`` is the median over fresh interpreters of import + config
generation + first-call cache fill; ``ops_per_s`` and ``op_s_p50`` come from
the wall time of each CLI call; ``peak_rss_mb`` is read before the oracle
runs.  ``--trace 1`` alternates untraced and traced ops and reports per-op
call counts and self times of each module's public functions
(``tracing.py``), plus the traced/untraced wall ratio minus one.

The last stdout line is the result object; the line before it is a record
of the seed, run ids, environment, sample counts and a physics summary,
also written with the spans to ``.bench_out/`` in the checkout.  Without
``src/pcdimer`` next to this directory the script exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# span names reported as <name>.calls and <name>.self_s, per op
LAYER_SPANS = ("cli.run", "cli.parse_config", "solvers.convergence_scan",
               "solvers.steady_state", "solvers.evolve", "liouvillian.build",
               "model.hamiltonian", "model.dark_state",
               "entanglement.qd_negativity", "hilbert.density_matrix",
               "hilbert.partial_trace")


def prepare_imports():
    """Make ``import pcdimer`` resolve to this checkout's sources only."""
    if not (SRC / "pcdimer" / "__init__.py").is_file():
        sys.exit(f"pcdimer sources not found under {SRC}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, small: bool = False):
    """Import the stack, generate the configs and fill first-call caches."""
    import pcdimer.cli
    from pcdimer.solvers import OBSERVABLES

    configs = make_configs(workload, seed, str(OUT / workload), small)
    parsed = [pcdimer.cli.parse_config(c.text) for c in configs]
    spaces = {}
    for cfg in parsed:
        cutoffs = cfg.cutoffs if cfg.command == "convergence" else (cfg.params.truncation,)
        for cutoff in cutoffs:
            params = cfg.params.with_truncation(cutoff)
            spaces.setdefault(params.space(), params)
    # one generator and one population per Fock space fills the per-space
    # operator caches the timed ops would otherwise fill on first use
    for space, params in spaces.items():
        pcdimer.build_liouvillian(params)
        OBSERVABLES["pop_m1"](params, pcdimer.DensityMatrix.basis_state(space, (0, 0, 0, 0)))
    return configs, parsed


class Bench:
    """One workload's ops, their wall times and their outputs."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        self.configs, self.parsed = setup(workload, seed, small)
        self.out_dir = OUT / workload
        self.first_output: dict[int, bytes] = {}
        self.calls: list[tuple[int, float, list[str]]] = []  # (config, wall, faults)

    def op(self, k: int, record: bool = True) -> float:
        """Run config k through the CLI; returns the call's wall time."""
        import pcdimer.cli

        config = self.configs[k]
        start = time.perf_counter()
        try:
            code = pcdimer.cli.run(pcdimer.cli.parse_config(config.text), quiet=True)
        except Exception as exc:  # a crash fails the op; keep measuring
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if record:
            faults = []
            if code != 0:
                faults = [f"{config.prefix}: exit {code}"] * config.ops
            else:
                suffix = "_phase_detuning" if config.command == "sweep" else ""
                data = (self.out_dir / f"{config.prefix}{suffix}.csv").read_bytes()
                first = self.first_output.setdefault(k, data)
                if data != first:
                    faults = [f"{config.prefix}: output differs between repeats"] * config.ops
            self.calls.append((k, wall, faults))
        return wall

    def bytes_written(self, k: int) -> int:
        prefix = self.configs[k].prefix
        return sum(p.stat().st_size for p in self.out_dir.glob(f"{prefix}*"))

    def verify(self) -> list[str]:
        """Oracle check of every recorded call; one message per failed op."""
        from oracle import Oracle

        oracle = Oracle()
        mismatches = {}
        for k, data in self.first_output.items():
            try:
                mismatches[k] = oracle.check(k, self.parsed[k], data)
            except Exception as exc:  # the reference itself failed
                mismatches[k] = [f"oracle error: {type(exc).__name__}: {exc}"] \
                    * self.configs[k].ops
        failures = []
        for k, _, faults in self.calls:
            failures += faults or [f"{self.configs[k].prefix}: {m}"
                                   for m in mismatches.get(k, [])]
        return failures

    def summary(self) -> dict:
        """Physics of the first output of each config, recorded unscored."""
        from oracle import read_csv

        out = {}
        for k, data in sorted(self.first_output.items()):
            cols = read_csv(data)
            prefix = self.configs[k].prefix
            if "phi_rad" in cols:
                i = int(cols["negativity"].argmax())
                out[prefix] = {"max_negativity": float(cols["negativity"][i]),
                               "phi_rad": float(cols["phi_rad"][i]),
                               "delta_ueV": float(cols["delta_ueV"][i])}
            elif "cutoff" in cols:
                out[prefix] = {str(int(c)): float(v) for c, v
                               in zip(cols["cutoff"], cols["negativity"])}
            else:
                out[prefix] = {
                    f"peak_{name}": [float(cols["t_ps"][cols[name].argmax()]),
                                     float(cols[name].max())]
                    for name in ("negativity", "pop_qd1", "pop_m1")}
        return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "cpu_count": os.cpu_count(),
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")}}


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of fresh interpreters running ``setup`` and exiting."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, probes: int = SETUP_PROBES):
    """Run one benchmark measurement; returns (result, record, bench, spans)."""
    from tracing import Tracer

    probe_s = [] if trace else setup_probes(workload, seed, probes)
    bench = Bench(workload, seed, small)
    bench.op(0, record=False)  # warm lazy imports and first-call paths

    tracer = Tracer()
    traced_ops = 0
    traced_wall = untraced_wall = 0.0
    bytes_written = 0
    start = time.perf_counter()
    while True:
        for k, config in enumerate(bench.configs):
            untraced_wall += bench.op(k)
            if trace:
                with tracer.installed():
                    traced_wall += bench.op(k)
                traced_ops += config.ops
                bytes_written += bench.bytes_written(k)
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = bench.verify()
    walls = [wall for _, wall, _ in bench.calls]
    attempted = sum(bench.configs[k].ops for k, _, _ in bench.calls)

    if trace:
        per_op = max(traced_ops, 1)
        times = tracer.self_times()
        metrics = {}
        for name in LAYER_SPANS:
            calls, self_s = times.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = _metric(calls / per_op, "count/op")
            metrics[f"{name}.self_s"] = _metric(self_s / per_op, "s/op")
        exp = [v for name, v in times.items() if name.startswith("experiments.")]
        metrics["experiments.calls"] = _metric(sum(c for c, _ in exp) / per_op, "count/op")
        metrics["experiments.self_s"] = _metric(sum(s for _, s in exp) / per_op, "s/op")
        builds = times.get("liouvillian.build", (0, 0.0))[0]
        solves = times.get("solvers.steady_state", (0, 0.0))[0]
        metrics["liouvillian.nnz"] = _metric(
            tracer.counters["liouvillian.nnz"] / builds if builds else 0.0, "count")
        metrics["solvers.steady_state.refined_frac"] = _metric(
            tracer.counters["solvers.steady_state.refined"] / solves if solves else 0.0,
            "ratio")
        metrics["cli.bytes_written"] = _metric(bytes_written / per_op, "B/op")
        metrics["trace_overhead_frac"] = _metric(traced_wall / untraced_wall - 1.0,
                                                 "ratio")
    else:
        metrics = {
            "ops_per_s": _metric(attempted / sum(walls), "ops/s"),
            "op_s_p50": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(probe_s), "s"),
        }

    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "configs": [{"prefix": c.prefix, "command": c.command, "ops": c.ops,
                     "run_id": cfg.run_id()}
                    for c, cfg in zip(bench.configs, bench.parsed)],
        "environment": environment(),
        "samples": {"calls": len(walls), "ops": attempted,
                    "traced_ops": traced_ops, "setup_probes": len(probe_s)},
        "setup_probe_s": probe_s,
        "call_s": {c.prefix: [w for k, w, _ in bench.calls if k == i]
                   for i, c in enumerate(bench.configs)},
        "measured_s": time.perf_counter() - start,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "summary": bench.summary(),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, record, bench, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_imports()

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    result, record, _, spans = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record,
                                                  "result": result}, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
