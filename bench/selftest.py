"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

Runs every workload once, untraced and traced, with the smallest configs and
checks that no op fails and that every per-layer metric is reported.  Then
corrupts copies of a steady-state and a trajectory output (the benchmark's
own data, never the program) and checks that the oracle flags each one.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench_run

ROOT = Path(__file__).resolve().parent.parent


def _corrupt(data: bytes, column: str, delta: float) -> bytes:
    """Copy of a CSV with ``delta`` added to the first row of one column."""
    lines = data.decode("utf-8").splitlines()
    k = lines[1].split(",").index(column)
    row = lines[2].split(",")
    row[k] = repr(float(row[k]) + delta)
    lines[2] = ",".join(row)
    return ("\n".join(lines) + "\n").encode("utf-8")


def main() -> int:
    bench_run.prepare_imports()
    from oracle import Oracle

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    benches = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result, record, bench, _ = bench_run.measure(
                workload, seed=1, seconds=0.0, trace=trace, small=True, probes=1)
            if result["failed"] or not result["correct"] or record["failed_frac"]:
                problems.append(f"{workload} trace={trace}: {record['failures']}")
            if set(result["metrics"]) != names:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ names)} mismatch")
            benches[workload] = bench

    for workload, column in (("map", "negativity"), ("cutoff_scan", "negativity"),
                             ("dynamics", "pop_m1")):
        bench = benches[workload]
        cfg = bench.parsed[0]
        bad = _corrupt(bench.first_output[0], column, 1e-3)
        if not Oracle().check(0, cfg, bad):
            problems.append(f"{workload}: oracle accepted a corrupted {column}")

    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
