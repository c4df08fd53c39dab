"""Seeded workload inputs: the config text each benchmark op hands to the CLI.

Everything the program sees is generated here from the seed.  A workload is a
fixed list of configs (one "cycle"); the timed loop runs whole cycles so the
work mix of a run does not depend on how long it lasted.

Rates are drawn from ranges that keep both mode linewidths well above zero,
so every generator has a unique steady state and a failure is the program's
fault, not the input's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("map", "cutoff_scan", "dynamics")

# the CLI's default phase/detuning map: 61 phases x 121 detunings at g = 110
PHI_POINTS = 61
DELTA_POINTS = 121
COUPLING = 110.0
SPLITTING = 2200.0
# grid indices of the dark resonance: phi = pi, delta = -11 ueV (-10.95 exact)
DARK_PHI_INDEX = 30
DARK_DELTA_INDEX = 58

MAP_BLOCKS = 3
MAP_BLOCK_SHAPE = (6, 10)
SCAN_CUTOFFS = (1, 2, 3)
DYNAMICS_INITIALS = ("qd1_excited", "photon_mode1", "vacuum")
HORIZON_PS = 4000.0
SAMPLES = 801


@dataclass(frozen=True)
class Config:
    """One op's input: config text plus the op count it stands for."""

    command: str
    text: str
    prefix: str
    ops: int


def _phi(k: int) -> float:
    return 2.0 * math.pi * k / (PHI_POINTS - 1)


def _delta(k: int) -> float:
    return -3.0 * COUPLING + 6.0 * COUPLING * k / (DELTA_POINTS - 1)


def _system(rng: random.Random) -> list[str]:
    """Explicit [system] with every jump channel on at a seeded small rate."""
    lines = ["[system]",
             "mode1_omega = 0.0",
             f"mode1_gamma = {rng.uniform(45.0, 70.0)!r}",
             f"mode1_pump = {rng.uniform(0.02, 0.2)!r}",
             f"mode2_omega = {SPLITTING!r}",
             f"mode2_gamma = {rng.uniform(30.0, 45.0)!r}",
             f"mode2_pump = {rng.uniform(0.02, 0.2)!r}"]
    for dot in ("qd1", "qd2"):
        lines += [f"{dot}_omega = 0.0",
                  f"{dot}_gamma = {rng.uniform(0.05, 0.5)!r}",
                  f"{dot}_gamma_d = {rng.uniform(0.05, 0.5)!r}"]
    lines += [f"coupling_m1_qd1 = {COUPLING!r}",
              f"coupling_m1_qd2 = {COUPLING!r}",
              f"coupling_m2_qd1 = {COUPLING!r}",
              f"coupling_m2_qd2 = {-COUPLING!r}",
              "truncation = 1",
              "",
              "[drive]",
              "amplitude = 1.0"]
    return lines


def _text(command: str, rng: random.Random, body: list[str], out_dir: str,
          prefix: str) -> str:
    lines = ["[run]", f"command = {command}", "threads = 1", ""]
    lines += _system(rng) + [""] + body + [""]
    lines += ["[output]", f"directory = {out_dir}", f"prefix = {prefix}"]
    return "\n".join(lines) + "\n"


def _map(rng, out_dir, small):
    n_phi, n_delta = (2, 3) if small else MAP_BLOCK_SHAPE
    configs = []
    for k in range(1 if small else MAP_BLOCKS):
        if k == 0:  # the first block always holds the dark resonance
            i0 = DARK_PHI_INDEX - rng.randrange(n_phi)
            j0 = DARK_DELTA_INDEX - rng.randrange(n_delta)
        else:
            i0 = rng.randrange(PHI_POINTS - n_phi + 1)
            j0 = rng.randrange(DELTA_POINTS - n_delta + 1)
        body = ["[sweep]", "kind = phase_detuning",
                f"phi_min = {_phi(i0)!r}",
                f"phi_max = {_phi(i0 + n_phi - 1)!r}",
                f"phi_points = {n_phi}",
                f"delta_min = {_delta(j0)!r}",
                f"delta_max = {_delta(j0 + n_delta - 1)!r}",
                f"delta_points = {n_delta}"]
        prefix = f"map{k}"
        configs.append(Config("sweep", _text("sweep", rng, body, out_dir, prefix),
                              prefix, n_phi * n_delta))
    return configs


def _cutoff_scan(rng, out_dir, small):
    # one seeded system per run: SuperLU fill at cutoff 3 (~4.05M) barely
    # moves with the rates, and the dense cutoff-2 reference is the costly part
    body = ["[convergence]",
            "cutoffs = " + ",".join(str(c) for c in SCAN_CUTOFFS),
            "observable = negativity"]
    return [Config("convergence", _text("convergence", rng, body, out_dir, "scan0"),
                   "scan0", 1)]


def _dynamics(rng, out_dir, small):
    horizon, samples = (400.0, 81) if small else (HORIZON_PS, SAMPLES)
    # every cycle starts from each initial state once, in seeded order, so the
    # cost mix is the same for every seed
    initials = list(DYNAMICS_INITIALS)
    rng.shuffle(initials)
    configs = []
    for k, initial in enumerate(initials[:1] if small else initials):
        body = ["[dynamics]", f"initial = {initial}",
                f"horizon_ps = {horizon!r}", f"samples = {samples}"]
        prefix = f"dyn{k}"
        configs.append(Config("dynamics",
                              _text("dynamics", rng, body, out_dir, prefix),
                              prefix, 1))
        body = ["[protocol]",
                f"tau_ps = {rng.uniform(7.0, 11.0)!r}",
                f"initial_detuning_uev = {rng.uniform(1200.0, 1800.0)!r}",
                f"horizon_ps = {horizon!r}", f"samples = {samples}"]
        prefix = f"proto{k}"
        configs.append(Config("protocol",
                              _text("protocol", rng, body, out_dir, prefix),
                              prefix, 1))
    return configs


_CYCLES = {"map": _map, "cutoff_scan": _cutoff_scan, "dynamics": _dynamics}


def make_configs(workload: str, seed: int, out_dir: str,
                 small: bool = False) -> list[Config]:
    """The workload's cycle of configs, a pure function of (workload, seed).

    ``small`` shrinks every op to its smallest meaningful size for the
    benchmark's self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _CYCLES[workload](rng, out_dir, small)
