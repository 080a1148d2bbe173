"""The calls each workload makes, and where its inputs live.

Metric names, units, bounds, the run length and each workload's reason are
read from ``BENCHMARK.json`` at the repository root (``benchmark()``).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ".bench_build/outerbench"
PHI = "src/outerspine/data/tribonacci.json"
MU, NU = f"{WORK}/mu6.json", f"{WORK}/nu6.json"
CENTER = f"{WORK}/center.json"
EPS = 0.05


def _iwip(seed: int) -> list[str]:
    return ["iwip", "--phi", PHI, "--seed", "a", "--k", "25"]


def _axis(seed: int) -> list[str]:
    return ["axis", "--mu", MU, "--nu", NU, "--from", "-3", "--to", "3", "--step", "0.5"]


def _ball(seed: int) -> list[str]:
    return [
        "ball-contract", "--mu", MU, "--nu", NU, "--center", CENTER,
        "--radii", "1.5", "--n", "3", "--seed", str(seed),
    ]


def _desk(seed: int) -> list[str]:
    return [
        "check-contracting", "--mu", MU, "--nu", NU, "--b", "8", "--seed", str(seed),
        "--s-max", "1", "--step", "0.5", "--n-far", "3", "--n-sigma", "4", "--n-balanced", "1",
        "--shift", PHI,
    ]


# name -> (argv builder, expected exit code).  The seed reaches the program
# only through --seed of ball-cold and contract-desk.  contract-desk passes
# b=8, below the fitted 18.2, so its clauses 1-4 fail and it exits 3 by design.
WORKLOADS = {
    "iwip-k25": (_iwip, 0),
    "axis-warm": (_axis, 0),
    "ball-cold": (_ball, 0),
    "contract-desk": (_desk, 3),
}


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
