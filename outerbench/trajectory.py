"""Run every workload on several seeds and record one trajectory point.

    python3 outerbench/trajectory.py --seeds 1-10 --out outerbench/trajectory/NAME.json

For each workload, runs ``run.py --trace 0`` once per seed, then
``run.py --trace 1`` once on the first seed.  For each end-to-end metric it
reports the median and quartiles of the per-run values and their spread,
(q3 - q1) / median with ``statistics.quantiles(values, n=4)``, beside the
metric's bound.  Runs one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = next(json.loads(x[5:]) for x in lines if x.startswith("meta "))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    spec_json = spec.benchmark()
    seconds = spec_json["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec_json["end_to_end"]}
    point: dict = {"seconds": seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for workload in spec.WORKLOADS:
        runs = [bench(workload, s, seconds, 0) for s in point["seeds"]]
        point.setdefault("meta", runs[0]["meta"])
        summary = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": runs[0]["metrics"][name]["unit"], "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{workload:<14} {name:<12} median {med:10.5g}  spread {spread:6.3f}  "
                  f"bound {bound:4.2f}  {flag}", flush=True)
        traced = bench(workload, point["seeds"][0], seconds, 1)
        summary["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["traced_correct"] = traced["correct"]
        point["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
