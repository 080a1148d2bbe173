#!/usr/bin/env python3
"""Benchmark of the outerspine command line, one workload per run.

    python3 outerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one ``python -m outerspine.cli ... --json`` call in a
fresh child process, as a user runs the CLI in a batch: a closed loop with
one client, calls back to back until ``--seconds`` is spent.  Every call's
exit code, stderr and ``--json`` digest are checked against
``goldens.json`` (recorded for seeds 0-15), or, for a seed without a
recorded digest, against the first call of the run.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced calls with calls run under the
outside-in tracer and reports its ``per_layer`` metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Generated inputs, spans and a results log go to ``.bench_build/outerbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refkernel
import spec
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / spec.WORK
GOLDENS = HERE / "goldens.json"
HELP_STARTS = 5
CALL_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Call:
    wall: float
    rc: int
    rss_mb: float
    digest: str
    traceback: bool
    kernel: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float) -> Call:
    """Run one child to completion; wall time, exit code and its own peak RSS.

    The child is started by ``spawn.py``, a small process of its own, which
    takes the rusage of this child alone from ``os.wait4``.  RUSAGE_CHILDREN
    would be a running maximum over every child, and a child spawned from
    this process would read at least this process's peak RSS.

    ``spawn.py`` and the child run in a process group of their own, which is
    killed on every way out of here, so neither outlives this function.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    timeout = max(0.1, deadline - time.perf_counter())
    with subprocess.Popen(
        [sys.executable, "-S", str(HERE / "spawn.py"), str(out_path), str(err_path),
         f"{timeout:.3f}", *argv],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout + 30)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited {proc.returncode}: {err.strip()}")
    wall, rc, rss_kib = out.split()
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    return Call(
        wall=float(wall),
        rc=int(rc),
        rss_mb=int(rss_kib) / 1024.0,
        digest=hashlib.sha256(stdout).hexdigest(),
        traceback=TRACEBACK in stderr,
    )


def cli_argv(workload: str, seed: int) -> list[str]:
    return spec.WORKLOADS[workload][0](seed) + ["--json"]


def seeded(workload: str) -> bool:
    build = spec.WORKLOADS[workload][0]
    return build(0) != build(1)


def golden_key(workload: str, seed: int) -> str:
    return str(seed) if seeded(workload) else "*"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "outerspine").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def meta() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": source_sha256(),
    }


class Checker:
    """Counts calls whose exit code, stderr or ``--json`` digest is wrong."""

    def __init__(self, workload: str, seed: int, goldens: dict):
        self.expected_rc = spec.WORKLOADS[workload][1]
        self.golden = goldens.get("outputs", {}).get(workload, {}).get(golden_key(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: Call, what: str) -> bool:
        self.attempted += 1
        if self.golden is None:
            self.golden = call.digest
        bad = []
        if call.rc != self.expected_rc:
            bad.append(f"exit code {call.rc}, expected {self.expected_rc}")
        if call.traceback:
            bad.append("traceback on stderr")
        if call.digest != self.golden:
            bad.append(f"--json sha256 {call.digest[:16]}, expected {self.golden[:16]}")
        if bad:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(bad))
        return not bad


def make_inputs(goldens: dict, deadline: float) -> list[str]:
    """Generate the inputs, unless files with the recorded digests are there."""
    recorded = goldens.get("inputs", {})

    def stale() -> list[str]:
        return [
            rel for rel, sha in recorded.items()
            if not (ROOT / rel).is_file() or file_sha256(ROOT / rel) != sha
        ]

    if recorded and not stale():
        return []
    made = run_child([sys.executable, str(HERE / "make_inputs.py")], deadline)
    problems = [] if made.rc == 0 and not made.traceback else [f"make_inputs exited {made.rc}"]
    return problems + [f"generated input {rel} differs from its recorded digest" for rel in stale()]


def help_start(deadline: float, starts: list[float], problems: list[str]) -> None:
    """Time one fresh ``python -m outerspine.cli --help``: import plus parser build."""
    c = run_child([sys.executable, "-m", "outerspine.cli", "--help"], deadline)
    if c.rc != 0 or c.traceback:
        problems.append(f"--help exited {c.rc}")
    starts.append(c.wall)


def keep_going(now: float, t_end: float, iterations: list[float]) -> bool:
    """Start another call only if one of the median length so far still fits."""
    return now + statistics.median(iterations) <= t_end


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name: str, unit: str, values: list[float], what: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<12} {med:12.6g} {unit:<6} median of {len(values)} {what} (p25 {q1:.6g}, p75 {q3:.6g})"


def measure(workload: str, seed: int, seconds: float, checker: Checker, deadline: float):
    """Calls back to back; a ``--help`` start before each spreads setup_s samples over the run."""
    argv = [sys.executable, "-m", "outerspine.cli", *cli_argv(workload, seed)]
    calls: list[Call] = []
    starts: list[float] = []
    for _ in range(HELP_STARTS):
        help_start(deadline, starts, checker.problems)
    iterations: list[float] = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        help_start(deadline, starts, checker.problems)
        with refkernel.During() as during:
            call = run_child(argv, min(deadline, time.perf_counter() + CALL_TIMEOUT_S))
        call.kernel = during.mean()
        checker.check(call, f"call {len(calls)}")
        calls.append(call)
        now = time.perf_counter()
        iterations.append(now - t0)
        if not keep_going(now, t_end, iterations):
            return calls, starts


def measure_traced(
    workload: str, seed: int, seconds: float, checker: Checker, deadline: float, names: list[str]
):
    """Pairs of one untraced and one traced call; per-layer metrics per pair."""
    base = cli_argv(workload, seed)
    plain_argv = [sys.executable, "-m", "outerspine.cli", *base]
    trace_path = WORK / f"trace-{workload}.json"
    plain_walls, traced_walls, per_call = [], [], []
    iterations: list[float] = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        i = len(per_call)
        plain = run_child(plain_argv, min(deadline, t0 + CALL_TIMEOUT_S))
        checker.check(plain, f"untraced call {i}")
        traced_argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), str(i), *base]
        trace_path.unlink(missing_ok=True)
        traced = run_child(traced_argv, min(deadline, time.perf_counter() + CALL_TIMEOUT_S))
        # the first call of a run sets the digest when none is recorded, so a
        # traced output that differs from the untraced one fails here
        checker.check(traced, f"traced call {i}")
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        if trace_path.is_file() and traced.rc == checker.expected_rc:
            per_call.append(layer_metrics(json.loads(trace_path.read_text()), names))
        now = time.perf_counter()
        iterations.append(now - t0)
        if not keep_going(now, t_end, iterations):
            return plain_walls, traced_walls, per_call


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills what it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "outerspine" / "cli.py").is_file():
        print(f"error: no outerspine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    bench = spec.benchmark()
    goldens = json.loads(GOLDENS.read_text())
    checker = Checker(args.workload, args.seed, goldens)
    setup_problems = make_inputs(goldens, deadline)
    info = meta()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"closed loop, one client, {args.seconds:g} s")
    print("meta " + json.dumps(info, sort_keys=True))

    if args.trace == 0:
        calls, starts = measure(args.workload, args.seed, args.seconds, checker, deadline)
        walls = [c.wall for c in calls]
        rels = [c.wall / c.kernel for c in calls]
        rss = [c.rss_mb for c in calls]
        # host speed drifts over minutes and swings within seconds; the
        # reference kernel, run beside each call, cancels most of both
        # (README.md).  setup_s is scaled to a host on which the kernel
        # takes refkernel.NOMINAL_S.
        speed = refkernel.NOMINAL_S / statistics.median(c.kernel for c in calls)
        scaled_starts = [t * speed for t in starts]
        measured = {
            "wall_s": statistics.median(walls),
            "wall_rel": statistics.median(rels),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(scaled_starts),
        }
        print(describe("wall_s", "s", walls, "calls"))
        print(describe("wall_rel", "ratio", rels, "calls, wall / reference kernel beside it"))
        print(describe("peak_rss_mb", "MB", rss, "calls"))
        print(f"{'fail_ratio':<12} {checker.failed / checker.attempted:12.6g} {'ratio':<6} "
              f"{checker.failed} of {checker.attempted} calls")
        print(describe("setup_wall_s", "s", starts, "fresh --help starts"))
        print(describe("setup_s", "s", scaled_starts, f"--help starts scaled by {speed:.4f}"))
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: measured[name] for name in units}
        samples = {"wall_s": walls, "wall_rel": rels, "peak_rss_mb": rss,
                   "setup_wall_s": starts, "setup_s": scaled_starts,
                   "kernel_s": [c.kernel for c in calls]}
    else:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        names = [n for n in units if n != "trace.overhead"]
        plain_walls, traced_walls, per_call = measure_traced(
            args.workload, args.seed, args.seconds, checker, deadline, names
        )
        values = {}
        for name in names:
            seen = [m[name] for m in per_call]
            if not seen:
                continue
            if units[name] == "s":
                values[name] = statistics.median(seen)
            else:
                if len(set(seen)) > 1:
                    checker.failed += 1
                    checker.problems.append(f"{name} differs between traced calls: {seen}")
                values[name] = seen[0]
        values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
        for name, value in values.items():
            print(f"{name:<40} {value:14.6g} {units[name]}")
        print(f"traced calls {len(traced_walls)}, untraced calls {len(plain_walls)}, "
              f"{checker.failed} of {checker.attempted} calls failed")
        samples = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}

    problems = setup_problems + checker.problems
    for p in problems:
        print("FAIL " + p)
    correct = not problems and len(values) == len(units)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    with open(WORK / "results.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                              "meta": info, "samples": samples, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
