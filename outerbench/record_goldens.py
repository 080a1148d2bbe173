"""Record the expected outputs in goldens.json.

    python3 outerbench/record_goldens.py

Run from a checkout whose program is trusted.  Generates the inputs, then
runs every workload once per seed 0-15 (once in all for a workload that
takes no seed) and records the sha256 of each generated input and of each
call's ``--json`` stdout.  A call whose exit code differs from the one
``spec.WORKLOADS`` expects, or that prints a traceback, stops the recording.
"""

import json
import sys
import time

import run
import spec

SEEDS = range(16)


def main() -> int:
    far = time.perf_counter() + 3600
    made = run.run_child([sys.executable, str(run.HERE / "make_inputs.py")], far)
    if made.rc != 0:
        print("make_inputs failed", file=sys.stderr)
        return 1
    goldens = {
        "inputs": {rel: run.file_sha256(run.ROOT / rel) for rel in (spec.MU, spec.NU, spec.CENTER)},
        "outputs": {},
    }
    for name, (_, rc) in spec.WORKLOADS.items():
        digests = {}
        for seed in SEEDS if run.seeded(name) else [0]:
            argv = [sys.executable, "-m", "outerspine.cli", *run.cli_argv(name, seed)]
            call = run.run_child(argv, time.perf_counter() + run.CALL_TIMEOUT_S)
            if call.rc != rc or call.traceback:
                print(f"{name} seed {seed}: exit code {call.rc}, expected {rc}", file=sys.stderr)
                return 1
            digests[run.golden_key(name, seed)] = call.digest
            print(f"{name} seed {seed}: {call.wall:.2f} s {call.digest[:16]}", flush=True)
        goldens["outputs"][name] = digests
    run.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
