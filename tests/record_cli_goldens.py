"""Record ``cli_goldens.json``: what every ``outerspine`` subcommand prints.

Each case runs ``cli.main`` in-process three times, once per output form:
plain (human lines), ``--csv out.csv`` and ``--json``.  The working
directory is a fresh temporary directory holding a copy of the bundled
``data/*.json`` and of ``tests/data/*.json`` as ``data/``, so the input
paths in ``config.inputs`` and the files a run writes (``--csv``, ``--out``,
``--points-dir``) have the same names on every machine.  Per form the fixture keeps the exit code,
stdout, stderr and every file the run wrote, by name.

``tests/test_cli.py`` replays the fixture exactly.  Re-record only for a
change that is meant to alter CLI output, and say which cases moved and why
in CHANGES.md:

    PYTHONPATH=src python tests/record_cli_goldens.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

from outerspine import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "cli_goldens.json")
DATA = os.path.join(os.path.dirname(cli.__file__), "data")
# the k=6 iwip pair of tribonacci.json and the k=14 pair of rank4.json, as
# ``iwip --k 6`` and ``iwip --k 14`` compute them
FIXTURES = os.path.join(os.path.dirname(__file__), "data")

FORMS = {"human": [], "csv": ["--csv", "out.csv"], "json": ["--json"]}

_MU_NU = ["--mu", "data/current_a.json", "--nu", "data/current_b.json"]
_ROSE = "data/rose3.json"
_TREE = "data/rose_half_quarter.json"
_PHI = "data/tribonacci.json"
_IWIP6 = ["--mu", "data/mu6.json", "--nu", "data/nu6.json"]
# a -> b, b -> c, c -> d, d -> a d: growth rate the real root of x^4 - x^3 - 1
_RANK4 = "data/rank4.json"
_IWIP14 = ["--mu", "data/mu14.json", "--nu", "data/nu14.json"]

# name -> argv without the output-form flags; small sizes keep the replay fast
CASES = {
    "translen": ["translen", "--graph", _TREE, "--word", "a b c'"],
    "translen-bad-word": ["translen", "--graph", _TREE, "--word", "a d"],
    "systole": ["systole", "--graph", _TREE, "--witness"],
    "candidates": ["candidates", "--graph", _TREE],
    "dist": ["dist", "--from", _ROSE, "--to", _TREE, "--witness"],
    "dist-sym": ["dist", "--from", _ROSE, "--to", _TREE, "--sym", "--witness"],
    "pair": ["pair", "--tree", _TREE, "--current", "data/current_a.json"],
    "iwip": ["iwip", "--phi", _PHI, "--k", "6", "--base", _TREE],
    "min": ["min", *_MU_NU, "--s", "0.5", "--start", _TREE, "--out", "min.json"],
    # the descent ends on zero-length edges and collapses them
    "min-final-collapse": ["min", *_IWIP6, "--s", "-1"],
    # the final topology's optimal face is more than one vertex
    "min-tied-optimum": ["min", *_IWIP6, "--s", "-2"],
    "axis": ["axis", *_MU_NU, "--from", "-1", "--to", "1", "--step", "0.5", "--points-dir", "."],
    "project": ["project", "--tree", _TREE, *_MU_NU, "--out", "proj.json"],
    "check-minisline": ["check-minisline", *_MU_NU, "--b", "500", "--s-list", "1"],
    "check-minisline-fail": ["check-minisline", *_MU_NU, "--b", "2", "--s-list", "1,2"],
    "check-contracting": [
        "check-contracting", *_MU_NU, "--s-max", "0.5", "--n-far", "1", "--n-sigma", "1",
        "--n-balanced", "1", "--b", "4", "--shift", _PHI, "--budget", "20",
    ],
    # b fitted on the same axis the clauses check: fit-scale 2 times 2.718...
    "check-contracting-fit": [
        "check-contracting", *_MU_NU, "--s-max", "0.5", "--n-far", "1", "--n-sigma", "1",
        "--n-balanced", "1", "--budget", "20",
    ],
    # the benchmark's contract-desk call without --b: the paper's check at
    # its fitted constant, on the k=6 iwip pair
    "check-contracting-fitted": [
        "check-contracting", *_IWIP6, "--seed", "1", "--s-max", "1", "--step", "0.5",
        "--n-far", "3", "--n-sigma", "4", "--n-balanced", "1", "--shift", _PHI,
    ],
    "ball-contract": ["ball-contract", *_MU_NU, "--center", _TREE, "--n", "2", "--radii", "0.5,1", "--budget", "5"],
    "ball-contract-one-radius": ["ball-contract", *_MU_NU, "--center", _TREE, "--eps", "0.1", "--n", "1", "--radius", "0.5", "--budget", "5"],
    "ball-contract-negative-radius": ["ball-contract", *_MU_NU, "--center", _TREE, "--radii", "1,-1"],
    "tau": [
        "tau", *_MU_NU, "--x", _TREE, "--c", "1", "--shift", _PHI, "--powers", "0,1,2",
        "--from", "-1", "--to", "1", "--step", "0.5", "--check-ultrametric",
    ],
    "tau-one-power": ["tau", *_MU_NU, "--x", _TREE, "--c", "1", "--powers", "0"],
    # 24 tribonacci powers: transform builds translates with long markings
    "tau-power24": [
        "tau", *_MU_NU, "--x", _TREE, "--c", "1", "--shift", _PHI, "--powers", "0,24",
        "--from", "-1", "--to", "1", "--step", "0.5",
    ],
    "iwip-rank4": ["iwip", "--phi", _RANK4, "--k", "14"],
    # a local minimum, six topologies in, well inside the default cap
    "min-rank4-budget": ["min", *_IWIP14, "--s", "1"],
    # the cap on accepted topologies, not a local minimum, ends this descent
    "min-rank4-cap": ["min", *_IWIP14, "--s", "1", "--budget", "3"],
    # five rank-4 descents, each warm-started from its inward neighbour
    "axis-rank4": ["axis", *_IWIP14, "--from", "-1", "--to", "1", "--step", "0.5"],
}


def run_form(argv: list[str], workdir: str) -> dict:
    """One ``cli.main(argv)`` call with ``workdir`` as the current directory:
    exit code, stdout, stderr, and the files it wrote there (then removed)."""
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(set(os.listdir(workdir)) - before):
        path = os.path.join(workdir, name)
        with open(path) as fh:
            files[name] = fh.read()
        os.remove(path)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_case(argv: list[str]) -> dict:
    """All three output forms of one case, each in the same fresh directory."""
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copytree(DATA, os.path.join(workdir, "data"))
        shutil.copytree(FIXTURES, os.path.join(workdir, "data"), dirs_exist_ok=True)
        return {form: run_form(argv + flags, workdir) for form, flags in FORMS.items()}


def cli_goldens() -> dict:
    return {name: {"argv": argv, "forms": run_case(argv)} for name, argv in CASES.items()}


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(cli_goldens(), fh, indent=1, sort_keys=True)
        fh.write("\n")
