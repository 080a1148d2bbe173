"""``python -m outerspine.cli`` in a fresh interpreter.

``test_cli.py`` calls ``cli.main`` in-process, where the modules other
tests imported can hide a command's missing import.  Here every run starts
a new interpreter: each subcommand's own golden case (the one named after
it) must replay in its human form, and one case in the ``--json`` and the
``--csv`` form, whose renderers import on their own; ``--help`` must
import none of the package's other modules, ``iwip`` none of the LP,
sampling or diagnostics layers, and no command ``dataclasses``.  A fresh
interpreter can also run under a memory limit: far ``tau`` powers,
repeated ones too, must finish, or exit 2, in 2 GB.
"""

import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

import outerspine
from outerspine import cli, diagnostics
from record_cli_goldens import DATA, FIXTURE, FIXTURES, FORMS

with open(FIXTURE) as fh:
    GOLDENS = json.load(fh)

SRC = os.path.dirname(os.path.dirname(outerspine.__file__))
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}
COMMANDS = sorted(next(a for a in cli.build_parser()._actions if a.dest == "command").choices)


def _python(args: list[str], cwd, timeout: float = 60, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True,
        timeout=timeout, **kw,
    )


def _imported(args: list[str], cwd, rc: int = 0) -> set[str]:
    """Every module ``python -X importtime ARGS`` imports, start-up
    included; the run must exit ``rc``."""
    done = _python(["-X", "importtime", *args], cwd)
    assert done.returncode == rc, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The layout the goldens were recorded in: the bundled and the test
    inputs together under ``data/``."""
    path = tmp_path_factory.mktemp("cli")
    shutil.copytree(DATA, path / "data")
    shutil.copytree(FIXTURES, path / "data", dirs_exist_ok=True)
    return path


@pytest.mark.parametrize(
    "command, form", [(c, "human") for c in COMMANDS] + [("systole", "csv"), ("systole", "json")]
)
def test_fresh_run_matches_golden(workdir, command, form):
    golden = GOLDENS[command]
    before = set(os.listdir(workdir))
    done = _python(["-m", "outerspine.cli", *golden["argv"], *FORMS[form]], workdir)
    files = {}
    for name in sorted(set(os.listdir(workdir)) - before):
        files[name] = (workdir / name).read_text()
        (workdir / name).unlink()
    got = {"rc": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}
    assert got == golden["forms"][form]


def test_help_imports_no_other_package_module(workdir):
    bare = _imported(["-c", "pass"], workdir)
    loaded = _imported(["-m", "outerspine.cli", "--help"], workdir) - bare
    assert "outerspine" in loaded
    assert {m for m in loaded if m.startswith("outerspine.")} <= {"outerspine.cli"}
    assert loaded & {"csv", "dataclasses", "fractions", "random"} == set()


def test_iwip_imports_no_lp_sampler_or_diagnostics(workdir):
    loaded = _imported(["-m", "outerspine.cli", *GOLDENS["iwip"]["argv"], "--json"], workdir)
    layers = {m.split(".", 1)[1] for m in loaded if m.startswith("outerspine.")}
    assert layers & {"minima", "simplex", "sampling", "diagnostics", "lipschitz"} == set()


@pytest.mark.parametrize("command", ["iwip", "axis", "ball-contract", "check-contracting"])
def test_commands_import_no_dataclasses(workdir, command):
    """The package's records are named tuples and slotted classes, so no
    command loads ``dataclasses``, nor the ``inspect`` it imports."""
    golden = GOLDENS[command]
    before = set(os.listdir(workdir))
    loaded = _imported(
        ["-m", "outerspine.cli", *golden["argv"]], workdir, golden["forms"]["human"]["rc"]
    )
    for name in set(os.listdir(workdir)) - before:
        (workdir / name).unlink()
    assert loaded & {"dataclasses", "inspect"} == set()


def test_sample_error_exits_2(workdir):
    """A ``SampleError`` leaves the sampler as exit 2 with its message,
    though ``main`` imports the sampler only once one is raised."""
    argv = [
        "ball-contract", "--mu", "data/current_a.json", "--nu", "data/current_b.json",
        "--center", "data/rose_half_quarter.json", "--eps", "0.3", "--radius", "0.01",
        "--n", "4", "--budget", "5",
    ]
    done = _python(["-m", "outerspine.cli", *argv], workdir)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: only 0/4 ball samples within radius 0.01 after 360 proposals\n"


def _over_cap(workdir, case: str, flag: str, cap: int) -> subprocess.CompletedProcess:
    """The golden ``case`` with ``flag`` one past its cap, which used to
    sample for minutes or hours."""
    argv = [*GOLDENS[case]["argv"], flag, str(cap + 1)]
    done = _python(["-m", "outerspine.cli", *argv], workdir, timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    return done


def test_ball_sample_count_over_its_cap_exits_2(workdir):
    cap = diagnostics._MAX_BALL_SAMPLES
    done = _over_cap(workdir, "ball-contract", "--n", cap)
    assert done.stderr == (
        f"error: need at least one sample per ball and at most {cap}, not {cap + 1}\n"
    )


@pytest.mark.parametrize("name", sorted(diagnostics._MAX_COUNTS))
def test_contracting_sample_count_over_its_cap_exits_2(workdir, name):
    cap = diagnostics._MAX_COUNTS[name]
    done = _over_cap(workdir, "check-contracting", "--" + name.replace("_", "-"), cap)
    assert done.stderr == f"error: {name} must be at most {cap}, not {cap + 1}\n"


def _two_gigabytes():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_repeated_far_powers_fit_in_two_gigabytes(workdir):
    """A power listed many times is built once: seven entries of
    tribonacci^30 on the default grid fit in 2 GB of address space, where
    building each entry's axis ended in a ``MemoryError``."""
    argv = [
        "tau", "--mu", "data/current_a.json", "--nu", "data/current_b.json",
        "--x", "data/rose_half_quarter.json", "--c", "1", "--shift", "data/tribonacci.json",
        "--powers", "0,30,30,30,30,30,30,30", "--json",
    ]
    done = _python(["-m", "outerspine.cli", *argv], workdir, timeout=30, preexec_fn=_two_gigabytes)
    assert "Traceback" not in done.stderr
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["powers"] == [0] + [30] * 7


def test_far_powers_apart_exit_2_in_two_gigabytes(workdir):
    """tribonacci^30 measured against tribonacci^-30 on the default grid
    reads edge paths of millions of steps: the run exits 2 with the
    edge-path error past ``words.MAX_LETTERS`` steps, where it ran out of
    memory."""
    argv = [
        "tau", "--mu", "data/current_a.json", "--nu", "data/current_b.json",
        "--x", "data/rose_half_quarter.json", "--c", "1", "--shift", "data/tribonacci.json",
        "--powers=0,30,-30", "--json",
    ]
    done = _python(["-m", "outerspine.cli", *argv], workdir, timeout=60, preexec_fn=_two_gigabytes)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: edge path too long: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("powers", ["0,30", "0,36"])
def test_far_tribonacci_powers_fit_in_two_gigabytes(workdir, powers):
    """Axes translated by tribonacci^30 fit in 2 GB of address space, and
    at power 36, whose words pass ``words.MAX_LETTERS``, the run exits 2
    with the word-length error: neither ends in a ``MemoryError``."""
    argv = [
        "tau", "--mu", "data/current_a.json", "--nu", "data/current_b.json",
        "--x", "data/rose_half_quarter.json", "--c", "1", "--shift", "data/tribonacci.json",
        "--powers", powers, "--from", "-1", "--to", "1", "--step", "0.5", "--json",
    ]
    done = _python(["-m", "outerspine.cli", *argv], workdir, timeout=30, preexec_fn=_two_gigabytes)
    assert "Traceback" not in done.stderr
    if powers == "0,30":
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["powers"] == [0, 30]
    else:
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: word too long: ")
