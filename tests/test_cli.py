"""``cli.main`` in-process against ``cli_goldens.json``: for every subcommand,
the human lines, the CSV file, the ``--json`` body, stderr and the exit
code, byte for byte.  See ``record_cli_goldens.py`` for how the fixture is
recorded."""

import json
import os

import pytest

from outerspine import cli
from record_cli_goldens import CASES, DATA, FIXTURE, FORMS, run_case

with open(FIXTURE) as fh:
    GOLDENS = json.load(fh)

MU_NU = ["--mu", os.path.join(DATA, "current_a.json"), "--nu", os.path.join(DATA, "current_b.json")]
CENTER = os.path.join(DATA, "rose_half_quarter.json")
ROSE = os.path.join(DATA, "rose3.json")
TRIBONACCI = os.path.join(DATA, "tribonacci.json")
BALL = ["ball-contract", *MU_NU, "--center", CENTER, "--radii", "0.1,0.2"]


def test_goldens_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {g["argv"][0] for g in GOLDENS.values()} == set(sub.choices)
    assert {g["forms"][form]["rc"] for g in GOLDENS.values() for form in FORMS} == {0, 2, 3}


def test_goldens_record_the_current_cases():
    assert {name: g["argv"] for name, g in GOLDENS.items()} == CASES


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_matches_golden(name):
    golden = GOLDENS[name]
    got = run_case(golden["argv"])
    for form in FORMS:
        assert got[form] == golden["forms"][form], form


@pytest.mark.parametrize(
    "argv",
    [
        ["check-minisline", *MU_NU, "--b", "2", "--s-list", ""],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", "0.1,0.2", "--n", "0"],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", "0.1,0.2", "--n", "-1"],
        ["min", *MU_NU, "--eps", "-1"],
        ["min", *MU_NU, "--eps", "0"],
        ["axis", *MU_NU, "--from", "-1", "--to", "1", "--eps", "-0.05"],
        ["dist", "--from", ROSE, "--to", ROSE, "--csv", ""],
        ["axis", *MU_NU, "--from", "-1", "--to", "1", "--step", "nan"],
        ["axis", *MU_NU, "--from", "-1", "--to", "inf"],
        ["axis", *MU_NU, "--from", "0", "--to", "1e12", "--step", "1"],
        ["min", *MU_NU, "--s", "1000"],
        ["check-minisline", *MU_NU, "--b", "nan"],
        ["check-contracting", *MU_NU, "--b", "nan"],
        ["check-contracting", *MU_NU, "--fit-scale", "nan"],
        ["check-contracting", *MU_NU, "--b", "2", "--s-max", "inf"],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radius", "nan"],
        [*BALL, "--slack", "nan"],
        [*BALL, "--slack", "inf"],
        [*BALL, "--slack", "-0.5"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "nan"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "inf"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "-1"],
        ["iwip", "--phi", TRIBONACCI, "--tol", "nan"],
        ["iwip", "--phi", TRIBONACCI, "--tol", "inf"],
        ["iwip", "--phi", TRIBONACCI, "--tol", "0"],
    ],
    ids=[
        "empty-s-list",
        "no-ball-samples",
        "negative-ball-samples",
        "eps-negative",
        "eps-zero",
        "axis-eps",
        "empty-csv-path",
        "axis-nan-step",
        "axis-inf-end",
        "axis-huge-grid",
        "min-exp-overflow",
        "minisline-nan-b",
        "contracting-nan-b",
        "contracting-nan-fit-scale",
        "contracting-inf-s-max",
        "ball-nan-radius",
        "ball-nan-slack",
        "ball-inf-slack",
        "ball-negative-slack",
        "tau-nan-c",
        "tau-inf-c",
        "tau-negative-c",
        "iwip-nan-tol",
        "iwip-inf-tol",
        "iwip-zero-tol",
    ],
)
@pytest.mark.parametrize("form", ["human", "json"])
def test_vacuous_input_exits_2(capsys, argv, form):
    assert cli.main(argv + FORMS[form]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_json_and_csv_exclude_each_other(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    argv = ["dist", "--from", ROSE, "--to", CENTER, "--json", "--csv", str(csv_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[--json | --csv FILE]" in err
    assert "argument --csv: not allowed with argument --json" in err
    assert not csv_path.exists()
