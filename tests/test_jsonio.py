"""JSON input files through ``cli.main``: exit codes and error lines."""

import json
import os

import pytest

from outerspine import cli

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
ROSE = os.path.join(DATA, "rose3.json")


def run(tmp_path, capsys, obj, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    rc = cli.main([str(path) if a == "INPUT" else a for a in argv])
    return rc, capsys.readouterr().err


def assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_invert_move_needs_no_partner(tmp_path, capsys):
    obj = {"format": 1, "rank": 3, "moves": [{"kind": "invert", "target": "a"}]}
    rc, err = run(tmp_path, capsys, obj, ["iwip", "--phi", "INPUT", "--k", "3"])
    assert rc == 0
    assert err == ""


def test_transpose_without_partner_exits_2(tmp_path, capsys):
    obj = {"format": 1, "rank": 3, "moves": [{"kind": "transpose", "target": "a"}]}
    rc, err = run(tmp_path, capsys, obj, ["iwip", "--phi", "INPUT", "--k", "3"])
    assert rc == 2
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["systole", "--graph", "INPUT"],
        ["iwip", "--phi", "INPUT", "--k", "3"],
        ["pair", "--tree", ROSE, "--current", "INPUT"],
    ],
    ids=["graph", "automorphism", "current"],
)
def test_top_level_array_exits_2(tmp_path, capsys, argv):
    rc, err = run(tmp_path, capsys, [1, 2], argv)
    assert rc == 2
    assert_one_error_line(err)
