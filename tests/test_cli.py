"""``cli.main`` in-process against ``cli_goldens.json``: for every subcommand,
the human lines, the CSV file, the ``--json`` body, stderr and the exit
code, byte for byte.  See ``record_cli_goldens.py`` for how the fixture is
recorded."""

import json
import os
import shutil

import pytest

from outerspine import cli, diagnostics, exp_combination, jsonio, minima
from outerspine.minima import _objective, _vertices
from record_cli_goldens import CASES, DATA, FIXTURE, FIXTURES, FORMS, run_case, run_form

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


def test_tau_measures_each_unordered_pair_once(tmp_path, monkeypatch):
    """Three powers make three unordered pairs; both rays of an axis start
    at one sample, so each ``overlap_tau`` call measures its pair of ray
    origins once: three ``d_sym`` calls, not six for the six ordered pairs
    or twelve for their rays."""
    calls = []
    d_sym = diagnostics.d_sym
    monkeypatch.setattr(diagnostics, "d_sym", lambda p, q: calls.append(1) or d_sym(p, q))
    shutil.copytree(DATA, tmp_path / "data")
    shutil.copytree(FIXTURES, tmp_path / "data", dirs_exist_ok=True)
    golden = GOLDENS["tau"]
    assert run_form(golden["argv"] + FORMS["json"], str(tmp_path)) == golden["forms"]["json"]
    assert len(calls) == 3


def test_tau_builds_each_distinct_power_once(tmp_path, monkeypatch):
    """A power listed three times is raised and its axis translated once,
    and ``overlap_tau`` runs once per unordered pair of distinct powers, a
    repeated power against itself included.  The output still lists every
    ordered pair of entries, and the pair (0, 2) reads as it does when
    each power is listed once."""
    translated, measured = [], []
    translate, overlap = minima.translate_axis, diagnostics.overlap_tau
    monkeypatch.setattr(
        minima, "translate_axis", lambda ax, phi: translated.append(1) or translate(ax, phi)
    )
    monkeypatch.setattr(
        diagnostics, "overlap_tau", lambda *args: measured.append(1) or overlap(*args)
    )
    argv = [
        "tau", *MU_NU, "--x", CENTER, "--c", "1", "--shift", TRIBONACCI,
        "--from", "-1", "--to", "1", "--step", "0.5", "--json", "--powers",
    ]
    got = run_form(argv + ["0,2,2,2"], str(tmp_path))
    assert got["rc"] == 0, got["stderr"]
    assert (len(translated), len(measured)) == (1, 2)
    taus = json.loads(got["stdout"])["taus"]
    powers = [0, 2, 2, 2]
    assert [(t["i"], t["j"]) for t in taus] == [
        (powers[i], powers[j]) for i in range(4) for j in range(4) if i != j
    ]
    once = json.loads(run_form(argv + ["0,2"], str(tmp_path))["stdout"])["taus"]
    assert {(t["i"], t["j"]): t["tau"] for t in taus if t["i"] != t["j"]} == {
        (t["i"], t["j"]): t["tau"] for t in once
    }


def test_tied_golden_prints_a_tie_break():
    """The ``min-tied-optimum`` point is one of several optimal vertices of
    its region, so the golden pins the lexicographic tie-break."""
    body = json.loads(GOLDENS["min-tied-optimum"]["forms"]["json"]["stdout"])
    g = jsonio.graph_from_obj(body["point"])
    mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu6.json", "nu6.json"))
    cost, _ = _objective(g, exp_combination(mu, nu, body["s"]))
    _, verts = _vertices(len(g.edges), g._topo.graph.rows, body["config"]["eps"])
    dots = [sum(c * v for c, v in zip(cost, x)) for x in verts]
    assert dots.count(min(dots)) > 1


def test_check_minisline_walks_each_distinct_s_once(capsys, monkeypatch):
    """A list that swings across the axis and repeats itself walks each
    distinct s once: one descent for x and one each for s = 1 and s = -1,
    where walking the list in turn made five.  The rows still follow the
    list."""
    calls = []
    minimize = minima.minimize

    def counted(*args):
        calls.append(args)
        return minimize(*args)

    monkeypatch.setattr(minima, "minimize", counted)
    monkeypatch.setattr(diagnostics, "minimize", counted)
    argv = ["check-minisline", *MU_NU, "--b", "500", "--s-list", "1,-1,1,-1", "--json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["s"] for row in rows] == [1, -1, 1, -1]
    assert rows[:2] == rows[2:]
    assert len(calls) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check-minisline", *MU_NU, "--b", "2", "--s-list", ""],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", "0.1,0.2", "--n", "0"],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", "0.1,0.2", "--n", "-1"],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", ""],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii", ","],
        ["min", *MU_NU, "--eps", "-1"],
        ["min", *MU_NU, "--eps", "0"],
        ["axis", *MU_NU, "--from", "-1", "--to", "1", "--eps", "-0.05"],
        ["dist", "--from", ROSE, "--to", ROSE, "--csv", ""],
        ["axis", *MU_NU, "--from", "-1", "--to", "1", "--step", "nan"],
        ["axis", *MU_NU, "--from", "-1", "--to", "inf"],
        ["axis", *MU_NU, "--from", "0", "--to", "1e12", "--step", "1"],
        ["min", *MU_NU, "--s", "1000"],
        ["check-minisline", *MU_NU, "--b", "nan"],
        ["check-minisline", *MU_NU, "--b", "2", "--s-list", "1,nan"],
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
        ["systole", "--graph", os.path.join(FIXTURES, "rank5.json")],
    ],
    ids=[
        "empty-s-list",
        "no-ball-samples",
        "negative-ball-samples",
        "empty-radii",
        "comma-radii",
        "eps-negative",
        "eps-zero",
        "axis-eps",
        "empty-csv-path",
        "axis-nan-step",
        "axis-inf-end",
        "axis-huge-grid",
        "min-exp-overflow",
        "minisline-nan-b",
        "minisline-nan-s",
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
        "graph-rank-five",
    ],
)
@pytest.mark.parametrize("form", ["human", "json"])
def test_vacuous_input_exits_2(capsys, argv, form):
    assert cli.main(argv + FORMS[form]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["iwip", "--k", "10001"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "1", "--powers", "0,10001"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "1", "--powers=0,-10001"],
    ],
    ids=["iwip-k", "tau-power", "tau-negative-power"],
)
def test_exponent_over_max_power_exits_2(tmp_path, capsys, argv):
    # a transposition's powers stay short, so only the bound stops the
    # work, which grows with the exponent
    swap = tmp_path / "swap.json"
    moves = [{"kind": "transpose", "target": "a", "by": "b"}]
    swap.write_text(json.dumps({"rank": 3, "moves": moves}))
    flag = "--phi" if argv[0] == "iwip" else "--shift"
    assert cli.main([*argv, flag, str(swap)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "10000" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, rc, read",
    [
        (
            ["check-minisline", *MU_NU, "--b", "2", "--s-list", "-1,0,1"],
            3,
            lambda body: ",".join(f"{row['s']:g}" for row in body["rows"]),
        ),
        (
            ["tau", *MU_NU, "--x", CENTER, "--c", "1", "--shift", TRIBONACCI, "--powers", "-1,0"],
            0,
            lambda body: ",".join(map(str, body["powers"])),
        ),
        (["ball-contract", *MU_NU, "--center", CENTER, "--radii", "-1,1"], 2, None),
    ],
    ids=["s-list", "powers", "radii"],
)
def test_list_option_takes_a_negative_first_entry(capsys, argv, rc, read):
    """``--opt -1,0`` runs as ``--opt=-1,0`` does, not as an unknown option."""
    assert cli.main([*argv, "--json"]) == rc
    got = capsys.readouterr()
    assert cli.main([*argv[:-2], f"{argv[-2]}={argv[-1]}", "--json"]) == rc
    assert capsys.readouterr() == got
    if read is None:
        assert got.err == "error: need nonnegative radii\n"
    else:
        assert read(json.loads(got.out)) == argv[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-minisline", *MU_NU, "--b", "2", "--s-list"],
        ["ball-contract", *MU_NU, "--center", CENTER, "--radii"],
        ["tau", *MU_NU, "--x", CENTER, "--c", "1", "--powers"],
    ],
    ids=["s-list", "radii", "powers"],
)
def test_list_over_its_cap_exits_2(capsys, argv):
    """One entry past a list's cap exits 2 naming the option, before any
    descent, ball or axis runs."""
    cap = cli._LISTS[argv[-1]]
    assert cli.main([*argv, ",".join(["0"] * (cap + 1))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {argv[-1]} takes at most {cap} entries, not {cap + 1}\n"


def test_json_and_csv_exclude_each_other(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    argv = ["dist", "--from", ROSE, "--to", CENTER, "--json", "--csv", str(csv_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[--json | --csv FILE]" in err
    assert "argument --csv: not allowed with argument --json" in err
    assert not csv_path.exists()


def _rose_with_edge_a(tmp_path, length: str) -> str:
    with open(ROSE) as fh:
        obj = json.load(fh)
    next(e for e in obj["edges"] if e["id"] == "a")["length"] = length
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["--from", "{zero}", "--to", ROSE], ["--from", ROSE, "--to", "{zero}", "--sym"]],
    ids=["forward", "backward"],
)
@pytest.mark.parametrize("form", ["human", "json"])
def test_dist_from_a_zero_length_loop_exits_2(tmp_path, capsys, argv, form):
    """A candidate loop of length 0 has no stretch; that is bad input,
    whichever direction of the distance meets it."""
    zero = _rose_with_edge_a(tmp_path, "0")
    argv = [a.format(zero=zero) for a in argv]
    assert cli.main(["dist", *argv, *FORMS[form]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: a candidate loop of the source graph has length 0\n"


@pytest.mark.parametrize(
    "length, argv, forms",
    [
        ("0", ["iwip", "--phi", TRIBONACCI, "--base", "{g}", "--k", "3"], ["human", "json"]),
        ("1e-320", ["dist", "--from", "{g}", "--to", ROSE, "--sym"], ["json"]),
        ("1e-320", ["iwip", "--phi", TRIBONACCI, "--base", "{g}", "--k", "3"], ["json"]),
    ],
    ids=["iwip-zero-base", "dist-infinite", "iwip-infinite-history"],
)
def test_degenerate_graph_exits_2(tmp_path, capsys, length, argv, forms):
    """An iterate of length 0 on the base has no lambda ratio, and an
    infinite value has no JSON form: each exits 2 with one ``error:`` line
    where it raised a traceback or printed ``Infinity`` before.  The human
    form of a run with an infinite value is unchanged and exits 0."""
    g = _rose_with_edge_a(tmp_path, length)
    argv = [a.format(g=g) for a in argv]
    for form in ["human", "json"]:
        rc = cli.main(argv + FORMS[form])
        out, err = capsys.readouterr()
        if form in forms:
            assert rc == 2
            assert out == ""
            assert "Traceback" not in err
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert rc == 0 and out and err == ""


def test_check_contracting_fits_b_on_the_axis_it_checks(capsys):
    """Without ``--b``, b is ``--fit-scale`` times the ``fitted_b`` the
    report gives, both read off the axis from -s-max to s-max by --step."""
    argv = ["check-contracting", *MU_NU, "--s-max", "1", "--n-far", "1", "--n-sigma", "1",
            "--n-balanced", "1", "--budget", "20", "--fit-scale", "1.5", "--json"]
    cli.main(argv)
    body = json.loads(capsys.readouterr().out)
    assert body["b"] == 1.5 * body["fitted_b"]


def test_check_contracting_takes_a_b_past_float_exp_range(capsys):
    """Clause 5 targets s = b + 0.5, where e^(2s) overflows for b = 400:
    the clause is vacuous, not a traceback."""
    argv = ["check-contracting", *MU_NU, "--s-max", "0.5", "--n-far", "1", "--n-sigma", "1",
            "--n-balanced", "1", "--budget", "20", "--b", "400"]
    assert cli.main(argv) in (0, 3)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert "clause 5 PASS (vacuous)" in out


def test_non_finite_json_value_is_named(tmp_path, capsys):
    """A near-zero edge makes the symmetric stretch overflow to inf, which
    has no JSON form; the error names the field that holds it."""
    g = _rose_with_edge_a(tmp_path, "1e-320")
    assert cli.main(["dist", "--from", g, "--to", ROSE, "--sym", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: value is inf, which has no JSON form\n"


def test_runtime_error_other_than_sample_error_propagates(monkeypatch):
    """Only a sampler's ``SampleError`` is bad input among RuntimeErrors."""

    def fail(args):
        raise RuntimeError("not a sampling failure")

    monkeypatch.setattr(cli, "_cmd_systole", fail)
    with pytest.raises(RuntimeError, match="not a sampling failure"):
        cli.main(["systole", "--graph", ROSE])
