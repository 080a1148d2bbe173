"""Command-line surface for the library.

Exit codes: 0 success, 2 bad usage or invalid input, 3 a checked
inequality failed on this input.  Code 3 is reserved for genuine check
failures so CI can tell a science regression from a plumbing error.
Bad input includes ``--json`` given together with ``--csv``, an empty
``--csv`` file name, an empty sample set (``check-minisline --s-list ""``,
``ball-contract --n 0``), a spine bound ``--eps`` that is not positive,
and non-finite numbers: ``nan`` or ``inf`` as an axis grid bound or step,
a bound ``--b`` or a radius, a weight or an edge length, and an ``s``
whose e^s overflows.  ``ball-contract --slack`` and ``tau --c`` must be
finite and nonnegative, ``iwip --tol`` finite and positive, and ``iwip
--k`` and each ``tau --powers`` entry at most ``words.MAX_POWER`` in
absolute value.  Bad input also includes an ``iwip --base`` on which an
iterate has length 0 and, in the ``--json`` form only, a result that is
not finite.  Each exits 2 instead of reporting a vacuous or meaningless
result, or running for hours.  The comma lists ``--s-list``, ``--radii``
and ``--powers`` may start with a negative entry (``--powers -2,0``).

Metric commands (dist, min, axis, project, the checks, ball-contract,
tau) normalize input graphs to volume one on load; pure measurements
(translen, systole, candidates, pair) take lengths as given.

Each command returns one ``_Result`` and ``main`` renders exactly one form
of it: the human lines, a CSV table (``--csv FILE``) or, with ``--json``,
the JSON body under the run's config, which ``build_parser`` declares per
command.  With the same argv and seed, --json output is byte-identical
across runs.  Human and CSV output print every numeric with 10
significant digits, and both are built from the same formatted cells.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import asdict, dataclass

from . import jsonio
from .currents import RationalCurrent, exp_combination, iwip_pair_approx, pairing
from .diagnostics import (
    SamplerConfig,
    ball_projection_diameter,
    check_contracting,
    check_minisline,
    fit_B,
    overlap_tau,
)
from .graphs import (
    MarkedGraph,
    candidates as graph_candidates,
    normalize_volume,
    systole,
    translation_length,
    unit_rose,
)
from .lipschitz import d_L, d_sym, stretch
from .minima import axis, balance_param, certificate, minimize, project, translate_axis
from .sampling import SampleError
from .words import format_word, parse_word, power

CLAUSE5_NOTE = (
    "clause 5 samples reach spine-interior approximations only; "
    "boundary balanced trees are outside the sampler's range"
)

# the axis that check-minisline fits b on and ball-contract measures the
# gap to, as (s_min, s_max, step)
AXIS_GRID = (-3.0, 3.0, 0.5)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _flag(b: bool) -> str:
    return str(b).lower()


def _status(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


@dataclass(frozen=True)
class _Result:
    """One command's outcome in every output form; ``main`` renders one.

    ``body`` is the --json body without its format and config keys;
    ``rows`` are the CSV cells under ``header``; ``lines`` the human output.
    """

    rank: int
    body: dict
    header: list[str]
    rows: list[list[str]]
    lines: list[str]
    rc: int = 0


def _config(args, rank: int) -> dict:
    """The --json config block: what ``build_parser`` declares for the command."""
    return {
        "command": args.command,
        "rank": rank,
        "inputs": [getattr(args, name) for name in args.inputs],
        "outputs": [getattr(args, name) for name in args.outputs if getattr(args, name)],
        **{name: getattr(args, name) for name in args.knobs},
    }


def _render(args, res: _Result) -> int:
    if args.json:
        body = {"format": jsonio.FORMAT, "config": _config(args, res.rank), **res.body}
        sys.stdout.write(jsonio.dumps(body))
    elif args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(res.header)
            w.writerows(res.rows)
    else:
        for text in res.lines:
            print(text)
    return res.rc


def _load_graph(path: str, normalize: bool) -> MarkedGraph:
    g = jsonio.load_graph(path)
    return normalize_volume(g) if normalize else g


def _point_summary(g: MarkedGraph) -> str:
    return " ".join(f"{e.id}={_fmt(e.length)}" for e in g.edges)


# ---------------------------------------------------------------------------
# measurement commands


def _cmd_translen(args) -> _Result:
    g = _load_graph(args.graph, normalize=False)
    w = parse_word(args.word, g.rank)
    value, loop = translation_length(g, w)
    row = [format_word(w), _fmt(value)]
    body = {
        "value": value,
        "word": row[0],
        "loop": [jsonio.format_step(st) for st in loop.path],
    }
    return _Result(g.rank, body, ["word", "value"], [row], [row[1]])


def _cmd_systole(args) -> _Result:
    g = _load_graph(args.graph, normalize=False)
    value, loop = systole(g)
    steps = [jsonio.format_step(st) for st in loop.path]
    row = [_fmt(value), " ".join(steps)]
    lines = [row[0]] + (["witness " + row[1]] if args.witness else [])
    body = {"value": value, "witness": steps}
    return _Result(g.rank, body, ["value", "witness"], [row], lines)


def _cmd_candidates(args) -> _Result:
    g = _load_graph(args.graph, normalize=False)
    found = [(format_word(w), loop.length) for loop, w in graph_candidates(g)]
    rows = [[word, _fmt(length)] for word, length in found]
    body = {"candidates": [{"word": word, "length": length} for word, length in found]}
    return _Result(g.rank, body, ["word", "length"], rows, [" ".join(r) for r in rows])


def _cmd_dist(args) -> _Result:
    x = _load_graph(getattr(args, "from"), normalize=True)
    y = _load_graph(args.to, normalize=True)
    fwd = stretch(x, y)
    runs = [("forward", fwd)]
    if args.sym:
        value = d_sym(x, y)
        bwd = stretch(y, x)
        runs.append(("backward", bwd))
        witnesses = {
            "witness_forward": format_word(fwd.witness),
            "witness_backward": format_word(bwd.witness),
        }
    else:
        value = d_L(x, y)
        witnesses = {"witness": format_word(fwd.witness)}
    rows = [
        [direction, format_word(w), _fmt(r)]
        for direction, st in runs
        for w, r in st.per_candidate
    ]
    lines = [_fmt(value)]
    if args.witness:
        lines += [f"{key} {word}" for key, word in witnesses.items()]
    body = {"value": value, "symmetric": args.sym, **witnesses}
    return _Result(x.rank, body, ["direction", "word", "ratio"], rows, lines)


def _cmd_pair(args) -> _Result:
    g = _load_graph(args.tree, normalize=False)
    value = pairing(g, jsonio.load_current(args.current))
    cell = _fmt(value)
    return _Result(g.rank, {"value": value}, ["value"], [[cell]], [cell])


def _cmd_iwip(args) -> _Result:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and positive, not {args.tol}")
    phi = jsonio.load_automorphism(args.phi)
    base = _load_graph(args.base, normalize=True) if args.base else None
    seed = parse_word(args.seed, phi.rank)
    approx = iwip_pair_approx(phi, seed, args.k, base=base, tol=args.tol)
    row = [
        str(approx.k),
        _fmt(approx.lambda_forward),
        _fmt(approx.lambda_backward),
        _flag(approx.converged),
    ]
    lines = [
        "lambda_forward " + row[1],
        "lambda_backward " + row[2],
        "converged " + row[3],
        "exponential " + _flag(approx.exponential),
    ]
    body = {
        "k": approx.k,
        "seed_word": format_word(approx.seed),
        "lambda_forward": approx.lambda_forward,
        "lambda_backward": approx.lambda_backward,
        "converged": approx.converged,
        "exponential": approx.exponential,
        "history": approx.lambda_history,
        "forward": jsonio.current_to_obj(approx.forward),
        "backward": jsonio.current_to_obj(approx.backward),
    }
    header = ["k", "lambda_forward", "lambda_backward", "converged"]
    return _Result(phi.rank, body, header, [row], lines)


# ---------------------------------------------------------------------------
# minima commands


def _load_pair(args) -> tuple[RationalCurrent, RationalCurrent]:
    return jsonio.load_current(args.mu), jsonio.load_current(args.nu)


def _cmd_min(args) -> _Result:
    mu, nu = _load_pair(args)
    start = (
        _load_graph(args.start, normalize=True)
        if args.start
        else unit_rose(mu.rank)
    )
    current = exp_combination(mu, nu, args.s)
    res = minimize(current, args.eps, start, args.budget)
    if args.out:
        jsonio.dump_graph(res.point, args.out)
    row = [_fmt(args.s), _fmt(res.value), _flag(res.budget_exhausted)]
    lines = [
        "value " + row[1],
        "point " + _point_summary(res.point),
        "budget_exhausted " + row[2],
    ]
    body = {
        "value": res.value,
        "s": args.s,
        "budget_exhausted": res.budget_exhausted,
        "topology_visits": res.topology_visits,
        "certificate": certificate(res.point, current, args.eps),
        "point": jsonio.graph_to_obj(res.point),
    }
    header = ["s", "value", "budget_exhausted"]
    return _Result(mu.rank, body, header, [row], lines)


def _cmd_axis(args) -> _Result:
    mu, nu = _load_pair(args)
    start = (
        _load_graph(args.start, normalize=True) if args.start else None
    )
    ax = axis(
        mu, nu, getattr(args, "from"), args.to, args.step, args.eps, args.budget,
        start=start,
    )
    rows = []
    samples = []
    prev = None
    for i, (s, pt, value) in enumerate(ax.samples):
        dprev = d_sym(prev, pt) if prev is not None else None
        point_file = ""
        if args.points_dir:
            point_file = f"{args.points_dir}/axis_point_{i:03d}.json"
            jsonio.dump_graph(pt, point_file)
        rows.append([_fmt(s), _fmt(value), _fmt(dprev) if dprev is not None else "", point_file])
        samples.append(
            {
                "s": s,
                "value": value,
                "d_sym_to_prev": dprev,
                "point_file": point_file,
                "point": jsonio.graph_to_obj(pt),
            }
        )
        prev = pt
    lines = [f"s={s} value={v}" + (f" d_prev={d}" if d else "") for s, v, d, _ in rows]
    header = ["s", "value", "d_sym_to_prev", "point_file"]
    return _Result(mu.rank, {"samples": samples}, header, rows, lines)


def _cmd_project(args) -> _Result:
    mu, nu = _load_pair(args)
    t = _load_graph(args.tree, normalize=True)
    res = project(t, mu, nu, args.eps, args.budget)
    s_star = balance_param(t, mu, nu)
    if args.out:
        jsonio.dump_graph(res.point, args.out)
    row = [_fmt(s_star), _fmt(res.value)]
    lines = ["s_balance " + row[0], "value " + row[1], "point " + _point_summary(res.point)]
    body = {
        "s_balance": s_star,
        "value": res.value,
        "point": jsonio.graph_to_obj(res.point),
    }
    return _Result(mu.rank, body, ["s_balance", "value"], [row], lines)


# ---------------------------------------------------------------------------
# checks (exit 3 on inequality failure)


def _cmd_check_minisline(args) -> _Result:
    mu, nu = _load_pair(args)
    if args.b is not None:
        b = args.b
    else:
        b = fit_B(axis(mu, nu, *AXIS_GRID, args.eps, args.budget)).value
    rep = check_minisline(mu, nu, b, _floats(args.s_list), args.eps, args.budget)
    rows = [
        [_fmt(r.s), _fmt(r.distance), _fmt(r.lower), _fmt(r.upper), _status(r.passed)]
        for r in rep.rows
    ]
    lines = [f"s={s} d={d} in [{lo}, {hi}] {st}" for s, d, lo, hi, st in rows]
    lines += [f"b {_fmt(b)}", _status(rep.passed)]
    body = {
        "b": b,
        "passed": rep.passed,
        "rows": [{**asdict(r), "passed": r.passed} for r in rep.rows],
    }
    header = ["s", "distance", "lower", "upper", "status"]
    return _Result(mu.rank, body, header, rows, lines, 0 if rep.passed else 3)


def _cmd_check_contracting(args) -> _Result:
    mu, nu = _load_pair(args)
    shift = jsonio.load_automorphism(args.shift) if args.shift else None
    cfg = SamplerConfig(
        seed=args.seed,
        n_far=args.n_far,
        n_sigma=args.n_sigma,
        n_balanced=args.n_balanced,
        budget=args.budget,
        shift=shift,
    )
    ax = axis(mu, nu, -args.s_max, args.s_max, args.step, args.eps, args.budget)
    b = args.b if args.b is not None else args.fit_scale * fit_B(ax).value
    rep = check_contracting(ax, b, cfg)
    rows = []
    for c in rep.clauses:
        status = _status(c.passed) + (" (vacuous)" if c.vacuous else "")
        margin = _fmt(c.margin) if math.isfinite(c.margin) else "inf"
        rows.append([str(c.clause), status, margin, str(c.n_samples), c.witness])
    lines = ["fitted_b " + _fmt(rep.fitted), "b " + _fmt(rep.b)]
    lines += [
        f"clause {k} {status} margin={margin} n={n}" + (f" witness: {w}" if w else "")
        for k, status, margin, n, w in rows
    ]
    lines += ["note " + CLAUSE5_NOTE, _status(rep.passed)]
    body = {
        "b": rep.b,
        "fitted_b": rep.fitted,
        "passed": rep.passed,
        "note": CLAUSE5_NOTE,
        "sampler": {
            **vars(cfg),
            "s_max": args.s_max,
            "step": args.step,
            "shift": jsonio.automorphism_to_obj(shift) if shift else None,
        },
        "clauses": [
            {**asdict(c), "margin": c.margin if math.isfinite(c.margin) else None}
            for c in rep.clauses
        ],
    }
    header = ["clause", "status", "margin", "n_samples", "witness"]
    return _Result(mu.rank, body, header, rows, lines, 0 if rep.passed else 3)


def _cmd_ball_contract(args) -> _Result:
    if not 0 <= args.slack < math.inf:
        raise ValueError(f"--slack must be finite and nonnegative, not {args.slack}")
    mu, nu = _load_pair(args)
    center = _load_graph(args.center, normalize=True)
    radii = _floats(args.radii) if args.radii is not None else [args.radius]
    if not radii:
        raise ValueError("need at least one radius")
    if not all(r >= 0 for r in radii):
        raise ValueError("need nonnegative radii")
    ax = axis(mu, nu, *AXIS_GRID, args.eps, args.budget)
    results = [
        ball_projection_diameter(ax, center, r, args.n, seed=args.seed + i, budget=args.budget)
        for i, r in enumerate(radii)
    ]
    compared = len(radii) > 1
    passed = True
    if compared:
        dmin = results[radii.index(min(radii))].diameter
        dmax = results[radii.index(max(radii))].diameter
        passed = dmax <= dmin + args.slack + 1e-9
    rows = [
        [_fmt(r), _fmt(res.diameter), str(res.n_samples), str(res.n_distinct)]
        for r, res in zip(radii, results)
    ]
    lines = [f"radius {r} diameter {d} n={n} distinct={k}" for r, d, n, k in rows]
    lines.append("center_distance_to_axis " + _fmt(results[0].center_distance_to_axis))
    if compared:
        lines += [f"slack {_fmt(args.slack)}", _status(passed)]
    body = {
        "passed": passed,
        "slack": args.slack if compared else None,
        "center_distance_to_axis": results[0].center_distance_to_axis,
        "balls": [
            {
                "radius": r,
                "diameter": res.diameter,
                "n_samples": res.n_samples,
                "n_distinct": res.n_distinct,
            }
            for r, res in zip(radii, results)
        ],
    }
    header = ["radius", "diameter", "n_samples", "n_distinct"]
    return _Result(mu.rank, body, header, rows, lines, 0 if passed else 3)


def _cmd_tau(args) -> _Result:
    if not 0 <= args.c < math.inf:
        raise ValueError(f"--c must be finite and nonnegative, not {args.c}")
    mu, nu = _load_pair(args)
    x = _load_graph(args.x, normalize=True)
    powers = _ints(args.powers)
    if len(powers) < 2:
        raise ValueError("need at least two powers to compare axes")
    shift = jsonio.load_automorphism(args.shift) if args.shift else None
    if shift is None and any(p != 0 for p in powers):
        raise ValueError("nonzero powers need --shift")
    maps = [power(shift, p) if p else None for p in powers]
    base = axis(
        mu, nu, getattr(args, "from"), args.to, args.step, args.eps, args.budget
    )
    axes = [base if m is None else translate_axis(base, m) for m in maps]
    n = len(axes)
    # tau is symmetric bit for bit (d_sym is, and _max_run asks the same
    # two conditions of swapped rays), so each unordered pair is measured once
    upper = {
        (i, j): overlap_tau(axes[i], axes[j], x, args.c)
        for i in range(n)
        for j in range(i + 1, n)
    }
    taus = {(i, j): upper[min(i, j), max(i, j)] for i in range(n) for j in range(n) if i != j}
    rows = [[str(powers[i]), str(powers[j]), _fmt(t)] for (i, j), t in taus.items()]
    lines = [f"tau[{pi}][{pj}] {t}" for pi, pj, t in rows]
    checked = args.check_ultrametric and n >= 3
    violations = []
    if checked:
        distinct = [
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if len({i, j, k}) == 3
        ]
        for i, j, k in distinct:
            lhs = taus[(i, k)]
            rhs = min(taus[(i, j)], taus[(j, k)]) - args.step
            if lhs < rhs - 1e-9:
                violations.append(
                    {"i": powers[i], "j": powers[j], "k": powers[k], "tau_ik": lhs, "bound": rhs}
                )
        lines.append("ultrametric " + _status(not violations))
    body = {
        "c": args.c,
        "powers": powers,
        "taus": [{"i": powers[i], "j": powers[j], "tau": t} for (i, j), t in taus.items()],
        "ultrametric_checked": checked,
        "passed": not violations,
        "violations": violations,
    }
    header = ["power_i", "power_j", "tau"]
    return _Result(mu.rank, body, header, rows, lines, 3 if violations else 0)


# ---------------------------------------------------------------------------
# parser


def _command(sub, name: str, func, summary: str, inputs=(), outputs=(), knobs=()):
    """A subparser whose --json config lists the file arguments ``inputs``
    and ``outputs`` (given ones only) and the values of ``knobs``.  Files
    that only steer a run (--start, --base, --shift) are not inputs."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func, inputs=inputs, outputs=outputs, knobs=knobs)
    return p


def _add_pair(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)


class _CsvPath(argparse.Action):
    """``--csv FILE``, refusing an empty FILE rather than reading it as no
    ``--csv``; the ValueError leaves the parser and ``main`` reports it."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not value:
            raise ValueError("--csv needs a file name, not an empty string")
        setattr(namespace, self.dest, value)


def _add_common(p: argparse.ArgumentParser, eps: bool = True) -> None:
    form = p.add_mutually_exclusive_group()
    form.add_argument("--json", action="store_true", help="emit JSON")
    form.add_argument("--csv", metavar="FILE", action=_CsvPath, help="write a CSV table to FILE")
    if eps:
        p.add_argument("--eps", type=float, default=0.05, help="spine bound")
        p.add_argument("--budget", type=int, default=600, help="topologies a descent may accept")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="outerspine",
        description="Distances, minima, axes, and contraction checks "
        "on the epsilon-spine of outer space.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "translen", _cmd_translen, "translation length of a word", inputs=("graph",))
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    _add_common(p, eps=False)

    p = _command(sub, "systole", _cmd_systole, "shortest essential loop", inputs=("graph",))
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", action="store_true")
    _add_common(p, eps=False)

    p = _command(
        sub, "candidates", _cmd_candidates, "candidate loops and lengths", inputs=("graph",)
    )
    p.add_argument("--graph", required=True)
    _add_common(p, eps=False)

    p = _command(
        sub, "dist", _cmd_dist, "Lipschitz distance via candidates", inputs=("from", "to")
    )
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--sym", action="store_true", help="symmetrized distance")
    p.add_argument("--witness", action="store_true")
    _add_common(p, eps=False)

    p = _command(
        sub, "pair", _cmd_pair, "length pairing of a tree and a current",
        inputs=("tree", "current"),
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--current", required=True)
    _add_common(p, eps=False)

    # --seed is a word here, not a sampler seed, so it is no knob
    p = _command(
        sub, "iwip", _cmd_iwip, "power-iteration current pair",
        inputs=("phi",), knobs=("tol",),
    )
    p.add_argument("--phi", required=True)
    p.add_argument("--seed", default="a", help="seed conjugacy class")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--base", help="base graph (default unit rose)")
    _add_common(p, eps=False)

    p = _command(
        sub, "min", _cmd_min, "minimize e^s mu + e^-s nu over the spine",
        inputs=("mu", "nu"), outputs=("out",), knobs=("eps", "budget"),
    )
    _add_pair(p)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--start")
    p.add_argument("--out", help="write the minimizer graph JSON here")
    _add_common(p)

    p = _command(
        sub, "axis", _cmd_axis, "sample the line of minima on an s-grid",
        inputs=("mu", "nu"), knobs=("eps", "step", "budget"),
    )
    _add_pair(p)
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--start")
    p.add_argument("--points-dir", help="write per-sample graph JSONs here")
    _add_common(p)

    p = _command(
        sub, "project", _cmd_project, "project a tree to the line of minima",
        inputs=("tree", "mu", "nu"), outputs=("out",), knobs=("eps", "budget"),
    )
    p.add_argument("--tree", required=True)
    _add_pair(p)
    p.add_argument("--out")
    _add_common(p)

    p = _command(
        sub, "check-minisline", _cmd_check_minisline,
        "two-sided distance bound along the axis",
        inputs=("mu", "nu"), knobs=("eps", "budget"),
    )
    _add_pair(p)
    p.add_argument("--b", type=float, help="constant; default: fitted")
    p.add_argument("--s-list", default="1,2,3,4,5,6")
    _add_common(p)

    p = _command(
        sub, "check-contracting", _cmd_check_contracting,
        "sample the five contraction clauses",
        inputs=("mu", "nu"), knobs=("eps", "seed", "step", "budget"),
    )
    _add_pair(p)
    p.add_argument("--b", type=float, help="constant; default: fit-scale * fitted")
    p.add_argument("--fit-scale", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--n-far", type=int, default=12)
    p.add_argument("--n-sigma", type=int, default=10)
    p.add_argument("--n-balanced", type=int, default=3)
    p.add_argument("--shift", help="automorphism JSON for balance shifts")
    _add_common(p)

    p = _command(
        sub, "ball-contract", _cmd_ball_contract, "projected diameter of sampled balls",
        inputs=("mu", "nu", "center"), knobs=("eps", "seed", "budget"),
    )
    _add_pair(p)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--radii", help="comma list; overrides --radius")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack", type=float, default=0.5)
    _add_common(p)

    p = _command(
        sub, "tau", _cmd_tau, "overlap length of translated axes",
        inputs=("mu", "nu", "x"), knobs=("eps", "step", "budget"),
    )
    _add_pair(p)
    p.add_argument("--x", required=True, help="observer point graph JSON")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--shift", help="automorphism JSON; axes are its powers")
    p.add_argument("--powers", default="0,1")
    p.add_argument("--from", type=float, default=-2.0)
    p.add_argument("--to", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--check-ultrametric", action="store_true")
    _add_common(p)

    return ap


# argparse takes a value such as "-2,0" for an option name (only one plain
# negative number passes as a value), so main attaches a list option's
# value to it as "--powers=-2,0" before parsing
_LISTS = ("--s-list", "--radii", "--powers")


def _attach_lists(argv: list[str]) -> list[str]:
    out: list[str] = []
    for a in argv:
        if out and out[-1] in _LISTS and re.match(r"-[\d.]", a):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_attach_lists(sys.argv[1:] if argv is None else argv))
        return _render(args, args.func(args))
    except SystemExit as e:
        return int(e.code) if e.code else 0
    except (ValueError, KeyError, OSError, SampleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
