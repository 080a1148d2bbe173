"""Command-line surface for the library.

Exit codes: 0 success, 2 bad usage or invalid input, 3 a checked
inequality failed on this input.  Code 3 is reserved for genuine check
failures so CI can tell a science regression from a plumbing error.

Metric commands (dist, min, axis, project, the checks, ball-contract,
tau) normalize input graphs to volume one on load; pure measurements
(translen, systole, candidates, pair) take lengths as given.

With the same argv and seed, --json output is byte-identical across runs.
Human and CSV output print every numeric with 10 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict, dataclass

from . import jsonio
from .currents import (
    RationalCurrent,
    add,
    dual,
    exp_combination,
    iwip_pair_approx,
    pairing,
)
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
from .minima import axis, balance_param, minimize, project, translate_axis
from .sampling import SampleError
from .words import Word, format_word, parse_word, power

CLAUSE5_NOTE = (
    "clause 5 samples reach spine-interior approximations only; "
    "boundary balanced trees are outside the sampler's range"
)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run; embedded in JSON output."""

    command: str
    rank: int | None = None
    eps: float | None = None
    seed: int | None = None
    step: float | None = None
    budget: int | None = None
    tol: float | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        d = asdict(self)
        d["inputs"] = list(self.inputs)
        d["outputs"] = list(self.outputs)
        return {k: v for k, v in d.items() if v is not None}


class _Out:
    """Collects one run's output and emits it in the selected form."""

    def __init__(self, args, config: RunConfig):
        self.json = bool(getattr(args, "json", False))
        self.csv_path = getattr(args, "csv", None)
        self.config = config
        self.lines: list[str] = []
        self.obj: dict = {"format": jsonio.FORMAT, "config": config.to_obj()}
        self.rows: list[list[str]] = []
        self.header: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def table(self, header: list[str], rows: list[list[str]]) -> None:
        self.header, self.rows = header, rows

    def emit(self) -> None:
        if self.json:
            sys.stdout.write(jsonio.dumps(self.obj))
            return
        if self.csv_path:
            with open(self.csv_path, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(self.header)
                w.writerows(self.rows)
            return
        for text in self.lines:
            print(text)


def _load_graph(path: str, normalize: bool) -> MarkedGraph:
    g = jsonio.load_graph(path)
    return normalize_volume(g) if normalize else g


def _point_summary(g: MarkedGraph) -> str:
    return " ".join(f"{e.id}={_fmt(e.length)}" for e in g.edges)


# ---------------------------------------------------------------------------
# measurement commands


def _cmd_translen(args) -> int:
    g = _load_graph(args.graph, normalize=False)
    w = parse_word(args.word, g.rank)
    value, loop = translation_length(g, w)
    out = _Out(args, RunConfig("translen", rank=g.rank, inputs=(args.graph,)))
    out.line(_fmt(value))
    out.obj.update(
        {
            "value": value,
            "word": format_word(w),
            "loop": [jsonio._format_step(st) for st in loop.path],
        }
    )
    out.table(["word", "value"], [[format_word(w), _fmt(value)]])
    out.emit()
    return 0


def _cmd_systole(args) -> int:
    g = _load_graph(args.graph, normalize=False)
    value, loop = systole(g)
    out = _Out(args, RunConfig("systole", rank=g.rank, inputs=(args.graph,)))
    out.line(_fmt(value))
    steps = [jsonio._format_step(st) for st in loop.path]
    if args.witness:
        out.line("witness " + " ".join(steps))
    out.obj.update({"value": value, "witness": steps})
    out.table(["value", "witness"], [[_fmt(value), " ".join(steps)]])
    out.emit()
    return 0


def _cmd_candidates(args) -> int:
    g = _load_graph(args.graph, normalize=False)
    rows = []
    payload = []
    for loop, w in graph_candidates(g):
        rows.append([format_word(w), _fmt(loop.length)])
        payload.append({"word": format_word(w), "length": loop.length})
    out = _Out(args, RunConfig("candidates", rank=g.rank, inputs=(args.graph,)))
    for word, length in rows:
        out.line(f"{word} {length}")
    out.obj["candidates"] = payload
    out.table(["word", "length"], rows)
    out.emit()
    return 0


def _cmd_dist(args) -> int:
    x = _load_graph(getattr(args, "from"), normalize=True)
    y = _load_graph(args.to, normalize=True)
    fwd = stretch(x, y)
    out = _Out(args, RunConfig("dist", rank=x.rank, inputs=(getattr(args, "from"), args.to)))
    if args.sym:
        value = d_sym(x, y)
        bwd = stretch(y, x)
        out.obj.update(
            {
                "value": value,
                "symmetric": True,
                "witness_forward": format_word(fwd.witness),
                "witness_backward": format_word(bwd.witness),
            }
        )
        out.line(_fmt(value))
        if args.witness:
            out.line("witness_forward " + format_word(fwd.witness))
            out.line("witness_backward " + format_word(bwd.witness))
        rows = [
            ["forward", format_word(w), _fmt(r)] for w, r in fwd.per_candidate
        ] + [["backward", format_word(w), _fmt(r)] for w, r in bwd.per_candidate]
    else:
        value = d_L(x, y)
        out.obj.update(
            {
                "value": value,
                "symmetric": False,
                "witness": format_word(fwd.witness),
            }
        )
        out.line(_fmt(value))
        if args.witness:
            out.line("witness " + format_word(fwd.witness))
        rows = [["forward", format_word(w), _fmt(r)] for w, r in fwd.per_candidate]
    out.table(["direction", "word", "ratio"], rows)
    out.emit()
    return 0


def _cmd_pair(args) -> int:
    g = _load_graph(args.tree, normalize=False)
    nu = jsonio.load_current(args.current)
    value = pairing(g, nu)
    out = _Out(args, RunConfig("pair", rank=g.rank, inputs=(args.tree, args.current)))
    out.line(_fmt(value))
    out.obj["value"] = value
    out.table(["value"], [[_fmt(value)]])
    out.emit()
    return 0


def _cmd_iwip(args) -> int:
    phi = jsonio.load_automorphism(args.phi)
    base = _load_graph(args.base, normalize=True) if args.base else None
    seed = parse_word(args.seed, phi.rank)
    approx = iwip_pair_approx(phi, seed, args.k, base=base, tol=args.tol)
    out = _Out(
        args,
        RunConfig("iwip", rank=phi.rank, tol=args.tol, inputs=(args.phi,)),
    )
    out.line("lambda_forward " + _fmt(approx.lambda_forward))
    out.line("lambda_backward " + _fmt(approx.lambda_backward))
    out.line(f"converged {str(approx.converged).lower()}")
    out.line(f"exponential {str(approx.exponential).lower()}")
    out.obj.update(
        {
            "k": approx.k,
            "seed_word": format_word(approx.seed),
            "lambda_forward": approx.lambda_forward,
            "lambda_backward": approx.lambda_backward,
            "converged": approx.converged,
            "exponential": approx.exponential,
            "history": [list(h) for h in approx.lambda_history],
            "forward": jsonio.current_to_obj(approx.forward),
            "backward": jsonio.current_to_obj(approx.backward),
        }
    )
    out.table(
        ["k", "lambda_forward", "lambda_backward", "converged"],
        [
            [
                str(approx.k),
                _fmt(approx.lambda_forward),
                _fmt(approx.lambda_backward),
                str(approx.converged).lower(),
            ]
        ],
    )
    out.emit()
    return 0


# ---------------------------------------------------------------------------
# minima commands


def _load_pair(args) -> tuple[RationalCurrent, RationalCurrent]:
    return jsonio.load_current(args.mu), jsonio.load_current(args.nu)


def _cmd_min(args) -> int:
    mu, nu = _load_pair(args)
    start = (
        _load_graph(args.start, normalize=True)
        if args.start
        else unit_rose(mu.rank)
    )
    res = minimize(exp_combination(mu, nu, args.s), args.eps, start, args.budget)
    outputs = (args.out,) if args.out else ()
    out = _Out(
        args,
        RunConfig(
            "min",
            rank=mu.rank,
            eps=args.eps,
            budget=args.budget,
            inputs=(args.mu, args.nu),
            outputs=outputs,
        ),
    )
    out.line("value " + _fmt(res.value))
    out.line("point " + _point_summary(res.point))
    out.line(f"local {str(res.local).lower()}")
    out.line(f"budget_exhausted {str(res.budget_exhausted).lower()}")
    out.obj.update(
        {
            "value": res.value,
            "s": args.s,
            "local": res.local,
            "budget_exhausted": res.budget_exhausted,
            "topology_visits": res.topology_visits,
            "certificate": list(res.certificate),
            "point": jsonio.graph_to_obj(res.point),
        }
    )
    out.table(
        ["s", "value", "local", "budget_exhausted"],
        [[_fmt(args.s), _fmt(res.value), str(res.local).lower(), str(res.budget_exhausted).lower()]],
    )
    if args.out:
        jsonio.dump_graph(res.point, args.out)
    out.emit()
    return 0


def _cmd_axis(args) -> int:
    mu, nu = _load_pair(args)
    start = (
        _load_graph(args.start, normalize=True) if args.start else None
    )
    ax = axis(
        mu, nu, getattr(args, "from"), args.to, args.step, args.eps, args.budget,
        start=start,
    )
    rows = []
    payload = []
    prev = None
    for i, (s, pt, value) in enumerate(ax.samples):
        dprev = d_sym(prev, pt) if prev is not None else None
        point_file = ""
        if args.points_dir:
            point_file = f"{args.points_dir}/axis_point_{i:03d}.json"
            jsonio.dump_graph(pt, point_file)
        rows.append(
            [
                _fmt(s),
                _fmt(value),
                _fmt(dprev) if dprev is not None else "",
                point_file,
            ]
        )
        payload.append(
            {
                "s": s,
                "value": value,
                "d_sym_to_prev": dprev,
                "point_file": point_file,
                "point": jsonio.graph_to_obj(pt),
            }
        )
        prev = pt
    out = _Out(
        args,
        RunConfig(
            "axis",
            rank=mu.rank,
            eps=args.eps,
            step=args.step,
            budget=args.budget,
            inputs=(args.mu, args.nu),
        ),
    )
    for r in rows:
        out.line(" ".join(filter(None, [f"s={r[0]}", f"value={r[1]}"] + ([f"d_prev={r[2]}"] if r[2] else []))))
    out.obj["samples"] = payload
    out.table(["s", "value", "d_sym_to_prev", "point_file"], rows)
    out.emit()
    return 0


def _cmd_project(args) -> int:
    mu, nu = _load_pair(args)
    t = _load_graph(args.tree, normalize=True)
    res = project(t, mu, nu, args.eps, args.budget)
    s_star = balance_param(t, mu, nu)
    out = _Out(
        args,
        RunConfig(
            "project",
            rank=mu.rank,
            eps=args.eps,
            budget=args.budget,
            inputs=(args.tree, args.mu, args.nu),
            outputs=(args.out,) if args.out else (),
        ),
    )
    out.line("s_balance " + _fmt(s_star))
    out.line("value " + _fmt(res.value))
    out.line("point " + _point_summary(res.point))
    out.obj.update(
        {
            "s_balance": s_star,
            "value": res.value,
            "local": res.local,
            "point": jsonio.graph_to_obj(res.point),
        }
    )
    out.table(["s_balance", "value"], [[_fmt(s_star), _fmt(res.value)]])
    if args.out:
        jsonio.dump_graph(res.point, args.out)
    out.emit()
    return 0


# ---------------------------------------------------------------------------
# checks (exit 3 on inequality failure)


def _cmd_check_minisline(args) -> int:
    mu, nu = _load_pair(args)
    if args.b is not None:
        b = args.b
    else:
        b = fit_B(mu, nu, args.eps, budget=args.budget).value
    s_list = _floats(args.s_list)
    rep = check_minisline(mu, nu, b, s_list, args.eps, args.budget)
    out = _Out(
        args,
        RunConfig(
            "check-minisline",
            rank=mu.rank,
            eps=args.eps,
            budget=args.budget,
            inputs=(args.mu, args.nu),
        ),
    )
    rows = []
    for r in rep.rows:
        status = "PASS" if r.passed else "FAIL"
        out.line(
            f"s={_fmt(r.s)} d={_fmt(r.distance)} "
            f"in [{_fmt(r.lower)}, {_fmt(r.upper)}] {status}"
        )
        rows.append(
            [_fmt(r.s), _fmt(r.distance), _fmt(r.lower), _fmt(r.upper), status]
        )
    out.line(f"b {_fmt(b)}")
    out.line("PASS" if rep.passed else "FAIL")
    out.obj.update(
        {
            "b": b,
            "passed": rep.passed,
            "rows": [
                {
                    "s": r.s,
                    "distance": r.distance,
                    "lower": r.lower,
                    "upper": r.upper,
                    "passed": r.passed,
                }
                for r in rep.rows
            ],
        }
    )
    out.table(["s", "distance", "lower", "upper", "status"], rows)
    out.emit()
    return 0 if rep.passed else 3


def _cmd_check_contracting(args) -> int:
    mu, nu = _load_pair(args)
    shift = jsonio.load_automorphism(args.shift) if args.shift else None
    cfg = SamplerConfig(
        seed=args.seed,
        s_max=args.s_max,
        step=args.step,
        n_far=args.n_far,
        n_sigma=args.n_sigma,
        n_balanced=args.n_balanced,
        budget=args.budget,
        shift=shift,
    )
    if args.b is not None:
        b = args.b
    else:
        b = args.fit_scale * fit_B(mu, nu, args.eps, budget=args.budget).value
    rep = check_contracting(mu, nu, b, args.eps, cfg)
    out = _Out(
        args,
        RunConfig(
            "check-contracting",
            rank=mu.rank,
            eps=args.eps,
            seed=args.seed,
            step=args.step,
            budget=args.budget,
            inputs=(args.mu, args.nu),
        ),
    )
    out.line("fitted_b " + _fmt(rep.fitted))
    out.line("b " + _fmt(rep.b))
    rows = []
    for c in rep.clauses:
        status = "PASS" if c.passed else "FAIL"
        if c.vacuous:
            status += " (vacuous)"
        margin = _fmt(c.margin) if math.isfinite(c.margin) else "inf"
        out.line(
            f"clause {c.clause} {status} margin={margin} n={c.n_samples}"
            + (f" witness: {c.witness}" if c.witness else "")
        )
        rows.append([str(c.clause), status, margin, str(c.n_samples), c.witness])
    out.line("note " + CLAUSE5_NOTE)
    out.line("PASS" if rep.passed else "FAIL")
    cfg_obj = {
        "seed": cfg.seed,
        "s_max": cfg.s_max,
        "step": cfg.step,
        "near_step": cfg.near_step,
        "n_far": cfg.n_far,
        "far_depth": cfg.far_depth,
        "n_sigma": cfg.n_sigma,
        "n_balanced": cfg.n_balanced,
        "budget": cfg.budget,
        "shift": jsonio.automorphism_to_obj(shift) if shift else None,
        "beyond_offsets": list(cfg.beyond_offsets),
    }
    out.obj.update(
        {
            "b": rep.b,
            "fitted_b": rep.fitted,
            "passed": rep.passed,
            "note": CLAUSE5_NOTE,
            "sampler": cfg_obj,
            "clauses": [
                {
                    "clause": c.clause,
                    "passed": c.passed,
                    "vacuous": c.vacuous,
                    "margin": c.margin if math.isfinite(c.margin) else None,
                    "n_samples": c.n_samples,
                    "witness": c.witness,
                }
                for c in rep.clauses
            ],
        }
    )
    out.table(["clause", "status", "margin", "n_samples", "witness"], rows)
    out.emit()
    return 0 if rep.passed else 3


def _cmd_ball_contract(args) -> int:
    mu, nu = _load_pair(args)
    center = _load_graph(args.center, normalize=True)
    radii = _floats(args.radii) if args.radii else [args.radius]
    if not radii or any(r < 0 for r in radii):
        raise ValueError("need nonnegative radii")
    results = []
    for i, r in enumerate(radii):
        results.append(
            ball_projection_diameter(
                mu,
                nu,
                center,
                r,
                args.n,
                args.eps,
                seed=args.seed + i,
                budget=args.budget,
            )
        )
    passed = True
    if len(radii) > 1:
        dmin = results[radii.index(min(radii))].diameter
        dmax = results[radii.index(max(radii))].diameter
        passed = dmax <= dmin + args.slack + 1e-9
    out = _Out(
        args,
        RunConfig(
            "ball-contract",
            rank=mu.rank,
            eps=args.eps,
            seed=args.seed,
            budget=args.budget,
            inputs=(args.mu, args.nu, args.center),
        ),
    )
    rows = []
    for r, res in zip(radii, results):
        out.line(
            f"radius {_fmt(r)} diameter {_fmt(res.diameter)} "
            f"n={res.n_samples} distinct={res.n_distinct}"
        )
        rows.append(
            [
                _fmt(r),
                _fmt(res.diameter),
                str(res.n_samples),
                str(res.n_distinct),
            ]
        )
    out.line(
        "center_distance_to_axis " + _fmt(results[0].center_distance_to_axis)
    )
    if len(radii) > 1:
        out.line(f"slack {_fmt(args.slack)}")
        out.line("PASS" if passed else "FAIL")
    out.obj.update(
        {
            "passed": passed,
            "slack": args.slack if len(radii) > 1 else None,
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
    )
    out.table(["radius", "diameter", "n_samples", "n_distinct"], rows)
    out.emit()
    return 0 if passed else 3


def _cmd_tau(args) -> int:
    mu, nu = _load_pair(args)
    x = _load_graph(args.x, normalize=True)
    powers = _ints(args.powers)
    if len(powers) < 2:
        raise ValueError("need at least two powers to compare axes")
    shift = jsonio.load_automorphism(args.shift) if args.shift else None
    if shift is None and any(p != 0 for p in powers):
        raise ValueError("nonzero powers need --shift")
    base = axis(
        mu, nu, getattr(args, "from"), args.to, args.step, args.eps, args.budget
    )
    axes = [
        base if p == 0 else translate_axis(base, power(shift, p)) for p in powers
    ]
    taus: dict[tuple[int, int], float] = {}
    for i in range(len(axes)):
        for j in range(len(axes)):
            if i != j:
                taus[(i, j)] = overlap_tau(axes[i], axes[j], x, args.c)
    out = _Out(
        args,
        RunConfig(
            "tau",
            rank=mu.rank,
            eps=args.eps,
            step=args.step,
            budget=args.budget,
            inputs=(args.mu, args.nu, args.x),
        ),
    )
    rows = []
    for (i, j), t in sorted(taus.items()):
        out.line(f"tau[{powers[i]}][{powers[j]}] {_fmt(t)}")
        rows.append([str(powers[i]), str(powers[j]), _fmt(t)])
    passed = True
    violations = []
    if args.check_ultrametric and len(axes) >= 3:
        for i in range(len(axes)):
            for j in range(len(axes)):
                for k in range(len(axes)):
                    if len({i, j, k}) < 3:
                        continue
                    lhs = taus[(i, k)]
                    rhs = min(taus[(i, j)], taus[(j, k)]) - args.step
                    if lhs < rhs - 1e-9:
                        passed = False
                        violations.append(
                            {
                                "i": powers[i],
                                "j": powers[j],
                                "k": powers[k],
                                "tau_ik": lhs,
                                "bound": rhs,
                            }
                        )
        out.line("ultrametric " + ("PASS" if passed else "FAIL"))
    out.obj.update(
        {
            "c": args.c,
            "powers": powers,
            "taus": [
                {"i": powers[i], "j": powers[j], "tau": t}
                for (i, j), t in sorted(taus.items())
            ],
            "ultrametric_checked": bool(args.check_ultrametric and len(axes) >= 3),
            "passed": passed,
            "violations": violations,
        }
    )
    out.table(["power_i", "power_j", "tau"], rows)
    out.emit()
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, eps: bool = True) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--csv", metavar="FILE", help="write a CSV table to FILE")
    if eps:
        p.add_argument("--eps", type=float, default=0.05, help="spine bound")
        p.add_argument("--budget", type=int, default=600, help="topology budget")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="outerspine",
        description="Distances, minima, axes, and contraction checks "
        "on the epsilon-spine of outer space.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translen", help="translation length of a word")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_translen)

    p = sub.add_parser("systole", help="shortest essential loop")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", action="store_true")
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_systole)

    p = sub.add_parser("candidates", help="candidate loops and lengths")
    p.add_argument("--graph", required=True)
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("dist", help="Lipschitz distance via candidates")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--sym", action="store_true", help="symmetrized distance")
    p.add_argument("--witness", action="store_true")
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("pair", help="length pairing of a tree and a current")
    p.add_argument("--tree", required=True)
    p.add_argument("--current", required=True)
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("iwip", help="power-iteration current pair")
    p.add_argument("--phi", required=True)
    p.add_argument("--seed", default="a", help="seed conjugacy class")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--base", help="base graph (default unit rose)")
    _add_common(p, eps=False)
    p.set_defaults(func=_cmd_iwip)

    p = sub.add_parser("min", help="minimize e^s mu + e^-s nu over the spine")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--start")
    p.add_argument("--out", help="write the minimizer graph JSON here")
    _add_common(p)
    p.set_defaults(func=_cmd_min)

    p = sub.add_parser("axis", help="sample the line of minima on an s-grid")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--start")
    p.add_argument("--points-dir", help="write per-sample graph JSONs here")
    _add_common(p)
    p.set_defaults(func=_cmd_axis)

    p = sub.add_parser("project", help="project a tree to the line of minima")
    p.add_argument("--tree", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser(
        "check-minisline", help="two-sided distance bound along the axis"
    )
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--b", type=float, help="constant; default: fitted")
    p.add_argument("--s-list", default="1,2,3,4,5,6")
    _add_common(p)
    p.set_defaults(func=_cmd_check_minisline)

    p = sub.add_parser(
        "check-contracting", help="sample the five contraction clauses"
    )
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
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
    p.set_defaults(func=_cmd_check_contracting)

    p = sub.add_parser(
        "ball-contract", help="projected diameter of sampled balls"
    )
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--radii", help="comma list; overrides --radius")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=_cmd_ball_contract)

    p = sub.add_parser("tau", help="overlap length of translated axes")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--x", required=True, help="observer point graph JSON")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--shift", help="automorphism JSON; axes are its powers")
    p.add_argument("--powers", default="0,1")
    p.add_argument("--from", type=float, default=-2.0)
    p.add_argument("--to", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--check-ultrametric", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_tau)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, SampleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
