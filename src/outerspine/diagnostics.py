"""Empirical certification of the contraction and axis inequalities.

Each checker samples the quantifiers of one statement and reports margins,
witnesses, and the exact sampling configuration (seed included) so a run
can be reproduced verbatim.  A failed clause carries the worst witness; it
is up to the caller to decide whether that demonstrates a genuine
non-contracting pair or an under-sampled one.

The checks about one line of minima (``fit_B``, ``check_contracting``,
``ball_projection_diameter``) take its sampled axis and read the pair
(mu, nu) and the spine bound eps off it, so they cannot disagree with the
axis they read; the caller walks it once (``minima.axis``) on the grid it
chooses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .currents import RationalCurrent, add, dual, normalize_at, pairing
from .graphs import MarkedGraph, candidates as graph_candidates, rescale, transform, unit_rose
from .lipschitz import d_sym, sigma_scale
from .minima import AxisSample, _walk, balance_param, minimize, project
from .sampling import (
    SampleError,
    balanced_point,
    jitter,
    random_automorphism,
    spine_points,
    ball_points,
)
from .words import Automorphism, NielsenMove, compose, elementary_automorphisms, power


# ---------------------------------------------------------------------------
# minisline bounds


@dataclass(frozen=True)
class MinislineRow:
    s: float
    distance: float
    lower: float
    upper: float

    @property
    def passed(self) -> bool:
        return self.lower - 1e-9 <= self.distance <= self.upper + 1e-9


@dataclass(frozen=True)
class MinislineReport:
    b: float
    rows: tuple[MinislineRow, ...]
    eps: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst_margin(self) -> float:
        return min(
            min(r.distance - r.lower, r.upper - r.distance) for r in self.rows
        )


def check_minisline(
    mu: RationalCurrent,
    nu: RationalCurrent,
    b: float,
    s_list: Sequence[float],
    eps: float,
    budget: int = 600,
) -> MinislineReport:
    """Two-sided bound 2s - 2 log b <= d_sym(x, y_s) <= 2s + 8 log b + 2 log 2.

    x minimizes mu + nu from the unit rose; y_s minimizes e^s mu + e^-s nu,
    walked over ``s_list`` in turn from x.  Parameters are taken at |s|
    since the pairing sum is symmetric under (s, mu, nu) -> (-s, nu, mu).
    """
    if not 1 <= b < math.inf:
        raise ValueError(f"b must be finite and at least 1, not {b}")
    if not s_list:
        raise ValueError("need at least one s to check")
    x = minimize(add(mu, nu), eps, unit_rose(mu.rank), budget).point
    rows = tuple(
        MinislineRow(
            s=s,
            distance=d_sym(x, y),
            lower=2 * abs(s) - 2 * math.log(b),
            upper=2 * abs(s) + 8 * math.log(b) + 2 * math.log(2),
        )
        for s, y, _ in _walk(mu, nu, s_list, eps, x, budget)
    )
    return MinislineReport(b=b, rows=rows, eps=eps)


# ---------------------------------------------------------------------------
# fitting the contraction constant


@dataclass(frozen=True)
class BFit:
    """Smallest representative-ratio bound seen along the sampled axis."""

    value: float
    s_at: float
    ratios: tuple[tuple[float, float], ...]
    eps: float


def fit_B(ax: AxisSample) -> BFit:
    """Fit the ratio clause: at each s the minimizer x_s of e^s mu + e^-s nu
    has representative ratio e^{2s} <x_s, mu> / <x_s, nu>; the fitted
    constant is the max of that ratio and its inverse over the axis's grid.

    The fitted value is insensitive to shifting the grid because x_{s+h}
    minimizes the pair rescaled by e^{+-h}, which leaves the ratio map
    unchanged up to the same shift.
    """
    mu, nu = ax.mu, ax.nu
    ratios = []
    value, s_at = 1.0, 0.0
    for s, pt, _ in ax.samples:
        r = math.exp(2 * s) * pairing(pt, mu) / pairing(pt, nu)
        ratios.append((s, r))
        m = max(r, 1.0 / r)
        if m > value:
            value, s_at = m, s
    return BFit(value=value, s_at=s_at, ratios=tuple(ratios), eps=ax.eps)


# ---------------------------------------------------------------------------
# the five contraction clauses


@dataclass(frozen=True)
class ClauseResult:
    clause: int
    passed: bool
    margin: float
    n_samples: int
    witness: str = ""
    vacuous: bool = False


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling plan for check_contracting; embedded in the report."""

    seed: int = 0
    near_step: float = 0.25
    n_far: int = 12
    far_depth: int = 24
    n_sigma: int = 10
    n_balanced: int = 3
    budget: int = 600
    shift: Automorphism | None = None
    beyond_offsets: tuple[float, ...] = (0.5, 1.5)


@dataclass(frozen=True)
class ContractionReport:
    b: float
    fitted: float
    clauses: tuple[ClauseResult, ...]
    eps: float
    config: SamplerConfig
    axis_points: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, k: int) -> ClauseResult:
        for c in self.clauses:
            if c.clause == k:
                return c
        raise KeyError(k)


def _twist_pairs(rank: int) -> list[Automorphism]:
    # powers of single twists move points only logarithmically fast; a pair
    # of opposite twists grows exponentially, reaching large radii cheaply
    out = []
    for t in range(1, rank + 1):
        for o in range(1, rank + 1):
            if o == t:
                continue
            out.append(
                Automorphism.from_moves(
                    rank,
                    [
                        NielsenMove("right_multiply", t, o, False),
                        NielsenMove("right_multiply", o, t, False),
                    ],
                )
            )
    return out


def _marking_size(g: MarkedGraph) -> int:
    return sum(len(g.comarking_word(e.id)) for e in g.edges)


def _far_points(
    x: MarkedGraph,
    b: float,
    rng: random.Random,
    eps: float,
    cfg: SamplerConfig,
) -> list[MarkedGraph]:
    """Spine points beyond distance b from x: powered twists of x (the
    systole is twist-invariant, so these stay in the spine), jittered
    variants of those, and random-walk pushes of fresh seeds."""
    found: list[MarkedGraph] = []
    twists = [
        phi for phi in elementary_automorphisms(x.rank)
        if len(phi.moves) == 1 and phi.moves[0].kind == "right_multiply"
    ]
    for phi in twists + _twist_pairs(x.rank):
        # doubling power schedule: distances past any reachable b show up
        # within ~12 squarings instead of thousands of unit steps, and an
        # unreachable b fails fast at the size guard, which must fire on
        # the automorphism itself (squaring once more would square the
        # letter count, not add to it)
        psi = phi
        for _ in range(cfg.far_depth):
            if sum(len(img) for img in psi.images) > 4000:
                break
            g = transform(x, psi)
            if d_sym(x, g) > b:
                found.append(g)
                found.append(jitter(g, rng, 0.3, eps))
                break
            psi = compose(psi, psi)
    for g in spine_points(x.rank, eps, rng.randrange(1 << 30), cfg.n_far):
        h = g
        for _ in range(cfg.far_depth):
            if _marking_size(h) > 20000:
                break
            if d_sym(x, h) > b:
                found.append(h)
                break
            h = transform(h, random_automorphism(rng, x.rank, 1))
    return found


def check_contracting(
    ax: AxisSample,
    b: float,
    config: SamplerConfig | None = None,
) -> ContractionReport:
    """Sample all five contraction clauses for the pair of ``ax`` at constant b.

    1. Balanced-representative ratio along the axis stays within [1/b, b].
    2. Spine points beyond distance b from the central minimizer x pair at
       least twice as much with mu + nu as x does.
    3. Minimizers for |s| <= 1 stay within distance b of x.
    4. Every sampled tree, scaled to pair one with x's length current,
       pairs at least 1/b with the normalized mu + nu.
    5. Normalized candidate duals of sampled balanced spine trees pair at
       least 1/b with scaled trees balanced beyond |s| > b.

    Clause samples that cannot be realized leave the clause vacuously
    passed with vacuous=True and zero samples; failures carry witnesses.

    ``ax`` is the sampled axis of the pair (mu, nu) at spine bound eps:
    clause 1 fits it, its sample nearest s = 0 is x, and the other clauses
    read mu, nu and eps off it.  Its grid is the caller's choice; the
    command line walks -s_max..s_max by ``--step``.
    """
    if not 1 <= b < math.inf:
        raise ValueError(f"b must be finite and at least 1, not {b}")
    cfg = config if config is not None else SamplerConfig()
    if not cfg.near_step > 0:
        raise ValueError(f"near_step must be positive, not {cfg.near_step}")
    rng = random.Random(cfg.seed)
    mu, nu, eps = ax.mu, ax.nu, ax.eps
    fitted = fit_B(ax)
    x = ax.samples[ax.nearest_index(0.0)][1]
    clauses: list[ClauseResult] = []

    # clause 1: ratio bound, taken from the fit
    clauses.append(
        ClauseResult(
            clause=1,
            passed=fitted.value <= b + 1e-9,
            margin=b - fitted.value,
            n_samples=len(fitted.ratios),
            witness=f"ratio {fitted.value:.6g} at s={fitted.s_at:+.3g}",
        )
    )

    # clause 2: doubling beyond radius b
    both = add(mu, nu)
    px = pairing(x, both)
    far = _far_points(x, b, rng, eps, cfg)
    if far:
        ratios2 = [(pairing(y, both) / px, y) for y in far]
        worst, wy = min(ratios2, key=lambda t: t[0])
        clauses.append(
            ClauseResult(
                clause=2,
                passed=worst >= 2 - 1e-9,
                margin=worst - 2,
                n_samples=len(far),
                witness=f"pairing ratio {worst:.6g} at point with "
                f"{len(wy.edges)} edges, d_sym {d_sym(x, wy):.4g}",
            )
        )
    else:
        clauses.append(
            ClauseResult(2, True, math.inf, 0, "no point beyond radius reached", True)
        )

    # clause 3: central stability for |s| <= 1
    near = []
    s = -1.0
    while s <= 1.0 + 1e-9:
        near.append(s)
        s += cfg.near_step
    worst_d, worst_s3 = 0.0, 0.0
    for s, y, _ in _walk(mu, nu, near, eps, x, cfg.budget):
        dxy = d_sym(x, y)
        if dxy > worst_d:
            worst_d, worst_s3 = dxy, s
    clauses.append(
        ClauseResult(
            clause=3,
            passed=worst_d <= b + 1e-9,
            margin=b - worst_d,
            n_samples=len(near),
            witness=f"d_sym {worst_d:.6g} at s={worst_s3:+.3g}",
        )
    )

    # clause 4: normalized representatives pair >= 1/b on the section at x
    mu_t = normalize_at(x, mu)
    nu_t = normalize_at(x, nu)
    both_t = add(mu_t, nu_t)
    trees = [x] + spine_points(x.rank, eps, cfg.seed + 1, cfg.n_sigma)
    vals4 = [(pairing(rescale(t, sigma_scale(x, t)), both_t), t) for t in trees]
    worst4, wt4 = min(vals4, key=lambda t: t[0])
    clauses.append(
        ClauseResult(
            clause=4,
            passed=worst4 >= 1 / b - 1e-9,
            margin=worst4 - 1 / b,
            n_samples=len(trees),
            witness=f"pairing {worst4:.6g} on tree with {len(wt4.edges)} edges",
        )
    )

    # clause 5: candidate duals of balanced trees versus far-balanced trees
    shift_pool: list[Automorphism] = []
    if cfg.shift is not None:
        for k in range(1, 7):
            shift_pool.append(power(cfg.shift, k))
            shift_pool.append(power(cfg.shift, -k))
    xs: list[RationalCurrent] = []
    seen: set = set()
    for j in range(cfg.n_balanced):
        try:
            z = balanced_point(
                mu, nu, 0.0, cfg.seed + 100 + j, eps, markings=shift_pool
            )
        except SampleError:
            continue
        for _loop, w in graph_candidates(z):
            xi = normalize_at(x, dual(w))
            key = xi.atoms
            if key not in seen:
                seen.add(key)
                xs.append(xi)
    far_trees: list[MarkedGraph] = []
    for off in cfg.beyond_offsets:
        for sgn in (1, -1):
            try:
                far_trees.append(
                    balanced_point(
                        mu,
                        nu,
                        sgn * (b + off),
                        cfg.seed + 200 + round(10 * off) + sgn,
                        eps,
                        markings=shift_pool,
                    )
                )
            except SampleError:
                continue
    if xs and far_trees:
        worst5 = math.inf
        wit5 = ""
        for t in far_trees:
            tt = rescale(t, sigma_scale(x, t))
            sb = balance_param(t, mu, nu)
            for xi in xs:
                v = pairing(tt, xi)
                if v < worst5:
                    worst5 = v
                    wit5 = (
                        f"pairing {v:.6g} with dual of "
                        f"{xi.classes()[0]} at balance {sb:+.3g}"
                    )
        clauses.append(
            ClauseResult(
                clause=5,
                passed=worst5 >= 1 / b - 1e-9,
                margin=worst5 - 1 / b,
                n_samples=len(xs) * len(far_trees),
                witness=wit5,
            )
        )
    else:
        clauses.append(
            ClauseResult(
                5,
                True,
                math.inf,
                0,
                "no balanced samples reached the far range",
                True,
            )
        )

    return ContractionReport(
        b=b,
        fitted=fitted.value,
        clauses=tuple(clauses),
        eps=eps,
        config=cfg,
        axis_points=len(ax.samples),
    )


# ---------------------------------------------------------------------------
# projections of balls


@dataclass(frozen=True)
class BallProjection:
    diameter: float
    n_samples: int
    n_distinct: int
    center_distance_to_axis: float
    radius: float


def ball_projection_diameter(
    ax: AxisSample,
    center: MarkedGraph,
    radius: float,
    n_samples: int,
    seed: int = 0,
    budget: int = 600,
) -> BallProjection:
    """Diameter of a sampled ball's projection to the minima line of the
    pair of ``ax``, sampled and projected at the spine bound of ``ax``.

    Requires the ball to be disjoint from the sampled axis; otherwise the
    projection diameter conflates travel along the line with contraction
    and the comparison is meaningless, so that is an error, not a result.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample per ball, not {n_samples}")
    gap = min(d_sym(center, p) for p in ax.points())
    if gap <= radius:
        raise ValueError(
            f"ball of radius {radius} meets the sampled axis "
            f"(center-to-axis distance {gap:.6g})"
        )
    pts = ball_points(center, radius, n_samples, seed, ax.eps)
    projected: dict = {}
    for p in pts:
        q = project(p, ax.mu, ax.nu, ax.eps, budget).point
        projected[q.key()] = q
    qs = list(projected.values())
    diam = 0.0
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            diam = max(diam, d_sym(qs[i], qs[j]))
    return BallProjection(
        diameter=diam,
        n_samples=len(pts),
        n_distinct=len(qs),
        center_distance_to_axis=gap,
        radius=radius,
    )


# ---------------------------------------------------------------------------
# the overlap length tau


def _ray(
    ax: AxisSample, origin: float, toward_high: bool
) -> tuple[MarkedGraph, ...]:
    """Samples from the grid point nearest the origin out to one end."""
    k = ax.nearest_index(origin)
    pts = ax.points()
    return pts[k:] if toward_high else pts[: k + 1][::-1]


def _close(p: MarkedGraph, q: MarkedGraph, c: float) -> bool:
    """Whether p and q are within 2c.  A point is at distance 0 from
    itself: ``d_sym`` rounds that to about 1e-16 on some points, and
    ``c = 0`` on equal axes needs the 0."""
    return (0.0 if p == q else d_sym(p, q)) <= 2 * c


def _max_run(
    ra: Sequence[MarkedGraph],
    rb: Sequence[MarkedGraph],
    step: float,
    c: float,
    first: int = 0,
) -> float:
    """Longest parameter interval [0, t] with the two ray prefixes within
    sampled Hausdorff 2c of each other.

    A point's distance to the other prefix only falls as that prefix
    grows, so while the run lasts every earlier point stays within 2c, and
    a step only asks whether each new point lies within 2c of the other
    prefix; each pair is measured at most once.  The prefixes of length
    ``first`` are taken as already within 2c (``overlap_tau`` measures the
    origins its two pairs of rays share once).
    """
    best = first - 1
    for j in range(first, min(len(ra), len(rb))):
        a, b = ra[j], rb[j]
        if _close(a, b, c) or (
            any(_close(a, q, c) for q in rb[:j]) and any(_close(p, b, c) for p in ra[:j])
        ):
            best = j
        else:
            break
    return best * step if best >= 0 else 0.0


def overlap_tau(
    axis_a: AxisSample,
    axis_b: AxisSample,
    x: MarkedGraph,
    c: float,
) -> float:
    """Overlap length tau of two sampled axes as seen from x.

    Splits each axis at the parameter of x's balance foot into two rays,
    pairs rays end-to-end (high with high, low with low), and returns the
    larger of the two maximal fellow-traveling interval lengths at
    tolerance 2c.
    """
    if abs(axis_a.step - axis_b.step) > 1e-12:
        raise ValueError("axes must share the sampling step")
    foot_a = balance_param(x, axis_a.mu, axis_a.nu)
    foot_b = balance_param(x, axis_b.mu, axis_b.nu)
    rays = [
        (_ray(axis_a, foot_a, toward_high), _ray(axis_b, foot_b, toward_high))
        for toward_high in (True, False)
    ]
    # both rays of an axis start at its sample nearest the foot, so the
    # two directions share their first pair
    (high_a, high_b), _ = rays
    if not _close(high_a[0], high_b[0], c):
        return 0.0
    return max(_max_run(ra, rb, axis_a.step, c, first=1) for ra, rb in rays)
