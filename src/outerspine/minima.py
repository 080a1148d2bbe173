"""Lines of minima over the epsilon-spine.

Translation length is linear in edge lengths at fixed topology, so the
restriction of T -> <T, current> to one simplex of the spine is a linear
program: lengths on the volume-one simplex, one lower bound per embedded
cycle.  Minimization over the spine chains these LPs through collapse and
expansion moves; the search is local by design and every result says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .currents import RationalCurrent, apply_to_current, exp_combination, pairing
from .graphs import (
    LoopPath,
    MarkedGraph,
    collapse_zero_edges,
    crossing_vector,
    embedded_cycles,
    expansions,
    in_spine,
    rose,
    transform,
    with_lengths,
)
from .simplex import Infeasible, solve_lp
from .words import Word, elementary_automorphisms


class InfeasibleSpine(ValueError):
    """The epsilon bound cannot be met on this topology."""

    def __init__(self, msg: str, cycle: LoopPath):
        super().__init__(msg)
        self.cycle = cycle


@dataclass(frozen=True)
class MinResult:
    """Certified minimum of a current over (part of) the spine.

    ``certificate`` holds the LP duals on the final topology: first the
    volume-row dual, then one value per embedded cycle in enumeration
    order.  ``topology_visits`` counts the topologies the descent accepted
    (1 when the start was already optimal); the budget bounds LP solves,
    which probe many more.  ``local`` records that the topology search
    makes no global claim; ``budget_exhausted`` that it stopped on budget
    rather than at a local optimum.
    """

    point: MarkedGraph
    value: float
    topology_visits: int
    certificate: tuple[float, ...]
    eps: float
    local: bool = True
    budget_exhausted: bool = False


def _objective(g: MarkedGraph, current: RationalCurrent) -> list[Fraction]:
    obj = [Fraction(0)] * len(g.edges)
    for letters, weight in current.atoms:
        cv = crossing_vector(g, Word(g.rank, letters))
        wq = Fraction(weight)
        for i, e in enumerate(g.edges):
            if cv[e.id]:
                obj[i] += wq * cv[e.id]
    return obj


def _cycle_rows(g: MarkedGraph) -> tuple[list[list[Fraction]], list[LoopPath]]:
    cycles = embedded_cycles(g)
    rows = []
    for cyc in cycles:
        members = set(cyc.edge_ids())
        rows.append([Fraction(1 if e.id in members else 0) for e in g.edges])
    return rows, cycles


def max_systole_lengths(g: MarkedGraph) -> tuple[float, dict[str, float]]:
    """Volume-one lengths on this topology maximizing the systole.

    Used to certify infeasibility of an epsilon bound and as the blend
    target when samplers must repair a point back into the spine.
    """
    n = len(g.edges)
    rows, cycles = _cycle_rows(g)
    # variables: x_0..x_{n-1}, m; maximize m = minimize -m
    c = [Fraction(0)] * n + [Fraction(-1)]
    a_eq = [[Fraction(1)] * n + [Fraction(0)]]
    b_eq = [Fraction(1)]
    a_ge = [row + [Fraction(-1)] for row in rows]
    b_ge = [Fraction(0)] * len(rows)
    sol = solve_lp(c, a_eq, b_eq, a_ge, b_ge, tie_break_order=list(range(n)))
    lengths = {e.id: float(sol.x[i]) for i, e in enumerate(g.edges)}
    return float(-sol.value), lengths


def min_on_topology(g: MarkedGraph, current: RationalCurrent, eps: float) -> MinResult:
    """Exact minimum of the pairing over this topology's spine simplex.

    Infeasibility (epsilon larger than the topology's best systole) raises
    InfeasibleSpine naming a cycle that cannot reach epsilon.
    """
    if g.rank != current.rank:
        raise ValueError("rank mismatch")
    if not current:
        raise ValueError("cannot minimize the zero current")
    n = len(g.edges)
    rows, cycles = _cycle_rows(g)
    epsq = Fraction(eps)
    try:
        sol = solve_lp(
            _objective(g, current),
            [[Fraction(1)] * n],
            [Fraction(1)],
            rows,
            [epsq] * len(rows),
            tie_break_order=list(range(n)),
        )
    except Infeasible:
        best, lengths = max_systole_lengths(g)
        worst = min(
            cycles, key=lambda c: sum(lengths[e] for e in set(c.edge_ids()))
        )
        raise InfeasibleSpine(
            f"epsilon {eps} exceeds this topology's best systole {best:.6g}",
            worst,
        ) from None
    point = with_lengths(g, {e.id: float(sol.x[i]) for i, e in enumerate(g.edges)})
    return MinResult(
        point=point,
        value=float(sol.value),
        topology_visits=1,
        certificate=tuple(float(d) for d in sol.duals),
        eps=eps,
    )


def _zero_nonloop_edges(g: MarkedGraph) -> list[str]:
    return [e.id for e in g.edges if e.length == 0.0 and e.src != e.dst]


def minimize(
    current: RationalCurrent,
    eps: float,
    start: MarkedGraph,
    budget: int = 600,
) -> MinResult:
    """Descend through neighboring points of the spine from ``start``.

    Each step solves the LP, collapses the zero-length edges of the
    optimum, and tries that quotient, all its expansions, and its
    translates under the elementary automorphisms; it moves only on strict
    improvement (> 1e-9), so the descent terminates.  Expansions alone
    cannot walk along the axis of an exponential pair (that takes a change
    of marking), which is what the translates are for.  The result is a
    certified local minimum unless the budget ran out first.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not eps > 0:
        raise ValueError(f"eps must be positive, not {eps}")
    if not in_spine(start, eps):
        raise ValueError("start point is outside the epsilon-spine")
    gens = elementary_automorphisms(start.rank)
    solves = 0
    accepted = 1
    exhausted = False
    res = min_on_topology(start, current, eps)
    solves += 1
    seen: set = {start._topo.key}
    while not exhausted:
        # explore from the carrier topology: the optimum with its zero
        # faces collapsed away (a rose has no zero faces; explore anyway)
        zeros = _zero_nonloop_edges(res.point)
        carrier = collapse_zero_edges(res.point) if zeros else res.point
        neighbors: list[MarkedGraph] = [carrier] if zeros else []
        for v in carrier.vertices:
            if carrier.valence(v) >= 4:
                neighbors.extend(expansions(carrier, v))
        neighbors.extend(transform(carrier, psi) for psi in gens)
        best_move: MinResult | None = None
        for nb in neighbors:
            if nb._topo.key in seen:
                continue
            seen.add(nb._topo.key)
            if solves >= budget:
                exhausted = True
                break
            try:
                cand = min_on_topology(nb, current, eps)
            except InfeasibleSpine:
                continue
            solves += 1
            if best_move is None or (cand.value, cand.point.key()) < (
                best_move.value,
                best_move.point.key(),
            ):
                best_move = cand
        if best_move is None or best_move.value >= res.value - 1e-9:
            break
        res = best_move
        accepted += 1

    point = res.point
    certificate = res.certificate
    if _zero_nonloop_edges(point):
        collapsed = collapse_zero_edges(point)
        final = min_on_topology(collapsed, current, eps)
        solves += 1
        assert abs(final.value - res.value) <= 1e-9, "collapse changed the optimum"
        point, certificate = final.point, final.certificate
    return MinResult(
        point=point,
        value=res.value,
        topology_visits=accepted,
        certificate=certificate,
        eps=eps,
        local=True,
        budget_exhausted=exhausted,
    )


def balance_param(t: MarkedGraph, mu: RationalCurrent, nu: RationalCurrent) -> float:
    """The s with t balanced for (e^s mu, e^-s nu): equal pairings."""
    pm, pn = pairing(t, mu), pairing(t, nu)
    if pm <= 0 or pn <= 0:
        raise ValueError("balance needs positive pairings")
    return 0.5 * math.log(pn / pm)


@dataclass(frozen=True)
class AxisSample:
    """A sampled line of minima for the pair (mu, nu).

    samples: strictly increasing s, each with the minimizing spine point
    and objective value; the s -> +infinity end is the mu end (minimizing
    e^s mu dominates there).
    """

    mu: RationalCurrent
    nu: RationalCurrent
    samples: tuple[tuple[float, MarkedGraph, float], ...]
    eps: float
    step: float

    def s_values(self) -> tuple[float, ...]:
        return tuple(s for s, _, _ in self.samples)

    def points(self) -> tuple[MarkedGraph, ...]:
        return tuple(p for _, p, _ in self.samples)

    def nearest_index(self, s: float) -> int:
        return min(
            range(len(self.samples)), key=lambda i: abs(self.samples[i][0] - s)
        )


def axis(
    mu: RationalCurrent,
    nu: RationalCurrent,
    s_min: float,
    s_max: float,
    step: float,
    eps: float,
    budget: int = 600,
    start: MarkedGraph | None = None,
) -> AxisSample:
    """Sample Min(e^s mu + e^-s nu) on a grid, warm-starting each solve.

    Solves middle-out: the grid point nearest s = 0 is solved from
    ``start`` and each further point from its inward neighbor, so the
    per-solve topology budget is spent on one grid step, not on walking
    the whole axis from the far end.
    """
    if step <= 0 or s_max < s_min:
        raise ValueError("need step > 0 and s_max >= s_min")
    if start is None:
        start = rose([1.0 / mu.rank] * mu.rank)
    grid = []
    i = 0
    while True:
        s = s_min + i * step
        if s > s_max + 1e-9:
            break
        grid.append(s)
        i += 1
    if not grid:
        raise ValueError("empty sampling grid")
    mid = min(range(len(grid)), key=lambda i: (abs(grid[i]), i))
    found: dict[int, tuple[float, MarkedGraph, float]] = {}
    point = start
    for i in range(mid, len(grid)):
        res = minimize(exp_combination(mu, nu, grid[i]), eps, point, budget)
        found[i] = (grid[i], res.point, res.value)
        point = res.point
    point = found[mid][1]
    for i in range(mid - 1, -1, -1):
        res = minimize(exp_combination(mu, nu, grid[i]), eps, point, budget)
        found[i] = (grid[i], res.point, res.value)
        point = res.point
    samples = tuple(found[i] for i in range(len(grid)))
    return AxisSample(mu, nu, samples, eps, step)


def translate_axis(ax: AxisSample, phi) -> AxisSample:
    """Push a sampled axis through an automorphism.

    pairing(transform(g, phi), phi.mu) = pairing(g, mu) exactly, so the
    transformed samples are minimizers for the pushed pair at the same s
    and the same values; no re-solving is needed.
    """
    return AxisSample(
        mu=apply_to_current(phi, ax.mu),
        nu=apply_to_current(phi, ax.nu),
        samples=tuple((s, transform(p, phi), v) for s, p, v in ax.samples),
        eps=ax.eps,
        step=ax.step,
    )


def project(
    t: MarkedGraph,
    mu: RationalCurrent,
    nu: RationalCurrent,
    eps: float,
    budget: int = 600,
) -> MinResult:
    """The projection Pi(t): minimize the balanced combination at t.

    Balancing picks s* with t in Bal(e^s* mu, e^-s* nu); the minimum of
    that combination realizes the projection.  Deterministic through the
    LP tie-breaks even though the true Pi is only coarsely well defined.
    """
    s_star = balance_param(t, mu, nu)
    return minimize(exp_combination(mu, nu, s_star), eps, t, budget)
