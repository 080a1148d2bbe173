"""Lines of minima over the epsilon-spine.

Translation length is linear in edge lengths at fixed topology, so the
restriction of T -> <T, current> to one simplex of the spine is a linear
program: lengths on the volume-one simplex, one lower bound per embedded
cycle.  Its feasible region depends only on the cycle rows and epsilon, and
many topologies share one region, so each region's vertices are enumerated
once (exactly, by double description) and a topology's minimum is its
region's least vertex.  ``_read_off`` alone turns a topology's key, cost
and rows into that vertex's value, point key and checked build.
Minimization chains these minima through collapse and expansion moves and
changes of marking; the search is local by design.  A descent stops at a
local minimum; a cap on the topologies it accepts only guards a current
that does not fill, and a result says when it fired.  ``minimize`` reads
each neighbour off the carrier it stands on and builds only the one it
moves to.  A translate under an automorphism psi keeps the carrier's
edges, so its region; it marks x_k by the carrier's path of psi^-1(x_k),
so each atom a crosses its edges as the carrier's loop of psi^-1(a)
does, read under the carrier's letter paths.  An expansion keeps every
old edge's crossing count, its fresh edge is crossed once per turn
between the two sides of the split, and its region is read off the
carrier's cycles.  So ``min_on_topology`` runs once per descent, for its
start, and a descent ends on its last carrier.

What a neighbour's cost is made of does not depend on the weights: its
topology key, each atom's crossing counts, its rows and the move that
builds it.  These are read once per carrier topology into a neighbour
table (``_neighbour_table``), kept in a module dict by the carrier's
topology key, and every later descent that stands on a carrier of that
key only weighs it: a cost is the atoms' weights times their counts, the
same integers the carrier's loops give.  The tables hold one atom set at
a time, and a descent that weighs another clears them; a command weighs
one pair (mu, nu), whose walks and projections stand on the same
carriers again and again, so nothing is read twice.  A table holds no
graph: the one point a descent moves to is built from the carrier it
stands on.

A line of minima is walked one way (``_walk``): each s warm-started from
the previous minimizer, on a grid that must strictly increase
(``_grid``).  The simplex runs only for what vertices do not give: the
duals of ``certificate`` and the best systole of ``max_systole_lengths``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .currents import RationalCurrent, apply_to_current, exp_combination, pairing
from .graphs import (
    LoopPath,
    MarkedGraph,
    OrientedEdge,
    _fresh_names,
    _partitions,
    _point_key,
    _split,
    _split_parts,
    _tight_loop,
    collapse_zero_edges,
    embedded_cycles,
    in_spine,
    transform,
    unit_rose,
    with_lengths,
)
from .simplex import solve_lp
from .words import Automorphism, Word, _reduced_word, _substitute, elementary_automorphisms


class InfeasibleSpine(ValueError):
    """The epsilon bound cannot be met on this topology."""

    def __init__(self, msg: str, cycle: LoopPath):
        super().__init__(msg)
        self.cycle = cycle


class MinResult(NamedTuple):
    """Minimum of a current over (part of) the spine.

    ``point`` is the least vertex of its topology's region, which
    ``certificate`` certifies.  ``topology_visits`` counts the topologies
    the descent accepted (1 when the start was already optimal), which the
    budget caps.  The search is local, so ``point`` is a local optimum
    unless ``budget_exhausted``: the descent stopped at the cap while a
    neighbour was still better.
    """

    point: MarkedGraph
    value: float
    topology_visits: int
    eps: float
    budget_exhausted: bool = False


def _weights(current: RationalCurrent) -> tuple[list[int], int]:
    """Each atom's weight as an integer over one scale.

    Each float weight is p / q exactly (``as_integer_ratio``), so clearing
    the q's once gives exact integers.
    """
    if not current:
        raise ValueError("cannot minimize the zero current")
    ratios = [weight.as_integer_ratio() for _, weight in current.atoms]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def _atom_loops(g: MarkedGraph, current: RationalCurrent) -> list[tuple[OrientedEdge, ...]]:
    """Each atom's tight cyclic loop in ``g``, the loop ``loop_of`` gives,
    under its topology's cached letter paths."""
    table = g._topo.letter_paths
    return [_tight_loop(table, letters) for letters, _ in current.atoms]


def _tally(loops, weights: list[int], index: dict[str, int]) -> list[int]:
    """The weighted crossing count of each edge, in ``index`` order."""
    cost = [0] * len(index)
    for loop, w in zip(loops, weights):
        for eid, _ in loop:
            cost[index[eid]] += w
    return cost


def _objective(g: MarkedGraph, current: RationalCurrent) -> tuple[list[int], int]:
    """The pairing's cost per edge of ``g``, as integers over one scale:
    each edge's crossing count by each atom's loop, times its weight."""
    if g.rank != current.rank:
        raise ValueError("rank mismatch")
    weights, scale = _weights(current)
    return _tally(_atom_loops(g, current), weights, g._topo.index), scale


def _turns(c: MarkedGraph, loops, weights: list[int]) -> dict[str, list]:
    """Per vertex of ``c``, the weighted turns of the loops there:
    (weight, the edge end a loop comes in by, the end it leaves by), with
    ends named as in ``_partitions``."""
    ends = c._topo.graph.ends
    out: dict[str, list] = {}
    for loop, w in zip(loops, weights):
        for (a, sa), (b, sb) in zip(loop, loop[1:] + loop[:1]):
            out.setdefault(ends[a][sa > 0], []).append((w, (a, int(sa > 0)), (b, int(sb < 0))))
    return out


def _expansion_cost(
    base: dict[str, int], turns: list, shape: tuple, new_e: str, moved: set
) -> list[int]:
    """The cost of a splitting in the edge order of its ``shape``, read off
    the carrier.

    Collapsing the fresh edge maps tight loops to tight loops, so every old
    edge keeps its carrier cost ``base``.  A loop crosses the fresh edge
    once per turn at the split vertex whose two ends lie on different sides
    (Whitehead 1936; Culler and Vogtmann 1986).
    """
    fresh = sum(w for w, a, b in turns if (a in moved) != (b in moved))
    return [fresh if eid == new_e else base[eid] for eid, _, _ in shape]


# -- spine polytopes ----------------------------------------------------------
#
# The region {x >= 0, sum x = 1, row . x >= eps for every cycle row} is a
# polytope.  A vertex is kept as an integer ray x with point x / sum(x),
# together with its tight set: bit i for x_i >= 0, bit n + k for row k.


@functools.cache
def _vertices(n: int, rows: tuple[int, ...], eps: float) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The region's vertices as integer numerators over one denominator.

    Incremental double description (Motzkin et al. 1953; Fukuda and Prodon
    1996): start from the simplex's unit vectors and cut by one row at a
    time.  A cut keeps the vertices on its side and adds a point on every
    edge it crosses; u and v span an edge unless another vertex is tight
    wherever both are (a necessary count, n - 2 common tight constraints,
    filters first).  No vertices means the region is empty.
    """
    p, q = eps.as_integer_ratio()
    verts = [
        (tuple(int(i == j) for i in range(n)), ((1 << n) - 1) & ~(1 << j))
        for j in range(n)
    ]
    for k, row in enumerate(rows):
        idx = [i for i in range(n) if row >> i & 1]
        plus, minus, kept = [], [], []
        for x, z in verts:
            s = q * sum(x[i] for i in idx) - p * sum(x)
            if s > 0:
                plus.append((x, z, s))
                kept.append((x, z))
            elif s < 0:
                minus.append((x, z, s))
            else:
                kept.append((x, z | 1 << (n + k)))
        tight = [z for _, z in verts]
        for xp, zp, sp in plus:
            for xm, zm, sm in minus:
                common = zp & zm
                if common.bit_count() < n - 2:
                    continue
                if sum(1 for z in tight if z & common == common) > 2:
                    continue
                w = [sp * b - sm * a for a, b in zip(xp, xm)]
                g = math.gcd(*w)
                kept.append((tuple(v // g for v in w), common | 1 << (n + k)))
        verts = kept
        if not verts:
            break
    den = math.lcm(*(sum(x) for x, _ in verts)) if verts else 1
    return den, tuple(tuple(v * (den // sum(x)) for v in x) for x, _ in verts)


def _argmin(
    cost: list[int], n: int, rows: tuple[int, ...], eps: float | Fraction
) -> tuple[int, int, tuple[int, ...]] | None:
    """The least (cost . x, x) over the region's vertices x / den, in
    integers: (cost . x, den, x), or None if the region is empty.

    The lexicographically least point of the optimal face is a vertex, so
    this is the LP's value and its lexicographically least optimal point:
    the least x among the vertices of least dot product.
    """
    den, verts = _vertices(n, rows, eps)
    if not verts:
        return None
    dots = [sum(map(operator.mul, cost, x)) for x in verts]
    dot = min(dots)
    return dot, den, min(x for x, d in zip(verts, dots) if d == dot)


def _least_vertex(
    cost: list[int], scale: int, n: int, rows: tuple[int, ...], eps: float | Fraction
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """``_argmin`` as exact fractions: the least (cost . v / scale, v)
    over the region's vertices v, or None."""
    hit = _argmin(cost, n, rows, eps)
    if hit is None:
        return None
    dot, den, x = hit
    return Fraction(dot, scale * den), tuple(Fraction(v, den) for v in x)


@functools.cache
def _max_systole(n: int, rows: tuple[int, ...]) -> tuple[Fraction, tuple[Fraction, ...]]:
    # variables: x_0..x_{n-1}, m; maximize m = minimize -m.  The region at
    # eps = t* is the LP's optimal face; its least vertex is the point.
    c = [0] * n + [-1]
    a_ge = [[row >> i & 1 for i in range(n)] + [-1] for row in rows]
    best = -solve_lp(c, [[1] * n + [0]], [1], a_ge, [0] * len(rows)).value
    return best, _least_vertex([0] * n, 1, n, rows, best)[1]


def max_systole_lengths(g: MarkedGraph) -> tuple[float, tuple[float, ...]]:
    """(best systole, volume-one edge-order lengths maximizing it) on this topology.

    Used to certify infeasibility of an epsilon bound and as the blend
    target when samplers must repair a point back into the spine.  The
    answer depends only on the cycle rows, so it is solved once per rows.
    """
    best, x = _max_systole(len(g.edges), g._topo.graph.rows)
    return float(best), tuple(map(float, x))


def balanced_lengths(
    g: MarkedGraph, mu: RationalCurrent, nu: RationalCurrent, s: float, eps: float
) -> tuple[float, ...] | None:
    """Spine-interior lengths, in edge order, on ``g``'s topology where
    <l, nu> = e^(2s) <l, mu>, or None.  The gap <l, nu> - e^(2s) <l, mu>
    (times e^(-2s) when s > 0, so it stays finite) is linear in l: from the
    interior systole-maximal centre c take the region vertex v at its far
    extreme, first on ties, and return the gap's zero on the segment c v.
    """
    best, centre = max_systole_lengths(g)
    if best <= eps:
        return None
    (cm, sm), (cn, sn) = _objective(g, mu), _objective(g, nu)
    a, b = (math.exp(-2 * s), 1.0) if s > 0 else (1.0, math.exp(2 * s))
    coef = [a * (n / sn) - b * (m / sm) for m, n in zip(cm, cn)]
    gap = lambda lengths: sum(k * v for k, v in zip(coef, lengths))
    if (at_c := gap(centre)) == 0:
        return centre
    den, verts = _vertices(len(g.edges), g._topo.graph.rows, eps)
    v = (min if at_c > 0 else max)(([x / den for x in vert] for vert in verts), key=gap)
    if (at_v := gap(v)) * at_c >= 0:
        return None
    t = at_c / (at_c - at_v)
    return tuple((1 - t) * p + t * q for p, q in zip(centre, v))


def min_on_topology(g: MarkedGraph, current: RationalCurrent, eps: float) -> MinResult:
    """Exact minimum of the pairing over this topology's spine simplex:
    the least vertex of its region, lexicographically least among ties,
    read off ``g``'s key, cost and rows by ``_read_off``.

    Infeasibility (epsilon larger than the topology's best systole) raises
    InfeasibleSpine naming a cycle that cannot reach epsilon.
    """
    cost, scale = _objective(g, current)
    hit = _read_off(g._topo.key, cost, scale, g._topo.graph.rows, eps, lambda: g)
    if hit is None:
        best, lengths = max_systole_lengths(g)
        at = g._topo.graph.cycle_lengths(lengths)
        worst = embedded_cycles(g)[at.index(min(at))]
        raise InfeasibleSpine(
            f"epsilon {eps} exceeds this topology's best systole {best:.6g}",
            worst,
        )
    value, _, build = hit
    return MinResult(point=build(), value=value, topology_visits=1, eps=eps)


def certificate(g: MarkedGraph, current: RationalCurrent, eps: float) -> tuple[float, ...]:
    """LP duals certifying ``min_on_topology`` on ``g``'s topology: first
    the volume-row dual, then one value per embedded cycle in enumeration
    order.  By strong duality the volume dual plus eps times the cycle
    duals is the minimum.  The region must not be empty.
    """
    cost, scale = _objective(g, current)
    n = len(g.edges)
    rows = [[mask >> i & 1 for i in range(n)] for mask in g._topo.graph.masks]
    sol = solve_lp(
        [Fraction(c, scale) for c in cost],
        [[1] * n],
        [1],
        rows,
        [Fraction(eps)] * len(rows),
    )
    return tuple(float(d) for d in sol.duals)


def _read_off(key: tuple, cost: list[int], scale: int, rows: tuple[int, ...], eps: float, graph):
    """A topology's least vertex read off its key, cost and rows, with no
    graph built: (value, point key, build), or None when the region is
    empty.  The floats are ``_argmin``'s integers divided once, each the
    correctly rounded float of ``_least_vertex``'s fraction.  The returned
    build makes the point from ``graph()``, a graph of this topology, with
    the vertex's lengths, and checks that it is the point read."""
    hit = _argmin(cost, len(cost), rows, eps)
    if hit is None:
        return None
    dot, den, x = hit
    lengths = [v / den for v in x]
    point_key = _point_key(key, lengths)

    def make() -> MarkedGraph:
        point = with_lengths(graph(), lengths)
        assert point.key() == point_key, "a probe disagrees with its graph"
        return point

    return dot / (scale * den), point_key, make


# The neighbour table of each carrier topology read so far, by its key, all
# for one atom set, ``_table_atoms`` (see ``_neighbour_table``); and one
# copy of each tuple they hold (``_shared``)
_tables: dict[tuple, tuple] = {}
_table_atoms: tuple = ()
_pool: dict[tuple, tuple] = {}


def _shared(x: tuple, items: bool = False) -> tuple:
    """The tables' one copy of ``x``, made of the tables' copies of its
    items when ``items``: nearby carriers' neighbours share most of their
    marking paths and steps, shapes, rows and counts."""
    got = _pool.get(x)
    if got is None:
        got = tuple(map(_pool.setdefault, x, x)) if items else x
        _pool[got] = got
    return got


def _lean(key: tuple) -> tuple:
    """A neighbour's topology key made of the tables' shared shape,
    marking paths and steps (``_shared``); keys themselves rarely repeat."""
    rank, shape, basepoint, marking = key
    return rank, _shared(shape, True), basepoint, tuple(_shared(path, True) for path in marking)


def _atom_counts(counts) -> tuple:
    """Each atom's crossing counts as the tables' shared tuples."""
    return _shared(tuple(map(tuple, counts)), True)


def _neighbour_table(carrier: MarkedGraph, current: RationalCurrent) -> tuple:
    """The carrier's neighbours, weight-free: one entry (topology key,
    per-atom crossing counts, rows, move) per neighbour in probe order, its
    expansions, then its translates under ``_elementary``.  Each atom's
    counts are in the neighbour's edge order.  A move is (vertex, moved
    ends) for a splitting, or the translate's index in the generators.

    Nothing here depends on the atoms' weights, so the table is read once
    per carrier topology key and shared by every descent that weighs the
    same atoms: the walks and projections of one pair (mu, nu) stand on
    the same carriers again and again.  It holds no graph and no build.
    The tables hold one atom set at a time; a descent that weighs another
    clears them."""
    global _table_atoms
    atoms = tuple(letters for letters, _ in current.atoms)
    if atoms != _table_atoms:
        _tables.clear()
        _pool.clear()
        _table_atoms = atoms
    table = _tables.get(carrier._topo.key)
    if table is None:
        table = _tables[carrier._topo.key] = tuple(_read_neighbours(carrier, current))
    return table


def _read_neighbours(carrier: MarkedGraph, current: RationalCurrent):
    """``_neighbour_table``'s entries, each read off the carrier with
    nothing built, graph or search: an expansion's counts off the carrier's
    atom loops (``_expansion_cost``) and its rows off the carrier's cycles
    (``_Graph.split_rows``); a translate under psi, which keeps the
    carrier's edges and so its rows, with each atom a's counts read as
    those of the carrier's loop of psi^-1(a) (``counts_of``), under the
    carrier's cached letter paths.  That is exact, the same integers the
    translate's own loop of a gives: the translate marks x_k by the
    carrier's tight path of psi^-1(x_k), so a's loop there is the tight
    loop of psi^-1(a) in the carrier.  Each psi of ``_elementary``
    carries its inverse's substitution table."""
    topo = carrier._topo
    graph, index = topo.graph, topo.index
    loops = _atom_loops(carrier, current)
    counts = [_tally([loop], [1], index) for loop in loops]
    bases = [dict(zip(index, c)) for c in counts]
    turns = [_turns(carrier, [loop], [1]) for loop in loops]
    new_v, new_e = _fresh_names(carrier)
    at = sum(eid < new_e for eid in index)
    for v in carrier.vertices:
        if carrier.valence(v) < 4:
            continue
        for moved in _partitions(carrier, v):
            shape, marking = _split_parts(carrier, v, new_v, new_e, moved)
            yield (
                _lean(topo.key_of(shape, marking)),
                _atom_counts(
                    _expansion_cost(base, t.get(v, []), shape, new_e, moved)
                    for base, t in zip(bases, turns)
                ),
                _shared(graph.split_rows(v, moved, at)),
                (v, _shared(tuple(sorted(moved)), True)),
            )
    gens, preimages = _elementary(carrier.rank)
    for i, (psi, imgs) in enumerate(zip(gens, preimages)):
        marking = tuple(carrier.path_of(w) for w in imgs)
        yield (
            _lean(topo.key_of(graph.shape, marking)),
            _atom_counts(
                topo.counts_of(_reduced_word(topo.rank, _substitute(letters, psi._inverse_table)))
                for letters, _ in current.atoms
            ),
            _shared(graph.rows),
            i,
        )


def _neighbor_probes(carrier: MarkedGraph, current: RationalCurrent, eps: float, seen: set):
    """(topology key, move) per neighbour of the carrier whose key is not
    in ``seen``, in probe order, adding each key to ``seen``.  The
    neighbours are the carrier's ``_neighbour_table``, read on the first
    pass over a carrier of this topology key and kept, with the tables of
    every other carrier, until a descent weighs other atoms; this only
    weighs it.  A neighbour's cost is its atoms' crossing counts times
    their weights, and its move is ``_read_off`` of that cost and its
    rows, read as soon as its key is new.  The build is bound to this
    carrier, so a point built, comarking included, is a move of the graph
    the descent stands on.  A topology already seen costs no more than its
    key."""
    weights, scale = _weights(current)
    gens = _elementary(carrier.rank)[0]
    new_v, new_e = _fresh_names(carrier)
    for key, counts, rows, move in _neighbour_table(carrier, current):
        if key in seen:
            continue
        seen.add(key)
        if type(move) is int:
            build = functools.partial(transform, carrier, gens[move])
        else:
            build = functools.partial(_split, carrier, move[0], new_v, new_e, move[1])
        cost = [sum(map(operator.mul, weights, col)) for col in zip(*counts)]
        yield key, _read_off(key, cost, scale, rows, eps, build)


@functools.cache
def _elementary(rank: int) -> tuple[tuple[Automorphism, ...], tuple[tuple[Word, ...], ...]]:
    """The elementary automorphisms of F_rank, each with the images of the
    generators under its inverse, read off ``inverse_images``; built on
    first use, once per rank."""
    gens = elementary_automorphisms(rank)
    return gens, tuple(tuple(_reduced_word(rank, img) for img in psi.inverse_images) for psi in gens)


def minimize(
    current: RationalCurrent,
    eps: float,
    start: MarkedGraph,
    budget: int = 600,
) -> MinResult:
    """Descend through neighboring points of the spine from ``start`` to a
    local minimum.

    Each step collapses the optimum's zero-length edges into the carrier
    and reads the least vertex of every expansion of the carrier and of
    every translate under the elementary automorphisms, skipping empty
    regions; expansions alone cannot walk along the axis of an exponential
    pair, which takes a change of marking.  Neighbours are read off the
    carrier (``_neighbor_probes``) and built only when the descent moves to
    one, so ``min_on_topology`` runs once, for the start.  What they are
    made of is read once per carrier topology key and atom set, into a
    neighbour table kept across descents until one weighs other atoms
    (``_neighbour_table``); each step only weighs its carrier's table.  The
    carrier itself is not read: its region is the face x_Z = 0 of the
    optimum's (Z the collapsed edges), so it never improves.

    The descent moves to the best neighbour on strict improvement
    (> 1e-9) and stops when none improves.  It terminates: each move
    strictly lowers the value, ``seen`` never repeats a topology, and when
    the current fills (the paper's positivity hypothesis for mu + nu) the
    pairing is positive on the thick part (Kapovich and Lustig 2009,
    2010), so its sublevel sets meet finitely many simplices of the
    locally finite spine (Culler and Vogtmann 1986).  ``budget`` caps the
    accepted topologies (``topology_visits``) so that a current that does
    not fill cannot run on; ``budget_exhausted`` says that a better
    neighbour remained at the cap.

    The descent returns its last carrier, which holds the optimum; the
    lexicographic tie-break ignores zero coordinates, so the carrier is
    its topology's least vertex with no second solve.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not eps > 0:
        raise ValueError(f"eps must be positive, not {eps}")
    if not in_spine(start, eps):
        raise ValueError("start point is outside the epsilon-spine")
    # raises InfeasibleSpine: in_spine's tolerance admits empty regions
    here = min_on_topology(start, current, eps)
    value, point = here.value, here.point
    accepted = 1
    seen: set = {start._topo.key}
    while True:
        carrier = collapse_zero_edges(point)
        seen.add(carrier._topo.key)
        moves = _neighbor_probes(carrier, current, eps, seen)
        best = min((m for _, m in moves if m is not None), key=lambda m: m[:2], default=None)
        improves = best is not None and best[0] < value - 1e-9
        if not improves or accepted >= budget:
            break
        value, point = best[0], best[2]()
        accepted += 1
    return MinResult(
        point=carrier,
        value=value,
        topology_visits=accepted,
        eps=eps,
        budget_exhausted=improves,
    )


def balance_param(t: MarkedGraph, mu: RationalCurrent, nu: RationalCurrent) -> float:
    """The s with t balanced for (e^s mu, e^-s nu): equal pairings."""
    pm, pn = pairing(t, mu), pairing(t, nu)
    if pm <= 0 or pn <= 0:
        raise ValueError("balance needs positive pairings")
    return 0.5 * math.log(pn / pm)


class AxisSample(NamedTuple):
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


# one descent per grid point, so a longer grid cannot finish, and building
# a huge one exhausts memory before the first descent
_MAX_GRID = 10_000


def _grid(points: Iterable[float], s_max: float) -> list[float]:
    """The leading ``points`` up to ``s_max`` (and 1e-9 past it), which
    must strictly increase.  Below the float spacing of s a step adds
    nothing and the points never pass ``s_max``, so a point that does not
    exceed the last, or more than ``_MAX_GRID`` steps, raises ValueError
    before the next point is built."""
    grid: list[float] = []
    for s in points:
        if s > s_max + 1e-9:
            break
        if grid and not s > grid[-1]:
            raise ValueError(f"grid points do not increase at s={s}: the step is below their spacing")
        if len(grid) > _MAX_GRID:
            raise ValueError(f"grid has more than {_MAX_GRID} steps")
        grid.append(s)
    return grid


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

    Walks middle-out (``_walk``): from ``start`` over the grid point
    nearest s = 0 and on up, then from that point's minimizer down, so
    each descent walks one grid step, not the whole axis from the far
    end, and its cap on accepted topologies (``budget``) binds per step.
    The grid is s_min + i * step up to s_max, at most ``_MAX_GRID`` steps,
    and a step below the float spacing of s raises ValueError (``_grid``).
    """
    if not all(math.isfinite(v) for v in (s_min, s_max, step)):
        raise ValueError("need finite s_min, s_max and step")
    if step <= 0 or s_max < s_min:
        raise ValueError("need step > 0 and s_max >= s_min")
    if (s_max - s_min) / step > _MAX_GRID:
        raise ValueError(f"grid has more than {_MAX_GRID} steps")
    if start is None:
        start = unit_rose(mu.rank)
    grid = _grid((s_min + i * step for i in itertools.count()), s_max)
    if not grid:
        raise ValueError("empty sampling grid")
    mid = min(range(len(grid)), key=lambda i: (abs(grid[i]), i))
    high = _walk(mu, nu, grid[mid:], eps, start, budget)
    low = _walk(mu, nu, grid[:mid][::-1], eps, high[0][1], budget)
    return AxisSample(mu, nu, tuple(low[::-1] + high), eps, step)


def _walk(
    mu: RationalCurrent,
    nu: RationalCurrent,
    ss: Sequence[float],
    eps: float,
    start: MarkedGraph,
    budget: int,
) -> list[tuple[float, MarkedGraph, float]]:
    """(s, minimizer, value) of e^s mu + e^-s nu at each s of ``ss`` in
    turn: the line of minima walked one way, each descent warm-started
    from the previous minimizer and the first from ``start``."""
    out = []
    for s in ss:
        res = minimize(exp_combination(mu, nu, s), eps, start, budget)
        start = res.point
        out.append((s, res.point, res.value))
    return out


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
    lexicographic tie-break even though the true Pi is only coarsely well
    defined.
    """
    s_star = balance_param(t, mu, nu)
    return minimize(exp_combination(mu, nu, s_star), eps, t, budget)
