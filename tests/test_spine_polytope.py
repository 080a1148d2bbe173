"""Spine polytopes: the vertex enumeration behind ``min_on_topology`` and
``max_systole_lengths``, its agreement with the simplex and with a pinning
oracle, and the LP count of a descent (none)."""

import functools
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from outerspine import RationalCurrent, axis, jsonio, minima, rose, sampling
from outerspine.graphs import expansions
from outerspine.minima import _least_vertex, _objective, _read_off, _vertices
from outerspine.simplex import Infeasible, solve_lp
from outerspine.words import Word

from builders import bare_splits, cycle_rows
from oracles import o_cycle_rows, o_lex_least_point, o_region_vertices

DATA = os.path.join(os.path.dirname(minima.__file__), "data")
# a loop, two pairs of parallel edges and one more edge on three vertices
BLOCKS = [(0, 1), (0, 1), (1, 2), (0, 0), (1, 2), (2, 0)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]


def masks(rows):
    return tuple(sorted(sum(1 << i for i, r in enumerate(row) if r) for row in rows))


def points(n, rows, eps):
    """The enumerated vertices, sorted, duplicates kept."""
    den, verts = _vertices(n, masks(rows), eps)
    return sorted(tuple(Fraction(v, den) for v in x) for x in verts)


@functools.cache
def pool(rank):
    """Seeded spine points and two rounds of expansions of them."""
    level = sampling.spine_points(rank, 0.05, rank, 4)
    out = list(level)
    for _ in range(2):
        level = [
            h
            for g in level
            for v in g.vertices
            if g.valence(v) >= 4
            for h in expansions(g, v)[:3]
        ]
        out += level
    return out


@pytest.mark.parametrize("name, edges, count", [("K33", K33, 693), ("prism", PRISM, 630)])
def test_rank4_vertex_counts(name, edges, count):
    assert len(_vertices(len(edges), masks(o_cycle_rows(edges)), 0.05)[1]) == count


# at exactly 1/3 the cycle rows of BLOCKS meet degenerately: there the count
# of common tight constraints alone pairs vertices that span no edge, and
# the cut would list one vertex twice
@pytest.mark.parametrize("eps", [0.05, 0.25, 1 / 3, Fraction(1, 3), 0.4])
def test_vertices_match_brute_force(eps):
    regions = {
        (len(g.edges), tuple(cycle_rows(g)))
        for g in pool(3)
        if len(g.edges) <= 5
    }
    assert len(regions) > 5
    regions.add((len(BLOCKS), tuple(o_cycle_rows(BLOCKS))))
    for n, rows in regions:
        assert points(n, rows, eps) == sorted(o_region_vertices(n, rows, Fraction(eps)))


def test_theta_vertices_by_hand():
    # theta graph, 1/3 each: only the barycentre meets eps = 2/3
    rows = o_cycle_rows([(0, 1), (0, 1), (0, 1)])
    assert points(3, rows, Fraction(2, 3)) == [(Fraction(1, 3),) * 3]
    assert points(3, rows, Fraction(3, 4)) == []


@st.composite
def positive_currents(draw, rank):
    letters = st.integers(1, rank).flatmap(lambda k: st.sampled_from([k, -k]))
    atoms = draw(
        st.lists(
            st.tuples(st.lists(letters, min_size=1, max_size=5), st.integers(1, 40)),
            min_size=1,
            max_size=4,
        )
    )
    try:
        cur = RationalCurrent(rank, [(Word(rank, w), k / 8) for w, k in atoms])
    except ValueError:  # only trivial classes
        cur = None
    assume(cur)
    return cur


@given(
    data=st.data(),
    rank=st.sampled_from([3, 4]),
    eps=st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 1 / 3, 0.4]),
)
@settings(max_examples=120, deadline=None)
def test_least_vertex_is_the_lp_point(data, rank, eps):
    graphs = pool(rank)
    g = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    cost, scale = _objective(g, data.draw(positive_currents(rank)))
    n = len(g.edges)
    rows = cycle_rows(g)
    got = _least_vertex(cost, scale, n, g._topo.graph.rows, eps)
    obj = [Fraction(c, scale) for c in cost]
    lp = (obj, [[1] * n], [1], rows, [Fraction(eps)] * len(rows))
    try:
        sol = solve_lp(*lp)
    except Infeasible:
        assert got is None
        return
    assert got == (sol.value, o_lex_least_point(*lp))


def seeded_regions(rank, seed):
    """(topology key, rows) of two seeded points and of every splitting
    of each, rows read off the point's cycles."""
    for g in sampling.spine_points(rank, 0.05, seed, 2):
        t = g._topo.graph
        yield g._topo.key, t.rows
        for v, moved, shape, marking, at in bare_splits(g):
            yield (rank, shape, g.basepoint, marking), t.split_rows(v, moved, at)


@given(
    data=st.data(),
    rank=st.sampled_from([3, 4]),
    seed=st.integers(0, 10**6),
    eps=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
)
@settings(max_examples=40, deadline=None)
def test_read_off_floats_are_the_least_vertex_fractions(data, rank, seed, eps):
    """``_read_off`` divides ``_least_vertex``'s integers itself: its value
    and its point key's lengths are the floats of the exact fractions, on
    every region of seeded points and their splits, for random nonnegative
    integer costs and scales."""
    for key, rows in seeded_regions(rank, seed):
        n = len(key[1])
        cost = data.draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n))
        scale = data.draw(st.integers(1, 10**12))
        hit = _read_off(key, cost, scale, rows, eps, None)
        exact = _least_vertex(cost, scale, n, rows, eps)
        assert (hit is None) == (exact is None)
        if hit is not None:
            value, x = exact
            lengths = tuple((*e, float(v)) for e, v in zip(key[1], x))
            assert hit[:2] == (float(value), (key[0], lengths, *key[2:]))


def test_max_systole_point_is_the_lex_least_optimum():
    regions = {(len(g.edges), g._topo.graph.rows) for g in pool(3)}
    assert len(regions) > 5
    small = 0
    for n, rows in regions:
        best, x = minima._max_systole(n, rows)
        a_ge = [[row >> i & 1 for i in range(n)] + [-1] for row in rows]
        lp = ([0] * n + [-1], [[1] * n + [0]], [1], a_ge, [0] * len(rows))
        point = o_lex_least_point(*lp)
        assert x == point[:n] and best == point[n]
        if n <= 5:
            small += 1
            dense = [tuple(row >> i & 1 for i in range(n)) for row in rows]
            assert x == min(o_region_vertices(n, dense, best))
    assert small > 5


def test_lp_count(monkeypatch):
    """No LP in a descent, and one per region ``repair`` blends in."""
    lps = []
    descents = []
    blends = []
    regions = set()
    solve, descend, blend = minima.solve_lp, minima.minimize, sampling.max_systole_lengths

    def counted_solve(*args, **kw):
        lps.append(1)
        return solve(*args, **kw)

    def counted_minimize(*args, **kw):
        descents.append(1)
        return descend(*args, **kw)

    def counted_blend(g):
        blends.append(1)
        regions.add((len(g.edges), g._topo.graph.rows))
        return blend(g)

    monkeypatch.setattr(minima, "solve_lp", counted_solve)
    monkeypatch.setattr(minima, "minimize", counted_minimize)
    monkeypatch.setattr(sampling, "max_systole_lengths", counted_blend)
    mu = jsonio.load_current(os.path.join(DATA, "current_a.json"))
    nu = jsonio.load_current(os.path.join(DATA, "current_b.json"))
    minima._max_systole.cache_clear()
    minima.minimize(mu, 0.05, rose([1 / 3] * 3))
    axis(mu, nu, -0.5, 0.5, 0.5, 0.05)
    assert len(descents) == 4
    assert lps == []
    minima._max_systole.cache_clear()
    sampling.spine_points(3, 0.25, 0, 20)
    assert len(blends) > len(regions) > 0
    assert len(lps) == len(regions)
