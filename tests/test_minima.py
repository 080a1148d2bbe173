"""Per-topology LPs, descent over the spine, balance, axes, projection."""

import math
import os
import random
from fractions import Fraction

import pytest

from outerspine import (
    Automorphism,
    InfeasibleSpine,
    MarkedGraph,
    NielsenMove,
    RationalCurrent,
    Word,
    add,
    apply_to_current,
    axis,
    balance_param,
    d_sym,
    dual,
    exp_combination,
    in_spine,
    max_systole_lengths,
    min_on_topology,
    minimize,
    pairing,
    parse_word,
    project,
    scale,
    transform,
    translate_axis,
    unit_rose,
)
from outerspine import graphs, jsonio, minima
from outerspine.graphs import _fresh_names, _partitions, _split_parts, expansions
from outerspine.minima import (
    _atom_loops,
    _expansion_cost,
    _neighbor_probes,
    _objective,
    _tally,
    _turns,
    certificate,
)
from outerspine.sampling import spine_points

from builders import cycle_rows, parallel_graph
from oracles import crossing_vector, grid_lp_min, o_axis, o_minimize

ROSE = unit_rose(3)
THETA4 = parallel_graph([0.25] * 4)
FIXTURES = os.path.join(os.path.dirname(__file__), "data")


def w(text):
    return parse_word(text, 3)


def full_support():
    return add(add(dual(w("a")), dual(w("b"))), dual(w("c")))


def random_descents(n_seeds):
    """(rank, eps, start, current) for seeded descents at ranks 3 and 4:
    three spine points per seed, each with a random current."""
    for seed in range(n_seeds):
        rng = random.Random(seed)
        rank = 4 if seed % 3 == 0 else 3
        letters = [x for k in range(1, rank + 1) for x in (k, -k)]
        # the rank-4 rose's systole is 1/4, so eps 0.3 is rank 3 only
        eps = rng.choice((0.05, 0.1, 0.2, 0.3) if rank == 3 else (0.05, 0.1, 0.2))
        for start in spine_points(rank, eps, seed, 3):
            words = [
                Word(rank, [rng.choice(letters) for _ in range(rng.randrange(1, 7))])
                for _ in range(rng.randrange(1, 5))
            ]
            weighted = [(a, rng.randrange(1, 9) / rng.randrange(1, 5)) for a in words if a]
            yield rank, eps, start, RationalCurrent(rank, weighted) or dual(Word(rank, (1,)))


def random_current(rng):
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        letters = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randrange(1, 5))]
        text = " ".join("abc"[abs(x) - 1] + ("'" if x < 0 else "") for x in letters)
        pairs.append((parse_word(text, 3), rng.randrange(1, 8) / rng.randrange(1, 5)))
    try:
        return RationalCurrent(3, pairs)
    except ValueError:  # all atoms reduced to the trivial class
        return None


class TestMinOnTopology:
    def test_full_support_on_rose_is_volume(self):
        res = min_on_topology(ROSE, full_support(), 0.1)
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_single_petal_closed_form(self):
        res = min_on_topology(ROSE, dual(w("a")), 0.1)
        assert res.value == pytest.approx(0.1, abs=1e-15)
        lengths = [e.length for e in res.point.edges]
        # lexicographic tie-break: the free 0.9 goes to the last petal
        assert lengths == pytest.approx([0.1, 0.1, 0.8])

    def test_value_matches_pairing(self):
        rng = random.Random(3)
        for _ in range(6):
            cur = random_current(rng)
            if cur is None:
                continue
            res = min_on_topology(ROSE, cur, 0.05)
            assert res.value == pytest.approx(pairing(res.point, cur), abs=1e-9)

    def test_duals_certify_value(self):
        cur = add(dual(w("a b"), 0.7), dual(w("c"), 1.2))
        res = min_on_topology(ROSE, cur, 0.1)
        duals = certificate(res.point, cur, 0.1)
        # strong duality: value = dual . rhs = vol_dual*1 + sum(cycle_dual)*eps
        certified = duals[0] + 0.1 * sum(duals[1:])
        assert certified == pytest.approx(res.value, abs=1e-12)
        assert all(d >= -1e-15 for d in duals[1:])
        # dual feasibility: no edge's reduced cost is negative
        cost, scale = _objective(ROSE, cur)
        rows = cycle_rows(ROSE)
        for i, c in enumerate(cost):
            used = duals[0] + sum(d * float(row[i]) for d, row in zip(duals[1:], rows))
            assert used <= c / scale + 1e-12

    def test_feasibility_of_returned_lengths(self):
        rng = random.Random(11)
        for g in (ROSE, THETA4):
            cur = random_current(rng) or dual(w("a"))
            res = min_on_topology(g, cur, 0.05)
            rows = cycle_rows(g)
            lengths = [e.length for e in res.point.edges]
            for row in rows:
                assert sum(float(r) * x for r, x in zip(row, lengths)) >= 0.05 - 1e-9

    @pytest.mark.parametrize("graph", [ROSE, THETA4], ids=["rose", "theta4"])
    def test_grid_oracle(self, graph):
        rng = random.Random(42)
        done = 0
        while done < 4:
            cur = random_current(rng)
            if cur is None:
                continue
            done += 1
            lp = min_on_topology(graph, cur, 0.1)
            cost, scale = _objective(graph, cur)
            obj = [c / scale for c in cost]
            rows = cycle_rows(graph)
            grid = grid_lp_min(
                obj, [[float(x) for x in row] for row in rows], 0.1, Fraction(1, 50)
            )
            bound = 0.02 * max(abs(o) for o in obj)
            # the lattice is a subset of the feasible set, so the grid can
            # only overshoot, and by at most one step of objective slope
            assert grid[0] >= lp.value - 1e-9
            assert grid[0] - lp.value <= bound + 1e-12

    def test_relabeling_invariance(self):
        g = THETA4
        relabeled = MarkedGraph(
            g.rank,
            tuple(reversed(g.edges)),
            g.basepoint,
            g.marking,
        )
        cur = add(dual(w("a b")), dual(w("c"), 0.5))
        assert (
            min_on_topology(g, cur, 0.05).value
            == min_on_topology(relabeled, cur, 0.05).value
        )

    def test_infeasible_epsilon_names_cycle(self):
        best, _ = max_systole_lengths(THETA4)
        assert best == pytest.approx(0.5)
        with pytest.raises(InfeasibleSpine) as exc:
            min_on_topology(THETA4, dual(w("a")), 0.6)
        assert len(set(exc.value.cycle.edge_ids())) == 2

    def test_zero_current_rejected(self):
        with pytest.raises(ValueError):
            min_on_topology(ROSE, RationalCurrent(3), 0.05)


class TestMinimize:
    def test_full_support_tree_slack(self):
        # a topology with a tree edge lets every generator live on its own
        # epsilon cycle while the slack hides where no class crosses, so
        # the descent beats the rose value 1 and lands on 3*eps
        res = minimize(full_support(), 0.1, ROSE)
        assert res.value == pytest.approx(0.3, abs=1e-9)
        assert res.topology_visits == 2
        assert not res.budget_exhausted
        assert in_spine(res.point, 0.1)

    def test_idempotent(self):
        res = minimize(full_support(), 0.1, ROSE)
        again = minimize(full_support(), 0.1, res.point)
        assert again.value == pytest.approx(res.value, abs=1e-9)
        assert again.point.key() == res.point.key()

    def test_scale_equivariant(self):
        cur = add(dual(w("a b"), 0.7), dual(w("c"), 1.2))
        r1 = minimize(cur, 0.05, ROSE)
        r2 = minimize(scale(cur, 2.0), 0.05, ROSE)
        assert r2.value == 2 * r1.value
        assert r2.point.key() == r1.point.key()

    def test_budget_exhaustion_flagged(self):
        res = minimize(full_support(), 0.1, ROSE, budget=1)
        assert res.budget_exhausted
        assert res.topology_visits == 1
        # still returns the start-topology optimum
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_start_outside_spine_rejected(self):
        thin = unit_rose(3)
        from outerspine import with_lengths

        bad = with_lengths(thin, [0.01, 0.01, 0.98])
        with pytest.raises(ValueError):
            minimize(full_support(), 0.05, bad)

    def test_start_within_tolerance_of_empty_region(self):
        # in_spine admits systole 0.5 at eps just above it, but THETA4's
        # region is empty there: the descent raises as min_on_topology does
        eps = 0.5 + 5e-10
        assert in_spine(THETA4, eps)
        with pytest.raises(InfeasibleSpine):
            minimize(dual(w("a")), eps, THETA4)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            minimize(full_support(), eps, ROSE)

    def test_result_in_spine_with_certificate(self):
        rng = random.Random(5)
        cur = random_current(rng) or dual(w("a"))
        res = minimize(cur, 0.05, ROSE)
        assert in_spine(res.point, 0.05)
        duals = certificate(res.point, cur, 0.05)
        certified = duals[0] + 0.05 * sum(duals[1:])
        assert certified == pytest.approx(res.value, abs=1e-9)


    def test_matches_the_graph_per_translate_descent(self):
        """Translates probed on the carrier give the descent that builds
        every translate, run with no budget that could bind: same point,
        value and visits, and the default cap never reached."""
        outcomes = set()
        for rank, eps, start, cur in random_descents(18):
            got = minimize(cur, eps, start)
            want = o_minimize(cur, eps, start, 10**6)
            assert got.point.key() == want.point.key()
            assert (got.value, got.topology_visits) == (want.value, want.topology_visits)
            assert not got.budget_exhausted and not want.budget_exhausted
            outcomes.add((rank, got.topology_visits > 1))
        # both ranks, and descents that move
        assert (3, True) in outcomes and (4, True) in outcomes

    @pytest.mark.parametrize("rank", [3, 4])
    def test_a_cap_below_the_visits_stops_there(self, rank):
        """A cap k at or above the uncapped descent's visits changes
        nothing; a smaller k stops the descent after k topologies, with a
        better neighbour still there, and a larger cap ends lower."""
        capped = 0
        for r, eps, start, cur in random_descents(9):
            if r != rank:
                continue
            free = minimize(cur, eps, start)
            visits = free.topology_visits
            values = []
            for k in sorted({1, visits // 2 or 1, max(visits - 1, 1), visits}):
                res = minimize(cur, eps, start, k)
                if k >= visits:
                    assert res.point.key() == free.point.key()
                    assert (res.value, res.topology_visits) == (free.value, free.topology_visits)
                    assert not res.budget_exhausted
                else:
                    assert res.budget_exhausted and res.topology_visits == k
                    assert in_spine(res.point, eps)
                    capped += 1
                values.append(res.value)
            assert all(a > b + 1e-9 for a, b in zip(values, values[1:]))
        assert capped >= 3

    @pytest.mark.parametrize("s", [-3, 1, 3])
    def test_cold_rank4_descents_reach_the_unbounded_oracle(self, s):
        """From the unit rose on the k=14 pair, where a budget of 600
        probes used to cut the descent short, the default cap is never
        reached and the descent ends where the unbounded one does."""
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu14.json", "nu14.json"))
        cur = exp_combination(mu, nu, s)
        got = minimize(cur, 0.05, unit_rose(4))
        want = o_minimize(cur, 0.05, unit_rose(4), budget=10**6)
        assert not got.budget_exhausted and not want.budget_exhausted
        assert got.point.key() == want.point.key()
        assert (got.value, got.topology_visits) == (want.value, want.topology_visits)

    def test_solves_only_the_start(self, monkeypatch):
        """Every probe is read off the carrier, and a descent ends on its
        last carrier, so it calls ``min_on_topology`` exactly once, for its
        start.  Same answer as the descent that builds every neighbour and
        solves its final collapse again; the s = -1 descent ends on
        zero-length edges."""
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu6.json", "nu6.json"))
        currents = [exp_combination(mu, nu, s) for s in (-2, -1, 0, 2)]
        wants = [o_minimize(cur, 0.05, ROSE) for cur in currents]
        calls = []
        solve = minima.min_on_topology

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(minima, "min_on_topology", counted)
        for cur, want in zip(currents, wants):
            calls.clear()
            got = minimize(cur, 0.05, ROSE)
            assert len(calls) == 1
            assert got.point.key() == want.point.key()
            assert (got.value, got.topology_visits) == (want.value, want.topology_visits)

    def test_builds_only_the_translates_it_moves_to(self, monkeypatch):
        built = []
        build = minima.transform

        def counted(g, phi):
            built.append(1)
            return build(g, phi)

        monkeypatch.setattr(minima, "transform", counted)
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu6.json", "nu6.json"))
        for s in (-2, 0, 2):
            built.clear()
            res = minimize(exp_combination(mu, nu, s), 0.05, ROSE)
            # one build per accepted translate; every descent here takes one
            assert 1 <= len(built) <= res.topology_visits - 1

    def test_builds_only_the_expansions_it_moves_to(self, monkeypatch):
        splits, translates = [], []

        def counting(log, build):
            def counted(*args):
                log.append(1)
                return build(*args)

            return counted

        # the splitting in graphs, and the name a descent may hold of it
        split = counting(splits, graphs._split)
        monkeypatch.setattr(graphs, "_split", split)
        monkeypatch.setattr(minima, "_split", split, raising=False)
        monkeypatch.setattr(minima, "transform", counting(translates, minima.transform))
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu6.json", "nu6.json"))
        expanded = 0
        for s in (-2, 0, 2):
            splits.clear()
            translates.clear()
            res = minimize(exp_combination(mu, nu, s), 0.05, ROSE)
            # one build per accepted move: the accepted moves that are not
            # translates are expansions
            assert len(splits) <= res.topology_visits - 1 - len(translates)
            expanded += len(splits)
        assert expanded >= 1

    def test_probes_build_no_graph_and_no_fraction(self, monkeypatch):
        """Probes construct no unmarked graph and run no cycle search: an
        expansion's rows are read off its carrier's cycles, so an unmarked
        graph is constructed only for a marked graph built, by the public
        constructor or by a topology move (a collapse or a splitting), and
        searched at most once.  Nor do they build an ``Edge``: an
        expansion is keyed by its shape, so edges are made only for a graph
        built or relengthed, at most 6 (a rank-3 graph's most) for each.
        Every least vertex is read in integers, with no ``Fraction``."""
        counts = dict.fromkeys(
            ("graphs", "built", "relengths", "edges", "searches", "fractions"), 0
        )

        def counting(name, f):
            def counted(*args, **kw):
                counts[name] += 1
                return f(*args, **kw)

            return counted

        monkeypatch.setattr(graphs._Graph, "__init__", counting("graphs", graphs._Graph.__init__))
        monkeypatch.setattr(
            graphs.MarkedGraph, "__init__", counting("built", graphs.MarkedGraph.__init__)
        )
        monkeypatch.setattr(graphs, "collapse_edge", counting("built", graphs.collapse_edge))
        monkeypatch.setattr(minima, "_split", counting("built", minima._split))
        monkeypatch.setattr(minima, "with_lengths", counting("relengths", minima.with_lengths))
        monkeypatch.setattr(graphs, "Edge", counting("edges", graphs.Edge))
        monkeypatch.setattr(graphs, "_cycle_paths", counting("searches", graphs._cycle_paths))
        monkeypatch.setattr(minima, "Fraction", counting("fractions", minima.Fraction))
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in ("mu6.json", "nu6.json"))
        visits = 0
        for s in (-2, 0, 2):
            # ROSE, rebuilt here so that its graph's search is counted
            # with its construction
            visits += minimize(exp_combination(mu, nu, s), 0.05, unit_rose(3)).topology_visits
        assert visits > 3
        assert counts["graphs"] <= counts["built"]
        assert counts["edges"] <= 6 * (counts["built"] + counts["relengths"])
        assert counts["searches"] <= counts["graphs"]
        assert counts["fractions"] == 0


class TestExpansionProbe:
    """An expansion read off its carrier against the expansion built."""

    @pytest.mark.parametrize("rank", [3, 4])
    def test_reads_what_the_built_expansion_measures(self, rank):
        rng = random.Random(rank)
        letters = [x for k in range(1, rank + 1) for x in (k, -k)]
        level = spine_points(rank, 0.05, 7 * rank, 6)
        carriers = level + [
            h for g in level for v in g.vertices if g.valence(v) >= 4 for h in expansions(g, v)[:4]
        ]
        triples = 0
        for c in carriers:
            words = [
                Word(rank, [rng.choice(letters) for _ in range(rng.randrange(1, 9))])
                for _ in range(4)
            ]
            cur = RationalCurrent(rank, [(a, 1.0) for a in words if a]) or dual(Word(rank, (1,)))
            loops = _atom_loops(c.marking, cur)
            atoms = [Word(rank, a) for a, _ in cur.atoms]
            counts = [crossing_vector(c, a) for a in atoms]
            for loop, cv in zip(loops, counts):
                assert _tally([loop], [1], c._topo.index) == [cv[e.id] for e in c.edges]
            turns = [_turns(c, [loop], [1]) for loop in loops]
            built = [h for v in c.vertices if c.valence(v) >= 4 for h in expansions(c, v)]
            new_v, new_e = _fresh_names(c)
            splits = [
                (v, moved)
                for v in c.vertices
                if c.valence(v) >= 4
                for moved in _partitions(c, v)
            ]
            assert len(splits) == len(built)
            for (v, moved), h in zip(splits, built):
                shape, _ = _split_parts(c, v, new_v, new_e, moved)
                for a, cv, turn in zip(atoms, counts, turns):
                    # old edges keep their counts; the fresh edge counts the
                    # loop's turns at v between the two sides
                    rule = _expansion_cost(cv, turn.get(v, []), shape, new_e, moved)
                    assert rule == [crossing_vector(h, a)[e.id] for e in h.edges]
                    triples += 1
            # the probes' keys and least vertices are the built graphs'
            probes = list(_neighbor_probes(c, (), [], cur, 0.05, set()))
            assert [key for key, _ in probes] == [h._topo.key for h in built]
            for (_, got), h in zip(probes, built):
                try:
                    want = min_on_topology(h, cur, 0.05)
                except InfeasibleSpine:
                    want = None
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[:2] == (want.value, want.point.key())
        assert triples > 1000


class TestBalance:
    def test_equal_pairings_balance_at_zero(self):
        assert balance_param(ROSE, dual(w("a")), dual(w("b"))) == 0.0

    def test_ratio_four_gives_log_two(self):
        s = balance_param(ROSE, dual(w("a")), dual(w("a"), 4.0))
        assert s == pytest.approx(math.log(2), abs=1e-15)

    def test_antisymmetry(self):
        mu = add(dual(w("a b"), 0.3), dual(w("c"), 2.0))
        nu = dual(w("b c'"), 1.7)
        assert balance_param(ROSE, nu, mu) == pytest.approx(
            -balance_param(ROSE, mu, nu), abs=1e-12
        )

    def test_balanced_combination_has_equal_pairings(self):
        mu = dual(w("a b"), 0.9)
        nu = dual(w("c"), 2.5)
        s = balance_param(ROSE, mu, nu)
        lhs = pairing(ROSE, scale(mu, math.exp(s)))
        rhs = pairing(ROSE, scale(nu, math.exp(-s)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


SYM_MU = dual(parse_word("a b", 3))
SYM_NU = apply_to_current(
    Automorphism.from_moves(3, [NielsenMove("transpose", 1, 3)]), SYM_MU
)


@pytest.fixture(scope="module")
def sym_axis():
    return axis(SYM_MU, SYM_NU, -1.0, 1.0, 0.5, 0.05)


class TestAxis:

    def test_grid_and_spine_invariants(self, sym_axis):
        ss = sym_axis.s_values()
        assert all(b - a > 0 for a, b in zip(ss, ss[1:]))
        assert all(in_spine(p, 0.05) for p in sym_axis.points())

    def test_swapped_pair_mirrors_values(self, sym_axis):
        # e^sigma nu + e^-sigma mu at sigma = -s is the same current, so
        # the two samplings solve identical LPs in mirrored order
        swapped = axis(SYM_NU, SYM_MU, -1.0, 1.0, 0.5, 0.05)
        fwd = [v for _, _, v in sym_axis.samples]
        rev = [v for _, _, v in swapped.samples]
        assert fwd == pytest.approx(rev[::-1], abs=1e-12)

    def test_rank_symmetry_mirrors_values(self, sym_axis):
        vals = {s: v for s, _, v in sym_axis.samples}
        for s in (0.5, 1.0):
            assert vals[s] == pytest.approx(vals[-s], abs=1e-9)

    def test_discrete_midpoint_convexity(self, sym_axis):
        vals = [v for _, _, v in sym_axis.samples]
        for i in range(1, len(vals) - 1):
            assert vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-7

    def test_values_match_pairing(self, sym_axis):
        for s, p, v in sym_axis.samples:
            assert v == pytest.approx(
                pairing(p, exp_combination(SYM_MU, SYM_NU, s)), abs=1e-9
            )

    def test_nearest_index(self, sym_axis):
        assert sym_axis.nearest_index(0.1) == 2
        assert sym_axis.nearest_index(-5.0) == 0

    @pytest.mark.parametrize("rank", [3, 4])
    @pytest.mark.parametrize(
        "s_min, s_max",
        [(0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0), (0.5, 1.5)],
        ids=["zero-first", "zero-last", "zero-middle", "off-zero-first"],
    )
    def test_walks_as_the_middle_out_loop(self, rank, s_min, s_max):
        """Two walks out from the point nearest s = 0 give the samples of
        the loop over grid indices, wherever that point sits."""
        pair = ("mu6.json", "nu6.json") if rank == 3 else ("mu14.json", "nu14.json")
        mu, nu = (jsonio.load_current(os.path.join(FIXTURES, f)) for f in pair)
        got = axis(mu, nu, s_min, s_max, 0.5, 0.05)
        want = o_axis(mu, nu, s_min, s_max, 0.5, 0.05, unit_rose(rank))
        assert [s for s, _, _ in got.samples] == [s for s, _, _ in want]
        assert [(p.key(), v) for _, p, v in got.samples] == [(p.key(), v) for _, p, v in want]

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            axis(SYM_MU, SYM_NU, 1.0, -1.0, 0.5, 0.05)
        with pytest.raises(ValueError):
            axis(SYM_MU, SYM_NU, -1.0, 1.0, 0.0, 0.05)


class TestTranslateAxis:
    def test_translated_samples_need_no_resolve(self):
        ax = axis(SYM_MU, SYM_NU, -0.5, 0.5, 0.5, 0.05)
        phi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 1, 2)])
        moved = translate_axis(ax, phi)
        assert [v for _, _, v in moved.samples] == [v for _, _, v in ax.samples]
        for (s, p, v), (_, q, _) in zip(moved.samples, ax.samples):
            assert in_spine(p, 0.05)
            assert v == pytest.approx(
                pairing(p, exp_combination(moved.mu, moved.nu, s)), abs=1e-9
            )
            assert p.key() != q.key()


class TestProject:
    MU = add(dual(parse_word("a b", 3), 1.0), dual(parse_word("c", 3), 0.5))
    NU = add(dual(parse_word("b c", 3), 1.0), dual(parse_word("a", 3), 0.25))

    def test_deterministic(self):
        T = spine_points(3, 0.05, 17, 1)[0]
        p1 = project(T, self.MU, self.NU, 0.05)
        p2 = project(T, self.MU, self.NU, 0.05)
        assert p1.point.key() == p2.point.key()
        assert p1.value == p2.value

    def test_rescale_invariance(self):
        # scaling mu by e^t and nu by e^-t shifts s* by -t and leaves the
        # balanced combination, hence the projection, unchanged
        T = spine_points(3, 0.05, 17, 2)[1]
        base = project(T, self.MU, self.NU, 0.05)
        moved = project(
            T,
            scale(self.MU, math.exp(0.8)),
            scale(self.NU, math.exp(-0.8)),
            0.05,
        )
        assert moved.value == pytest.approx(base.value, abs=1e-9)
        assert moved.point.key() == base.point.key()

    def test_equivariance(self):
        T = spine_points(3, 0.05, 23, 1)[0]
        phi = Automorphism.from_moves(
            3, [NielsenMove("right_multiply", 2, 3), NielsenMove("invert", 1)]
        )
        base = project(T, self.MU, self.NU, 0.05)
        moved = project(
            transform(T, phi),
            apply_to_current(phi, self.MU),
            apply_to_current(phi, self.NU),
            0.05,
        )
        assert moved.value == pytest.approx(base.value, abs=1e-9)

    def test_axis_point_projects_nearby(self):
        ax = axis(SYM_MU, SYM_NU, -1.0, 1.0, 0.5, 0.05)
        s, p, v = ax.samples[3]
        res = project(p, SYM_MU, SYM_NU, 0.05)
        assert in_spine(res.point, 0.05)
        assert d_sym(res.point, p) <= 2.0
