"""Seeded spine samplers: reproducibility and constraint respect."""

import math
import random

import pytest

from outerspine import (
    Automorphism,
    SampleError,
    balance_param,
    compose,
    d_sym,
    dual,
    in_spine,
    invert,
    max_systole_lengths,
    parse_word,
    systole,
    unit_rose,
    with_lengths,
)
from outerspine import graphs, sampling
from outerspine.sampling import (
    _random_expansion,
    balanced_point,
    ball_points,
    jitter,
    random_automorphism,
    repair,
    spine_points,
)

from oracles import o_repair

ROSE = unit_rose(3)
EPS = 0.05


class TestSpinePoints:
    def test_count_and_constraints(self):
        pts = spine_points(3, EPS, 101, 12)
        assert len(pts) == 12
        for p in pts:
            assert in_spine(p, EPS)
            assert p.volume == pytest.approx(1.0, abs=1e-9)

    def test_seed_reproducibility(self):
        a = spine_points(3, EPS, 7, 8)
        b = spine_points(3, EPS, 7, 8)
        assert [p.key() for p in a] == [q.key() for q in b]

    def test_seeds_vary_the_draw(self):
        a = spine_points(3, EPS, 1, 6)
        b = spine_points(3, EPS, 2, 6)
        assert {p.key() for p in a} != {q.key() for q in b}

    def test_topology_variety(self):
        pts = spine_points(3, EPS, 31, 20)
        assert len({len(p.edges) for p in pts}) >= 2


class TestRepair:
    def test_inside_point_untouched(self):
        assert repair(ROSE, EPS) is ROSE

    def test_thin_point_pulled_in(self):
        thin = with_lengths(ROSE, {"a": 0.01, "b": 0.01, "c": 0.98})
        fixed = repair(thin, EPS)
        assert in_spine(fixed, EPS)
        assert fixed.volume == pytest.approx(1.0, abs=1e-12)
        # repair stops at the first admissible blend, near the boundary
        assert systole(fixed)[0] == pytest.approx(EPS, abs=1e-3)

    def test_matches_the_graph_per_step_bisection(self):
        rng = random.Random(3)
        repaired = 0
        for seed in range(6):
            for rank in (3, 4):
                for g in spine_points(rank, EPS, seed, 4):
                    lengths = {e.id: e.length * math.exp(2 * rng.gauss(0, 1)) for e in g.edges}
                    total = sum(lengths.values())
                    thin = with_lengths(g, {k: v / total for k, v in lengths.items()})
                    eps = rng.choice((0.05, 0.1, 0.15))
                    if in_spine(thin, eps) or max_systole_lengths(thin)[0] < eps:
                        continue
                    assert repair(thin, eps).key() == o_repair(thin, eps).key()
                    repaired += 1
        assert repaired > 20

    def test_unreachable_epsilon(self):
        with pytest.raises(SampleError):
            repair(with_lengths(ROSE, {"a": 0.2, "b": 0.2, "c": 0.6}), 0.4)


class TestRandomExpansion:
    def test_builds_only_the_split_it_draws(self, monkeypatch):
        points = spine_points(3, EPS, 2, 8) + spine_points(4, EPS, 2, 8)
        built = []
        init = graphs.MarkedGraph.__init__

        def counted(self, *args, **kw):
            built.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(graphs.MarkedGraph, "__init__", counted)
        rng = random.Random(4)
        expanded = 0
        for g in points:
            built.clear()
            h = _random_expansion(g, rng, EPS, EPS)
            assert len(built) == (h is not None)
            if h is not None:
                assert len(h.edges) == len(g.edges) + 1 and in_spine(h, EPS)
                expanded += 1
        assert expanded > 5


class TestJitter:
    def test_stays_in_spine_at_volume_one(self):
        rng = random.Random(0)
        for _ in range(10):
            g = jitter(ROSE, rng, 0.8, EPS)
            assert in_spine(g, EPS)
            assert g.volume == pytest.approx(1.0, abs=1e-9)

    def test_seeded(self):
        a = jitter(ROSE, random.Random(5), 0.5, EPS)
        b = jitter(ROSE, random.Random(5), 0.5, EPS)
        assert a.key() == b.key()


class TestRandomAutomorphism:
    def test_invertible_with_right_rank(self):
        rng = random.Random(3)
        for _ in range(20):
            phi = random_automorphism(rng, 3, rng.randrange(1, 7))
            assert phi.rank == 3
            assert compose(phi, invert(phi)) == Automorphism.identity(3)


class TestBallPoints:
    def test_within_radius_and_seeded(self):
        pts = ball_points(ROSE, 0.6, 10, 13, EPS)
        assert len(pts) == 10
        for p in pts:
            assert d_sym(ROSE, p) <= 0.6 + 1e-9
            assert in_spine(p, EPS)
        again = ball_points(ROSE, 0.6, 10, 13, EPS)
        assert [p.key() for p in pts] == [q.key() for q in again]

    def test_zero_radius(self):
        pts = ball_points(ROSE, 0.0, 3, 1, EPS)
        assert all(p.key() == ROSE.key() for p in pts)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_points(ROSE, -1.0, 3, 1, EPS)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_points(ROSE, float("nan"), 3, 1, EPS, max_tries=3)

    def test_exhaustion_reported(self):
        with pytest.raises(SampleError):
            ball_points(ROSE, 0.05, 50, 1, EPS, max_tries=3)


class TestBalancedPoint:
    MU = dual(parse_word("a", 3))
    NU = dual(parse_word("b", 3))

    def test_hits_target(self):
        for s in (-0.4, 0.0, 0.7):
            pt = balanced_point(self.MU, self.NU, s, seed=2, eps=EPS)
            assert in_spine(pt, EPS)
            assert balance_param(pt, self.MU, self.NU) == pytest.approx(s, abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("s", [1.0, 1.44])
    def test_reads_the_identity_marking_exactly(self, s, seed):
        # on the unit rose the balance range is |s| <= ln(18) / 2 ~ 1.445:
        # lengths (0.05, 0.9, 0.05) against eps 0.05
        pt = balanced_point(self.MU, self.NU, s, seed=seed, eps=EPS)
        assert pt.marking == ROSE.marking
        assert abs(balance_param(pt, self.MU, self.NU) - s) <= 1e-12
        assert systole(pt)[0] > EPS

    def test_draws_no_lengths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("balanced_point sampled lengths")

        monkeypatch.setattr(sampling, "jitter", refuse)
        monkeypatch.setattr(sampling, "repair", refuse)
        # s = 1.8 lies past the unit rose's range, on a twisted marking
        for s in (-1.0, 0.0, 0.7, 1.8):
            pt = balanced_point(self.MU, self.NU, s, seed=1, eps=EPS)
            assert balance_param(pt, self.MU, self.NU) == pytest.approx(s, abs=1e-12)

    def test_unreachable_target(self):
        with pytest.raises(SampleError):
            balanced_point(self.MU, self.NU, 50.0, seed=2, eps=EPS)

    @pytest.mark.parametrize("s", [400.0, -400.0])
    def test_target_past_float_exp_range(self, s):
        # past |s| ~ 354.9, e^(2s) overflows a float; the gap must not
        with pytest.raises(SampleError):
            balanced_point(self.MU, self.NU, s, seed=2, eps=EPS)
