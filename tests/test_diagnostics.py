"""Empirical certification: minisline bounds, contraction, ball projections, axis overlaps."""

import math
import random

import pytest

from outerspine import (
    Automorphism,
    AxisSample,
    NielsenMove,
    SamplerConfig,
    apply_to_current,
    axis,
    balance_param,
    ball_projection_diameter,
    check_contracting,
    check_minisline,
    d_sym,
    dual,
    fit_B,
    iwip_pair_approx,
    overlap_tau,
    parse_word,
    power,
    project,
    rose,
    scale,
    spine_points,
    transform,
    translate_axis,
)
from outerspine import diagnostics, graphs
from outerspine.diagnostics import _MAX_BALL_SAMPLES, _MAX_COUNTS, _max_run, _ray
from outerspine.minima import _MAX_GRID
from outerspine.sampling import jitter

from oracles import o_max_run

EPS = 0.05

TRIB = Automorphism.from_moves(3, [
    NielsenMove("transpose", 1, 2),
    NielsenMove("transpose", 1, 3),
    NielsenMove("right_multiply", 1, 2, False),
])

# mu and nu both sit at the systole floor on the shared minimizer, so the
# whole line of minima collapses to one point: every balanced ratio is
# exactly e^{2s} and every minisline distance is exactly zero.  That makes
# this pair the clean degenerate control.
FLOOR_MU = dual(parse_word("a b", 3))
FLOOR_NU = apply_to_current(
    Automorphism.from_moves(3, [NielsenMove("transpose", 1, 3)]), FLOOR_MU
)

# sampler trimmed to desk scale; far/balanced reach limits are part of the
# recorded behavior (vacuous clauses), not something to hide
CFG = SamplerConfig(
    seed=5, near_step=0.5, n_far=3, far_depth=14, n_sigma=4, n_balanced=1,
)


def walk(mu, nu, s_max=1.0, budget=600):
    """The axis of (mu, nu) from -s_max to s_max by 0.5."""
    return axis(mu, nu, -s_max, s_max, 0.5, EPS, budget)


TWIST_PAIR = Automorphism.from_moves(3, [
    NielsenMove("right_multiply", 1, 2, False),
    NielsenMove("right_multiply", 2, 1, False),
])


@pytest.fixture(scope="module")
def pair6():
    return iwip_pair_approx(TRIB, parse_word("a", 3), 6)


@pytest.fixture(scope="module")
def ax6(pair6):
    return walk(pair6.forward, pair6.backward)


@pytest.fixture(scope="module")
def fit6(pair6):
    return fit_B(walk(pair6.forward, pair6.backward, s_max=3.0))


@pytest.fixture(scope="module")
def floor_ax():
    return walk(FLOOR_MU, FLOOR_NU)


@pytest.fixture(scope="module")
def diag_report():
    return check_contracting(walk(FLOOR_MU, FLOOR_MU), 2.0, CFG)


@pytest.fixture(scope="module")
def off_axis_center(ax6):
    x0 = ax6.samples[ax6.nearest_index(0.0)][1]
    return transform(x0, power(TWIST_PAIR, 3))


@pytest.fixture(scope="module")
def translates(ax6):
    phi = Automorphism.from_moves(
        3, [NielsenMove("right_multiply", 2, 3, False)]
    )
    b = translate_axis(ax6, phi)
    return ax6, b, translate_axis(b, phi)


@pytest.fixture(scope="module")
def long_axes(pair6):
    """The k=6 pair's axis on -2..2 by 0.25 and two of its translates:
    rays of up to 11 points, so runs can go past their first two steps."""
    ax = axis(pair6.forward, pair6.backward, -2.0, 2.0, 0.25, EPS)
    phi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 2, 3, False)])
    return ax, translate_axis(ax, phi), translate_axis(ax, TRIB)


class TestFitB:
    def test_floor_pair_ratio_one_at_center(self, floor_ax):
        fit = fit_B(floor_ax)
        r0 = dict(fit.ratios)[0.0]
        assert r0 == pytest.approx(1.0, abs=1e-12)

    def test_floor_pair_value(self, floor_ax):
        fit = fit_B(floor_ax)
        assert fit.value == pytest.approx(math.e**2, rel=1e-9)
        assert abs(fit.s_at) == 1.0

    def test_rescaling_shifts_grid_not_value(self, floor_ax):
        # representatives are quantified over, so mu -> e^2 mu only moves
        # the attaining parameter; compare on windows shifted to match
        base = fit_B(floor_ax)
        moved = fit_B(axis(scale(FLOOR_MU, math.e**2), FLOOR_NU, -2.0, 0.0, 0.5, EPS))
        assert moved.value == pytest.approx(base.value, abs=1e-6)

    def test_iwip_fit_finite(self, fit6):
        assert math.isfinite(fit6.value)
        assert fit6.value >= 1.0
        assert len(fit6.ratios) == 13
        assert -3.0 <= fit6.s_at <= 3.0


class TestCheckMinisline:
    def test_rejects_b_below_one(self):
        with pytest.raises(ValueError):
            check_minisline(FLOOR_MU, FLOOR_NU, 0.5, [1.0], EPS)

    def test_rejects_empty_s_list(self):
        with pytest.raises(ValueError, match="at least one s"):
            check_minisline(FLOOR_MU, FLOOR_NU, 2.0, [], EPS)

    def test_center_row_trivial_bounds(self):
        rep = check_minisline(FLOOR_MU, FLOOR_NU, 2.0, [0.0], EPS)
        row = rep.rows[0]
        assert row.distance == 0.0
        assert row.lower < 0 <= row.distance <= row.upper
        assert row.passed and rep.passed

    def test_iwip_pair_passes_at_fitted_b(self, pair6, fit6):
        rep = check_minisline(
            pair6.forward, pair6.backward, fit6.value, [1.0, 2.0], EPS
        )
        assert rep.passed
        assert rep.worst_margin >= 0
        for row in rep.rows:
            assert row.lower <= row.distance <= row.upper

    def test_unit_b_flags_lower_violation(self):
        # d stays 0 on the floor pair while 2s - 2 log 1 grows: the checker
        # must report the failure, not smooth over it
        rep = check_minisline(FLOOR_MU, FLOOR_NU, 1.0, [1.0, 2.0], EPS)
        assert not rep.passed
        assert rep.worst_margin < 0
        assert all(not row.passed for row in rep.rows)

    def test_enlarging_b_never_breaks_a_pass(self, pair6, fit6):
        small = check_minisline(
            pair6.forward, pair6.backward, fit6.value, [1.0], EPS
        )
        big = check_minisline(
            pair6.forward, pair6.backward, 2 * fit6.value, [1.0], EPS
        )
        assert small.rows[0].distance == big.rows[0].distance
        assert big.rows[0].passed or not small.rows[0].passed
        assert big.worst_margin >= small.worst_margin


class TestCheckContracting:
    def test_rejects_b_below_one(self, floor_ax):
        with pytest.raises(ValueError):
            check_contracting(floor_ax, 0.9, CFG)

    @pytest.mark.parametrize("near_step", [0.0, -0.25, math.nan])
    def test_rejects_a_near_step_that_never_reaches_one(self, floor_ax, near_step):
        # clause 3 lists s = -1, -1 + near_step, ... up to 1 before it walks
        with pytest.raises(ValueError, match="near_step"):
            check_contracting(floor_ax, 2.0, CFG._replace(near_step=near_step))

    @pytest.mark.parametrize("near_step, match", [
        (1e-17, "grid points do not increase at s=-1.0"),
        (1e-5, f"more than {_MAX_GRID} steps"),
    ])
    def test_rejects_a_near_step_that_cannot_reach_one(self, floor_ax, near_step, match):
        """Below the float spacing of s the near grid never reached 1 and
        grew until memory ran out; above it, a fine step asked for more
        descents than any axis may take.  Both raise before sampling."""
        with pytest.raises(ValueError, match=match):
            check_contracting(floor_ax, 2.0, CFG._replace(near_step=near_step))

    @pytest.mark.parametrize("near_step", [0.25, 0.1, 0.3, 0.7, 2.5])
    def test_walks_the_near_grid_of_the_former_loop(self, floor_ax, near_step, monkeypatch):
        """Clause 3 walks bit for bit the s values of the former loop,
        which summed near_step onto -1 until it passed 1."""
        want = []
        s = -1.0
        while s <= 1.0 + 1e-9:
            want.append(s)
            s += near_step

        class Walked(Exception):
            pass

        def walk(mu, nu, ss, *args):
            raise Walked(list(ss))

        monkeypatch.setattr(diagnostics, "_walk", walk)
        with pytest.raises(Walked) as walked:
            check_contracting(floor_ax, 2.0, CFG._replace(near_step=near_step, n_far=0))
        assert walked.value.args[0] == want

    @pytest.mark.parametrize("name", sorted(_MAX_COUNTS))
    def test_config_rejects_a_negative_count(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 0, not -1"):
            CFG._replace(**{name: -1})
        assert getattr(CFG._replace(**{name: 0}), name) == 0

    @pytest.mark.parametrize("name", sorted(_MAX_COUNTS))
    def test_config_rejects_a_count_over_its_cap(self, name):
        cap = _MAX_COUNTS[name]
        with pytest.raises(ValueError, match=f"{name} must be at most {cap}, not {cap + 1}"):
            CFG._replace(**{name: cap + 1})
        assert getattr(CFG._replace(**{name: cap}), name) == cap

    def test_diagonal_fails_doubling_with_witness(self, diag_report):
        assert not diag_report.passed
        clause = diag_report.clause(2)
        assert not clause.passed
        assert not clause.vacuous
        assert clause.n_samples > 0
        assert "ratio" in clause.witness
        assert clause.margin < 0

    def test_diagonal_center_clause_exact(self, diag_report):
        # e^s mu + e^{-s} mu rescales one current, so the minimizer never
        # moves and the central clause holds with full margin
        clause = diag_report.clause(3)
        assert clause.passed
        assert clause.margin == pytest.approx(2.0, abs=1e-12)

    def test_report_carries_config(self, diag_report):
        assert diag_report.b == 2.0
        assert diag_report.config is CFG
        assert diag_report.axis_points == 5
        with pytest.raises(KeyError):
            diag_report.clause(7)

    def test_iwip_pair_passes_at_doubled_fit(self, ax6, fit6):
        rep = check_contracting(ax6, 2 * fit6.value, CFG)
        assert rep.passed
        assert rep.fitted <= fit6.value + 1e-9
        assert rep.clause(1).margin > 0
        # twist and walk samplers cannot reach distance 2B at this scale;
        # the far clauses must say so rather than fabricate samples
        for k in (2, 5):
            assert rep.clause(k).vacuous
            assert rep.clause(k).n_samples == 0
        assert rep.clause(4).n_samples == 1 + CFG.n_sigma

    def test_undersized_b_fails_with_data(self, ax6):
        rep = check_contracting(ax6, 3.0, CFG)
        assert not rep.passed
        clause = rep.clause(2)
        assert not clause.vacuous
        assert clause.n_samples > 0
        assert not clause.passed
        assert "pairing ratio" in clause.witness
        assert rep.clause(3).margin < 0

    def test_clause5_counts_each_distinct_dual_once(self, pair6):
        """The balanced point does not depend on its seed when the identity
        marking balances, so more balanced samples add no new duals: clause
        5 reads the same samples, margin and witness at 3 as at 1."""
        cfg = SamplerConfig(seed=0, n_far=1, n_sigma=1, n_balanced=1, budget=20, shift=TRIB)
        ax = walk(pair6.forward, pair6.backward, s_max=0.5, budget=20)
        one, three = (
            check_contracting(ax, 1.0, cfg._replace(n_balanced=k)).clause(5)
            for k in (1, 3)
        )
        assert not one.vacuous and one.n_samples > 0
        assert (three.n_samples, three.margin, three.witness) == (
            one.n_samples, one.margin, one.witness
        )

    def test_enumerates_candidates_once_per_unmarked_graph(self, pair6, monkeypatch):
        """Translates share their source's unmarked graph, so candidate
        paths are enumerated once per graph, and a shape again only when a
        graph of that shape is built afresh (a rose, a collapse).  This run
        enumerates 10 times over 8 shapes; once per marking it was 159."""
        seen = []
        enumerate_paths = graphs._candidate_paths

        def spy(t):
            seen.append(t)
            return enumerate_paths(t)

        monkeypatch.setattr(graphs, "_candidate_paths", spy)
        cfg = SamplerConfig(seed=1, n_far=3, n_sigma=4, n_balanced=1, shift=TRIB)
        check_contracting(walk(pair6.forward, pair6.backward), 8.0, cfg)
        shapes = {tuple(sorted(t.ends.items())) for t in seen}
        assert len({id(t) for t in seen}) == len(seen)
        assert len(seen) <= 2 * len(shapes)


class TestBallProjection:
    def test_zero_radius_collapses(self, ax6, off_axis_center):
        bp = ball_projection_diameter(ax6, off_axis_center, 0.0, 5, seed=1)
        assert bp.diameter == 0.0
        assert bp.n_distinct == 1
        assert bp.center_distance_to_axis > 3.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_sample(self, ax6, off_axis_center, n):
        with pytest.raises(ValueError, match="at least one sample"):
            ball_projection_diameter(ax6, off_axis_center, 0.5, n)

    def test_rejects_a_sample_over_its_cap(self, ax6, off_axis_center):
        with pytest.raises(ValueError, match=f"at most {_MAX_BALL_SAMPLES}, not"):
            ball_projection_diameter(ax6, off_axis_center, 0.5, _MAX_BALL_SAMPLES + 1)

    def test_ball_touching_axis_rejected(self, ax6):
        x0 = ax6.samples[ax6.nearest_index(0.0)][1]
        with pytest.raises(ValueError, match="meets the sampled axis"):
            ball_projection_diameter(ax6, x0, 0.5, 4)

    def test_refining_samples_never_shrinks(self, ax6, off_axis_center):
        coarse = ball_projection_diameter(ax6, off_axis_center, 1.5, 5, seed=2)
        fine = ball_projection_diameter(ax6, off_axis_center, 1.5, 10, seed=2)
        assert coarse.n_samples == 5 and fine.n_samples == 10
        assert fine.diameter >= coarse.diameter - 1e-12

    def test_small_ball_near_axis_projects_tight(self, pair6, ax6):
        end = ax6.samples[-1][1]
        near = jitter(end, random.Random(7), 0.25, EPS)
        gap = min(d_sym(near, p) for p in ax6.points())
        assert gap > 0.1
        bp = ball_projection_diameter(ax6, near, 0.1, 6, seed=3)
        assert bp.diameter <= 0.5
        foot = project(near, pair6.forward, pair6.backward, EPS).point
        assert d_sym(foot, end) <= 2.0


class TestOverlapTau:
    def test_self_overlap_full_ray(self, ax6):
        x0 = ax6.samples[ax6.nearest_index(0.0)][1]
        assert overlap_tau(ax6, ax6, x0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_distant_translates_vanish(self, translates, ax6):
        a, b, _ = translates
        x0 = ax6.samples[ax6.nearest_index(0.0)][1]
        assert overlap_tau(a, b, x0, 0.01) == 0.0

    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0, 3.5, 4.0, 5.0])
    def test_symmetric_bit_for_bit(self, long_axes, c):
        # the tau command measures each unordered pair once and mirrors it
        ax = long_axes[0]
        for x in (ax.samples[ax.nearest_index(0.0)][1], spine_points(3, EPS, 5, 1)[0]):
            for i, a in enumerate(long_axes):
                for b in long_axes[i + 1 :]:
                    assert overlap_tau(a, b, x, c) == overlap_tau(b, a, x, c)

    def test_mismatched_grids_rejected(self, ax6):
        shrunk = AxisSample(ax6.mu, ax6.nu, ax6.samples, ax6.eps, 0.25)
        x0 = ax6.samples[2][1]
        with pytest.raises(ValueError):
            overlap_tau(ax6, shrunk, x0, 1.0)

    def test_translated_triple_ultrametric(self, translates, ax6):
        # threshold values bracket the fellow-traveling scale of these
        # translates; the discretization allowance is one grid step
        a, b, c = translates
        x0 = ax6.samples[ax6.nearest_index(0.0)][1]
        for tol in (3.5, 5.0):
            tau = {
                ("ab"): overlap_tau(a, b, x0, tol),
                ("bc"): overlap_tau(b, c, x0, tol),
                ("ac"): overlap_tau(a, c, x0, tol),
            }
            step = ax6.step
            assert tau["ac"] >= min(tau["ab"], tau["bc"]) - step - 1e-9
            assert tau["ab"] >= min(tau["ac"], tau["bc"]) - step - 1e-9
            assert tau["bc"] >= min(tau["ab"], tau["ac"]) - step - 1e-9


class TestMaxRun:
    def test_matches_the_prefix_replay(self, long_axes):
        ax = long_axes[0]
        x0 = ax.samples[ax.nearest_index(0.0)][1]
        runs = []
        for other in long_axes:
            for toward_high in (True, False):
                ra = _ray(ax, balance_param(x0, ax.mu, ax.nu), toward_high)
                rb = _ray(other, balance_param(x0, other.mu, other.nu), toward_high)
                for c in (0.0, 3.0, 3.5, 4.0, 5.0):
                    run = _max_run(ra, rb, ax.step, c)
                    assert run == o_max_run(ra, rb, ax.step, c)
                    if other is ax and c == 0.0:
                        assert run == (len(ra) - 1) * ax.step
                    runs.append(run)
        # some runs stop after more than two steps, before the ray ends
        assert any(2 * ax.step < run < 2.0 for run in runs)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_prefix_replay_on_scattered_points(self, seed):
        # unlike an axis's few distinct distances, scattered points stop
        # the run at many values of c, from either list's side
        pts = spine_points(3, EPS, seed, 12)
        ra, rb = pts[:6], pts[6:]
        dists = sorted(d_sym(p, q) for p in ra for q in rb)
        for c in [d / 2 for d in dists[::3]]:
            assert _max_run(ra, rb, 1.0, c) == o_max_run(ra, rb, 1.0, c)
            assert _max_run(rb, ra, 1.0, c) == o_max_run(rb, ra, 1.0, c)

    def test_a_point_is_at_distance_zero_from_itself(self):
        # both sides of each candidate's ratio are summed in edge order, so
        # every ratio of a point to itself is exactly one; a run at c = 0
        # needs that 0
        pts = spine_points(3, EPS, 0, 8)
        assert all(d_sym(p, p) == 0 for p in pts + spine_points(3, EPS, 3, 60))
        assert _max_run(pts, pts, 0.25, 0.0) == 7 * 0.25 == o_max_run(pts, pts, 0.25, 0.0)

    def test_a_far_point_is_not_measured_against_itself(self, monkeypatch):
        # tribonacci^30 marks the rose by loops of 125,491 edges; measuring
        # the translate against itself would tighten paths of millions
        far = transform(rose([0.5, 0.25, 0.25]), power(TRIB, 30))

        def refuse(table, steps):
            raise AssertionError("a path was built")

        monkeypatch.setattr(graphs, "_expand", refuse)
        assert d_sym(far, far) == 0.0
        assert _max_run([far] * 3, [far] * 3, 0.25, 0.0) == 2 * 0.25
