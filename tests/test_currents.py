"""Rational currents: pairing linearity, equivariance, iwip power iteration."""

import functools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from outerspine import (
    Automorphism,
    NielsenMove,
    RationalCurrent,
    Word,
    add,
    apply_to_current,
    dual,
    exp_combination,
    invert,
    iwip_pair_approx,
    normalize_at,
    pairing,
    parse_word,
    rescale,
    rose,
    scale,
    transform,
    translation_length,
    unit_rose,
    with_lengths,
)
from outerspine import graphs
from outerspine.sampling import spine_points

from oracles import newton_root, o_add, o_exp_combination, o_scale, o_spelling_rep

ROSE = unit_rose(3)

TRIB = Automorphism.from_moves(3, [
    NielsenMove("transpose", 1, 2),
    NielsenMove("transpose", 1, 3),
    NielsenMove("right_multiply", 1, 2, False),
])

LAMBDA_PLUS = newton_root([1.0, 0.0, -1.0, -1.0], 1.3)
LAMBDA_MINUS = newton_root([1.0, -1.0, 0.0, -1.0], 1.5)


def w(text):
    return parse_word(text, 3)


@functools.lru_cache(maxsize=None)
def trib_approx(k, tol=1e-6):
    return iwip_pair_approx(TRIB, w("a"), k, tol=tol)


# weights stay representable and pairings stay well away from underflow
weights_st = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


class TestRationalCurrent:
    def test_atoms_canonical_and_merged(self):
        nu = RationalCurrent(3, [(w("a b"), 1.0), (w("b a"), 2.0), (w("b' a'"), 4.0)])
        assert len(nu.atoms) == 1
        assert nu.total_weight() == 7.0

    def test_zero_weight_dropped(self):
        nu = RationalCurrent(3, [(w("a"), 1.0), (w("b"), 0.0)])
        assert len(nu.atoms) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RationalCurrent(3, [(w("a"), -1.0)])

    def test_trivial_class_rejected(self):
        with pytest.raises(ValueError):
            RationalCurrent(3, [(w("a a'"), 1.0)])

    def test_conjugate_atoms_merge_under_add(self):
        both = add(dual(w("c' a b c")), dual(w("a b")))
        assert len(both.atoms) == 1
        assert both.total_weight() == 2.0

    def test_str(self):
        assert str(dual(w("a"))) == "1*[a]"

    def test_bool(self):
        assert dual(w("a"))
        assert not RationalCurrent(3)


class TestPairing:
    def test_unit_rose_single_petal(self):
        assert pairing(ROSE, dual(w("a"))) == pytest.approx(1 / 3)

    def test_linearity_example(self):
        nu = add(dual(w("a")), dual(w("b c"), 2.0))
        assert pairing(ROSE, nu) == pytest.approx(5 / 3)

    def test_additive_exactly(self):
        mu = dual(w("a b"), 1.7)
        nu = add(dual(w("c"), 0.3), dual(w("a c' b"), 2.0))
        assert pairing(ROSE, add(mu, nu)) == pairing(ROSE, mu) + pairing(ROSE, nu)

    # power-of-two scalars commute with float rounding, so both homogeneity
    # laws hold with zero tolerance; arbitrary scalars get a 1e-12 version
    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 4.0, 8.0])
    def test_homogeneity_exact_power_of_two(self, c):
        nu = add(dual(w("a b"), 0.7), dual(w("c"), 1.3))
        assert pairing(ROSE, scale(nu, c)) == c * pairing(ROSE, nu)
        assert pairing(rescale(ROSE, c), nu) == c * pairing(ROSE, nu)

    @given(t=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_any_scalar(self, t):
        nu = add(dual(w("a b'"), 1.0), dual(w("b c"), 2.0))
        assert pairing(ROSE, scale(nu, t)) == pytest.approx(
            t * pairing(ROSE, nu), rel=1e-12
        )

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            pairing(ROSE, dual(parse_word("a", 2)))

    def test_spine_floor(self):
        # every atom has translation length >= systole >= eps, so the
        # pairing of any current is at least eps times its total weight
        eps = 0.05
        rng = random.Random(7)
        points = spine_points(3, eps, 11, 12)
        for g in points:
            atoms = [
                (w("a b" if rng.random() < 0.5 else "c a' b"), rng.uniform(0.1, 3.0)),
                (w("c"), rng.uniform(0.1, 3.0)),
            ]
            nu = RationalCurrent(3, atoms)
            assert pairing(g, nu) >= eps * nu.total_weight() - 1e-12


    @given(
        i=st.integers(0, 11),
        xs=st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9),
        atoms=st.lists(
            st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=14), weights_st),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_the_weighted_translation_lengths(self, i, xs, atoms):
        """On relengthed points, which share the topology's crossing
        counts, the pairing is exactly the sum of weighted translation
        lengths, summed in atom order."""
        g = PAIRING_POINTS[i]
        words = [
            Word(g.rank, [x for x in letters if 0 < abs(x) <= g.rank]) for letters, _ in atoms
        ]
        nu_atoms = [(v, weight) for v, (_, weight) in zip(words, atoms) if v]
        assume(nu_atoms)
        nu = RationalCurrent(g.rank, nu_atoms)
        for h in (g, with_lengths(g, xs[: len(g.edges)])):
            want = 0.0
            for letters, weight in nu.atoms:
                want += weight * translation_length(h, Word(g.rank, letters))[0]
            assert pairing(h, nu) == want


PAIRING_POINTS = spine_points(3, 0.05, 13, 6) + spine_points(4, 0.05, 13, 6)


class TestCombinations:
    def test_exp_combination_weights(self):
        s = 0.7
        both = exp_combination(dual(w("a")), dual(w("b")), s)
        by_class = {ls: wt for ls, wt in both.atoms}
        assert by_class[(1,)] == math.exp(s)
        assert by_class[(2,)] == math.exp(-s)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(dual(w("a")), 0.0)

    def test_add_rank_mismatch(self):
        with pytest.raises(ValueError):
            add(dual(w("a")), dual(parse_word("a", 2)))


class TestNormalizeAt:
    def test_unit_rose_weight_three(self):
        nu = normalize_at(ROSE, dual(w("a")))
        assert nu.atoms == (((1,), pytest.approx(3.0)),)

    def test_result_pairs_to_one(self):
        nu = add(dual(w("a b c"), 0.4), dual(w("b' a"), 2.2))
        assert pairing(ROSE, normalize_at(ROSE, nu)) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        nu = normalize_at(ROSE, dual(w("a c b c"), 5.0))
        again = normalize_at(ROSE, nu)
        assert again.atoms[0][0] == nu.atoms[0][0]
        assert again.atoms[0][1] == pytest.approx(nu.atoms[0][1], rel=1e-15)


class TestApplyToCurrent:
    def test_identity(self):
        nu = add(dual(w("a b")), dual(w("c"), 2.0))
        ident = Automorphism.from_moves(3, [])
        assert apply_to_current(ident, nu).atoms == nu.atoms

    def test_forward_image(self):
        assert apply_to_current(TRIB, dual(w("a"))).atoms == dual(w("b")).atoms

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_weights_and_atom_count_preserved(self, seed):
        rng = random.Random(seed)
        from outerspine.sampling import random_automorphism

        phi = random_automorphism(rng, 3, rng.randrange(1, 6))
        atoms = [(w("a b c"), 0.5), (w("b"), 1.5), (w("a c'"), 0.25)]
        nu = RationalCurrent(3, atoms)
        out = apply_to_current(phi, nu)
        # an automorphism is injective on conjugacy classes, but distinct
        # classes may collide as unoriented keys only if related by
        # inversion; these three never are, so the count survives
        assert len(out.atoms) == len(nu.atoms)
        assert out.total_weight() == pytest.approx(nu.total_weight(), rel=1e-15)

    def test_pairing_equivariance(self):
        # moving the graph by phi equals moving the current by phi^-1
        nu = add(dual(w("a b"), 1.0), dual(w("c a"), 0.5))
        for moves in ([NielsenMove("right_multiply", 1, 3)],
                      [NielsenMove("invert", 2), NielsenMove("transpose", 1, 3)]):
            phi = Automorphism.from_moves(3, moves)
            lhs = pairing(transform(ROSE, phi), nu)
            rhs = pairing(ROSE, apply_to_current(invert(phi), nu))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestIwipApprox:
    def test_k_zero_is_normalized_seed(self):
        ap = iwip_pair_approx(TRIB, w("a"), 0)
        assert ap.forward.atoms == normalize_at(ROSE, dual(w("a"))).atoms

    def test_single_atom_each_side(self):
        ap = trib_approx(8)
        assert len(ap.forward.atoms) == 1
        assert len(ap.backward.atoms) == 1

    def test_tribonacci_growth_rates(self):
        ap = trib_approx(25)
        assert ap.lambda_forward == pytest.approx(LAMBDA_PLUS, abs=1e-3)
        assert ap.lambda_backward == pytest.approx(LAMBDA_MINUS, abs=1e-3)
        assert ap.exponential

    def test_convergence_flag_tracks_tol(self):
        # length ratios on the rose are rationals with bounded denominators,
        # so the estimates wobble at ~1e-4; a 1e-3 tol sees convergence,
        # the default 1e-6 honestly does not at k = 25
        assert trib_approx(25, tol=1e-3).converged
        assert not trib_approx(25).converged

    def test_lambda_diffs_decay_geometrically(self):
        ap = trib_approx(25)
        hist = ap.lambda_history
        for side in (0, 1):
            diffs = [abs(hist[k][side] - hist[k - 1][side]) for k in range(1, 26)]
            d5, d25 = diffs[4], diffs[24]
            assert d25 < d5
            # mean per-step contraction over the window; single steps
            # oscillate (complex secondary eigenvalues) so the per-step
            # ratio is not the right thing to pin down
            assert (d25 / d5) ** (1 / 20) < 0.9

    def test_polynomial_growth_flagged(self):
        psi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 3, 1)])
        ap = iwip_pair_approx(psi, w("c"), 1500)
        assert not ap.exponential
        assert not ap.converged
        assert ap.lambda_forward == pytest.approx(1.0, abs=1e-2)
        assert ap.lambda_backward == pytest.approx(1.0, abs=1e-2)

    def test_fixed_seed_gives_ratio_one(self):
        psi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 3, 1)])
        ap = iwip_pair_approx(psi, w("a"), 5)
        assert ap.lambda_forward == 1.0
        assert not ap.exponential

    def test_images_form_matches_moves_form(self):
        raw = Automorphism.from_images(3, [w("b"), w("c"), w("a b")])
        assert iwip_pair_approx(raw, w("a"), 6) == iwip_pair_approx(TRIB, w("a"), 6)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            iwip_pair_approx(TRIB, Word(3), 3)

    def test_base_of_another_rank_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch: 3 != 4"):
            iwip_pair_approx(TRIB, w("a"), 3, base=unit_rose(4))

    def test_builds_no_loop_on_the_default_base(self, monkeypatch):
        # the unit rose is marked by its petals: every length, the
        # normalizing pairings included, is read off letter counts
        want = trib_approx(8)

        def refuse(path):
            raise AssertionError("a loop was tightened")

        monkeypatch.setattr(graphs, "_tighten", refuse)
        assert iwip_pair_approx(TRIB, w("a"), 8) == want


@st.composite
def current_pairs(draw):
    """Two currents of one rank in 2..4, with conjugate and repeated atoms."""
    rank = draw(st.integers(2, 4))
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    atom = st.tuples(st.lists(st.sampled_from(alphabet), min_size=1, max_size=12), weights_st)

    def current():
        words = [(Word(rank, letters), weight) for letters, weight in draw(st.lists(atom, max_size=5))]
        return RationalCurrent(rank, [(v, weight) for v, weight in words if v])

    return current(), current()


class TestCanonicalAtoms:
    """scale, add and exp_combination merge atoms already canonical; they
    equal the path that rebuilds and re-canonicalizes every atom."""

    @given(current_pairs(), st.floats(0.01, 100.0), st.floats(-20.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_match_the_recanonicalizing_path(self, pair, t, s):
        mu, nu = pair
        got = [scale(mu, t), add(mu, nu), add(mu, mu), exp_combination(mu, nu, s)]
        assert got == [o_scale(mu, t), o_add(mu, nu), o_add(mu, mu), o_exp_combination(mu, nu, s)]
        for c in got:
            # canonical atoms, in length then spelling order, weights > 0
            keys = [(len(ls), tuple(2 * abs(x) + (x < 0) for x in ls)) for ls, _ in c.atoms]
            assert keys == sorted(set(keys))
            assert all(ls == o_spelling_rep(ls) and weight > 0 for ls, weight in c.atoms)

    def test_scale_raises_on_overflow(self):
        with pytest.raises(ValueError, match="finite"):
            scale(dual(w("a b"), 1e300), 1e10)
        with pytest.raises(ValueError, match="finite"):
            exp_combination(dual(w("a"), 1e300), dual(w("b")), 100.0)

    def test_scale_drops_an_underflowing_weight(self):
        nu = add(dual(w("a"), 1e-300), dual(w("b")))
        got = scale(nu, 1e-30)
        assert got.atoms == (((2,), 1e-30),)
        assert got == o_scale(nu, 1e-30)
