"""Stretch factors and the Lipschitz metric on the spine."""

import math
import random

import pytest

from outerspine import (
    MarkedGraph,
    Word,
    compose,
    d_L,
    d_sym,
    format_word,
    parse_word,
    rescale,
    rose,
    sigma_scale,
    spine_points,
    stretch,
    transform,
    translation_length,
    unit_rose,
)
from outerspine.diagnostics import _twist_pairs
from outerspine.lipschitz import _ratios
from outerspine.words import elementary_automorphisms

from oracles import o_stretch, reduced_words

X = unit_rose(3)
Y = rose([0.5, 0.25, 0.25])


class TestStretch:
    def test_identity(self):
        rep = stretch(X, X)
        assert rep.factor == pytest.approx(1.0)

    def test_rose_pair_forward(self):
        rep = stretch(X, Y)
        assert rep.factor == pytest.approx(1.5)
        assert format_word(rep.witness) == "a"

    def test_rose_pair_backward(self):
        rep = stretch(Y, X)
        assert rep.factor == pytest.approx(4 / 3)
        assert format_word(rep.witness) in ("b", "c")

    def test_witness_attains_factor(self):
        rep = stretch(X, Y)
        num = translation_length(Y, rep.witness)[0]
        den = translation_length(X, rep.witness)[0]
        assert num / den == pytest.approx(rep.factor)


class TestDistance:
    def test_zero_on_equal(self):
        assert d_L(X, X) == pytest.approx(0.0)
        assert d_sym(X, X) == pytest.approx(0.0)

    def test_rose_pair_values(self):
        assert d_L(X, Y) == pytest.approx(math.log(1.5))
        assert d_L(Y, X) == pytest.approx(math.log(4 / 3))
        assert d_sym(X, Y) == pytest.approx(math.log(2))

    def test_requires_unit_volume(self):
        with pytest.raises(ValueError):
            d_L(X, rescale(Y, 2.0))

    def test_scale_law(self):
        # d_L against a rescaled target shifts by exactly log c
        for c in (2.0, 0.5, 3.0):
            got = math.log(stretch(X, rescale(Y, c)).factor)
            assert got == pytest.approx(d_L(X, Y) + math.log(c))

    def test_word_ratio_dominated_short_words(self):
        val = d_L(X, Y)
        for w in reduced_words(3, 5):
            word = Word(3, w)
            num = translation_length(Y, word)[0]
            den = translation_length(X, word)[0]
            assert math.log(num / den) <= val + 1e-12

    def test_directed_triangle_inequality(self):
        pts = spine_points(3, 0.05, seed=21, n=6)
        for a in pts[:3]:
            for b in pts[2:5]:
                for c in pts[3:]:
                    assert d_L(a, c) <= d_L(a, b) + d_L(b, c) + 1e-9

    def test_out_invariance(self):
        pts = spine_points(3, 0.05, seed=5, n=4)
        for psi in elementary_automorphisms(3)[:8]:
            for a, b in zip(pts, pts[1:]):
                assert d_sym(transform(a, psi), transform(b, psi)) == pytest.approx(
                    d_sym(a, b), abs=1e-9
                )


class TestSigmaScale:
    def test_self(self):
        assert sigma_scale(X, X) == pytest.approx(1.0)

    def test_rescaled(self):
        assert sigma_scale(X, rescale(X, 2.0)) == pytest.approx(0.5)

    def test_rose_pair(self):
        assert sigma_scale(X, Y) == pytest.approx(2 / 3)

    def test_scaled_copy_stretches_exactly_one(self):
        b = sigma_scale(X, Y)
        assert stretch(X, rescale(Y, b)).factor == pytest.approx(1.0)


class TestSelfStretch:
    def test_measured_ratios_to_itself_are_one(self, monkeypatch):
        """``_ratios`` does not measure a point against itself; measured,
        every ratio would be exactly one, since both of its sides are
        summed in edge order."""
        pts = spine_points(3, 0.05, 3, 30) + spine_points(4, 0.05, 3, 10)
        monkeypatch.setattr(MarkedGraph, "__eq__", lambda self, other: False)
        assert all(set(_ratios(p, p)) == {1.0} for p in pts)


def _pairs(rank: int, seed: int):
    """Every ordered pair of seeded spine points, and (x, transform(x, psi))
    for each twist pair doubled as ``_far_points`` doubles it, up to its
    4000-letter guard."""
    pts = spine_points(rank, 0.05, seed=seed, n=5)
    pairs = [(x, y) for x in pts for y in pts]
    x = pts[0]
    for phi in _twist_pairs(rank):
        psi = phi
        for _ in range(24):
            if sum(len(img) for img in psi.images) > 4000:
                break
            pairs.append((x, transform(x, psi)))
            psi = compose(psi, psi)
    return pairs


class TestChangeOfMarking:
    """Distances measured through the change of marking equal, float for
    float, the stretch of every candidate's word measured in the target."""

    @pytest.mark.parametrize("rank, seed", [(3, 2), (3, 9), (4, 2)])
    def test_equals_the_word_stretch(self, rank, seed):
        for x, y in _pairs(rank, seed):
            fwd, bwd = o_stretch(x, y), o_stretch(y, x)
            rep = stretch(x, y)
            assert (rep.factor, rep.witness, rep.per_candidate) == fwd
            assert d_L(x, y) == math.log(fwd[0])
            assert d_sym(x, y) == math.log(fwd[0]) + math.log(bwd[0])
            assert sigma_scale(x, y) == 1.0 / fwd[0]
            assert sigma_scale(y, rescale(x, 2.5)) == 1.0 / o_stretch(y, rescale(x, 2.5))[0]

    def test_zero_length_candidate_raises(self):
        zero = rose([0.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="length 0"):
            stretch(zero, X)
        with pytest.raises(ValueError, match="length 0"):
            d_sym(X, zero)
        assert stretch(X, zero).factor == pytest.approx(1.5)
