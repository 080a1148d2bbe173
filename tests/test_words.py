"""Free-group plumbing: reduction, cyclic forms, automorphisms."""

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerspine import (
    Automorphism,
    NielsenMove,
    Word,
    apply,
    cli,
    compose,
    cyclic_reduce,
    elementary_automorphisms,
    format_word,
    invert,
    parse_word,
    power,
    transform,
)
from outerspine.sampling import random_automorphism, spine_points
from outerspine.words import (
    _replay,
    _signed,
    _substitute,
    canonical_representative,
    free_reduce,
    invert_basis,
)

from oracles import o_invert, o_reduce, o_spelling_rep

TRIBONACCI = Automorphism.from_moves(
    3,
    [
        NielsenMove("transpose", 1, 2),
        NielsenMove("transpose", 1, 3),
        NielsenMove("right_multiply", 1, 2),
    ],
)


letters_st = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=14
)

# short words, periodic words u^k (many tied rotations) and long words
class_words_st = st.one_of(
    letters_st,
    st.builds(lambda u, k: u * k, letters_st, st.integers(1, 40)),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=100, max_size=400),
)


def random_auto(rng, n_moves=6):
    moves = []
    for _ in range(n_moves):
        kind = rng.choice(["invert", "transpose", "right_multiply"])
        t = rng.randrange(1, 4)
        o = rng.choice([k for k in (1, 2, 3) if k != t])
        if kind == "invert":
            moves.append(NielsenMove("invert", t))
        elif kind == "transpose":
            moves.append(NielsenMove("transpose", t, o))
        else:
            moves.append(NielsenMove("right_multiply", t, o, rng.random() < 0.5))
    return Automorphism.from_moves(3, moves)


class TestReduction:
    def test_cancellation(self):
        assert format_word(parse_word("a b b' c", 3)) == "a c"

    def test_empty(self):
        assert parse_word("", 3).letters == ()

    def test_full_cancellation(self):
        assert parse_word("a a'", 3).letters == ()

    def test_parse_accepts_uppercase_and_minus(self):
        assert parse_word("A -b", 3) == parse_word("a' b'", 3)

    @given(letters_st)
    def test_matches_oracle(self, letters):
        assert free_reduce(letters) == o_reduce(letters)

    @given(letters_st)
    def test_idempotent_and_no_longer(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once) == once
        assert len(once) <= len(letters)


@st.composite
def image_tables(draw):
    """(rank, images of x_1..x_rank): each reduced and nonempty, and the
    last one, when drawn so, the inverse of an earlier one followed by a
    reduced tail, so that substituting that earlier letter and then the
    last cancels the earlier image whole."""
    rank = draw(st.integers(2, 4))
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    word = st.lists(st.sampled_from(alphabet), min_size=1, max_size=12).map(o_reduce).filter(bool)
    images = [draw(word) for _ in range(rank)]
    if draw(st.booleans()):
        undone = images[draw(st.integers(0, rank - 2))]
        tail = draw(
            st.lists(st.sampled_from(alphabet), max_size=4)
            .map(o_reduce)
            .filter(lambda t: t[:1] != undone[:1])
        )
        images[-1] = o_invert(undone) + tail
    return rank, images


class TestSubstitute:
    """Images joined where they meet against the concatenation reduced
    letter by letter."""

    @given(image_tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reduced_concatenation(self, case, data):
        rank, images = case
        alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
        letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=30))
        table = _signed(map(tuple, images))
        assert _substitute(letters, table) == o_reduce(x for y in letters for x in table[y])

    def test_an_image_cancels_whole(self):
        table = _signed([(1, 2, 3), (-3, -2, -1, 2), (3,)])
        assert _substitute([1, 2], table) == (2,)
        assert _substitute([1, 2, -2, 3, -3, -1], table) == ()


class TestCyclicReduce:
    def test_conjugate_of_generator(self):
        core, conj = cyclic_reduce(parse_word("b a b'", 3))
        assert format_word(core) == "a"
        assert format_word(conj) == "b"

    def test_already_reduced(self):
        core, conj = cyclic_reduce(parse_word("a b", 3))
        assert format_word(core) == "a b"
        assert conj.letters == ()

    def test_two_step_conjugator(self):
        # brute check over all conjugators u with |u| <= 3 agrees
        w = parse_word("c' a b a' c", 3)
        core, conj = cyclic_reduce(w)
        assert format_word(core) == "b"
        assert format_word(conj) == "c' a"
        rebuilt = free_reduce(conj.letters + core.letters + tuple(-x for x in reversed(conj.letters)))
        assert rebuilt == w.letters

    @given(letters_st)
    def test_splits_exactly(self, letters):
        w = Word(3, tuple(letters))
        core, conj = cyclic_reduce(w)
        assert free_reduce(conj.letters + core.letters + tuple(-x for x in reversed(conj.letters))) == w.letters
        # core is cyclically reduced
        assert not (core.letters and core.letters[0] == -core.letters[-1])


class TestSpellingRepresentative:
    @given(class_words_st)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, letters):
        assert canonical_representative(Word(3, tuple(letters))).letters == o_spelling_rep(letters)

    @given(letters_st, st.integers(0, 5))
    def test_conjugation_invariant(self, letters, seed):
        rng = random.Random(seed)
        u = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(4))]
        w = Word(3, tuple(letters))
        conj = Word(3, tuple(u) + w.letters + tuple(-x for x in reversed(u)))
        assert canonical_representative(w) == canonical_representative(conj)


class TestAutomorphism:
    def test_images_read_off(self):
        assert apply(TRIBONACCI, parse_word("a", 3)) == parse_word("b", 3)
        assert apply(TRIBONACCI, parse_word("b", 3)) == parse_word("c", 3)
        assert apply(TRIBONACCI, parse_word("c", 3)) == parse_word("a b", 3)

    def test_identity(self):
        e = Automorphism.identity(3)
        for text in ("a", "b c", "a b' c a"):
            w = parse_word(text, 3)
            assert apply(e, w) == w

    def test_substitute_then_reduce(self):
        assert apply(TRIBONACCI, parse_word("c a'", 3)) == parse_word("a", 3)

    def test_replay_reproduces_images(self):
        got = Automorphism.from_moves(3, TRIBONACCI.moves).images
        assert got == TRIBONACCI.images

    def test_nielsen_inverse(self):
        phi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 1, 2)])
        inv = invert(phi)
        assert inv.images[0] == (1, -2)
        assert inv.images[1] == (2,)

    def test_compose_with_inverse_is_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            phi = random_auto(rng)
            assert compose(phi, invert(phi)).images == Automorphism.identity(3).images

    def test_double_transpose_is_identity(self):
        t = Automorphism.from_moves(3, [NielsenMove("transpose", 1, 2)])
        assert compose(t, t).images == Automorphism.identity(3).images

    def test_from_images_carries_inverse(self):
        raw = Automorphism.from_images(3, TRIBONACCI.image_words())
        assert raw.moves is None
        assert [format_word(w) for w in invert(raw).image_words()] == ["c a'", "a", "b"]
        assert power(raw, -2) == power(TRIBONACCI, -2)
        assert power(raw, -2).inverse_images == power(TRIBONACCI, -2).inverse_images
        base = spine_points(3, 0.05, 4, 1)[0]
        got, want = transform(base, raw), transform(base, TRIBONACCI)
        assert got == want
        assert all(got.comarking_word(e.id) == want.comarking_word(e.id) for e in base.edges)

    @given(st.integers(0, 30), letters_st)
    def test_round_trip_on_words(self, seed, letters):
        phi = random_auto(random.Random(seed))
        w = Word(3, tuple(letters))
        assert apply(invert(phi), apply(phi, w)) == w

    @given(st.integers(0, 30), letters_st, st.integers(0, 3))
    def test_cyclic_length_is_class_function(self, seed, letters, conj_seed):
        phi = random_auto(random.Random(seed))
        rng = random.Random(conj_seed)
        u = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(3))
        w = Word(3, tuple(letters))
        uwu = Word(3, u + w.letters + tuple(-x for x in reversed(u)))
        a = canonical_representative(apply(phi, w))
        b = canonical_representative(apply(phi, uwu))
        assert a == b

    def test_equality_ignores_factorization(self):
        twice = Automorphism.from_moves(3, [NielsenMove("invert", 1), NielsenMove("invert", 1)])
        assert twice == Automorphism.identity(3)
        assert hash(twice) == hash(Automorphism.identity(3))

    @given(st.integers(0, 10_000), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_replay(self, seed, n_moves):
        rng = random.Random(seed)
        outer, inner = random_auto(rng, n_moves), random_auto(rng, rng.randrange(4))
        phi = compose(outer, inner)
        moves = inner.moves + outer.moves
        inv = invert(phi)
        assert inv.images == _replay(3, tuple(m.inverted() for m in reversed(moves)))
        assert invert(inv) == phi

    def test_compositions_carry_no_factorization(self):
        """Only ``from_moves`` keeps moves: a composition, an inverse and a
        power would otherwise copy every factor's moves."""
        phi = Automorphism.from_moves(3, [NielsenMove("transpose", 1, 2), NielsenMove("invert", 1)])
        assert phi.moves == (NielsenMove("transpose", 1, 2), NielsenMove("invert", 1))
        assert compose(phi, phi).moves is None
        assert invert(phi).moves is None
        assert power(phi, 3).moves is None
        assert power(phi, 0).moves == ()

    def test_inverse_of_squared_twists(self):
        # the twist a -> a b, squared ten times as _far_points does
        twist = NielsenMove("right_multiply", 1, 2)
        phi = Automorphism.from_moves(3, [twist])
        for _ in range(10):
            phi = compose(phi, phi)
        inv = invert(phi)
        assert inv.images[0] == (1,) + (-2,) * 2**10
        assert inv.images == _replay(3, (twist.inverted(),) * 2**10)
        assert invert(inv) == phi
        assert compose(phi, inv) == Automorphism.identity(3)

    def test_power_negative(self):
        sq = power(TRIBONACCI, -2)
        fwd = power(TRIBONACCI, 2)
        assert compose(sq, fwd).images == Automorphism.identity(3).images

    def test_tribonacci_inverse_images(self):
        inv = invert(TRIBONACCI)
        assert [format_word(w) for w in inv.image_words()] == ["c a'", "a", "b"]


class TestSizeGuard:
    def test_oversized_iteration_exits_2(self, tmp_path, capsys):
        # the twist pair a -> ab, b -> ba grows like the Fibonacci numbers, so
        # 40 iterations would need ~10^8 letters; the letter cap stops it
        path = tmp_path / "twist_pair.json"
        path.write_text(json.dumps({
            "format": 1,
            "rank": 3,
            "moves": [
                {"kind": "right_multiply", "target": "a", "by": "b", "inverse": False},
                {"kind": "right_multiply", "target": "b", "by": "a", "inverse": False},
            ],
        }))
        rc = cli.main(["iwip", "--phi", str(path), "--seed", "a", "--k", "40"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestElementaryAutomorphisms:
    def test_count_and_distinct(self):
        gens = elementary_automorphisms(3)
        assert len(gens) == 30
        assert len({g.images for g in gens}) == 30

    def test_all_invertible(self):
        for g in elementary_automorphisms(3):
            assert compose(g, invert(g)).images == Automorphism.identity(3).images

    def test_contains_left_and_right_multiplies(self):
        images = {g.images for g in elementary_automorphisms(3)}
        assert ((1, 2), (2,), (3,)) in images  # a -> a b
        assert ((2, 1), (2,), (3,)) in images  # a -> b a


class TestInvertBasis:
    def test_tribonacci_images_form_a_basis(self):
        vs = invert_basis(TRIBONACCI.image_words())
        # substituting back must give the generators
        sub = Automorphism.from_images(3, vs)
        for k in range(3):
            img = apply(sub, TRIBONACCI.image_words()[k])
            assert img.letters == (k + 1,)

    @pytest.mark.parametrize("seed", range(12))
    def test_products_of_elementary_moves(self, seed):
        # the carried inverse replays the inverted moves, independently
        rng = random.Random(seed)
        rank = 3 + seed % 2
        phi = Automorphism.identity(rank)
        for _ in range(rng.randrange(5, 40)):
            phi = compose(rng.choice(elementary_automorphisms(rank)), phi)
        got = invert_basis(phi.image_words())
        assert tuple(v.letters for v in got) == phi.inverse_images

    def test_rejects_non_basis(self):
        for texts in [("a", "b", "a b a"), ("a a", "b", "c"), ("a b", "b a", "c"), ("a b a' b'", "b", "c")]:
            words = [parse_word(t, 3) for t in texts]
            with pytest.raises(ValueError):
                invert_basis(words)
            with pytest.raises(ValueError):
                Automorphism.from_images(3, words)

    def test_kernel_found_while_folding(self):
        # a b a folds onto the petals a and b with a different label
        with pytest.raises(ValueError, match="kernel"):
            invert_basis([parse_word(t, 3) for t in ("a", "b", "a b a")])


@st.composite
def rank_cases(draw):
    """A rank in 2..4, two words of that rank and an rng seed."""
    rank = draw(st.integers(2, 4))
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    words = st.lists(st.sampled_from(alphabet), max_size=30)
    return rank, Word(rank, draw(words)), Word(rank, draw(words)), draw(st.integers(0, 2**16))


@functools.cache
def _points(rank):
    return spine_points(rank, 0.05, rank, 3)


def assert_checked(w):
    """``w`` is what the checking constructor makes of its letters."""
    assert type(w.letters) is tuple
    assert w == Word(w.rank, w.letters)


class TestTrustedWords:
    """Internal code builds words without re-checking letters it has just
    reduced; each must equal the checked ``Word`` of its letters."""

    @given(rank_cases())
    @settings(max_examples=80, deadline=None)
    def test_internal_words_equal_checked_ones(self, case):
        rank, u, v, seed = case
        rng = random.Random(seed)
        phi = random_automorphism(rng, rank, rng.randrange(0, 8))
        psi = random_automorphism(rng, rank, rng.randrange(0, 8))
        both = compose(phi, psi)
        built = [
            apply(phi, u),
            *cyclic_reduce(u),
            canonical_representative(u),
            canonical_representative(u * v),
            u.inverse(),
            u * v,
            u * u.inverse(),
            *phi.image_words(),
            *both.image_words(),
            *invert(both).image_words(),
            *invert_basis(both.image_words()),
        ]
        g = _points(rank)[seed % 3]
        steps = [(e.id, s) for e in g.edges for s in (1, -1)]
        for path in (*g.marking, [rng.choice(steps) for _ in range(rng.randrange(12))]):
            built.append(g.word_along(path))
        for w in built:
            assert_checked(w)
        # the automorphism images that apply and compose trust
        for img in both.images + both.inverse_images:
            assert Word(rank, img).letters == img
        assert u * v == Word(rank, u.letters + v.letters)
        assert u.inverse() == Word(rank, [-x for x in reversed(u.letters)])

    @pytest.mark.parametrize(
        "images, inverse",
        [
            (((1,), (2,), (4,)), ((1,), (2,), (3,))),  # letter past the rank
            (((1,), (0,), (3,)), ((1,), (2,), (3,))),  # letter zero
            (((1,), (2,), (3,)), ((1,), (-5,), (3,))),  # on the inverse side
            (((1, 2, -2),), ((1,), (2,), (3,))),  # too few images
            (((1, 2, -2), (2,), (3,)), ((1,), (2,), (3,))),  # not reduced
        ],
    )
    def test_automorphism_checks_its_images(self, images, inverse):
        with pytest.raises(ValueError):
            Automorphism(3, images, inverse)
