"""Marked metric graphs: lengths, cycles, candidates, moves."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerspine import (
    Edge,
    MarkedGraph,
    Word,
    apply,
    candidates,
    collapse_edge,
    embedded_cycles,
    expansions,
    in_spine,
    normalize_volume,
    parse_word,
    rescale,
    rose,
    systole,
    transform,
    translation_length,
    unit_rose,
    with_lengths,
)
from outerspine.graphs import (
    _candidate_paths,
    _canonical_cycle,
    _crossings,
    _expand,
    _Graph,
    _Paths,
    _tight_loop,
    collapse_zero_edges,
)
from outerspine import graphs
from outerspine.sampling import random_automorphism, spine_points
from outerspine.words import (
    MAX_LETTERS,
    Automorphism,
    NielsenMove,
    canonical_representative,
    compose,
    elementary_automorphisms,
    invert,
    power,
)

from builders import bare_splits, parallel_graph
from oracles import (
    conjugacy_classes,
    crossing_vector,
    o_candidates,
    o_cycle_rows,
    o_cyclic_tighten,
    o_marking_reads_back,
    o_tighten,
    rose_length,
)
from record_float_pins import FIXTURE, KEPT, float_pins, pin_points

ROSE = unit_rose(3)


def tl(g, text):
    return translation_length(g, parse_word(text, 3))[0]


def refuse_validation(*args):
    raise AssertionError("a move of a validated graph was validated")


@st.composite
def automorphisms(draw, rank):
    """A random Nielsen product, or one of its powers (|k| <= 2), its
    composite with another, or the automorphism ``from_images`` inverts
    by folding."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    phi = random_automorphism(rng, rank, rng.randrange(1, 6))
    kind = draw(st.sampled_from(["moves", "power", "compose", "images"]))
    if kind == "power":
        return power(phi, draw(st.integers(-2, 2)))
    if kind == "compose":
        return compose(phi, random_automorphism(rng, rank, rng.randrange(1, 6)))
    if kind == "images":
        return Automorphism.from_images(rank, phi.image_words())
    return phi


def random_rose_word(rng, n):
    letters = []
    for _ in range(n):
        x = rng.choice([1, -1, 2, -2, 3, -3])
        if letters and letters[-1] == -x:
            x = -x
        letters.append(x)
    return Word(3, tuple(letters))


class TestTranslationLength:
    def test_single_petal(self):
        assert tl(ROSE, "a") == pytest.approx(1 / 3)

    def test_two_petals(self):
        assert tl(ROSE, "a b") == pytest.approx(2 / 3)

    def test_conjugation_exact(self):
        assert tl(ROSE, "b a b'") == tl(ROSE, "a")

    def test_identity_word_is_trivial_loop(self):
        length, loop = translation_length(ROSE, Word(3))
        assert length == 0.0
        assert loop.trivial

    def test_conjugation_invariance_random(self):
        rng = random.Random(3)
        g = rose([0.5, 0.3, 0.2])
        for _ in range(40):
            w = random_rose_word(rng, rng.randrange(1, 7))
            u = random_rose_word(rng, rng.randrange(0, 6))
            conj = Word(3, u.letters + w.letters + tuple(-x for x in reversed(u.letters)))
            assert translation_length(g, conj)[0] == translation_length(g, w)[0]

    def test_matches_independent_rose_formula(self):
        rng = random.Random(5)
        lengths = [0.45, 0.35, 0.2]
        g = rose(lengths)
        for _ in range(60):
            w = random_rose_word(rng, rng.randrange(1, 9))
            assert tl(g, "") == 0 or translation_length(g, w)[0] == pytest.approx(
                rose_length(lengths, w.letters)
            )

    def test_crossing_vector_inner_product(self):
        rng = random.Random(9)
        g = parallel_graph([0.3, 0.3, 0.2, 0.2])
        for _ in range(30):
            w = random_rose_word(rng, rng.randrange(1, 7))
            counts = crossing_vector(g, w)
            dot = sum(counts[e.id] * e.length for e in g.edges)
            assert dot == pytest.approx(translation_length(g, w)[0])

    def test_crossing_vector_examples(self):
        assert crossing_vector(ROSE, parse_word("a", 3)) == {"a": 1, "b": 0, "c": 0}
        assert crossing_vector(ROSE, parse_word("a b a", 3)) == {"a": 2, "b": 1, "c": 0}
        assert crossing_vector(ROSE, parse_word("a b a' b'", 3)) == {"a": 2, "b": 2, "c": 0}


@st.composite
def petal_roses(draw):
    """A rose of rank 2-4 with drawn lengths whose generators run along its
    petals in a drawn order and direction."""
    rank = draw(st.integers(2, 4))
    names = "abcd"[:rank]
    order = draw(st.permutations(names))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=rank, max_size=rank))
    edges = [Edge(e, "v", "v", x) for e, x in zip(names, lengths)]
    return MarkedGraph(rank, edges, "v", [((e, s),) for e, s in zip(order, signs)])


@st.composite
def conjugated_words(draw, rank):
    """The reduced word of u w u^-1 for drawn u and w: often not cyclically
    reduced."""
    signed = [x for k in range(1, rank + 1) for x in (k, -k)]
    letters = st.lists(st.sampled_from(signed), max_size=30)
    u, w = draw(letters), draw(letters)
    return Word(rank, u + w + [-x for x in reversed(u)])


def assert_reads_the_loop(g, w):
    """``length_of`` reads the crossing counts of the tight loop and, bit
    for bit, the length of ``loop_of``."""
    topo = g._topo
    loop = _tight_loop(topo.letter_paths, w.letters)
    assert topo.counts_of(w) == _crossings(loop, topo.index)
    assert g.length_of(w).hex() == g.loop_of(w).length.hex()


class TestLengthOf:
    """Letter counts on a rose marked by its petals, the tight loop
    elsewhere: the same counts and the same length either way."""

    @given(petal_roses(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_counts_letters_on_a_rose_marked_by_its_petals(self, g, data):
        assert g._topo.petals is not None
        assert_reads_the_loop(g, data.draw(conjugated_words(g.rank)))

    @given(st.integers(2, 4), st.integers(0, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reads_the_tight_loop_on_spine_points(self, rank, seed, data):
        for g in spine_points(rank, 0.05, seed, 3):
            assert_reads_the_loop(g, data.draw(conjugated_words(rank)))

    def test_spine_points_take_both_readers(self):
        petals = [g._topo.petals for s in range(4) for g in spine_points(3, 0.05, s, 3)]
        assert None in petals and any(petals)


class TestSystole:
    def test_unit_rose(self):
        length, loop = systole(ROSE)
        assert length == pytest.approx(1 / 3)

    def test_uneven_rose(self):
        length, loop = systole(rose([0.5, 0.25, 0.25]))
        assert length == pytest.approx(0.25)

    def test_parallel_graph(self):
        length, loop = systole(parallel_graph([0.25] * 4))
        assert length == pytest.approx(0.5)
        assert len(loop.path) == 2

    def test_in_spine_boundary(self):
        assert in_spine(ROSE, 1 / 3)
        assert not in_spine(ROSE, 0.34)

    def test_brute_force_words(self):
        # embedded-cycle minimum vs every class with |w| <= 8; wider gap
        # lengths stress the non-uniform case
        classes = conjugacy_classes(3, 6)
        for lengths in ([0.5, 0.3, 0.2], [0.15, 0.42, 0.43]):
            g = rose(lengths)
            brute = min(translation_length(g, Word(3, w))[0] for w in classes)
            assert systole(g)[0] == brute


class TestEmbeddedCycles:
    def test_rose_petals_only(self):
        assert len(embedded_cycles(ROSE)) == 3

    def test_parallel_graph_pairs(self):
        assert len(embedded_cycles(parallel_graph([0.25] * 4))) == 6

    @pytest.mark.parametrize("rank", [3, 4])
    def test_rows_are_the_connected_two_regular_edge_sets(self, rank):
        """``_Graph.rows`` of seeded points and of every bare split of each,
        and each split's rows read off its carrier (``split_rows``), against
        the brute-force edge-subset search."""
        splits = 0
        for g in spine_points(rank, 0.05, 11 * rank, 6):
            t = g._topo.graph
            cases = [(t.shape, [t.rows])]
            for v, moved, shape, _, at in bare_splits(g):
                cases.append((shape, [_Graph(shape).rows, t.split_rows(v, moved, at)]))
            for shape, readings in cases:
                dense = o_cycle_rows([(src, dst) for _, src, dst in shape])
                want = tuple(sorted(sum(b << i for i, b in enumerate(r)) for r in dense))
                assert readings == [want] * len(readings)
            splits += len(cases) - 1
        assert splits > 20

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 10**6))
    def test_split_rows_are_the_split_graphs_rows(self, rank, seed):
        """The rows of every bare split of a seeded point, at every vertex
        of valence at least 4 and for every ``_partitions`` set, read off
        the carrier's cycles, are the rows the split graph's own cycle
        search finds: no cycle is lost or invented, figure-eights through
        the split vertex included."""
        for g in spine_points(rank, 0.05, seed, 2):
            t = g._topo.graph
            for v, moved, shape, _, at in bare_splits(g):
                assert t.split_rows(v, moved, at) == _Graph(shape).rows

    @pytest.mark.parametrize("rank", [3, 4])
    def test_masks_follow_the_cycles(self, rank):
        """``_Graph.masks`` lists each embedded cycle's edge set in
        ``embedded_cycles`` order, the order of ``certificate``'s duals;
        ``rows`` sorts them."""
        for g in spine_points(rank, 0.05, 3 * rank, 6):
            t = g._topo.graph
            want = tuple(sum(1 << t.index[e] for e in set(c.edge_ids())) for c in embedded_cycles(g))
            assert t.masks == want
            assert t.rows == tuple(sorted(want))

    @pytest.mark.parametrize("rank", [3, 4])
    def test_shortest_cycle_is_the_systole(self, rank):
        """The lengths-only reader behind ``in_spine`` gives the systole's
        float exactly, on seeded points and their expansions."""
        for g in spine_points(rank, 0.05, 5 * rank, 6):
            hosts = [g] + [h for v in g.vertices if g.valence(v) >= 4 for h in expansions(g, v)[:3]]
            for h in hosts:
                lengths = [e.length for e in h.edges]
                assert min(h._topo.graph.cycle_lengths(lengths)) == systole(h)[0]


class TestCandidates:
    def test_rose_count_and_shapes(self):
        cand = candidates(ROSE)
        assert len(cand) == 9
        lengths = sorted(loop.length for loop, _ in cand)
        assert lengths[:3] == pytest.approx([1 / 3] * 3)
        assert lengths[3:] == pytest.approx([2 / 3] * 6)

    def test_bouquet_words_cover_both_signs(self):
        keys = {canonical_representative(w) for _, w in candidates(ROSE)}
        for text in ("a", "b", "c", "a b", "a b'", "a c", "a c'", "b c", "b c'"):
            assert canonical_representative(parse_word(text, 3)) in keys

    def test_crossing_bound(self):
        for g in (ROSE, parallel_graph([0.25] * 4), rose([0.6, 0.3, 0.1])):
            vol = sum(e.length for e in g.edges)
            for loop, w in candidates(g):
                counts = crossing_vector(g, w)
                assert all(c <= 2 for c in counts.values())
                assert loop.length <= 2 * vol + 1e-12

    def test_barbell_appears_on_two_vertex_graph(self):
        # two loops joined by an arc: barbell candidates cross the arc twice
        g = MarkedGraph(
            2,
            [
                Edge("p", "u", "u", 0.4),
                Edge("q", "w", "w", 0.4),
                Edge("m", "u", "w", 0.2),
            ],
            "u",
            [(("p", 1),), (("m", 1), ("q", 1), ("m", -1))],
        )
        shapes = [crossing_vector(g, w)["m"] for _, w in candidates(g)]
        assert 2 in shapes

    @pytest.mark.parametrize("rank", [3, 4])
    def test_match_the_word_deduplicated_list(self, rank):
        """Deduplicating paths up to rotation and reversal keeps the paths
        that deduplicating by class word keeps: same paths, lengths and
        words, in the same order, under many markings of each graph."""
        gens = elementary_automorphisms(rank)
        for g in spine_points(rank, 0.05, seed=rank, n=12):
            for h in [g] + [transform(g, psi) for psi in gens[::5]]:
                assert candidates(h) == o_candidates(h)

    def test_match_the_word_deduplicated_list_on_small_graphs(self):
        for g in (ROSE, parallel_graph([0.25] * 4), *pin_points()):
            assert candidates(g) == o_candidates(g)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_emitted_paths_are_distinct_cyclic_paths(self, rank):
        """The enumeration needs no deduplication: no two paths it emits
        agree up to rotation and reversal, on seeded points and on every
        expansion of them."""
        for g in spine_points(rank, 0.05, seed=rank, n=4):
            hosts = [g] + [h for v in g.vertices if g.valence(v) >= 4 for h in expansions(g, v)]
            for h in hosts:
                paths = [path for path, *_ in _candidate_paths(h._topo.graph)]
                assert len({_canonical_cycle(p) for p in paths}) == len(paths)


def _one_step(path) -> _Paths:
    """A table reading each step of ``path`` as a path of that one step, so
    that expanding ``path`` over it tightens ``path`` itself."""
    return _Paths({step: (step,) for step in path})


class TestCyclicTighten:
    """Paths joined where pieces meet, and the single-scan trim, against
    the per-step tightening of the concatenation and the old trim that
    peeled one end pair at a time."""

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1])), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_pairwise_trim(self, path):
        assert _tight_loop(_one_step(path), path) == o_cyclic_tighten(path)

    @given(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30),
        st.integers(0, 7),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_tight_loop_tightens_the_concatenation(self, letters, seed, moves):
        """On the letter paths of seeded spine points and of translates of
        them, whose long paths cancel deep at their junctions."""
        g = spine_points(3, 0.05, seed, 1)[0]
        if moves:
            g = transform(g, random_automorphism(random.Random(seed), 3, 4 * moves))
        table = g._topo.letter_paths
        path = [step for x in letters for step in table[x]]
        assert tuple(_expand(table, letters)) == o_tighten(path)
        assert _tight_loop(table, letters) == o_cyclic_tighten(path)

    def test_long_conjugate(self):
        rng = random.Random(5)
        conj = [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(2_000)]
        path = conj + [("a", 1)] + [(e, -s) for e, s in reversed(conj)]
        assert _tight_loop(_one_step(path), path) == o_cyclic_tighten(path) == (("a", 1),)
        # c^k a c^-k at 50,001 letters
        k = 25_000
        path = [("c", 1)] * k + [("a", 1)] + [("c", -1)] * k
        assert _tight_loop(_one_step(path), path) == o_cyclic_tighten(path) == (("a", 1),)


class TestPathCap:
    """An edge path, based or cyclic, is refused past ``words.MAX_LETTERS``
    steps before it is built, as a word is refused past that many letters.
    Under the twist a -> ab the letter path of a is a b^-1, two steps, and
    that of b is b, one step; a^k and b^k a spell tight paths."""

    TWISTED = transform(
        unit_rose(3), Automorphism.from_moves(3, [NielsenMove("right_multiply", 1, 2)])
    )
    HALF = MAX_LETTERS // 2

    def test_a_path_at_the_cap_is_built(self):
        assert len(self.TWISTED.path_of(Word(3, (1,) * self.HALF))) == MAX_LETTERS

    def test_only_the_exact_count_refuses(self):
        # b^(cap/2 + 1) a trips the bound of 2 steps a letter, but not the
        # exact count
        w = Word(3, (2,) * (self.HALF + 1) + (1,))
        assert len(self.TWISTED.path_of(w)) == self.HALF + 3

    def test_past_the_cap_nothing_is_built(self, monkeypatch):
        def refuse(table, key):
            raise AssertionError("a piece of a path was read")

        monkeypatch.setattr(graphs._Paths, "__getitem__", refuse)
        w = Word(3, (1,) * (self.HALF + 1))
        message = f"edge path too long: {MAX_LETTERS + 2} steps (cap {MAX_LETTERS})"
        for read in (self.TWISTED.path_of, self.TWISTED.loop_of, self.TWISTED.length_of):
            with pytest.raises(ValueError, match=re.escape(message)):
                read(w)


class TestScaling:
    def test_normalize_volume(self):
        g = normalize_volume(rose([1.0, 1.0, 1.0]))
        assert [e.length for e in g.edges] == pytest.approx([1 / 3] * 3)

    def test_rescale_identity(self):
        assert rescale(ROSE, 1.0) == ROSE

    def test_rescale_linearity(self):
        rng = random.Random(2)
        g2 = rescale(ROSE, 2.0)
        for _ in range(20):
            w = random_rose_word(rng, rng.randrange(1, 7))
            assert translation_length(g2, w)[0] == pytest.approx(
                2 * translation_length(ROSE, w)[0]
            )


class TestCollapseExpand:
    def barbell(self, arc=0.0):
        return MarkedGraph(
            2,
            [
                Edge("p", "u", "u", 0.5),
                Edge("q", "w", "w", 0.5 - arc),
                Edge("m", "u", "w", arc),
            ],
            "u",
            [(("p", 1),), (("m", 1), ("q", 1), ("m", -1))],
        )

    def test_collapse_arc_gives_rose_shape(self):
        g = collapse_edge(self.barbell(0.0), "m")
        assert len(g.vertices) == 1
        assert len(g.edges) == 2

    def test_lengths_preserved_under_zero_collapse(self):
        g0 = self.barbell(0.0)
        g1 = collapse_edge(g0, "m")
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(1, 7)
            letters = []
            for _ in range(n):
                x = rng.choice([1, -1, 2, -2])
                if letters and letters[-1] == -x:
                    x = -x
                letters.append(x)
            w = Word(2, tuple(letters))
            assert translation_length(g0, w)[0] == pytest.approx(
                translation_length(g1, w)[0]
            )

    @pytest.mark.parametrize("base", ["u", "w"])
    def test_collapse_edge_carrying_a_word(self, base):
        # e2 reads a, so collapsing it re-gauges its end that is not the
        # basepoint: the head w when based at u, the tail u when based at w
        g = parallel_graph([0.3, 0.0, 0.4, 0.3])
        if base == "w":
            g = MarkedGraph(
                g.rank,
                g.edges,
                "w",
                [(("e1", -1), (f"e{k + 1}", 1)) for k in range(1, g.rank + 1)],
            )
        assert g.comarking_word("e2") == Word(3, (1,))
        h = collapse_edge(g, "e2")
        assert len(h.vertices) == 1
        assert [h.word_along(p) for p in h.marking] == [Word(3, (k,)) for k in (1, 2, 3)]
        rng = random.Random(6)
        for _ in range(40):
            w = random_rose_word(rng, rng.randrange(1, 8))
            assert translation_length(h, w)[0] == pytest.approx(translation_length(g, w)[0])

    def test_volume_preserved(self):
        g0 = self.barbell(0.0)
        assert sum(e.length for e in g0.edges) == pytest.approx(
            sum(e.length for e in collapse_edge(g0, "m").edges)
        )

    def test_rose_expansion_count(self):
        # valence-6 vertex: 25 splits into two sides of size >= 3
        assert len(expansions(ROSE, "v")) == 25

    def test_collapse_round_trip(self):
        for exp in expansions(ROSE, "v"):
            new = [e.id for e in exp.edges if e.id not in {"a", "b", "c"}]
            assert len(new) == 1
            back = collapse_edge(exp, new[0])
            assert back.key() == ROSE.key()

    def test_expansions_keep_rank(self):
        for exp in expansions(ROSE, "v"):
            v = len(exp.vertices)
            e = len(exp.edges)
            assert e - v + 1 == 3

    def test_collapse_zero_edges_noop_on_positive(self):
        assert collapse_zero_edges(ROSE).key() == ROSE.key()


class TestMarkingConsistency:
    def test_rejects_inconsistent_marking(self):
        with pytest.raises(ValueError):
            MarkedGraph(
                3,
                [Edge("a", "v", "v", 1 / 3), Edge("b", "v", "v", 1 / 3), Edge("c", "v", "v", 1 / 3)],
                "v",
                [(("a", 1),), (("b", 1),), (("b", 1),)],  # c missing
            )

    def test_rejects_a_repeated_edge_by_name(self):
        edges = [Edge(k, "v", "v", 0.25) for k in "abca"]
        with pytest.raises(ValueError, match="edge 'a' is listed twice"):
            MarkedGraph(3, edges, "v", [((k, 1),) for k in "abc"])

    def test_transform_preserves_systole(self):
        rng = random.Random(8)
        from outerspine import elementary_automorphisms

        g = rose([0.5, 0.3, 0.2])
        for psi in elementary_automorphisms(3)[:12]:
            assert systole(transform(g, psi))[0] == pytest.approx(systole(g)[0])

    def test_transform_shares_the_unmarked_graph(self):
        g = pin_points()[0]
        for psi in elementary_automorphisms(3)[:6]:
            h = transform(g, psi)
            assert h._topo.graph is g._topo.graph
            assert h._topo is not g._topo

    def test_translate_is_valid_by_construction(self, monkeypatch):
        """The public constructor rejects a corrupted marking of a
        translate's graph, while ``transform`` itself never validates."""
        g = pin_points()[0]
        psis = elementary_automorphisms(3)[:6]
        for psi in psis:
            h = transform(g, psi)
            m = list(h.marking)
            for bad, why in (
                ([m[0], m[1], m[1]], "basis"),  # x_2 twice, x_3 never
                ([m[0][:-1], m[1], m[2]], "not a loop"),
                (m[:2], "one loop per generator"),
            ):
                with pytest.raises(ValueError, match=why):
                    MarkedGraph(3, h.edges, h.basepoint, bad)
            with pytest.raises(ValueError, match="basepoint"):
                MarkedGraph(3, h.edges, "nowhere", m)

        monkeypatch.setattr("outerspine.graphs._validate", refuse_validation)
        for psi in psis:
            assert o_marking_reads_back(transform(g, psi))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 5), st.data())
    def test_every_translate_reads_back(self, rank, i, data):
        """Translates of seeded spine points, once and twice, by random,
        powered, composed and ``from_images`` automorphisms: each marking
        loop reads back its generator (the oracle), and the public
        constructor accepts the translate as given."""
        h = spine_points(rank, 0.05, seed=rank, n=6)[i]
        for _ in range(2):
            h = transform(h, data.draw(automorphisms(rank)))
            assert o_marking_reads_back(h)
            assert MarkedGraph(rank, h.edges, h.basepoint, h.marking) == h

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 5), st.data())
    def test_every_move_is_valid_by_construction(self, rank, i, data):
        """Every splitting of a vertex of valence at least 4 and every
        collapse of a non-loop edge, of a translate of a seeded spine point
        and of each of its splittings, made with validation patched to
        raise: each reads its marking back (the oracle) and equals the
        public rebuild from its edges, basepoint and marking."""
        h = transform(spine_points(rank, 0.05, seed=rank, n=6)[i], data.draw(automorphisms(rank)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("outerspine.graphs._validate", refuse_validation)
            moved = [x for v in h.vertices if h.valence(v) >= 4 for x in expansions(h, v)]
            moved += [
                collapse_edge(x, e.id) for x in [h, *moved] for e in x.edges if e.src != e.dst
            ]
        assert moved
        for x in moved:
            assert o_marking_reads_back(x)
            assert MarkedGraph(rank, x.edges, x.basepoint, x.marking).key() == x.key()

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_translate_marks_each_generator_by_its_inverse_image(self, rank):
        """transform reads phi^-1(x_k) off the images phi carries; they are
        the words the inverse automorphism substitutes for x_k."""
        rng = random.Random(rank)
        g = spine_points(rank, 0.05, seed=rank, n=1)[0]
        for _ in range(6):
            phi = random_automorphism(rng, rank, rng.randrange(1, 8))
            want = [g.path_of(apply(invert(phi), Word(rank, (k,)))) for k in range(1, rank + 1)]
            assert list(transform(g, phi).marking) == want
        with pytest.raises(ValueError, match="rank mismatch"):
            transform(g, random_automorphism(rng, 2 if rank == 3 else 3, 2))

    def test_transform_moves_lengths_of_words(self):
        from outerspine import Automorphism, NielsenMove, invert

        phi = Automorphism.from_moves(3, [NielsenMove("right_multiply", 1, 2)])
        g = rose([0.5, 0.3, 0.2])
        h = transform(g, phi)
        rng = random.Random(12)
        for _ in range(25):
            w = random_rose_word(rng, rng.randrange(1, 6))
            assert translation_length(h, w)[0] == pytest.approx(
                translation_length(g, apply(invert(phi), w))[0]
            )


class TestRelength:
    @given(st.integers(0, KEPT), st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_fresh_build(self, i, xs):
        g = (pin_points() + [ROSE])[i]
        lengths = xs[: len(g.edges)]
        moved = with_lengths(g, lengths)
        fresh = MarkedGraph(
            g.rank,
            [Edge(e.id, e.src, e.dst, x) for e, x in zip(g.edges, lengths)],
            g.basepoint,
            g.marking,
        )
        assert moved.key() == fresh.key()
        assert embedded_cycles(moved) == embedded_cycles(fresh)
        assert candidates(moved) == candidates(fresh)
        rng = random.Random(i)
        words = [w for _, w in candidates(fresh)] + [random_rose_word(rng, 9) for _ in range(5)]
        for w in words:
            assert translation_length(moved, w) == translation_length(fresh, w)

    def test_checks_only_lengths(self):
        g = pin_points()[0]
        with pytest.raises(ValueError, match="negative length"):
            with_lengths(g, [-1.0] * len(g.edges))
        with pytest.raises(ValueError, match="volume must be positive"):
            with_lengths(g, [0.0] * len(g.edges))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_needs_one_length_per_edge(self, extra):
        """Lengths come in edge order, one per edge; a sequence of another
        length is refused, not cut short or padded."""
        g = pin_points()[0]
        n = len(g.edges) + extra
        with pytest.raises(ValueError, match=f"need {len(g.edges)} lengths, one per edge, not {n}"):
            with_lengths(g, [1.0 / n] * n)


class TestFloatPins:
    def test_matches_fixture(self):
        with open(FIXTURE) as fh:
            assert float_pins() == json.load(fh)
