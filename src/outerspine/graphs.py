"""Marked metric graphs: points of (projectivized) Outer space.

A MarkedGraph is a finite connected metric graph of first Betti number
``rank`` together with a two-way identification of its fundamental group
with F_rank:

* the marking sends each generator to a based edge loop, and
* the comarking stores, per edge, the word that a homotopy inverse of the
  marking reads along that edge from its tail to its head.

Reading comarking letters along any based loop therefore evaluates the
homotopy inverse on that loop, and consistency means this evaluation
returns ``x_k`` on the marking loop of ``x_k``.  The homotopy inverse is
defined only up to homotopy, so the comarking is fixed only up to gauge: a
word ``h`` at a non-base vertex, appended to the words of the edges that
enter it and prepended inverted to those that leave it, changes no based
loop's reading.  Validation derives a comarking that reads every
generator back; with Betti number = rank this makes the read-back map onto
F_rank, hence (free groups being Hopfian) an isomorphism, and the
derivation fails exactly when the marking loops are not a basis.

A point is its edges, lengths, basepoint and marking; the comarking is not
part of its identity.  Three layers keep combinatorics apart from
lengths.  The private unmarked graph holds edge ends, adjacency and what
they alone fix: embedded cycles (one search, read as paths, as masks and
sorted rows, as the lengths the spine test and repair read, and as a
per-vertex table of the cycles through each vertex with their turns
there), the rows of every splitting of a vertex (read off that table),
candidate loop paths with their crossing counts, and the spanning tree
that validation reads.  The private topology is a marking of it
(basepoint, marking, comarking, letter paths, the candidates' class words
and their order) and fixes one simplex of Outer space.  ``edges`` carries
one point's lengths, which are summed along those cached paths; lengths
pass between modules only as sequences in edge order, through
``with_lengths``, and only this module spells a key (``_point_key``,
``_Topology.key_of``).  Every tight loop, of a word or of a candidate's
image, is read by ``_tight_loop``, and every path expanded from a table
is refused past ``words.MAX_LETTERS`` steps before it is built
(``_expand``); a word's length alone is read without its loop on a rose
marked by its petals, whose crossing counts are the letter counts of the
word's cyclic core (``length_of``).

Only the public constructor validates, for graphs from outside
(``jsonio``, ``rose``, library callers): it checks them and derives their
comarking by folding (``_validate``).  Every move of a validated graph is
valid by construction and checks only the volume (``_build``):
``transform`` carries the comarking through its automorphism,
``collapse_edge`` re-gauges it, ``expansions`` reads the empty word on
the fresh edge, and ``with_lengths``, ``rescale`` and
``normalize_volume`` share the topology.

All values are immutable; every operation returns a fresh graph.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .words import (
    MAX_LETTERS,
    Word,
    _reduced_word,
    apply,
    canonical_representative,
    cyclic_reduce,
    free_reduce,
    invert_basis,
    spelling_key,
)

OrientedEdge = tuple[str, int]  # (edge id, +1 along src->dst, -1 against)


class Edge(namedtuple("Edge", "id src dst length")):
    """An edge with its ends and a finite nonnegative length; every way of
    making one checks the length, ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, id: str, src: str, dst: str, length: float):
        if not 0 <= length < math.inf:
            raise ValueError(f"edge {id} needs a finite nonnegative length, not {length}")
        return super().__new__(cls, id, src, dst, length)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LoopPath(NamedTuple):
    """A closed, cyclically reduced oriented edge path in a host graph."""

    path: tuple[OrientedEdge, ...]
    length: float

    @property
    def trivial(self) -> bool:
        return not self.path

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.path)


def _tighten(path: Iterable[OrientedEdge]) -> list[OrientedEdge]:
    stack: list[OrientedEdge] = []
    for step in path:
        if stack and stack[-1][0] == step[0] and stack[-1][1] == -step[1]:
            stack.pop()
        else:
            stack.append(step)
    return stack


def _cyclic_tighten(path: Iterable[OrientedEdge]) -> tuple[OrientedEdge, ...]:
    p = _tighten(path)
    # peel matching end pairs by index and slice once, as cyclic_reduce does
    i, j = 0, len(p) - 1
    while i < j and p[i][0] == p[j][0] and p[i][1] == -p[j][1]:
        i += 1
        j -= 1
    return tuple(p[i : j + 1])


class _Paths(dict):
    """Edge paths by key (a signed letter, or an oriented edge), with the
    step count of the longest, read once, so that ``_expand`` bounds an
    expansion without scanning the table."""

    __slots__ = ("longest",)

    def __init__(self, items):
        super().__init__(items)
        self.longest = max(map(len, self.values()), default=0)


def _expand(table: _Paths, steps: Sequence) -> Iterator[OrientedEdge]:
    """The concatenation of ``table[x]`` over ``steps``, unbuilt.

    Raises ValueError, before anything is built, when it would take more
    than MAX_LETTERS steps, as ``words._substitute`` bounds a word.
    """
    # a cheap upper bound first; the exact count only when it is exceeded
    if len(steps) * table.longest > MAX_LETTERS:
        size = sum(steps.count(x) * len(p) for x, p in table.items())
        if size > MAX_LETTERS:
            raise ValueError(f"edge path too long: {size} steps (cap {MAX_LETTERS})")
    return chain.from_iterable(map(table.__getitem__, steps))


def _tight_loop(table: _Paths, steps: Sequence) -> tuple[OrientedEdge, ...]:
    """The cyclically tightened concatenation of ``table[x]`` over
    ``steps`` (``_expand``): a word's loop under a letter-path table, or a
    candidate's image under a table of edge images."""
    return _cyclic_tighten(_expand(table, steps))


def _reverse(path: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    return tuple((e, -s) for e, s in reversed(path))


def _letter_paths(marking) -> _Paths:
    """The edge path of each signed letter under a marking."""
    table = dict(enumerate(marking, start=1))
    table.update((-k, _reverse(p)) for k, p in enumerate(marking, start=1))
    return _Paths(table)


def _shape(edges) -> tuple:
    """The unmarked graph's identity: edge ends in edge order."""
    return tuple((e.id, e.src, e.dst) for e in edges)


class _Graph:
    """The unmarked part of a topology, made from its shape (``_shape``):
    edge indices, edge ends, adjacency and vertices, and what they alone
    fix: its embedded cycles, their masks and rows (the region a topology
    on this graph poses), the cycles through each vertex and the rows of
    each splitting of it, and lengths under given edge lengths, its
    candidate loop paths and its spanning tree.  Every topology on this
    graph (its translates under ``transform`` and their relengthings)
    shares it, so each is enumerated once, by one cycle search."""

    def __init__(self, shape: tuple[tuple[str, str, str], ...]):
        self.shape = shape
        self.index = {eid: i for i, (eid, _, _) in enumerate(shape)}
        self.ends = {eid: (src, dst) for eid, src, dst in shape}
        adj: dict[str, list[tuple[str, int, str]]] = {}
        for eid, src, dst in shape:
            adj.setdefault(src, []).append((eid, 1, dst))
            adj.setdefault(dst, []).append((eid, -1, src))
        for v in adj:
            adj[v].sort()
        self.adj = adj
        self.vertices = tuple(sorted(adj))

    @cached_property
    def _dfs_cycles(self) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...]]]:
        """Embedded cycles as ``_cycle_paths`` finds them: (path, edge
        indices in path order)."""
        return [(path, tuple(self.index[e] for e, _ in path)) for path in _cycle_paths(self)]

    @cached_property
    def cycles(self) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...]]]:
        """Embedded cycles: (canonical path, edge indices in DFS order)."""
        return [(_canonical_cycle(path), order) for path, order in self._dfs_cycles]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each embedded cycle's edge set as a bitmask over edge indices,
        in ``cycles`` order.  Needs no marking and no canonical cycle."""
        return tuple(sum(1 << i for i in order) for _, order in self._dfs_cycles)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The masks, sorted: with the edge count, the key of the region
        {x >= 0, sum x = 1, every cycle >= eps} of any topology on this
        graph."""
        return tuple(sorted(self.masks))

    @cached_property
    def through(self) -> dict[str, list[tuple[int, tuple, int]]]:
        """Per vertex, the embedded cycles through it: (mask, turn, others).
        The turn is the end the cycle comes in by and the end it leaves by,
        named as in ``_partitions``; ``others`` are its other vertices, as
        a bitmask over ``vertices``."""
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        table: dict[str, list[tuple[int, tuple, int]]] = {v: [] for v in self.vertices}
        for (path, _), mask in zip(self._dfs_cycles, self.masks):
            heads = [self.ends[e][s > 0] for e, s in path]
            verts = sum(bit[u] for u in heads)
            for (a, sa), (b, sb), u in zip(path, path[1:] + path[:1], heads):
                table[u].append((mask, ((a, int(sa > 0)), (b, int(sb < 0))), verts & ~bit[u]))
        return table

    def split_rows(self, v: str, moved: set[tuple[str, int]], at: int) -> tuple[int, ...]:
        """The rows of the graph that splits ``v``, moving the edge ends
        ``moved`` to a fresh vertex joined to ``v`` by a fresh edge of index
        ``at``, read off this graph's cycles with no graph built and no
        search.  The split's embedded cycles are the lift of each cycle,
        through the fresh edge exactly when its turn at ``v`` crosses
        between the two sides, and one figure-eight per pair of crossing
        cycles that share no edge and no vertex but ``v``; every old edge
        index at or above ``at`` moves up by one."""
        low = (1 << at) - 1
        shift = lambda m: m & low | (m >> at) << (at + 1)
        crossing = [(m, o) for m, (a, b), o in self.through[v] if (a in moved) != (b in moved)]
        lifted = {m for m, _ in crossing}
        rows = [shift(m) | (1 << at if m in lifted else 0) for m in self.masks]
        rows += [
            shift(m | n)
            for i, (m, o) in enumerate(crossing)
            for n, p in crossing[i + 1 :]
            if not (m & n or o & p)
        ]
        return tuple(sorted(rows))

    def cycle_lengths(self, lengths: Sequence[float]) -> list[float]:
        """Each embedded cycle's length under ``lengths`` (in edge order),
        in ``cycles`` order, summed in DFS order as ``embedded_cycles``
        sums it; no loop is built."""
        return [sum(lengths[i] for i in order) for _, order in self._dfs_cycles]

    @cached_property
    def candidates(self) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...], list[int]]]:
        """Candidate loop paths (see ``candidates``): (path, edge indices,
        crossing counts in edge order)."""
        return _candidate_paths(self)

    def spanning_tree(self, base: str) -> tuple[set[str], set[str]]:
        """The breadth-first spanning tree from ``base``, taking each
        vertex's edges in id order: its edge ids, and the vertices it
        reaches (all of them exactly when the graph is connected)."""
        tree: set[str] = set()
        reached = {base}
        queue = [base]
        for v in queue:
            for eid, _, u in self.adj[v]:
                if u not in reached:
                    reached.add(u)
                    tree.add(eid)
                    queue.append(u)
        return tree, reached


class _Topology:
    """A marking of an unmarked graph: one open simplex of Outer space.

    Every point reached from a constructed graph by changing lengths
    shares its topology, so the derived tables below are built once.
    """

    def __init__(self, rank, graph: _Graph, basepoint, marking, comarking):
        self.graph = graph
        self.rank = rank
        self.basepoint = basepoint
        self.marking = tuple(tuple((e, s) for e, s in p) for p in marking)
        self.comarking = comarking
        # the identity of the LP a point poses: everything but lengths
        self.key = self.key_of(graph.shape, self.marking)

    index = property(lambda self: self.graph.index)

    def key_of(self, shape: tuple, marking: tuple) -> tuple:
        """The key of this rank and basepoint's topology on ``shape`` with ``marking``."""
        return (self.rank, shape, self.basepoint, marking)

    @cached_property
    def letter_paths(self) -> _Paths:
        return _letter_paths(self.marking)

    def word_along(self, path: Sequence[OrientedEdge]) -> Word:
        letters: list[int] = []
        for eid, s in path:
            w = self.comarking[eid]
            letters.extend(w.letters if s > 0 else (-x for x in reversed(w.letters)))
        # comarking words are Words of this rank: the constructor derives
        # them, and every move carries, re-gauges or applies them
        return _reduced_word(self.rank, free_reduce(letters))

    @cached_property
    def candidates(self) -> list[tuple[int, Word]]:
        """Each of the graph's candidate paths, by its position there, with
        the class word it reads (``canonical_representative``), sorted by
        word length, then spelling."""
        words = [canonical_representative(self.word_along(p)) for p, *_ in self.graph.candidates]
        return sorted(enumerate(words), key=lambda c: (len(c[1]), spelling_key(c[1])))

    @cached_property
    def petals(self) -> tuple[int, ...] | None:
        """Each generator's edge index when every marking loop is a single
        edge, which on a valid graph makes it the rose marked by its
        petals; else None."""
        if any(len(p) != 1 for p in self.marking):
            return None
        return tuple(self.index[p[0][0]] for p in self.marking)

    def counts_of(self, w: Word) -> list[int]:
        """How often the tight loop of the class of ``w`` crosses each edge,
        in edge order (see ``MarkedGraph.length_of``)."""
        petals = self.petals
        if petals is None:
            return _crossings(_tight_loop(self.letter_paths, w.letters), self.index)
        core = cyclic_reduce(w)[0].letters
        counts = [0] * len(self.index)
        for k, e in enumerate(petals, start=1):
            counts[e] = core.count(k) + core.count(-k)
        return counts


def _crossings(path: Sequence[OrientedEdge], index: dict[str, int]) -> list[int]:
    """How often ``path`` crosses each edge, in edge order."""
    counts = [0] * len(index)
    for eid, _ in path:
        counts[index[eid]] += 1
    return counts


def _point_key(topology_key: tuple, lengths: Sequence[float]) -> tuple:
    """``MarkedGraph.key`` of the point with these edge-order lengths."""
    rank, shape, basepoint, marking = topology_key
    return (rank, tuple((*e, x) for e, x in zip(shape, lengths)), basepoint, marking)


def _weigh(counts: Sequence[int], edges: Sequence[Edge]) -> float:
    """The length of a loop with these crossing counts, summed in edge
    order, not path order: conjugate words rotate the path, and float
    addition must not see the rotation."""
    length = 0.0
    for c, e in zip(counts, edges):
        if c:
            length += c * e.length
    return length


class MarkedGraph:
    """Immutable marked metric graph: a marked topology plus edge lengths.

    Use the module builders and moves rather than mutating instances."""

    __slots__ = ("edges", "_topo")

    def __init__(
        self,
        rank: int,
        edges: Iterable[Edge],
        basepoint: str,
        marking: Sequence[Sequence[OrientedEdge]],
    ):
        edges = tuple(sorted(edges, key=lambda e: e.id))
        self._init(_validate(rank, edges, basepoint, marking), edges)

    def _init(self, topo: _Topology, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_topo", topo)
        if self.volume <= 0:
            raise ValueError("total volume must be positive")

    def __setattr__(self, name, value):
        raise AttributeError("MarkedGraph is immutable")

    # -- basic accessors ---------------------------------------------------

    rank = property(lambda self: self._topo.rank)
    basepoint = property(lambda self: self._topo.basepoint)
    marking = property(lambda self: self._topo.marking)
    vertices = property(lambda self: self._topo.graph.vertices)

    def edge(self, eid: str) -> Edge:
        return self.edges[self._topo.index[eid]]

    def comarking_word(self, eid: str) -> Word:
        return self._topo.comarking[eid]

    @property
    def volume(self) -> float:
        return sum(e.length for e in self.edges)

    def valence(self, v: str) -> int:
        return len(self._topo.graph.adj[v])

    def key(self):
        """Hashable identity: edges with lengths, basepoint, marking (``_point_key``).

        The comarking is left out: it is fixed by the marking up to a change
        of gauge at the non-base vertices, which no measurement sees."""
        return _point_key(self._topo.key, [e.length for e in self.edges])

    def __eq__(self, other):
        return isinstance(other, MarkedGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"MarkedGraph(rank={self.rank}, edges={len(self.edges)}, "
            f"vertices={len(self.vertices)}, volume={self.volume:.6g})"
        )

    # -- paths ---------------------------------------------------------------

    def word_along(self, path: Sequence[OrientedEdge]) -> Word:
        return self._topo.word_along(path)

    # -- lengths -------------------------------------------------------------

    def loop_of(self, w: Word) -> LoopPath:
        """Tightened cyclic loop representing the conjugacy class of ``w``."""
        path = _tight_loop(self._topo.letter_paths, w.letters)
        return LoopPath(path, _weigh(_crossings(path, self._topo.index), self.edges))

    def length_of(self, w: Word) -> float:
        """``loop_of(w).length``, bit for bit: the same crossing counts,
        weighed in the same edge order, read without building the loop
        where the marking allows it.

        When every marking loop is a single edge, the letter paths are
        single distinct petals: the wedge of the marking loops is already
        folded, so by Stallings folding (Stallings 1983) no junction of
        letter paths cancels but that of a letter and its inverse.  A
        reduced word's path is then tight and its cyclic core's path
        cyclically tight, edge for edge, and petal k is crossed
        ``core.count(k) + core.count(-k)`` times.  Every other marking
        reads the counts off ``_tight_loop``.
        """
        return _weigh(self._topo.counts_of(w), self.edges)

    def path_of(self, w: Word) -> tuple[OrientedEdge, ...]:
        """Tightened based path of ``w`` through the marking (no cyclic
        move); ValueError past MAX_LETTERS steps untightened (``_expand``)."""
        return tuple(_tighten(_expand(self._topo.letter_paths, w.letters)))

    def _loops(self, entries) -> list[LoopPath]:
        """LoopPaths of cached (path, edge indices, ...) entries, each length
        summed in its stored index order."""
        lengths = [e.length for e in self.edges]
        return [LoopPath(path, sum(lengths[i] for i in order)) for path, order, *_ in entries]


def _validate(rank: int, edges: tuple[Edge, ...], basepoint: str, marking) -> _Topology:
    """The checked topology of a graph from outside: edge ids distinct,
    basepoint a vertex, connected, Betti number = rank, valence at least 3,
    and each marking path a loop at the basepoint.  The comarking is
    derived: spanning-tree edges (``_Graph.spanning_tree``) read the empty
    word; the others, in id order, spell the marking loops in the tree's
    based-loop basis and read the inverse of those words (``invert_basis``,
    which certifies the read-back and raises unless they are a basis)."""
    if not edges:
        raise ValueError("graph has no edges")
    for e, f in zip(edges, edges[1:]):
        if e.id == f.id:
            raise ValueError(f"edge {e.id!r} is listed twice")
    t = _Graph(_shape(edges))
    if basepoint not in t.adj:
        raise ValueError(f"basepoint {basepoint!r} is not a vertex")
    tree, reached = t.spanning_tree(basepoint)
    if len(reached) != len(t.vertices):
        raise ValueError("graph is not connected")
    betti = len(edges) - len(t.vertices) + 1
    if betti != rank:
        raise ValueError(f"first Betti number {betti} != rank {rank}")
    for v in t.vertices:
        if len(t.adj[v]) < 3:
            raise ValueError(f"vertex {v!r} has valence {len(t.adj[v])} < 3")
    if len(marking) != rank:
        raise ValueError("marking must have one loop per generator")
    for k, path in enumerate(marking, start=1):
        if not path:
            raise ValueError(f"marking of generator {k} is empty")
        cur = basepoint
        for eid, s in path:
            ends = t.ends.get(eid)
            if ends is None or s not in (1, -1):
                raise ValueError(f"marking step ({eid!r},{s}) is malformed")
            start, end = ends if s > 0 else ends[::-1]
            if start != cur:
                raise ValueError(f"marking of generator {k} is not a path")
            cur = end
        if cur != basepoint:
            raise ValueError(f"marking of generator {k} is not a loop")
    letter = {eid: j for j, eid in enumerate((eid for eid in t.index if eid not in tree), 1)}
    try:
        inverse = invert_basis(
            [Word(rank, [letter[eid] * s for eid, s in path if eid in letter]) for path in marking]
        )
    except ValueError as err:
        if not str(err).startswith("words do not form a basis"):
            raise  # a folding label past the word cap
        raise ValueError(
            f"the marking loops of the graph are not a basis of F_{rank} ({err})"
        ) from None
    empty = Word(rank)
    comarking = {eid: inverse[letter[eid] - 1] if eid in letter else empty for eid in t.index}
    return _Topology(rank, t, basepoint, marking, comarking)


def _build(topo: _Topology, edges: tuple[Edge, ...]) -> MarkedGraph:
    """A move's graph, valid by construction: only its volume is checked."""
    g = object.__new__(MarkedGraph)
    g._init(topo, edges)
    return g


def translation_length(g: MarkedGraph, w: Word) -> tuple[float, LoopPath]:
    """Length of the shortest loop freely homotopic to the marked image of w.

    Depends only on the conjugacy class of ``w``.  The identity word gets the
    defined-zero result with a trivial loop (``loop.trivial`` is the flag).
    """
    if w.rank != g.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {g.rank}")
    loop = g.loop_of(w)
    return loop.length, loop


# -- embedded cycles and the systole ----------------------------------------


def embedded_cycles(g: MarkedGraph) -> list[LoopPath]:
    """All embedded cycles (vertex-simple closed paths), each listed once.

    Any reduced nontrivial closed edge path that repeats an intermediate
    vertex contains a strictly shorter reduced closed subpath, so minimum
    length searches (the systole, the spine constraints) may quantify over
    embedded cycles only; this enumeration is exact and finite.
    """
    return g._loops(g._topo.graph.cycles)


def _cycle_paths(t: _Graph) -> list[tuple[OrientedEdge, ...]]:
    """Embedded cycles as the depth-first search finds them, one per edge
    set, sorted by edge set; ``_Graph.cycles`` puts them in canonical
    form."""
    found: dict[frozenset[str], tuple[OrientedEdge, ...]] = {}
    order = {v: i for i, v in enumerate(t.vertices)}

    def dfs(start: str, cur: str, path: list[OrientedEdge], visited: set[str]):
        for eid, s, nxt in t.adj[cur]:
            if path and path[-1][0] == eid and path[-1][1] == -s:
                continue
            if nxt == start and path:
                cycle = tuple(path) + ((eid, s),)
                key = frozenset(e for e, _ in cycle)
                if len(key) == len(cycle) and key not in found:
                    found[key] = cycle
                continue
            if nxt == start and not path:
                # single loop edge
                cycle = ((eid, s),)
                key = frozenset({eid})
                if key not in found:
                    found[key] = cycle
                continue
            if nxt in visited or order[nxt] < order[start]:
                continue
            visited.add(nxt)
            path.append((eid, s))
            dfs(start, nxt, path, visited)
            path.pop()
            visited.remove(nxt)

    for v in t.vertices:
        dfs(v, v, [], {v})
    return [found[k] for k in sorted(found, key=lambda k: tuple(sorted(k)))]


def _canonical_cycle(path: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    """Deterministic representative among rotations and the reversal."""
    best = None
    for base in (path, _reverse(path)):
        for i in range(len(base)):
            rot = base[i:] + base[:i]
            if best is None or rot < best:
                best = rot
    return best


def systole(g: MarkedGraph) -> tuple[float, LoopPath]:
    """Minimum translation length over nontrivial conjugacy classes.

    Computed as the minimum over embedded cycles, which is exact (see
    embedded_cycles); the brute-force word oracle in the tests cross-checks
    this equality on random graphs.
    """
    cycles = embedded_cycles(g)
    best = min(cycles, key=lambda c: (c.length, c.path))
    return best.length, best


def in_spine(g: MarkedGraph, eps: float) -> bool:
    """Systole at least ``eps``, up to a 1e-9 float tolerance: the
    shortest embedded cycle's length, read off the lengths alone."""
    return min(g._topo.graph.cycle_lengths([e.length for e in g.edges])) >= eps - 1e-9


# -- candidate loops ----------------------------------------------------------


def _rotate_to(path: tuple[OrientedEdge, ...], vertex: str, t: _Graph) -> tuple[OrientedEdge, ...]:
    cur = _path_vertices(path, t)
    for i, v in enumerate(cur[:-1]):
        if v == vertex:
            return path[i:] + path[:i]
    raise ValueError(f"cycle does not pass through {vertex!r}")


def _path_vertices(path: Sequence[OrientedEdge], t: _Graph) -> list[str]:
    """Vertex itinerary of an oriented path, length len(path)+1."""
    if not path:
        return []
    out = []
    end = ""
    for eid, s in path:
        src, dst = t.ends[eid]
        a, end = (src, dst) if s > 0 else (dst, src)
        out.append(a)
    out.append(end)
    return out


def candidates(g: MarkedGraph) -> list[tuple[LoopPath, Word]]:
    """Loops of the three shapes on which optimal stretch factors live.

    Shapes: embedded circle; bouquet of two edge-disjoint embedded circles
    meeting at exactly one vertex; barbell (two vertex-disjoint embedded
    circles joined by an embedded arc, traversed twice).  Every candidate
    crosses each edge at most twice.  One representative per unoriented free
    homotopy class is returned, each paired with that class's
    ``canonical_representative`` word, in word order (length, then
    spelling).
    """
    paths = g._topo.graph.candidates
    cands = g._topo.candidates
    loops = g._loops(paths[i] for i, _ in cands)
    return [(loop, w) for loop, (_, w) in zip(loops, cands)]


def _candidate_paths(
    t: _Graph,
) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...], list[int]]]:
    """Candidate loop paths (see candidates): (path, edge indices, crossing
    counts in edge order), in the order they are found.  Every candidate
    is a cyclically reduced loop, and on a graph these correspond one to
    one to conjugacy classes.  No two emitted paths are the same cyclic
    path up to rotation and reversal: circles differ in their edge sets, a
    bouquet or barbell is no circle and differs from any other in its
    edges or in the direction it runs its second circle, and distinct arcs
    differ in their edges.  So each path is its own unoriented class, with
    no word built."""
    out: list[tuple[tuple[OrientedEdge, ...], tuple[int, ...], list[int]]] = []

    def emit(path: tuple[OrientedEdge, ...]):
        out.append((path, tuple(t.index[e] for e, _ in path), _crossings(path, t.index)))

    circles = [path for path, _ in t.cycles]
    verts = [set(_path_vertices(p, t)[:-1]) for p in circles]
    eids = [set(p_e for p_e, _ in p) for p in circles]

    for p in circles:
        emit(p)

    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            if eids[i] & eids[j]:
                continue
            common = verts[i] & verts[j]
            if len(common) == 1:
                v = min(common)
                a = _rotate_to(circles[i], v, t)
                b = _rotate_to(circles[j], v, t)
                emit(a + b)
                emit(a + _reverse(b))
            elif not common:
                for arc in _connecting_arcs(t, verts[i], verts[j]):
                    u, w = _path_vertices(arc, t)[0], _path_vertices(arc, t)[-1]
                    a = _rotate_to(circles[i], u, t)
                    b = _rotate_to(circles[j], w, t)
                    emit(a + arc + b + _reverse(arc))
                    emit(a + arc + _reverse(b) + _reverse(arc))
    return out


def _connecting_arcs(t: _Graph, va: set[str], vb: set[str]):
    """Embedded arcs from ``va`` to ``vb`` with interior avoiding both."""
    arcs = []

    def dfs(cur: str, path: list[OrientedEdge], interior: set[str]):
        for eid, s, nxt in t.adj[cur]:
            if path and path[-1][0] == eid and path[-1][1] == -s:
                continue
            if nxt in vb:
                arcs.append(tuple(path) + ((eid, s),))
                continue
            if nxt in va or nxt in interior:
                continue
            interior.add(nxt)
            path.append((eid, s))
            dfs(nxt, path, interior)
            path.pop()
            interior.remove(nxt)

    for u in sorted(va):
        dfs(u, [], set())
    return sorted(arcs)


# -- scaling -------------------------------------------------------------------


def with_lengths(g: MarkedGraph, lengths: Sequence[float]) -> MarkedGraph:
    """The point of ``g``'s simplex with these lengths, one per edge in edge order.

    The topology is shared, not rebuilt: lengths can only break the edge
    and volume bounds.
    """
    if len(lengths) != len(g.edges):
        raise ValueError(f"need {len(g.edges)} lengths, one per edge, not {len(lengths)}")
    edges = tuple(Edge(e.id, e.src, e.dst, float(x)) for e, x in zip(g.edges, lengths))
    return _build(g._topo, edges)


def rescale(g: MarkedGraph, c: float) -> MarkedGraph:
    """Multiply every edge length by ``c`` (> 0); translation lengths scale."""
    if not c > 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    return with_lengths(g, [e.length * c for e in g.edges])


def normalize_volume(g: MarkedGraph) -> MarkedGraph:
    return rescale(g, 1.0 / g.volume)


# -- topology moves -------------------------------------------------------------


def collapse_edge(g: MarkedGraph, eid: str) -> MarkedGraph:
    """Identify the endpoints of a non-loop edge and delete it.

    The edge length is treated as zero: callers collapse edges the length
    assignment has already driven to the floor, so loop lengths and the
    Betti number are preserved.  If the edge carries a word ``w``, the
    comarking is first re-gauged at its non-base end (by ``w^-1`` at the
    head, or ``w`` at the tail when the head is the basepoint): entering
    edges read ``u h``, leaving edges ``h^-1 u``, and the edge reads empty.
    Every based loop reads as before, so the collapse is valid by
    construction and not validated again.
    """
    e = g.edge(eid)
    if e.src == e.dst:
        raise ValueError(f"edge {eid!r} is a loop; collapsing would drop the rank")
    w = g.comarking_word(eid)
    v, h = (e.src, w) if e.dst == g.basepoint else (e.dst, w.inverse())
    comarking = {}
    for f in g.edges:
        u = g.comarking_word(f.id)
        if w and f.dst == v:
            u = u * h
        if w and f.src == v:
            u = h.inverse() * u
        comarking[f.id] = u
    del comarking[eid]
    keep, drop = sorted((e.src, e.dst))
    ren = lambda x: keep if x == drop else x
    edges = tuple(Edge(f.id, ren(f.src), ren(f.dst), f.length) for f in g.edges if f.id != eid)
    marking = [tuple(step for step in path if step[0] != eid) for path in g.marking]
    topo = _Topology(g.rank, _Graph(_shape(edges)), ren(g.basepoint), marking, comarking)
    return _build(topo, edges)


def _fresh_names(g: MarkedGraph) -> tuple[str, str]:
    verts = set(g.vertices)
    i = 0
    while f"v{i}" in verts:
        i += 1
    eidset = {e.id for e in g.edges}
    j = 0
    while f"s{j}" in eidset:
        j += 1
    return f"v{i}", f"s{j}"


def expansions(g: MarkedGraph, v: str) -> list[MarkedGraph]:
    """All splittings of ``v`` along a fresh zero-length edge.

    One graph per partition of the edge ends at ``v`` into two sides of size
    at least two (each side below that would create a forbidden low-valence
    vertex), in ``_partitions`` order.  Collapsing the fresh edge recovers
    ``g`` exactly.  Each keeps ``g``'s comarking, the fresh edge reading
    the empty word, so it is valid by construction and not validated again.
    """
    new_v, new_e = _fresh_names(g)
    return [_split(g, v, new_v, new_e, moved) for moved in _partitions(g, v)]


def _partitions(g: MarkedGraph, v: str):
    """The edge ends at ``v`` that each splitting moves to the fresh
    vertex, one set per partition into two sides of size at least two.
    An end is (edge id, 0) for an edge's tail and (edge id, 1) for its
    head; the side holding the first end stays at ``v``."""
    ends = []
    for e in g.edges:
        if e.src == v:
            ends.append((e.id, 0))
        if e.dst == v:
            ends.append((e.id, 1))
    deg = len(ends)
    if deg < 4:
        raise ValueError(f"vertex {v!r} has valence {deg} < 4")
    first = ends[0]
    rest = ends[1:]
    for mask in range(1 << len(rest)):
        side_v = {first} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        side_w = set(ends) - side_v
        if len(side_v) < 2 or len(side_w) < 2:
            continue
        yield side_w


def _split_parts(
    g: MarkedGraph, v: str, new_v: str, new_e: str, moved: set[tuple[str, int]]
) -> tuple[tuple[tuple[str, str, str], ...], tuple[tuple[OrientedEdge, ...], ...]]:
    """The shape, (id, src, dst) in id order, and the marking of
    ``_split``'s graph, with no graph and no edge built: each marking path
    takes the fresh edge wherever it passes between the two sides."""
    ends = {
        e.id: (new_v if (e.id, 0) in moved else e.src, new_v if (e.id, 1) in moved else e.dst)
        for e in g.edges
    }
    ends[new_e] = (v, new_v)
    marking = []
    for path in g.marking:
        new_path: list[OrientedEdge] = []
        cur = g.basepoint
        for step in path:
            a, b = ends[step[0]] if step[1] > 0 else ends[step[0]][::-1]
            if a != cur:
                new_path.append((new_e, 1) if a == new_v else (new_e, -1))
            new_path.append(step)
            cur = b
        if cur != g.basepoint:
            new_path.append((new_e, 1) if cur == v else (new_e, -1))
        marking.append(tuple(_tighten(new_path)))
    return tuple((eid, *ends[eid]) for eid in sorted(ends)), tuple(marking)


def _split(g: MarkedGraph, v: str, new_v: str, new_e: str, moved: set[tuple[str, int]]) -> MarkedGraph:
    shape, marking = _split_parts(g, v, new_v, new_e, moved)
    lengths = {e.id: e.length for e in g.edges}
    comarking = dict(g._topo.comarking)
    comarking[new_e] = Word(g.rank)
    edges = tuple(Edge(eid, src, dst, lengths.get(eid, 0.0)) for eid, src, dst in shape)
    return _build(_Topology(g.rank, _Graph(shape), g.basepoint, marking, comarking), edges)


def collapse_zero_edges(g: MarkedGraph) -> MarkedGraph:
    """Collapse every non-loop edge of length zero (public spine points
    keep all-positive lengths), one at a time in edge order."""
    while zeros := [e.id for e in g.edges if e.length == 0.0 and e.src != e.dst]:
        g = collapse_edge(g, zeros[0])
    return g


# -- Out action -----------------------------------------------------------------


def transform(g: MarkedGraph, phi) -> MarkedGraph:
    """The image of ``g`` under an invertible automorphism.

    Lengths and topology do not move; the identification with the free group
    does: the image graph measures a word w the way ``g`` measures
    phi^-1(w).  Together with the current action this gives the exact
    equivariance pairing(transform(g, phi), nu) = pairing(g, phi^-1 nu).

    The image keeps ``g``'s unmarked graph, so its cycles and candidate
    paths.  It is valid by construction and not validated again: generator
    k is marked by the path of phi^-1(x_k) and phi carries every comarking
    word, so x_k reads back phi(phi^-1(x_k)) = x_k, given that
    ``phi.inverse_images`` inverts ``phi.images`` (see ``Automorphism``).
    """
    if phi.rank != g.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {g.rank}")
    marking = [g.path_of(_reduced_word(g.rank, img)) for img in phi.inverse_images]
    comarking = {e.id: apply(phi, g.comarking_word(e.id)) for e in g.edges}
    return _build(_Topology(g.rank, g._topo.graph, g.basepoint, marking, comarking), g.edges)


# -- builders ---------------------------------------------------------------------


def rose(lengths: Sequence[float]) -> MarkedGraph:
    """Rose with one petal per generator, identity marking."""
    rank = len(lengths)
    names = "abcd"[:rank]
    edges = [Edge(names[i], "v", "v", float(lengths[i])) for i in range(rank)]
    marking = [((names[i], 1),) for i in range(rank)]
    return MarkedGraph(rank, edges, "v", marking)


def unit_rose(rank: int = 3) -> MarkedGraph:
    return rose([1.0 / rank] * rank)

