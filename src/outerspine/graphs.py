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
loop's reading.  Validation checks the read-back on every generator; with
Betti number = rank this makes the read-back map onto F_rank, hence (free
groups being Hopfian) an isomorphism; nothing more needs checking.

A point is its edges, lengths, basepoint and marking; the comarking is not
part of its identity.  Three layers keep combinatorics apart from
lengths.  The private unmarked graph holds edge ends, adjacency and what
they alone fix: embedded cycles (one search, read as paths, as masks and
sorted rows, and as the shortest length the spine test asks for),
candidate loop paths, and the spanning tree that validation and the
graph-file loader share.  The private topology is a marking of it
(basepoint, marking, comarking, letter paths, the candidates' class words
and their order, the crossing counts of paired current atoms) and fixes
one simplex of Outer space.  ``edges`` carries one point's lengths, which
are summed along those cached paths.  Every tight loop, of a word or of a
candidate's image, is read by ``_tight_loop``.
The constructor builds and validates a fresh graph and topology, marking
read-back included; ``transform`` keeps its source's graph, already
validated, and checks only the basepoint and the new marking;
``with_lengths``, ``rescale`` and ``normalize_volume`` share their
source's topology and check only the lengths (no negative edge, positive
volume).

All values are immutable; every operation returns a fresh graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .words import (
    Word,
    _reduced_word,
    apply,
    canonical_representative,
    free_reduce,
    spelling_key,
)

OrientedEdge = tuple[str, int]  # (edge id, +1 along src->dst, -1 against)


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    length: float

    def __post_init__(self):
        if not 0 <= self.length < math.inf:
            raise ValueError(
                f"edge {self.id} needs a finite nonnegative length, not {self.length}"
            )


@dataclass(frozen=True)
class LoopPath:
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


def _tight_loop(table, steps) -> tuple[OrientedEdge, ...]:
    """The cyclically tightened concatenation of ``table[x]`` over
    ``steps``: a word's loop under a letter-path table, or a candidate's
    image under a table of edge images."""
    return _cyclic_tighten(chain.from_iterable(map(table.__getitem__, steps)))


def _reverse(path: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    return tuple((e, -s) for e, s in reversed(path))


def _letter_paths(marking) -> dict[int, tuple[OrientedEdge, ...]]:
    """The edge path of each signed letter under a marking."""
    table = dict(enumerate(marking, start=1))
    table.update((-k, _reverse(p)) for k, p in enumerate(marking, start=1))
    return table


def _shape(edges) -> tuple:
    """The unmarked graph's identity: edge ends in edge order."""
    return tuple((e.id, e.src, e.dst) for e in edges)


def _topology_key(rank: int, edges, basepoint: str, marking) -> tuple:
    """A topology's identity: rank, edge ends in edge order, basepoint and
    marking; everything of a point but its lengths."""
    return rank, _shape(edges), basepoint, marking


class _Graph:
    """The unmarked part of a topology: edge indices, edge ends, adjacency
    and vertices, and what they alone fix: its embedded cycles, their
    masks and rows (the region a topology on this graph poses) and
    shortest length under given lengths, its candidate loop paths and its
    spanning tree.  Every topology on this graph (its translates under
    ``transform`` and their relengthings) shares it, so each is enumerated
    once, by one cycle search."""

    def __init__(self, edges):
        self.shape = _shape(edges)
        self.index = {e.id: i for i, e in enumerate(edges)}
        self.ends = {e.id: (e.src, e.dst) for e in edges}
        adj: dict[str, list[tuple[str, int, str]]] = {}
        for e in edges:
            adj.setdefault(e.src, []).append((e.id, 1, e.dst))
            adj.setdefault(e.dst, []).append((e.id, -1, e.src))
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

    def shortest_cycle(self, lengths: Sequence[float]) -> float:
        """The least embedded-cycle length under ``lengths`` (in edge
        order), each cycle summed in DFS order as ``embedded_cycles`` sums
        it; no loop is built."""
        return min(sum(lengths[i] for i in order) for _, order in self._dfs_cycles)

    @cached_property
    def candidates(self) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...]]]:
        """Candidate loop paths (see ``candidates``): (path, edge indices)."""
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
        self.comarking = {eid: comarking[eid] for eid in graph.index}
        # the identity of the LP a point poses: everything but lengths
        self.key = (rank, graph.shape, basepoint, self.marking)
        self._counts: dict[tuple[int, ...], list[int]] = {}

    index = property(lambda self: self.graph.index)

    @cached_property
    def letter_paths(self) -> dict[int, tuple[OrientedEdge, ...]]:
        return _letter_paths(self.marking)

    def word_along(self, path: Sequence[OrientedEdge]) -> Word:
        letters: list[int] = []
        for eid, s in path:
            w = self.comarking[eid]
            letters.extend(w.letters if s > 0 else (-x for x in reversed(w.letters)))
        # comarking words are Words of this rank (checked by _validate)
        return _reduced_word(self.rank, free_reduce(letters))

    @cached_property
    def candidates(self) -> list[tuple[int, Word]]:
        """Each of the graph's candidate paths, by its position there, with
        the class word it reads (``canonical_representative``), sorted by
        word length, then spelling."""
        words = [canonical_representative(self.word_along(p)) for p, _ in self.graph.candidates]
        return sorted(enumerate(words), key=lambda c: (len(c[1]), spelling_key(c[1])))

    def crossings(self, letters: tuple[int, ...]) -> list[int]:
        """Edge crossing counts, in edge order, of the tight loop of a
        reduced word's letters; kept for the next point of this simplex.
        Only ``pairing`` asks, for its current's atoms: a table of every
        measured word would keep long iterates alive."""
        counts = self._counts.get(letters)
        if counts is None:
            path = _tight_loop(self.letter_paths, letters)
            counts = self._counts[letters] = _crossings(path, self.graph.index)
        return counts


def _crossings(path: Sequence[OrientedEdge], index: dict[str, int]) -> list[int]:
    """How often ``path`` crosses each edge, in edge order."""
    counts = [0] * len(index)
    for eid, _ in path:
        counts[index[eid]] += 1
    return counts


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

    __slots__ = ("edges", "_topo", "_key")

    def __init__(
        self,
        rank: int,
        edges: Iterable[Edge],
        basepoint: str,
        marking: Sequence[Sequence[OrientedEdge]],
        comarking: dict[str, Word],
        *,
        _graph: _Graph | None = None,
    ):
        # _graph (private): the unmarked graph of these edges and lengths,
        # already validated, shared by a translate with its source instead
        # of rebuilt; only the new marking is checked then
        edges = tuple(sorted(edges, key=lambda e: e.id))
        graph = _Graph(edges) if _graph is None else _graph
        self._init(_Topology(rank, graph, basepoint, marking, comarking), edges)
        self._validate(marking_only=_graph is not None)

    def _init(self, topo: _Topology, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_topo", topo)
        object.__setattr__(self, "_key", None)

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
        """Hashable identity: edges with their lengths, basepoint and marking.

        The comarking is left out: it is fixed by the marking up to a change
        of gauge at the non-base vertices, which no measurement sees."""
        if self._key is None:
            rank, _, basepoint, marking = self._topo.key
            edges = tuple((e.id, e.src, e.dst, e.length) for e in self.edges)
            object.__setattr__(self, "_key", (rank, edges, basepoint, marking))
        return self._key

    def __eq__(self, other):
        return isinstance(other, MarkedGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"MarkedGraph(rank={self.rank}, edges={len(self.edges)}, "
            f"vertices={len(self.vertices)}, volume={self.volume:.6g})"
        )

    # -- validation ---------------------------------------------------------

    def _validate(self, marking_only: bool = False) -> None:
        """Check the graph (connected, Betti number = rank, valence at least
        3, positive volume) unless ``marking_only``, then the basepoint, the
        comarking's rank and every marking loop's read-back."""
        t = self._topo.graph
        if not marking_only:
            self._validate_graph()
        elif self.basepoint not in t.adj:
            raise ValueError(f"basepoint {self.basepoint!r} is not a vertex")
        if any(w.rank != self.rank for w in self._topo.comarking.values()):
            raise ValueError(f"comarking words must have rank {self.rank}")
        if len(self.marking) != self.rank:
            raise ValueError("marking must have one loop per generator")
        for k, path in enumerate(self.marking, start=1):
            if not path:
                raise ValueError(f"marking of generator {k} is empty")
            cur = self.basepoint
            for eid, s in path:
                ends = t.ends.get(eid)
                if ends is None or s not in (1, -1):
                    raise ValueError(f"marking step ({eid!r},{s}) is malformed")
                start, end = ends if s > 0 else ends[::-1]
                if start != cur:
                    raise ValueError(f"marking of generator {k} is not a path")
                cur = end
            if cur != self.basepoint:
                raise ValueError(f"marking of generator {k} is not a loop")
            got = self.word_along(path)
            if got.letters != (k,):
                raise ValueError(
                    f"marking inconsistency: generator {k} reads back as {got}"
                )

    def _validate_graph(self) -> None:
        t = self._topo.graph
        if not self.edges:
            raise ValueError("graph has no edges")
        verts = self.vertices
        if self.basepoint not in t.adj:
            raise ValueError(f"basepoint {self.basepoint!r} is not a vertex")
        if len(t.spanning_tree(self.basepoint)[1]) != len(verts):
            raise ValueError("graph is not connected")
        betti = len(self.edges) - len(verts) + 1
        if betti != self.rank:
            raise ValueError(f"first Betti number {betti} != rank {self.rank}")
        for v in verts:
            if self.valence(v) < 3:
                raise ValueError(f"vertex {v!r} has valence {self.valence(v)} < 3")
        if self.volume <= 0:
            raise ValueError("total volume must be positive")

    # -- paths ---------------------------------------------------------------

    def word_along(self, path: Sequence[OrientedEdge]) -> Word:
        return self._topo.word_along(path)

    # -- lengths -------------------------------------------------------------

    def loop_of(self, w: Word) -> LoopPath:
        """Tightened cyclic loop representing the conjugacy class of ``w``."""
        path = _tight_loop(self._topo.letter_paths, w.letters)
        return LoopPath(path, _weigh(_crossings(path, self._topo.index), self.edges))

    def path_of(self, w: Word) -> tuple[OrientedEdge, ...]:
        """Tightened based path of ``w`` through the marking (no cyclic move)."""
        table = self._topo.letter_paths
        return tuple(_tighten(chain.from_iterable(map(table.__getitem__, w.letters))))

    def _loops(self, entries) -> list[LoopPath]:
        """LoopPaths of cached (path, edge indices, ...) entries, each length
        summed in its stored index order."""
        lengths = [e.length for e in self.edges]
        return [LoopPath(path, sum(lengths[i] for i in order)) for path, order, *_ in entries]


def translation_length(g: MarkedGraph, w: Word) -> tuple[float, LoopPath]:
    """Length of the shortest loop freely homotopic to the marked image of w.

    Depends only on the conjugacy class of ``w``.  The identity word gets the
    defined-zero result with a trivial loop (``loop.trivial`` is the flag).
    """
    if w.rank != g.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {g.rank}")
    loop = g.loop_of(w)
    return loop.length, loop


def crossing_vector(g: MarkedGraph, w: Word) -> dict[str, int]:
    """Unoriented edge crossing counts of the tightened cyclic loop of ``w``.

    Crossing counts are length independent (tightening is combinatorial), so
    the translation length is the inner product with any length vector.
    """
    length, loop = translation_length(g, w)
    counts = {e.id: c for e, c in zip(g.edges, _crossings(loop.path, g._topo.index))}
    assert (
        abs(sum(counts[e.id] * e.length for e in g.edges) - length) <= 1e-9 * (1 + length)
    ), "crossing counts disagree with translation length"
    return counts


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
    return g._topo.graph.shortest_cycle([e.length for e in g.edges]) >= eps - 1e-9


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


def _candidate_paths(t: _Graph) -> list[tuple[tuple[OrientedEdge, ...], tuple[int, ...]]]:
    """Candidate loop paths (see candidates): (path, edge indices), in the
    order they are found.  Every candidate is a cyclically reduced loop,
    and on a graph these correspond one to one to conjugacy classes.  No
    two emitted paths are the same cyclic path up to rotation and
    reversal: circles differ in their edge sets, a bouquet or barbell is
    no circle and differs from any other in its edges or in the direction
    it runs its second circle, and distinct arcs differ in their edges.
    So each path is its own unoriented class, with no word built."""
    out: list[tuple[tuple[OrientedEdge, ...], tuple[int, ...]]] = []

    def emit(path: tuple[OrientedEdge, ...]):
        out.append((path, tuple(t.index[e] for e, _ in path)))

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


def _relength(g: MarkedGraph, lengths: Iterable[float]) -> MarkedGraph:
    """The point of ``g``'s simplex with these lengths, in edge order.

    The topology is shared, not rebuilt: it was validated when ``g`` was
    constructed, and lengths can only break the edge and volume bounds.
    """
    h = object.__new__(MarkedGraph)
    h._init(g._topo, tuple(Edge(e.id, e.src, e.dst, x) for e, x in zip(g.edges, lengths)))
    if h.volume <= 0:
        raise ValueError("total volume must be positive")
    return h


def rescale(g: MarkedGraph, c: float) -> MarkedGraph:
    """Multiply every edge length by ``c`` (> 0); translation lengths scale."""
    if not c > 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    return _relength(g, [e.length * c for e in g.edges])


def normalize_volume(g: MarkedGraph) -> MarkedGraph:
    return rescale(g, 1.0 / g.volume)


def with_lengths(g: MarkedGraph, lengths: dict[str, float]) -> MarkedGraph:
    return _relength(g, [float(lengths[e.id]) for e in g.edges])


# -- topology moves -------------------------------------------------------------


def collapse_edge(g: MarkedGraph, eid: str) -> MarkedGraph:
    """Identify the endpoints of a non-loop edge and delete it.

    The edge length is treated as zero: callers collapse edges the length
    assignment has already driven to the floor, so loop lengths and the
    Betti number are preserved.  If the edge carries a word ``w``, the
    comarking is first re-gauged at its non-base end (by ``w^-1`` at the
    head, or ``w`` at the tail when the head is the basepoint): entering
    edges read ``u h``, leaving edges ``h^-1 u``, and the edge reads empty.
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
    edges = [
        Edge(f.id, ren(f.src), ren(f.dst), f.length)
        for f in g.edges
        if f.id != eid
    ]
    marking = [tuple(step for step in path if step[0] != eid) for path in g.marking]
    return MarkedGraph(g.rank, edges, ren(g.basepoint), marking, comarking)


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
    ``g`` exactly.
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
) -> tuple[tuple[Edge, ...], tuple[tuple[OrientedEdge, ...], ...]]:
    """The edges, in id order, and the marking of ``_split``'s graph,
    without building it: each marking path takes the fresh edge wherever
    it passes between the two sides."""
    edges = []
    for e in g.edges:
        src = new_v if (e.id, 0) in moved else e.src
        dst = new_v if (e.id, 1) in moved else e.dst
        edges.append(Edge(e.id, src, dst, e.length))
    edges.append(Edge(new_e, v, new_v, 0.0))
    by_id = {e.id: e for e in edges}

    def endpoints(step: OrientedEdge) -> tuple[str, str]:
        e = by_id[step[0]]
        return (e.src, e.dst) if step[1] > 0 else (e.dst, e.src)

    marking = []
    for path in g.marking:
        new_path: list[OrientedEdge] = []
        cur = g.basepoint
        for step in path:
            a, b = endpoints(step)
            if a != cur:
                new_path.append((new_e, 1) if a == new_v else (new_e, -1))
            new_path.append(step)
            cur = b
        if cur != g.basepoint:
            new_path.append((new_e, 1) if cur == v else (new_e, -1))
        marking.append(tuple(_tighten(new_path)))
    return tuple(sorted(edges, key=lambda e: e.id)), tuple(marking)


def _split(g: MarkedGraph, v: str, new_v: str, new_e: str, moved: set[tuple[str, int]]) -> MarkedGraph:
    edges, marking = _split_parts(g, v, new_v, new_e, moved)
    comarking = dict(g._topo.comarking)
    comarking[new_e] = Word(g.rank)
    return MarkedGraph(g.rank, edges, g.basepoint, marking, comarking)


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
    paths; the constructor checks only its basepoint and new marking.
    """
    if phi.rank != g.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {g.rank}")
    # generator k is marked by the path of phi^-1(x_k), which phi carries
    marking = [g.path_of(_reduced_word(g.rank, img)) for img in phi.inverse_images]
    comarking = {e.id: apply(phi, g.comarking_word(e.id)) for e in g.edges}
    return MarkedGraph(g.rank, g.edges, g.basepoint, marking, comarking, _graph=g._topo.graph)


# -- builders ---------------------------------------------------------------------


def rose(lengths: Sequence[float]) -> MarkedGraph:
    """Rose with one petal per generator, identity marking."""
    rank = len(lengths)
    names = "abcd"[:rank]
    edges = [Edge(names[i], "v", "v", float(lengths[i])) for i in range(rank)]
    marking = [((names[i], 1),) for i in range(rank)]
    comarking = {names[i]: Word(rank, (i + 1,)) for i in range(rank)}
    return MarkedGraph(rank, edges, "v", marking, comarking)


def unit_rose(rank: int = 3) -> MarkedGraph:
    return rose([1.0 / rank] * rank)

