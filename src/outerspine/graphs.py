"""Marked metric graphs: points of (projectivized) Outer space.

A MarkedGraph is a finite connected metric graph of first Betti number
``rank`` together with a two-way identification of its fundamental group
with F_rank:

* the marking sends each generator to a based edge loop, and
* the comarking stores, per unoriented edge, the word that a homotopy
  inverse of the marking reads along that edge (relative to a fixed
  spanning tree whose edges carry the empty word).

Reading comarking letters along any based loop therefore evaluates the
homotopy inverse on that loop, and consistency means this evaluation
returns ``x_k`` on the marking loop of ``x_k`` (checked exactly on every
construction).

All values are immutable; every operation returns a fresh graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .words import Word, free_reduce

OrientedEdge = tuple[str, int]  # (edge id, +1 along src->dst, -1 against)


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    length: float
    raw_length: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"edge {self.id} has negative length")


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


def _tighten(path: Sequence[OrientedEdge]) -> list[OrientedEdge]:
    stack: list[OrientedEdge] = []
    for step in path:
        if stack and stack[-1][0] == step[0] and stack[-1][1] == -step[1]:
            stack.pop()
        else:
            stack.append(step)
    return stack


def _cyclic_tighten(path: Sequence[OrientedEdge]) -> tuple[OrientedEdge, ...]:
    p = _tighten(path)
    while len(p) >= 2 and p[0][0] == p[-1][0] and p[0][1] == -p[-1][1]:
        p = p[1:-1]
    return tuple(p)


class MarkedGraph:
    """Immutable marked metric graph.  Use the module builders or
    ``MarkedGraph.build`` rather than mutating instances."""

    __slots__ = (
        "rank",
        "edges",
        "basepoint",
        "marking",
        "tree",
        "_comarking",
        "_by_id",
        "_adj",
        "_tree_path",
        "_letter_path",
        "_cycles",
        "_candidates",
        "_length_memo",
        "_key",
    )

    def __init__(
        self,
        rank: int,
        edges: Iterable[Edge],
        basepoint: str,
        marking: Sequence[Sequence[OrientedEdge]],
        tree: Iterable[str],
        comarking: dict[str, Word],
    ):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "edges", tuple(sorted(edges, key=lambda e: e.id)))
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(
            self, "marking", tuple(tuple((e, s) for e, s in p) for p in marking)
        )
        object.__setattr__(self, "tree", frozenset(tree))
        object.__setattr__(
            self, "_comarking", {e.id: comarking[e.id] for e in self.edges}
        )
        object.__setattr__(self, "_by_id", {e.id: e for e in self.edges})
        adj: dict[str, list[tuple[str, int, str]]] = {}
        for e in self.edges:
            adj.setdefault(e.src, []).append((e.id, 1, e.dst))
            adj.setdefault(e.dst, []).append((e.id, -1, e.src))
        for v in adj:
            adj[v].sort()
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_tree_path", None)
        object.__setattr__(self, "_letter_path", None)
        object.__setattr__(self, "_cycles", None)
        object.__setattr__(self, "_candidates", None)
        object.__setattr__(self, "_length_memo", {})
        object.__setattr__(self, "_key", None)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("MarkedGraph is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self._adj))

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def comarking_word(self, eid: str, sign: int = 1) -> Word:
        w = self._comarking[eid]
        return w if sign > 0 else w.inverse()

    @property
    def volume(self) -> float:
        return sum(e.length for e in self.edges)

    def valence(self, v: str) -> int:
        return len(self._adj[v])

    def key(self):
        """Hashable identity: topology, lengths, basepoint, marking, tree."""
        if self._key is None:
            k = (
                self.rank,
                tuple((e.id, e.src, e.dst, e.length) for e in self.edges),
                self.basepoint,
                self.marking,
                tuple(sorted(self.tree)),
            )
            object.__setattr__(self, "_key", k)
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

    def _validate(self) -> None:
        if not self.edges:
            raise ValueError("graph has no edges")
        verts = self.vertices
        if self.basepoint not in self._adj:
            raise ValueError(f"basepoint {self.basepoint!r} is not a vertex")
        # connectivity
        seen = {self.basepoint}
        stack = [self.basepoint]
        while stack:
            v = stack.pop()
            for _, _, u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(verts):
            raise ValueError("graph is not connected")
        betti = len(self.edges) - len(verts) + 1
        if betti != self.rank:
            raise ValueError(f"first Betti number {betti} != rank {self.rank}")
        for v in verts:
            if self.valence(v) < 3:
                raise ValueError(f"vertex {v!r} has valence {self.valence(v)} < 3")
        if self.volume <= 0:
            raise ValueError("total volume must be positive")
        # spanning tree shape
        if len(self.tree) != len(verts) - 1:
            raise ValueError("tree edge count is not |V| - 1")
        for eid in self.tree:
            if eid not in self._by_id:
                raise ValueError(f"tree edge {eid!r} not in graph")
            if not self._comarking[eid]:
                continue
            raise ValueError(f"tree edge {eid!r} carries a nonempty word")
        self._tree_paths()  # raises if the tree does not span
        if len(self.marking) != self.rank:
            raise ValueError("marking must have one loop per generator")
        for k, path in enumerate(self.marking, start=1):
            if not path:
                raise ValueError(f"marking of generator {k} is empty")
            cur = self.basepoint
            for eid, s in path:
                e = self._by_id.get(eid)
                if e is None or s not in (1, -1):
                    raise ValueError(f"marking step ({eid!r},{s}) is malformed")
                start, end = (e.src, e.dst) if s > 0 else (e.dst, e.src)
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

    # -- tree machinery ------------------------------------------------------

    def _tree_paths(self) -> dict[str, tuple[OrientedEdge, ...]]:
        """Oriented tree path from the basepoint to each vertex."""
        if self._tree_path is not None:
            return self._tree_path
        paths = {self.basepoint: ()}
        frontier = [self.basepoint]
        while frontier:
            nxt = []
            for v in frontier:
                for eid, s, u in self._adj[v]:
                    if eid in self.tree and u not in paths:
                        paths[u] = paths[v] + ((eid, s),)
                        nxt.append(u)
            frontier = nxt
        if len(paths) != len(self.vertices):
            raise ValueError("tree does not span the graph")
        object.__setattr__(self, "_tree_path", paths)
        return paths

    def path_from_base(self, v: str) -> tuple[OrientedEdge, ...]:
        return self._tree_paths()[v]

    def based_loop(self, eid: str, sign: int = 1) -> tuple[OrientedEdge, ...]:
        """The based loop crossing ``eid`` once, closed up through the tree."""
        e = self._by_id[eid]
        a, b = (e.src, e.dst) if sign > 0 else (e.dst, e.src)
        back = tuple((f, -s) for f, s in reversed(self.path_from_base(b)))
        return tuple(_tighten(self.path_from_base(a) + ((eid, sign),) + back))

    def word_along(self, path: Sequence[OrientedEdge]) -> Word:
        letters: list[int] = []
        for eid, s in path:
            w = self._comarking[eid]
            letters.extend(w.letters if s > 0 else (-x for x in reversed(w.letters)))
        return Word(self.rank, letters)

    # -- lengths -------------------------------------------------------------

    def _letter_paths(self) -> dict[int, tuple[OrientedEdge, ...]]:
        if self._letter_path is None:
            table: dict[int, tuple[OrientedEdge, ...]] = {}
            for k in range(1, self.rank + 1):
                p = self.marking[k - 1]
                table[k] = p
                table[-k] = tuple((e, -s) for e, s in reversed(p))
            object.__setattr__(self, "_letter_path", table)
        return self._letter_path

    def loop_of(self, w: Word) -> LoopPath:
        """Tightened cyclic loop representing the conjugacy class of ``w``."""
        table = self._letter_paths()
        raw: list[OrientedEdge] = []
        for x in w.letters:
            raw.extend(table[x])
        path = _cyclic_tighten(raw)
        # sum crossings in canonical edge order, not path order: conjugate
        # words rotate the path, and float addition must not see the rotation
        counts: dict[str, int] = {}
        for eid, _ in path:
            counts[eid] = counts.get(eid, 0) + 1
        length = 0.0
        for e in self.edges:
            if e.id in counts:
                length += counts[e.id] * e.length
        return LoopPath(path, length)

    def path_of(self, w: Word) -> tuple[OrientedEdge, ...]:
        """Tightened based path of ``w`` through the marking (no cyclic move)."""
        table = self._letter_paths()
        raw: list[OrientedEdge] = []
        for x in w.letters:
            raw.extend(table[x])
        return tuple(_tighten(raw))


def translation_length(g: MarkedGraph, w: Word) -> tuple[float, LoopPath]:
    """Length of the shortest loop freely homotopic to the marked image of w.

    Depends only on the conjugacy class of ``w``.  The identity word gets the
    defined-zero result with a trivial loop (``loop.trivial`` is the flag).
    """
    if w.rank != g.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {g.rank}")
    memo = g._length_memo
    hit = memo.get(w.letters)
    if hit is None:
        loop = g.loop_of(w)
        hit = (loop.length, loop)
        # long words are one-shot queries (candidates of far translates);
        # caching their loops would pin megabytes to long-lived points
        if len(w.letters) <= 4096 and len(memo) < 100_000:
            memo[w.letters] = hit
    return hit


def crossing_vector(g: MarkedGraph, w: Word) -> dict[str, int]:
    """Unoriented edge crossing counts of the tightened cyclic loop of ``w``.

    Crossing counts are length independent (tightening is combinatorial), so
    the translation length is the inner product with any length vector.
    """
    length, loop = translation_length(g, w)
    counts = {e.id: 0 for e in g.edges}
    for eid, _ in loop.path:
        counts[eid] += 1
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
    if g._cycles is not None:
        return g._cycles
    found: dict[frozenset[str], tuple[OrientedEdge, ...]] = {}
    order = {v: i for i, v in enumerate(g.vertices)}

    def dfs(start: str, cur: str, path: list[OrientedEdge], visited: set[str]):
        for eid, s, nxt in g._adj[cur]:
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

    for v in g.vertices:
        dfs(v, v, [], {v})
    loops = []
    for key in sorted(found, key=lambda k: tuple(sorted(k))):
        cyc = found[key]
        length = sum(g.edge(e).length for e, _ in cyc)
        loops.append(LoopPath(_canonical_cycle(cyc), length))
    object.__setattr__(g, "_cycles", loops)
    return loops


def _canonical_cycle(path: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    """Deterministic representative among rotations and the reversal."""
    best = None
    rev = tuple((e, -s) for e, s in reversed(path))
    for base in (path, rev):
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


def in_spine(g: MarkedGraph, eps: float, tol: float = 1e-9) -> bool:
    return systole(g)[0] >= eps - tol


# -- candidate loops ----------------------------------------------------------


def _rotate_to(path: tuple[OrientedEdge, ...], vertex: str, g: MarkedGraph) -> tuple[OrientedEdge, ...]:
    cur = _path_vertices(path, g)
    for i, v in enumerate(cur[:-1]):
        if v == vertex:
            return path[i:] + path[:i]
    raise ValueError(f"cycle does not pass through {vertex!r}")


def _path_vertices(path: Sequence[OrientedEdge], g: MarkedGraph) -> list[str]:
    """Vertex itinerary of an oriented path, length len(path)+1."""
    if not path:
        return []
    out = []
    end = ""
    for eid, s in path:
        e = g.edge(eid)
        a, end = (e.src, e.dst) if s > 0 else (e.dst, e.src)
        out.append(a)
    out.append(end)
    return out


def _reverse(path: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    return tuple((e, -s) for e, s in reversed(path))


def candidates(g: MarkedGraph) -> list[tuple[LoopPath, Word]]:
    """Loops of the three shapes on which optimal stretch factors live.

    Shapes: embedded circle; bouquet of two edge-disjoint embedded circles
    meeting at exactly one vertex; barbell (two vertex-disjoint embedded
    circles joined by an embedded arc, traversed twice).  Every candidate
    crosses each edge at most twice.  One representative per unoriented free
    homotopy class is returned (key: ``canonical_representative`` of the
    comarking word, unique up to rotation and inversion), each paired with
    that word.
    """
    if g._candidates is not None:
        return g._candidates
    from .words import canonical_representative, spelling_key

    out: list[tuple[LoopPath, Word]] = []
    seen: set[tuple[int, ...]] = set()

    def emit(path: tuple[OrientedEdge, ...]):
        word = canonical_representative(g.word_along(path))
        key = word.letters
        assert key, "candidate loop is null homotopic"
        if key in seen:
            return
        seen.add(key)
        length = sum(g.edge(e).length for e, _ in path)
        out.append((LoopPath(path, length), word))

    circles = [c.path for c in embedded_cycles(g)]
    verts = [set(_path_vertices(p, g)[:-1]) for p in circles]
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
                a = _rotate_to(circles[i], v, g)
                b = _rotate_to(circles[j], v, g)
                emit(a + b)
                emit(a + _reverse(b))
            elif not common:
                for arc in _connecting_arcs(g, verts[i], verts[j]):
                    u, w = _path_vertices(arc, g)[0], _path_vertices(arc, g)[-1]
                    a = _rotate_to(circles[i], u, g)
                    b = _rotate_to(circles[j], w, g)
                    emit(a + arc + b + _reverse(arc))
                    emit(a + arc + _reverse(b) + _reverse(arc))

    out.sort(key=lambda cw: (len(cw[1]), spelling_key(cw[1])))
    object.__setattr__(g, "_candidates", out)
    return out


def _connecting_arcs(g: MarkedGraph, va: set[str], vb: set[str]):
    """Embedded arcs from ``va`` to ``vb`` with interior avoiding both."""
    arcs = []

    def dfs(cur: str, path: list[OrientedEdge], interior: set[str]):
        for eid, s, nxt in g._adj[cur]:
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


def rescale(g: MarkedGraph, c: float) -> MarkedGraph:
    """Multiply every edge length by ``c`` (> 0); translation lengths scale."""
    if not c > 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    edges = [Edge(e.id, e.src, e.dst, e.length * c) for e in g.edges]
    return MarkedGraph(g.rank, edges, g.basepoint, g.marking, g.tree, g._comarking)


def normalize_volume(g: MarkedGraph) -> MarkedGraph:
    return rescale(g, 1.0 / g.volume)


def with_lengths(g: MarkedGraph, lengths: dict[str, float]) -> MarkedGraph:
    edges = [Edge(e.id, e.src, e.dst, float(lengths[e.id])) for e in g.edges]
    return MarkedGraph(g.rank, edges, g.basepoint, g.marking, g.tree, g._comarking)


# -- topology moves -------------------------------------------------------------


def retree(g: MarkedGraph, tree: Iterable[str]) -> MarkedGraph:
    """Re-express the comarking relative to another spanning tree.

    The homotopy inverse is unchanged; the word of an edge is what the old
    comarking reads along that edge's based loop in the new tree.
    """
    tree = frozenset(tree)
    comarking: dict[str, Word] = {}
    tree_paths = _tree_paths_for(g, tree)
    for e in g.edges:
        if e.id in tree:
            comarking[e.id] = Word(g.rank)
        else:
            back = tuple((f, -s) for f, s in reversed(tree_paths[e.dst]))
            loop = _tighten(tree_paths[e.src] + ((e.id, 1),) + back)
            comarking[e.id] = g.word_along(loop)
    return MarkedGraph(g.rank, g.edges, g.basepoint, g.marking, tree, comarking)


def _tree_paths_for(g: MarkedGraph, tree: frozenset[str]) -> dict[str, tuple[OrientedEdge, ...]]:
    paths = {g.basepoint: ()}
    frontier = [g.basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for eid, s, u in g._adj[v]:
                if eid in tree and u not in paths:
                    paths[u] = paths[v] + ((eid, s),)
                    nxt.append(u)
        frontier = nxt
    if len(paths) != len(g.vertices):
        raise ValueError("proposed tree does not span the graph")
    return paths


def _spanning_tree_containing(g: MarkedGraph, eid: str) -> frozenset[str]:
    """Deterministic spanning tree through ``eid`` (greedy over sorted ids)."""
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    tree = set()
    order = [eid] + [e.id for e in g.edges if e.id != eid]
    for f in order:
        e = g.edge(f)
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[ra] = rb
            tree.add(f)
    return frozenset(tree)


def collapse_edge(g: MarkedGraph, eid: str) -> MarkedGraph:
    """Identify the endpoints of a non-loop edge and delete it.

    The edge length is treated as zero: callers collapse edges the length
    assignment has already driven to the floor, so loop lengths and the
    Betti number are preserved.
    """
    e = g.edge(eid)
    if e.src == e.dst:
        raise ValueError(f"edge {eid!r} is a loop; collapsing would drop the rank")
    host = g if eid in g.tree else retree(g, _spanning_tree_containing(g, eid))
    e = host.edge(eid)
    keep, drop = sorted((e.src, e.dst))
    ren = lambda v: keep if v == drop else v
    edges = [
        Edge(f.id, ren(f.src), ren(f.dst), f.length, f.raw_length)
        for f in host.edges
        if f.id != eid
    ]
    marking = [
        tuple(step for step in path if step[0] != eid) for path in host.marking
    ]
    comarking = {f.id: host._comarking[f.id] for f in host.edges if f.id != eid}
    return MarkedGraph(
        host.rank,
        edges,
        ren(host.basepoint),
        marking,
        host.tree - {eid},
        comarking,
    )


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
    vertex).  Collapsing the fresh edge recovers ``g`` exactly.
    """
    ends = []
    for e in g.edges:
        if e.src == v:
            ends.append((e.id, 0))
        if e.dst == v:
            ends.append((e.id, 1))
    deg = len(ends)
    if deg < 4:
        raise ValueError(f"vertex {v!r} has valence {deg} < 4")
    new_v, new_e = _fresh_names(g)
    out = []
    first = ends[0]
    rest = ends[1:]
    for mask in range(1 << len(rest)):
        side_v = {first} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        side_w = set(ends) - side_v
        if len(side_v) < 2 or len(side_w) < 2:
            continue
        out.append(_split(g, v, new_v, new_e, side_w))
    return out


def _split(g: MarkedGraph, v: str, new_v: str, new_e: str, moved: set[tuple[str, int]]) -> MarkedGraph:
    edges = []
    for e in g.edges:
        src = new_v if (e.id, 0) in moved else e.src
        dst = new_v if (e.id, 1) in moved else e.dst
        edges.append(Edge(e.id, src, dst, e.length, e.raw_length))
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

    comarking = dict(g._comarking)
    comarking[new_e] = Word(g.rank)
    return MarkedGraph(
        g.rank, edges, g.basepoint, marking, g.tree | {new_e}, comarking
    )


def collapse_zero_edges(g: MarkedGraph, tol: float = 0.0) -> MarkedGraph:
    """Collapse every non-loop edge of length <= tol (public spine points
    keep all-positive lengths)."""
    while True:
        target = None
        for e in g.edges:
            if e.length <= tol and e.src != e.dst:
                target = e.id
                break
        if target is None:
            return g
        g = collapse_edge(g, target)


# -- Out action -----------------------------------------------------------------


def transform(g: MarkedGraph, phi) -> MarkedGraph:
    """The image of ``g`` under an invertible automorphism.

    Lengths and topology do not move; the identification with the free group
    does: the image graph measures a word w the way ``g`` measures
    phi^-1(w).  Together with the current action this gives the exact
    equivariance pairing(transform(g, phi), nu) = pairing(g, phi^-1 nu).
    """
    from .words import apply, invert

    inv = invert(phi)
    marking = [g.path_of(apply(inv, Word(g.rank, (k,)))) for k in range(1, g.rank + 1)]
    comarking = {e.id: apply(phi, g._comarking[e.id]) for e in g.edges}
    return MarkedGraph(g.rank, g.edges, g.basepoint, marking, g.tree, comarking)


# -- builders ---------------------------------------------------------------------


def rose(lengths: Sequence[float], raw: Sequence[str] | None = None) -> MarkedGraph:
    """Rose with one petal per generator, identity marking."""
    rank = len(lengths)
    names = "abcd"[:rank]
    edges = [
        Edge(names[i], "v", "v", float(lengths[i]), raw[i] if raw else None)
        for i in range(rank)
    ]
    marking = [((names[i], 1),) for i in range(rank)]
    comarking = {names[i]: Word(rank, (i + 1,)) for i in range(rank)}
    return MarkedGraph(rank, edges, "v", marking, frozenset(), comarking)


def unit_rose(rank: int = 3) -> MarkedGraph:
    return rose([1.0 / rank] * rank)


def parallel_graph(lengths: Sequence[float]) -> MarkedGraph:
    """Two vertices joined by parallel edges (rank = len(lengths) - 1).

    Marking: generator k runs along edge k+1 and back along edge 1.
    """
    m = len(lengths)
    rank = m - 1
    edges = [Edge(f"e{i+1}", "u", "w", float(lengths[i])) for i in range(m)]
    marking = [((f"e{k+1}", 1), ("e1", -1)) for k in range(1, rank + 1)]
    comarking = {"e1": Word(rank)}
    for k in range(1, rank + 1):
        comarking[f"e{k+1}"] = Word(rank, (k,))
    return MarkedGraph(rank, edges, "u", marking, frozenset({"e1"}), comarking)
