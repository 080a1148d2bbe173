"""Graph builders, a reader of their cycle rows and an enumerator of their
bare splits, that only the tests use."""

from typing import Sequence

from outerspine.graphs import Edge, MarkedGraph, _fresh_names, _partitions, _split_parts


def parallel_graph(lengths: Sequence[float]) -> MarkedGraph:
    """Two vertices joined by parallel edges (rank = len(lengths) - 1).

    Marking: generator k runs along edge k+1 and back along edge 1.
    """
    m = len(lengths)
    rank = m - 1
    edges = [Edge(f"e{i+1}", "u", "w", float(lengths[i])) for i in range(m)]
    marking = [((f"e{k+1}", 1), ("e1", -1)) for k in range(1, rank + 1)]
    return MarkedGraph(rank, edges, "u", marking)


def cycle_rows(g: MarkedGraph) -> list[tuple[int, ...]]:
    """The 0/1 row of each embedded cycle over ``g``'s edges, in
    ``embedded_cycles`` order: the rows ``certificate`` poses."""
    n = len(g.edges)
    return [tuple(m >> i & 1 for i in range(n)) for m in g._topo.graph.masks]


def bare_splits(g: MarkedGraph):
    """(vertex, moved ends, shape (id, src, dst) in id order, marking, the
    fresh edge's index) of every splitting of every vertex of valence at
    least 4, in ``expansions`` order, with no graph built."""
    new_v, new_e = _fresh_names(g)
    for v in g.vertices:
        if g.valence(v) >= 4:
            for moved in _partitions(g, v):
                shape, marking = _split_parts(g, v, new_v, new_e, moved)
                yield v, moved, shape, marking, [eid for eid, _, _ in shape].index(new_e)
