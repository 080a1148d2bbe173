"""The Lipschitz metric on the spine, computed through candidate loops.

The minimal Lipschitz constant of a marked homotopy equivalence X -> Y
equals the largest ratio translation_length(Y, w) / length_X(gamma) over
the candidates gamma of X (Francaviglia and Martino 2011); d_L is its log
and d_sym symmetrizes.  The candidates are paths of X's unmarked graph,
enumerated once per graph.  A pair is measured through the change of
marking: each edge of X goes once to its tightened path in Y, and a
candidate's loop in Y is its edges' images, cyclically tightened.  Only
``stretch``'s report builds the candidates' words.  No optimal map is ever
constructed; the witness candidate doubles as the cycle of maximal
dilatation wherever the diagnostics need one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import MarkedGraph, _crossings, _Paths, _reverse, _tight_loop, _weigh
from .words import Word


class StretchReport(NamedTuple):
    factor: float
    witness: Word
    per_candidate: tuple[tuple[Word, float], ...]


def _ratios(x: MarkedGraph, y: MarkedGraph) -> list[float]:
    """The stretch in ``y`` of each candidate path of ``x``, in the order
    of x's graph.

    Edge e of x goes to ``y.path_of`` the word x's comarking reads along
    it.  A candidate's images, concatenated and cyclically tightened, are
    the loop ``loop_of`` gives for the candidate's word up to rotation and
    reversal, so its crossing counts, and its length summed in edge order,
    are the same.  Each candidate's length in x is summed in edge order
    too, from its crossing counts, so that when y = x every ratio is
    exactly one; such a pair is therefore not measured, and a far point
    is at distance 0 from itself without its long paths being built.
    """
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    cands = x._topo.graph.candidates
    dens = [_weigh(counts, x.edges) for _, _, counts in cands]
    if 0 in dens:
        raise ValueError("a candidate loop of the source graph has length 0")
    if x == y:
        return [1.0] * len(dens)
    images = {}
    for e in x.edges:
        path = y.path_of(x.comarking_word(e.id))
        images[e.id, 1], images[e.id, -1] = path, _reverse(path)
    images = _Paths(images)
    index = y._topo.index
    return [
        _weigh(_crossings(_tight_loop(images, path), index), y.edges) / den
        for (path, _, _), den in zip(cands, dens)
    ]


def stretch(x: MarkedGraph, y: MarkedGraph) -> StretchReport:
    """Maximal stretch of candidate loops of ``x`` measured in ``y``.

    Ties are broken by canonical word order (length, then letters), which
    candidates() already sorts by, so the witness is deterministic.
    """
    ratios = _ratios(x, y)
    per = tuple((word, ratios[i]) for i, word in x._topo.candidates)
    witness, factor = max(per, key=lambda p: p[1])
    return StretchReport(factor, witness, per)


def _require_spine_volume(g: MarkedGraph, name: str) -> None:
    if abs(g.volume - 1.0) > 1e-12:
        raise ValueError(
            f"{name} must be volume-normalized (volume {g.volume!r}); "
            "call normalize_volume first"
        )


def d_L(x: MarkedGraph, y: MarkedGraph) -> float:
    """Non-symmetric Lipschitz distance log(stretch(x, y)).

    Both inputs must have volume one (the spine-point contract), which
    makes the value nonnegative.
    """
    _require_spine_volume(x, "x")
    _require_spine_volume(y, "y")
    return math.log(max(_ratios(x, y)))


def d_sym(x: MarkedGraph, y: MarkedGraph) -> float:
    """Symmetrized distance d_L(x, y) + d_L(y, x)."""
    return d_L(x, y) + d_L(y, x)


def sigma_scale(x: MarkedGraph, t: MarkedGraph) -> float:
    """The b > 0 with b*t in Sigma(x): stretch exactly one from x.

    Scale-covariant, so no volume requirement.
    """
    return 1.0 / max(_ratios(x, t))
