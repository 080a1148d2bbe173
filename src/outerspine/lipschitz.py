"""The Lipschitz metric on the spine, computed through candidate loops.

The minimal Lipschitz constant of a marked homotopy equivalence X -> Y
equals the largest ratio translation_length(Y, w) / length_X(gamma) over
the candidates gamma of X (Francaviglia and Martino 2011); d_L is its log
and d_sym symmetrizes.  The candidates are paths of X's unmarked graph,
enumerated once per graph.  A pair is measured through the change of
marking: each edge of X goes once to its tightened path in Y, built with
its crossing counts, and a candidate's loop in Y is its edges' images,
cyclically tightened.  That loop is never built: its crossing counts are
its images' counts less two for each step that cancels, and each image
being tight, steps cancel only where images meet and across the cyclic
seam (``_loop_counts``).  Only ``stretch``'s report builds the
candidates' words.  No optimal map is ever constructed; the witness
candidate doubles as the cycle of maximal dilatation wherever the
diagnostics need one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import MarkedGraph, _crossings, _weigh
from .words import Word


class StretchReport(NamedTuple):
    factor: float
    witness: Word
    per_candidate: tuple[tuple[Word, float], ...]


def _ratios(x: MarkedGraph, y: MarkedGraph) -> list[float]:
    """The stretch in ``y`` of each candidate path of ``x``, in the order
    of x's graph.

    Edge e of x goes to ``y.path_of`` the word x's comarking reads along
    it, built once with its crossing counts.  A candidate's images,
    concatenated and cyclically tightened, are the loop ``loop_of`` gives
    for the candidate's word up to rotation and reversal, so its crossing
    counts, and its length summed in edge order, are the same; they are
    read off the images' counts with no loop built (``_loop_counts``).
    Each candidate's length in x is summed in edge order too, from its
    crossing counts, so that when y = x every ratio is exactly one; such a
    pair is therefore not measured, and a far point is at distance 0 from
    itself without its long paths being built.
    """
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    cands = x._topo.graph.candidates
    dens = [_weigh(counts, x.edges) for _, _, counts in cands]
    if 0 in dens:
        raise ValueError("a candidate loop of the source graph has length 0")
    if x == y:
        return [1.0] * len(dens)
    index = y._topo.index
    images = {}
    for e in x.edges:
        path = y.path_of(x.comarking_word(e.id))
        images[e.id] = path, _crossings(path, index)
    return [
        _weigh(_loop_counts(images, path, index), y.edges) / den
        for (path, _, _), den in zip(cands, dens)
    ]


def _loop_counts(images: dict, path, index: dict[str, int]) -> list[int]:
    """The crossing counts, in y's edge order, of the cyclically tightened
    concatenation of the images of ``path``'s steps, with none of it built.

    ``images`` holds each edge's tight image in y and its crossing counts.
    The concatenation crosses each edge as often as its pieces do, less two
    for every step that cancels; each piece is tight, so steps cancel only
    where pieces meet, and then across the cyclic seam.  A piece is a range
    of its edge's image, [image, direction, first, last]: the indices of
    the steps it reads first and last, walked by ``direction``, which is -1
    when the step of ``path`` runs against the edge, so that each step is
    read reversed.  The stack holds the pieces of the tightened path so
    far: a new piece's first step cancels against the top's last until one
    of them is used up or the two differ.  The seam then cancels the first
    piece's first step against the last piece's last step the same way.
    """
    counts = list(map(sum, zip(*(images[eid][1] for eid, _ in path))))
    stack: list[list] = []
    for eid, d in path:
        image = images[eid][0]
        first, last = (0, len(image) - 1) if d > 0 else (len(image) - 1, 0)
        while stack and (last - first) * d >= 0:
            top = stack[-1]
            t_image, t_d, _, t_last = top
            (a, sa), (b, sb) = t_image[t_last], image[first]
            if a != b or sa * t_d != -sb * d:
                break
            counts[index[a]] -= 2
            top[3] -= t_d
            first += d
            if (top[3] - top[2]) * t_d < 0:
                stack.pop()
        if (last - first) * d >= 0:
            stack.append([image, d, first, last])
    lo = 0
    while lo < len(stack):
        head, tail = stack[lo], stack[-1]
        h_image, h_d, h_first, _ = head
        t_image, t_d, _, t_last = tail
        if head is tail and h_first == t_last:
            break
        (a, sa), (b, sb) = h_image[h_first], t_image[t_last]
        if a != b or sa * h_d != -sb * t_d:
            break
        counts[index[a]] -= 2
        head[2] += h_d
        tail[3] -= t_d
        if (tail[3] - tail[2]) * t_d < 0:
            stack.pop()
        if lo < len(stack) and (head[3] - head[2]) * h_d < 0:
            lo += 1
    return counts


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
