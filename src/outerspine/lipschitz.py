"""The Lipschitz metric on the spine, computed through candidate loops.

The minimal Lipschitz constant of a marked homotopy equivalence X -> Y
equals the largest ratio translation_length(Y, w) / length_X(gamma) over
the candidates gamma of X; d_L is its log and d_sym symmetrizes.  No
optimal map is ever constructed; the witness candidate doubles as the cycle
of maximal dilatation wherever the diagnostics need one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import MarkedGraph, candidates, translation_length
from .words import Word


@dataclass(frozen=True)
class StretchReport:
    factor: float
    witness: Word
    per_candidate: tuple[tuple[Word, float], ...]


def stretch(x: MarkedGraph, y: MarkedGraph) -> StretchReport:
    """Maximal stretch of candidate loops of ``x`` measured in ``y``.

    Ties are broken by canonical word order (length, then letters), which
    candidates() already sorts by, so the witness is deterministic.
    """
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    per = []
    best: tuple[float, Word] | None = None
    for loop, word in candidates(x):
        ratio = translation_length(y, word)[0] / loop.length
        per.append((word, ratio))
        if best is None or ratio > best[0]:
            best = (ratio, word)
    assert best is not None
    return StretchReport(best[0], best[1], tuple(per))


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
    return math.log(stretch(x, y).factor)


def d_sym(x: MarkedGraph, y: MarkedGraph) -> float:
    """Symmetrized distance d_L(x, y) + d_L(y, x)."""
    return d_L(x, y) + d_L(y, x)


def sigma_scale(x: MarkedGraph, t: MarkedGraph) -> float:
    """The b > 0 with b*t in Sigma(x): stretch exactly one from x.

    Scale-covariant, so no volume requirement.
    """
    return 1.0 / stretch(x, t).factor
