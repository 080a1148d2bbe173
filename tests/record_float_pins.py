"""Record ``float_pins.json``: exact float outputs on multi-vertex graphs.

The fixture holds, as ``repr`` strings, the edge lengths, systole, embedded
cycle lengths, candidate loop lengths and candidate translation lengths of
seeded spine points with at least two vertices, and ``d_sym`` between
consecutive ones.  A float sum of three or more terms depends on its order,
and rose points (where every loop sum has at most two distinct terms) cannot
see that, so these graphs pin the summation order of the length code.

``test_graphs.TestFloatPins`` compares ``float_pins()`` with the fixture
exactly.  Re-record only for a change that is meant to move these numbers,
such as a new sampler or a new summation order, and say why in CHANGES.md:

    PYTHONPATH=src python tests/record_float_pins.py
"""

import json
import os

from outerspine import candidates, embedded_cycles, systole, translation_length
from outerspine.lipschitz import d_sym
from outerspine.sampling import spine_points

FIXTURE = os.path.join(os.path.dirname(__file__), "float_pins.json")
SEED, DRAWN, KEPT = 0, 16, 8


def pin_points() -> list:
    """The first KEPT multi-vertex points of one seeded spine sample."""
    return [p for p in spine_points(3, 0.05, SEED, DRAWN) if len(p.vertices) >= 2][:KEPT]


def float_pins() -> dict:
    pts = pin_points()
    graphs = []
    for g in pts:
        graphs.append({
            "lengths": [repr(e.length) for e in g.edges],
            "systole": repr(systole(g)[0]),
            "cycles": [repr(c.length) for c in embedded_cycles(g)],
            "candidates": [repr(loop.length) for loop, _ in candidates(g)],
            "translation": [repr(translation_length(g, w)[0]) for _, w in candidates(g)],
        })
    d = [repr(d_sym(a, b)) for a, b in zip(pts, pts[1:])]
    return {"seed": SEED, "drawn": DRAWN, "graphs": graphs, "d_sym": d}


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(float_pins(), fh, indent=1)
        fh.write("\n")
