"""Write the generated workload inputs at their fixed relative paths.

Run from the repository root with ``src`` on ``PYTHONPATH``.  The paths are
fixed because every ``--json`` output embeds its input paths, and the
recorded digests cover those bytes.

``mu6.json`` and ``nu6.json`` hold the k=6 iwip pair of the bundled
tribonacci automorphism, as ``outerspine iwip --k 6`` computes it.
``center.json`` is the off-axis centre of ``ball-cold``: the minimizer
nearest s=0 on the axis of that pair from -1 to 1, moved by the cube of the
twist pair a -> ab, b -> ba.
"""

import os

from outerspine import (
    Automorphism,
    NielsenMove,
    axis,
    iwip_pair_approx,
    jsonio,
    parse_word,
    power,
    transform,
)

from spec import CENTER, EPS, MU, NU, PHI, WORK

TWIST_PAIR = Automorphism.from_moves(3, [
    NielsenMove("right_multiply", 1, 2, False),
    NielsenMove("right_multiply", 2, 1, False),
])


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    pair = iwip_pair_approx(jsonio.load_automorphism(PHI), parse_word("a", 3), 6)
    jsonio.dump_current(pair.forward, MU)
    jsonio.dump_current(pair.backward, NU)
    ax = axis(pair.forward, pair.backward, -1.0, 1.0, 0.5, EPS)
    x0 = ax.samples[ax.nearest_index(0.0)][1]
    jsonio.dump_graph(transform(x0, power(TWIST_PAIR, 3)), CENTER)


if __name__ == "__main__":
    main()
