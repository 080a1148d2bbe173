"""Fixed stdlib reference kernel for drift-corrected wall time.

It imports nothing from outerspine.  Its work mixes the program's two hot
operations: exact ``Fraction`` row reduction (the simplex layer) and tuple
slicing and concatenation (word rotation in the words layer).

``During`` runs it over and over in a thread for as long as a CLI call
runs, and ``wall_rel`` divides the call's wall time by the kernel's mean
time over those repetitions: the machine's speed over the same seconds as
the call, which cancels both its drift over minutes and its swings within
a call (README.md has the data).  The median of those means over a run
scales ``setup_s`` to ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

# The kernel's time beside a call on the machine the benchmark was tuned on
# (2-vCPU KVM guest, Intel Xeon, Python 3.11.7: 90% of the means within
# 36-49 ms, median of run medians 44 ms).  setup_s is reported in seconds on
# a host where the kernel takes this long.
NOMINAL_S = 0.044

N = 16
ROTATE_LETTERS = 4000
ROTATE_STRIDE = 5


def kernel() -> tuple[Fraction, int]:
    """Gauss-Jordan on a fixed N x (N+1) rational system, then rotations."""
    m = [
        [Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(N + 1)]
        for i in range(N)
    ]
    for c in range(N):
        piv = next(r for r in range(c, N) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for r in range(N):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    w = tuple(range(ROTATE_LETTERS))
    best = w
    for k in range(0, ROTATE_LETTERS, ROTATE_STRIDE):
        rot = w[k:] + w[:k]
        if rot < best:
            best = rot
    return sum(row[N] for row in m), best[0] + len(best)


def seconds() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class During:
    """Repeat the kernel in a thread while the ``with`` block runs.

    ``mean()`` is the mean time of one kernel run over the block; the
    kernel runs at least once.  The thread is joined on every way out of
    the block.
    """

    def __enter__(self) -> During:
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while True:
            self.times.append(seconds())
            if self._stop.is_set():
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean(self) -> float:
        return statistics.fmean(self.times)
