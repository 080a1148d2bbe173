"""Independent cross-checks for the test suite.

Everything here is reimplemented from scratch on plain ints, tuples and
floats: brute enumeration, grid search, Newton iteration.  Nothing imports
from outerspine, so a package bug cannot hide behind a shared helper.
Letters are signed integers (1 = a, -1 = a inverse).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# --- free words -------------------------------------------------------------------


def o_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def o_invert(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def o_cyclic_reduce(letters) -> tuple[int, ...]:
    w = list(o_reduce(letters))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def o_class_key(letters) -> tuple[int, ...]:
    """Canonical form of a conjugacy class up to inversion.

    Least rotation of the cyclic reduction or of its inverse, in plain
    tuple order.
    """
    w = o_cyclic_reduce(letters)
    if not w:
        return ()
    best = None
    for rep in (w, o_invert(w)):
        for i in range(len(rep)):
            rot = rep[i:] + rep[:i]
            if best is None or rot < best:
                best = rot
    return best


def o_spelling_rep(letters) -> tuple[int, ...]:
    """Preferred spelling of a conjugacy class up to inversion.

    Least rotation of the cyclic reduction or of its inverse in printed
    order (a < a' < b < b' < ...), returned as raw letters.
    """
    w = o_cyclic_reduce(letters)
    if not w:
        return ()

    def spelled(rot):
        return tuple(2 * abs(x) + (x < 0) for x in rot)

    rotations = [rep[i:] + rep[:i] for rep in (w, o_invert(w)) for i in range(len(rep))]
    return min(rotations, key=spelled)


def reduced_words(rank: int, max_len: int):
    """All nonempty freely reduced words of length <= max_len."""
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in alphabet:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        yield from nxt
        frontier = nxt


def conjugacy_classes(rank: int, max_len: int) -> list[tuple[int, ...]]:
    """One representative per nontrivial class with a cyclic word of
    length <= max_len, up to inversion."""
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for w in reduced_words(rank, max_len):
        if o_cyclic_reduce(w) != w:
            continue
        key = o_class_key(w)
        if key and key not in seen:
            seen.add(key)
            out.append(key)
    return out


# --- Whitehead length descent -----------------------------------------------------


def _whitehead_tables(rank: int):
    """Image tables of the second-kind Whitehead automorphisms (a, A)."""
    tables = []
    for a in [s * k for k in range(1, rank + 1) for s in (1, -1)]:
        rest = [k for k in range(1, rank + 1) if k != abs(a)]
        for picks in itertools.product(range(4), repeat=len(rest)):
            table = {abs(a): (abs(a),)}
            for k, pick in zip(rest, picks):
                if pick == 0:
                    table[k] = (k,)
                elif pick == 1:  # k in A
                    table[k] = (k, a)
                elif pick == 2:  # k^-1 in A
                    table[k] = (-a, k)
                else:  # both
                    table[k] = (-a, k, a)
            tables.append(table)
    return tables


def _apply_table(table, letters):
    out: list[int] = []
    for x in letters:
        img = table[abs(x)]
        out.extend(img if x > 0 else o_invert(img))
    return o_reduce(out)


def whitehead_min_length(letters, rank: int) -> int:
    """Minimal cyclic length in the automorphism orbit.

    Greedy strictly-decreasing descent through Whitehead moves; peak
    reduction guarantees this reaches the true minimum.
    """
    tables = _whitehead_tables(rank)
    w = o_cyclic_reduce(letters)
    while True:
        best = w
        for t in tables:
            img = o_cyclic_reduce(_apply_table(t, w))
            if len(img) < len(best):
                best = img
        if len(best) == len(w):
            return len(w)
        w = best


# --- polynomial roots and matrix growth -------------------------------------------


def newton_root(coeffs, x0: float, iters: int = 80) -> float:
    """Real root of the polynomial with the given coefficients, highest
    degree first, from the starting guess."""
    deriv = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]

    def ev(cs, x):
        acc = 0.0
        for c in cs:
            acc = acc * x + c
        return acc

    x = x0
    for _ in range(iters):
        fx = ev(coeffs, x)
        dfx = ev(deriv, x)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-15:
            break
    return x


def matrix_growth_rate(rows, k: int) -> float:
    """Perron eigenvalue estimate of a nonnegative integer matrix by k
    steps of power iteration in exact arithmetic."""
    n = len(rows)
    v = [1] * n
    prev = sum(v)
    rate = 0.0
    for _ in range(k):
        v = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
        cur = sum(v)
        rate = cur / prev
        prev = cur
    return rate


# --- grid search over a spine simplex ---------------------------------------------


def grid_lp_min(objective, cycles, eps: float, step: Fraction):
    """Brute minimum of objective . x over the volume-one simplex meeting
    every cycle constraint, on the lattice of the given step.

    objective: per-edge coefficients; cycles: 0/1/2 edge-count vectors,
    each row requiring row . x >= eps.  Returns (value, lengths) or None
    when no lattice point is feasible.
    """
    m = len(objective)
    n = int(1 / step)
    assert step * n == 1
    best = None
    for parts in _compositions(n, m):
        x = [Fraction(p, n) for p in parts]
        if any(sum(c[i] * x[i] for i in range(m)) < eps for c in cycles):
            continue
        val = sum(objective[i] * float(x[i]) for i in range(m))
        if best is None or val < best[0]:
            best = (val, x)
    return best


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# --- bare translation length on a rose --------------------------------------------


def rose_length(lengths, letters) -> float:
    """Cyclic length of a word on a rose: sum petal lengths along the
    cyclic reduction.  Independent of the package's crossing machinery."""
    return sum(lengths[abs(x) - 1] for x in o_cyclic_reduce(letters))
