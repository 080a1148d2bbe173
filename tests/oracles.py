"""Independent cross-checks for the test suite.

Everything here is reimplemented from scratch on plain ints, tuples and
floats: brute enumeration, grid search, Newton iteration.  Nothing else
imports from outerspine, so a package bug cannot hide behind a shared
helper.  The exceptions drive the package to check a shortcut against the
plain procedure it replaced: ``o_lex_least_point`` solves on the simplex,
which shares no code with the vertex enumeration; ``o_minimize`` builds
a graph for every point it looks at; ``o_repair`` finds the repair blend's
exact spine crossing in Fractions over ``o_cycle_rows``; ``o_axis`` walks
the grid middle-out by index with ``minimize``, as ``axis`` did before it
walked two lists; ``o_bfs_tree`` grows the graph-file loader's spanning
tree on its own adjacency list; ``o_candidates``
keeps one candidate path per class by its word, and ``o_stretch``
measures each candidate's word with ``translation_length`` and divides by
its loop's length summed in edge order;
``o_scale``, ``o_add`` and ``o_exp_combination`` rebuild every atom as a
checked ``Word`` and put it in canonical form again, as the current
operations did before they trusted their atoms; ``o_max_run`` measures
the Hausdorff distance of every pair of ray prefixes from scratch with
``d_sym``; ``crossing_vector`` counts the edges of the tight loop
``translation_length`` returns.  Letters are signed integers (1 = a,
-1 = a inverse).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from outerspine.currents import RationalCurrent, exp_combination
from outerspine.graphs import (
    LoopPath,
    _connecting_arcs,
    _path_vertices,
    _reverse,
    _rotate_to,
    collapse_zero_edges,
    expansions,
    in_spine,
    transform,
    translation_length,
)
from outerspine.lipschitz import d_sym
from outerspine.minima import (
    InfeasibleSpine,
    MinResult,
    max_systole_lengths,
    min_on_topology,
    minimize,
)
from outerspine.simplex import solve_lp
from outerspine.words import Word, canonical_representative, elementary_automorphisms, spelling_key


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


def o_tighten(path) -> tuple:
    """An oriented edge path with each step that undoes the one before it
    deleted, step by step."""
    p: list = []
    for step in path:
        if p and p[-1][0] == step[0] and p[-1][1] == -step[1]:
            p.pop()
        else:
            p.append(step)
    return tuple(p)


def o_cyclic_tighten(path) -> tuple:
    """An oriented edge path, tightened, then trimmed one matching end pair
    at a time (quadratic in the trimmed length)."""
    p = o_tighten(path)
    while len(p) >= 2 and p[0][0] == p[-1][0] and p[0][1] == -p[-1][1]:
        p = p[1:-1]
    return tuple(p)


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


# --- vertices of a spine simplex ---------------------------------------------------


def o_cycle_rows(edges) -> list[tuple[int, ...]]:
    """0/1 rows of the embedded cycles of a graph given as (u, v) pairs:
    every nonempty edge subset that is connected and 2-regular."""
    rows = []
    for mask in range(1, 1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        degree: dict = {}
        for u, v in chosen:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        reached = {chosen[0][0]}
        grew = True
        while grew:
            grew = False
            for u, v in chosen:
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        if len(reached) == len(degree):
            rows.append(tuple(mask >> i & 1 for i in range(len(edges))))
    return rows


def _o_solve(matrix, rhs):
    """Unique solution of a square Fraction system, or None if singular."""
    m = len(matrix)
    aug = [[Fraction(a) for a in r] + [Fraction(b)] for r, b in zip(matrix, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][m] / aug[r][r] for r in range(m))


def o_region_vertices(n: int, rows, eps: Fraction) -> set[tuple[Fraction, ...]]:
    """Vertices of {x >= 0, sum x = 1, row . x >= eps} by brute force: every
    choice of n - 1 inequalities held tight, with the volume row, whose
    unique solution is feasible."""
    ineqs = [(tuple(int(i == j) for i in range(n)), Fraction(0)) for j in range(n)]
    ineqs += [(tuple(row), eps) for row in rows]
    found = set()
    for tight in combinations(ineqs, n - 1):
        x = _o_solve([(1,) * n] + [a for a, _ in tight], [Fraction(1)] + [b for _, b in tight])
        if x is not None and all(
            sum(a[i] * x[i] for i in range(n)) >= b for a, b in ineqs
        ):
            found.add(x)
    return found


def o_lex_least_point(c, a_eq, b_eq, a_ge, b_ge) -> tuple[Fraction, ...]:
    """The lexicographically least optimal point of the LP, by pinning:
    solve it, then minimize each variable in index order with the objective
    and every earlier variable fixed at its minimum.  Raises as ``solve_lp``
    does."""
    value = solve_lp(c, a_eq, b_eq, a_ge, b_ge).value
    a_eq, b_eq = [*a_eq, c], [*b_eq, value]
    for col in range(len(c)):
        unit = [int(i == col) for i in range(len(c))]
        x = solve_lp(unit, a_eq, b_eq, a_ge, b_ge).x
        a_eq, b_eq = [*a_eq, unit], [*b_eq, x[col]]
    return x


# --- candidate loops and the stretch, one word per candidate --------------------


def o_candidates(g) -> list:
    """``candidates`` with one path kept per class by its word: each shape
    is read along the comarking and put in ``canonical_representative``
    form, the first path of each word is kept, and the list is sorted by
    word length, then spelling.  Lengths are summed in path order."""
    t = g._topo.graph
    found: dict[tuple[int, ...], tuple] = {}

    def emit(path):
        word = canonical_representative(g.word_along(path))
        assert word, "candidate loop is null homotopic"
        found.setdefault(word.letters, (path, word))

    circles = [path for path, _ in t.cycles]
    verts = [set(_path_vertices(p, t)[:-1]) for p in circles]
    eids = [{e for e, _ in p} for p in circles]
    for p in circles:
        emit(p)
    for i, j in combinations(range(len(circles)), 2):
        if eids[i] & eids[j]:
            continue
        common = verts[i] & verts[j]
        if len(common) == 1:
            v = min(common)
            a, b = _rotate_to(circles[i], v, t), _rotate_to(circles[j], v, t)
            emit(a + b)
            emit(a + _reverse(b))
        elif not common:
            for arc in _connecting_arcs(t, verts[i], verts[j]):
                ends = _path_vertices(arc, t)
                a, b = _rotate_to(circles[i], ends[0], t), _rotate_to(circles[j], ends[-1], t)
                emit(a + arc + b + _reverse(arc))
                emit(a + arc + _reverse(b) + _reverse(arc))
    lengths = {e.id: e.length for e in g.edges}
    out = [
        (LoopPath(path, sum(lengths[e] for e, _ in path)), word)
        for path, word in found.values()
    ]
    return sorted(out, key=lambda c: (len(c[1]), spelling_key(c[1])))


def crossing_vector(g, w) -> dict[str, int]:
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


def o_marking_reads_back(g) -> bool:
    """Whether each of ``g``'s ``rank`` marking paths is a loop at the
    basepoint along which the comarking letters reduce to its generator
    ``(k,)``, read step by step off ``g.edge`` and ``g.comarking_word``."""
    if len(g.marking) != g.rank:
        return False
    for k, path in enumerate(g.marking, start=1):
        cur, letters = g.basepoint, []
        for eid, s in path:
            e = g.edge(eid)
            src, dst = (e.src, e.dst) if s > 0 else (e.dst, e.src)
            if src != cur:
                return False
            cur = dst
            w = g.comarking_word(eid).letters
            letters.extend(w if s > 0 else o_invert(w))
        if cur != g.basepoint or o_reduce(letters) != (k,):
            return False
    return True


def o_stretch(x, y) -> tuple:
    """``stretch`` by words: (factor, witness, per_candidate), each of
    ``o_candidates(x)``'s words measured in ``y`` by ``translation_length``
    and divided by its loop's length in ``x``, summed in edge order as the
    numerator is; the first largest ratio in word order is the witness."""
    per = []
    best = None
    for loop, word in o_candidates(x):
        ids = loop.edge_ids()
        den = sum(ids.count(e.id) * e.length for e in x.edges if e.id in ids)
        ratio = translation_length(y, word)[0] / den
        per.append((word, ratio))
        if best is None or ratio > best[0]:
            best = (ratio, word)
    return best[0], best[1], tuple(per)


# --- the descent and the spine repair, one graph per point ----------------------


def o_minimize(current, eps: float, start, budget: int = 600) -> MinResult:
    """``minimize`` with every neighbour built: the collapsed carrier, each
    expansion (``expansions``) and each translate (``transform``) is a
    whole graph probed through ``min_on_topology``.  The reference for
    the descent's read-offs on the carrier, expansions and translates
    alike.  Same order, ``seen`` set, budget and tie-break."""
    if not in_spine(start, eps):
        raise ValueError("start point is outside the epsilon-spine")
    gens = elementary_automorphisms(start.rank)
    here = min_on_topology(start, current, eps)
    value, point = here.value, here.point
    probes, accepted, exhausted = 1, 1, False
    seen = {start._topo.key}

    def zeros(g):
        return [e.id for e in g.edges if e.length == 0.0 and e.src != e.dst]

    while not exhausted:
        carrier = collapse_zero_edges(point) if zeros(point) else point
        neighbors = [carrier] if zeros(point) else []
        for v in carrier.vertices:
            if carrier.valence(v) >= 4:
                neighbors.extend(expansions(carrier, v))
        neighbors.extend(transform(carrier, psi) for psi in gens)
        moves = []
        for nb in neighbors:
            if nb._topo.key in seen:
                continue
            seen.add(nb._topo.key)
            if probes >= budget:
                exhausted = True
                break
            try:
                moves.append(min_on_topology(nb, current, eps))
            except InfeasibleSpine:
                continue
            probes += 1
        best = min(moves, key=lambda r: (r.value, r.point.key()), default=None)
        if best is None or best.value >= value - 1e-9:
            break
        value, point = best.value, best.point
        accepted += 1
    if zeros(point):
        point = min_on_topology(collapse_zero_edges(point), current, eps).point
    return MinResult(point, value, accepted, eps, exhausted)


def o_axis(mu, nu, s_min: float, s_max: float, step: float, eps: float, start, budget: int = 600):
    """``axis``'s samples by its former middle-out loop over grid indices:
    the point nearest s = 0 from ``start``, the points above it each from
    the one below, then the points below it each from the one above."""
    grid = []
    i = 0
    while s_min + i * step <= s_max + 1e-9:
        grid.append(s_min + i * step)
        i += 1
    mid = min(range(len(grid)), key=lambda i: (abs(grid[i]), i))
    found = {}
    point = start
    for i in range(mid, len(grid)):
        res = minimize(exp_combination(mu, nu, grid[i]), eps, point, budget)
        found[i] = (grid[i], res.point, res.value)
        point = res.point
    point = found[mid][1]
    for i in range(mid - 1, -1, -1):
        res = minimize(exp_combination(mu, nu, grid[i]), eps, point, budget)
        found[i] = (grid[i], res.point, res.value)
        point = res.point
    return tuple(found[i] for i in range(len(grid)))


def o_repair(g, eps: float):
    """``repair``'s point, exactly: with b the point's lengths and a its
    systole-maximal target, the lengths (1 - t) b + t a, as Fractions, at
    the least t at which every embedded cycle (``o_cycle_rows``) has length
    at least eps."""
    _, target = max_systole_lengths(g)
    b = [Fraction(e.length) for e in g.edges]
    a = [Fraction(target[i]) for i in range(len(g.edges))]
    eps = Fraction(eps)
    t = Fraction(0)
    for row in o_cycle_rows([(e.src, e.dst) for e in g.edges]):
        here = sum(x for x, r in zip(b, row) if r)
        there = sum(x for x, r in zip(a, row) if r)
        if here < eps:
            t = max(t, (eps - here) / (there - here))
    return {e.id: (1 - t) * x + t * y for e, x, y in zip(g.edges, b, a)}


# --- the graph-file loader's spanning tree ---------------------------------------


def o_bfs_tree(edges, base: str) -> tuple[set[str], set[str]]:
    """The first-edge-by-id breadth-first tree from ``base``, level by
    level over an adjacency list of sorted (edge id, far end) pairs: its
    edge ids and the vertices it reaches."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for e in sorted(edges, key=lambda e: e.id):
        adj.setdefault(e.src, []).append((e.id, e.dst))
        adj.setdefault(e.dst, []).append((e.id, e.src))
    for v in adj:
        adj[v].sort()
    seen = {base}
    tree: set[str] = set()
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for eid, u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    tree.add(eid)
                    nxt.append(u)
        frontier = nxt
    return tree, seen


# --- current operations, each atom re-canonicalized ------------------------------


def o_scale(nu, t: float):
    if t <= 0:
        raise ValueError(f"scale must be positive, got {t}")
    return RationalCurrent(nu.rank, [(Word(nu.rank, ls), w * t) for ls, w in nu.atoms])


def o_add(mu, nu):
    if mu.rank != nu.rank:
        raise ValueError("rank mismatch")
    return RationalCurrent(mu.rank, [(Word(mu.rank, ls), w) for ls, w in mu.atoms + nu.atoms])


def o_exp_combination(mu, nu, s: float):
    return o_add(o_scale(mu, math.exp(s)), o_scale(nu, math.exp(-s)))


# --- the overlap of two rays, every prefix from scratch --------------------------


def o_max_run(ra, rb, step: float, c: float) -> float:
    """The longest run [0, t] of prefixes of the rays ``ra`` and ``rb``
    within sampled Hausdorff distance 2c, each prefix's distance computed
    anew, a point at distance 0 from itself."""

    def d(p, q):
        return 0.0 if p.key() == q.key() else d_sym(p, q)

    def hausdorff(ps, qs):
        h = 0.0
        for p in ps:
            h = max(h, min(d(p, q) for q in qs))
        for q in qs:
            h = max(h, min(d(q, p) for p in ps))
        return h

    best = -1
    for j in range(min(len(ra), len(rb))):
        if hausdorff(ra[: j + 1], rb[: j + 1]) <= 2 * c:
            best = j
        else:
            break
    return best * step if best >= 0 else 0.0
