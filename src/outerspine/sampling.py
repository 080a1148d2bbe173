"""Seeded samplers over the epsilon-spine.

Every "for all points" clause in the diagnostics quantifies over samples
drawn here.  All draws are driven by an explicit seed so reports can name
the exact configuration that reproduces them.

Spine repair blends a length vector toward the topology's systole-maximal
lengths: the systole is a minimum of linear functions of the lengths, hence
concave, so the spine condition cuts out a convex set of length vectors and
the blend crosses its boundary exactly once (bisection finds the crossing,
testing each blend with the same shortest-cycle reader as ``in_spine``).
Balanced points draw no lengths: they are read off spine region vertices.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .currents import RationalCurrent
from .graphs import (
    MarkedGraph,
    _fresh_names,
    _partitions,
    _split,
    collapse_edge,
    in_spine,
    normalize_volume,
    transform,
    unit_rose,
    with_lengths,
)
from .lipschitz import d_sym
from .minima import balanced_lengths, max_systole_lengths
from .words import Automorphism, NielsenMove

# spine_points: twists per rose marking (markings stay short) and the
# lognormal length jitter
_TWIST_MOVES, _JITTER_SCALE = 4, 0.6


class SampleError(RuntimeError):
    """The sampler could not produce a point meeting its constraints."""


def repair(g: MarkedGraph, eps: float) -> MarkedGraph:
    """Pull a volume-one point back into the spine along a blend.

    Each bisection step tests the blend's lengths with ``in_spine``'s
    shortest-cycle reader, with no graph built per step."""
    if in_spine(g, eps):
        return g
    best, target = max_systole_lengths(g)
    if best < eps:
        raise SampleError(
            f"topology cannot reach systole {eps} (best {best:.6g})"
        )
    base = [e.length for e in g.edges]
    goal = [target[e.id] for e in g.edges]
    shortest = g._topo.graph.shortest_cycle

    def at(t: float) -> list[float]:
        return [(1 - t) * b + t * a for b, a in zip(base, goal)]

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if shortest(at(mid)) >= eps - 1e-9:
            hi = mid
        else:
            lo = mid
    return with_lengths(g, {e.id: v for e, v in zip(g.edges, at(hi))})


def jitter(g: MarkedGraph, rng: random.Random, scale: float, eps: float) -> MarkedGraph:
    """Multiply lengths by independent lognormal factors, then repair."""
    lengths = {e.id: e.length * math.exp(scale * rng.gauss(0, 1)) for e in g.edges}
    total = sum(lengths.values())
    return repair(with_lengths(g, {k: v / total for k, v in lengths.items()}), eps)


def random_move(rng: random.Random, rank: int) -> NielsenMove:
    r = rng.random()
    if r < 0.7:
        t = rng.randrange(1, rank + 1)
        o = rng.choice([k for k in range(1, rank + 1) if k != t])
        return NielsenMove("right_multiply", t, o, rng.random() < 0.5)
    if r < 0.85:
        t = rng.randrange(1, rank + 1)
        o = rng.choice([k for k in range(1, rank + 1) if k != t])
        return NielsenMove("transpose", t, o)
    return NielsenMove("invert", rng.randrange(1, rank + 1))


def random_automorphism(rng: random.Random, rank: int, n_moves: int) -> Automorphism:
    return Automorphism.from_moves(
        rank, [random_move(rng, rank) for _ in range(n_moves)]
    )


def _random_expansion(g: MarkedGraph, rng: random.Random, eps: float, delta: float) -> MarkedGraph | None:
    verts = [v for v in g.vertices if g.valence(v) >= 4]
    if not verts:
        return None
    v = rng.choice(verts)
    # the draw ``rng.choice(expansions(g, v))`` makes, building one split
    new_v, new_e = _fresh_names(g)
    h = _split(g, v, new_v, new_e, rng.choice(list(_partitions(g, v))))
    lengths = {e.id: e.length * (1 - delta) for e in h.edges}
    lengths[new_e] = delta
    return repair(with_lengths(h, lengths), eps)


def _random_collapse(g: MarkedGraph, rng: random.Random, eps: float) -> MarkedGraph | None:
    nonloops = [e for e in g.edges if e.src != e.dst]
    if not nonloops:
        return None
    e = min(nonloops, key=lambda e: (e.length, e.id))
    return repair(normalize_volume(collapse_edge(g, e.id)), eps)


def spine_points(
    rank: int,
    eps: float,
    seed: int,
    n: int,
) -> list[MarkedGraph]:
    """n independent seeded spine points at volume one.

    Each point is a freshly twisted rose (random Nielsen factorization of
    bounded length, so markings stay short), optionally pushed through one
    or two topology moves, with lognormal length jitter repaired back into
    the spine.
    """
    rng = random.Random(seed)
    base = unit_rose(rank)
    out: list[MarkedGraph] = []
    while len(out) < n:
        g = base
        k = rng.randrange(0, _TWIST_MOVES + 1)
        if k:
            g = transform(g, random_automorphism(rng, rank, k))
        for _ in range(rng.randrange(0, 3)):
            r = rng.random()
            moved = None
            if r < 0.6:
                moved = _random_expansion(g, rng, eps, eps * (0.5 + rng.random()))
            elif len(g.edges) > rank:
                moved = _random_collapse(g, rng, eps)
            if moved is not None:
                g = moved
        out.append(jitter(g, rng, _JITTER_SCALE, eps))
    return out


def ball_points(
    center: MarkedGraph,
    radius: float,
    n: int,
    seed: int,
    eps: float,
    max_tries: int | None = None,
) -> list[MarkedGraph]:
    """Points reached from the center by short accepted steps within radius.

    A random walk proposes small length jitters (occasionally a topology
    move with a tiny fresh edge) and accepts a step only while the
    symmetrized distance to the center stays at most the radius, so the
    samples approximate the walk-connected part of the metric ball.
    """
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return [center] * max(n, 1) if n else []
    rng = random.Random(seed)
    scale = min(0.12, radius / 4)
    out: list[MarkedGraph] = []
    cur = center
    tries = 0
    limit = max_tries if max_tries is not None else 40 * n + 200
    while len(out) < n and tries < limit:
        tries += 1
        if rng.random() < 0.2 and len(cur.edges) < 2 * center.rank:
            prop = _random_expansion(cur, rng, eps, eps * 0.5) or jitter(
                cur, rng, scale, eps
            )
        else:
            prop = jitter(cur, rng, scale, eps)
        if d_sym(center, prop) <= radius:
            cur = prop
            out.append(prop)
        elif rng.random() < 0.3:
            cur = center
    if len(out) < n:
        raise SampleError(
            f"only {len(out)}/{n} ball samples within radius {radius} "
            f"after {tries} proposals"
        )
    return out


def balanced_point(
    mu: RationalCurrent,
    nu: RationalCurrent,
    s_target: float,
    seed: int,
    eps: float,
    markings: Sequence[Automorphism] = (),
) -> MarkedGraph:
    """A spine point with balance parameter s_target for (mu, nu): the
    ``balanced_lengths`` of the first rose marking that has them, scanning
    the identity, the provided ones, then 24 seeded twists."""
    rng = random.Random(seed)
    rank = mu.rank
    pool = list(markings) + [
        random_automorphism(rng, rank, rng.randrange(1, 5)) for _ in range(24)
    ]
    pool.insert(0, Automorphism.identity(rank))
    base = unit_rose(rank)
    for phi in pool:
        g = transform(base, phi)
        if (lengths := balanced_lengths(g, mu, nu, s_target, eps)) is not None:
            return with_lengths(g, lengths)
    raise SampleError(
        f"no sampled marking straddles balance {s_target:+.3g}; "
        "pass shift markings that move the balance range"
    )
