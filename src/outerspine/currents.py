"""Rational geodesic currents and the length pairing.

A rational current is a finite positive combination of duals of conjugacy
classes; the pairing with a marked graph extends translation length
linearly.  Currents are the only boundary-flavored objects the artifact
materializes: limits (fixed laminations of exponentially growing
automorphisms) are touched exclusively through the explicit approximating
sequences produced by iwip_pair_approx.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .graphs import MarkedGraph, unit_rose
from .words import (
    MAX_POWER,
    Automorphism,
    Word,
    _reduced_word,
    apply,
    canonical_representative,
    cyclic_reduce,
    invert,
    spelling_key,
)


class RationalCurrent:
    """Finite weighted sum of conjugacy-class duals.

    Atoms are stored canonically: cyclically reduced, one spelling per class
    under rotation and inversion (preferring a over a' over b, so dual("a")
    prints as a), pairwise distinct, weights > 0 (zero weights are dropped,
    equal classes merge), sorted by length, then spelling.

    The constructor puts each atom in ``canonical_representative`` form.
    ``scale`` and ``add`` start from atoms already canonical, so they only
    merge and sort them (``_from_canonical``), under the same weight rules:
    each weight finite and nonnegative, else ValueError, and zero dropped.
    Currents compare and hash by (rank, atoms), and are immutable.
    """

    __slots__ = ("rank", "atoms")

    def __init__(self, rank: int, atoms: Iterable[tuple[Word, float]] = ()):
        merged: dict[tuple[int, ...], float] = {}
        for w, weight in atoms:
            if w.rank != rank:
                raise ValueError("atom rank mismatch")
            if not _counts(weight):
                continue
            key = canonical_representative(w).letters
            if not key:
                raise ValueError("trivial class cannot carry weight")
            merged[key] = merged.get(key, 0.0) + weight
        self._set(rank, merged)

    def _set(self, rank: int, merged: dict[tuple[int, ...], float]) -> None:
        atoms = tuple(merged.items())
        if len(atoms) > 1:  # one atom is sorted, and its key may be long
            atoms = tuple(sorted(atoms, key=lambda kv: (len(kv[0]), spelling_key(kv[0]))))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "atoms", atoms)

    def __setattr__(self, *_):
        raise AttributeError("RationalCurrent is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((self.rank, self.atoms))

    def __repr__(self) -> str:
        return f"RationalCurrent(rank={self.rank!r}, atoms={self.atoms!r})"

    def __bool__(self) -> bool:
        return bool(self.atoms)

    def total_weight(self) -> float:
        return sum(w for _, w in self.atoms)

    def classes(self) -> tuple[Word, ...]:
        return tuple(_reduced_word(self.rank, letters) for letters, _ in self.atoms)

    def __str__(self) -> str:
        from .words import format_word

        return " + ".join(
            f"{w:g}*[{format_word(_reduced_word(self.rank, ls))}]" for ls, w in self.atoms
        )


def _counts(weight: float) -> bool:
    """Whether an atom of this weight is kept: raises ValueError unless the
    weight is finite and nonnegative, and drops a zero."""
    if not 0 <= weight < math.inf:
        raise ValueError(f"weight must be finite and nonnegative, not {weight}")
    return weight != 0


def _from_canonical(rank: int, atoms: Iterable[tuple[tuple[int, ...], float]]) -> RationalCurrent:
    """The current of atoms already in canonical form, merged and sorted
    under the constructor's weight rules, with no class recomputed."""
    merged: dict[tuple[int, ...], float] = {}
    for key, weight in atoms:
        if _counts(weight):
            merged[key] = merged.get(key, 0.0) + weight
    nu = object.__new__(RationalCurrent)
    nu._set(rank, merged)
    return nu


def dual(w: Word, weight: float = 1.0) -> RationalCurrent:
    """The weighted dual current of the conjugacy class of ``w``."""
    return RationalCurrent(w.rank, [(w, weight)])


def add(mu: RationalCurrent, nu: RationalCurrent) -> RationalCurrent:
    if mu.rank != nu.rank:
        raise ValueError("rank mismatch")
    return _from_canonical(mu.rank, mu.atoms + nu.atoms)


def scale(nu: RationalCurrent, t: float) -> RationalCurrent:
    """``t nu``; a weight that overflows raises ValueError, one that
    underflows to zero is dropped."""
    if t <= 0:
        raise ValueError(f"scale must be positive, got {t}")
    return _from_canonical(nu.rank, [(ls, w * t) for ls, w in nu.atoms])


def exp_combination(mu: RationalCurrent, nu: RationalCurrent, s: float) -> RationalCurrent:
    """The current e^s mu + e^-s nu, materialized with rescaled weights."""
    try:
        up, down = math.exp(s), math.exp(-s)
    except OverflowError:
        raise ValueError(f"e^s or e^-s overflows at s={s}") from None
    return add(scale(mu, up), scale(nu, down))


def pairing(tree: MarkedGraph, nu: RationalCurrent) -> float:
    """Length pairing: weighted sum of translation lengths of the atoms,
    each the length of the atom's loop on the tree (``length_of``, which
    builds no loop on a rose marked by its petals)."""
    if tree.rank != nu.rank:
        raise ValueError("rank mismatch")
    out = 0.0
    for letters, weight in nu.atoms:
        out += weight * tree.length_of(_reduced_word(nu.rank, letters))
    return out


def normalize_at(x: MarkedGraph, nu: RationalCurrent) -> RationalCurrent:
    """Scale ``nu`` so the pairing with ``x`` is one."""
    p = pairing(x, nu)
    if p <= 0:
        raise ValueError("pairing is not positive; cannot normalize")
    return scale(nu, 1.0 / p)


def apply_to_current(phi: Automorphism, nu: RationalCurrent) -> RationalCurrent:
    """Push a current through an automorphism atom by atom."""
    if phi.rank != nu.rank:
        raise ValueError("rank mismatch")
    return RationalCurrent(
        nu.rank, [(apply(phi, _reduced_word(nu.rank, ls)), w) for ls, w in nu.atoms]
    )


class IwipApproximation(NamedTuple):
    """Power-iteration snapshot of the fixed current pair of an automorphism.

    ``forward``/``backward`` are the normalized duals of the k-th images of
    the seed under phi and its inverse; the lambda estimates are ratios of
    consecutive translation lengths on ``base``.  ``converged`` means the
    last two estimates agree within tol in both directions AND the growth is
    exponential; polynomially growing (reducible) automorphisms report
    exponential=False and estimates near 1.
    """

    phi: Automorphism
    seed: Word
    k: int
    forward: RationalCurrent
    backward: RationalCurrent
    lambda_forward: float
    lambda_backward: float
    lambda_history: tuple[tuple[float, float], ...]
    converged: bool
    exponential: bool


def iwip_pair_approx(
    phi: Automorphism,
    seed: Word,
    k: int,
    base: MarkedGraph | None = None,
    tol: float = 1e-6,
) -> IwipApproximation:
    """Approximate the attracting/repelling currents and expansion factors.

    Iterates seed -> phi(seed) (cyclically reduced each step, since only the
    conjugacy class matters) and the same for the inverse; lambda estimates
    are length ratios on ``base`` (default: unit rose of the right rank), so
    an iterate of length 0 on ``base`` is a ValueError.  Each length is read
    by ``length_of``: on a rose marked by its petals, the default base
    among them, it counts the iterate's letters and builds no loop.
    """
    if not 0 <= k <= MAX_POWER:
        raise ValueError(f"k must be in 0..{MAX_POWER}, got {k}")
    if not seed:
        raise ValueError("seed must be nontrivial")
    if base is None:
        base = unit_rose(phi.rank)
    if seed.rank != base.rank:
        raise ValueError(f"rank mismatch: {seed.rank} != {base.rank}")
    inv = invert(phi)

    def length(w: Word) -> float:
        value = base.length_of(w)
        if value == 0:
            raise ValueError("an iterate of the seed has length 0 on the base graph")
        return value

    def iterate(f: Automorphism) -> tuple[list[float], Word]:
        w, _ = cyclic_reduce(seed)
        w_k = w
        lengths = [length(w)]
        for i in range(1, k + 2):
            w, _ = cyclic_reduce(apply(f, w))
            if not w:
                raise ValueError("seed died under iteration; map is not injective")
            lengths.append(length(w))
            if i == k:
                w_k = w
        return lengths, w_k

    fwd_lengths, w_fwd = iterate(phi)
    bwd_lengths, w_bwd = iterate(inv)

    history = tuple(
        (fwd_lengths[i + 1] / fwd_lengths[i], bwd_lengths[i + 1] / bwd_lengths[i])
        for i in range(k + 1)
    )
    lam_f, lam_b = history[k]
    exponential = lam_f > 1.001 and lam_b > 1.001
    converged = exponential and k >= 1 and (
        abs(history[k][0] - history[k - 1][0]) < tol
        and abs(history[k][1] - history[k - 1][1]) < tol
    )
    return IwipApproximation(
        phi=phi,
        seed=seed,
        k=k,
        forward=normalize_at(base, dual(w_fwd)),
        backward=normalize_at(base, dual(w_bwd)),
        lambda_forward=lam_f,
        lambda_backward=lam_b,
        lambda_history=history,
        converged=converged,
        exponential=exponential,
    )
