"""Exact algebra of the free group F_n.

Letters are nonzero integers: ``k`` is the k-th generator, ``-k`` its
inverse, ``1 <= k <= rank``.  Textual I/O writes generators as a, b, c, d
and accepts three spellings of an inverse: ``a'``, ``A`` and ``-a``.

Everything here is immutable and pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

_LETTER_NAMES = "abcd"
MAX_RANK = len(_LETTER_NAMES)


def _check_letters(rank: int, letters: Iterable[int]) -> tuple[int, ...]:
    out = tuple(letters)
    if not 2 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 2 and {MAX_RANK}, got {rank}")
    for x in out:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x!r} out of range for rank {rank}")
    return out


def free_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    """Delete adjacent inverse pairs until none remain (stack pass)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in F_rank.

    The constructor reduces its input, so ``Word(3, [1, 2, -2, 3])`` equals
    ``Word(3, [1, 3])``.  Words compare and hash by (rank, letters).
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __init__(self, rank: int, letters: Iterable[int] = ()):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", free_reduce(_check_letters(rank, letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        return Word(self.rank, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-x for x in reversed(self.letters)))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"


def parse_word(text: str, rank: int) -> Word:
    """Parse a whitespace separated word like ``"a b' c"`` or ``"a B -c"``."""
    letters: list[int] = []
    for tok in text.split():
        neg = False
        if tok.startswith("-"):
            neg = True
            tok = tok[1:]
        if tok.endswith("'"):
            neg = not neg
            tok = tok[:-1]
        if len(tok) != 1:
            raise ValueError(f"cannot parse letter {tok!r}")
        if tok.isupper():
            neg = not neg
            tok = tok.lower()
        idx = _LETTER_NAMES.find(tok)
        if idx < 0:
            raise ValueError(f"cannot parse letter {tok!r}")
        if idx + 1 > rank:
            raise ValueError(f"letter {tok!r} out of range for rank {rank}")
        letters.append(-(idx + 1) if neg else idx + 1)
    return Word(rank, letters)


def format_word(w: Word) -> str:
    return " ".join(
        _LETTER_NAMES[abs(x) - 1] + ("'" if x < 0 else "") for x in w.letters
    )


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conjugator * core * conjugator^-1`` with core cyclically reduced.

    >>> core, conj = cyclic_reduce(parse_word("c' a b a' c", 3))
    >>> format_word(core), format_word(conj)
    ('b', "c' a")
    """
    letters = w.letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return Word(w.rank, letters[i : j + 1]), Word(w.rank, letters[:i])


def _least_rotation(s: Sequence[int]) -> int:
    """Start index of the lexicographically least rotation of nonempty ``s``.

    Two-pointer minimum-expression scan (Shiloach, J. Algorithms 2, 1981):
    candidates i and j are compared over k letters; on a mismatch the loser
    and the k letters after it are ruled out.  O(n) time, O(1) extra space.
    ``s[p - n]`` reads position ``p mod n`` for every ``0 <= p < 2n``.
    """
    n = len(s)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k - n], s[j + k - n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return i


def spelling_key(w: Word) -> tuple[int, ...]:
    """Sort key matching printed order: a < a' < b < b' < ...

    Raw letter tuples put all inverses before all positives, which is the
    wrong order for human-facing tie-breaks (witness words, CLI listings).
    """
    return tuple(2 * abs(x) + (x < 0) for x in w.letters)


def canonical_representative(w: Word) -> Word:
    """Preferred spelling of the unoriented conjugacy class of ``w``.

    Minimal in spelling_key order over all rotations of the cyclically
    reduced core and of its inverse, so conjugates and inverses agree:

    >>> format_word(canonical_representative(parse_word("c' b' a' c", 3)))
    'a b'

    It is a complete invariant of the unoriented class (the dedup rule for
    current atoms and candidate loops), and it costs O(n) in the length of
    ``w``.
    """
    core, _ = cyclic_reduce(w)
    letters = core.letters
    if not letters:
        return core
    best_spelled = None
    for base in (letters, tuple(-x for x in reversed(letters))):
        spelled = tuple(2 * abs(x) + (x < 0) for x in base)
        i = _least_rotation(spelled)
        rot = spelled[i:] + spelled[:i]
        if best_spelled is None or rot < best_spelled:
            best_spelled = rot
            best_letters = base[i:] + base[:i]
    return Word(w.rank, best_letters)


# --- automorphisms ---------------------------------------------------------


@dataclass(frozen=True)
class NielsenMove:
    """One elementary Nielsen move.

    kind "invert":          x_target -> x_target^-1
    kind "transpose":       x_target <-> x_other
    kind "right_multiply":  x_target -> x_target * x_other^(+-1)
    """

    kind: str
    target: int
    other: int = 0
    inverse: bool = False

    def __post_init__(self):
        if self.kind not in ("invert", "transpose", "right_multiply"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.target < 1 or (self.kind != "invert" and self.other < 1):
            raise ValueError("move generators are positive indices")
        if self.kind != "invert" and self.other == self.target:
            raise ValueError(f"{self.kind} needs two distinct generators")

    def inverted(self) -> "NielsenMove":
        if self.kind == "right_multiply":
            return NielsenMove(self.kind, self.target, self.other, not self.inverse)
        return self

    def letter_images(self, rank: int) -> dict[int, tuple[int, ...]]:
        """Images of positive letters under this move."""
        images = {k: (k,) for k in range(1, rank + 1)}
        if self.kind == "invert":
            images[self.target] = (-self.target,)
        elif self.kind == "transpose":
            images[self.target] = (self.other,)
            images[self.other] = (self.target,)
        else:
            by = -self.other if self.inverse else self.other
            images[self.target] = (self.target, by)
        return images


# Longest word a substitution may build.  The bundled data and tests stay
# under 30,000 letters; iterating an exponentially growing map runs into the
# cap within seconds instead of exhausting memory.
MAX_LETTERS = 1 << 20


def _substitute(letters: Sequence[int], images: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Substitute ``images`` into ``letters`` and freely reduce.

    Raises ValueError, before building anything, when the unreduced result
    would exceed MAX_LETTERS letters.
    """
    # a cheap upper bound first; the exact count only when it is exceeded
    if len(letters) * max(map(len, images.values())) > MAX_LETTERS:
        size = sum(
            (letters.count(k) + letters.count(-k)) * len(img) for k, img in images.items()
        )
        if size > MAX_LETTERS:
            raise ValueError(
                f"word too long: substitution would produce {size} letters "
                f"(cap {MAX_LETTERS})"
            )
    out: list[int] = []
    for x in letters:
        if x > 0:
            out.extend(images[x])
        else:
            out.extend(map(operator.neg, reversed(images[-x])))
    return free_reduce(out)


def _replay(rank: int, moves: Sequence[NielsenMove]) -> tuple[tuple[int, ...], ...]:
    """Images of the generators after applying ``moves`` left to right."""
    images = [(k,) for k in range(1, rank + 1)]
    for m in moves:
        tables = m.letter_images(rank)
        images = [_substitute(img, tables) for img in images]
    return tuple(images)


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of F_rank given by generator images.

    Instances built from a Nielsen factorization (``from_moves``) carry the
    images of their inverse as well, in ``inverse_images``: ``from_moves``
    replays the inverted moves once, ``compose`` composes both sides, and
    ``invert`` swaps the two, so inversion does no word work.  ``moves`` is
    kept as the factorization that JSON writes.  Instances built from raw
    images (``from_images``) act on words and currents but refuse to
    invert; computing an inverse from images alone is a separate hard
    problem this library does not need.

    Two automorphisms are equal when they have the same rank and images,
    whatever their factorizations.
    """

    rank: int
    images: tuple[tuple[int, ...], ...]
    moves: tuple[NielsenMove, ...] | None = field(default=None, compare=False)
    inverse_images: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @staticmethod
    def identity(rank: int) -> "Automorphism":
        return Automorphism.from_moves(rank, ())

    @staticmethod
    def from_moves(rank: int, moves: Iterable[NielsenMove]) -> "Automorphism":
        mv = tuple(moves)
        for m in mv:
            if abs(m.target) > rank or abs(m.other) > rank:
                raise ValueError(f"move {m} out of range for rank {rank}")
        inverse = _replay(rank, tuple(m.inverted() for m in reversed(mv)))
        return Automorphism(rank, _replay(rank, mv), mv, inverse)

    @staticmethod
    def from_images(rank: int, images: Sequence[Word]) -> "Automorphism":
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        for w in images:
            if w.rank != rank:
                raise ValueError("image rank mismatch")
        return Automorphism(rank, tuple(w.letters for w in images))

    @property
    def invertible(self) -> bool:
        return self.inverse_images is not None

    def image_words(self) -> tuple[Word, ...]:
        return tuple(Word(self.rank, img) for img in self.images)

    def __call__(self, w: Word) -> Word:
        return apply(self, w)


def apply(phi: Automorphism, w: Word) -> Word:
    if phi.rank != w.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {w.rank}")
    return Word(w.rank, _substitute(w.letters, dict(enumerate(phi.images, 1))))


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """phi after psi: apply(compose(phi, psi), w) == apply(phi, apply(psi, w))."""
    if phi.rank != psi.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {psi.rank}")
    tables = dict(enumerate(phi.images, 1))
    images = tuple(_substitute(img, tables) for img in psi.images)
    if not (phi.invertible and psi.invertible):
        return Automorphism(phi.rank, images)
    # (phi psi)^-1 = psi^-1 phi^-1
    tables = dict(enumerate(psi.inverse_images, 1))
    inverse = tuple(_substitute(img, tables) for img in phi.inverse_images)
    return Automorphism(phi.rank, images, psi.moves + phi.moves, inverse)


def invert(phi: Automorphism) -> Automorphism:
    if not phi.invertible:
        raise ValueError("automorphism has no factorization; cannot invert")
    moves = tuple(m.inverted() for m in reversed(phi.moves))
    return Automorphism(phi.rank, phi.inverse_images, moves, phi.images)


def power(phi: Automorphism, k: int) -> Automorphism:
    """phi^k for any integer k (negative powers need a factorization)."""
    base = phi if k >= 0 else invert(phi)
    out = Automorphism.identity(phi.rank)
    for _ in range(abs(k)):
        out = compose(base, out)
    return out


def elementary_automorphisms(rank: int) -> tuple[Automorphism, ...]:
    """All unit translations of the basis: x -> x^-1, swaps, x -> x*y^+-1
    and their left-handed mirrors x -> y^+-1*x.  30 at rank 3.

    Each one carries its Nielsen factorization, so all are invertible.
    Identity is not included.
    """
    gens: list[Automorphism] = []
    for t in range(1, rank + 1):
        gens.append(Automorphism.from_moves(rank, [NielsenMove("invert", t)]))
    for t in range(1, rank + 1):
        for o in range(t + 1, rank + 1):
            gens.append(Automorphism.from_moves(rank, [NielsenMove("transpose", t, o)]))
    for t in range(1, rank + 1):
        for o in range(1, rank + 1):
            if o == t:
                continue
            for inv in (False, True):
                gens.append(
                    Automorphism.from_moves(rank, [NielsenMove("right_multiply", t, o, inv)])
                )
                # x -> y^-+1 * x, conjugate of the right version by inversion
                gens.append(
                    Automorphism.from_moves(
                        rank,
                        [
                            NielsenMove("invert", t),
                            NielsenMove("right_multiply", t, o, not inv),
                            NielsenMove("invert", t),
                        ],
                    )
                )
    return tuple(gens)


def invert_basis(words: Sequence[Word]) -> tuple[Word, ...]:
    """Invert a basis of F_n given as words over another rank-n alphabet.

    Input: W_1..W_n over generators y_1..y_n.  If the W_k form a basis,
    returns V_1..V_n (over x_1..x_n) such that substituting y_j -> V_j into
    W_k gives x_k.  Raises ValueError when the tuple is not carried to a
    signed permutation of the generators within the search budget (in
    particular whenever it is not a basis).

    Method: elementary Nielsen transformations, greedy on total length with
    a bounded breadth-first escape across equal-length plateaus; the move
    sequence is replayed to assemble the inverse exactly, and the defining
    identity is re-checked before returning.
    """
    n = len(words)
    if n == 0 or any(w.rank != n for w in words):
        raise ValueError("need n words of rank n")
    state = tuple(w.letters for w in words)
    ops: list[tuple] = []

    def neighbors(st):
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                for e in (1, -1):
                    other = st[l] if e > 0 else tuple(-x for x in reversed(st[l]))
                    yield ("right", k, l, e), st[:k] + (free_reduce(st[k] + other),) + st[k + 1:]
                    yield ("left", k, l, e), st[:k] + (free_reduce(other + st[k]),) + st[k + 1:]

    def total(st):
        return sum(len(t) for t in st)

    def is_signed_perm(st):
        if any(len(t) != 1 for t in st):
            return False
        return sorted(abs(t[0]) for t in st) == list(range(1, n + 1))

    budget = 20000
    while not is_signed_perm(state):
        best_op, best_state = None, None
        for op, st in neighbors(state):
            if total(st) < total(state) and (best_state is None or total(st) < total(best_state)):
                best_op, best_state = op, st
        if best_state is None:
            # breadth-first over equal-length states to find a way down
            seen = {state}
            frontier = [(state, [])]
            found = None
            while frontier and found is None and len(seen) < budget:
                nxt = []
                for st, path in frontier:
                    for op, st2 in neighbors(st):
                        if total(st2) < total(st):
                            found = (path + [op], st2)
                            break
                        if total(st2) == total(st) and st2 not in seen and len(path) < 6:
                            seen.add(st2)
                            nxt.append((st2, path + [op]))
                    if found:
                        break
                frontier = nxt
            if found is None:
                if is_signed_perm(state):
                    break
                raise ValueError("words do not form a recoverable basis")
            path, best_state = found
            ops.extend(path)
        else:
            ops.append(best_op)
        state = best_state

    # replay the moves on the x-alphabet: images of A = op_1 o ... o op_m
    images: list[tuple[int, ...]] = [(k,) for k in range(1, n + 1)]
    for op in reversed(ops):
        _, k, l, e = op
        table = {i: (i,) for i in range(1, n + 1)}
        if op[0] == "right":
            table[k + 1] = (k + 1, (l + 1) * e)
        else:
            table[k + 1] = ((l + 1) * e, k + 1)
        images = [free_reduce(_substitute(im, table)) for im in images]

    # signed permutation S: x_k -> y_{pi(k)}^{s_k}; the inverse sends
    # y_j to A(x_{pi^-1(j)}^{s}).
    out: list[Word] = [None] * n  # type: ignore[list-item]
    for k in range(n):
        j = abs(state[k][0])
        sign = 1 if state[k][0] > 0 else -1
        letters = images[k] if sign > 0 else tuple(-x for x in reversed(images[k]))
        out[j - 1] = Word(n, letters)

    # certify: substituting y_j -> out[j] into W_k must give x_k
    table = {j + 1: out[j].letters for j in range(n)}
    for k in range(n):
        got = free_reduce(_substitute(words[k].letters, table))
        if got != (k + 1,):
            raise ValueError("basis inversion failed verification")
    return tuple(out)
