"""Exact algebra of the free group F_n.

Letters are nonzero integers: ``k`` is the k-th generator, ``-k`` its
inverse, ``1 <= k <= rank``.  Textual I/O writes generators as a, b, c, d
and accepts three spellings of an inverse: ``a'``, ``A`` and ``-a``.

An automorphism is a pair of image tuples, its own and its inverse's,
whether it comes from Nielsen moves or from images; ``invert_basis``
inverts images exactly by Stallings folding.  Everything here is immutable
and pure.

Each reduced word is checked once.  The public ``Word(...)`` range-checks
and freely reduces whatever it is given: parsed text, JSON, user code.
Code that already holds letters in range and freely reduced builds its
word with ``_reduced_word``, which checks nothing: ``apply`` (the
substitution reduced), the slices of ``cyclic_reduce``, the rotation of
``canonical_representative``, ``Word.inverse``, ``Word.__mul__`` (which
cancels only at the junction), ``Automorphism.image_words`` and
``invert_basis``; elsewhere ``minima``'s elementary images, a topology's
``word_along`` (which reduces) and ``jsonio``'s current output.  Their
trust rests on one checked invariant: an ``Automorphism``'s images and
inverse images are range-checked and reduced once, when it is made.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

_LETTER_NAMES = "abcd"
MAX_RANK = len(_LETTER_NAMES)


def _check_rank(rank: int) -> None:
    if not 2 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 2 and {MAX_RANK}, got {rank}")


def _check_letters(rank: int, letters: Iterable[int]) -> tuple[int, ...]:
    out = tuple(letters)
    _check_rank(rank)
    for x in out:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x!r} out of range for rank {rank}")
    return out


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Delete adjacent inverse pairs until none remain (stack pass)."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for x in letters:
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(stack)


def _inverse(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.neg, reversed(letters)))


class Word:
    """A freely reduced word in F_rank.

    The constructor checks every letter's range and reduces its input, so
    ``Word(3, [1, 2, -2, 3])`` equals ``Word(3, [1, 3])``.  Internal code
    holding letters already in range and reduced uses ``_reduced_word``
    instead (see the module docstring).  Words compare and hash by (rank,
    letters), and are immutable.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Iterable[int] = ()):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", free_reduce(_check_letters(rank, letters)))

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        # both factors are reduced, so only the junction can cancel
        a, b = self.letters, other.letters
        i, n = 0, min(len(a), len(b))
        while i < n and a[-1 - i] == -b[i]:
            i += 1
        return _reduced_word(self.rank, a[: len(a) - i] + b[i:])

    def inverse(self) -> "Word":
        return _reduced_word(self.rank, _inverse(self.letters))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"


def _reduced_word(rank: int, letters: tuple[int, ...]) -> Word:
    """The word of ``letters``, which the caller guarantees are a tuple of
    letters in range for ``rank`` and freely reduced; nothing is checked."""
    w = object.__new__(Word)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


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
    return _reduced_word(w.rank, letters[i : j + 1]), _reduced_word(w.rank, letters[:i])


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


# a letter's place in printed order: a, a', b, b', ... -> 2, 3, 4, 5, ...
_SPELLED = {s * k: 2 * k + (s < 0) for k in range(1, MAX_RANK + 1) for s in (1, -1)}


def spelling_key(w: Word | Sequence[int]) -> tuple[int, ...]:
    """Sort key matching printed order: a < a' < b < b' < ...

    Takes a word or its letters.  Raw letter tuples put all inverses before
    all positives, which is the wrong order for human-facing tie-breaks
    (witness words, CLI listings).
    """
    return tuple(map(_SPELLED.__getitem__, w))


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
    for base in (letters, _inverse(letters)):
        spelled = spelling_key(base)
        i = _least_rotation(spelled)
        rot = spelled[i:] + spelled[:i]
        if best_spelled is None or rot < best_spelled:
            best_spelled = rot
            best_letters = base[i:] + base[:i]
    # a rotation of a cyclically reduced word is reduced
    return _reduced_word(w.rank, best_letters)


# --- automorphisms ---------------------------------------------------------


class NielsenMove(namedtuple("NielsenMove", "kind target other inverse", defaults=(0, False))):
    """One elementary Nielsen move.

    kind "invert":          x_target -> x_target^-1
    kind "transpose":       x_target <-> x_other
    kind "right_multiply":  x_target -> x_target * x_other^(+-1)

    Every way of making one checks it, ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, kind: str, target: int, other: int = 0, inverse: bool = False):
        if kind not in ("invert", "transpose", "right_multiply"):
            raise ValueError(f"unknown move kind {kind!r}")
        if target < 1 or (kind != "invert" and other < 1):
            raise ValueError("move generators are positive indices")
        if kind != "invert" and other == target:
            raise ValueError(f"{kind} needs two distinct generators")
        return super().__new__(cls, kind, target, other, inverse)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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

# Largest exponent ``power`` and ``iwip_pair_approx`` take.  Each factor is
# one more composition, so the work grows with the exponent even when the
# words stay short; no bundled input or test goes past 40.
MAX_POWER = 10_000


def _signed(images: Iterable[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """The image of every signed letter, given those of x_1, x_2, ..."""
    table = dict(enumerate(images, 1))
    table.update([(-k, _inverse(img)) for k, img in table.items()])
    return table


def _substitute(letters: Sequence[int], table: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Substitute the images of a ``_signed`` table into ``letters`` and
    freely reduce.

    Raises ValueError, before building anything, when the unreduced result
    would exceed MAX_LETTERS letters.
    """
    # a cheap upper bound first; the exact count only when it is exceeded
    if len(letters) * max(map(len, table.values())) > MAX_LETTERS:
        size = sum(letters.count(x) * len(img) for x, img in table.items())
        if size > MAX_LETTERS:
            raise ValueError(
                f"word too long: substitution would produce {size} letters "
                f"(cap {MAX_LETTERS})"
            )
    return free_reduce(chain.from_iterable(map(table.__getitem__, letters)))


def _replay(rank: int, moves: Sequence[NielsenMove]) -> tuple[tuple[int, ...], ...]:
    """Images of the generators after applying ``moves`` left to right."""
    images = [(k,) for k in range(1, rank + 1)]
    for m in moves:
        table = _signed(m.letter_images(rank).values())
        images = [_substitute(img, table) for img in images]
    return tuple(images)


class Automorphism:
    """An automorphism of F_rank: generator images and those of its inverse.

    Every instance carries ``inverse_images``, and the raw constructor
    trusts them to invert ``images``.  ``from_moves`` (which replays the
    inverted moves) and ``from_images`` (which folds the images,
    ``invert_basis``) certify it; ``compose`` (both sides), ``invert`` (a
    swap, no word work) and ``power`` preserve it; ``jsonio`` builds only
    through the two certifying constructors; ``graphs.transform`` relies
    on it to carry a validated graph's comarking to a translate that is
    valid by construction, as every move of a validated graph is, and
    never validated.  ``moves`` is the Nielsen factorization that
    ``from_moves`` was given, which JSON writes back; ``from_images``,
    ``compose`` and ``invert`` leave it None, and so does ``power`` but
    for the identity.

    Two automorphisms are equal, and hash alike, when they have the same
    rank and images, whatever their inverse images and factorizations.
    They are immutable.

    Both image tuples are checked once, here: one per generator, each
    freely reduced with letters in range.  ``apply``, ``compose`` and
    ``image_words`` trust them from then on.
    """

    # the __dict__ holds the two cached substitution tables
    __slots__ = ("rank", "images", "inverse_images", "moves", "__dict__")

    def __init__(
        self,
        rank: int,
        images: tuple[tuple[int, ...], ...],
        inverse_images: tuple[tuple[int, ...], ...],
        moves: tuple[NielsenMove, ...] | None = None,
    ):
        for side in (images, inverse_images):
            if len(side) != rank:
                raise ValueError(f"need {rank} images, got {len(side)}")
            # the distinct letters, so the per-letter test runs O(rank) times
            _check_letters(rank, set(chain.from_iterable(side)))
            for img in side:
                if any(map(operator.eq, img, map(operator.neg, img[1:]))):
                    raise ValueError(f"image {img} is not freely reduced")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "inverse_images", inverse_images)
        object.__setattr__(self, "moves", moves)

    def __setattr__(self, *_):
        raise AttributeError("Automorphism is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    def __repr__(self) -> str:
        return f"Automorphism(rank={self.rank!r}, images={self.images!r}, moves={self.moves!r})"

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
        return Automorphism(rank, _replay(rank, mv), inverse, mv)

    @staticmethod
    def from_images(rank: int, images: Sequence[Word]) -> "Automorphism":
        """Raises ValueError unless ``images`` are a basis of F_rank."""
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        inverse = invert_basis(images)
        return Automorphism(
            rank, tuple(w.letters for w in images), tuple(v.letters for v in inverse)
        )

    @cached_property
    def _table(self) -> dict[int, tuple[int, ...]]:
        return _signed(self.images)

    @cached_property
    def _inverse_table(self) -> dict[int, tuple[int, ...]]:
        return _signed(self.inverse_images)

    def image_words(self) -> tuple[Word, ...]:
        return tuple(_reduced_word(self.rank, img) for img in self.images)

    def __call__(self, w: Word) -> Word:
        return apply(self, w)


def apply(phi: Automorphism, w: Word) -> Word:
    if phi.rank != w.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {w.rank}")
    return _reduced_word(w.rank, _substitute(w.letters, phi._table))


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """phi after psi: apply(compose(phi, psi), w) == apply(phi, apply(psi, w))."""
    if phi.rank != psi.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {psi.rank}")
    images = tuple(_substitute(img, phi._table) for img in psi.images)
    # (phi psi)^-1 = psi^-1 phi^-1
    inverse = tuple(_substitute(img, psi._inverse_table) for img in phi.inverse_images)
    return Automorphism(phi.rank, images, inverse)


def invert(phi: Automorphism) -> Automorphism:
    return Automorphism(phi.rank, phi.inverse_images, phi.images)


def power(phi: Automorphism, k: int) -> Automorphism:
    """phi^k for any integer k with |k| <= MAX_POWER; negative powers use
    the carried inverse."""
    if abs(k) > MAX_POWER:
        raise ValueError(f"power {k} exceeds {MAX_POWER} in absolute value")
    base = phi if k >= 0 else invert(phi)
    out = Automorphism.identity(phi.rank)
    for _ in range(abs(k)):
        out = compose(base, out)
    return out


def elementary_automorphisms(rank: int) -> tuple[Automorphism, ...]:
    """All unit translations of the basis: x -> x^-1, swaps, x -> x*y^+-1
    and their left-handed mirrors x -> y^+-1*x.  30 at rank 3.

    Each one carries its Nielsen factorization.  Identity is not included.
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
    """The images V_1..V_n of phi^-1, given the images W_1..W_n of phi.

    Substituting V_j for letter j in W_k gives x_k.  Raises ValueError
    exactly when the W_k are not a basis of F_n.

    Stallings folding with labels (Kapovich-Myasnikov, J. Algebra 248,
    2002).  Petal j of a wedge at the base spells W_j; each edge also
    carries a word in new letters y, y_j on petal j's first edge and the
    empty word elsewhere.  Invariant: along every based loop, y_j -> W_j
    maps the y-reading to the word the loop spells.  Before two edges that
    leave one vertex with one letter are folded, their far end that is not
    the base is re-gauged by g (edges leaving it get g^-1 y, edges entering
    it y g), so that the two y-words agree.  Parallel edges with one letter
    and different y-words close a loop whose nontrivial y-reading maps to 1:
    a kernel.  The W_k are a basis exactly when folding ends in the rose
    with one edge per letter (n generators of F_n are a basis), and V_k is
    then the y-word on edge x_k.  No search and no budget; a y-word longer
    than MAX_LETTERS raises ValueError.
    """
    n = len(words)
    if n == 0 or any(w.rank != n for w in words):
        raise ValueError("need n words of rank n")
    edges: dict[int, list] = {}  # id -> [tail, head, letter > 0, y-word]
    star: dict[int, set[int]] = {0: set()}  # vertex -> incident edge ids
    for j, w in enumerate(words, 1):
        path = [0, *range(len(star), len(star) + len(w) - 1), 0]
        for i, x in enumerate(w.letters):
            e = [path[i], path[i + 1], x, (j,) if i == 0 else ()]
            edges[len(edges)] = e if x > 0 else [e[1], e[0], -x, _inverse(e[3])]
            for end in e[:2]:
                star.setdefault(end, set()).add(len(edges) - 1)

    todo = list(star)
    while todo:
        pair = _fold_pair(edges, star, todo[-1]) if todo[-1] in star else None
        if pair is None:
            todo.pop()
            continue
        key, (e1, u1), (e2, u2) = pair
        r1, r2 = (edges[e][3] if key > 0 else _inverse(edges[e][3]) for e in (e1, e2))
        if u1 == u2:
            if r1 != r2:
                raise ValueError("words do not form a basis: their map has a kernel")
            for end in edges.pop(e2)[:2]:
                star[end].discard(e2)
            continue
        if u2 == 0 or (u1 != 0 and len(star[u1]) < len(star[u2])):
            u1, u2, r1, r2 = u2, u1, r2, r1
        g = free_reduce(_inverse(r2) + r1)  # re-gauge u2 so both read r1; glue it to u1
        for eid in star.pop(u2):
            e = edges[eid]
            if e[0] == u2:
                e[0], e[3] = u1, free_reduce(_inverse(g) + e[3])
            if e[1] == u2:
                e[1], e[3] = u1, free_reduce(e[3] + g)
            if len(e[3]) > MAX_LETTERS:
                raise ValueError(f"word too long: a folding label exceeds {MAX_LETTERS} letters")
            star[u1].add(eid)
        todo.append(u1)

    if len(star) != 1 or len(edges) != n:
        raise ValueError("words do not form a basis")
    # every y-word is reduced and spelled in letters 1..n
    out = [_reduced_word(n, y) for _, _, _, y in sorted(edges.values(), key=operator.itemgetter(2))]
    # certify W_k(V) = x_k, reducing as the letters stream in
    table = _signed(v.letters for v in out)
    for k, w in enumerate(words, 1):
        if free_reduce(chain.from_iterable(map(table.__getitem__, w.letters))) != (k,):
            raise ValueError("basis inversion failed verification")
    return tuple(out)


def _fold_pair(edges: dict[int, list], star: dict[int, set[int]], v: int):
    """(signed letter, (edge, far end), (edge, far end)) for two edges that
    leave ``v`` with one letter, or None when ``v`` is folded."""
    first: dict[int, tuple[int, int]] = {}
    for eid in star[v]:
        tail, head, x, _ = edges[eid]
        for key, near, far in ((x, tail, head), (-x, head, tail)):
            if near == v:
                if key in first:
                    return key, first[key], (eid, far)
                first[key] = (eid, far)
    return None
