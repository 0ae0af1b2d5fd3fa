"""The Weyl group of Sp_2n as symmetric permutations of {1, ..., 2n}.

An element is a bijection w with w(2n+1-i) = 2n+1-w(i), stored in
one-line notation.  Generators: s_n = (n, n+1) and, for i < n,
s_i = (i, i+1)(2n-i, 2n+1-i).  Composition is "apply the right factor
first": (a*b)(i) = a(b(i)); all descent and length formulas below are
stated for that convention.

>>> s1, s2 = simple_reflection(1, 2), simple_reflection(2, 2)
>>> (s2 * s1).perm
(3, 1, 4, 2)
>>> length(s2 * s1 * s2)
3

A step through the group is a swap of positions in a one-line form:
right multiplication by s_i exchanges positions i and i+1 and, for
i < n, positions 2n-i and 2n+1-i.  Words, reduced words and the upward
coset search make those swaps on plain lists and tuples, and build a
(validated) ``WeylElement`` only for a value they return.

A minimal double-coset representative has one computation: the reader
``_position_of_table`` takes it off a table of block counts, w's own in
``min_double_coset_rep`` and a pair of flags' rank table in
``symplectic``.  Nothing strips descents to find one.

Everything here is a pure value; enumeration results are cached,
immutable tuples shared read-only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class WeylElement:
    """One-line form of a symmetric permutation of {1, ..., 2n}."""

    n: int
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        two_n = 2 * self.n
        if len(self.perm) != two_n or sorted(self.perm) != list(range(1, two_n + 1)):
            raise ValueError("not a permutation of {1..2n}")
        for i in range(1, two_n + 1):
            if self.perm[two_n - i] != two_n + 1 - self.perm[i - 1]:
                raise ValueError("symplectic symmetry w(2n+1-i) = 2n+1-w(i) fails")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return compose(self, other)

    def inverse(self) -> "WeylElement":
        inv = [0] * (2 * self.n)
        for i, v in enumerate(self.perm, start=1):
            inv[v - 1] = i
        return WeylElement(self.n, tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.perm, start=1))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (length(self), self.perm)


def identity(n: int) -> WeylElement:
    return WeylElement(n, tuple(range(1, 2 * n + 1)))


def simple_reflection(i: int, n: int) -> WeylElement:
    """s_n = (n, n+1); s_i = (i, i+1)(2n-i, 2n+1-i) for i < n."""
    perm = list(range(1, 2 * n + 1))
    _swap_step(perm, i, n)
    return WeylElement(n, tuple(perm))


def _swap_step(perm: list[int], i: int, n: int) -> None:
    """Right-multiply the one-line form perm by s_i in place: swap
    positions i and i+1 and, for i < n, 2n-i and 2n+1-i."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    if i < n:
        j = 2 * n - i
        perm[j - 1], perm[j] = perm[j], perm[j - 1]


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """(a*b)(i) = a(b(i)): apply b first."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    return WeylElement(a.n, tuple(a.perm[v - 1] for v in b.perm))


def right_descents(w: WeylElement) -> frozenset[int]:
    """{i in 1..n : w(i) > w(i+1)}; equals {i : length(w * s_i) < length(w)}."""
    return frozenset(i for i in range(1, w.n + 1) if w.perm[i - 1] > w.perm[i])


def left_descents(w: WeylElement) -> frozenset[int]:
    """{i in 1..n : w^{-1}(i) > w^{-1}(i+1)}: i+1 stands before i in w's one-line form."""
    return _left_descents(w.perm, range(1, w.n + 1))


def _left_descents(perm: Sequence[int], among: Iterable[int]) -> frozenset[int]:
    """The left descents in ``among`` of the one-line form perm; ValueError
    for an index outside 1..n."""
    n, pos = len(perm) // 2, perm.index
    out = set()
    for i in among:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        if pos(i) > pos(i + 1):
            out.add(i)
    return frozenset(out)


def length(w: WeylElement) -> int:
    """Coxeter length, (inv(w) + #{i <= n : w(i) > n}) / 2, with inv(w)
    the inversions of w on 2n letters: along a reduced word each s_i,
    i < n, adds two inversions, and each s_n one and one value above n
    in the positions 1..n."""
    perm, n = w.perm, w.n
    inversions = sum(1 for i, a in enumerate(perm) for b in perm[i + 1 :] if a > b)
    return (inversions + sum(1 for v in perm[:n] if v > n)) // 2


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w (deterministic: smallest descent index first).

    Stripping a right descent shortens the element by one, and a
    symmetric permutation with no right descent is the identity, so the
    loop terminates with a word of minimal length.  Each strip is a
    swap on w's one-line form.
    """
    n, perm = w.n, list(w.perm)
    letters: list[int] = []
    while True:
        i = next((i for i in range(1, n + 1) if perm[i - 1] > perm[i]), None)
        if i is None:
            break
        letters.append(i)
        _swap_step(perm, i, n)
    letters.reverse()
    return tuple(letters)


def evaluate_word(letters: Iterable[int], n: int) -> WeylElement:
    """The product of the simple reflections s_i, i in letters, left to right."""
    perm = list(range(1, 2 * n + 1))
    for i in letters:
        _swap_step(perm, i, n)
    return WeylElement(n, tuple(perm))


def support(w: WeylElement) -> frozenset[int]:
    """Generator indices occurring in a reduced word (word-independent)."""
    return frozenset(reduced_word(w))


def is_min_left_rep(w: WeylElement, subset: Iterable[int]) -> bool:
    """True iff w has no left descent in the given generator subset."""
    return not _left_descents(w.perm, subset)


def min_double_coset_rep(
    w: WeylElement, left: Iterable[int], right: Iterable[int]
) -> WeylElement:
    """The unique shortest element of W_left * w * W_right, read off w's
    own block table for the two types' dimension sets: the table is
    constant on the double coset, and the re-check keeps the result in it."""
    n = w.n
    cdims, ddims = _dims_of_type(n, left), _dims_of_type(n, right)
    return _position_of_table(n, cdims, ddims, _block_table(w.perm, cdims, ddims))


def _type_of_dims(n: int, dims: Sequence[int]) -> frozenset[int]:
    """Generator indices of rank n not cut by the dimension set dims."""
    cuts = set(dims)
    return frozenset(i for i in range(1, n + 1) if i not in cuts and 2 * n - i not in cuts)


def _dims_of_type(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    """The symmetric dimension set of a type (inverse to ``_type_of_dims``);
    ValueError for an index outside 1..n."""
    kept = set(subset)
    for i in kept:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
    cuts = {d for i in range(1, n + 1) if i not in kept for d in (i, 2 * n - i)}
    return tuple(sorted(cuts | {0, 2 * n}))


def _block_table(
    perm: Sequence[int], cdims: Sequence[int], ddims: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """T[a][b] = r_w(ddims[b], cdims[a]) = #{x <= ddims[b] : w(x) <= cdims[a]},
    in one pass along w."""
    first = [0] * len(cdims)  # values so far, by the first cdims[a] >= them
    columns = []
    done = 0
    for d in ddims:
        for v in perm[done:d]:
            first[bisect_left(cdims, v)] += 1
        done = d
        columns.append(tuple(accumulate(first)))
    return tuple(zip(*columns))


@lru_cache(maxsize=None)
def _position_of_table(
    n: int, cdims: tuple[int, ...], ddims: tuple[int, ...], table: tuple[tuple[int, ...], ...]
) -> WeylElement:
    """The shortest element whose block table for these dimensions is table.

    Row a of the table belongs to cdims[a] and column b to ddims[b],
    and T[a][b] = r_w(ddims[b], cdims[a]).  The second difference of T
    over a block (d_{k-1}, d_k] of ddims and a block (c_{l-1}, c_l] of
    cdims counts the positions of the first block that w sends into the
    second (Fulton, Duke 1992).  Filling each ddims block in increasing
    order with the next unused values of each cdims block gives the
    element that increases on every block of both, which is the shortest
    one.  Every entry is then re-checked against r_w of the result.
    Both dimension sets must be symmetric (ValueError).  A table that is
    not the table of a Weyl element (a negative count, a permutation that
    is not symmetric, or a mismatched entry) raises RuntimeError, and
    raises again on every call: only returned positions are kept.
    """
    for dims in (cdims, ddims):
        if any(2 * n - d not in dims for d in dims):
            raise ValueError(f"dimension set {dims} is not symmetric")
    used = list(cdims[:-1])  # last value taken from each cdims block
    perm: list[int] = []
    for k in range(1, len(ddims)):
        # positions of this ddims block sent to values <= each cdims[a]
        sent = [row[k] - row[k - 1] for row in table]
        for l in range(1, len(cdims)):
            count = sent[l] - sent[l - 1]
            if count < 0:
                raise RuntimeError(
                    f"rank table gives {count} positions from block "
                    f"({ddims[k - 1]}, {ddims[k]}] into block ({cdims[l - 1]}, {cdims[l]}]"
                )
            if count:
                perm.extend(range(used[l - 1] + 1, used[l - 1] + count + 1))
                used[l - 1] += count
    try:
        w = WeylElement(n, tuple(perm))
    except ValueError as exc:
        raise RuntimeError(f"rank table is not the table of a Weyl element: {exc}") from exc
    rw = _block_table(perm, cdims, ddims)
    if rw != table:
        c, d, a, k = next(
            (c, d, a, k)
            for k, d in enumerate(ddims)
            for a, c in enumerate(cdims)
            if table[a][k] != rw[a][k]
        )
        raise RuntimeError(
            f"rank table entry dim(C_{c} cap D_{d}) = {table[a][k]} differs "
            f"from r_w = {rw[a][k]} for w = {w.perm}"
        )
    return w


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[WeylElement, ...]:
    """All of W_n (2^n n! elements): every element is a minimal left
    coset representative for the empty type."""
    return min_left_reps(n, ())


def longest_element(n: int) -> WeylElement:
    return WeylElement(n, tuple(range(2 * n, 0, -1)))


def siegel_type(n: int) -> frozenset[int]:
    """The generator subset {1, ..., n-1} indexing the Lagrangian flag."""
    return frozenset(range(1, n))


def min_left_reps(n: int, subset: Iterable[int]) -> tuple[WeylElement, ...]:
    """Minimal left coset representatives for a type.

    They are the elements with no left descent in the type, found by
    breadth-first search upward from the identity on one-line tuples: a
    reduced prefix of such an element has none either, so every one is
    reached through steps w -> w s_i that lengthen w (i not a right
    descent) and keep the left descents outside the type.  Each such
    step adds one to the length, so the search meets the elements level
    by level; they come out ordered by length, then one-line form.
    """
    subset = tuple(subset)
    frontier = [tuple(range(1, 2 * n + 1))]
    found = set(frontier)
    reps: list[tuple[int, ...]] = []
    while frontier:
        frontier.sort()
        reps.extend(frontier)
        nxt = []
        for perm in frontier:
            for i in range(1, n + 1):
                if perm[i - 1] > perm[i]:
                    continue
                step = list(perm)
                _swap_step(step, i, n)
                ws = tuple(step)
                if ws not in found and not _left_descents(ws, subset):
                    found.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(WeylElement(n, perm) for perm in reps)


@lru_cache(maxsize=None)
def enumerate_IW(n: int) -> tuple[WeylElement, ...]:
    """The 2^n minimal left coset representatives for the Siegel type."""
    return min_left_reps(n, siegel_type(n))


def siegel_rep(positions: Sequence[int], n: int) -> WeylElement:
    """The element w with w^{-1}(1) < ... < w^{-1}(n) at these positions.

    ``positions`` are increasing and hold one member of each pair
    {i, 2n+1-i}: w sends the j-th of them to j and, by symmetry, its
    mirror to 2n+1-j.  ValueError unless there are n of them from n
    distinct pairs.
    """
    if len(positions) != n:
        raise ValueError(f"{len(positions)} positions for rank {n}")
    perm = [0] * (2 * n)
    for j, pos in enumerate(positions, start=1):
        perm[pos - 1] = j
        perm[2 * n - pos] = 2 * n + 1 - j
    return WeylElement(n, tuple(perm))


def in_IW(w: WeylElement) -> bool:
    """Whether w is a minimal left coset representative for the Siegel type."""
    return is_min_left_rep(w, siegel_type(w.n))


def canonical_word_IW(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """The canonical reduced word for the Siegel coset rep of a subset:
    for i_1 < ... < i_l in {1..n}, the runs (s_n ... s_{i_1}) ... (s_n ...
    s_{i_l}) in that order (the tests check the bijection onto IW)."""
    idx = sorted(set(subset))
    if any(i < 1 or i > n for i in idx):
        raise ValueError("subset must lie in 1..n")
    return tuple(x for i in idx for x in range(n, i - 1, -1))


def r_w(w: WeylElement, i: int, j: int) -> int:
    """#{a in 1..i : w(a) <= j}, with r_w(0, .) = r_w(., 0) = 0."""
    two_n = 2 * w.n
    if not (0 <= i <= two_n and 0 <= j <= two_n):
        raise ValueError("indices out of range")
    return sum(1 for a in range(1, i + 1) if w.perm[a - 1] <= j)


def fixes_prefix(w: WeylElement, m: int) -> bool:
    return all(w.perm[i] == i + 1 for i in range(m))


def in_W_fixed(w: WeylElement, c: int) -> bool:
    """Membership in the subgroup fixing 1, ..., g-c pointwise."""
    return fixes_prefix(w, w.n - c)


def r_map(w: WeylElement, c: int) -> WeylElement:
    """Restrict an element fixing 1..g-c to the middle 2c letters."""
    g = w.n
    if not 0 <= c <= g:
        raise ValueError("c out of range")
    if not in_W_fixed(w, c):
        raise ValueError("element does not fix the first g-c letters")
    shift = g - c
    perm = tuple(w.perm[shift + i] - shift for i in range(2 * c))
    return WeylElement(c, perm)


@lru_cache(maxsize=None)
def r_map_inv(w: WeylElement, g: int) -> WeylElement:
    """The unique preimage in W_g fixing 1..g-c, for w in W_c.

    Kept per (w, g), so each lift is built and validated once; a target
    rank below c raises ValueError on every call."""
    c = w.n
    if c > g:
        raise ValueError("target rank too small")
    shift = g - c
    perm = list(range(1, 2 * g + 1))
    for i in range(2 * c):
        perm[shift + i] = w.perm[i] + shift
    return WeylElement(g, tuple(perm))


def class_c(w: WeylElement) -> Optional[int]:
    """Minimal c with w fixing 1..g-c, or None when that c exceeds g/2."""
    if not in_IW(w):
        raise ValueError("element is not a minimal Siegel coset representative")
    g = w.n
    fixed = 0
    for i in range(1, g + 1):
        if w.perm[i - 1] != i:
            break
        fixed += 1
    c = g - fixed
    if c == 0:
        return 0
    return c if 2 * c <= g else None
