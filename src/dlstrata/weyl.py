"""The Weyl group of Sp_2n as symmetric permutations of {1, ..., 2n}.

An element is a bijection w with w(2n+1-i) = 2n+1-w(i), stored in
one-line notation.  Generators: s_n = (n, n+1) and, for i < n,
s_i = (i, i+1)(2n-i, 2n+1-i).  Composition is "apply the right factor
first": (a*b)(i) = a(b(i)); all descent and length formulas below are
stated for that convention.

>>> s1, s2 = simple_reflection(1, 2), simple_reflection(2, 2)
>>> (s2 * s1).one_line
(3, 1, 4, 2)
>>> length(s2 * s1 * s2)
3

Everything here is a pure value; enumeration results are cached,
immutable tuples shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
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

    @property
    def one_line(self) -> tuple[int, ...]:
        return self.perm

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
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    perm = list(range(1, 2 * n + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    if i < n:
        j = 2 * n - i
        perm[j - 1], perm[j] = perm[j], perm[j - 1]
    return WeylElement(n, tuple(perm))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """(a*b)(i) = a(b(i)): apply b first."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    return WeylElement(a.n, tuple(a.perm[v - 1] for v in b.perm))


def right_descents(w: WeylElement) -> frozenset[int]:
    """{i in 1..n : w(i) > w(i+1)}; equals {i : length(w * s_i) < length(w)}."""
    return frozenset(i for i in range(1, w.n + 1) if w.perm[i - 1] > w.perm[i])


def left_descents(w: WeylElement) -> frozenset[int]:
    return right_descents(w.inverse())


@lru_cache(maxsize=None)
def length(w: WeylElement) -> int:
    """Coxeter length, by greedy right-descent stripping.

    A symmetric permutation that increases on 1..n+1 is the identity, so
    the loop below runs exactly length(w) times; agreement with the
    Cayley-graph distance is checked in the test suite.
    """
    a = list(w.perm)
    n = w.n
    steps = 0
    while True:
        i = next((i for i in range(1, n + 1) if a[i - 1] > a[i]), None)
        if i is None:
            return steps
        a[i - 1], a[i] = a[i], a[i - 1]
        if i < n:
            j = 2 * n - i
            a[j - 1], a[j] = a[j], a[j - 1]
        steps += 1


def reduced_word(w: WeylElement, smallest_first: bool = True) -> tuple[int, ...]:
    """A reduced word for w (deterministic: smallest descent index first).

    Stripping a right descent shortens the element by one, and a
    symmetric permutation with no right descent is the identity, so the
    loop terminates with a word of minimal length.
    """
    letters: list[int] = []
    cur = w
    while True:
        ds = right_descents(cur)
        if not ds:
            break
        i = min(ds) if smallest_first else max(ds)
        letters.append(i)
        cur = compose(cur, simple_reflection(i, w.n))
    letters.reverse()
    return tuple(letters)


def evaluate_word(letters: Iterable[int], n: int) -> WeylElement:
    out = identity(n)
    for i in letters:
        out = compose(out, simple_reflection(i, n))
    return out


def support(w: WeylElement) -> frozenset[int]:
    """Generator indices occurring in a reduced word (word-independent)."""
    return frozenset(reduced_word(w))


def is_min_left_rep(w: WeylElement, subset: Iterable[int]) -> bool:
    """True iff w has no left descent in the given generator subset."""
    lds = left_descents(w)
    return all(i not in lds for i in subset)


def min_double_coset_rep(
    w: WeylElement, left: Iterable[int], right: Iterable[int]
) -> WeylElement:
    """The unique shortest element of W_left * w * W_right."""
    left, right = frozenset(left), frozenset(right)
    cur = w
    while True:
        lds = left_descents(cur) & left
        if lds:
            cur = compose(simple_reflection(min(lds), w.n), cur)
            continue
        rds = right_descents(cur) & right
        if rds:
            cur = compose(cur, simple_reflection(min(rds), w.n))
            continue
        return cur


def _bfs(n: int, subset: Iterable[int]) -> dict[WeylElement, int]:
    """Breadth-first search from the identity over the given generators.

    Maps each element of the generated subgroup to its distance in the
    Cayley graph, in the order the search reaches them.
    """
    gens = [simple_reflection(i, n) for i in sorted(subset)]
    dist = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = compose(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[WeylElement, ...]:
    """All of W_n by breadth-first search from the identity (2^n n! elements)."""
    return tuple(sorted(_bfs(n, range(1, n + 1)), key=WeylElement.sort_key))


@lru_cache(maxsize=None)
def longest_parabolic_element(n: int, subset: frozenset[int]) -> WeylElement:
    """Longest element of W_J, by greedy ascent (no enumeration needed)."""
    cur = identity(n)
    while True:
        up = [i for i in sorted(subset) if i not in right_descents(cur)]
        step = None
        for i in up:
            cand = compose(cur, simple_reflection(i, n))
            if length(cand) > length(cur):
                step = cand
                break
        if step is None:
            return cur
        cur = step


def longest_element(n: int) -> WeylElement:
    return WeylElement(n, tuple(range(2 * n, 0, -1)))


def siegel_type(n: int) -> frozenset[int]:
    """The generator subset {1, ..., n-1} indexing the Lagrangian flag."""
    return frozenset(range(1, n))


@lru_cache(maxsize=None)
def enumerate_IW(n: int) -> tuple[WeylElement, ...]:
    """The 2^n minimal left coset representatives for the Siegel type.

    An element with w^{-1}(1) < ... < w^{-1}(n) is determined by the set
    of those n preimage positions, which picks one member from each pair
    {i, 2n+1-i}; conversely every such set yields one element.
    """
    out = []
    for choice in product((False, True), repeat=n):
        positions = sorted(
            i if not flip else 2 * n + 1 - i
            for i, flip in zip(range(1, n + 1), choice)
        )
        out.append(siegel_rep(positions, n))
    assert len({w.perm for w in out}) == 2**n
    return tuple(sorted(out, key=WeylElement.sort_key))


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
    """The canonical reduced word for the Siegel coset rep of a subset.

    For i_1 < ... < i_l in {1..n} the word is the concatenation of the
    descending runs (s_n s_{n-1} ... s_{i_*}), one run per subset member.
    Both run orders are tried; exactly one evaluates to a reduced word
    lying in the minimal-representative set, and that one is returned.
    """
    idx = sorted(set(subset))
    if any(i < 1 or i > n for i in idx):
        raise ValueError("subset must lie in 1..n")
    if not idx:
        return ()
    runs = [tuple(range(n, i - 1, -1)) for i in idx]
    ascending = tuple(x for run in runs for x in run)
    descending = tuple(x for run in reversed(runs) for x in run)
    candidates = {ascending, descending}
    good = []
    for word in candidates:
        w = evaluate_word(word, n)
        if length(w) == len(word) and in_IW(w):
            good.append(word)
    if len(good) != 1:
        raise RuntimeError(
            f"run-order convention failure for subset {idx}: {len(good)} valid orders"
        )
    return good[0]


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


def r_map_inv(w: WeylElement, g: int) -> WeylElement:
    """The unique preimage in W_g fixing 1..g-c, for w in W_c."""
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
