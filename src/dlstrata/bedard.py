"""Stabilizing sequences (u_n, I_n) labelling fine Deligne-Lusztig strata.

Starting from a type I_0 = I and a Frobenius action F on the generator
set, a sequence picks u_n among the minimal double-coset representatives
for (I_n, F(I_n)), subject to

    I_{n+1} = I_n  intersect  u_n F(I_n) u_n^{-1}
    u_{n+1}  in  W_{I_{n+1}} u_n W_{F(I_n)}

and stabilizes once the pair (u, I) repeats.  Each minimal left coset
representative w for I is the stabilized u of exactly one sequence, and
that sequence is read off w: the double cosets W_{I_n} u_n W_{F(I_n)}
shrink along the sequence, so each contains w and u_n is the minimal
representative of W_{I_n} w W_{F(I_n)}, which ``weyl.min_double_coset_rep``
reads off w's block table; no descent is stripped.

The next type needs only two entries of u_n per generator: for j in
F(I_n), u_n s_j u_n^{-1} is simple exactly when u_n(j) and u_n(j+1)
differ by one, and with a the smaller it is s_{min(a, 2n-a)}.

For Sp the Frobenius acts trivially on the generators; the action is
kept as a parameter so the twisted variants remain expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import weyl
from .weyl import WeylElement


def _coxeter_order(i: int, j: int, n: int) -> int:
    """Order of s_i s_j in the rank-n group (type C diagram)."""
    if i == j:
        return 1
    a, b = min(i, j), max(i, j)
    if b - a > 1:
        return 2
    return 4 if b == n else 3


@dataclass(frozen=True)
class FrobeniusAction:
    """A Coxeter-system automorphism of the generator set S_n."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError("image is not a permutation of the generators")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if _coxeter_order(self(i), self(j), n) != _coxeter_order(i, j, n):
                    raise ValueError("map does not preserve the Coxeter matrix")

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def apply_subset(self, subset: frozenset[int]) -> frozenset[int]:
        return frozenset(self(i) for i in subset)

    @staticmethod
    def trivial(n: int) -> "FrobeniusAction":
        return FrobeniusAction(n, tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def siegel_frobenius(c: int) -> tuple[frozenset[int], FrobeniusAction]:
    """The Siegel type of rank c with the trivial Frobenius action: the
    (I, F) that every Lagrangian label is read against."""
    return weyl.siegel_type(c), FrobeniusAction.trivial(c)


def conjugate_type(w: WeylElement, subset: frozenset[int]) -> frozenset[int]:
    """Generator indices i with s_i = w s_j w^{-1} for some j in the subset.

    w s_j w^{-1} swaps the values w(j) and w(j+1) (with their mirrors),
    so it is simple exactly when they differ by one; with a the smaller,
    it is s_a for a <= n and s_{2n-a} above.  ValueError for an index
    outside 1..n.
    """
    n, perm = w.n, w.perm
    out = set()
    for j in subset:
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        a, b = perm[j - 1], perm[j]
        if abs(a - b) == 1:
            a = min(a, b)
            out.add(min(a, 2 * n - a))
    return frozenset(out)


@dataclass(frozen=True)
class BedardSequence:
    """One stabilizing sequence; steps[k] = (u_k, I_k)."""

    I0: frozenset[int]
    steps: tuple[tuple[WeylElement, frozenset[int]], ...]

    @property
    def u_inf(self) -> WeylElement:
        return self.steps[-1][0]

    @property
    def I_inf(self) -> frozenset[int]:
        return self.steps[-1][1]

    def u_at(self, k: int) -> WeylElement:
        """u_k, reading the stabilized tail beyond the stored steps."""
        return self.steps[min(k, len(self.steps) - 1)][0]

    def type_at(self, k: int) -> frozenset[int]:
        return self.steps[min(k, len(self.steps) - 1)][1]


@lru_cache(maxsize=None)
def enumerate_sequences(
    n: int, I: frozenset[int], F: FrobeniusAction
) -> tuple[BedardSequence, ...]:
    """All stabilizing sequences for (I, F), one per coset representative."""
    seqs = (sequence_for(w, I, F) for w in weyl.min_left_reps(n, I))
    return tuple(sorted(seqs, key=lambda s: s.u_inf.sort_key()))


@lru_cache(maxsize=None)
def sequence_for(
    w: WeylElement, I: frozenset[int], F: FrobeniusAction
) -> BedardSequence:
    """The unique sequence stabilizing at w, built forward from w.

    Raises ValueError if w has a left descent in I, and RuntimeError if
    the sequence stabilizes anywhere but at w.
    """
    if not weyl.is_min_left_rep(w, I):
        raise ValueError("element is not a minimal coset representative for I")
    steps: list[tuple[WeylElement, frozenset[int]]] = []
    cur_type = I
    while True:
        image = F.apply_subset(cur_type)
        u = weyl.min_double_coset_rep(w, cur_type, image)
        steps.append((u, cur_type))
        next_type = cur_type & conjugate_type(u, image)
        if next_type == cur_type:
            # u is the unique minimal representative of its own double
            # coset, so the sequence is forced constant from here on.
            if u.perm != w.perm:
                raise RuntimeError(
                    f"sequence for {w.perm} stabilized at {u.perm} "
                    f"with I={sorted(I)}"
                )
            steps.append((u, cur_type))
            return BedardSequence(I, tuple(steps))
        cur_type = next_type


@lru_cache(maxsize=None)
def flag_variety_dim(n: int, subset: frozenset[int]) -> int:
    """Dimension of G/P_J, l(w0) - l(w0,J): the length of the shortest
    element of W_J w0; kept per (n, J), as stratum tables ask for few."""
    return weyl.length(weyl.min_double_coset_rep(weyl.longest_element(n), subset, ()))


def stratum_dimension(
    w: WeylElement, I: frozenset[int], F: FrobeniusAction
) -> int:
    """l(u_inf) + dim P_{I_inf cap F(I_inf)} - dim P_{I_inf}."""
    seq = sequence_for(w, I, F)
    meet = seq.I_inf & F.apply_subset(seq.I_inf)
    return (
        weyl.length(seq.u_inf)
        + flag_variety_dim(w.n, meet)
        - flag_variety_dim(w.n, seq.I_inf)
    )


def is_irreducible(
    w: WeylElement, I: frozenset[int], F: FrobeniusAction
) -> bool:
    """Irreducibility of the fine stratum labelled by w.

    The stratum is reducible exactly when W_{I_inf} u_inf sits inside a
    proper F-stable standard parabolic subgroup; the smallest candidate
    is generated by I_inf together with the support of u_inf, closed
    under F.
    """
    seq = sequence_for(w, I, F)
    closure = set(seq.I_inf | weyl.support(seq.u_inf))
    while True:
        grown = closure | {F(i) for i in closure}
        if grown == closure:
            break
        closure = grown
    return frozenset(closure) == frozenset(range(1, w.n + 1))


def stratum_table(c: int, g: int | None = None) -> list[dict]:
    """One row per fine stratum label of the rank-c Lagrangian space."""
    I, F = siegel_frobenius(c)
    rows = []
    for w in weyl.enumerate_IW(c):
        seq = sequence_for(w, I, F)
        coarse = weyl.min_double_coset_rep(w, I, F.apply_subset(I))
        row = {
            "word": list(weyl.reduced_word(w)),
            "one_line": list(w.perm),
            "length": weyl.length(w),
            "I_inf": sorted(seq.I_inf),
            "u_sequence": [
                {"u": list(u.perm), "I": sorted(t)} for u, t in seq.steps
            ],
            "dimension": stratum_dimension(w, I, F),
            "irreducible": is_irreducible(w, I, F),
            "coarse_class": list(coarse.perm),
        }
        if g is not None:
            lifted = weyl.r_map_inv(w, g)
            row["lifted_one_line"] = list(lifted.perm)
            row["lifted_length"] = weyl.length(lifted)
            row["lifted_class"] = weyl.class_c(lifted)
            # the label needs the full rank c: it is not a lift from c-1
            row["lifted_class_is_exact"] = bool(w.perm[0] != 1) if c > 0 else False
        rows.append(row)
    return rows
