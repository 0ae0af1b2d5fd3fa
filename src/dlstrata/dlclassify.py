"""Classify Lagrangian points into fine and coarse strata; run censuses.

The stratum of a Lagrangian U over F_{p^{2m}} is read off the iterated
refinement of the flag {0, U, L} against its p^2-twist: the chain grows
until it stops, and the relative position of the stable flag with its
twist is the fine label, an element of the minimal-representative set
for the Lagrangian (Siegel) type.  Each ``symplectic.refine`` step
returns the next flag and the relative position it starts from, read
off the same meets.  The per-step positions must reproduce the
stabilizing sequence attached to the label, and ``classify_fine``
asserts that (and self-duality of every flag) unless ``check=False``.

The twist exponent defaults to 2 (the base field of the moduli problem
is F_{p^2}) but stays a parameter so the combinatorics can be exercised
with odd twists in unit tests.

Classification of a point is pure given the (immutable, memoized)
sequence tables, so censuses may fan out over points freely; record
order is deterministic either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bedard, symplectic, weyl
from .bedard import FrobeniusAction
from .gf import field
from .symplectic import Flag, Subspace, SymplecticSpace
from .weyl import WeylElement


@dataclass(frozen=True)
class CensusRecord:
    p: int
    m: int
    c: int
    label: WeylElement
    count: int


@lru_cache(maxsize=None)
def _siegel_frobenius(c: int) -> tuple[frozenset[int], FrobeniusAction]:
    return weyl.siegel_type(c), FrobeniusAction.trivial(c)


def _refine_to_stable(u: Subspace, qexp: int) -> list[tuple[Flag, WeylElement]]:
    """Each flag of the refinement chain D_0, D_1, ... with its position.

    The chain ends at the stable flag; the position of D_k is
    relpos(D_k, twist of D_k), which the same ``refine`` call returns.
    """
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    c = u.space.n
    flag = Flag([u])
    steps = []
    for _ in range(2 * c * (c + 1) + 2):
        nxt, position = symplectic.refine(flag, flag.twist(qexp))
        steps.append((flag, position))
        if nxt == flag:
            return steps
        flag = nxt
    raise RuntimeError("flag refinement failed to stabilize")


def classify_fine(
    u: Subspace, qexp: int = 2, check: bool = True
) -> WeylElement:
    """Fine stratum label of a Lagrangian point.

    With ``check``, every flag of the chain must be self-dual and the
    (position, type) of each step must follow the label's stabilizing
    sequence; RuntimeError otherwise.
    """
    steps = _refine_to_stable(u, qexp)
    if check:
        _check_against_sequence(steps, u.space.n)
    return steps[-1][1]


def _check_against_sequence(steps: list[tuple[Flag, WeylElement]], c: int) -> None:
    if not all(flag.is_self_dual() for flag, _ in steps):
        raise RuntimeError("refinement chain left the self-dual flags")
    label = steps[-1][1]
    I, F = _siegel_frobenius(c)
    if not weyl.in_IW(label):
        raise RuntimeError("fine label escaped the minimal coset representatives")
    seq = bedard.sequence_for(label, I, F)
    for k, (flag, pos) in enumerate(steps):
        typ = symplectic.flag_type(flag)
        if typ != seq.type_at(k):
            raise RuntimeError(
                f"step {k}: flag type {sorted(typ)} differs from the "
                f"sequence type {sorted(seq.type_at(k))}"
            )
        if pos.perm != seq.u_at(k).perm:
            raise RuntimeError(
                f"step {k}: relative position {pos.perm} differs from the "
                f"sequence value {seq.u_at(k).perm}"
            )


def classify_coarse(u: Subspace, qexp: int = 2) -> WeylElement:
    """Coarse label: the double-coset class of the unrefined position."""
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    flag = Flag([u])
    pos = symplectic.relpos(flag, flag.twist(qexp))
    I, F = _siegel_frobenius(u.space.n)
    return weyl.min_double_coset_rep(pos, I, F.apply_subset(I))


@lru_cache(maxsize=None)
def census_space(c: int, p: int, m: int) -> SymplecticSpace:
    return SymplecticSpace(field(p, 2 * m), c)


@lru_cache(maxsize=None)
def _cached_lagrangians(c: int, p: int, m: int) -> tuple[Subspace, ...]:
    return tuple(symplectic.enumerate_lagrangians(census_space(c, p, m)))


CENSUS_POINT_LIMIT = 5_000_000


def bounded_total(c: int, p: int, m: int, what: str) -> int:
    """The point count over F_{p^{2m}}; ValueError above CENSUS_POINT_LIMIT."""
    expected = symplectic.expected_total(c, p ** (2 * m))
    if expected > CENSUS_POINT_LIMIT:
        raise ValueError(
            f"{what} of {expected} points exceeds the desk-scale limit"
        )
    return expected


def census(c: int, p: int, m: int) -> list[CensusRecord]:
    """Classify every Lagrangian over F_{p^{2m}}; one record per label.

    Zero counts are kept so the row set is the same for every (p, m),
    and the partition property (counts sum to prod(q^i + 1) for
    q = p^{2m}) is verified before returning.
    """
    expected = bounded_total(c, p, m, "census")
    points = _cached_lagrangians(c, p, m)
    counts: dict[tuple[int, ...], int] = {}
    for u in points:
        label = classify_fine(u)
        counts[label.perm] = counts.get(label.perm, 0) + 1
    records = []
    known = set()
    for w in weyl.enumerate_IW(c):
        records.append(CensusRecord(p, m, c, w, counts.get(w.perm, 0)))
        known.add(w.perm)
    stray = set(counts) - known
    if stray:
        raise RuntimeError(f"labels outside the expected set: {sorted(stray)}")
    total = sum(r.count for r in records)
    if total != expected:
        raise RuntimeError(
            f"census total {total} != {expected} for (c={c}, p={p}, m={m})"
        )
    return records


def equivariance_check(
    c: int, p: int, m: int, trials: int, seed: int = 0
) -> bool:
    """Fine labels are unchanged by rational symplectic substitutions.

    Matrices are drawn over F_{p^2} and embedded, so they commute with
    the classifying twist; the check returns True iff every trial keeps
    its label.
    """
    rng = np.random.default_rng(seed)
    space = census_space(c, p, m)
    small = SymplecticSpace(field(p, 2), c)
    points = _cached_lagrangians(c, p, m)
    for _ in range(trials):
        g_small = symplectic.random_symplectic(small, rng)
        g = symplectic.embed_matrix(g_small, small.ctx, space.ctx)
        u = points[int(rng.integers(len(points)))]
        if classify_fine(u.apply(g)).perm != classify_fine(u).perm:
            return False
    return True


def census_csv_rows(records: list[CensusRecord]) -> list[str]:
    """Deterministic CSV lines (header first, labels by length then form)."""
    lines = ["p,m,c,label_word,label_oneline,count"]
    for r in sorted(records, key=lambda r: r.label.sort_key()):
        word = " ".join(str(i) for i in weyl.reduced_word(r.label))
        one_line = " ".join(str(v) for v in r.label.perm)
        lines.append(f"{r.p},{r.m},{r.c},{word},{one_line},{r.count}")
    return lines


def census_json_rows(records: list[CensusRecord]) -> list[dict]:
    return [
        {
            "p": r.p,
            "m": r.m,
            "c": r.c,
            "label_word": list(weyl.reduced_word(r.label)),
            "label_oneline": list(r.label.perm),
            "count": r.count,
        }
        for r in sorted(records, key=lambda r: r.label.sort_key())
    ]
