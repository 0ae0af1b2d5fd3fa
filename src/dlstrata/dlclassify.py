"""Classify Lagrangian points into fine and coarse strata; run censuses.

The stratum of a Lagrangian U over F_{p^{2m}} is read off the iterated
refinement of the flag {0, U, L} against its p^2-twist: the chain grows
until it stops, and the relative position of the stable flag with its
twist is the fine label, an element of the minimal-representative set
for the Lagrangian (Siegel) type.  The loop runs on chains, member
tuples in increasing dimension, with no ``Flag`` built: the first is
(0, U, V) with the space's one 0 and one V, and its twist is the tuple
of the members' twists.  Each ``symplectic.refine`` step returns the
next chain, already in order and checked as a chain, and the relative
position it starts from, both read off one rank table of ranks of
sums, which also tells which joins must be built; a stable chain comes
back as the same tuple, with no meet taken, which ends the loop.  The
per-step positions must reproduce the stabilizing sequence attached to
the label, and ``classify_fine`` asserts that (and self-duality of every
chain, by comparing complements with rows) unless ``check=False``.
Self-duality is checked on every point.  The sequence check reads only
integers, each step's dimensions and position, so it runs once per
distinct trace of them and is kept; a failing trace is not kept, and
fails each time it is met.  A Lagrangian point is its own complement, so its
Lagrangian check and the self-duality of every flag of its chain, whose
middle member it is, read that one complement.

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

from . import bedard, symplectic, weyl
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


def _refine_to_stable(
    u: Subspace, qexp: int
) -> list[tuple[tuple[Subspace, ...], WeylElement]]:
    """Each chain of the refinement D_0, D_1, ... with its position.

    A chain is its member tuple in increasing dimension, from the
    space's one 0 and one V; D_0 = (0, U, V) needs no containment check,
    as 0 and V hold every U.  The steps end at the stable chain; the
    position of D_k is its relative position with its twist, which the
    same ``refine`` call returns along with D_{k+1}, and ``refine``
    hands back D_k itself when D_k is stable.  A member that ``refine``
    keeps is the same object in D_{k+1}, so its twist is carried over,
    looked up by identity, and only new members are twisted.
    """
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    space = u.space
    c = space.n
    chain = (symplectic.zero_subspace(space), u, symplectic.full_subspace(space))
    twists: dict[int, Subspace] = {}
    steps = []
    for _ in range(2 * c * (c + 1) + 2):
        twisted = tuple([twists.get(id(m)) or m.twist(qexp) for m in chain])
        nxt, position = symplectic.refine(chain, twisted)
        steps.append((chain, position))
        if nxt is chain:
            return steps
        # the members of chain stay alive in steps, so their ids stay theirs
        twists = {id(m): t for m, t in zip(chain, twisted)}
        chain = nxt
    raise RuntimeError("flag refinement failed to stabilize")


def classify_fine(
    u: Subspace, qexp: int = 2, check: bool = True
) -> WeylElement:
    """Fine stratum label of a Lagrangian point.

    With ``check``, every chain of the refinement must be self-dual and
    the (position, type) of each step must follow the label's
    stabilizing sequence; RuntimeError otherwise.
    """
    steps = _refine_to_stable(u, qexp)
    if check:
        _check_against_sequence(steps, u.space.n)
    return steps[-1][1]


def _check_against_sequence(
    steps: list[tuple[tuple[Subspace, ...], WeylElement]], c: int
) -> None:
    if not all(symplectic._is_self_dual(chain) for chain, _ in steps):
        raise RuntimeError("refinement chain left the self-dual flags")
    _check_trace(
        c, tuple([(tuple([m.dim for m in chain]), pos.perm) for chain, pos in steps])
    )


@lru_cache(maxsize=None)
def _check_trace(
    c: int, trace: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
) -> None:
    """Each step's (dimensions, position) against the label's sequence.

    The label is the last position; it must be a minimal coset
    representative, and step k's flag type (read off its dimensions) and
    position must be the sequence's.  Only passing traces are kept, so a
    failing one raises RuntimeError again on every call.
    """
    label = WeylElement(c, trace[-1][1])
    I, F = bedard.siegel_frobenius(c)
    if not weyl.in_IW(label):
        raise RuntimeError("fine label escaped the minimal coset representatives")
    seq = bedard.sequence_for(label, I, F)
    for k, (dims, perm) in enumerate(trace):
        typ = weyl._type_of_dims(c, dims)
        if typ != seq.type_at(k):
            raise RuntimeError(
                f"step {k}: flag type {sorted(typ)} differs from the "
                f"sequence type {sorted(seq.type_at(k))}"
            )
        if perm != seq.u_at(k).perm:
            raise RuntimeError(
                f"step {k}: relative position {perm} differs from the "
                f"sequence value {seq.u_at(k).perm}"
            )


def classify_coarse(u: Subspace, qexp: int = 2) -> WeylElement:
    """Coarse label: the double-coset class of the unrefined position.

    The flag {0, U, V} and its twist both have the Siegel type, so the
    position ``relpos`` reads is already the shortest element of its
    (Siegel, Siegel) double coset.
    """
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    flag = Flag([u])
    return symplectic.relpos(flag, flag.twist(qexp))


@lru_cache(maxsize=None)
def census_space(c: int, p: int, m: int) -> SymplecticSpace:
    return SymplecticSpace(field(p, 2 * m), c)


@lru_cache(maxsize=None)
def _cached_lagrangians(c: int, p: int, m: int) -> tuple[Subspace, ...]:
    return tuple(symplectic.enumerate_lagrangians(census_space(c, p, m)))


CENSUS_POINT_LIMIT = 5_000_000


def bounded_total(c: int, p: int, m: int, what: str) -> int:
    """The point count over F_{p^{2m}}; ValueError above CENSUS_POINT_LIMIT.

    The count prod_{i=1..c} (q^i + 1) is multiplied up factor by factor
    and refused as soon as it passes the limit, so refusing a huge rank
    takes a few multiplications.
    """
    q = p ** (2 * m)
    total = 1
    for i in range(1, c + 1):
        total *= q**i + 1
        if total > CENSUS_POINT_LIMIT:
            raise ValueError(
                f"{what} of more than {CENSUS_POINT_LIMIT} points exceeds the desk-scale limit"
            )
    return total


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
    its label.  ValueError above CENSUS_POINT_LIMIT points.  The draws
    are the one use of numpy here, imported for them.
    """
    import numpy as np

    bounded_total(c, p, m, "equivariance check")
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
