"""Subspaces, flags and relative position in a symplectic space over F_q.

Conventions (recorded here because any symplectic change of basis
conjugates everything):

* there is one form: the Gram matrix J of ``SymplecticSpace(ctx, n)``
  is antidiagonal, +1 in rows 1..n and -1 in rows n+1..2n, with entries
  in the prime field, so the standard coordinate flag is self-dual and
  Frobenius twisting commutes with perp; the Dieudonné modules are
  written in coordinates where their pairing is this J too, so a
  product with J anywhere is a signed reversal of rows
  (``SymplecticSpace.times_form``), and a complement is
  read off reduced rows and pivots by index work alone;
* subspaces are row spans stored as their reduced row echelon rows, a
  tuple of tuples of codes with the pivot columns beside it; the rows
  are the equality and hash key.  Every function here returns rows
  (a group element too) and takes any integer rows, arrays included;
  the one array is ``Subspace.basis``, the same basis read-only, built
  on access, and numpy is imported for it alone;
* a chain is a tuple of subspaces in strictly increasing dimension,
  each containing the one before, from 0 to the full space V; a
  ``Flag`` is the validated public value of one, built from members in
  any order, and ``Flag.members`` is its chain; the classifier only
  ever produces self-dual chains;
* each space has one 0 and one V (``zero_subspace``, ``full_subspace``),
  each the other's complement, and every chain the classifier builds
  starts and ends with them.

Relative position is built directly from the rank table
dim(C_a cap D_b) = r_w(dim D_b, dim C_a) by ``weyl._position_of_table``,
the one reader of minimal double-coset representatives: its second
differences count the positions each block of one flag sends into each
block of the other, and every entry is re-checked against r_w of the
result; no representative is found by stripping descents.  The reader
keeps each position per distinct table and pair of dimension sets; a
table that fails is not kept.  The table itself is
read per pair of chains, off ranks of sums, dim C_a + dim D_b -
dim(C_a + D_b), with one insertion pass into the reduced rows of each
proper member of C (``linalg.insertion_ranks``), so no meet is built
for it.  The pass inserts, for each member D_b in turn, only its reduced
rows at the pivots D_{b-1} lacks: nested reduced subspaces have nested
pivot sets, and those rows extend D_{b-1} to D_b, so the vectors
inserted up to D_b are a basis of it and each rank is exact.
``relpos`` reads it for two flags, and ``refine``, the one refinement
step, for two chains: it returns its relative position along with the
refined chain, from the same table.
The table also gives the dimension of every join that refinement takes,
so a meet and its join are built only when the join's dimension lies
strictly between the two members it sits between; each distinct sum is
eliminated once per step, the refined chain comes out already in order,
with no sorting, and a chain the table shows stable comes back as the
same tuple.  ``refine`` checks the chain it builds: containment on its
lower half, then self-duality, which gives the upper half's
containments, since perp reverses inclusion.

The complement is the one duality primitive.  It is read off reduced
rows and pivots by index work alone, kept on the subspace, and
involutive: a complement records its source as its own complement, and
a Lagrangian is its own complement.  A meet is the complement of the
join of the complements, so it costs the one elimination of that join;
a subspace is Lagrangian when it has dimension n and is its own
complement; and a flag with symmetric dimensions is self-dual when the
complement of each member of its lower half has the rows of the member
of complementary dimension.  The Lagrangian check of a point and the
self-duality checks of its refinement flags, whose middle member it is,
share its one complement, which is the point itself; and J is
F_p-rational, so a Lagrangian's twist is built as its own complement,
and the meets against the twisted point take no index work for it.

Meets, joins, containment and complements answer the trivial cases
without any elimination, by lattice identities that hold for every
subspace X: X + 0 = X, X + X = X and X + V = V, 0 <= X <= V, and
0-perp = V, V-perp = 0 (V the whole space), so X cap 0 = 0, X cap X = X
and X cap V = X come back as the subspaces they are.  Every chain holds
0 and V, so many of the meets and joins that refinement builds are of
this kind.  Containment is one insertion pass of the smaller space's
rows into the larger's reduced rows (``linalg.insertion_ranks``), which
holds when no row is added.  No meet, containment or complement takes a
null space.

Per-point work runs on rows (see ``linalg``), and so does enumeration:
each point of a Schubert cell has its reduced rows written straight
from a template of the cell (``_cell_rows``), with no array between.

Subspaces and flags are immutable values (complements are computed
once, and a complement's complement is its source; the shared 0 and V
hold each other from the start, and no complement is ever re-pointed at
another 0 or V), so everything here can be shared across threads;
enumeration output order is deterministic.  A twist is its
Frobenius-mapped rows and pivots, 0 and V are their own twists, a
Lagrangian's twist is its own complement, and the twist of a chain is
the tuple of its members' twists, built without re-checking it.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from . import linalg, weyl
from .gf import FieldCtx, embed_table
from .weyl import WeylElement


class SymplecticSpace:
    """F_q^{2n} with the fixed antidiagonal alternating form J.

    ``gram_rows`` is J as rows.  J is +1 at (i, 2n-1-i) for i < n and
    -1 for i >= n, so a product with it is a signed reversal
    (``times_form``) and takes no arithmetic beyond negation.
    """

    def __init__(self, ctx: FieldCtx, n: int):
        if n < 1:
            raise ValueError("half-dimension must be positive")
        dim = 2 * n
        minus_one = ctx.neg_list[1]
        rows = []
        for i in range(dim):
            row = [0] * dim
            row[dim - 1 - i] = 1 if i < n else minus_one
            rows.append(tuple(row))
        self.ctx = ctx
        self.n = n
        self.dim = dim
        self.gram_rows = tuple(rows)
        # the one 0 and the one V of this space, each the other's complement
        self._zero = Subspace._from_rref(self, (), ())
        self._full = Subspace._from_rref(self, linalg.identity(dim), tuple(range(dim)))
        self._zero._perp, self._full._perp = self._full, self._zero

    def times_form(self, rows: Sequence[Sequence[int]]) -> linalg.Rows:
        """rows . J: each row reversed, with its first n entries negated."""
        neg, n = self.ctx.neg_list, self.n
        out = []
        for row in rows:
            rev = tuple(row[::-1])
            out.append(tuple([neg[x] for x in rev[:n]]) + rev[n:])
        return tuple(out)

    def __repr__(self) -> str:
        return f"SymplecticSpace(F_{self.ctx.q}, 2n={self.dim})"


class Subspace:
    """Row span of a reduced-row-echelon basis; equal spans have equal rows.

    ``rows`` is the reduced basis as a tuple of tuples of codes, and it
    is the equality and hash key; ``pivots`` are its pivot columns.
    ``basis`` is the same basis as a read-only int32 array of shape
    (dim, 2n), built on each access.
    """

    __slots__ = ("space", "rows", "pivots", "dim", "_perp")

    def __init__(self, space: SymplecticSpace, rows: Sequence):
        """The span of any rows, an array or a sequence of code rows.

        Raises ValueError unless the rows form a matrix of width 2n (an
        empty input is the zero subspace) of codes (``_code_rows``).
        """
        self._init(space, *linalg.rref(space.ctx, _code_rows(space, rows), space.dim))

    @classmethod
    def _from_rref(
        cls, space: SymplecticSpace, rows: linalg.Rows, pivots: tuple[int, ...] | None = None
    ) -> "Subspace":
        """The subspace of rows already in reduced row echelon form.

        Without ``pivots`` they are read off the rows: a reduced row is
        zero before its pivot, which is 1, so the pivot is its first 1.
        """
        obj = cls.__new__(cls)
        if pivots is None:
            pivots = tuple([row.index(1) for row in rows])
        obj._init(space, rows, pivots)
        return obj

    def _init(self, space: SymplecticSpace, rows: linalg.Rows, pivots: tuple[int, ...]) -> None:
        self.space = space
        self.rows = rows
        self.pivots = pivots
        self.dim = len(rows)
        self._perp = None

    @property
    def basis(self):
        """The reduced basis as a read-only int32 array, shape (dim, 2n)."""
        import numpy as np

        out = np.array(self.rows, dtype=np.int32).reshape(self.dim, self.space.dim)
        out.flags.writeable = False
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.space!r})"

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in self: a larger space never does, and
        otherwise its rows must reduce to zero against ours."""
        _check_same_space(self, other)
        if other.dim == 0 or self.dim == self.space.dim:
            return True
        if other.dim > self.dim:
            return False
        ranks = linalg.insertion_ranks(self.space.ctx, self.rows, self.pivots, other.rows)
        return ranks[-1] == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet, as the complement of the join of the complements.

        The form is nondegenerate, so (A-perp + B-perp)-perp = A cap B;
        each complement is index work, and the join is the one
        elimination.  The trivial meets X cap 0, X cap V and X cap X
        take none: the join and the complements answer them.
        """
        return (self.perp() + other.perp()).perp()

    def __add__(self, other: "Subspace") -> "Subspace":
        _check_same_space(self, other)
        full = self.space.dim
        if self.rows == other.rows or other.dim == 0 or self.dim == full:
            return self
        if self.dim == 0 or other.dim == full:
            return other
        return Subspace._from_rref(
            self.space, *linalg.rref(self.space.ctx, self.rows + other.rows, full)
        )

    def perp(self) -> "Subspace":
        """Orthogonal complement under the symplectic form; computed once.

        Read off the reduced rows and pivots, with no product and no
        elimination: C-perp is J^{-1} of the null space of C, and for
        each free column f of C, taken in decreasing order, its row is
        1 at 2n-1-f and +-C[r][f] at 2n-1-p_r for every pivot p_r < f,
        with the sign -1 when p_r and f lie on the same side of n.
        Those rows lead at the mirrored free columns and are zero at
        each other's leading columns, so they are the reduced rows.
        The form is nondegenerate, so perp is an involution: the
        complement records this subspace as its own complement, and
        asking it back costs nothing.  A subspace whose complement has
        its rows, a Lagrangian, is its own complement, with nothing new
        built.  The complement of any 0 or V is the space's one V or 0
        (``zero_subspace``, ``full_subspace``), whose own complements
        stay each other.
        """
        if self._perp is None:
            space = self.space
            if self.dim == 0:
                self._perp = space._full
            elif self.dim == space.dim:
                self._perp = space._zero
            else:
                neg, n, last = space.ctx.neg_list, space.n, space.dim - 1
                pivot_set = set(self.pivots)
                rows, pivots = [], []
                for f in range(last, -1, -1):
                    if f in pivot_set:
                        continue
                    vec = [0] * space.dim
                    vec[last - f] = 1
                    for row, p in zip(self.rows, self.pivots):
                        if p > f:
                            break
                        x = row[f]
                        if x:
                            vec[last - p] = neg[x] if (p < n) == (f < n) else x
                    rows.append(tuple(vec))
                    pivots.append(last - f)
                rows = tuple(rows)
                if rows == self.rows:
                    out = self
                else:
                    out = Subspace._from_rref(space, rows, tuple(pivots))
                out._perp = self
                self._perp = out
        return self._perp

    def twist(self, r: int) -> "Subspace":
        """Entrywise p^r power of the basis (echelon form and pivots are kept).

        0 and the whole space are their own twists, and come back as
        they are.  The form is F_p-rational, so the twist of the
        complement is the complement of the twist: the twist of a
        subspace known to be its own complement, a Lagrangian, is its
        own complement too, and is built knowing it, so a twisted
        point's complement takes no index work.  Any other complement
        is not carried over.
        """
        if self.dim == 0 or self.dim == self.space.dim:
            return self
        out = Subspace._from_rref(
            self.space, linalg.frob_map(self.space.ctx, self.rows, r), self.pivots
        )
        if self._perp is self:
            out._perp = out
        return out

    def is_lagrangian(self) -> bool:
        """Whether self has dimension n and is its own complement."""
        return self.dim == self.space.n and self.perp() is self

    def apply(self, matrix: Sequence) -> "Subspace":
        """Image under an invertible matrix (column-vector convention);
        ValueError unless it is 2n x 2n of codes and keeps self's dimension."""
        space = self.space
        mat = _code_rows(space, matrix, space.dim)
        image = linalg.matmul(space.ctx, self.rows, tuple(zip(*mat)), space.dim)
        out = Subspace._from_rref(space, *linalg.rref(space.ctx, image, space.dim))
        if out.dim < self.dim:
            raise ValueError(f"singular matrix: a {self.dim}-dimensional image has {out.dim}")
        return out


def _code_rows(
    space: SymplecticSpace, data: Sequence, height: int | None = None
) -> list[list[int]]:
    """data (lists, tuples or an array) as list rows of width 2n, and of
    the given height; ValueError on any other shape, ragged rows and an
    array of another width without rows included, and unless every entry
    is an integer code in [0, q) by ``operator.index``: floats, strings,
    bools and out-of-range integers are refused, not truncated, parsed,
    read as 0 and 1, or wrapped."""
    width, q = space.dim, space.ctx.q
    try:
        rows = [list(row) for row in data]
    except TypeError:
        rows = [[]]
    if (
        height not in (None, len(rows))
        or any(len(row) != width for row in rows)
        or (not rows and getattr(data, "shape", (0,)) not in ((0,), (0, width)))
    ):
        want = f"{height} x {width}" if height is not None else f"k x {width}"
        if hasattr(data, "shape"):
            raise ValueError(f"array of shape {data.shape} is not {want}")
        raise ValueError(f"input with row lengths {[len(row) for row in rows]} is not {want}")
    for row in rows:
        for i, x in enumerate(row):
            try:
                row[i] = -1 if isinstance(x, bool) else operator.index(x)
            except TypeError:
                row[i] = -1
            if not 0 <= row[i] < q:
                raise ValueError(f"row entries are not codes of F_{q}")
    return rows


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.space is not b.space:
        raise ValueError("subspaces live in different ambient spaces")


def zero_subspace(space: SymplecticSpace) -> Subspace:
    """The one 0 of the space, shared; its complement is the one V."""
    return space._zero


def full_subspace(space: SymplecticSpace) -> Subspace:
    """The one V of the space, shared; its complement is the one 0."""
    return space._full


def _check_chain(members: Sequence[Subspace]) -> None:
    """ValueError unless the dimensions strictly increase and each member
    contains the one before: one insertion pass per pair, none when the
    smaller is 0 or the larger is V (``Subspace.contains``)."""
    for small, big in zip(members, members[1:]):
        if small.dim == big.dim:
            raise ValueError("two distinct members share a dimension: not a chain")
        if small.dim > big.dim:
            raise ValueError("member dimensions do not increase")
        if not big.contains(small):
            raise ValueError("members are not totally ordered by inclusion")


def _is_self_dual(members: Sequence[Subspace]) -> bool:
    """Whether the complement of every member of a chain is a member.

    With dimensions d_0 < ... < d_k symmetric about n that holds iff
    C_{d_i}-perp has the rows of C_{d_{k-i}} for every i <= k/2, and
    perp is an involution, so the pairs past the middle follow.  Each
    complement is read off reduced rows and kept on its member (see
    ``Subspace.perp``): a refinement chain's middle member is the
    Lagrangian the classifier already checked, its own complement, and
    the canonical closure has every member's complement already.
    """
    full = members[0].space.dim
    if any(a.dim + b.dim != full for a, b in zip(members, reversed(members))):
        return False
    return all(
        low.perp().rows == high.rows
        for low, high in zip(members[1 : (len(members) + 1) // 2], members[-2::-1])
    )


class Flag:
    """A strictly increasing chain of subspaces from 0 to the full space.

    The validated public form of a chain: the members may come in any
    order, 0 and V are added when missing, and the chain is checked by
    ``_check_chain``.  ``members`` is the chain as a tuple in increasing
    dimension, the form ``refine`` takes and returns.
    """

    __slots__ = ("space", "members", "dims", "_key")

    def __init__(self, members: Iterable[Subspace]):
        members = sorted(set(members), key=lambda s: (s.dim, s.rows))
        if not members:
            raise ValueError("empty flag")
        space = members[0].space
        if any(m.space is not space for m in members):
            raise ValueError("flag members live in different ambient spaces")
        if members[0].dim != 0:
            members.insert(0, zero_subspace(space))
        if members[-1].dim != space.dim:
            members.append(full_subspace(space))
        _check_chain(members)
        self.space = space
        self.members = tuple(members)
        self.dims = tuple([m.dim for m in members])
        self._key = tuple(m.rows for m in members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flag) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Flag(dims={self.dims})"

    def twist(self, r: int) -> "Flag":
        """The flag of the members' twists.

        Frobenius maps a chain to a chain of the same dimensions, in the
        same order, so the result is built as it is, with no re-check.
        """
        out = Flag.__new__(Flag)
        out.space = self.space
        out.members = tuple([m.twist(r) for m in self.members])
        out.dims = self.dims
        out._key = tuple([m.rows for m in out.members])
        return out

    def is_self_dual(self) -> bool:
        """Whether the complement of every member is a member (``_is_self_dual``)."""
        return _is_self_dual(self.members)


def flag_type(flag: Flag) -> frozenset[int]:
    """Generator indices not cut by the flag's dimension set."""
    return weyl._type_of_dims(flag.space.n, flag.dims)


def relpos(flag_c: Flag, flag_d: Flag) -> WeylElement:
    """The minimal double-coset representative matching the rank table.

    With T(a, b) = dim(C_a cap D_b) = r_w(dim D_b, dim C_a), the
    position is read off T and every entry re-checked by
    ``weyl._position_of_table``; a table that is not the table of a Weyl
    element raises RuntimeError, on every call.  The reading and the
    re-check run once per distinct table and pair of dimension sets,
    which is all they depend on.
    Both flags must have symmetric dimension sets, as self-dual flags
    do.  The argument order in r_w is what makes the normalization
    match the coset machinery: for the standard flag E and a permuted
    standard flag vE it returns v itself, not its inverse (the two
    conventions agree on every self-inverse position, so only genuinely
    asymmetric pairs are sensitive to it).  The table is read off ranks
    of sums (see ``_rank_table``), so no meet is built.
    """
    return _table_and_position(flag_c.members, flag_d.members)[1]


def _rank_table(
    chain_c: Sequence[Subspace], chain_d: Sequence[Subspace]
) -> list[list[int]]:
    """T[a][b] = dim(C_a cap D_b) = dim C_a + dim D_b - dim(C_a + D_b).

    The members of chain_d are nested, so C_a + D_b is the span of C_a
    and D_b, and one insertion pass of rows spanning D_1, ..., D_b in
    turn into the reduced rows of C_a (``linalg.insertion_ranks``) gives
    dim(C_a + D_b) for every b.  Those rows are, for each D_b, only its
    reduced rows at the pivots D_{b-1} lacks.  A nonzero vector of a
    reduced subspace leads at one of its pivots, so nested reduced
    subspaces have nested pivot sets, and the dim D_b - dim D_{b-1} rows
    at the new pivots extend D_{b-1} to D_b: a combination of them is
    zero at every pivot of D_{b-1} (reduced rows vanish at each other's
    pivots), so it lies in D_{b-1} only when it is 0.  The first dim D_b
    rows inserted are thus a basis of D_b, and every entry is exact.  The
    rows for 0 and for the whole space, and the columns for 0 and for
    the whole space, need no pass.
    """
    ctx = chain_c[0].space.ctx
    ddims = [dm.dim for dm in chain_d]
    vectors = []
    held: tuple[int, ...] = ()
    for dm in chain_d[1:-1]:
        vectors.extend([row for row, p in zip(dm.rows, dm.pivots) if p not in held])
        held = dm.pivots
    table = [[0] * len(ddims)]
    for cm in chain_c[1:-1]:
        ranks = linalg.insertion_ranks(ctx, cm.rows, cm.pivots, vectors)
        row = [0]
        # D_b's last row is vector dim D_b - 1
        row.extend([cm.dim + d - ranks[d - 1] for d in ddims[1:-1]])
        row.append(cm.dim)
        table.append(row)
    table.append(ddims)
    return table


def _table_and_position(
    chain_c: Sequence[Subspace], chain_d: Sequence[Subspace]
) -> tuple[list[list[int]], WeylElement]:
    """The rank table (row a, column b) of two chains and the position it gives.

    The table is read per pair of chains; the position is a function of
    the table and the two dimension sets alone, so it is read and
    re-checked once per distinct table (``weyl._position_of_table``).
    """
    space = chain_c[0].space
    if space is not chain_d[0].space:
        raise ValueError("flags live in different spaces")
    table = _rank_table(chain_c, chain_d)
    key = tuple(map(tuple, table))
    cdims = tuple([cm.dim for cm in chain_c])
    # the last row of the table is the dimensions of chain_d
    return table, weyl._position_of_table(space.n, cdims, key[-1], key)


def _join(a: Subspace, b: Subspace, sums: dict) -> Subspace:
    """a + b, kept in ``sums`` so that each distinct sum is eliminated once."""
    key = frozenset((a, b))
    out = sums.get(key)
    if out is None:
        out = sums[key] = a + b
    return out


def _meet(a: Subspace, b: Subspace, sums: dict) -> Subspace:
    """a cap b = (a-perp + b-perp)-perp (``Subspace.intersect``), with its
    sum kept in ``sums``."""
    return _join(a.perp(), b.perp(), sums).perp()


def refine(
    chain_c: tuple[Subspace, ...], chain_d: tuple[Subspace, ...]
) -> tuple[tuple[Subspace, ...], WeylElement]:
    """The chain generated by (C_{i+1} cap D_j) + C_i, which refines
    chain_c, and the relative position of the two chains, both from one
    rank table.

    A chain is a tuple of members from 0 to V in increasing dimension
    (``Flag.members``, or a chain this returns).  The table fixes the
    dimension of each join: C_i lies in C_{i+1}, so (C_{i+1} cap D_j)
    cap C_i = C_i cap D_j and the join has dimension T(C_{i+1}, D_j) +
    dim C_i - T(C_i, D_j).  A join of dimension dim C_i is C_i, one of
    dimension dim C_{i+1} is C_{i+1}, and for a fixed i the joins grow
    with j, so two of the same dimension are equal.  Only the first join
    of each dimension strictly between is built, with its meet, and the
    refined chain comes out in order: C_i, its joins by increasing
    dimension, C_{i+1}.  Each distinct sum, of complements for a meet or
    of a meet and C_i for a join, is eliminated once per call, so U + U'
    serves both the meet U cap U' and the join U' + U.  Each join must
    have the table's dimension, and the refined chain must be a
    self-dual chain; RuntimeError otherwise.  That is checked here, where
    the chain is built, in two steps: ``_check_chain`` on its lower half,
    through the first member of dimension >= n, and then
    ``_is_self_dual``.  The containments of the upper half follow: perp
    reverses inclusion, so an upper step X-perp in Y-perp is the lower
    step Y in X.  A chain with an even number of members has no middle
    member, and its lower half still holds the step across the middle, X
    in X-perp.  Containment runs first, so a join that breaks it reads
    "not a chain".  When no join lies strictly between, chain_c is
    stable and comes back as the same tuple, with no meet taken and
    nothing checked again.
    """
    table, position = _table_and_position(chain_c, chain_d)
    sums: dict = {}
    out = [chain_c[0]]
    for lower, upper, lower_row, upper_row in zip(chain_c, chain_c[1:], table, table[1:]):
        last = lower.dim
        for dm, lower_meet, upper_meet in zip(chain_d, lower_row, upper_row):
            dim = upper_meet + lower.dim - lower_meet
            if dim != last and dim != upper.dim:
                join = _join(_meet(upper, dm, sums), lower, sums)
                if join.dim != dim:
                    raise RuntimeError(
                        f"a join has dimension {join.dim}, the rank table says {dim}"
                    )
                out.append(join)
                last = dim
        out.append(upper)
    if len(out) == len(chain_c):
        return chain_c, position
    out = tuple(out)
    try:
        _check_chain(out[: len(out) // 2 + 1])
    except ValueError as exc:
        raise RuntimeError(f"refined members are not a chain: {exc}") from exc
    if not _is_self_dual(out):
        raise RuntimeError("refined chain is not self-dual")
    return out, position


# -- Lagrangian enumeration ----------------------------------------------


def _admissible_pivot_sets(n: int) -> list[tuple[int, ...]]:
    """Pivot column sets containing one member of each pair {c, 2n-1-c}."""
    sets = []
    for mask in range(2**n):
        cols = [
            (2 * n - 1 - i) if (mask >> i) & 1 else i for i in range(n)
        ]
        sets.append(tuple(sorted(cols)))
    return sorted(set(sets))


@lru_cache(maxsize=None)
def _cell_descriptors(
    n: int,
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]], ...]:
    """Per admissible pivot set, the free-parameter slots (row, col, mate).

    Both pivot columns of a Gram pair cannot carry pivots of an isotropic
    subspace, and on the admissible patterns the isotropy constraints
    pair each above-antidiagonal entry with its mirror, one free
    parameter per pair, so every cell is an affine space.  The cells
    depend on n alone, so they are built once per rank.
    """
    two_n = 2 * n
    out = []
    for pivots in _admissible_pivot_sets(n):
        mirror = {r: two_n - 1 - p for r, p in enumerate(pivots)}
        pivot_row = {p: r for r, p in enumerate(pivots)}
        param_slots = []
        for r in range(n):
            for s in range(r + 1):
                col = mirror[s]
                if col > pivots[r] and col not in pivot_row:
                    param_slots.append((r, col, s))
        out.append((pivots, tuple(param_slots)))
    return tuple(out)


def _cell_rows(
    space: SymplecticSpace,
    pivots: tuple[int, ...],
    param_slots: Sequence[tuple[int, int, int]],
    params: Iterable[Sequence[int]],
) -> Iterator[linalg.Rows]:
    """The reduced rows of the cell's point for each parameter tuple.

    Each point is written into a flat template of its n rows: 1 at each
    pivot, each parameter at its slot, and, when the slot's mate is an
    earlier row s, the parameter again at (s, 2n-1-p_r), negated exactly
    when p_s and that column lie on the same side of n, which makes the
    rows isotropic.
    """
    n, two_n = space.n, space.dim
    template = [0] * (n * two_n)
    for r, p in enumerate(pivots):
        template[r * two_n + p] = 1
    plain, negated = [], []  # (parameter index, flat position)
    for i, (r, col, s) in enumerate(param_slots):
        plain.append((i, r * two_n + col))
        if s < r:
            mirror = two_n - 1 - pivots[r]
            same_side = (pivots[s] < n) == (mirror < n)
            (negated if same_side else plain).append((i, s * two_n + mirror))
    neg = space.ctx.neg_list
    starts = range(0, n * two_n, two_n)
    for values in params:
        flat = template[:]
        for i, pos in plain:
            flat[pos] = values[i]
        for i, pos in negated:
            flat[pos] = neg[values[i]]
        yield tuple([tuple(flat[a : a + two_n]) for a in starts])


def expected_total(c: int, q: int) -> int:
    """prod_{i=1..c} (q^i + 1), the number of Lagrangians in F_q^{2c}."""
    total = 1
    for i in range(1, c + 1):
        total *= q**i + 1
    return total


def count_lagrangians(space: SymplecticSpace) -> int:
    q = space.ctx.q
    return sum(q ** len(slots) for _, slots in _cell_descriptors(space.n))


def enumerate_lagrangians(space: SymplecticSpace) -> list[Subspace]:
    """All maximal isotropic subspaces, in a fixed deterministic order.

    Every Lagrangian appears exactly once, already in reduced form: the
    cells in descriptor order, and within a cell the parameter tuples
    in lexicographic order, the last slot fastest.  The count is checked
    against prod(q^i + 1) before returning.
    """
    q = space.ctx.q
    out = []
    for pivots, slots in _cell_descriptors(space.n):
        params = product(range(q), repeat=len(slots))
        for rows in _cell_rows(space, pivots, slots, params):
            out.append(Subspace._from_rref(space, rows, pivots))
    expected = expected_total(space.n, q)
    if len(out) != expected:
        raise RuntimeError(
            f"enumerated {len(out)} Lagrangians, expected {expected}"
        )
    return out


# -- random symplectic transformations -----------------------------------


def random_symplectic(space: SymplecticSpace, rng) -> linalg.Rows:
    """The rows of a pseudorandom element of Sp(2n, q), a product of
    transvections drawn from the numpy Generator ``rng``."""
    ctx = space.ctx
    add, mul = ctx.add_list, ctx.mul_list
    two_n = space.dim
    g = linalg.identity(two_n)
    factors = 0
    while factors < 3 * two_n:
        v = rng.integers(0, ctx.q, size=two_n).tolist()
        if not any(v):
            continue
        lam = int(rng.integers(1, ctx.q))
        # t = 1 + lam v a^T with a = G^T v: row i is unit row i plus
        # (lam v_i) a
        (a,) = space.times_form([v])
        t = tuple(
            tuple([add[e][scale[x]] for e, x in zip(unit, a)])
            for unit, scale in zip(linalg.identity(two_n), (mul[mul[lam][vi]] for vi in v))
        )
        g = linalg.matmul(ctx, t, g, two_n)
        factors += 1
    gt = tuple(zip(*g))
    prod = linalg.matmul(ctx, space.times_form(gt), g, two_n)
    if prod != space.gram_rows:
        raise RuntimeError("transvection product failed to preserve the form")
    return g


def embed_matrix(mat: Sequence[Sequence[int]], src: FieldCtx, dst: FieldCtx) -> linalg.Rows:
    """The rows of mat with the fixed field embedding applied entrywise."""
    table = embed_table(src, dst).__getitem__
    return tuple([tuple(map(table, row)) for row in mat])


def _randbelow(rng, n: int) -> int:
    """Uniform integer in [0, n) for arbitrarily large n (rejection)."""
    bits = n.bit_length()
    while True:
        r = 0
        for _ in range((bits + 62) // 63):
            r = (r << 63) | int(rng.integers(0, 1 << 63))
        r &= (1 << bits) - 1
        if r < n:
            return r


def random_lagrangian(space: SymplecticSpace, rng) -> Subspace:
    """A uniformly random Lagrangian: weighted random cell, random point,
    drawn from the numpy Generator ``rng``.

    Only one point's rows are written, so this scales to spaces whose
    full enumeration would not fit in memory (cell weights are exact
    Python integers, so large ranks do not overflow).
    """
    q = space.ctx.q
    cells = _cell_descriptors(space.n)
    weights = [q ** len(slots) for _, slots in cells]
    pick = _randbelow(rng, sum(weights))
    for (pivots, slots), w in zip(cells, weights):
        if pick < w:
            params = rng.integers(0, q, size=(1, len(slots))).tolist()
            (rows,) = _cell_rows(space, pivots, slots, params)
            return Subspace._from_rref(space, rows, pivots)
        pick -= w
    raise AssertionError("unreachable")
