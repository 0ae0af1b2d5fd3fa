"""Exact linear algebra over a FieldCtx, on rows of field-element codes.

A matrix is a sequence of rows, each a sequence of Python int codes (see
gf.py), and its column count is passed explicitly as ``ncols``, so a
matrix without rows still has a width.  Every routine that returns rows
returns a tuple of tuples: results can be shared, hashed and compared as
they are, and no caller can change rows that another holds.  Row
convention: a subspace is the row span of its matrix, and the canonical
form of a subspace is its reduced row echelon form, so equal subspaces
have equal row tuples.

The routines index the field's tables, which are nested tuples
(``FieldCtx.add_list`` and friends, ``frob_lists``) one entry at a time,
and use only the standard library, like ``gf``.  The matrices met here
are tiny and sparse, at most about 10 x 20 (a 2c-dimensional space, a
2g-dimensional module), and a point makes tens of them, so numpy
dispatch and array conversion would cost more than the lookups.  A
matrix comes in one of two forms.  Rows are the dense form, which the
classifying path eliminates: its rows are about three quarters nonzero.
``Entries`` keeps a matrix by each row's nonzero (column, code) pairs,
the form of a Dieudonné module's operators (see ``dieudonne``), whose
matrices and subspaces are mostly zero; ``rref_entries`` eliminates rows
kept as {column: code} maps, for the module's null spaces and F-images.
The one array view is the read-only ``symplectic.Subspace.basis``.  The
cost is one lookup chain per entry touched:

* ``rref`` costs about rank x rows x columns; a rank is the number of
  its pivots;
* ``rref_entries`` reduces each row only at the pivots it holds and
  clears each new pivot only from the rows that hold it, one lookup
  chain per nonzero entry of the rows it combines, so zero entries
  cost nothing;
* ``nullspace`` takes the matrix by its entries and is one
  ``rref_entries`` elimination, with last-column pivots, whose null
  vectors are already the canonical basis;
* ``matmul`` sums scaled rows of b, one lookup chain per nonzero entry
  of a times the columns of b, so zero entries cost nothing;
* ``insertion_ranks`` removes from each vector its part in the span of
  a reduced basis, one combination of the basis rows with the vector's
  entries at their pivots as coefficients (reduced rows vanish at each
  other's pivots), and reduces what is left against the rows the call
  appended; each nonzero remainder becomes a new echelon row.  So the
  ranks of a growing stack cost one pass per vector and no
  elimination, and a vector equal to its combination, as every vector
  of a contained subspace is, costs one comparison after it.  A vector
  lies in the span exactly when it adds no row, which is how
  ``Subspace.contains`` tests containment.

Table-driven row reduction over GF(p^k) follows the ``galois`` package
(https://github.com/mhostetter/galois).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .gf import FieldCtx

Rows = tuple[tuple[int, ...], ...]
# A matrix kept by its nonzero entries: for each row, the (column, value)
# pairs, values nonzero codes.
Entries = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def identity(n: int) -> Rows:
    """The rows of the n x n identity matrix."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rref(
    ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int
) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form; returns (basis without zero rows, pivots)."""
    rows = list(rows)
    nrows = len(rows)
    add, mul, neg, inv = ctx.add_list, ctx.mul_list, ctx.neg_list, ctx.inv_list
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        piv = prow[c]
        if piv != 1:
            scale = mul[inv[piv]]
            prow = [scale[x] for x in prow]
        rows[r] = prow
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                fneg = mul[neg[f]]
                rows[j] = [add[x][fneg[y]] for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows[:r])), tuple(pivots)


def rref_entries(
    ctx: FieldCtx,
    rows: Iterable[dict[int, int]],
    lead: Callable[[dict[int, int]], int] = min,
) -> dict[int, dict[int, int]]:
    """Gauss-Jordan elimination of rows kept as {column: code} maps.

    Each map holds a row's nonzero entries, and is consumed: rows are
    reduced in place, one at a time.  The rows kept so far are 1 at
    their own pivots and zero at each other's, so a new row is reduced
    only at the pivots it holds, one scaled row each, which leaves it
    zero at every pivot; zero entries cost nothing.  What is left, if
    anything, is scaled to 1 at its ``lead`` column, which becomes its
    pivot, and cleared from the kept rows that hold that column.  A
    row's pivot is its first nonzero column (``min``, the reduced row
    echelon form) or its last (``max``, the same form with the columns
    read right to left), and stays so: a row cleared at a column
    beyond its pivot keeps that pivot.  Returns each pivot mapped to
    the other nonzero entries of its row, in the order the pivots were
    found.
    """
    add, mul, neg, inv = ctx.add_list, ctx.mul_list, ctx.neg_list, ctx.inv_list
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        held = [c for c in row if c in reduced] if reduced else ()
        for c in held:
            fneg = mul[neg[row.pop(c)]]
            for j, y in reduced[c].items():
                row[j] = add[row.get(j, 0)][fneg[y]]
        if held and 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if not row:
            continue
        c = lead(row)
        x = row.pop(c)
        if x != 1:
            scale = mul[inv[x]]
            row = {j: scale[y] for j, y in row.items()}
        for pc, prow in reduced.items():
            f = prow.pop(c, 0)
            if f:
                fneg = mul[neg[f]]
                for j, y in row.items():
                    prow[j] = add[prow.get(j, 0)][fneg[y]]
                if 0 in prow.values():
                    reduced[pc] = {j: y for j, y in prow.items() if y}
        reduced[c] = row
    return reduced


def nullspace(ctx: FieldCtx, rows: Entries, ncols: int) -> Rows:
    """Canonical row basis of {x : mat @ x = 0} (x as column vectors),
    for a matrix kept by its nonzero (column, code) entries per row.

    One elimination (``rref_entries``) of the nonempty rows, with each
    row's last nonzero column as its pivot; an empty row adds nothing
    to it, so no map is built for one.  The null vector of a free column f is then 1
    at f and nonzero elsewhere only at pivot columns right of f, each
    minus the entry at f of that pivot's row; it leads with f, which is
    zero in every other vector, so taken by increasing free column the
    vectors are already the reduced row echelon basis.
    """
    reduced = rref_entries(ctx, (dict(row) for row in rows if row), max)
    neg = ctx.neg_list
    basis = {fc: [0] * ncols for fc in range(ncols) if fc not in reduced}
    for pc, tail in reduced.items():
        for fc, x in tail.items():
            basis[fc][pc] = neg[x]
    for fc, vec in basis.items():
        vec[fc] = 1
    return tuple(map(tuple, basis.values()))


def matmul(
    ctx: FieldCtx, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], ncols: int
) -> Rows:
    """Exact product of coded matrices; ``ncols`` is the width of b.

    Row i of the product is the sum of the rows b[k] scaled by the
    nonzero entries a[i][k]; zero entries of a cost nothing.
    """
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    add, mul = ctx.add_list, ctx.mul_list
    zero = (0,) * ncols
    out = []
    for arow in a:
        acc = None
        for x, brow in zip(arow, b):
            if not x:
                continue
            # most nonzeros are 1 (pivots of RREF bases, the module's
            # identity blocks), which need no scaling
            if x == 1:
                acc = brow if acc is None else [add[s][y] for s, y in zip(acc, brow)]
            else:
                scale = mul[x]
                if acc is None:
                    acc = [scale[y] for y in brow]
                else:
                    acc = [add[s][scale[y]] for s, y in zip(acc, brow)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def frob_map(ctx: FieldCtx, rows: Sequence[Sequence[int]], r: int) -> Rows:
    """Entrywise p^r-power; exact and bijective for any integer r."""
    table = ctx.frob_lists[r % ctx.k].__getitem__
    return tuple([tuple(map(table, row)) for row in rows])


def insertion_ranks(
    ctx: FieldCtx,
    basis: Sequence[Sequence[int]],
    pivots: Sequence[int],
    vectors: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """The rank of the basis with vectors[:i + 1] added, for each i.

    ``basis`` must be in reduced row echelon form with these pivots.
    Its rows vanish at each other's pivots and are 1 at their own, so a
    vector's part in their span is one combination, read off the
    vector's entries at the pivots; a first coefficient of 1 takes the
    row as it is, with no arithmetic.  A vector equal to that
    combination lies in the span and adds no row.  Any other vector
    leaves the difference, which is zero at every pivot of the basis;
    it is reduced against the rows this call appended, in the order
    they were taken (each is zero at the pivots of those before it, so
    that order clears each pivot for good), and a nonzero remainder
    joins them as a new row, normalized at its first nonzero entry,
    which becomes its pivot.  Once the rows span the whole space, the
    remaining vectors are not reduced.
    """
    add, mul, neg, inv = ctx.add_list, ctx.mul_list, ctx.neg_list, ctx.inv_list
    base = list(zip(pivots, basis))
    added: list[tuple[int, list[int]]] = []
    rank = len(base)
    out = []
    for vec in vectors:
        if rank < len(vec):
            comb = None
            for c, row in base:
                f = vec[c]
                if f:
                    if comb is None:
                        comb = row if f == 1 else [mul[f][y] for y in row]
                    else:
                        scale = mul[f]
                        comb = [add[x][scale[y]] for x, y in zip(comb, row)]
            if comb is None:
                rest = vec
            elif comb == vec or (type(comb) is not type(vec) and list(comb) == list(vec)):
                out.append(rank)
                continue
            else:
                rest = [add[x][neg[y]] for x, y in zip(vec, comb)]
            for c, row in added:
                f = rest[c]
                if f:
                    fneg = mul[neg[f]]
                    rest = [add[x][fneg[y]] for x, y in zip(rest, row)]
            for c, x in enumerate(rest):
                if x:
                    if x != 1:
                        scale = mul[inv[x]]
                        rest = [scale[y] for y in rest]
                    added.append((c, rest))
                    rank += 1
                    break
        out.append(rank)
    return tuple(out)
