"""Exact linear algebra over a FieldCtx, on integer-coded numpy arrays.

Matrices hold field-element codes (see gf.py); every routine is exact.
Row convention: a subspace is the row span of its matrix, and the
canonical form of a subspace is its reduced row echelon form, so equal
subspaces have byte-identical bases.

Elimination and products run on Python row lists that index the list
forms of the field tables (``FieldCtx.add_list`` and friends), not on
numpy arrays.  The matrices met here are tiny and sparse, at most about
10 x 20 (a 2c-dimensional space, a 2g-dimensional module, an augmented
inverse), so one numpy call per column costs far more in dispatch than
the table lookups it does.  The cost is one lookup chain per entry
touched, plus a fixed conversion to and from the int32 array:

* ``rref`` costs about rank x rows x columns, and so do ``rank``,
  ``row_space``, ``inverse`` and ``in_row_space``, one elimination each;
* ``nullspace`` is one elimination too, of the column-reversed matrix,
  whose null vectors are already the canonical basis;
* ``matmul`` sums scaled rows of b, one lookup chain per nonzero entry
  of a times the columns of b, so zero entries cost nothing.

Table-driven row reduction over GF(p^k) follows the ``galois`` package
(https://github.com/mhostetter/galois).
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx

DTYPE = np.int32


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=DTYPE)


def eye(ctx: FieldCtx, n: int) -> np.ndarray:
    m = zeros(n, n)
    np.fill_diagonal(m, 1)
    return m


def rref(ctx: FieldCtx, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (basis without zero rows, pivots)."""
    a = np.asarray(mat, dtype=DTYPE)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    nrows, ncols = a.shape
    rows = a.tolist()
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
    return np.array(rows[:r], dtype=DTYPE).reshape(r, ncols), tuple(pivots)


def row_space(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    return rref(ctx, mat)[0]


def rank(ctx: FieldCtx, mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return rref(ctx, mat)[0].shape[0]


def nullspace(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    """Canonical row basis of {x : mat @ x = 0} (x as column vectors).

    One elimination, of the column-reversed matrix.  In reversed order
    the null vector of a free column f is 1 at f and nonzero elsewhere
    only at pivot columns left of f; read back in the original order,
    each vector leads with its free column, which is zero in every
    other vector, so taken by increasing free column they are already
    the reduced row echelon basis.
    """
    ncols = mat.shape[1]
    if mat.size == 0:
        return eye(ctx, ncols)
    r, pivots = rref(ctx, mat[:, ::-1])
    rows = r.tolist()
    neg = ctx.neg_list
    last = ncols - 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(last, -1, -1):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[last - fc] = 1
        for row, pc in zip(rows, pivots):
            if pc > fc:
                break
            vec[last - pc] = neg[row[fc]]
        basis.append(vec)
    return np.array(basis, dtype=DTYPE).reshape(len(basis), ncols)


def matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of coded matrices.

    Row i of the product is the sum of the rows b[k] scaled by the
    nonzero entries a[i][k]; zero entries of a cost nothing.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    n, m = a.shape
    m2, l = b.shape
    if m != m2:
        raise ValueError("shape mismatch")
    add, mul = ctx.add_list, ctx.mul_list
    brows = b.tolist()
    out = []
    for arow in a.tolist():
        acc = None
        for x, brow in zip(arow, brows):
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
        out.append([0] * l if acc is None else acc)
    return np.array(out, dtype=DTYPE).reshape(n, l)


def mat_vec(ctx: FieldCtx, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return matmul(ctx, a, np.asarray(x, dtype=DTYPE).reshape(-1, 1))[:, 0]


def frob_map(ctx: FieldCtx, mat: np.ndarray, r: int) -> np.ndarray:
    """Entrywise p^r-power; exact and bijective for any integer r."""
    return ctx.frob_table(r)[np.asarray(mat, dtype=DTYPE)]


def inverse(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise ValueError("square matrix expected")
    aug = np.concatenate([np.asarray(mat, dtype=DTYPE), eye(ctx, n)], axis=1)
    r, pivots = rref(ctx, aug)
    if pivots[:n] != tuple(range(n)) or len(pivots) != n:
        raise ValueError("matrix is singular")
    return np.ascontiguousarray(r[:, n:])


def in_row_space(ctx: FieldCtx, basis_rref: np.ndarray, vec: np.ndarray) -> bool:
    """Membership test against an RREF basis."""
    stacked = np.concatenate(
        [basis_rref, np.asarray(vec, dtype=DTYPE).reshape(1, -1)]
    )
    return rank(ctx, stacked) == basis_rref.shape[0]
