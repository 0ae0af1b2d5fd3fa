"""Exact linear algebra over a FieldCtx, on integer-coded numpy arrays.

Matrices hold field-element codes (see gf.py); every routine is exact.
Row convention: a subspace is the row span of its matrix, and the
canonical form of a subspace is its reduced row echelon form, so equal
subspaces have byte-identical bases.
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
    a = np.array(mat, dtype=DTYPE, copy=True)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    nrows, ncols = a.shape
    add, mul, neg, inv = ctx.add, ctx.mul, ctx.neg, ctx.inv
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = mul[int(inv[piv]), a[r]]
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = add[a[rows], mul[neg[col[rows]][:, None], a[r][None, :]]]
        pivots.append(c)
        r += 1
    return np.ascontiguousarray(a[: len(pivots)]), tuple(pivots)


def row_space(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    return rref(ctx, mat)[0]


def rank(ctx: FieldCtx, mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return rref(ctx, mat)[0].shape[0]


def nullspace(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    """Canonical row basis of {x : mat @ x = 0} (x as column vectors)."""
    ncols = mat.shape[1]
    if mat.size == 0:
        return eye(ctx, ncols)
    r, pivots = rref(ctx, mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(len(free), ncols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = ctx.neg[r[j, fc]]
    return row_space(ctx, basis)


def matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of coded matrices."""
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    n, m = a.shape
    m2, l = b.shape
    if m != m2:
        raise ValueError("shape mismatch")
    out = zeros(n, l)
    add, mul = ctx.add, ctx.mul
    for t in range(m):
        out = add[out, mul[a[:, t][:, None], b[t][None, :]]]
    return out


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
    stacked = np.vstack([basis_rref, np.asarray(vec, dtype=DTYPE).reshape(1, -1)])
    return rank(ctx, stacked) == basis_rref.shape[0]
