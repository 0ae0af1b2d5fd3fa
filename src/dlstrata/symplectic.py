"""Subspaces, flags and relative position in a symplectic space over F_q.

Conventions (recorded here because any symplectic change of basis
conjugates everything):

* the Gram matrix of ``SymplecticSpace(ctx, n)`` is antidiagonal, +1
  in rows 1..n and -1 in rows n+1..2n, with entries in the prime field,
  so the standard coordinate flag is self-dual and Frobenius twisting
  commutes with perp;
* ``SymplecticSpace.from_gram`` gives a space any other alternating
  nondegenerate form (the pairing of a Dieudonné module); subspaces,
  complements and flags work in it alike, while Lagrangian enumeration,
  standard flags and the twist-perp commutation assume the antidiagonal
  form;
* subspaces are row spans stored in reduced row echelon form, making
  equality and hashing byte-exact;
* a flag is a strictly increasing chain containing 0 and the full
  space; the classifier only ever produces self-dual flags.

Relative position is built directly from the rank table
dim(C_a cap D_b) = r_w(dim D_b, dim C_a): its second differences count
the positions each block of one flag sends into each block of the
other, which fixes the minimal double-coset representative; every table
entry is then re-checked against r_w of the result.  The table holds
the dimensions of the meets ``refine`` takes, so a refinement step
returns its relative position along with the refined flag.

Meets, joins, containment and complements answer the trivial cases
without any elimination, by lattice identities that hold for every
subspace X: X cap 0 = 0 and X cap V = X, X + 0 = X and X + V = V,
0 <= X <= V, and 0-perp = V, V-perp = 0 (V the whole space).  Every
flag holds 0 and V, so most of the meets and joins that refinement
takes between two flags are of this kind.

Subspaces and flags are immutable values (cached complements are
computed once), so everything here can be shared across threads;
enumeration output order is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg, weyl
from .gf import FieldCtx, embed_table
from .linalg import DTYPE
from .weyl import WeylElement


class SymplecticSpace:
    """F_q^{2n} with an alternating nondegenerate form.

    ``SymplecticSpace(ctx, n)`` carries the fixed antidiagonal form; any
    other form comes through ``from_gram``.
    """

    def __init__(self, ctx: FieldCtx, n: int):
        if n < 1:
            raise ValueError("half-dimension must be positive")
        dim = 2 * n
        gram = linalg.zeros(dim, dim)
        minus_one = int(ctx.neg[1])
        for i in range(dim):
            gram[i, dim - 1 - i] = 1 if i < n else minus_one
        self._init_from_gram(ctx, gram)

    @classmethod
    def from_gram(cls, ctx: FieldCtx, gram: np.ndarray) -> "SymplecticSpace":
        """The space whose form has the given Gram matrix.

        The matrix must be square of positive even size, alternating
        (antisymmetric with zero diagonal) and nondegenerate; otherwise
        ValueError.
        """
        gram = np.array(gram, dtype=DTYPE)
        dim = gram.shape[0] if gram.ndim == 2 else 0
        if dim == 0 or dim % 2 or gram.shape != (dim, dim):
            raise ValueError("Gram matrix must be square of positive even size")
        if ctx.add[gram, gram.T].any() or gram.diagonal().any():
            raise ValueError("pairing is not alternating")
        if linalg.rank(ctx, gram) != dim:
            raise ValueError("pairing is degenerate")
        obj = cls.__new__(cls)
        obj._init_from_gram(ctx, gram)
        return obj

    def _init_from_gram(self, ctx: FieldCtx, gram: np.ndarray) -> None:
        gram.flags.writeable = False
        self.ctx = ctx
        self.n = gram.shape[0] // 2
        self.dim = gram.shape[0]
        self.gram = gram

    def pairing(self, x: np.ndarray, y: np.ndarray) -> int:
        gx = linalg.mat_vec(self.ctx, self.gram, np.asarray(y, dtype=DTYPE))
        acc = 0
        add, mul = self.ctx.add, self.ctx.mul
        for a, b in zip(np.asarray(x, dtype=DTYPE), gx):
            acc = int(add[acc, mul[int(a), int(b)]])
        return acc

    def __repr__(self) -> str:
        return f"SymplecticSpace(F_{self.ctx.q}, 2n={self.dim})"


class Subspace:
    """Row span of a reduced-row-echelon basis; equal spans are identical."""

    __slots__ = ("space", "basis", "dim", "_key", "_ann", "_perp")

    def __init__(self, space: SymplecticSpace, rows: np.ndarray | Sequence):
        mat = np.asarray(rows, dtype=DTYPE).reshape(-1, space.dim)
        basis, _ = linalg.rref(space.ctx, mat)
        self._init_from_rref(space, basis)

    @classmethod
    def _from_rref(cls, space: SymplecticSpace, basis: np.ndarray) -> "Subspace":
        obj = cls.__new__(cls)
        obj._init_from_rref(space, basis)
        return obj

    def _init_from_rref(self, space: SymplecticSpace, basis: np.ndarray) -> None:
        basis = np.ascontiguousarray(basis, dtype=DTYPE)
        basis.flags.writeable = False
        self.space = space
        self.basis = basis
        self.dim = basis.shape[0]
        self._key = basis.tobytes()
        self._ann = None
        self._perp = None

    # annihilator under the standard dot product, cached (not the form)
    @property
    def ann(self) -> np.ndarray:
        if self._ann is None:
            self._ann = linalg.nullspace(self.space.ctx, self.basis)
            self._ann.flags.writeable = False
        return self._ann

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.space!r})"

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0 or self.dim == self.space.dim:
            return True
        stacked = np.concatenate([self.basis, other.basis])
        return linalg.rank(self.space.ctx, stacked) == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        _check_same_space(self, other)
        full = self.space.dim
        if self._key == other._key or self.dim == 0 or other.dim == full:
            return self
        if other.dim == 0 or self.dim == full:
            return other
        joint = np.concatenate([self.ann, other.ann])
        return Subspace._from_rref(
            self.space, linalg.nullspace(self.space.ctx, joint)
        )

    def __add__(self, other: "Subspace") -> "Subspace":
        _check_same_space(self, other)
        full = self.space.dim
        if self._key == other._key or other.dim == 0 or self.dim == full:
            return self
        if self.dim == 0 or other.dim == full:
            return other
        stacked = np.concatenate([self.basis, other.basis])
        return Subspace._from_rref(
            self.space, linalg.rref(self.space.ctx, stacked)[0]
        )

    def perp(self) -> "Subspace":
        """Orthogonal complement under the symplectic form."""
        if self._perp is None:
            if self.dim == 0:
                self._perp = full_subspace(self.space)
            elif self.dim == self.space.dim:
                self._perp = zero_subspace(self.space)
            else:
                prod = linalg.matmul(self.space.ctx, self.basis, self.space.gram)
                self._perp = Subspace._from_rref(
                    self.space, linalg.nullspace(self.space.ctx, prod)
                )
        return self._perp

    def twist(self, r: int) -> "Subspace":
        """Entrywise p^r power of the basis (echelon form is preserved)."""
        return Subspace._from_rref(self.space, linalg.frob_map(self.space.ctx, self.basis, r))

    def is_isotropic(self) -> bool:
        g = linalg.matmul(self.space.ctx, self.basis, self.space.gram)
        return not linalg.matmul(self.space.ctx, g, self.basis.T).any()

    def is_lagrangian(self) -> bool:
        return self.dim == self.space.n and self.is_isotropic()

    def apply(self, matrix: np.ndarray) -> "Subspace":
        """Image under an invertible matrix (column-vector convention)."""
        return Subspace(self.space, linalg.matmul(self.space.ctx, self.basis, matrix.T))

    def to_coeffs(self) -> list[list[tuple[int, ...]]]:
        ctx = self.space.ctx
        return [[ctx.coeffs_of(int(c)) for c in row] for row in self.basis]


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.space is not b.space:
        raise ValueError("subspaces live in different ambient spaces")


def zero_subspace(space: SymplecticSpace) -> Subspace:
    return Subspace._from_rref(space, linalg.zeros(0, space.dim))


def full_subspace(space: SymplecticSpace) -> Subspace:
    return Subspace._from_rref(space, linalg.eye(space.ctx, space.dim))


class Flag:
    """A strictly increasing chain of subspaces from 0 to the full space."""

    __slots__ = ("space", "members", "dims", "_key")

    def __init__(self, members: Iterable[Subspace]):
        members = sorted(set(members), key=lambda s: (s.dim, s._key))
        if not members:
            raise ValueError("empty flag")
        space = members[0].space
        if members[0].dim != 0:
            members.insert(0, zero_subspace(space))
        if members[-1].dim != space.dim:
            members.append(full_subspace(space))
        dims = [m.dim for m in members]
        if len(set(dims)) != len(dims):
            raise ValueError("two distinct members share a dimension: not a chain")
        for small, big in zip(members, members[1:]):
            if not big.contains(small):
                raise ValueError("members are not totally ordered by inclusion")
        self.space = space
        self.members = tuple(members)
        self.dims = tuple(dims)
        self._key = tuple(m._key for m in members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flag) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Flag(dims={self.dims})"

    def twist(self, r: int) -> "Flag":
        return Flag(m.twist(r) for m in self.members)

    def apply(self, matrix: np.ndarray) -> "Flag":
        return Flag(m.apply(matrix) for m in self.members)

    def is_self_dual(self) -> bool:
        keys = {m._key for m in self.members}
        return all(m.perp()._key in keys for m in self.members)


def flag_type(flag: Flag) -> frozenset[int]:
    """Generator indices not cut by the flag's dimension set."""
    n = flag.space.n
    dims = set(flag.dims)
    return frozenset(
        i for i in range(1, n + 1) if i not in dims and 2 * n - i not in dims
    )


def standard_flag(space: SymplecticSpace, dims: Iterable[int]) -> Flag:
    """Coordinate flag with the given (symmetric) proper dimension set."""
    dims = sorted(set(dims))
    if any(d <= 0 or d >= space.dim for d in dims):
        raise ValueError("proper dimensions expected")
    if any(space.dim - d not in dims for d in dims):
        raise ValueError("dimension set must be symmetric for a self-dual flag")
    eye = linalg.eye(space.ctx, space.dim)
    return Flag([Subspace._from_rref(space, eye[:d]) for d in dims])


def relpos(flag_c: Flag, flag_d: Flag) -> WeylElement:
    """The minimal double-coset representative matching the rank table.

    With T(a, b) = dim(C_a cap D_b), the second difference of T over a
    block (d_{k-1}, d_k] of flag_d dimensions and a block (c_{l-1}, c_l]
    of flag_c dimensions counts the positions of the first block that w
    sends into the second (Fulton, Duke 1992).  Filling each flag_d
    block in increasing order with the next unused values of each
    flag_c block gives the representative that increases on every block
    of both, which is the minimal one.  Every table entry is then
    re-checked as dim(C_a cap D_b) = r_w(dim D_b, dim C_a); a table that
    is not the table of a Weyl element (a negative count, a permutation
    that is not symmetric, or a mismatched entry) raises RuntimeError.
    Both flags must have symmetric dimension sets, as self-dual flags
    do.  The argument order in r_w is what makes the normalization
    match the coset machinery: for the standard flag E and a permuted
    standard flag vE it returns v itself, not its inverse (the two
    conventions agree on every self-inverse position, so only genuinely
    asymmetric pairs are sensitive to it).  The table holds the
    dimensions of the meets ``refine`` takes.
    """
    return _meets_and_position(flag_c, flag_d)[1]


def _meets_and_position(
    flag_c: Flag, flag_d: Flag
) -> tuple[list[list[Subspace]], WeylElement]:
    """Every meet C_a cap D_b (row a, column b) and the position they give."""
    if flag_c.space is not flag_d.space:
        raise ValueError("flags live in different spaces")
    space = flag_c.space
    for flag in (flag_c, flag_d):
        dims = set(flag.dims)
        if any(space.dim - d not in dims for d in dims):
            raise ValueError(f"dimension set {flag.dims} is not symmetric")
    grid = [[cm.intersect(dm) for dm in flag_d.members] for cm in flag_c.members]
    table = {
        (cm.dim, dm.dim): meet.dim
        for cm, row in zip(flag_c.members, grid)
        for dm, meet in zip(flag_d.members, row)
    }
    cdims, ddims = flag_c.dims, flag_d.dims
    used = list(cdims[:-1])  # last value taken from each flag_c block
    perm: list[int] = []
    for d0, d1 in zip(ddims, ddims[1:]):
        for l, (c0, c1) in enumerate(zip(cdims, cdims[1:])):
            count = table[c1, d1] - table[c1, d0] - table[c0, d1] + table[c0, d0]
            if count < 0:
                raise RuntimeError(
                    f"rank table gives {count} positions from block "
                    f"({d0}, {d1}] into block ({c0}, {c1}]"
                )
            perm.extend(range(used[l] + 1, used[l] + count + 1))
            used[l] += count
    try:
        w = WeylElement(space.n, tuple(perm))
    except ValueError as exc:
        raise RuntimeError(f"rank table is not the table of a Weyl element: {exc}") from exc
    for (i, j), v in table.items():
        if weyl.r_w(w, j, i) != v:
            raise RuntimeError(
                f"rank table entry dim(C_{i} cap D_{j}) = {v} differs from "
                f"r_w = {weyl.r_w(w, j, i)} for w = {w.perm}"
            )
    return grid, w


def refine(flag_c: Flag, flag_d: Flag) -> tuple[Flag, WeylElement]:
    """The chain generated by (C_{i+1} cap D_j) + C_i, which refines
    flag_c, and relpos(flag_c, flag_d), both from one grid of meets."""
    grid, position = _meets_and_position(flag_c, flag_d)
    members = set(flag_c.members)
    for lower, row in zip(flag_c.members, grid[1:]):
        for meet in row:
            members.add(meet + lower)
    return Flag(members), position


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


def _cell_descriptors(
    space: SymplecticSpace,
) -> list[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
    """Per admissible pivot set, the free-parameter slots (row, col, mate).

    Both pivot columns of a Gram pair cannot carry pivots of an isotropic
    subspace, and on the admissible patterns the isotropy constraints
    pair each above-antidiagonal entry with its mirror, one free
    parameter per pair, so every cell is an affine space.
    """
    n = space.n
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
        out.append((pivots, param_slots))
    return out


def _fill_cell(
    space: SymplecticSpace,
    pivots: tuple[int, ...],
    param_slots: list[tuple[int, int, int]],
    combos: np.ndarray,
) -> np.ndarray:
    """Canonical bases from parameter rows; isotropy is built in."""
    ctx = space.ctx
    n = space.n
    two_n = 2 * n

    def eps(c: int) -> int:
        return 1 if c < n else -1

    mirror = {r: two_n - 1 - p for r, p in enumerate(pivots)}
    block = np.zeros((combos.shape[0], n, two_n), dtype=DTYPE)
    for r, p in enumerate(pivots):
        block[:, r, p] = 1
    for idx, (r, col, s) in enumerate(param_slots):
        block[:, r, col] = combos[:, idx]
        if s < r:
            # mirrored entry in the earlier row is determined
            vals = combos[:, idx]
            coeff = -eps(pivots[s]) * eps(mirror[r])
            block[:, s, mirror[r]] = vals if coeff == 1 else ctx.neg[vals]
    return block


def lagrangian_cells(
    space: SymplecticSpace,
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (pivots, bulk array of RREF bases) per Schubert cell.

    Every Lagrangian appears exactly once, already in canonical echelon
    form, so no deduplication is needed downstream.
    """
    ctx = space.ctx
    q = ctx.q
    for pivots, param_slots in _cell_descriptors(space):
        d = len(param_slots)
        if d:
            grids = np.meshgrid(*[np.arange(q, dtype=DTYPE)] * d, indexing="ij")
            combos = np.stack([g.reshape(-1) for g in grids], axis=1)
        else:
            combos = np.zeros((1, 0), dtype=DTYPE)
        yield pivots, _fill_cell(space, pivots, param_slots, combos)


def expected_total(c: int, q: int) -> int:
    """prod_{i=1..c} (q^i + 1), the number of Lagrangians in F_q^{2c}."""
    total = 1
    for i in range(1, c + 1):
        total *= q**i + 1
    return total


def count_lagrangians(space: SymplecticSpace) -> int:
    q = space.ctx.q
    return sum(q ** len(slots) for _, slots in _cell_descriptors(space))


def enumerate_lagrangians(space: SymplecticSpace) -> list[Subspace]:
    """All maximal isotropic subspaces, in a fixed deterministic order.

    The count is checked against prod(q^i + 1) before returning.
    """
    out = []
    for _, block in lagrangian_cells(space):
        for rows in block:
            out.append(Subspace._from_rref(space, rows))
    expected = expected_total(space.n, space.ctx.q)
    if len(out) != expected:
        raise RuntimeError(
            f"enumerated {len(out)} Lagrangians, expected {expected}"
        )
    return out


# -- random symplectic transformations -----------------------------------


def random_symplectic(space: SymplecticSpace, seed_or_rng) -> np.ndarray:
    """A pseudorandom element of Sp(2n, q) as a product of transvections."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    ctx = space.ctx
    two_n = space.dim
    g = linalg.eye(ctx, two_n)
    factors = 0
    while factors < 3 * two_n:
        v = rng.integers(0, ctx.q, size=two_n).astype(DTYPE)
        if not v.any():
            continue
        lam = int(rng.integers(1, ctx.q))
        a = linalg.mat_vec(ctx, space.gram.T, v)
        t = linalg.eye(ctx, two_n)
        t = ctx.add[t, ctx.mul[ctx.mul[lam, v[:, None]], a[None, :]]]
        g = linalg.matmul(ctx, t, g)
        factors += 1
    prod = linalg.matmul(ctx, linalg.matmul(ctx, g.T, space.gram), g)
    if not np.array_equal(prod, space.gram):
        raise RuntimeError("transvection product failed to preserve the form")
    return g


def embed_matrix(mat: np.ndarray, src: FieldCtx, dst: FieldCtx) -> np.ndarray:
    """Apply the fixed field embedding entrywise."""
    return embed_table(src, dst)[np.asarray(mat, dtype=DTYPE)]


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrarily large n (rejection)."""
    bits = n.bit_length()
    while True:
        r = 0
        for _ in range((bits + 62) // 63):
            r = (r << 63) | int(rng.integers(0, 1 << 63))
        r &= (1 << bits) - 1
        if r < n:
            return r


def random_lagrangian(space: SymplecticSpace, rng: np.random.Generator) -> Subspace:
    """A uniformly random Lagrangian: weighted random cell, random point.

    Only one basis is materialized, so this scales to spaces whose full
    enumeration would not fit in memory (cell weights are exact Python
    integers, so large ranks do not overflow).
    """
    q = space.ctx.q
    cells = _cell_descriptors(space)
    weights = [q ** len(slots) for _, slots in cells]
    pick = _randbelow(rng, sum(weights))
    for (pivots, slots), w in zip(cells, weights):
        if pick < w:
            combo = rng.integers(0, q, size=(1, len(slots))).astype(DTYPE)
            return Subspace._from_rref(
                space, _fill_cell(space, pivots, slots, combo)[0]
            )
        pick -= w
    raise AssertionError("unreachable")


def random_self_dual_flag(space: SymplecticSpace, rng: np.random.Generator) -> Flag:
    """A random self-dual flag: random symmetric type, random basis."""
    n = space.n
    while True:
        picks = [i for i in range(1, n + 1) if rng.integers(2)]
        if picks:
            break
    dims = sorted({d for i in picks for d in (i, 2 * n - i)})
    g = random_symplectic(space, rng)
    return standard_flag(space, dims).apply(g)
