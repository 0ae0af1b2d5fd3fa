"""Reference implementations that only the tests use.

Scans and constructions the pipeline has replaced or never needs: the
Cayley-graph breadth-first search over ``WeylElement`` products (the
independent oracle for lengths, parabolic subgroups and the group
itself), conjugation and largest-first words by products, the Weyl-group
scans that ``bedard`` and ``relpos`` build directly, a matrix inverse
and the change of basis of a Dieudonné module, a module built from
dense rows, the dense null space, products, adjunction and F-image that
the entry forms replaced, random self-dual flags for the
relative-position laws, and the grid of meets that the rank table of
``relpos`` and ``refine`` replaced.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from dlstrata import linalg, weyl
from dlstrata.dieudonne import DieudonneModule, Entries
from dlstrata.symplectic import Flag, Subspace, SymplecticSpace, random_symplectic
from dlstrata.weyl import WeylElement
from tests import as_rows

# -- Weyl group scans ---------------------------------------------------------


def is_min_double_rep(w: WeylElement, left: Iterable[int], right: Iterable[int]) -> bool:
    lds, rds = weyl.left_descents(w), weyl.right_descents(w)
    return all(i not in lds for i in left) and all(i not in rds for i in right)


def _bfs(n: int, subset: Iterable[int]) -> dict[WeylElement, int]:
    """Breadth-first search from the identity over the given generators.

    Maps each element of the generated subgroup to its distance in the
    Cayley graph, in the order the search reaches them.
    """
    gens = [weyl.simple_reflection(i, n) for i in sorted(subset)]
    dist = {weyl.identity(n): 0}
    frontier = [weyl.identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = weyl.compose(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


@lru_cache(maxsize=None)
def cayley_distances(n: int) -> dict[tuple[int, ...], int]:
    """BFS distance from the identity; the independent oracle for length()."""
    return {w.perm: d for w, d in _bfs(n, range(1, n + 1)).items()}


@lru_cache(maxsize=None)
def parabolic_subgroup(n: int, subset: frozenset[int]) -> tuple[WeylElement, ...]:
    """The standard parabolic subgroup W_J, J a set of generator indices."""
    return tuple(sorted(_bfs(n, subset), key=WeylElement.sort_key))


def group(n: int) -> tuple[WeylElement, ...]:
    """All of W_n by the Cayley-graph search, ordered by length, then one-line form."""
    return parabolic_subgroup(n, frozenset(range(1, n + 1)))


def conjugate_type(w: WeylElement, subset: Iterable[int]) -> frozenset[int]:
    """{i : s_i = w s_j w^{-1} for some j in subset}, by products."""
    n = w.n
    simples = {weyl.simple_reflection(i, n).perm: i for i in range(1, n + 1)}
    w_inv = w.inverse()
    conj = (
        weyl.compose(weyl.compose(w, weyl.simple_reflection(j, n)), w_inv).perm
        for j in subset
    )
    return frozenset(simples[c] for c in conj if c in simples)


def reduced_word_largest_first(w: WeylElement) -> tuple[int, ...]:
    """A reduced word stripping the largest right descent first, by products."""
    letters: list[int] = []
    cur = w
    while ds := weyl.right_descents(cur):
        i = max(ds)
        letters.append(i)
        cur = weyl.compose(cur, weyl.simple_reflection(i, w.n))
    return tuple(reversed(letters))


@lru_cache(maxsize=None)
def min_double_reps(
    n: int, left: frozenset[int], right: frozenset[int]
) -> tuple[WeylElement, ...]:
    """All minimal double-coset representatives, by scanning the group."""
    return tuple(w for w in group(n) if is_min_double_rep(w, left, right))


# -- matrices and modules -----------------------------------------------------


def inverse(ctx, rows: Sequence[Sequence[int]]) -> linalg.Rows:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("square matrix expected")
    aug = [tuple(row) + unit for row, unit in zip(rows, linalg.identity(n))]
    reduced, pivots = linalg.rref(ctx, aug, 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def dense_nullspace(ctx, rows: Sequence[Sequence[int]], ncols: int) -> linalg.Rows:
    """Canonical row basis of {x : mat @ x = 0} (x as column vectors).

    The dense oracle for ``linalg.nullspace``, which takes the matrix by
    its nonzero entries.  One elimination, of the column-reversed
    matrix.  In reversed order the null vector of a free column f is 1
    at f and nonzero elsewhere only at pivot columns left of f; read
    back in the original order, each vector leads with its free column,
    which is zero in every other vector, so taken by increasing free
    column they are already the reduced row echelon basis.
    """
    if not rows or not ncols:
        return linalg.identity(ncols)
    reduced, pivots = linalg.rref(ctx, [row[::-1] for row in rows], ncols)
    neg = ctx.neg_list
    last = ncols - 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(last, -1, -1):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[last - fc] = 1
        for row, pc in zip(reduced, pivots):
            if pc > fc:
                break
            vec[last - pc] = neg[row[fc]]
        basis.append(tuple(vec))
    return tuple(basis)


def entries(rows) -> Entries:
    """The nonzero (index, value) pairs of each row."""
    return tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in rows])


def module_of_rows(ctx, g: int, c: int, f_rows, v_rows, point=None) -> DieudonneModule:
    """The module of F and V given by dense rows: F by its nonzero
    entries, and V by those of Vlin = V^(p)."""
    up = ctx.frob_lists[1 % ctx.k]
    vlin = tuple(tuple((j, up[x]) for j, x in row) for row in entries(v_rows))
    return DieudonneModule(ctx, g, c, entries(f_rows), vlin, point=point)


def transport(mod: DieudonneModule, s: Sequence[Sequence[int]]) -> DieudonneModule:
    """The isomorphic module in the basis x = S x', for S in Sp(2g).

    The pairing becomes S^T J S, which must be J again, since every
    module's pairing is the standard form; ValueError otherwise.
    """
    ctx, dim = mod.ctx, mod.dim
    s_rows = as_rows(s)
    s_t = tuple(zip(*s_rows))
    gram = mod.space.gram_rows
    if linalg.matmul(ctx, linalg.matmul(ctx, s_t, gram, dim), s_rows, dim) != gram:
        raise ValueError("S^T J S != J: the matrix is not symplectic")
    s_inv = inverse(ctx, s_rows)
    f2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, mod.f_rows, dim),
                       linalg.frob_map(ctx, s_rows, 1), dim)
    v2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, mod.v_rows, dim),
                       linalg.frob_map(ctx, s_rows, -1), dim)
    return module_of_rows(ctx, mod.g, mod.c, f2, v2)


def dense_products(ctx, f_rows, v_rows) -> tuple[linalg.Rows, linalg.Rows]:
    """F . Vlin and Vlin . F with Vlin = V^(p), as dense products."""
    dim = len(f_rows)
    vlin = linalg.frob_map(ctx, v_rows, 1)
    return linalg.matmul(ctx, f_rows, vlin, dim), linalg.matmul(ctx, vlin, f_rows, dim)


def dense_adjunction_holds(space: SymplecticSpace, f_rows, v_rows) -> bool:
    """Whether F^T . J = J . V^(p), with J multiplied as the Gram rows."""
    ctx, dim, gram = space.ctx, space.dim, space.gram_rows
    f_t = tuple(zip(*f_rows))
    vlin = linalg.frob_map(ctx, v_rows, 1)
    return linalg.matmul(ctx, f_t, gram, dim) == linalg.matmul(ctx, gram, vlin, dim)


def dense_f_image(mod: DieudonneModule, sub: Subspace) -> Subspace:
    """F(C) = F . C^(p): the twisted rows times the dense F^T, eliminated."""
    ctx, dim = mod.ctx, mod.dim
    powered = linalg.frob_map(ctx, sub.rows, 1)
    image = linalg.matmul(ctx, powered, tuple(zip(*mod.f_rows)), dim)
    return Subspace._from_rref(mod.space, *linalg.rref(ctx, image, dim))


# -- flags ----------------------------------------------------------------------


def standard_flag(space: SymplecticSpace, dims: Iterable[int]) -> Flag:
    """Coordinate flag with the given (symmetric) proper dimension set."""
    dims = sorted(set(dims))
    if any(d <= 0 or d >= space.dim for d in dims):
        raise ValueError("proper dimensions expected")
    if any(space.dim - d not in dims for d in dims):
        raise ValueError("dimension set must be symmetric for a self-dual flag")
    eye = linalg.identity(space.dim)
    return Flag([Subspace._from_rref(space, eye[:d], tuple(range(d))) for d in dims])


def flag_apply(flag: Flag, matrix: Sequence[Sequence[int]]) -> Flag:
    """The image of a flag under an invertible matrix."""
    return Flag(m.apply(matrix) for m in flag.members)


def random_self_dual_flag(space: SymplecticSpace, rng: np.random.Generator) -> Flag:
    """A random self-dual flag: random symmetric type, random basis."""
    n = space.n
    while True:
        picks = [i for i in range(1, n + 1) if rng.integers(2)]
        if picks:
            break
    dims = sorted({d for i in picks for d in (i, 2 * n - i)})
    g = random_symplectic(space, rng)
    return flag_apply(standard_flag(space, dims), g)


def meets_and_position(flag_c: Flag, flag_d: Flag) -> tuple[list[list[Subspace]], WeylElement]:
    """Every meet C_a cap D_b (row a, column b), each built as a subspace,
    and the position their dimensions give, by the same second
    differences and re-check as ``symplectic.relpos``."""
    if flag_c.space is not flag_d.space:
        raise ValueError("flags live in different spaces")
    space = flag_c.space
    for flag in (flag_c, flag_d):
        dims = set(flag.dims)
        if any(space.dim - d not in dims for d in dims):
            raise ValueError(f"dimension set {flag.dims} is not symmetric")
    grid = [[cm.intersect(dm) for dm in flag_d.members] for cm in flag_c.members]
    table = [[meet.dim for meet in row] for row in grid]
    cdims, ddims = flag_c.dims, flag_d.dims
    used = list(cdims[:-1])  # last value taken from each flag_c block
    perm: list[int] = []
    for k, (d0, d1) in enumerate(zip(ddims, ddims[1:])):
        for l, (c0, c1) in enumerate(zip(cdims, cdims[1:])):
            count = table[l + 1][k + 1] - table[l + 1][k] - table[l][k + 1] + table[l][k]
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
    for k, d in enumerate(ddims):
        for a, c in enumerate(cdims):
            if table[a][k] != weyl.r_w(w, d, c):
                raise RuntimeError(
                    f"rank table entry dim(C_{c} cap D_{d}) = {table[a][k]} differs "
                    f"from r_w = {weyl.r_w(w, d, c)} for w = {w.perm}"
                )
    return grid, w
