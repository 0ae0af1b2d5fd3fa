"""Mod-p Dieudonné modules built from Lagrangian points, and their EO type.

The module attached to a Lagrangian U in F^{2c} (and an ambient genus
g >= 2c) is realized as the direct sum of the graded pieces of its
natural filtration, five slots of dimensions

    [ c | g-2c | 2c | g-2c | c ]      (U, K, L-twist, K-twist, L/U)

with the semilinear operators acting two slots forward:

* V (twist -1) acts by the inclusion of U into L, the identity on K
  written in the coordinates K'_i = -K_{k-1-i} of its twist (k =
  g-2c), and the projection L -> L/U written in the coordinates
  y_j = -<u_{c-1-j}, x>, well defined because U is Lagrangian;
* F (twist +1) acts by minus the same three maps, with the Frobenius
  twists forced by semilinearity.

These coordinates are chosen so that the pairing is exactly the
standard form J of ``SymplecticSpace(ctx, g)``: slot 0 with slot 4,
slot 1 with slot 3 and slot 2 with itself, each by the antidiagonal
block J puts there.  The slot-2 -> slot-4 rows are U . J, U's rows
reversed with their first c entries negated, so writing them takes no
product.

The minus signs and twist placements are pinned by three independent
requirements, all asserted at construction: F and V compose to zero
with matching kernels and images (the mod-p Dieudonné conditions), the
kernels project inside the middle slot onto twists of U, ker F onto
sigma^{-1} U and ker V onto sigma U (sigma the entrywise p-power), and
the adjunction <F x, y> = <x, V y>^p holds on the nose.  Any residual
sign freedom is harmless and is demonstrated to be so in the tests.  Since
both products vanish, the images lie in the kernels, and rank-nullity
turns the two equalities into dim ker F = dim ker V = g, so checking a
module takes two eliminations: the null spaces of the matrices F and
Vlin = V^(p).  The second is ker V.  The first is sigma(ker F), since
F(x) = F . x^(p) vanishes exactly when x^(p) is a null vector, so the
construction checks it against the pull-back of U itself, and ker F
is its sigma^{-1}-twist, taken on first call with no elimination.  J
is F_p-rational, so the adjunction is F^T . J = J . Vlin, and since J
is a signed reversal that is an equality of entry sets: each nonzero
F[a][b] sits, signed, at Vlin[2g-1-b][2g-1-a], and Vlin has no other
entries.

Every module of genus g over a field shares one ``SymplecticSpace``,
built on first use, so every subspace here is a
``symplectic.Subspace``: canonical, immutable, with its complement
read off its reduced rows and cached (and perp is an involution: a
complement knows its source).  The canonical flag is the smallest chain
containing ker V that is stable under V-preimage and complement (Oort
2001).  The adjunction gives V^{-1}(C) = F(C-perp)-perp for every
subspace C, and ker V = F(M), so that is also the least set holding 0
and M that is stable under F-image and complement, and it is closed
that way: with a worklist, so each member's F-image is computed once,
one elimination each, or none when no row of the member has a nonzero
image (the image is then the space's one 0), and a complement takes no
elimination.  A chain has one member per dimension, so the closure
keeps its members by dimension, compares each new image or complement
by rows with the one member of its dimension, and refuses a second,
different subspace of an occupied dimension at once; so it never holds
more than 2g+1 members, and no subspace is hashed.  The members, read
off in dimension order with no sort, must then pass the chain check
that refinement uses, and be self-dual.  Each member's F-image
dimension is kept by the closure; these interpolate to the final type
psi, and the EO label is the minimal Siegel representative w with
psi(i) = i - r_w(i, g), read off the positions where psi does not
jump.  The two label maps of the verify path, psi to its label and a
fine label to its lift (``weyl.r_map_inv``), build and validate each
label once per argument pair.

A module keeps its operators by their nonzero entries, at most 4c^2 +
g - 2c of the 4g^2: F by rows, and V by the rows of Vlin, the forward
twist of V's entries.  ``build_from_lagrangian`` writes them entry by
entry from the point's reduced rows; the one constructor takes them in
that form and derives the rest, F's nonzero columns and the slot
bounds, which (g, c) fixes.  Every per-point step touches only those
entries: the products F . Vlin and Vlin . F, the adjunction, the two
null spaces, of F and of Vlin, which ``linalg.nullspace`` eliminates
over the entries as they are, and each F-image, which sums F's nonzero
columns scaled by a row's twisted entries into a map of the image row's
nonzero entries, then eliminates those maps (``linalg.rref_entries``,
the kernel of both).  Only the reduced rows of a kernel or an image,
the canonical form of a ``Subspace``, are written out dense.
``f_rows`` and ``v_rows`` build dense rows on access, for
``module_to_json`` and the tests.

Modules are immutable after construction (the constructor runs the
full invariant battery, and each kernel is computed once), so label
verification over many points can be parallelized trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import dlclassify, linalg, symplectic, weyl
from .gf import FieldCtx
from .linalg import Entries
from .symplectic import Subspace, SymplecticSpace, full_subspace, zero_subspace
from .weyl import WeylElement


class DieudonneModule:
    """A 2g-dimensional space with semilinear F, V and the form J_g.

    The operators are F (twist +1) and V (twist -1): F(x) = F . x^[p]
    and V(x) = V . x^[1/p].  They are kept by their nonzero entries: F
    by rows and by columns, and V by the rows of Vlin = V^(p), so that
    V(F x) = (Vlin . F . x)^(1/p).  ``f_rows`` and ``v_rows`` are the
    dense rows of F and V, built on each access.  The pairing is the
    standard form of ``SymplecticSpace(ctx, g)``, one space per field
    and genus shared by every module, so its subspaces are ``Subspace``
    values with cached complements.

    The constructor takes F and Vlin by their nonzero entries per row,
    as ``build_from_lagrangian`` writes them, and derives F's nonzero
    columns and the five slots' bounds (0, c, g-c, g+c, 2g-c, 2g) from
    them and (g, c).  It refuses, with ValueError, entries that do not
    fit 2g x 2g (a row count other than 2g, a column outside 0..2g-1)
    and values that are not nonzero codes (0, or q and beyond): the
    eliminations read every stored entry as nonzero.  Every module
    passes the same checks.
    """

    def __init__(
        self,
        ctx: FieldCtx,
        g: int,
        c: int,
        f: Entries,
        vlin: Entries,
        point: Subspace | None = None,
    ):
        dim = 2 * g
        if not (_fits(f, dim, ctx.q) and _fits(vlin, dim, ctx.q)):
            raise ValueError("operator matrices must be 2g x 2g, by nonzero codes")
        self.ctx = ctx
        self.g = g
        self.c = c
        self.dim = dim
        self.space = _module_space(ctx, g)
        self.slot_bounds = (0, c, g - c, g + c, dim - c, dim)
        self.point = point
        self._f = f
        # the nonzero columns of F, each with its index: all an image reads
        cols: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
        for i, row in enumerate(f):
            for j, x in row:
                cols[j].append((i, x))
        self._f_cols = tuple([(j, tuple(col)) for j, col in enumerate(cols) if col])
        self._vlin = vlin
        self._ker_f: Subspace | None = None
        self._validate()

    @property
    def f_rows(self) -> linalg.Rows:
        """The dense rows of F, built on each access."""
        return _dense(self._f, self.dim)

    @property
    def v_rows(self) -> linalg.Rows:
        """The dense rows of V = Vlin^(1/p), built on each access."""
        down = self.ctx.frob_lists[-1 % self.ctx.k]
        return _dense([[(j, down[x]) for j, x in row] for row in self._vlin], self.dim)

    def kernel_of_F(self) -> Subspace:
        """ker F = sigma^{-1} of the matrix null space; twisted on first call."""
        if self._ker_f is None:
            self._ker_f = self._sigma_ker_f.twist(-1)
        return self._ker_f

    def kernel_of_V(self) -> Subspace:
        """ker V, the null space of Vlin; computed at construction."""
        return self._ker_v

    def f_image(self, sub: Subspace) -> Subspace:
        """F(C): row by row, sigma(x) summed over F's nonzero columns, then
        one elimination over the nonzero entries.

        The image of a row x is the sum of sigma(x_j) F[:, j] over its
        nonzero x_j, which touches only F's nonzero entries, and is kept
        as a map of its nonzero entries for ``linalg.rref_entries``.  A
        reduced row is zero before its pivot, so from the first row whose
        pivot lies past F's last nonzero column on, every image is 0 and
        none is summed.  When no row has a nonzero image, F(C) is the
        space's one 0, with no elimination.  F(0) is 0, and F of the
        whole space is the cached ker V (the two are equal by the checks
        at construction), so neither needs elimination either.  A
        subspace of another ambient space, even one of the same field
        and genus, raises ValueError, as ``contains``, ``+`` and
        ``intersect`` do.
        """
        if sub.space is not self.space:
            raise ValueError("subspaces live in different ambient spaces")
        if sub.dim == 0:
            return sub
        if sub.dim == self.dim:
            return self.kernel_of_V()
        ctx, dim = self.ctx, self.dim
        add, mul = ctx.add_list, ctx.mul_list
        up = ctx.frob_lists[1 % ctx.k]
        last = self._f_cols[-1][0]
        image = []
        for row, p in zip(sub.rows, sub.pivots):
            if p > last:
                break
            acc: dict[int, int] = {}
            for j, col in self._f_cols:
                x = row[j]
                if x:
                    if x == 1:
                        for i, y in col:
                            acc[i] = add[acc.get(i, 0)][y]
                    else:
                        scale = mul[up[x]]
                        for i, y in col:
                            acc[i] = add[acc.get(i, 0)][scale[y]]
            if 0 in acc.values():
                acc = {i: y for i, y in acc.items() if y}
            if acc:
                image.append(acc)
        if not image:
            return zero_subspace(self.space)
        rows, pivots = [], []
        for c, tail in sorted(linalg.rref_entries(ctx, image).items()):
            vec = [0] * dim
            vec[c] = 1
            for j, x in tail.items():
                vec[j] = x
            rows.append(tuple(vec))
            pivots.append(c)
        return Subspace._from_rref(self.space, tuple(rows), tuple(pivots))

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        """Every Dieudonné condition, with two eliminations in all.

        F.V = 0 and V.F = 0 put im V in ker F and im F in ker V.  With
        dim ker F = g, rank F is g, so ker V = im F exactly when dim
        ker V = g, and then rank V is g too, so ker F = im V: the two
        kernel dimensions decide both equalities, and the images are
        never eliminated for.  The products and the two null spaces run
        over nonzero entries.  The pairing is J, which is F_p-rational,
        so the adjunction is F^T . J = J . Vlin, an equality of entry
        sets (``_adjoint_entries``).
        """
        ctx, dim, g, space = self.ctx, self.dim, self.g, self.space
        f, vlin = self._f, self._vlin
        if not _product_vanishes(ctx, f, vlin):
            raise RuntimeError("F after V is not zero")
        # V(F x) = (Vlin . F . x)^(1/p), so V.F = 0 iff Vlin . F = 0
        if not _product_vanishes(ctx, vlin, f):
            raise RuntimeError("V after F is not zero")
        # the matrix null space of F is sigma(ker F), of the same dimension
        self._sigma_ker_f = Subspace._from_rref(space, linalg.nullspace(ctx, f, dim))
        if self._sigma_ker_f.dim != g:
            raise RuntimeError(f"dim ker F = {self._sigma_ker_f.dim} != g = {g}")
        self._ker_v = ker_v = Subspace._from_rref(space, linalg.nullspace(ctx, vlin, dim))
        if ker_v.dim != g:
            raise RuntimeError(
                f"dim ker V = {ker_v.dim} != g = {g}: ker V != im F and ker F != im V"
            )
        if _adjoint_entries(ctx, f, g) != {
            (i, j): x for i, row in enumerate(vlin) for j, x in row
        }:
            raise RuntimeError("adjunction <Fx, y> = <x, Vy>^p fails")
        if self.point is not None:
            self._check_kernel_shapes()

    def _check_kernel_shapes(self) -> None:
        """sigma(ker F) = pr_2^{-1}(U) and ker V = pr_2^{-1}(sigma U)."""
        u = self.point
        if self._sigma_ker_f != self._middle_pullback(u.rows, u.pivots):
            raise RuntimeError("ker F does not project onto the point")
        twisted = linalg.frob_map(self.ctx, u.rows, 1)
        if self.kernel_of_V() != self._middle_pullback(twisted, u.pivots):
            raise RuntimeError("ker V does not project onto the twisted point")

    def _middle_pullback(self, rows: linalg.Rows, pivots: tuple[int, ...]) -> Subspace:
        """pr_2^{-1} of a subspace of the middle slot, given by reduced rows.

        The rows sit in the middle slot above the unit rows of the later
        slots, which are zero on the middle columns, so the stack is
        already reduced, with the middle pivots shifted by the slot's
        start followed by every later column.
        """
        lo, hi = self.slot_bounds[2], self.slot_bounds[3]
        dim = self.dim
        left, right = (0,) * lo, (0,) * (dim - hi)
        out = tuple(left + row + right for row in rows) + linalg.identity(dim)[hi:]
        return Subspace._from_rref(
            self.space, out, tuple(lo + p for p in pivots) + tuple(range(hi, dim))
        )


def _fits(rows: Entries, dim: int, q: int) -> bool:
    """Whether entries describe a dim x dim matrix over F_q: dim rows,
    each entry at a column in 0..dim-1 with a nonzero code as value."""
    if len(rows) != dim:
        return False
    for row in rows:
        for j, x in row:
            if not (0 <= j < dim and 0 < x < q):
                return False
    return True


def _dense(entries, dim: int) -> linalg.Rows:
    """The dense rows of a matrix kept by its nonzero entries per row."""
    out = []
    for row in entries:
        vec = [0] * dim
        for j, x in row:
            vec[j] = x
        out.append(tuple(vec))
    return tuple(out)


def _product_vanishes(ctx: FieldCtx, a: Entries, b: Entries) -> bool:
    """Whether a . b = 0, for matrices kept by their nonzero entries per row.

    Row i of the product is the sum of the rows b[j] scaled by the
    nonzero a[i][j]; only products of nonzero entries are summed.
    """
    add, mul = ctx.add_list, ctx.mul_list
    for arow in a:
        if not arow:
            continue
        acc: dict[int, int] = {}
        for j, x in arow:
            scale = mul[x]
            for k, y in b[j]:
                acc[k] = add[acc.get(k, 0)][scale[y]]
        if any(acc.values()):
            return False
    return True


def _adjoint_entries(ctx: FieldCtx, f: Entries, g: int) -> dict[tuple[int, int], int]:
    """The entries Vlin must have for F^T . J = J . Vlin, by position.

    J is +1 at (i, 2g-1-i) for i < g and -1 below, so the equation reads
    Vlin[2g-1-b][2g-1-a] = F[a][b] for a and b on one side of g, and
    -F[a][b] for a and b on opposite sides; every other entry is zero.
    """
    neg, last = ctx.neg_list, 2 * g - 1
    return {
        (last - b, last - a): neg[x] if (a < g) != (b < g) else x
        for a, row in enumerate(f)
        for b, x in row
    }


@lru_cache(maxsize=None)
def _module_space(ctx: FieldCtx, g: int) -> SymplecticSpace:
    """The space of every genus-g module over the field, built on first use."""
    return SymplecticSpace(ctx, g)


def build_from_lagrangian(u: Subspace, g: int) -> DieudonneModule:
    """The split graded module of a Lagrangian point, for genus g >= 2c.

    F and Vlin are written by rows, entry by entry, from the point's
    reduced rows and U . J, a signed reversal of them; only nonzero
    entries are written, and no matrix is built.  Vlin = V^(p) twists
    V's entries forward: its slot 0 -> slot 2 block is U itself, and -1
    is F_p-rational.
    """
    space = u.space
    ctx, c = space.ctx, space.n
    if 2 * c > g:
        raise ValueError("genus must be at least twice the point rank")
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    k = g - 2 * c
    s1, s2 = c, g - c  # where slots 1 and 2 start
    neg = ctx.neg_list
    up = ctx.frob_lists[1 % ctx.k]

    # slot 0 -> slot 2: U into L, its basis vectors as columns; F is
    # -sigma(U[j][r]) and Vlin is U[j][r] at (s2 + r, j)
    cols_u = tuple(zip(*u.rows))
    f_u = [tuple([(j, neg[up[x]]) for j, x in enumerate(col) if x]) for col in cols_u]
    v_u = [tuple([(j, x) for j, x in enumerate(col) if x]) for col in cols_u]
    # slot 1 -> slot 3: the identity on K, into reversed, negated
    # coordinates of its twist
    f_k = [((s1 + k - 1 - i, 1),) for i in range(k)]
    v_k = [((s1 + k - 1 - i, neg[1]),) for i in range(k)]
    # slot 2 -> slot 4: L -> L/U, in the coordinates y_j = -<u_{c-1-j}, x>:
    # row j of this block of F is row c-1-j of U . J, and Vlin is minus its twist
    uj = space.times_form(u.rows)[::-1]
    f_l = [tuple([(s2 + t, x) for t, x in enumerate(row) if x]) for row in uj]
    v_l = [tuple([(s2 + t, neg[up[x]]) for t, x in enumerate(row) if x]) for row in uj]

    f = tuple([()] * s2 + f_u + f_k + f_l)
    vlin = tuple([()] * s2 + v_u + v_k + v_l)
    return DieudonneModule(ctx, g, c, f, vlin, point=u)


@dataclass(frozen=True)
class CanonicalFlag:
    """The stabilized chain in increasing dimension, with its dimensions
    and F-image dimensions."""

    members: tuple[Subspace, ...]
    dims: tuple[int, ...]
    fdims: tuple[int, ...]


def canonical_flag(module: DieudonneModule) -> CanonicalFlag:
    """Close {0, M} under F-image and pairing-complement, then grade.

    This is the closure under V-preimage and complement that defines
    the canonical filtration: the adjunction <Fx, y> = <x, Vy>^p gives
    V^{-1}(C) = F(C-perp)-perp for every subspace C, so a set closed
    under complement is closed under V-preimage exactly when it is
    closed under F-image, and F(M) = ker V = V^{-1}(0).  The closure
    runs as a worklist: each new member gets its F-image once, one
    elimination, or none when the image is 0 (``DieudonneModule.f_image``),
    and its complement once, read off its reduced rows with no
    elimination (cached on the member, so the self-duality check reuses
    it; a complement knows its source, so the complement of a
    complement costs nothing), and each member's F-image dimension is
    kept.  The result is the least closed set, whatever the order of
    the work.  It must be a chain, which holds one member per
    dimension, so the members are kept by dimension: a new image or
    complement is compared, by rows, with the one member of its
    dimension, and a different subspace there raises RuntimeError at
    once ("not a chain"); so the closure never holds more than 2g+1
    members and takes at most 2g+1 F-images.  The closure starts from
    the space's one 0 and one V, whose complements are each other.  The
    members, read off in dimension order, must pass the ordered chain
    check (``symplectic._check_chain``: each member contains the one
    before) and be self-dual, and on each gap the F-image dimension
    must grow by zero or by the full gap (the dichotomy the final type
    is read from).  Violations raise RuntimeError.
    """
    space = module.space
    # a chain has one member per dimension; only the first object found
    # for a dimension is kept and worked on, so its cached complement is
    # the one the self-duality check reads
    members: dict[int, Subspace] = {}
    fdim: dict[int, int] = {}
    todo: list[Subspace] = []

    def add(sub: Subspace) -> None:
        kept = members.get(sub.dim)
        if kept is None:
            members[sub.dim] = sub
            todo.append(sub)
        elif kept.rows != sub.rows:
            raise RuntimeError(
                f"canonical members are not a chain: two distinct members "
                f"of dimension {sub.dim}"
            )

    add(zero_subspace(space))
    add(full_subspace(space))
    while todo:
        sub = todo.pop()
        image = module.f_image(sub)
        fdim[sub.dim] = image.dim
        add(image)
        add(sub.perp())

    chain = tuple([members[d] for d in range(module.dim + 1) if d in members])
    try:
        symplectic._check_chain(chain)
    except ValueError as exc:
        raise RuntimeError(f"canonical members are not a chain: {exc}") from exc
    if not symplectic._is_self_dual(chain):
        raise RuntimeError("canonical flag is not self-dual")

    dims = tuple([m.dim for m in chain])
    fdims = tuple([fdim[m.dim] for m in chain])
    for (d0, f0), (d1, f1) in zip(zip(dims, fdims), zip(dims[1:], fdims[1:])):
        if f1 - f0 not in (0, d1 - d0):
            raise RuntimeError(
                f"F-image dimension dichotomy fails on gap {d0}..{d1}: "
                f"{f0} -> {f1}"
            )
    return CanonicalFlag(chain, dims, fdims)


@dataclass(frozen=True)
class EOType:
    """The EO label w and its final type psi on 0..2g."""

    w: WeylElement
    psi: tuple[int, ...]


def final_type_of(w: WeylElement, g: int) -> tuple[int, ...]:
    """psi_w(i) = i - r_w(i, g) on 0..2g, the running count of
    positions x <= i with w(x) > g, in one pass over w."""
    psi = [0]
    for x in w.perm:
        psi.append(psi[-1] + (x > g))
    return tuple(psi)


@lru_cache(maxsize=None)
def _label_of_final_type(psi: tuple[int, ...], g: int) -> WeylElement:
    """The minimal Siegel representative w with final type psi.

    psi(i) - psi(i-1) = 1 - [w(i) <= g], so the g positions where psi
    does not jump are w^{-1}(1) < ... < w^{-1}(g) (Oort 2001); they fix w
    on those positions and symmetry fixes the rest.  A psi that is not
    the final type of any such w raises RuntimeError, on every call: the
    label is kept per (psi, g), and only when it passes.
    """
    flat = [i for i in range(1, 2 * g + 1) if psi[i] == psi[i - 1]]
    try:
        w = weyl.siegel_rep(flat, g)
    except ValueError as exc:
        raise RuntimeError(f"no label has the measured final type {list(psi)}") from exc
    if final_type_of(w, g) != tuple(psi):
        raise RuntimeError(f"no label has the measured final type {list(psi)}")
    return w


def eo_type(module: DieudonneModule) -> EOType:
    """Read the final type off the canonical flag and invert it to a label.

    psi is interpolated across canonical gaps using the zero-or-full
    dichotomy and inverted directly (``_label_of_final_type``, which
    checks that psi is the label's final type).  At every canonical
    dimension psi is the measured F-image dimension by construction,
    once ``canonical_flag`` has checked the dichotomy.
    """
    flag = canonical_flag(module)
    g = module.g
    psi = [0] * (2 * g + 1)
    for (d0, f0), (d1, f1) in zip(
        zip(flag.dims, flag.fdims), zip(flag.dims[1:], flag.fdims[1:])
    ):
        for i in range(d0, d1 + 1):
            psi[i] = f0 if f1 == f0 else f0 + (i - d0)
    return EOType(_label_of_final_type(tuple(psi), g), tuple(psi))


def verify_pullback(
    u: Subspace, g: int, fine: WeylElement | None = None
) -> bool:
    """The flagship identity: module EO label == lifted fine label.

    ``fine`` is the point's fine label when the caller already has it;
    without it the point is classified here.
    """
    module = build_from_lagrangian(u, g)
    eo = eo_type(module)
    if fine is None:
        fine = dlclassify.classify_fine(u)
    return eo.w.perm == weyl.r_map_inv(fine, g).perm


def _matrix_coeffs(ctx: FieldCtx, rows: linalg.Rows) -> list[list[tuple[int, ...]]]:
    """Each entry's coefficient tuple, decoding each distinct code once."""
    coeffs = {v: ctx.coeffs_of(v) for v in set().union(*rows)}
    return [[coeffs[v] for v in row] for row in rows]


def module_to_json(module: DieudonneModule) -> dict:
    """Serializable dump: dimensions, operators, pairing, slot boundaries."""
    ctx = module.ctx
    return {
        "p": ctx.p,
        "k": ctx.k,
        "dim": module.dim,
        "g": module.g,
        "c": module.c,
        "slot_bounds": list(module.slot_bounds),
        "f_matrix": _matrix_coeffs(ctx, module.f_rows),
        "f_twist": 1,
        "v_matrix": _matrix_coeffs(ctx, module.v_rows),
        "v_twist": -1,
        "pairing": _matrix_coeffs(ctx, module.space.gram_rows),
    }
