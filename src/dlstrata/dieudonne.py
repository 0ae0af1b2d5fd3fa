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
is F_p-rational, so the adjunction is F^T . J = J . Vlin, two signed
reversals compared entry by entry.

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
one elimination each, a complement takes no elimination, and a closure
that grows past 2g+1 members (the longest chain in a 2g-dimensional
space) is refused at once.  The members, sorted by dimension, must
then pass the chain check that refinement uses, and be self-dual.  Each
member's F-image dimension is read off the image the closure kept for
it; these interpolate to the final type psi, and the EO label is the
minimal Siegel representative w with psi(i) = i - r_w(i, g), read off
the positions where psi does not jump.  The two label maps of the
verify path, psi to its label and a fine label to its lift
(``weyl.r_map_inv``), build and validate each label once per argument
pair.

The module is built on rows (see ``linalg``): F and V are written entry
by entry from the point's reduced rows and pivots and frozen once, and
no numpy runs per point.  Rows are the module's only matrix form.

Modules are immutable after construction (every constructor runs the
full invariant battery, and each kernel is computed once), so label
verification over many points can be parallelized trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import dlclassify, linalg, symplectic, weyl
from .gf import FieldCtx
from .symplectic import Subspace, SymplecticSpace, full_subspace, zero_subspace
from .weyl import WeylElement


class DieudonneModule:
    """A 2g-dimensional space with semilinear F, V and the form J_g.

    ``f_rows`` and ``v_rows`` are the rows of the matrices of F (twist
    +1) and V (twist -1): F(x) = F . x^[p] and V(x) = V . x^[1/p].  The
    pairing is the standard form of ``SymplecticSpace(ctx, g)``, one
    space per field and genus shared by every module, so its subspaces
    are ``Subspace`` values with cached complements.
    """

    def __init__(
        self,
        ctx: FieldCtx,
        g: int,
        c: int,
        f_rows: linalg.Rows,
        v_rows: linalg.Rows,
        slot_bounds: tuple[int, ...],
        point: Subspace | None = None,
    ):
        self.ctx = ctx
        self.g = g
        self.c = c
        self.dim = 2 * g
        self.f_rows = f_rows
        self.v_rows = v_rows
        self.space = _module_space(ctx, g)
        self.slot_bounds = tuple(slot_bounds)
        self.point = point
        self._ft_rows = tuple(zip(*f_rows))
        self._vlin_rows = linalg.frob_map(ctx, v_rows, 1)
        self._ker_f: Subspace | None = None
        self._validate()

    def kernel_of_F(self) -> Subspace:
        """ker F = sigma^{-1} of the matrix null space; twisted on first call."""
        if self._ker_f is None:
            self._ker_f = self._sigma_ker_f.twist(-1)
        return self._ker_f

    def kernel_of_V(self) -> Subspace:
        """ker V, the null space of Vlin; computed at construction."""
        return self._ker_v

    def f_image(self, sub: Subspace) -> Subspace:
        """F(C) = F . C^(p), one product and one elimination.

        F(0) is 0, and F of the whole space is the cached ker V (the two
        are equal by the checks at construction), so neither needs
        elimination.
        """
        if sub.dim == 0:
            return sub
        if sub.dim == self.dim:
            return self.kernel_of_V()
        ctx, dim = self.ctx, self.dim
        powered = linalg.frob_map(ctx, sub.rows, 1)
        image = linalg.matmul(ctx, powered, self._ft_rows, dim)
        return Subspace._from_rref(self.space, *linalg.rref(ctx, image, dim))

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        """Every Dieudonné condition, with two eliminations in all.

        F.V = 0 and V.F = 0 put im V in ker F and im F in ker V.  With
        dim ker F = g, rank F is g, so ker V = im F exactly when dim
        ker V = g, and then rank V is g too, so ker F = im V: the two
        kernel dimensions decide both equalities, and the images are
        never eliminated for.  The pairing is J, which is F_p-rational,
        so the adjunction is F^T . J = J . Vlin, two signed reversals
        compared entry by entry.
        """
        ctx, dim, g, space = self.ctx, self.dim, self.g, self.space
        if any(len(rows) != dim or any(len(row) != dim for row in rows)
               for rows in (self.f_rows, self.v_rows)):
            raise ValueError("operator matrices must be 2g x 2g")
        f, vlin = self.f_rows, self._vlin_rows
        if any(map(any, linalg.matmul(ctx, f, vlin, dim))):
            raise RuntimeError("F after V is not zero")
        # V(F x) = (Vlin . F . x)^(1/p), so V.F = 0 iff Vlin . F = 0
        if any(map(any, linalg.matmul(ctx, vlin, f, dim))):
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
        if space.times_form(self._ft_rows) != space.form_times(vlin):
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


@lru_cache(maxsize=None)
def _module_space(ctx: FieldCtx, g: int) -> SymplecticSpace:
    """The space of every genus-g module over the field, built on first use."""
    return SymplecticSpace(ctx, g)


def build_from_lagrangian(u: Subspace, g: int) -> DieudonneModule:
    """The split graded module of a Lagrangian point, for genus g >= 2c.

    F and V are written entry by entry from the point's reduced rows
    and U . J, a signed reversal of them, into zero rows, and each is
    frozen once.
    """
    space = u.space
    ctx, c = space.ctx, space.n
    if 2 * c > g:
        raise ValueError("genus must be at least twice the point rank")
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    dim, k = 2 * g, g - 2 * c
    bounds = (0, c, g - c, g + c, 2 * g - c, 2 * g)
    _, s1, s2, s3, s4, _ = bounds  # where slots 1..4 start
    neg = ctx.neg_list
    minus_one = neg[1]
    up, down = ctx.frob_lists[1 % ctx.k], ctx.frob_lists[-1 % ctx.k]
    f = [[0] * dim for _ in range(dim)]
    v = [[0] * dim for _ in range(dim)]

    # slot 0 -> slot 2: U into L, its basis vectors as columns
    for j, row in enumerate(u.rows):
        for r, x in enumerate(row):
            f[s2 + r][j] = neg[up[x]]
            v[s2 + r][j] = down[x]
    # slot 1 -> slot 3: the identity on K, into reversed, negated
    # coordinates of its twist
    for i in range(k):
        f[s3 + i][s1 + k - 1 - i] = 1
        v[s3 + i][s1 + k - 1 - i] = minus_one
    # slot 2 -> slot 4: L -> L/U, in the coordinates y_j = -<u_{c-1-j}, x>
    for j, urow in enumerate(reversed(space.times_form(u.rows))):
        f[s4 + j][s2 : s2 + 2 * c] = urow
        v[s4 + j][s2 : s2 + 2 * c] = [neg[x] for x in urow]

    freeze = lambda mat: tuple(map(tuple, mat))
    return DieudonneModule(ctx, g, c, freeze(f), freeze(v), bounds, point=u)


@dataclass(frozen=True)
class CanonicalFlag:
    """The stabilized chain in increasing dimension, with its dimensions
    and F-image dimensions."""

    module: DieudonneModule
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
    elimination, and its complement once, read off its reduced rows
    with no elimination (cached on the member, so the self-duality
    check reuses it; a complement knows its source, so the complement
    of a complement costs nothing), and the images are kept, so each
    member's F-image dimension is read off its image.  The result is
    the least closed set, whatever the order of the work.  A chain in a
    2g-dimensional space has at most 2g+1 members, so a closure that
    grows past that raises RuntimeError at once.  The closure starts
    from the space's one 0 and one V, whose complements are each other.
    The members, sorted by dimension, must pass the ordered chain check
    (``symplectic._check_chain``: dimensions strictly increase and each
    member contains the one before) and be self-dual, and on each gap
    the F-image dimension must grow by zero or by the full gap (the
    dichotomy the final type is read from).  Violations raise
    RuntimeError.
    """
    space = module.space
    limit = module.dim + 1
    # only the first object found for a member is kept and worked on, so
    # its cached complement is the one the self-duality check reads
    members: set[Subspace] = set()
    images: dict[Subspace, Subspace] = {}
    todo: list[Subspace] = []

    def add(sub: Subspace) -> None:
        if sub not in members:
            members.add(sub)
            todo.append(sub)
            if len(members) > limit:
                raise RuntimeError(
                    f"canonical closure exceeds {limit} members, "
                    "the most a chain can hold"
                )

    add(zero_subspace(space))
    add(full_subspace(space))
    while todo:
        sub = todo.pop()
        images[sub] = module.f_image(sub)
        add(images[sub])
        add(sub.perp())

    chain = tuple(sorted(members, key=lambda m: m.dim))
    try:
        symplectic._check_chain(chain)
    except ValueError as exc:
        raise RuntimeError(f"canonical members are not a chain: {exc}") from exc
    if not symplectic._is_self_dual(chain):
        raise RuntimeError("canonical flag is not self-dual")

    dims = tuple([m.dim for m in chain])
    fdims = tuple([images[m].dim for m in chain])
    for (d0, f0), (d1, f1) in zip(zip(dims, fdims), zip(dims[1:], fdims[1:])):
        if f1 - f0 not in (0, d1 - d0):
            raise RuntimeError(
                f"F-image dimension dichotomy fails on gap {d0}..{d1}: "
                f"{f0} -> {f1}"
            )
    return CanonicalFlag(module, chain, dims, fdims)


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
    checks that psi is the label's final type); the label is re-verified
    against the raw F-image dimensions at the canonical dimensions.
    """
    flag = canonical_flag(module)
    g = module.g
    psi = [0] * (2 * g + 1)
    for (d0, f0), (d1, f1) in zip(
        zip(flag.dims, flag.fdims), zip(flag.dims[1:], flag.fdims[1:])
    ):
        for i in range(d0, d1 + 1):
            psi[i] = f0 if f1 == f0 else f0 + (i - d0)
    w = _label_of_final_type(tuple(psi), g)
    for d, f in zip(flag.dims, flag.fdims):
        if psi[d] != f:
            raise RuntimeError("matched label disagrees at a canonical dimension")
    return EOType(w, tuple(psi))


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
