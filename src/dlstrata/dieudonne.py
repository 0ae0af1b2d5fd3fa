"""Mod-p Dieudonné modules built from Lagrangian points, and their EO type.

The module attached to a Lagrangian U in F^{2c} (and an ambient genus
g >= 2c) is realized as the direct sum of the graded pieces of its
natural filtration, five slots of dimensions

    [ c | g-2c | 2c | g-2c | c ]      (U, K, L-twist, K-twist, L/U)

with the semilinear operators acting two slots forward:

* V (twist -1) acts by the inclusion of U into L, the identity on K,
  and the projection L -> L/U;
* F (twist +1) acts by minus the same three maps, with the Frobenius
  twists forced by semilinearity;
* the pairing couples slot 0 with slot 4 through the symplectic form
  (well defined because U is Lagrangian), slot 2 with itself by minus
  the form, and the K slots by an antisymmetrized identity block.

The minus signs and twist placements are pinned by three independent
requirements, all asserted at construction: F and V compose to zero
with matching kernels and images (the mod-p Dieudonné conditions), the
kernels project onto U and its p-twist inside the middle slot, and the
adjunction <F x, y> = <x, V y>^p holds on the nose.  Any residual sign
freedom is harmless and is demonstrated to be so in the tests.

The module's 2g-dimensional space is a ``symplectic.SymplecticSpace``
whose Gram matrix is the pairing (``SymplecticSpace.from_gram`` checks
that it is alternating and nondegenerate), so every subspace here is a
``symplectic.Subspace``: canonical, immutable, with its complement
under the pairing cached.  The canonical flag is the smallest chain
containing ker V that is stable under V-preimage and complement (Oort
2001).  The adjunction gives V^{-1}(C) = F(C-perp)-perp for every
subspace C, and ker V = F(M), so that is also the least set holding 0
and M that is stable under F-image and complement, and it is closed
that way: with a worklist, so each member's F-image and complement are
computed once, one elimination each, and a closure that grows past
2g+1 members (the longest chain in a 2g-dimensional space) is refused
at once.  The members are then a ``symplectic.Flag``, which checks the
chain, and the flag must be self-dual.  Each member's F-image
dimension is read off the image the closure kept for it; these
interpolate to the final type psi, and the EO label is the minimal
Siegel representative w with psi(i) = i - r_w(i, g), read off the
positions where psi does not jump.

The operator and pairing blocks are assembled as numpy arrays, and the
module converts them once into the rows its kernels work on (F, its
transpose, V, the linear V and the pairing; see ``linalg``); the arrays
stay for transport and serialization.

Modules are immutable after construction (every constructor runs the
full invariant battery, and ker F and ker V are computed once), so
label verification over many points can be parallelized trivially; the
matching table is shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dlclassify, linalg, weyl
from .gf import FieldCtx
from .linalg import DTYPE
from .symplectic import Flag, Subspace, SymplecticSpace, full_subspace, zero_subspace
from .weyl import WeylElement


class DieudonneModule:
    """A 2g-dimensional space with semilinear F, V and an alternating pairing.

    ``fmat`` and ``vmat`` are the matrices of F (twist +1) and V (twist
    -1): F(x) = fmat . x^[p] and V(x) = vmat . x^[1/p].  The module's
    space is a ``SymplecticSpace`` whose form is the pairing, so its
    subspaces are ``Subspace`` values with cached complements.
    """

    def __init__(
        self,
        ctx: FieldCtx,
        g: int,
        c: int,
        fmat: np.ndarray,
        vmat: np.ndarray,
        pairing: np.ndarray,
        slot_bounds: tuple[int, ...],
        point: Subspace | None = None,
    ):
        self.ctx = ctx
        self.g = g
        self.c = c
        self.dim = 2 * g
        self.fmat = np.asarray(fmat, dtype=DTYPE)
        self.vmat = np.asarray(vmat, dtype=DTYPE)
        self.space = SymplecticSpace.from_gram(ctx, pairing)
        self.slot_bounds = tuple(slot_bounds)
        self.point = point
        # row forms for the kernels; the pairing's rows are the space's
        self._f_rows = linalg.as_rows(self.fmat)
        self._ft_rows = linalg.as_rows(self.fmat.T)
        self._v_rows = linalg.as_rows(self.vmat)
        self._vlin_rows = linalg.frob_map(ctx, self._v_rows, 1)
        self._ker_f: Subspace | None = None
        self._ker_v: Subspace | None = None
        self._validate()

    @property
    def pairing(self) -> np.ndarray:
        return self.space.gram

    # -- linear-level views ------------------------------------------------

    @property
    def f_linear(self) -> np.ndarray:
        """F as a plain matrix on twisted source coordinates."""
        return self.fmat

    @property
    def v_linear(self) -> np.ndarray:
        """V as a plain matrix into twisted target coordinates."""
        return linalg.as_array(self._vlin_rows, self.dim)

    def kernel_of_F(self) -> Subspace:
        """ker F; computed once."""
        if self._ker_f is None:
            self._ker_f = Subspace._from_rref(
                self.space, linalg.nullspace(self.ctx, self._f_rows, self.dim)
            )
        return self._ker_f

    def kernel_of_V(self) -> Subspace:
        """ker V; computed once."""
        if self._ker_v is None:
            self._ker_v = Subspace._from_rref(
                self.space, linalg.nullspace(self.ctx, self._vlin_rows, self.dim)
            )
        return self._ker_v

    def image_of_F(self) -> Subspace:
        return Subspace._from_rref(
            self.space, *linalg.rref(self.ctx, self._ft_rows, self.dim)
        )

    def image_of_V(self) -> Subspace:
        columns = tuple(zip(*self._vlin_rows))
        return Subspace._from_rref(self.space, *linalg.rref(self.ctx, columns, self.dim))

    def f_image(self, sub: Subspace) -> Subspace:
        """F(C) = fmat . C^(p), one product and one elimination.

        F(0) is 0, and F of the whole space is the cached ker V (the two
        are checked equal at construction), so neither needs elimination.
        """
        if sub.dim == 0:
            return sub
        if sub.dim == self.dim:
            return self.kernel_of_V()
        ctx, dim = self.ctx, self.dim
        powered = linalg.frob_map(ctx, sub.rows, 1)
        image = linalg.matmul(ctx, powered, self._ft_rows, dim)
        return Subspace._from_rref(self.space, *linalg.rref(ctx, image, dim))

    def transport(self, s: np.ndarray) -> "DieudonneModule":
        """The isomorphic module in the basis x = S x'."""
        ctx, dim = self.ctx, self.dim
        s_rows = linalg.as_rows(s)
        s_inv = linalg.inverse(ctx, s_rows)
        f2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self._f_rows, dim),
                           linalg.frob_map(ctx, s_rows, 1), dim)
        v2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self._v_rows, dim),
                           linalg.frob_map(ctx, s_rows, -1), dim)
        s_t = linalg.as_rows(s.T)
        w2 = linalg.matmul(ctx, linalg.matmul(ctx, s_t, self.space.gram_rows, dim),
                           s_rows, dim)
        return DieudonneModule(
            ctx, self.g, self.c, f2, v2, w2, self.slot_bounds, point=None
        )

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        ctx, dim, g = self.ctx, self.dim, self.g
        if (self.fmat.shape != (dim, dim) or self.vmat.shape != (dim, dim)
                or self.space.dim != dim):
            raise ValueError("operator and pairing matrices must be 2g x 2g")
        if any(map(any, linalg.matmul(ctx, self._f_rows, self._vlin_rows, dim))):
            raise RuntimeError("F after V is not zero")
        f_untwisted = linalg.frob_map(ctx, self._f_rows, -1)
        if any(map(any, linalg.matmul(ctx, self._v_rows, f_untwisted, dim))):
            raise RuntimeError("V after F is not zero")
        ker_f = self.kernel_of_F()
        if ker_f.dim != g:
            raise RuntimeError(f"dim ker F = {ker_f.dim} != g = {g}")
        if ker_f != self.image_of_V():
            raise RuntimeError("ker F != im V")
        if self.kernel_of_V() != self.image_of_F():
            raise RuntimeError("ker V != im F")
        omega = self.space.gram_rows
        lhs = linalg.matmul(ctx, self._ft_rows, omega, dim)
        rhs = linalg.matmul(ctx, linalg.frob_map(ctx, omega, 1), self._vlin_rows, dim)
        if lhs != rhs:
            raise RuntimeError("adjunction <Fx, y> = <x, Vy>^p fails")
        if self.point is not None:
            self._check_kernel_shapes()

    def _check_kernel_shapes(self) -> None:
        """ker F = pr_2^{-1}(U) and ker V = pr_2^{-1}(U twisted)."""
        u = self.point
        if self.kernel_of_F() != self._middle_pullback(u.rows, u.pivots):
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


def build_from_lagrangian(u: Subspace, g: int) -> DieudonneModule:
    """The split graded module of a Lagrangian point, for genus g >= 2c."""
    space = u.space
    c = space.n
    if 2 * c > g:
        raise ValueError("genus must be at least twice the point rank")
    if not u.is_lagrangian():
        raise ValueError("point must be a Lagrangian subspace")
    ctx = space.ctx
    dim = 2 * g
    k = g - 2 * c
    bounds = (0, c, g - c, g + c, 2 * g - c, 2 * g)
    s0 = slice(0, c)
    s1 = slice(c, g - c)
    s2 = slice(g - c, g + c)
    s3 = slice(g + c, 2 * g - c)
    s4 = slice(2 * g - c, 2 * g)

    basis = u.basis
    pivots = u.pivots
    nonpiv = [j for j in range(2 * c) if j not in pivots]
    m_u = basis.T.copy()  # 2c x c, columns are the point's basis vectors
    m_w = linalg.zeros(2 * c, c)
    for j, col in enumerate(nonpiv):
        m_w[col, j] = 1
    # W-coordinates of x: x[nonpivot] minus the U-part contribution
    p_w = linalg.zeros(c, 2 * c)
    for j, col in enumerate(nonpiv):
        p_w[j, col] = 1
        for i, pcol in enumerate(pivots):
            p_w[j, pcol] = ctx.neg[basis[i, col]]

    neg = lambda mat: ctx.neg[mat]
    frob = lambda mat, r: ctx.frob_table(r)[mat]

    a = linalg.zeros(dim, dim)
    a[s2, s0] = neg(frob(m_u, 1))
    if k:
        a[s3, s1] = neg(linalg.eye(ctx, k))
    a[s4, s2] = neg(p_w)

    b = linalg.zeros(dim, dim)
    b[s2, s0] = frob(m_u, -1)
    if k:
        b[s3, s1] = linalg.eye(ctx, k)
    b[s4, s2] = p_w

    ug = linalg.matmul(ctx, u.rows, space.gram_rows, 2 * c)
    p04 = linalg.as_array(linalg.matmul(ctx, ug, linalg.as_rows(m_w), c), c)
    omega = linalg.zeros(dim, dim)
    omega[s0, s4] = p04
    omega[s4, s0] = neg(p04.T)
    if k:
        omega[s1, s3] = linalg.eye(ctx, k)
        omega[s3, s1] = neg(linalg.eye(ctx, k))
    omega[s2, s2] = neg(space.gram)

    return DieudonneModule(ctx, g, c, a, b, omega, bounds, point=u)


@dataclass(frozen=True)
class CanonicalFlag:
    """The stabilized chain with its F-image dimensions."""

    module: DieudonneModule
    flag: Flag
    fdims: tuple[int, ...]

    @property
    def members(self) -> tuple[Subspace, ...]:
        return self.flag.members

    @property
    def dims(self) -> tuple[int, ...]:
        return self.flag.dims


def canonical_flag(module: DieudonneModule) -> CanonicalFlag:
    """Close {0, M} under F-image and pairing-complement, then grade.

    This is the closure under V-preimage and complement that defines
    the canonical filtration: the adjunction <Fx, y> = <x, Vy>^p gives
    V^{-1}(C) = F(C-perp)-perp for every subspace C, so a set closed
    under complement is closed under V-preimage exactly when it is
    closed under F-image, and F(M) = ker V = V^{-1}(0).  The closure
    runs as a worklist: each new member gets its F-image once and its
    complement once (cached on the member, so the self-duality check
    reuses it), and the images are kept, so each member's F-image
    dimension is read off its image.  The result is the least closed
    set, whatever the order of the work.  A chain in a 2g-dimensional
    space has at most 2g+1 members, so a closure that grows past that
    raises RuntimeError at once.  The members must form a ``Flag`` that
    is self-dual, and on each gap the F-image dimension must grow by
    zero or by the full gap (the dichotomy the final type is read
    from).  Violations raise RuntimeError.
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

    try:
        flag = Flag(members)
    except ValueError as exc:
        raise RuntimeError(f"canonical members are not a chain: {exc}") from exc
    if not flag.is_self_dual():
        raise RuntimeError("canonical flag is not self-dual")

    fdims = tuple(images[m].dim for m in flag.members)
    dims = flag.dims
    for (d0, f0), (d1, f1) in zip(zip(dims, fdims), zip(dims[1:], fdims[1:])):
        if f1 - f0 not in (0, d1 - d0):
            raise RuntimeError(
                f"F-image dimension dichotomy fails on gap {d0}..{d1}: "
                f"{f0} -> {f1}"
            )
    return CanonicalFlag(module, flag, fdims)


@dataclass(frozen=True)
class EOType:
    """The EO label w and its final type psi on 0..2g."""

    w: WeylElement
    psi: tuple[int, ...]


def final_type_of(w: WeylElement, g: int) -> tuple[int, ...]:
    """psi_w(i) = i - r_w(i, g) on 0..2g."""
    return tuple(i - weyl.r_w(w, i, g) for i in range(2 * g + 1))


def _label_of_final_type(psi: tuple[int, ...], g: int) -> WeylElement:
    """The minimal Siegel representative w with final type psi.

    psi(i) - psi(i-1) = 1 - [w(i) <= g], so the g positions where psi
    does not jump are w^{-1}(1) < ... < w^{-1}(g) (Oort 2001); they fix w
    on those positions and symmetry fixes the rest.  A psi that is not
    the final type of any such w raises RuntimeError.
    """
    flat = [i for i in range(1, 2 * g + 1) if psi[i] == psi[i - 1]]
    perm = [0] * (2 * g)
    if len(flat) == g:
        for j, pos in enumerate(flat, start=1):
            perm[pos - 1] = j
            perm[2 * g - pos] = 2 * g + 1 - j
    try:
        w = WeylElement(g, tuple(perm))
    except ValueError as exc:
        raise RuntimeError(f"no label has the measured final type {list(psi)}") from exc
    if final_type_of(w, g) != tuple(psi):
        raise RuntimeError(f"no label has the measured final type {list(psi)}")
    return w


def eo_type(module: DieudonneModule) -> EOType:
    """Read the final type off the canonical flag and invert it to a label.

    psi is interpolated across canonical gaps using the zero-or-full
    dichotomy and inverted directly (``_label_of_final_type``); the label
    is re-verified against the raw F-image dimensions at the canonical
    dimensions.
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
        if psi[d] != f or (d - weyl.r_w(w, d, g)) != f:
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
        fine = dlclassify.classify_fine(u, check=False)
    return eo.w.perm == weyl.r_map_inv(fine, g).perm


def _matrix_coeffs(ctx: FieldCtx, mat: np.ndarray) -> list[list[tuple[int, ...]]]:
    return [[ctx.coeffs_of(int(v)) for v in row] for row in mat]


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
        "f_matrix": _matrix_coeffs(ctx, module.fmat),
        "f_twist": 1,
        "v_matrix": _matrix_coeffs(ctx, module.vmat),
        "v_twist": -1,
        "pairing": _matrix_coeffs(ctx, module.pairing),
    }


def eo_type_to_json(eo: EOType) -> dict:
    return {
        "one_line": list(eo.w.perm),
        "word": list(weyl.reduced_word(eo.w)),
        "psi": list(eo.psi),
    }
