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
containing ker V that is stable under V-preimage and complement.  It is
closed with a worklist, so each member's V-preimage and complement are
computed once, and a closure that grows past 2g+1 members (the longest
chain in a 2g-dimensional space) is refused at once; the members are
then a ``symplectic.Flag``, which checks the chain, and the flag must
be self-dual.  Its F-image dimensions interpolate to the final type
psi, and the EO label is the minimal Siegel representative w with
psi(i) = i - r_w(i, g), read off the positions where psi does not jump.

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
        return linalg.frob_map(self.ctx, self.vmat, 1)

    def _span(self, rows: np.ndarray) -> Subspace:
        return Subspace._from_rref(self.space, rows)

    def kernel_of_F(self) -> Subspace:
        """ker F; computed once."""
        if self._ker_f is None:
            self._ker_f = self._span(linalg.nullspace(self.ctx, self.f_linear))
        return self._ker_f

    def kernel_of_V(self) -> Subspace:
        """ker V; computed once."""
        if self._ker_v is None:
            self._ker_v = self._span(linalg.nullspace(self.ctx, self.v_linear))
        return self._ker_v

    def image_of_F(self) -> Subspace:
        return self._span(linalg.row_space(self.ctx, self.f_linear.T))

    def image_of_V(self) -> Subspace:
        return self._span(linalg.row_space(self.ctx, self.v_linear.T))

    def f_image_dim(self, sub: Subspace) -> int:
        """dim F(C^(p)) for a subspace C."""
        if sub.dim == 0:
            return 0
        powered = linalg.frob_map(self.ctx, sub.basis, 1)
        return linalg.rank(self.ctx, linalg.matmul(self.ctx, powered, self.fmat.T))

    def v_preimage(self, sub: Subspace) -> Subspace:
        """{x : V(x) lies in the p-twist of C}.

        V^{-1}(0) is ker V and V^{-1} of the whole space is the whole
        space; any other C is solved exactly, as a linear preimage of its
        annihilator under the untwisted matrix composed with the
        (bijective) Frobenius.
        """
        if sub.dim == 0:
            return self.kernel_of_V()
        if sub.dim == self.dim:
            return sub
        pre = linalg.nullspace(self.ctx, linalg.matmul(self.ctx, sub.ann, self.vmat))
        return self._span(linalg.frob_map(self.ctx, pre, 1))

    def transport(self, s: np.ndarray) -> "DieudonneModule":
        """The isomorphic module in the basis x = S x'."""
        ctx = self.ctx
        s_inv = linalg.inverse(ctx, s)
        f2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self.fmat),
                           linalg.frob_map(ctx, s, 1))
        v2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self.vmat),
                           linalg.frob_map(ctx, s, -1))
        w2 = linalg.matmul(ctx, linalg.matmul(ctx, s.T, self.pairing), s)
        return DieudonneModule(
            ctx, self.g, self.c, f2, v2, w2, self.slot_bounds, point=None
        )

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        ctx, dim, g = self.ctx, self.dim, self.g
        a = self.fmat
        b = self.vmat
        v_lin = self.v_linear
        if a.shape != (dim, dim) or b.shape != (dim, dim) or self.space.dim != dim:
            raise ValueError("operator and pairing matrices must be 2g x 2g")
        if linalg.matmul(ctx, a, v_lin).any():
            raise RuntimeError("F after V is not zero")
        if linalg.matmul(ctx, b, linalg.frob_map(ctx, a, -1)).any():
            raise RuntimeError("V after F is not zero")
        ker_f = self.kernel_of_F()
        if ker_f.dim != g:
            raise RuntimeError(f"dim ker F = {ker_f.dim} != g = {g}")
        if ker_f != self.image_of_V():
            raise RuntimeError("ker F != im V")
        if self.kernel_of_V() != self.image_of_F():
            raise RuntimeError("ker V != im F")
        omega = self.pairing
        lhs = linalg.matmul(ctx, a.T, omega)
        rhs = linalg.matmul(
            ctx, linalg.frob_map(ctx, omega, 1), linalg.frob_map(ctx, b, 1)
        )
        if not np.array_equal(lhs, rhs):
            raise RuntimeError("adjunction <Fx, y> = <x, Vy>^p fails")
        if self.point is not None:
            self._check_kernel_shapes()

    def _check_kernel_shapes(self) -> None:
        """ker F = pr_2^{-1}(U) and ker V = pr_2^{-1}(U twisted)."""
        u = self.point
        if self.kernel_of_F() != self._middle_pullback(u.basis):
            raise RuntimeError("ker F does not project onto the point")
        twisted = linalg.frob_map(self.ctx, u.basis, 1)
        if self.kernel_of_V() != self._middle_pullback(twisted):
            raise RuntimeError("ker V does not project onto the twisted point")

    def _middle_pullback(self, rows: np.ndarray) -> Subspace:
        """pr_2^{-1} of a subspace of the middle slot."""
        lo, hi = self.slot_bounds[2], self.slot_bounds[3]
        k = rows.shape[0]
        out = linalg.zeros(k + (self.dim - hi), self.dim)
        out[:k, lo:hi] = rows
        for i in range(self.dim - hi):
            out[k + i, hi + i] = 1
        return Subspace(self.space, out)


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
    pivots = linalg.rref(ctx, basis)[1]
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
    frob = lambda mat, r: linalg.frob_map(ctx, mat, r)

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

    gram = space.gram
    p04 = linalg.matmul(ctx, linalg.matmul(ctx, m_u.T, gram), m_w)
    omega = linalg.zeros(dim, dim)
    omega[s0, s4] = p04
    omega[s4, s0] = neg(p04.T)
    if k:
        omega[s1, s3] = linalg.eye(ctx, k)
        omega[s3, s1] = neg(linalg.eye(ctx, k))
    omega[s2, s2] = neg(gram)

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
    """Close {ker V} under V-preimage and pairing-complement, then grade.

    The closure runs as a worklist: each new member gets its V-preimage
    once and that preimage's complement once (cached on the preimage,
    so the self-duality check reuses it).  The result is the least
    closed set, whatever the order of the work.  A chain in a
    2g-dimensional space has at most 2g+1 members, so a closure that
    grows past that raises RuntimeError at once.  The members must form
    a ``Flag`` that is self-dual, and on each gap the F-image dimension
    must grow by zero or by the full gap (the dichotomy the final type
    is read from).  Violations raise RuntimeError.
    """
    space = module.space
    limit = module.dim + 1
    # each member maps to the object kept for it, so an equal subspace
    # found again reuses the kept one's cached complement
    members: dict[Subspace, Subspace] = {}
    todo: list[Subspace] = []

    def add(sub: Subspace) -> Subspace:
        kept = members.get(sub)
        if kept is None:
            members[sub] = kept = sub
            todo.append(sub)
            if len(members) > limit:
                raise RuntimeError(
                    f"canonical closure exceeds {limit} members, "
                    "the most a chain can hold"
                )
        return kept

    add(zero_subspace(space))
    add(full_subspace(space))
    add(module.kernel_of_V())
    while todo:
        add(add(module.v_preimage(todo.pop())).perp())

    try:
        flag = Flag(members.values())
    except ValueError as exc:
        raise RuntimeError(f"canonical members are not a chain: {exc}") from exc
    if not flag.is_self_dual():
        raise RuntimeError("canonical flag is not self-dual")

    fdims = tuple(module.f_image_dim(m) for m in flag.members)
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
