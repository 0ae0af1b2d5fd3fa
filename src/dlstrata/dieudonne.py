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

The canonical flag is the smallest chain containing ker V that is
stable under V-preimage and pairing-complement.  It is closed with a
worklist, so each member's V-preimage and complement are computed once,
and a closure that grows past 2g+1 members (the longest chain in a
2g-dimensional space) is refused at once.  Its F-image dimensions
interpolate to the final type psi, and the EO label is the minimal
Siegel representative w with psi(i) = i - r_w(i, g), read off the
positions where psi does not jump.

Modules are immutable after construction (every constructor runs the
full invariant battery, and ker F and ker V are computed once and kept
read-only), so label verification over many points can be
parallelized trivially; the matching table is shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dlclassify, linalg, weyl
from .gf import FieldCtx
from .linalg import DTYPE
from .symplectic import Subspace
from .weyl import WeylElement


@dataclass(frozen=True)
class SemilinearMap:
    """x -> matrix . x^[p^twist] (entrywise power, then the linear map)."""

    ctx: FieldCtx
    matrix: np.ndarray
    twist: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        powered = linalg.frob_map(self.ctx, np.asarray(x, dtype=DTYPE), self.twist)
        return linalg.mat_vec(self.ctx, self.matrix, powered)

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """(A, r) after (B, s) = (A . B^[p^r], r + s)."""
        mat = linalg.matmul(
            self.ctx, self.matrix, linalg.frob_map(self.ctx, other.matrix, self.twist)
        )
        return SemilinearMap(self.ctx, mat, self.twist + other.twist)

    def kernel(self) -> np.ndarray:
        """Row basis of {x : matrix . x^[p^twist] = 0}."""
        return linalg.frob_map(
            self.ctx, linalg.nullspace(self.ctx, self.matrix), -self.twist
        )

    def image_of_rows(self, rows: np.ndarray) -> np.ndarray:
        powered = linalg.frob_map(self.ctx, rows, self.twist)
        return linalg.row_space(
            self.ctx, linalg.matmul(self.ctx, powered, self.matrix.T)
        )


def _read_only(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


class DieudonneModule:
    """A 2g-dimensional space with semilinear F, V and an alternating pairing."""

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
        self.fmap = SemilinearMap(ctx, np.asarray(fmat, dtype=DTYPE), 1)
        self.vmap = SemilinearMap(ctx, np.asarray(vmat, dtype=DTYPE), -1)
        self.pairing = np.asarray(pairing, dtype=DTYPE)
        self.slot_bounds = tuple(slot_bounds)
        self.point = point
        self._ker_f: np.ndarray | None = None
        self._ker_v: np.ndarray | None = None
        self._validate()

    # -- linear-level views ------------------------------------------------

    @property
    def f_linear(self) -> np.ndarray:
        """F as a plain matrix on twisted source coordinates."""
        return self.fmap.matrix

    @property
    def v_linear(self) -> np.ndarray:
        """V as a plain matrix into twisted target coordinates."""
        return linalg.frob_map(self.ctx, self.vmap.matrix, 1)

    def kernel_of_F(self) -> np.ndarray:
        """Canonical rows of ker F; computed once, read-only."""
        if self._ker_f is None:
            self._ker_f = _read_only(linalg.nullspace(self.ctx, self.f_linear))
        return self._ker_f

    def kernel_of_V(self) -> np.ndarray:
        """Canonical rows of ker V; computed once, read-only."""
        if self._ker_v is None:
            self._ker_v = _read_only(linalg.nullspace(self.ctx, self.v_linear))
        return self._ker_v

    def image_of_F(self) -> np.ndarray:
        return linalg.row_space(self.ctx, self.f_linear.T)

    def image_of_V(self) -> np.ndarray:
        return linalg.row_space(self.ctx, self.v_linear.T)

    def f_image_dim(self, rows: np.ndarray) -> int:
        """dim F(C^(p)) for a subspace C given by rows."""
        if rows.shape[0] == 0:
            return 0
        powered = linalg.frob_map(self.ctx, rows, 1)
        return linalg.rank(
            self.ctx, linalg.matmul(self.ctx, powered, self.fmap.matrix.T)
        )

    def v_preimage(self, rows: np.ndarray) -> np.ndarray:
        """Row basis of {x : V(x) lies in the p-twist of the row span}.

        Solved exactly: a linear preimage under the untwisted matrix
        composed with the (bijective) Frobenius.
        """
        ann = linalg.nullspace(self.ctx, rows) if rows.shape[0] else linalg.eye(self.ctx, self.dim)
        pre = linalg.nullspace(
            self.ctx, linalg.matmul(self.ctx, ann, self.vmap.matrix)
        )
        return linalg.frob_map(self.ctx, pre, 1)

    def perp(self, rows: np.ndarray) -> np.ndarray:
        """Complement under the module pairing."""
        if rows.shape[0] == 0:
            return linalg.eye(self.ctx, self.dim)
        return linalg.nullspace(
            self.ctx, linalg.matmul(self.ctx, rows, self.pairing)
        )

    def transport(self, s: np.ndarray) -> "DieudonneModule":
        """The isomorphic module in the basis x = S x'."""
        ctx = self.ctx
        s_inv = linalg.inverse(ctx, s)
        f2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self.fmap.matrix),
                           linalg.frob_map(ctx, s, 1))
        v2 = linalg.matmul(ctx, linalg.matmul(ctx, s_inv, self.vmap.matrix),
                           linalg.frob_map(ctx, s, -1))
        w2 = linalg.matmul(ctx, linalg.matmul(ctx, s.T, self.pairing), s)
        return DieudonneModule(
            ctx, self.g, self.c, f2, v2, w2, self.slot_bounds, point=None
        )

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        ctx, dim, g = self.ctx, self.dim, self.g
        a = self.fmap.matrix
        b = self.vmap.matrix
        v_lin = self.v_linear
        if a.shape != (dim, dim) or b.shape != (dim, dim):
            raise ValueError("operator matrices must be 2g x 2g")
        if linalg.matmul(ctx, a, v_lin).any():
            raise RuntimeError("F after V is not zero")
        if linalg.matmul(ctx, b, linalg.frob_map(ctx, a, -1)).any():
            raise RuntimeError("V after F is not zero")
        ker_f, im_v = self.kernel_of_F(), self.image_of_V()
        if ker_f.shape[0] != g:
            raise RuntimeError(f"dim ker F = {ker_f.shape[0]} != g = {g}")
        if not np.array_equal(ker_f, im_v):
            raise RuntimeError("ker F != im V")
        if not np.array_equal(self.kernel_of_V(), self.image_of_F()):
            raise RuntimeError("ker V != im F")
        omega = self.pairing
        if linalg.rank(ctx, omega) != dim:
            raise RuntimeError("pairing is degenerate")
        if ctx.add[omega, omega.T].any() or omega.diagonal().any():
            raise RuntimeError("pairing is not alternating")
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
        if not np.array_equal(self.kernel_of_F(), self._middle_pullback(u.basis)):
            raise RuntimeError("ker F does not project onto the point")
        twisted = linalg.frob_map(self.ctx, u.basis, 1)
        if not np.array_equal(self.kernel_of_V(), self._middle_pullback(twisted)):
            raise RuntimeError("ker V does not project onto the twisted point")

    def _middle_pullback(self, rows: np.ndarray) -> np.ndarray:
        """pr_2^{-1} of a subspace of the middle slot, as canonical rows."""
        lo, hi = self.slot_bounds[2], self.slot_bounds[3]
        k = rows.shape[0]
        out = linalg.zeros(k + (self.dim - hi), self.dim)
        out[:k, lo:hi] = rows
        for i in range(self.dim - hi):
            out[k + i, hi + i] = 1
        return linalg.row_space(self.ctx, out)


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
    members: tuple[np.ndarray, ...]
    fdims: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.members)


def canonical_flag(module: DieudonneModule) -> CanonicalFlag:
    """Close {ker V} under V-preimage and pairing-complement, then grade.

    The closure runs as a worklist: each new member gets its V-preimage
    once and that preimage's complement once, and the complements are
    kept (keyed by the member's bytes) for the self-duality check, which
    computes the complement of every other member once.  The result is
    the least closed set, whatever the order of the work.  A chain in a
    2g-dimensional space has at most 2g+1 members, so a closure that
    grows past that raises RuntimeError at once.  The result must be a
    self-dual chain, and on each gap the F-image dimension must grow by
    zero or by the full gap (the dichotomy the final type is read from).
    Violations raise RuntimeError.
    """
    ctx = module.ctx
    limit = module.dim + 1
    members: dict[bytes, np.ndarray] = {}
    perps: dict[bytes, np.ndarray] = {}
    todo: list[np.ndarray] = []

    def add(rows: np.ndarray) -> bytes:
        key = rows.tobytes()
        if key not in members:
            members[key] = rows
            todo.append(rows)
            if len(members) > limit:
                raise RuntimeError(
                    f"canonical closure exceeds {limit} members, "
                    "the most a chain can hold"
                )
        return key

    def perp_of(key: bytes) -> np.ndarray:
        if key not in perps:
            perps[key] = module.perp(members[key])
        return perps[key]

    add(linalg.zeros(0, module.dim))
    add(linalg.eye(ctx, module.dim))
    add(module.kernel_of_V())
    while todo:
        pre = add(module.v_preimage(todo.pop()))
        add(perp_of(pre))

    chain = sorted(members.values(), key=lambda m: m.shape[0])
    dims = [m.shape[0] for m in chain]
    if len(set(dims)) != len(dims):
        raise RuntimeError("canonical members are not a chain (repeated dims)")
    for small, big in zip(chain, chain[1:]):
        stacked = np.concatenate([small, big]) if small.shape[0] else big
        if linalg.rank(ctx, stacked) != big.shape[0]:
            raise RuntimeError("canonical members are not totally ordered")
    for key in members:
        if perp_of(key).tobytes() not in members:
            raise RuntimeError("canonical flag is not self-dual")

    fdims = [module.f_image_dim(rows) for rows in chain]
    for (d0, f0), (d1, f1) in zip(zip(dims, fdims), zip(dims[1:], fdims[1:])):
        if f1 - f0 not in (0, d1 - d0):
            raise RuntimeError(
                f"F-image dimension dichotomy fails on gap {d0}..{d1}: "
                f"{f0} -> {f1}"
            )
    return CanonicalFlag(module, tuple(chain), tuple(fdims))


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
        "f_matrix": _matrix_coeffs(ctx, module.fmap.matrix),
        "f_twist": module.fmap.twist,
        "v_matrix": _matrix_coeffs(ctx, module.vmap.matrix),
        "v_twist": module.vmap.twist,
        "pairing": _matrix_coeffs(ctx, module.pairing),
    }


def eo_type_to_json(eo: EOType) -> dict:
    return {
        "one_line": list(eo.w.perm),
        "word": list(weyl.reduced_word(eo.w)),
        "psi": list(eo.psi),
    }
