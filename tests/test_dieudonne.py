import numpy as np
import pytest

from dlstrata import dlclassify as dc, linalg, weyl
from dlstrata.dieudonne import (
    DieudonneModule,
    _label_of_final_type,
    build_from_lagrangian,
    canonical_flag,
    eo_type,
    final_type_of,
    verify_pullback,
)
from dlstrata.gf import field
from dlstrata.symplectic import (
    Subspace,
    SymplecticSpace,
    full_subspace,
    random_lagrangian,
    zero_subspace,
)


@pytest.fixture(scope="module")
def f16_line():
    """The non-rational line over F_16: the smallest wild point."""
    space = SymplecticSpace(field(2, 4), 1)
    s = space.ctx.gen
    return Subspace(space, np.array([[1, s.code]]))


@pytest.fixture(scope="module")
def f16_rational_line():
    space = SymplecticSpace(field(2, 4), 1)
    return Subspace(space, np.array([[1, 0]]))


def _semilinear_apply(ctx, matrix, twist, x):
    """matrix . x^[p^twist], one scalar table lookup at a time."""
    powered = [int(ctx.frob_table(twist)[int(v)]) for v in x]
    out = []
    for row in matrix:
        acc = 0
        for a, b in zip(row, powered):
            acc = int(ctx.add[acc, ctx.mul[int(a), b]])
        out.append(acc)
    return out


def _preimage_by_nullspace(mod, rows):
    """{x : V(x) in the span of rows}, by null spaces with no special case."""
    ctx = mod.ctx
    ann = linalg.nullspace(ctx, rows) if rows.shape[0] else linalg.eye(ctx, mod.dim)
    pre = linalg.nullspace(ctx, linalg.matmul(ctx, ann, mod.vmat))
    return linalg.frob_map(ctx, pre, 1)


def _complement(mod, rows):
    """The complement under the module pairing, by one null space."""
    return linalg.nullspace(mod.ctx, linalg.matmul(mod.ctx, rows, mod.pairing))


def test_build_checks_preconditions(f16_line):
    with pytest.raises(ValueError):
        build_from_lagrangian(f16_line, 1)  # needs g >= 2c
    space = SymplecticSpace(field(2, 2), 2)
    not_lag = Subspace(space, np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
    if not not_lag.is_isotropic():
        with pytest.raises(ValueError):
            build_from_lagrangian(not_lag, 4)


def test_module_dimensions_and_kernels(f16_line):
    for g in (2, 3, 4):
        mod = build_from_lagrangian(f16_line, g)
        assert mod.dim == 2 * g and mod.space.dim == 2 * g
        assert mod.kernel_of_F().dim == g
        assert np.array_equal(mod.kernel_of_F().basis, mod.image_of_V().basis)
        assert np.array_equal(mod.kernel_of_V().basis, mod.image_of_F().basis)


def test_adjunction_on_all_basis_pairs(f16_line):
    mod = build_from_lagrangian(f16_line, 3)
    ctx = mod.ctx
    eye = linalg.eye(ctx, mod.dim)
    for i in range(mod.dim):
        fx = _semilinear_apply(ctx, mod.fmat, 1, eye[i])
        for j in range(mod.dim):
            vy = _semilinear_apply(ctx, mod.vmat, -1, eye[j])
            lhs = 0
            rhs = 0
            for a in range(mod.dim):
                for b in range(mod.dim):
                    lhs = ctx.add[lhs, ctx.mul[ctx.mul[int(fx[a]), int(mod.pairing[a, b])], int(eye[j][b])]]
                    rhs = ctx.add[rhs, ctx.mul[ctx.mul[int(eye[i][a]), int(mod.pairing[a, b])], int(vy[b])]]
            assert int(lhs) == int(ctx.frob_table(1)[rhs])


def test_kernel_projects_onto_point_and_twist(f16_line):
    # the middle-slot reading of ker F and ker V, checked through the
    # public helpers rather than the construction-time trap
    mod = build_from_lagrangian(f16_line, 2)
    lo, hi = mod.slot_bounds[2], mod.slot_bounds[3]
    ker_f = mod.kernel_of_F().basis
    middle = [row[lo:hi] for row in ker_f if row[:lo].any() or row[lo:hi].any()]
    got = linalg.row_space(mod.ctx, np.array(middle))
    assert np.array_equal(got, f16_line.basis)
    ker_v = mod.kernel_of_V().basis
    middle = [row[lo:hi] for row in ker_v if row[lo:hi].any()]
    got = linalg.row_space(mod.ctx, np.array(middle))
    assert np.array_equal(got, linalg.frob_map(mod.ctx, f16_line.basis, 1))


def test_v_preimage_edges(f16_line, f16_rational_line):
    # V^{-1}(0) = ker V and V^{-1}(V) = V are answered without
    # elimination; both must agree with the generic null-space route
    for u, g in [(f16_line, 2), (f16_line, 3), (f16_rational_line, 2)]:
        mod = build_from_lagrangian(u, g)
        zero, full = zero_subspace(mod.space), full_subspace(mod.space)
        ker_v = mod.v_preimage(zero)
        assert 0 < ker_v.dim < mod.dim
        assert np.array_equal(ker_v.basis, _preimage_by_nullspace(mod, zero.basis))
        whole = mod.v_preimage(full)
        assert whole.dim == mod.dim
        assert np.array_equal(whole.basis, _preimage_by_nullspace(mod, full.basis))
        # and a proper subspace goes the generic way
        pre = mod.v_preimage(ker_v)
        assert np.array_equal(pre.basis, _preimage_by_nullspace(mod, ker_v.basis))


def test_v_preimage_matches_graded_formula(f16_line):
    """Preimages of slot pull-backs agree with the block computation."""
    mod = build_from_lagrangian(f16_line, 3)
    ctx = mod.ctx
    rng = np.random.default_rng(5)
    bounds = mod.slot_bounds
    for i in (0, 1, 2):
        lo_s, hi_s = bounds[i + 2], bounds[i + 3]
        lo_t, hi_t = bounds[i], bounds[i + 1]
        width = hi_s - lo_s
        h = linalg.row_space(
            ctx, rng.integers(0, ctx.q, size=(1, width)).astype(np.int32)
        )
        # pr_{i+2}^{-1}(H): embed H at its slot and add all later slots
        rows = [np.pad(r, (lo_s, mod.dim - hi_s)) for r in h]
        for t in range(hi_s, mod.dim):
            e = np.zeros(mod.dim, dtype=np.int32)
            e[t] = 1
            rows.append(e)
        pullback = linalg.row_space(ctx, np.array(rows, dtype=np.int32))
        lhs = mod.v_preimage(Subspace(mod.space, pullback)).basis
        # block route: solve the graded map into the slot, then pull back
        block = mod.vmat[lo_s:hi_s, lo_t:hi_t]
        ann = linalg.nullspace(ctx, h) if h.shape[0] else linalg.eye(ctx, width)
        sol = linalg.nullspace(ctx, linalg.matmul(ctx, ann, block))
        sol = linalg.frob_map(ctx, sol, 1)
        rows = [np.pad(r, (lo_t, mod.dim - hi_t)) for r in sol]
        for t in range(hi_t, mod.dim):
            e = np.zeros(mod.dim, dtype=np.int32)
            e[t] = 1
            rows.append(e)
        rhs = linalg.row_space(ctx, np.array(rows, dtype=np.int32))
        assert np.array_equal(lhs, rhs)


# -- canonical flags and final types ---------------------------------------


def test_rational_line_gives_superspecial_type(f16_rational_line):
    mod = build_from_lagrangian(f16_rational_line, 2)
    flag = canonical_flag(mod)
    assert flag.dims == (0, 2, 4)
    assert flag.fdims == (0, 0, 2)
    eo = eo_type(mod)
    assert eo.w.is_identity()
    assert eo.psi == (0, 0, 0, 1, 2)


def test_wild_line_genus_two_final_type(f16_line):
    mod = build_from_lagrangian(f16_line, 2)
    flag = canonical_flag(mod)
    assert flag.dims == (0, 1, 2, 3, 4)
    assert flag.fdims == (0, 0, 1, 1, 2)
    eo = eo_type(mod)
    assert eo.psi == (0, 0, 1, 1, 2)
    assert eo.w.perm == (1, 3, 2, 4)  # the lift of the rank-one reflection


def test_wild_line_genus_three_final_type(f16_line):
    mod = build_from_lagrangian(f16_line, 3)
    eo = eo_type(mod)
    assert eo.psi == (0, 0, 0, 1, 1, 2, 3)
    assert eo.w.perm == (1, 2, 4, 3, 5, 6)
    assert eo.w.perm == weyl.r_map_inv(weyl.simple_reflection(1, 1), 3).perm


def _round_closure(module):
    """The round-based closure that canonical_flag's worklist replaced.

    Kept as the reference: every member is re-run through V-preimage and
    complement in every round until a round adds nothing, both by plain
    null spaces (no cached kernel, complement or trivial case).  Returns
    the chain sorted by dimension and its F-image dimensions.
    """
    ctx, space = module.ctx, module.space
    members = set()

    def add(rows):
        sub = Subspace(space, rows)
        if sub in members:
            return False
        members.add(sub)
        return True

    add(linalg.zeros(0, module.dim))
    add(linalg.eye(ctx, module.dim))
    add(linalg.nullspace(ctx, module.v_linear))
    for _ in range(4 * module.g):
        grew = False
        for sub in list(members):
            pre = _preimage_by_nullspace(module, sub.basis)
            grew |= add(pre)
            grew |= add(_complement(module, pre))
        if not grew:
            break
    else:
        raise RuntimeError("reference closure did not stabilize")
    chain = sorted(members, key=lambda m: m.dim)
    return chain, tuple(module.f_image_dim(sub) for sub in chain)


def _closure_points():
    for u in dc._cached_lagrangians(1, 2, 2):  # every c = 1 point over F_16
        yield u, 2
        yield u, 3
    for u in dc._cached_lagrangians(2, 2, 1):  # every c = 2 point over F_4
        yield u, 4
    rng = np.random.default_rng(31)
    space = dc.census_space(2, 2, 2)
    for _ in range(40):
        u = random_lagrangian(space, rng)
        yield u, 4
        yield u, 5
    space = dc.census_space(3, 2, 2)
    for _ in range(20):
        yield random_lagrangian(space, rng), 6


def test_worklist_closure_matches_the_round_reference():
    for u, g in _closure_points():
        mod = build_from_lagrangian(u, g)
        flag = canonical_flag(mod)
        chain, fdims = _round_closure(mod)
        assert [(m.basis.shape, m.basis.tobytes()) for m in flag.members] == [
            (m.basis.shape, m.basis.tobytes()) for m in chain
        ]
        assert flag.fdims == fdims


def test_module_kernels_are_cached_read_only(f16_line):
    for g in (2, 3):
        mod = build_from_lagrangian(f16_line, g)
        for ker, linear in (
            (mod.kernel_of_F, mod.f_linear),
            (mod.kernel_of_V, mod.v_linear),
        ):
            sub = ker()
            assert ker() is sub
            assert not sub.basis.flags.writeable
            assert np.array_equal(sub.basis, linalg.nullspace(mod.ctx, linear))
            with pytest.raises(ValueError):
                sub.basis[0, 0] = 1


def test_closure_past_the_chain_bound_raises(f16_line, monkeypatch):
    mod = build_from_lagrangian(f16_line, 2)
    calls = []

    def fresh_line(sub):
        calls.append(sub)
        line = linalg.zeros(1, mod.dim)
        line[0, 0], line[0, 1] = 1, len(calls)
        return Subspace(mod.space, line)

    monkeypatch.setattr(mod, "v_preimage", fresh_line)
    with pytest.raises(RuntimeError, match="exceeds 5 members"):
        canonical_flag(mod)
    assert len(calls) <= 2 * mod.g + 1


def test_final_type_map_is_injective_on_representatives():
    for g in (1, 2, 3, 4, 5):
        types = {final_type_of(w, g) for w in weyl.enumerate_IW(g)}
        assert len(types) == 2**g


def test_final_type_inversion_against_the_scan():
    for g in range(1, 7):
        for w in weyl.enumerate_IW(g):
            psi = final_type_of(w, g)
            # reference: the scan over all 2^g labels that eo_type replaces
            scan = [x for x in weyl.enumerate_IW(g) if final_type_of(x, g) == psi]
            assert [x.perm for x in scan] == [w.perm]
            assert _label_of_final_type(psi, g).perm == w.perm


def test_final_type_inversion_rejects_other_sequences():
    for psi in (
        (0, 1, 2, 3, 4),  # no flat step
        (0, 1, 1, 1, 2),  # flat steps at a symmetric pair of positions
        (0, 0, 1, 1, 5),  # right flat steps, wrong values
    ):
        with pytest.raises(RuntimeError):
            _label_of_final_type(psi, 2)


def test_psi_duality_and_flag_self_duality(f16_line, f16_rational_line):
    for u, g in [(f16_line, 2), (f16_line, 3), (f16_rational_line, 2)]:
        mod = build_from_lagrangian(u, g)
        flag = canonical_flag(mod)
        keys = {m.basis.tobytes() for m in flag.members}
        for m in flag.members:
            assert _complement(mod, m.basis).tobytes() in keys
        psi = eo_type(mod).psi
        for i in range(2 * g + 1):
            assert psi[2 * g - i] == psi[i] + g - i


def test_eo_type_is_basis_independent(f16_line):
    mod = build_from_lagrangian(f16_line, 2)
    eo = eo_type(mod)
    rng = np.random.default_rng(8)
    ctx = mod.ctx
    for _ in range(5):
        while True:
            s = rng.integers(0, ctx.q, size=(mod.dim, mod.dim)).astype(np.int32)
            if linalg.rank(ctx, s) == mod.dim:
                break
        moved = mod.transport(s)
        assert eo_type(moved).w.perm == eo.w.perm


def test_sign_freedom_in_the_middle_blocks(f16_line):
    """Flipping the sign of the K-block pair leaves every invariant and
    the EO type unchanged (the residual freedom is harmless)."""
    mod = build_from_lagrangian(f16_line, 3)
    ctx = mod.ctx
    lo1, hi1 = mod.slot_bounds[1], mod.slot_bounds[2]
    lo3, hi3 = mod.slot_bounds[3], mod.slot_bounds[4]
    f2 = mod.fmat.copy()
    v2 = mod.vmat.copy()
    f2[lo3:hi3, lo1:hi1] = ctx.neg[f2[lo3:hi3, lo1:hi1]]
    v2[lo3:hi3, lo1:hi1] = ctx.neg[v2[lo3:hi3, lo1:hi1]]
    flipped = DieudonneModule(
        ctx, mod.g, mod.c, f2, v2, mod.pairing, mod.slot_bounds, point=mod.point
    )
    assert eo_type(flipped).w.perm == eo_type(mod).w.perm


def test_symplectic_substitution_preserves_eo_type():
    import dlstrata.symplectic as sp

    space = dc.census_space(2, 2, 2)
    small = SymplecticSpace(field(2, 2), 2)
    pts = dc._cached_lagrangians(2, 2, 2)
    rng = np.random.default_rng(10)
    for _ in range(6):
        g_small = sp.random_symplectic(small, rng)
        g = sp.embed_matrix(g_small, small.ctx, space.ctx)
        u = pts[int(rng.integers(len(pts)))]
        a = eo_type(build_from_lagrangian(u, 4)).w
        b = eo_type(build_from_lagrangian(u.apply(g), 4)).w
        assert a.perm == b.perm


# -- the identity between the two labels ------------------------------------


def test_pullback_identity_rank_one_exhaustive():
    for (p, m, g) in [(2, 1, 2), (2, 2, 2), (2, 2, 3), (3, 1, 2)]:
        for u in dc._cached_lagrangians(1, p, m):
            assert verify_pullback(u, g)


def test_pullback_sweep_rank_two_over_f256_reaches_s2_s1():
    # s2.s1 is empty over F_4, F_16 and F_64; over F_256 this seed meets it
    space = dc.census_space(2, 2, 4)
    rng = np.random.default_rng(2026)
    words = []
    for _ in range(200):
        u = random_lagrangian(space, rng)
        label = dc.classify_fine(u, check=True)
        assert verify_pullback(u, 4, fine=label)
        words.append(weyl.reduced_word(label))
    assert (2, 1) in words


def test_pullback_sweep_rank_three_over_f16():
    space = dc.census_space(3, 2, 2)
    rng = np.random.default_rng(2026)
    for _ in range(100):
        u = random_lagrangian(space, rng)
        label = dc.classify_fine(u, check=True)
        assert verify_pullback(u, 6, fine=label)


def test_json_dumps(f16_line):
    from dlstrata.dieudonne import eo_type_to_json, module_to_json

    mod = build_from_lagrangian(f16_line, 2)
    dump = module_to_json(mod)
    assert dump["dim"] == 4 and dump["slot_bounds"] == [0, 1, 1, 3, 3, 4]
    assert dump["f_twist"] == 1 and dump["v_twist"] == -1
    assert len(dump["f_matrix"]) == 4
    assert all(len(c) == mod.ctx.k for row in dump["pairing"] for c in row)
    eo = eo_type_to_json(eo_type(mod))
    assert eo["one_line"] == [1, 3, 2, 4]
    assert eo["word"] == [2]
    assert eo["psi"] == [0, 0, 1, 1, 2]


def test_pullback_identity_on_frozen_wild_point():
    from .test_dlclassify import f256_wild_point

    _, _, u = f256_wild_point()
    label = dc.classify_fine(u)
    assert weyl.reduced_word(label) == (2, 1)
    for g in (4, 5):
        mod = build_from_lagrangian(u, g)
        assert eo_type(mod).w.perm == weyl.r_map_inv(label, g).perm
