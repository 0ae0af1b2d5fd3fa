import gc
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlstrata import dlclassify as dc, linalg, weyl
from dlstrata.dieudonne import (
    DieudonneModule,
    _adjoint_entries,
    _label_of_final_type,
    _product_vanishes,
    build_from_lagrangian,
    canonical_flag,
    eo_type,
    final_type_of,
    module_to_json,
    verify_pullback,
)
from dlstrata.gf import field
from dlstrata.symplectic import (
    Subspace,
    SymplecticSpace,
    embed_matrix,
    full_subspace,
    random_lagrangian,
    random_symplectic,
    zero_subspace,
)
from tests import as_array, as_rows, eye, tables, zeros
from tests.reference import (
    dense_adjunction_holds,
    dense_f_image,
    dense_nullspace,
    dense_products,
    entries,
    module_of_images,
    module_of_rows,
    standard_module,
    transport,
)


@pytest.fixture(scope="module")
def f16_line():
    """The non-rational line over F_16: the smallest wild point."""
    space = SymplecticSpace(field(2, 4), 1)
    s = space.ctx.p  # the code of x, a root of the modulus
    return Subspace(space, np.array([[1, s]]))


@pytest.fixture(scope="module")
def f16_rational_line():
    space = SymplecticSpace(field(2, 4), 1)
    return Subspace(space, np.array([[1, 0]]))


def _semilinear_apply(ctx, matrix, twist, x):
    """matrix . x^[p^twist], one scalar table lookup at a time."""
    powered = [ctx.frob_lists[twist % ctx.k][int(v)] for v in x]
    out = []
    for row in matrix:
        acc = 0
        for a, b in zip(row, powered):
            acc = ctx.add_list[acc][ctx.mul_list[int(a)][b]]
        out.append(acc)
    return out


def _preimage_by_nullspace(mod, rows):
    """{x : V(x) in the span of rows}, by null spaces with no special case."""
    ctx, dim = mod.ctx, mod.dim
    ann = dense_nullspace(ctx, rows, dim) if rows else linalg.identity(dim)
    pre = dense_nullspace(ctx, linalg.matmul(ctx, ann, mod.v_rows, dim), dim)
    return linalg.frob_map(ctx, pre, 1)


def _f_product(mod, rows):
    """The rows of F applied to each row: F . x^(p), with no special case."""
    ctx, dim = mod.ctx, mod.dim
    return linalg.matmul(ctx, linalg.frob_map(ctx, rows, 1), tuple(zip(*mod.f_rows)), dim)


def _complement(mod, rows):
    """The complement under the module pairing, by one null space."""
    omega = mod.space.gram_rows
    return dense_nullspace(mod.ctx, linalg.matmul(mod.ctx, rows, omega, mod.dim), mod.dim)


def _build_by_arrays(u, g):
    """The module's matrices, assembled as int32 arrays by slice assignment.

    Kept as the reference for ``build_from_lagrangian``: the blocks are
    written from their definitions (K into the twist's coordinates
    K'_i = -K_{k-1-i}, L/U into y_j = -<u_{c-1-j}, x> with U . J a
    product with the Gram matrix, and the pairing J_g unit by unit),
    with no signed reversal.  Returns (F, V, pairing).
    """
    space = u.space
    ctx, c = space.ctx, space.n
    dim, k = 2 * g, g - 2 * c
    s0, s1, s2 = slice(0, c), slice(c, g - c), slice(g - c, g + c)
    s3, s4 = slice(g + c, 2 * g - c), slice(2 * g - c, 2 * g)

    m_u = u.basis.T.copy()  # 2c x c, columns are the point's basis vectors
    # row j: x -> <u_{c-1-j}, x>, the rows of U . J in reverse order
    uj = as_array(linalg.matmul(ctx, u.rows, space.gram_rows, 2 * c), 2 * c)
    pair_u = uj[::-1].copy()
    swap = eye(k)[::-1].copy()  # K_{k-1-i} -> position i

    neg = lambda mat: tables(ctx).neg[mat]
    frob = lambda mat, r: tables(ctx).frob[r % ctx.k][mat]

    a = zeros(dim, dim)
    a[s2, s0] = neg(frob(m_u, 1))
    if k:
        a[s3, s1] = swap
    a[s4, s2] = pair_u

    b = zeros(dim, dim)
    b[s2, s0] = frob(m_u, -1)
    if k:
        b[s3, s1] = neg(swap)
    b[s4, s2] = neg(pair_u)

    # J_g: +1 at (i, 2g-1-i) for i < g, -1 below
    omega = zeros(dim, dim)
    for i in range(dim):
        omega[i, dim - 1 - i] = 1 if i < g else ctx.neg_list[1]
    return a, b, omega


@lru_cache(maxsize=None)
def _code_coeffs(ctx):
    """The coefficient tuple of every code of the field, by code."""
    return tuple([ctx.coeffs_of(v) for v in range(ctx.q)])


def _json_by_arrays(mod, arrays):
    """``module_to_json`` as it read the arrays of ``_build_by_arrays``."""
    ctx = mod.ctx
    code_coeffs = _code_coeffs(ctx)
    coeffs = lambda mat: [[code_coeffs[v] for v in row] for row in mat.tolist()]
    a, b, omega = arrays
    return {
        "p": ctx.p,
        "k": ctx.k,
        "dim": mod.dim,
        "g": mod.g,
        "c": mod.c,
        "slot_bounds": list(mod.slot_bounds),
        "f_matrix": coeffs(a),
        "f_twist": 1,
        "v_matrix": coeffs(b),
        "v_twist": -1,
        "pairing": coeffs(omega),
    }


@pytest.fixture(scope="module")
def census_modules():
    """The module of every ``CENSUS_CONFIGS`` point at g = 2c and 2c + 1,
    with the point: built once, when the first census-wide test asks for
    them, and shared by all of them."""
    from .test_acceptance import CENSUS_CONFIGS

    return [
        (u, build_from_lagrangian(u, g))
        for c, p, m in CENSUS_CONFIGS
        for u in dc._cached_lagrangians(c, p, m)
        for g in (2 * c, 2 * c + 1)
    ]


def _assert_built_as_by_arrays(u, g, mod=None):
    if mod is None:
        mod = build_from_lagrangian(u, g)
    arrays = _build_by_arrays(u, g)
    assert (mod.f_rows, mod.v_rows, mod.space.gram_rows) == tuple(map(as_rows, arrays))
    # the documents and their key order, which fix the JSON encoding
    # (``test_json_dumps`` encodes one)
    got, want = module_to_json(mod), _json_by_arrays(mod, arrays)
    assert got == want and list(got) == list(want)


def test_rows_match_the_array_assembly_on_every_census_point(census_modules):
    for u, mod in census_modules:
        if mod.c <= 2:
            _assert_built_as_by_arrays(u, mod.g, mod)


def test_rows_match_the_array_assembly_at_rank_three():
    rng = np.random.default_rng(47)
    space = dc.census_space(3, 2, 2)
    for _ in range(50):
        _assert_built_as_by_arrays(random_lagrangian(space, rng), 6)


def _edited(mod, f_rows=None, v_rows=None):
    """The module's data with some matrices replaced, as a new module."""
    return module_of_rows(
        mod.ctx, mod.g, mod.c,
        mod.f_rows if f_rows is None else f_rows,
        mod.v_rows if v_rows is None else v_rows,
    )


def _unit(dim, i, j):
    return tuple(tuple(int((r, s) == (i, j)) for s in range(dim)) for r in range(dim))


def test_each_failed_check_raises_its_own_message(f16_line):
    mod = build_from_lagrangian(f16_line, 3)
    dim = mod.dim
    zero = as_rows(zeros(dim, dim))
    for edit, match in (
        (dict(f_rows=linalg.identity(dim), v_rows=linalg.identity(dim)), "F after V is not zero"),
        # F = E_01 and V = E_20: F.V = 0 but V.F = E_21
        (dict(f_rows=_unit(dim, 0, 1), v_rows=_unit(dim, 2, 0)), "V after F is not zero"),
        (dict(f_rows=zero, v_rows=zero), r"dim ker F = 6 != g = 3"),
        # V = 0 passes both products and ker F, and must fail at ker V
        (dict(v_rows=zero), r"dim ker V = 6 != g = 3"),
        (dict(f_rows=mod.f_rows[:-1]), "2g x 2g"),
    ):
        with pytest.raises((RuntimeError, ValueError), match=match):
            _edited(mod, **edit)
    assert _edited(mod).f_rows == mod.f_rows  # the unedited data passes


def test_constructor_takes_entries_and_derives_the_slots(f16_line):
    """The one constructor refuses entries that do not fit 2g x 2g, by
    row count or by column index, and values that are not nonzero codes,
    a stored zero or a code past the field, and otherwise rebuilds the
    module, slot bounds included."""
    mod = build_from_lagrangian(f16_line, 3)
    ctx, g, c, dim = mod.ctx, mod.g, mod.c, mod.dim
    f, vlin = mod._f, mod._vlin
    for bad_f, bad_v in (
        (f[:-1], vlin),
        (f, vlin + ((),)),
        (f[:-1] + (((dim, 1),),), vlin),
        (f, ((((-1, 1),),) + vlin[1:])),
        (f[:-1] + (f[-1] + ((0, 0),),), vlin),
        (f, ((((0, ctx.q),),) + vlin[1:])),
    ):
        with pytest.raises(ValueError, match="2g x 2g"):
            DieudonneModule(ctx, g, c, bad_f, bad_v)
    again = DieudonneModule(ctx, g, c, f, vlin, point=f16_line)
    assert again.slot_bounds == mod.slot_bounds == (0, c, g - c, g + c, 2 * g - c, 2 * g)
    assert (again.f_rows, again.v_rows) == (mod.f_rows, mod.v_rows)
    assert module_to_json(again) == module_to_json(mod)


def test_build_checks_preconditions(f16_line):
    with pytest.raises(ValueError):
        build_from_lagrangian(f16_line, 1)  # needs g >= 2c
    space = SymplecticSpace(field(2, 2), 2)
    not_lag = Subspace(space, np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
    if not not_lag.perp().contains(not_lag):
        with pytest.raises(ValueError):
            build_from_lagrangian(not_lag, 4)
    # a line, and a plane that pairs e_1 with e_4, are not Lagrangian
    for rows in ([[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]]):
        with pytest.raises(ValueError, match="Lagrangian"):
            build_from_lagrangian(Subspace(space, np.array(rows)), 4)


def test_module_dimensions_and_kernels(f16_line):
    for g in (2, 3, 4):
        mod = build_from_lagrangian(f16_line, g)
        assert mod.dim == 2 * g and mod.space.dim == 2 * g
        assert mod.kernel_of_F().dim == mod.kernel_of_V().dim == g
        _assert_kernels_are_images(mod)


def _assert_kernels_are_images(mod):
    """ker F = im V and ker V = im F, each image the span of the columns
    of its matrix (x^(p) and x^(1/p) run through the whole space)."""
    ctx, dim = mod.ctx, mod.dim
    assert mod.kernel_of_F().rows == linalg.rref(ctx, tuple(zip(*mod.v_rows)), dim)[0]
    assert mod.kernel_of_V().rows == linalg.rref(ctx, tuple(zip(*mod.f_rows)), dim)[0]


def _seeded_modules():
    """Modules of seeded c = 2 and c = 3 points over F_16, F_81 and F_625,
    at g = 2c and g = 2c + 1."""
    for c, p, m, seed in ((2, 2, 2, 71), (3, 2, 2, 72), (2, 3, 2, 73), (3, 3, 2, 74),
                          (2, 5, 2, 75), (3, 5, 2, 76)):
        space = dc.census_space(c, p, m)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            u = random_lagrangian(space, rng)
            for g in (2 * c, 2 * c + 1):
                yield build_from_lagrangian(u, g)


def test_f_kills_every_row_of_its_kernel(f16_line):
    # F(x) = F . x^(p): the rows of ker F are killed by F itself, not
    # only after a twist; the wild line is not fixed by the twist
    modules = [build_from_lagrangian(f16_line, g) for g in (2, 3)]
    for mod in modules + list(_seeded_modules()):
        ker_f, ker_v = mod.kernel_of_F(), mod.kernel_of_V()
        assert ker_f.dim == ker_v.dim == mod.g
        assert not any(map(any, _f_product(mod, ker_f.rows)))
        # V(x) = V . x^(1/p) kills every row of ker V too
        v_of = linalg.matmul(
            mod.ctx, linalg.frob_map(mod.ctx, ker_v.rows, -1), tuple(zip(*mod.v_rows)), mod.dim
        )
        assert not any(map(any, v_of))
        _assert_kernels_are_images(mod)


def test_f_image_dim_on_the_whole_space_is_the_rank_of_f():
    # the whole space is answered as the cached ker V; rank F itself here
    rng = np.random.default_rng(43)
    for c, p, m, g in [(1, 2, 2, 2), (1, 3, 1, 3), (2, 2, 2, 4), (2, 2, 2, 5), (3, 2, 2, 6)]:
        space = dc.census_space(c, p, m)
        for _ in range(3):
            mod = build_from_lagrangian(random_lagrangian(space, rng), g)
            ctx, dim = mod.ctx, mod.dim
            want = len(linalg.rref(ctx, _f_product(mod, linalg.identity(dim)), dim)[1])
            assert mod.f_image(full_subspace(mod.space)).dim == want == g


def test_adjunction_on_all_basis_pairs(f16_line):
    mod = build_from_lagrangian(f16_line, 3)
    ctx = mod.ctx
    add, mul = ctx.add_list, ctx.mul_list
    unit = eye(mod.dim).tolist()
    omega = mod.space.gram_rows
    for i in range(mod.dim):
        fx = _semilinear_apply(ctx, mod.f_rows, 1, unit[i])
        for j in range(mod.dim):
            vy = _semilinear_apply(ctx, mod.v_rows, -1, unit[j])
            lhs = 0
            rhs = 0
            for a in range(mod.dim):
                for b in range(mod.dim):
                    lhs = add[lhs][mul[mul[fx[a]][omega[a][b]]][unit[j][b]]]
                    rhs = add[rhs][mul[mul[unit[i][a]][omega[a][b]]][vy[b]]]
            assert lhs == ctx.frob_lists[1][rhs]


def test_kernel_projects_onto_point_and_twist(f16_line):
    # the middle-slot reading of ker F and ker V, checked through the
    # public helpers rather than the construction-time trap: the middle
    # of ker F is the point twisted back, that of ker V twisted forward
    mod = build_from_lagrangian(f16_line, 2)
    lo, hi = mod.slot_bounds[2], mod.slot_bounds[3]
    ker_f = mod.kernel_of_F().rows
    middle = [row[lo:hi] for row in ker_f if any(row[:lo]) or any(row[lo:hi])]
    got = linalg.rref(mod.ctx, middle, hi - lo)[0]
    assert got == linalg.frob_map(mod.ctx, f16_line.rows, -1) != f16_line.rows
    ker_v = mod.kernel_of_V().rows
    middle = [row[lo:hi] for row in ker_v if any(row[lo:hi])]
    got = linalg.rref(mod.ctx, middle, hi - lo)[0]
    assert got == linalg.frob_map(mod.ctx, f16_line.rows, 1)


def test_f_image_edges(f16_line, f16_rational_line):
    # F(0) = 0 and F(M) = ker V are answered without elimination; both
    # must agree with the generic product-and-rank route
    for u, g in [(f16_line, 2), (f16_line, 3), (f16_rational_line, 2)]:
        mod = build_from_lagrangian(u, g)
        ctx, dim = mod.ctx, mod.dim
        zero, full = zero_subspace(mod.space), full_subspace(mod.space)
        nothing = mod.f_image(zero)
        assert nothing.dim == len(linalg.rref(ctx, _f_product(mod, zero.rows), dim)[1]) == 0
        ker_v = mod.f_image(full)
        assert ker_v is mod.kernel_of_V()
        assert 0 < ker_v.dim < dim
        assert ker_v.rows == linalg.rref(ctx, _f_product(mod, full.rows), dim)[0]
        assert ker_v.rows == _preimage_by_nullspace(mod, zero.rows)
        # and a proper subspace goes the generic way
        image = mod.f_image(ker_v)
        assert image.rows == linalg.rref(ctx, _f_product(mod, ker_v.rows), dim)[0]
        # a member whose rows all lead past F's last nonzero column has
        # image 0, the space's one 0, with no elimination
        past = Subspace(mod.space, eye(dim)[mod._f_cols[-1][0] + 1 :])
        assert 0 < past.dim < dim
        assert not any(map(any, _f_product(mod, past.rows)))
        assert mod.f_image(past) is zero


def test_f_image_refuses_a_subspace_of_another_space(f16_line):
    mod = build_from_lagrangian(f16_line, 2)
    # a separately built space of the same field and genus is another space
    other = SymplecticSpace(mod.ctx, mod.g)
    alien = Subspace(other, eye(mod.dim)[:1])
    assert alien.rows == Subspace(mod.space, eye(mod.dim)[:1]).rows
    with pytest.raises(ValueError, match="different ambient spaces"):
        mod.f_image(alien)
    # and so is the point's own space, of width 2c
    assert f16_line.space.dim < mod.dim
    with pytest.raises(ValueError, match="different ambient spaces"):
        mod.f_image(f16_line)


@st.composite
def _module_and_subspace(draw):
    """A module of a random point (c = 1..3 over F_4, F_9 or F_16, g = 2c
    or 2c + 1) and a random subspace of it."""
    c = draw(st.integers(1, 3))
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    g = 2 * c + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mod = build_from_lagrangian(random_lagrangian(dc.census_space(c, p, m), rng), g)
    rows = rng.integers(0, mod.ctx.q, size=(draw(st.integers(0, mod.dim)), mod.dim))
    return mod, Subspace(mod.space, rows)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_module_and_subspace())
def test_v_preimage_is_the_complement_of_the_f_image_of_the_complement(pair):
    # V^{-1}(C) = F(C-perp)-perp, the identity the F-image closure rests on
    mod, sub = pair
    assert mod.f_image(sub.perp()).perp().rows == _preimage_by_nullspace(mod, sub.rows)


def test_middle_pullback_is_the_rref_of_its_rows():
    # the stacked rows are taken as reduced; the elimination they skip
    # must give the same rows, leading at the shifted middle pivots and
    # then at every later column
    rng = np.random.default_rng(37)
    space = dc.census_space(2, 2, 2)
    points = list(dc._cached_lagrangians(1, 2, 2))
    points += [random_lagrangian(space, rng) for _ in range(40)]
    for u in points:
        c = u.space.n
        for g in (2 * c, 2 * c + 1):
            mod = build_from_lagrangian(u, g)
            ctx, dim = mod.ctx, mod.dim
            lo, hi = mod.slot_bounds[2], mod.slot_bounds[3]
            for r in (0, 1):
                rows = linalg.frob_map(ctx, u.rows, r)
                got = mod._middle_pullback(rows)
                stacked = [(0,) * lo + row + (0,) * (dim - hi) for row in rows]
                stacked += linalg.identity(dim)[hi:]
                pivots = tuple(lo + p for p in u.pivots) + tuple(range(hi, dim))
                assert (got, pivots) == linalg.rref(ctx, stacked, dim)


def test_v_preimage_matches_graded_formula(f16_line):
    """Preimages of slot pull-backs, taken as F(C-perp)-perp, agree with
    the block computation."""
    mod = build_from_lagrangian(f16_line, 3)
    ctx = mod.ctx
    rng = np.random.default_rng(5)
    bounds = mod.slot_bounds
    for i in (0, 1, 2):
        lo_s, hi_s = bounds[i + 2], bounds[i + 3]
        lo_t, hi_t = bounds[i], bounds[i + 1]
        width = hi_s - lo_s
        h = linalg.rref(ctx, as_rows(rng.integers(0, ctx.q, size=(1, width))), width)[0]
        # pr_{i+2}^{-1}(H): embed H at its slot and add all later slots
        eye = linalg.identity(mod.dim)
        rows = [(0,) * lo_s + r + (0,) * (mod.dim - hi_s) for r in h] + list(eye[hi_s:])
        pullback = linalg.rref(ctx, rows, mod.dim)[0]
        lhs = mod.f_image(Subspace(mod.space, pullback).perp()).perp().rows
        # block route: solve the graded map into the slot, then pull back
        block = tuple(row[lo_t:hi_t] for row in mod.v_rows[lo_s:hi_s])
        width_t = hi_t - lo_t
        ann = dense_nullspace(ctx, h, width) if h else linalg.identity(width)
        sol = dense_nullspace(ctx, linalg.matmul(ctx, ann, block, width_t), width_t)
        sol = linalg.frob_map(ctx, sol, 1)
        rows = [(0,) * lo_t + r + (0,) * (mod.dim - hi_t) for r in sol] + list(eye[hi_t:])
        rhs = linalg.rref(ctx, rows, mod.dim)[0]
        assert lhs == rhs


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
    """The round-based V-preimage closure that canonical_flag replaced.

    Kept as the reference: every member is re-run through V-preimage and
    complement in every round until a round adds nothing, both by plain
    null spaces (no cached kernel, complement, F-image or trivial case).
    Returns the chain sorted by dimension and its F-image dimensions,
    each the rank of the member's F-product.
    """
    ctx, space = module.ctx, module.space
    members = set()

    def add(rows):
        sub = Subspace(space, rows)
        if sub in members:
            return False
        members.add(sub)
        return True

    add(zeros(0, module.dim))
    add(eye(module.dim))
    add(dense_nullspace(ctx, linalg.frob_map(ctx, module.v_rows, 1), module.dim))
    for _ in range(4 * module.g):
        grew = False
        for sub in list(members):
            pre = _preimage_by_nullspace(module, sub.rows)
            grew |= add(pre)
            grew |= add(_complement(module, pre))
        if not grew:
            break
    else:
        raise RuntimeError("reference closure did not stabilize")
    chain = sorted(members, key=lambda m: m.dim)
    dim = module.dim
    fdims = (len(linalg.rref(ctx, _f_product(module, sub.rows), dim)[1]) for sub in chain)
    return chain, tuple(fdims)


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
        # F and V as plain matrices: ker F is the null space of F twisted
        # back, ker V that of V twisted forward
        f_linear = linalg.frob_map(mod.ctx, mod.f_rows, -1)
        v_linear = linalg.frob_map(mod.ctx, mod.v_rows, 1)
        for ker, linear in ((mod.kernel_of_F, f_linear), (mod.kernel_of_V, v_linear)):
            sub = ker()
            assert ker() is sub
            assert not sub.basis.flags.writeable
            assert sub.rows == dense_nullspace(mod.ctx, linear, mod.dim)
            with pytest.raises(ValueError):
                sub.basis[0, 0] = 1
            with pytest.raises(TypeError):
                sub.rows[0][0] = 1


def test_closure_past_the_chain_bound_raises(f16_line, monkeypatch):
    # an F-image that is a new line on every call puts a second, different
    # member in an occupied dimension, which the closure refuses at once
    mod = build_from_lagrangian(f16_line, 2)
    calls = []

    def fresh_line(sub):
        calls.append(sub)
        line = zeros(1, mod.dim)
        line[0, 0], line[0, 1] = 1, len(calls)
        return Subspace(mod.space, line)

    monkeypatch.setattr(mod, "f_image", fresh_line)
    with pytest.raises(RuntimeError, match="not a chain: two distinct members of dimension 1"):
        canonical_flag(mod)
    assert len(calls) <= 2 * mod.g + 1


def test_canonical_flag_refuses_a_wrong_member_of_the_right_dimension(f16_line, monkeypatch):
    """At g = 2 the canonical flag of the wild line is 0 < N < ker V < N-perp
    < M.  A patched F-image that gives a line outside ker V in place of N
    leaves a self-dual set, (0, L, ker V, L-perp, M), so only the chain
    check on its lower half can see it, and it must: "not a chain".  One
    that gives, in place of N, a wrong member of dimension 3, an upper
    member, is refused through its complement, a second line beside N."""
    mod = build_from_lagrangian(f16_line, 2)
    real, ker_v = mod.f_image, mod.kernel_of_V()
    line = Subspace(mod.space, [(1, 0, 0, 0)])
    assert not ker_v.contains(line)
    monkeypatch.setattr(mod, "f_image", lambda sub: line if real(sub).dim == 1 else real(sub))
    with pytest.raises(RuntimeError, match="not a chain: members are not totally ordered"):
        canonical_flag(mod)
    upper = line.perp()
    monkeypatch.setattr(mod, "f_image", lambda sub: upper if sub is ker_v else real(sub))
    with pytest.raises(RuntimeError, match="not a chain: two distinct members of dimension 1"):
        canonical_flag(mod)
    monkeypatch.setattr(mod, "f_image", real)
    assert canonical_flag(mod).dims == (0, 1, 2, 3, 4)


def test_canonical_flag_checks_self_duality_and_its_lower_half(monkeypatch):
    """Each canonical flag goes through ``_check_chain`` on its lower half,
    through the first member of dimension >= g, once, and not through
    ``_is_self_dual``: the closure compares the complement it takes with
    the member held at the complementary dimension.  It takes one
    complement per pair of complementary dimensions, (0, V) included,
    since the second member of a pair is the first one's complement."""
    from dlstrata import symplectic

    real_chain, real_perp = symplectic._check_chain, Subspace.perp
    calls, asked = [], []

    def check_chain(members):
        calls.append(tuple(members))
        return real_chain(members)

    def perp(sub):
        asked.append(sub.dim)
        return real_perp(sub)

    monkeypatch.setattr(symplectic, "_check_chain", check_chain)
    monkeypatch.setattr(
        symplectic, "_is_self_dual", lambda members: pytest.fail("self-duality asked")
    )
    monkeypatch.setattr(Subspace, "perp", perp)
    for mod in _seeded_modules():
        calls.clear()
        asked.clear()
        chain = canonical_flag(mod).members
        half = chain[: len(chain) // 2 + 1]
        assert calls == [half]
        assert half[-1].dim == mod.g
        pairs = sorted([min(d, mod.dim - d) for d in asked])
        assert pairs == [m.dim for m in half]


def test_canonical_flag_refuses_a_nested_pair_that_is_not_complementary(f16_line, monkeypatch):
    """The closure owns the self-duality check.  At g = 3, patched
    F-images send M to B = <e1, e2, e3, e5>, B to the plane A = <e1, e2>
    inside it, and A to 0, so the closure holds A and B, of
    complementary dimensions, before it works on either.  (0, A, B, M)
    passes the chain check on its lower half and the dichotomy (F-image
    dimensions 0, 0, 2, 4), but B is not A-perp = <e1, ..., e4>: the
    complement the closure takes of the first of the pair it works on
    must be compared with the other, and refused."""
    mod = build_from_lagrangian(f16_line, 3)
    unit = eye(mod.dim).tolist()
    zero = zero_subspace(mod.space)
    a = Subspace(mod.space, unit[:2])
    b = Subspace(mod.space, unit[:3] + unit[4:5])
    assert b.contains(a) and b != a.perp() and a.perp().rows == tuple(map(tuple, unit[:4]))
    images = {0: zero, 2: zero, 4: a, 6: b}
    monkeypatch.setattr(mod, "f_image", lambda sub: images[sub.dim])
    with pytest.raises(RuntimeError, match="not a chain: two distinct members of dimension 2"):
        canonical_flag(mod)


def test_final_type_is_the_r_w_definition():
    for g in range(1, 7):
        for w in weyl.enumerate_IW(g):
            want = tuple(i - weyl.r_w(w, i, g) for i in range(2 * g + 1))
            assert final_type_of(w, g) == want


def test_build_takes_two_eliminations_and_complements_none(monkeypatch):
    # two eliminations over nonzero entries to build and check a module
    # (ker F and ker V, its only null spaces), one per nonzero F-image of
    # a proper member in the closure, none for an image that is 0 or per
    # complement, and no dense elimination or product anywhere; every
    # complement read off reduced rows is the null space of C . J
    from .test_dlclassify import _counting
    from .test_symplectic import _generic_perp

    rng = np.random.default_rng(61)
    space = dc.census_space(3, 2, 2)
    points = [(u, 5) for u in dc._cached_lagrangians(2, 2, 2)]
    points += [(random_lagrangian(space, rng), 6) for _ in range(50)]
    # calls of rref_entries, nullspace, rref and matmul
    names = ("rref_entries", "nullspace", "rref", "matmul")
    calls = [_counting(monkeypatch, name) for name in names]
    counts = []
    for u, g in points:
        for count in calls:
            count[0] = 0
        mod = build_from_lagrangian(u, g)
        assert [count[0] for count in calls] == [2, 2, 0, 0]
        flag = canonical_flag(mod)
        imaged = sum(f > 0 for f in flag.fdims[1:-1])
        assert [count[0] for count in calls] == [2 + imaged, 2, 0, 0]
        counts.append(calls[0][0])
        for m in flag.members:
            assert m.perp().rows == _generic_perp(m)
    assert len(counts) == 4369 + 50 and max(counts[:4369]) == 5


def _assert_null_spaces_match_the_dense_reference(mod):
    ctx, dim = mod.ctx, mod.dim
    assert mod._sigma_ker_f.rows == dense_nullspace(ctx, mod.f_rows, dim)
    vlin = linalg.frob_map(ctx, mod.v_rows, 1)
    assert mod.kernel_of_V().rows == dense_nullspace(ctx, vlin, dim)


def test_null_spaces_match_the_dense_reference(census_modules):
    """Both null spaces a build eliminates over nonzero entries, of F and
    of Vlin, are the dense null spaces row for row: on every census
    point at g = 2c and 2c + 1, and on transported modules, whose
    operators have no zero pattern."""
    for _, mod in census_modules:
        _assert_null_spaces_match_the_dense_reference(mod)
    rng = np.random.default_rng(59)
    for mod in list(_seeded_modules())[::3]:
        _assert_null_spaces_match_the_dense_reference(
            transport(mod, random_symplectic(mod.space, rng))
        )


def test_a_number_is_g_minus_the_final_type_at_g(census_modules):
    """The a-number dim(ker F cap ker V) of every census point's module at
    g = 2c and 2c + 1 is g - psi(g), psi the final type of the point's
    lifted fine label: the EO side read off the two kernels, with no
    canonical flag, against the Deligne-Lusztig side.  Over F_16 at g =
    4 the a-numbers 2, 3 and 4 fall on 3,264, 1,020 and 85 points."""
    seen: dict[tuple, dict[int, int]] = {}
    for u, mod in census_modules:
        g = mod.g
        psi = final_type_of(weyl.r_map_inv(dc.classify_fine(u), g), g)
        a = mod.kernel_of_F().intersect(mod.kernel_of_V()).dim
        assert a == g - psi[g], (u.rows, g)
        counts = seen.setdefault((mod.ctx.q, mod.c, g), {})
        counts[a] = counts.get(a, 0) + 1
    assert seen[(16, 2, 4)] == {2: 3264, 3: 1020, 4: 85}


def test_standard_modules_read_as_their_eo_type():
    """Every EO type reaches the canonical closure: for each w in ^J W_g,
    1 <= g <= 8, over F_4 and F_9 (1,020 modules), the standard module
    (``reference.standard_module``) passes every constructor check,
    ``eo_type`` returns w and its final type psi, and the a-number
    dim(ker F cap ker V) is g - psi(g).  The control F e_x = e_{w(x)}
    where w(x) <= g, again with Vlin its adjoint, passes the same checks
    and reads as w on none of them."""
    read = controls = 0
    for ctx in (field(2, 2), field(3, 2)):
        for g in range(1, 9):
            for w in weyl.enumerate_IW(g):
                mod = standard_module(ctx, w, g)
                eo = eo_type(mod)
                assert eo.w == w and eo.psi == final_type_of(w, g), (ctx.q, w.perm)
                a = mod.kernel_of_F().intersect(mod.kernel_of_V()).dim
                assert a == g - eo.psi[g], (ctx.q, w.perm)
                read += 1
                images = {x: y for x, y in enumerate(w.perm, start=1) if y <= g}
                controls += eo_type(module_of_images(ctx, g, images)).w != w
    assert read == controls == 1020


def test_classified_and_verified_points_leave_no_subspace_to_the_collector():
    """A complement holds no link to its source, nor a Lagrangian to
    itself, so reference counting frees every classified point: fresh
    copies of every 7th F_16 census point at g = 5 and 100 seeded c = 3
    points over F_16 at g = 6, classified with checks and verified with
    the collector off, leave no ``Subspace`` for it to find.  The
    collector's state is restored afterwards."""
    rng = np.random.default_rng(33)
    space = dc.census_space(3, 2, 2)
    work = [(Subspace._from_rref(u.space, u.rows, u.pivots), 5)
            for u in dc._cached_lagrangians(2, 2, 2)[::7]]
    work += [(random_lagrangian(space, rng), 6) for _ in range(100)]
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        for u, g in work:
            assert verify_pullback(u, g, dc.classify_fine(u, check=True))
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        left = sum(isinstance(obj, Subspace) for obj in gc.garbage[saved:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert len(work) == 625 + 100 and left == 0


def _assert_f_images_match_the_dense_product(mod):
    for sub in canonical_flag(mod).members:
        assert mod.f_image(sub) == dense_f_image(mod, sub)


def test_f_images_match_the_dense_product(census_modules):
    """Each canonical member's F-image, summed over F's nonzero entries and
    eliminated over them, is the image of the dense product: on every
    census point at g = 2c and 2c + 1, and on transported modules, whose
    operators have no zero pattern."""
    for _, mod in census_modules:
        _assert_f_images_match_the_dense_product(mod)
    rng = np.random.default_rng(53)
    for mod in list(_seeded_modules())[::3]:
        _assert_f_images_match_the_dense_product(
            transport(mod, random_symplectic(mod.space, rng))
        )


def test_entry_checks_decide_as_the_dense_oracles():
    """F . Vlin = 0, Vlin . F = 0 and the adjunction, read over nonzero
    entries, hold exactly when the dense products and the dense
    adjunction do: on built and transported modules, where all three
    hold, and after one entry of F or of V is changed."""
    rng = np.random.default_rng(67)
    modules = list(_seeded_modules())[::2]
    modules += [transport(mod, random_symplectic(mod.space, rng)) for mod in modules[::3]]
    verdicts = set()
    for mod in modules:
        ctx, dim, g = mod.ctx, mod.dim, mod.g
        up = ctx.frob_lists[1 % ctx.k]
        for trial in range(4):
            f, v = [list(row) for row in mod.f_rows], [list(row) for row in mod.v_rows]
            if trial:
                edited = f if trial % 2 else v
                i, j = (int(x) for x in rng.integers(dim, size=2))
                edited[i][j] = int(rng.integers(ctx.q))
            fe = entries(f)
            vlin = tuple(tuple((j, up[x]) for j, x in row) for row in entries(v))
            fv, vf = dense_products(ctx, f, v)
            got = (
                _product_vanishes(ctx, fe, vlin),
                _product_vanishes(ctx, vlin, fe),
                _adjoint_entries(ctx, fe, g) == {
                    (i, j): x for i, row in enumerate(vlin) for j, x in row
                },
            )
            want = (
                not any(map(any, fv)),
                not any(map(any, vf)),
                dense_adjunction_holds(mod.space, f, v),
            )
            assert got == want
            verdicts.add(want)
    # both verdicts of every check were met
    assert all({v[i] for v in verdicts} == {True, False} for i in range(3)), verdicts


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
        (0, 0, 0, 0, 1),  # more flat steps than the genus
    ):
        with pytest.raises(RuntimeError):
            _label_of_final_type(psi, 2)


def test_label_maps_of_the_verify_path_are_kept_per_argument():
    """``_label_of_final_type`` and ``weyl.r_map_inv`` build and validate
    each label once per argument pair, so repeated calls return the same
    object; a psi that is no final type, or a target rank below c, is
    not kept and raises on every call."""
    for g in (1, 2, 3, 4):
        for w in weyl.enumerate_IW(g):
            psi = final_type_of(w, g)
            label = _label_of_final_type(psi, g)
            assert label.perm == w.perm and _label_of_final_type(psi, g) is label
    for c in (1, 2, 3):
        for w in weyl.enumerate_IW(c):
            for g in (c, 2 * c + 1):
                lift = weyl.r_map_inv(w, g)
                assert lift.n == g and weyl.r_map_inv(w, g) is lift
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no label has the measured final type"):
            _label_of_final_type((0, 1, 1, 1, 2), 2)
        with pytest.raises(ValueError, match="target rank too small"):
            weyl.r_map_inv(weyl.identity(3), 2)


def test_psi_duality_and_flag_self_duality(f16_line, f16_rational_line):
    for u, g in [(f16_line, 2), (f16_line, 3), (f16_rational_line, 2)]:
        mod = build_from_lagrangian(u, g)
        flag = canonical_flag(mod)
        keys = {m.rows for m in flag.members}
        for m in flag.members:
            assert _complement(mod, m.rows) in keys
        psi = eo_type(mod).psi
        for i in range(2 * g + 1):
            assert psi[2 * g - i] == psi[i] + g - i


def test_eo_type_is_basis_independent(f16_line):
    # random Sp(2g) elements keep the pairing J, so the moved module is
    # a module of the same shared space
    import dlstrata.symplectic as sp

    for g in (2, 3):
        mod = build_from_lagrangian(f16_line, g)
        eo = eo_type(mod)
        rng = np.random.default_rng(8)
        for _ in range(5):
            moved = transport(mod, sp.random_symplectic(mod.space, rng))
            assert moved.space is mod.space
            assert eo_type(moved).w.perm == eo.w.perm
    # an invertible matrix that is not symplectic is refused
    s = eye(mod.dim)
    s[0, 1] = 1
    with pytest.raises(ValueError, match="not symplectic"):
        transport(mod, s)


def test_sign_freedom_in_the_middle_blocks(f16_line):
    """Flipping the sign of the K-block pair leaves every invariant and
    the EO type unchanged (the residual freedom is harmless); flipping
    it in F alone breaks the adjunction, and is refused."""
    f9_line = Subspace(SymplecticSpace(field(3, 2), 1), np.array([[1, 2]]))
    for u in (f16_line, f9_line):
        mod = build_from_lagrangian(u, 3)
        ctx = mod.ctx
        lo1, hi1 = mod.slot_bounds[1], mod.slot_bounds[2]
        lo3, hi3 = mod.slot_bounds[3], mod.slot_bounds[4]
        neg = tables(ctx).neg
        f2 = as_array(mod.f_rows, mod.dim)
        v2 = as_array(mod.v_rows, mod.dim)
        f2[lo3:hi3, lo1:hi1] = neg[f2[lo3:hi3, lo1:hi1]]
        v2[lo3:hi3, lo1:hi1] = neg[v2[lo3:hi3, lo1:hi1]]
        f2, v2 = as_rows(f2), as_rows(v2)
        flipped = module_of_rows(ctx, mod.g, mod.c, f2, v2, point=mod.point)
        assert eo_type(flipped).w.perm == eo_type(mod).w.perm
        if ctx.p != 2:  # at p = 2 the flip is the identity
            with pytest.raises(RuntimeError, match="adjunction"):
                _edited(mod, f_rows=f2)


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


def test_eo_type_is_constant_on_rational_orbits():
    """G^F = Sp(2c, F_{p^2}) acts by module isomorphisms, so U and hU have
    the same EO type, the lift of U's fine label: each seeded h, drawn
    over F_{p^2} and embedded, changes the zero pattern of the point and
    so of the module the canonical closure runs on."""
    pairs = 0
    for c, p, m, seed in ((2, 2, 2, 81), (2, 3, 2, 82), (3, 2, 2, 83)):
        space = dc.census_space(c, p, m)
        small = SymplecticSpace(field(p, 2), c)
        rng = np.random.default_rng(seed)
        hs = [
            embed_matrix(random_symplectic(small, rng), small.ctx, space.ctx)
            for _ in range(5)
        ]
        for _ in range(12):
            u = random_lagrangian(space, rng)
            fine = dc.classify_fine(u)
            for g in (2 * c, 2 * c + 1):
                want = eo_type(build_from_lagrangian(u, g)).w
                assert want.perm == weyl.r_map_inv(fine, g).perm
                for h in hs:
                    got = eo_type(build_from_lagrangian(u.apply(h), g)).w
                    assert got.perm == want.perm, (u.rows, h, g)
                    pairs += 1
    assert pairs == 360


def test_lifts_of_half_genus_labels_are_the_types_with_psi_zero_at_half():
    """For every g <= 12 the lifts r_map_inv(w, g) of the 2^{floor(g/2)}
    labels w of rank floor(g/2) are exactly the labels of rank g whose
    final type vanishes at ceil(g/2), and r_map takes each lift back to
    its label."""
    for g in range(1, 13):
        half = g // 2
        labels = weyl.enumerate_IW(half)
        lifts = {weyl.r_map_inv(w, g).perm for w in labels}
        vanishing = {
            w.perm for w in weyl.enumerate_IW(g) if final_type_of(w, g)[(g + 1) // 2] == 0
        }
        assert lifts == vanishing
        assert len(vanishing) == len(labels) == 2**half
        for w in labels:
            assert weyl.r_map(weyl.r_map_inv(w, g), half).perm == w.perm


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
    mod = build_from_lagrangian(f16_line, 2)
    dump = module_to_json(mod)
    assert dump["dim"] == 4 and dump["slot_bounds"] == [0, 1, 1, 3, 3, 4]
    assert dump["f_twist"] == 1 and dump["v_twist"] == -1
    assert len(dump["f_matrix"]) == 4
    assert all(len(c) == mod.ctx.k for row in dump["pairing"] for c in row)
    json.dumps(dump)
    eo = eo_type(mod)
    assert eo.w.perm == (1, 3, 2, 4)
    assert weyl.reduced_word(eo.w) == (2,)
    assert eo.psi == (0, 0, 1, 1, 2)


def test_pullback_identity_on_frozen_wild_point():
    from .test_dlclassify import f256_wild_point

    _, _, u = f256_wild_point()
    label = dc.classify_fine(u)
    assert weyl.reduced_word(label) == (2, 1)
    for g in (4, 5):
        mod = build_from_lagrangian(u, g)
        assert eo_type(mod).w.perm == weyl.r_map_inv(label, g).perm
