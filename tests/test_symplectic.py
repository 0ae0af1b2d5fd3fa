import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlstrata import linalg, weyl
from dlstrata.gf import field
from dlstrata.symplectic import (
    Flag,
    Subspace,
    SymplecticSpace,
    count_lagrangians,
    full_subspace,
    enumerate_lagrangians,
    expected_total,
    flag_type,
    lagrangian_cells,
    random_self_dual_flag,
    random_symplectic,
    refine,
    relpos,
    standard_flag,
    zero_subspace,
)


@pytest.fixture(scope="module")
def space4():
    return SymplecticSpace(field(2, 2), 2)


@pytest.fixture(scope="module")
def space9():
    return SymplecticSpace(field(3, 2), 2)


def rand_subspace(space, rng, dim):
    while True:
        rows = rng.integers(0, space.ctx.q, size=(dim, space.dim))
        u = Subspace(space, rows)
        if u.dim == dim:
            return u


def test_gram_is_alternating_and_invertible(space4, space9):
    for space in (space4, space9):
        ctx = space.ctx
        g = space.gram
        assert linalg.rank(ctx, g) == space.dim
        assert not ctx.add[g, g.T].any()
        assert not g.diagonal().any()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.integers(0, ctx.q, size=space.dim)
            assert space.pairing(x, x) == 0


def test_from_gram_refuses_forms_that_are_not_symplectic(space9):
    ctx = space9.ctx
    same = SymplecticSpace.from_gram(ctx, space9.gram)
    assert (same.n, same.dim) == (2, 4)
    assert np.array_equal(same.gram, space9.gram) and same.gram is not space9.gram
    assert not same.gram.flags.writeable
    not_antisymmetric = space9.gram.copy()
    not_antisymmetric[0, 3] = 2
    nonzero_diagonal = space9.gram.copy()
    nonzero_diagonal[1, 1] = 1
    for gram, match in (
        (not_antisymmetric, "not alternating"),
        (nonzero_diagonal, "not alternating"),
        (linalg.zeros(4, 4), "degenerate"),
        (linalg.zeros(3, 3), "even size"),
        (linalg.zeros(2, 4), "even size"),
        (linalg.zeros(0, 0), "even size"),
    ):
        with pytest.raises(ValueError, match=match):
            SymplecticSpace.from_gram(ctx, gram)


def test_subspaces_under_a_general_form(space9):
    # the form S^T J S in the basis x = S x', for random invertible S
    ctx = space9.ctx
    rng = np.random.default_rng(12)
    for _ in range(5):
        while True:
            s = rng.integers(0, ctx.q, size=(4, 4)).astype(np.int32)
            if linalg.rank(ctx, s) == 4:
                break
        gram = linalg.matmul(ctx, linalg.matmul(ctx, s.T, space9.gram), s)
        space = SymplecticSpace.from_gram(ctx, gram)
        for dim in (1, 2, 3):
            u = rand_subspace(space, rng, dim)
            assert _same_rows(u.perp().basis, _generic_perp(u))
            assert u.perp().dim == 4 - dim and u.perp().perp() == u
        # Lagrangians of the standard form, moved by S^{-1}, are Lagrangian
        s_inv = linalg.inverse(ctx, s)
        for u in enumerate_lagrangians(space9)[:10]:
            moved = Subspace(space, linalg.matmul(ctx, u.basis, s_inv.T))
            assert moved.is_lagrangian() and moved.perp() == moved


def test_subspace_canonical_form(space4):
    rows = np.array([[1, 2, 3, 0], [0, 1, 1, 1]])
    u = Subspace(space4, rows)
    ctx = space4.ctx
    # scale first row by the generator and add the second: same span
    scaled = np.array(
        [ctx.mul[2, rows[0]], ctx.add[rows[0], rows[1]]]
    )
    v = Subspace(space4, scaled)
    assert u == v and hash(u) == hash(v)
    assert u.basis.tobytes() == v.basis.tobytes()


def test_sum_intersection_dimension_formula(space4):
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rand_subspace(space4, rng, int(rng.integers(1, 3)))
        v = rand_subspace(space4, rng, int(rng.integers(1, 3)))
        assert u.intersect(v).dim + (u + v).dim == u.dim + v.dim
        assert (u + u) == u
        assert u.intersect(u) == u


def test_perp_properties(space4):
    rng = np.random.default_rng(6)
    for _ in range(30):
        u = rand_subspace(space4, rng, int(rng.integers(1, 4)))
        v = rand_subspace(space4, rng, int(rng.integers(1, 4)))
        assert u.perp().dim == space4.dim - u.dim
        assert u.perp().perp() == u
        if u.contains(v):
            assert v.perp().contains(u.perp())
        assert (u + v).perp() == u.perp().intersect(v.perp())


# -- trivial meets, joins and complements against the generic route --------


def _generic_intersect(a, b):
    joint = np.concatenate([a.ann, b.ann])
    return linalg.nullspace(a.space.ctx, joint)


def _generic_sum(a, b):
    return linalg.rref(a.space.ctx, np.concatenate([a.basis, b.basis]))[0]


def _generic_contains(a, b):
    stacked = np.concatenate([a.basis, b.basis])
    return linalg.rank(a.space.ctx, stacked) == a.dim


def _generic_perp(a):
    prod = linalg.matmul(a.space.ctx, a.basis, a.space.gram)
    return linalg.nullspace(a.space.ctx, prod)


def _same_rows(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _subspace_with_trivial_partner(draw):
    p, k = draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 4)]))
    n = draw(st.integers(1, 3))
    space = SymplecticSpace(field(p, k), n)
    rows = draw(st.integers(0, 2 * n))
    entries = draw(
        st.lists(st.integers(0, p**k - 1), min_size=rows * 2 * n, max_size=rows * 2 * n)
    )
    x = Subspace(space, np.array(entries, dtype=np.int32).reshape(rows, 2 * n))
    trivial = draw(st.sampled_from([zero_subspace, full_subspace]))(space)
    return x, trivial


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_subspace_with_trivial_partner())
def test_trivial_cases_match_the_generic_computation(pair):
    x, t = pair
    for a, b in ((x, t), (t, x), (t, t)):
        assert _same_rows(a.intersect(b).basis, _generic_intersect(a, b))
        assert _same_rows((a + b).basis, _generic_sum(a, b))
        assert a.contains(b) == _generic_contains(a, b)
    for a in (x, t):
        assert _same_rows(a.perp().basis, _generic_perp(a))


def test_lagrangian_is_self_perp(space4):
    for u in enumerate_lagrangians(space4)[:25]:
        assert u.perp() == u
        assert u.is_lagrangian()


def test_twist_properties(space4):
    rng = np.random.default_rng(7)
    f16 = field(2, 4)
    big = SymplecticSpace(f16, 2)
    for _ in range(20):
        u = rand_subspace(big, rng, 2)
        assert u.twist(1).twist(-1) == u
        assert u.twist(f16.k) == u
        v = rand_subspace(big, rng, 1)
        assert (u + v).twist(1) == u.twist(1) + v.twist(1)
        assert u.intersect(v).twist(1) == u.twist(1).intersect(v.twist(1))
        assert u.perp().twist(1) == u.twist(1).perp()
    # rational subspaces are fixed
    u = Subspace(big, np.array([[1, 0, 1, 1]]))
    assert u.twist(1) == u


LAGRANGIAN_GRID = [
    (1, 2, 1, 3), (1, 3, 1, 4), (1, 2, 2, 5), (1, 5, 1, 6), (1, 3, 2, 10),
    (2, 2, 1, 15), (2, 3, 1, 40), (2, 2, 2, 85), (2, 5, 1, 156), (2, 3, 2, 820),
    (3, 2, 1, 135), (3, 3, 1, 1120),
]


@pytest.mark.parametrize("n,p,k,expected", LAGRANGIAN_GRID)
def test_enumerate_lagrangians_count_and_validity(n, p, k, expected):
    prod = 1
    q = p**k
    for i in range(1, n + 1):
        prod *= q**i + 1
    assert prod == expected == expected_total(n, q)
    space = SymplecticSpace(field(p, k), n)
    points = enumerate_lagrangians(space)
    assert len(points) == expected
    assert len({u.basis.tobytes() for u in points}) == expected
    sample = points if len(points) <= 200 else points[::7]
    for u in sample:
        assert u.is_lagrangian()
        # already canonical: rebuilding from the rows gives the same bytes
        assert Subspace(space, u.basis) == u


@pytest.mark.parametrize("n,p,k", [(3, 2, 2), (3, 5, 1), (3, 3, 2)])
def test_lagrangian_count_formula_large(n, p, k):
    q = p**k
    prod = 1
    for i in range(1, n + 1):
        prod *= q**i + 1
    space = SymplecticSpace(field(p, k), n)
    assert count_lagrangians(space) == prod
    # the generated cells account for exactly the same number of bases
    generated = sum(block.shape[0] for _, block in lagrangian_cells(space))
    assert generated == prod


def test_lagrangian_cells_are_isotropic_in_bulk():
    # verify every generated basis satisfies B G B^T = 0, vectorized
    space = SymplecticSpace(field(3, 2), 3)
    ctx = space.ctx
    g = space.gram
    total = 0
    for _, block in lagrangian_cells(space):
        nmat, rows, cols = block.shape
        bg = np.zeros_like(block)
        for j in range(cols):
            acc = np.zeros((nmat, rows), dtype=block.dtype)
            for k in range(cols):
                acc = ctx.add[acc, ctx.mul[block[:, :, k], g[k, j]]]
            bg[:, :, j] = acc
        for i in range(rows):
            for j in range(rows):
                acc = np.zeros(nmat, dtype=block.dtype)
                for k in range(cols):
                    acc = ctx.add[acc, ctx.mul[bg[:, i, k], block[:, j, k]]]
                assert not acc.any()
        total += nmat
    assert total == (9 + 1) * (81 + 1) * (729 + 1)


# -- flags ------------------------------------------------------------------


def test_flag_validation(space4):
    u = enumerate_lagrangians(space4)[0]
    f = Flag([u])
    assert f.dims == (0, 2, 4)
    line = Subspace(space4, u.basis[:1])
    g = Flag([u, line])
    assert g.dims == (0, 1, 2, 4)
    other = rand_subspace(space4, np.random.default_rng(1), 2)
    if not other.contains(line):
        with pytest.raises(ValueError):
            Flag([line, other])


def test_flag_type_reads_dimension_cuts(space4):
    full = standard_flag(space4, [1, 2, 3])
    assert flag_type(full) == frozenset()
    lag = standard_flag(space4, [2])
    assert flag_type(lag) == frozenset({1})
    assert flag_type(standard_flag(space4, [1, 3])) == frozenset({2})
    with pytest.raises(ValueError):
        standard_flag(space4, [1])  # not symmetric


def test_standard_flags_are_self_dual(space4):
    for dims in ([2], [1, 3], [1, 2, 3]):
        assert standard_flag(space4, dims).is_self_dual()


def _relpos_by_scan(flag_c, flag_d):
    """Reference: the unique minimal double-coset representative whose
    rank function matches the flags' rank table, found by filtering
    ``weyl.min_double_reps`` (the scan ``relpos`` replaces)."""
    space = flag_c.space
    table = {
        (cm.dim, dm.dim): cm.dim + dm.dim
        - linalg.rank(space.ctx, np.vstack([cm.basis, dm.basis]))
        for cm in flag_c.members
        for dm in flag_d.members
    }
    matches = [
        w
        for w in weyl.min_double_reps(space.n, flag_type(flag_c), flag_type(flag_d))
        if all(weyl.r_w(w, j, i) == v for (i, j), v in table.items())
    ]
    assert len(matches) == 1
    return matches[0]


def test_relpos_normalization_against_permuted_standard_flags(space4, space9):
    """relpos(E, vE) must be v itself for every group element v.

    This pins the orientation of the rank-table convention; it is the
    property the stabilizing-sequence checks depend on, and only
    non-self-inverse v are sensitive to it.
    """
    for space in (space4, space9, SymplecticSpace(field(2, 2), 3)):
        eye = linalg.eye(space.ctx, space.dim)
        full = standard_flag(space, range(1, space.dim))
        for v in weyl.enumerate_group(space.n):
            members = []
            for d in range(1, space.dim):
                rows = np.array([eye[v(a) - 1] for a in range(1, d + 1)])
                members.append(Subspace(space, rows))
            flag_v = Flag(members)
            got = relpos(full, flag_v)
            assert got.perm == v.perm, v.perm
            assert _relpos_by_scan(full, flag_v).perm == v.perm


def test_relpos_matches_the_scan_on_random_flag_pairs():
    rng = np.random.default_rng(31)
    for p, k in [(2, 2), (3, 2), (2, 4)]:
        for n in (2, 3):
            space = SymplecticSpace(field(p, k), n)
            for _ in range(10):
                c = random_self_dual_flag(space, rng)
                d = random_self_dual_flag(space, rng)
                for a, b in ((c, d), (d, c), (c, c)):
                    assert relpos(a, b).perm == _relpos_by_scan(a, b).perm


def test_relpos_rejects_invalid_flag_pairs(space4):
    eye = linalg.eye(space4.ctx, 4)
    line = Subspace(space4, eye[:1])
    # a chain with symmetric dimensions that is not self-dual: its rank
    # table against the standard flag belongs to no Weyl element
    skew = Flag([line, Subspace(space4, eye[[0, 1, 3]])])
    with pytest.raises(RuntimeError):
        relpos(standard_flag(space4, [1, 2, 3]), skew)
    with pytest.raises(ValueError):
        relpos(Flag([line]), Flag([line]))


def test_relpos_examples(space4):
    points = enumerate_lagrangians(space4)
    u = points[0]
    f = Flag([u])
    assert relpos(f, f).is_identity()
    # two transverse Lagrangian lines in a plane give the reflection
    plane = SymplecticSpace(field(2, 2), 1)
    lines = enumerate_lagrangians(plane)
    a, b = lines[0], lines[1]
    w = relpos(Flag([a]), Flag([b]))
    assert w.perm == (2, 1)


def test_relpos_symplectic_invariance_and_symmetry(space9):
    rng = np.random.default_rng(12)
    for _ in range(25):
        c = random_self_dual_flag(space9, rng)
        d = random_self_dual_flag(space9, rng)
        w = relpos(c, d)
        g = random_symplectic(space9, rng)
        assert relpos(c.apply(g), d.apply(g)).perm == w.perm
        # opposite order gives the minimal representative of the inverse coset
        back = relpos(d, c)
        expected = weyl.min_double_coset_rep(
            w.inverse(), flag_type(d), flag_type(c)
        )
        assert back.perm == expected.perm


def test_refine_idempotence_and_type(space4, space9):
    rng = np.random.default_rng(13)
    for space in (space4, space9):
        for _ in range(25):
            c = random_self_dual_flag(space, rng)
            d = random_self_dual_flag(space, rng)
            r, w = refine(c, d)
            assert refine(r, d)[0] == r
            same, e = refine(c, c)
            assert same == c and e.is_identity()
            assert all(m in r.members for m in c.members)
            assert r.is_self_dual()
            assert w.perm == relpos(c, d).perm
            from dlstrata.bedard import conjugate_type

            assert flag_type(r) == flag_type(c) & conjugate_type(w, flag_type(d))
            # refinement preserves the relative position
            assert relpos(r, d).perm == w.perm


def test_refine_rejects_flags_with_non_symmetric_dimensions(space4):
    eye = linalg.eye(space4.ctx, 4)
    line = Flag([Subspace(space4, eye[:1])])  # dimensions {0, 1, 4}
    full = standard_flag(space4, [1, 2, 3])
    for a, b in ((line, full), (full, line), (line, line)):
        with pytest.raises(ValueError):
            refine(a, b)


def test_random_symplectic_properties(space9):
    ctx = space9.ctx
    g1 = random_symplectic(space9, 42)
    g2 = random_symplectic(space9, 42)
    assert np.array_equal(g1, g2)  # deterministic per seed
    g3 = random_symplectic(space9, 43)
    prod = linalg.matmul(ctx, g1, g3)
    check = linalg.matmul(ctx, linalg.matmul(ctx, prod.T, space9.gram), prod)
    assert np.array_equal(check, space9.gram)


def test_subspace_serialization(space4):
    u = enumerate_lagrangians(space4)[3]
    coeffs = u.to_coeffs()
    assert len(coeffs) == u.dim
    rebuilt = Subspace(
        space4,
        [[space4.ctx.elem(list(c)).code for c in row] for row in coeffs],
    )
    assert rebuilt == u
