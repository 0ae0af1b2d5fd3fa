import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlstrata import linalg, symplectic, weyl
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
    random_lagrangian,
    random_symplectic,
    refine,
    relpos,
    zero_subspace,
)
from tests import as_array, as_rows, eye, tables, zeros
from tests.reference import (
    dense_nullspace,
    flag_apply,
    meets_and_position,
    min_double_reps,
    random_self_dual_flag,
    standard_flag,
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
        g = as_array(space.gram_rows, space.dim)
        assert len(linalg.rref(ctx, space.gram_rows, space.dim)[1]) == space.dim
        t = tables(ctx)
        assert not t.add[g, g.T].any()
        assert not g.diagonal().any()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.integers(0, ctx.q, size=space.dim)
            # <x, x> = sum over i, j of x_i G_ij x_j
            terms = t.mul[t.mul[x[:, None], g], x[None, :]].ravel()
            acc = 0
            for term in terms.tolist():
                acc = ctx.add_list[acc][term]
            assert acc == 0


def test_subspace_rejects_bad_shapes_and_codes(space4):
    # a row of the wrong width, or a matrix of the wrong width, is not
    # reshaped into some other subspace
    with pytest.raises(ValueError):
        Subspace(space4, np.array([[1, 0, 0, 0, 0, 1, 0, 0]]))
    with pytest.raises(ValueError):
        Subspace(space4, np.array([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Subspace(space4, np.array([1, 0, 0, 0]))  # one row, not a matrix
    with pytest.raises(ValueError):
        Subspace(space4, np.zeros((0, 3), dtype=np.int32))
    # codes outside [0, q) are neither kept nor wrapped
    line = SymplecticSpace(field(2, 2), 1)
    with pytest.raises(ValueError):
        Subspace(line, np.array([[1, 7]]))
    with pytest.raises(ValueError):
        Subspace(line, [[-1, 0]])
    # entries that are not integer codes are neither truncated nor
    # parsed, and a huge integer is refused like any other out of range
    for bad in ([[1.7, 0, 0, 0]], [["1", 0, 0, 0]], [[2**40, 0, 0, 0]],
                [[2**70, 0, 0, 0]], np.array([[1.0, 0, 0, 0]])):
        with pytest.raises(ValueError):
            Subspace(space4, bad)
    # a bool is not a code in any position, in a list or in an array
    for bad in ([[True, False, False, False]], [[1, True, 0, 0]],
                np.array([[True, False, False, False]]), [[0, 0, 0, np.True_]]):
        with pytest.raises(ValueError, match="not codes of F_4"):
            Subspace(space4, bad)
    # ragged rows get the module's shape message
    for ragged in ([[1, 0, 0, 0], [0, 1]], [[1, 0, 0, 0], 3], [[1, 0, 0, 0], []]):
        with pytest.raises(ValueError, match="is not k x 4"):
            Subspace(space4, ragged)


def test_subspace_accepts_arrays_row_tuples_and_empty_inputs(space4):
    u = Subspace(space4, np.array([[0, 1, 1, 0], [1, 0, 0, 3]]))
    assert u.dim == 2
    assert Subspace(space4, u.rows) == u
    assert Subspace(space4, [list(r) for r in u.rows]) == u
    # an object array of ints is read like the same list
    assert Subspace(space4, np.array([[0, 1, 1, 0], [1, 0, 0, 3]], dtype=object)) == u
    assert Subspace(space4, np.array([[0, 1, 1, 0], [1, 0, 0, 3]], dtype=np.uint8)) == u
    zero = zero_subspace(space4)
    for empty in (np.zeros((0, 4), dtype=np.int32), (), [], np.array([])):
        assert Subspace(space4, empty) == zero


def test_apply_refuses_bad_and_singular_matrices():
    """A matrix is applied only when it is 2n x 2n with integer codes in
    [0, q), and only when the image keeps the subspace's dimension."""
    space = SymplecticSpace(field(2, 4), 2)
    u = enumerate_lagrangians(space)[-1]
    assert u.dim == 2
    unit = eye(4)
    assert u.apply(unit) == u
    g = random_symplectic(space, np.random.default_rng(5))
    assert u.apply(g).dim == 2 and u.apply(g).is_lagrangian()
    coded = unit.copy()
    coded[0, 3] = 99
    bad = [
        -np.ones((4, 4), dtype=np.int32),  # would index the tables from the end
        1.7 * unit,  # would be truncated to the identity
        unit.astype(float),
        coded,  # past the field's q = 16 codes
        unit[:3],
        np.eye(5, dtype=np.int32),
        unit.ravel(),
        [["1", 0, 0, 0]] * 4,
    ]
    for matrix in bad:
        with pytest.raises(ValueError, match="is not 4 x 4|not codes of F_16"):
            u.apply(matrix)
    # singular matrices: the zero matrix, and a projection onto one line
    line = zeros(4, 4)
    line[0, 0] = 1
    for matrix in (zeros(4, 4), line):
        with pytest.raises(ValueError, match="singular"):
            u.apply(matrix)


def test_subspace_canonical_form(space4):
    rows = np.array([[1, 2, 3, 0], [0, 1, 1, 1]])
    u = Subspace(space4, rows)
    t = tables(space4.ctx)
    # scale first row by the generator and add the second: same span
    scaled = np.array(
        [t.mul[2, rows[0]], t.add[rows[0], rows[1]]]
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 4)]), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_perp_is_an_involution_on_cached_complements(pk, n, seed):
    # a complement is computed from rows, with no link to its source, and
    # asking it back gives the source's rows; both equal fresh null spaces
    space = SymplecticSpace(field(*pk), n)
    rng = np.random.default_rng(seed)
    x = rand_subspace(space, rng, int(rng.integers(1, space.dim)))
    y = x.perp()
    assert y.perp() == x
    assert y.rows == _generic_perp(x) and x.rows == _generic_perp(y)
    # a fresh copy of the complement computes the same
    fresh = Subspace._from_rref(space, y.rows, y.pivots).perp()
    assert fresh is not x and fresh == x and fresh.perp().rows == y.rows
    for trivial in (zero_subspace(space), full_subspace(space)):
        assert trivial.perp().perp() is trivial


# -- trivial meets, joins and complements against the generic route --------


def _ann(a):
    """The annihilator of a's rows under the standard dot product."""
    return dense_nullspace(a.space.ctx, a.rows, a.space.dim)


def _generic_intersect(a, b):
    """The meet as the null space of both annihilators stacked."""
    return dense_nullspace(a.space.ctx, _ann(a) + _ann(b), a.space.dim)


def _generic_sum(a, b):
    return linalg.rref(a.space.ctx, a.rows + b.rows, a.space.dim)[0]


def _generic_contains(a, b):
    """The rank of the stacked bases, the check ``contains`` replaced."""
    return len(linalg.rref(a.space.ctx, a.rows + b.rows, a.space.dim)[1]) == a.dim


def _generic_perp(a):
    """The complement as the null space of a . J, a product with the Gram rows."""
    space = a.space
    prod = linalg.matmul(space.ctx, a.rows, space.gram_rows, space.dim)
    return dense_nullspace(space.ctx, prod, space.dim)


def _generic_orthogonal(a, b):
    """Whether a . J . b^T vanishes, by two products with the Gram rows."""
    space = a.space
    if not a.dim or not b.dim:
        return True
    aj = linalg.matmul(space.ctx, a.rows, space.gram_rows, space.dim)
    return not any(map(any, linalg.matmul(space.ctx, aj, tuple(zip(*b.rows)), b.dim)))


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
        assert a.intersect(b).rows == _generic_intersect(a, b)
        assert (a + b).rows == _generic_sum(a, b)
        assert a.contains(b) == _generic_contains(a, b)
    for a in (x, t):
        assert a.perp().rows == _generic_perp(a)


@st.composite
def _subspace_pair(draw):
    """Two subspaces of one space; b is often spanned by combinations of
    a's rows (so a contains it), otherwise drawn on its own."""
    p, k = draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 4), (5, 2)]))
    n = draw(st.integers(1, 3))
    space = SymplecticSpace(field(p, k), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = Subspace(space, rng.integers(0, p**k, size=(draw(st.integers(0, 2 * n)), 2 * n)))
    rows = draw(st.integers(0, 2 * n))
    if a.dim and draw(st.booleans()):
        mix = rng.integers(0, p**k, size=(rows, a.dim))
        b = Subspace(space, linalg.matmul(space.ctx, as_rows(mix), a.rows, 2 * n))
    else:
        b = Subspace(space, rng.integers(0, p**k, size=(rows, 2 * n)))
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_subspace_pair())
def test_contains_matches_the_rank_of_the_stacked_bases(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        want = _generic_contains(x, y)
        assert x.contains(y) == want
        assert x.perp().contains(y) == _generic_orthogonal(x, y)
        # the signed reversal is the product with the Gram rows
        ctx, gram, dim = x.space.ctx, x.space.gram_rows, x.space.dim
        assert x.space.times_form(x.rows) == linalg.matmul(ctx, x.rows, gram, dim)
        ranks = linalg.insertion_ranks(x.space.ctx, x.rows, x.pivots, y.rows)
        assert all(r == x.dim for r in ranks) == want
    assert a.contains(a.intersect(b)) and a.contains(a + b) == (a + b == a)
    # the meet: the annihilator route, symmetric, the dimension formula,
    # and pivots at each reduced row's leading 1
    meet = a.intersect(b)
    assert meet.rows == _generic_intersect(a, b)
    assert b.intersect(a) == meet
    assert meet.dim + (a + b).dim == a.dim + b.dim
    for row, c in zip(meet.rows, meet.pivots):
        assert not any(row[:c]) and row[c] == 1


def test_subspace_basis_is_the_read_only_array_of_its_rows():
    from .test_linalg import reference_rref

    rng = np.random.default_rng(17)
    for p, k, n in [(2, 2, 1), (2, 4, 2), (3, 2, 2), (2, 10, 3)]:
        space = SymplecticSpace(field(p, k), n)
        for _ in range(20):
            mat = rng.integers(0, p**k, size=(int(rng.integers(0, 2 * n + 1)), 2 * n))
            u = Subspace(space, mat)
            basis = u.basis
            assert basis.dtype == np.int32 and basis.flags.c_contiguous
            assert not basis.flags.writeable and basis.shape == (u.dim, 2 * n)
            # the bytes of the former array route: RREF of the int32 array
            want, pivots = reference_rref(space.ctx, mat.astype(np.int32))
            assert basis.tobytes() == want.tobytes() and u.pivots == pivots
            with pytest.raises(ValueError):
                basis[...] = 0
            assert basis is not u.basis and np.array_equal(basis, u.basis)
            # kernels return tuples, so rows shared between subspaces are immutable
            v = Subspace(space, rng.integers(0, p**k, size=(n, 2 * n)))
            for rows in (u.rows, _ann(u), u.perp().rows, u.intersect(v).rows, u.twist(1).rows):
                assert type(rows) is tuple and all(type(r) is tuple for r in rows)
            if u.dim:
                with pytest.raises(TypeError):
                    u.rows[0][0] = 1
            assert Subspace(space, u.rows) == u and Subspace(space, list(u.rows)) == u
            # every route keeps the pivots of its reduced rows
            for x in (u.perp(), u.intersect(v), u + v, u.twist(1), v.perp().perp()):
                want, pivots = reference_rref(space.ctx, x.basis)
                assert x.basis.tobytes() == want.tobytes() and x.pivots == pivots


def test_lagrangian_is_self_perp(space4):
    for u in enumerate_lagrangians(space4)[:25]:
        assert u.perp() == u
        assert u.is_lagrangian()


def test_every_census_lagrangian_is_its_own_complement():
    # a Lagrangian's complement is the subspace itself, not a copy of it,
    # and it agrees with the null space of u . J
    from dlstrata import dlclassify

    from .test_acceptance import CENSUS_CONFIGS

    for c, p, m in CENSUS_CONFIGS:
        for u in dlclassify._cached_lagrangians(c, p, m):
            fresh = Subspace._from_rref(u.space, u.rows, u.pivots)
            assert fresh.perp() is fresh and fresh.rows == _generic_perp(fresh)
            assert u.perp() is u


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
    # 0 and the whole space are their own twists, and every twist is
    # undone by the opposite one, over odd p too
    for pk, n in (((2, 2), 2), ((3, 2), 2), ((2, 4), 3), ((5, 2), 1)):
        space = SymplecticSpace(field(*pk), n)
        for u in (zero_subspace(space), full_subspace(space)):
            assert all(u.twist(r) is u for r in range(-3, 4))
        for dim in range(1, 2 * n):
            u = rand_subspace(space, rng, dim)
            for r in range(-3, 4):
                t = u.twist(r)
                assert t.pivots == u.pivots and t.twist(-r) == u


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


def _points_digest(points) -> str:
    """sha256 of each point's (rows, pivots), in the order given."""
    digest = hashlib.sha256()
    for u in points:
        digest.update(repr((u.rows, u.pivots)).encode())
    return digest.hexdigest()


# (c, p, k) -> _points_digest of enumerate_lagrangians over F_{p^k}^{2c}:
# the rows, pivots and order of every point
ENUMERATION_DIGESTS = {
    (1, 2, 10): "30d283234826a7722adc4833d10dbd3db7d55528c963445507b98672878dd3d3",
    (2, 2, 4): "017caa8e56d0d0ca30ab589bfa2064fa9bc6cbc5d83f00c44cbf375e7e074fd3",
    (2, 5, 2): "2c26dd3a619cfea0512a2dca311e5bca4712e110faea0a7239c320a2315ea7f6",
    (2, 3, 4): "64eb576206f8107b4c5fe8f8754bc87b894f326f635e847c07e8bafb2d063c83",
    (3, 2, 2): "49dcff3d41d45a97be0772272ac0ac2e88b4f82e622f305c17f97a4bf391a305",
    (3, 3, 2): "205a1f47ca6a11f29fedc194b76c3fa0e3d91476601b3a028afa83c90b00d2ba",
}


@pytest.mark.parametrize("c,p,k", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_is_pinned(c, p, k):
    points = enumerate_lagrangians(SymplecticSpace(field(p, k), c))
    assert _points_digest(points) == ENUMERATION_DIGESTS[(c, p, k)]


# (c, p, k, seed) -> _points_digest of 400 random_lagrangian draws from
# one default_rng(seed)
RANDOM_LAGRANGIAN_DIGESTS = {
    (3, 2, 4, 0): "abfc5d1b28fbee33e9f199d5f4f83126685e9978ecd4180f321c5ddeecb57233",
    (3, 2, 4, 1): "a15db126cb8ea3b9ad3d337f4972b326df00fd9a9738e3fb49b103e8d1b2918a",
    (3, 2, 4, 2): "736ef7047329c1207e4927ecbb7299bdfae1a61f24bffa9228e177618439b0ed",
    (3, 2, 4, 3): "ba78d47e254164f8994ecfbad397d28c59e0dbb65ff137d2aca726234b702316",
    (2, 5, 4, 0): "992f8436f7a0076f805e6f6d75592b331bc8cdb4aee70b2d572537721dce90ee",
    (4, 2, 4, 0): "23c10dfb459803c2705488d6f7608cb18be06e33d3ef6de42489565888246931",
}


@pytest.mark.parametrize("c,p,k,seed", sorted(RANDOM_LAGRANGIAN_DIGESTS))
def test_random_lagrangian_draws_are_pinned(c, p, k, seed):
    space = SymplecticSpace(field(p, k), c)
    rng = np.random.default_rng(seed)
    points = [random_lagrangian(space, rng) for _ in range(400)]
    assert all(u.is_lagrangian() for u in points)
    assert _points_digest(points) == RANDOM_LAGRANGIAN_DIGESTS[(c, p, k, seed)]


@pytest.mark.parametrize("n,p,k", [(3, 2, 2), (3, 5, 1), (3, 3, 2)])
def test_lagrangian_count_formula_large(n, p, k):
    q = p**k
    prod = 1
    for i in range(1, n + 1):
        prod *= q**i + 1
    space = SymplecticSpace(field(p, k), n)
    assert count_lagrangians(space) == prod
    # the row generator writes exactly the same number of bases
    assert sum(1 for _ in _all_cell_rows(space)) == prod


def _all_cell_rows(space):
    """The rows of every point, cell by cell, as enumeration writes them."""
    for pivots, slots in symplectic._cell_descriptors(space.n):
        params = itertools.product(range(space.ctx.q), repeat=len(slots))
        yield from symplectic._cell_rows(space, pivots, slots, params)


def test_lagrangian_cells_are_isotropic_in_bulk():
    # every point the row generator writes satisfies B G B^T = 0,
    # checked against the Gram rows in chunks of stacked bases
    space = SymplecticSpace(field(3, 2), 3)
    t = tables(space.ctx)
    g = as_array(space.gram_rows, space.dim)
    points = _all_cell_rows(space)
    total = 0
    while chunk := list(itertools.islice(points, 50_000)):
        block = np.array(chunk, dtype=np.int32)
        nmat, rows, cols = block.shape
        bg = np.zeros_like(block)
        for j in range(cols):
            acc = np.zeros((nmat, rows), dtype=block.dtype)
            for k in range(cols):
                acc = t.add[acc, t.mul[block[:, :, k], g[k, j]]]
            bg[:, :, j] = acc
        for i in range(rows):
            for j in range(rows):
                acc = np.zeros(nmat, dtype=block.dtype)
                for k in range(cols):
                    acc = t.add[acc, t.mul[bg[:, i, k], block[:, j, k]]]
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


def test_containment_and_flags_refuse_mixed_spaces(space4):
    """A line of a 4-dimensional space is not compared with a plane of a
    6-dimensional one, and no flag holds members of two spaces."""
    big = SymplecticSpace(field(2, 4), 3)
    line = Subspace(space4, eye(4)[:1])
    plane = Subspace(big, eye(6)[:2])
    with pytest.raises(ValueError, match="different ambient spaces"):
        plane.contains(line)
    with pytest.raises(ValueError, match="different ambient spaces"):
        line.contains(plane)
    other16 = SymplecticSpace(field(2, 4), 2)
    with pytest.raises(ValueError, match="different ambient spaces"):
        Flag([line, Subspace(other16, eye(4)[:2])])


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
    ``min_double_reps`` (the scan ``relpos`` replaces)."""
    space = flag_c.space
    table = {
        (cm.dim, dm.dim): cm.dim + dm.dim
        - len(linalg.rref(space.ctx, cm.rows + dm.rows, space.dim)[1])
        for cm in flag_c.members
        for dm in flag_d.members
    }
    matches = [
        w
        for w in min_double_reps(space.n, flag_type(flag_c), flag_type(flag_d))
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
        unit = eye(space.dim)
        full = standard_flag(space, range(1, space.dim))
        for v in weyl.enumerate_group(space.n):
            members = []
            for d in range(1, space.dim):
                rows = np.array([unit[v(a) - 1] for a in range(1, d + 1)])
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
    unit = eye(4)
    line = Subspace(space4, unit[:1])
    # a chain with symmetric dimensions that is not self-dual: its rank
    # table against the standard flag belongs to no Weyl element
    skew = Flag([line, Subspace(space4, unit[[0, 1, 3]])])
    with pytest.raises(RuntimeError):
        relpos(standard_flag(space4, [1, 2, 3]), skew)
    with pytest.raises(ValueError):
        relpos(Flag([line]), Flag([line]))


def test_relpos_rechecks_every_table_entry(space4, monkeypatch):
    """A table whose second differences give a Weyl element but whose
    entries are not its ranks is refused: here every meet with 0 is
    counted as a line, which shifts a whole border row of the table and
    leaves every second difference as it was."""
    flag = standard_flag(space4, [1, 2, 3])
    pairs = ((flag, flag), (flag, standard_flag(space4, [2])))
    # the untampered tables are read first, so their positions are kept
    for c, d in pairs:
        relpos(c, d)
    real = symplectic._rank_table

    def rank_table(flag_c, flag_d):
        table = real(flag_c, flag_d)
        return (tuple([dim + 1 for dim in table[0]]),) + table[1:]

    monkeypatch.setattr(symplectic, "_rank_table", rank_table)
    for c, d in pairs:
        # a refused table is not kept: it is refused again on every call
        for _ in range(2):
            with pytest.raises(RuntimeError, match=r"dim\(C_0 cap D_0\) = 1 differs from r_w = 0"):
                relpos(c, d)
            with pytest.raises(RuntimeError, match="differs from r_w"):
                refine(c.members, d.members)


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
        assert relpos(flag_apply(c, g), flag_apply(d, g)).perm == w.perm
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
            chain, w = refine(c.members, d.members)
            r = Flag(chain)
            assert refine(chain, d.members)[0] == chain == r.members
            same, e = refine(c.members, c.members)
            assert same == c.members and e.is_identity()
            assert all(m in r.members for m in c.members)
            assert r.is_self_dual()
            assert w.perm == relpos(c, d).perm
            from dlstrata.bedard import conjugate_type

            assert flag_type(r) == flag_type(c) & conjugate_type(w, flag_type(d))
            # refinement preserves the relative position
            assert relpos(r, d).perm == w.perm


def _refine_by_all_joins(flag_c, flag_d):
    """Reference: every join (C_{i+1} cap D_j) + C_i eliminated for, and
    the position found by the scan (what ``refine`` reads off its table)."""
    members = set(flag_c.members)
    for lower, upper in zip(flag_c.members, flag_c.members[1:]):
        for dm in flag_d.members:
            members.add(upper.intersect(dm) + lower)
    return Flag(members), _relpos_by_scan(flag_c, flag_d)


def _assert_refine_matches_all_joins(flag_c, flag_d):
    """refine on the member tuples against the reference; returns flag_c
    when it is stable, else the refined flag."""
    got, position = refine(flag_c.members, flag_d.members)
    want, want_position = _refine_by_all_joins(flag_c, flag_d)
    # the refined chain comes out in increasing dimension, as the Flag sorts it
    assert got == want.members and position.perm == want_position.perm
    # the rank table and the position are those of the grid of meets
    grid, grid_position = meets_and_position(flag_c, flag_d)
    assert symplectic._rank_table(flag_c.members, flag_d.members) == tuple(
        tuple([m.dim for m in row]) for row in grid
    )
    assert position.perm == grid_position.perm
    # a stable chain comes back as the same tuple, with nothing rebuilt
    assert (got is flag_c.members) == (want == flag_c)
    return flag_c if got is flag_c.members else Flag(got)


def test_refine_matches_all_joins_on_every_census_refinement_step(monkeypatch):
    from dlstrata import dlclassify

    from .test_acceptance import CENSUS_CONFIGS

    # every meet refine takes, with its two arguments
    meets = []
    real_meet = symplectic._meet

    def recording(a, b, sums):
        meet = real_meet(a, b, sums)
        meets.append((a, b, meet))
        return meet

    for c, p, m in CENSUS_CONFIGS:
        if c != 2:
            continue
        for u in dlclassify._cached_lagrangians(c, p, m):
            for chain, _ in dlclassify._refine_to_stable(u, 2):
                flag = Flag(chain)
                twist = flag.twist(2)
                with monkeypatch.context() as patch:
                    patch.setattr(symplectic, "_meet", recording)
                    refine(chain, twist.members)
                _assert_refine_matches_all_joins(flag, twist)
    # the meets against the annihilator null-space route
    assert meets
    for a, b, meet in meets:
        assert meet.rows == _generic_intersect(a, b)


def test_refine_builds_several_joins_of_one_gap_in_order(monkeypatch):
    """Refined against a complete self-dual flag D at c = 3 over F_9,
    (0, V) has all 2n - 1 joins (V cap D_j) + 0 = D_j in its one gap:
    they are planned and built in increasing dimension, one meet each,
    and give D's members exactly, at position e.  (0, U, V) has several
    joins in a gap too, for U the middle member of D and for a random
    point, and matches the reference that eliminates every join.  Census
    points seldom put two joins in one gap, so this and the random flag
    pairs are what reach that path."""
    space = SymplecticSpace(field(3, 2), 3)
    rng = np.random.default_rng(32)
    complete = range(1, space.dim)
    zero, full = zero_subspace(space), full_subspace(space)
    meets = []
    real_meet = symplectic._meet

    def recording(a, b, sums):
        meets.append((a, b))
        return real_meet(a, b, sums)

    monkeypatch.setattr(symplectic, "_meet", recording)
    standard = standard_flag(space, complete)
    moved = flag_apply(standard, random_symplectic(space, rng))
    for d in (standard, moved):
        meets.clear()
        got, position = refine((zero, full), d.members)
        assert got == d.members and position.is_identity()
        assert meets == [(full, dm) for dm in d.members[1:-1]]
        plan = symplectic._position_and_plan((zero, full), d.members)[1]
        assert plan == (tuple((j, j) for j in complete),)
        middle = d.members[space.n]
        assert refine((zero, middle, full), d.members)[0] == d.members
        for u in (middle, random_lagrangian(space, rng)):
            flag = Flag([u])
            plan = symplectic._position_and_plan(flag.members, d.members)[1]
            assert max(len(joins) for joins in plan) > 1
            _assert_refine_matches_all_joins(flag, d)


def _assert_twist_matches_rebuilt(flag, r):
    """Flag.twist builds the twisted chain as it is; ``Flag.__init__``
    sorts and re-checks it, and must find the same flag."""
    got = flag.twist(r)
    want = Flag(m.twist(r) for m in flag.members)
    assert got == want and hash(got) == hash(want)
    assert got.space is want.space and got.dims == want.dims == flag.dims
    assert [(m.rows, m.pivots) for m in got.members] == [
        (m.rows, m.pivots) for m in want.members
    ]


def test_twist_matches_the_rebuilt_flag_on_every_census_refinement_step():
    from dlstrata import dlclassify

    from .test_acceptance import CENSUS_CONFIGS

    for c, p, m in CENSUS_CONFIGS:
        if c != 2:
            continue
        for u in dlclassify._cached_lagrangians(c, p, m):
            for chain, _ in dlclassify._refine_to_stable(u, 2):
                for r in (2, -2, 1):
                    _assert_twist_matches_rebuilt(Flag(chain), r)


@st.composite
def _self_dual_flag_pair(draw):
    p, k = draw(st.sampled_from([(2, 2), (3, 2), (2, 4)]))
    space = SymplecticSpace(field(p, k), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_self_dual_flag(space, rng), random_self_dual_flag(space, rng)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_self_dual_flag_pair())
def test_refine_matches_all_joins_on_random_flag_pairs(pair):
    # every example reads its tables and plans from scratch, not from earlier ones
    weyl._position_of_table.cache_clear()
    symplectic._read_table.cache_clear()
    c, d = pair
    for a, b in ((c, d), (d, c), (c, c)):
        # refine a against b until it stops, checking every step
        for _ in range(a.space.dim):
            nxt = _assert_refine_matches_all_joins(a, b)
            if nxt is a:
                break
            a = nxt
        else:
            raise AssertionError("refinement did not stop")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_self_dual_flag_pair(), st.integers(-4, 4))
def test_twist_matches_the_rebuilt_flag_on_random_flags(pair, r):
    for flag in pair:
        _assert_twist_matches_rebuilt(flag, r)


def _self_dual_by_perp(flag):
    """Reference: the complement of every member is a member."""
    keys = {m.rows for m in flag.members}
    return all(_generic_perp(m) in keys for m in flag.members)


def _fresh(flag):
    """The same flag on new subspace objects, with nothing cached."""
    return Flag(Subspace._from_rref(m.space, m.rows, m.pivots) for m in flag.members)


@st.composite
def _flag_with_symmetric_dims(draw):
    """A self-dual flag moved by a symplectic or by a random invertible
    matrix: the second keeps the dimensions and mostly breaks duality."""
    p, k = draw(st.sampled_from([(2, 2), (3, 2), (2, 4)]))
    space = SymplecticSpace(field(p, k), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flag = random_self_dual_flag(space, rng)
    if draw(st.booleans()):
        while True:
            g = rng.integers(0, p**k, size=(space.dim, space.dim)).astype(np.int32)
            if len(linalg.rref(space.ctx, as_rows(g), space.dim)[1]) == space.dim:
                break
        flag = flag_apply(flag, g)
    return flag


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_flag_with_symmetric_dims())
def test_is_self_dual_matches_the_perp_definition(flag):
    want = _self_dual_by_perp(flag)
    # no complement cached
    fresh = _fresh(flag)
    assert fresh.is_self_dual() == want
    # every complement cached, then only the lower half, then the upper
    half = len(flag.members) // 2
    for cached in (slice(None), slice(None, half), slice(half, None)):
        fresh = _fresh(flag)
        for m in fresh.members[cached]:
            m.perp()
        assert fresh.is_self_dual() == want


def test_is_self_dual_on_fixed_examples(space4, space9):
    unit = eye(4)
    # symmetric dimensions, not self-dual: e1-perp is <e1, e2, e3>, not
    # the hyperplane <e1, e2, e4>; and <e1, e4> = 1 on the plane they span
    skew = Flag([Subspace(space4, unit[:1]), Subspace(space4, unit[[0, 1, 3]])])
    assert not skew.is_self_dual() and not _self_dual_by_perp(skew)
    not_isotropic = Flag([Subspace(space4, unit[[0, 3]])])
    assert not not_isotropic.is_self_dual() and not _self_dual_by_perp(not_isotropic)
    # dimensions that are not symmetric
    assert not Flag([Subspace(space4, unit[:1])]).is_self_dual()
    # the canonical closure's route: every complement is cached
    for u in enumerate_lagrangians(space9)[::40]:
        flag = _fresh(Flag([u]))
        flag.members[1].perp()
        assert flag.is_self_dual()


def test_zero_and_full_are_one_object_per_space(space4, space9):
    """Each space has one 0 and one V, each the other's complement; the
    complement of any other 0 or V is the shared one, and taking it
    leaves the shared objects' complements as they are."""
    zero, full = zero_subspace(space4), full_subspace(space4)
    assert zero_subspace(space4) is zero and full_subspace(space4) is full
    assert zero.perp() is full and full.perp() is zero
    assert zero.twist(2) is zero and full.twist(2) is full
    other_zero, other_full = Subspace(space4, []), Subspace(space4, eye(4))
    assert other_zero is not zero and other_zero == zero
    assert other_full is not full and other_full == full
    assert other_zero.perp() is full and other_full.perp() is zero
    assert zero.perp() is full and full.perp() is zero
    assert zero_subspace(space9) is not zero and zero_subspace(space9).space is space9


def _assert_twist_is_its_own_complement(u, r=2):
    """A checked Lagrangian's twist knows it is its own complement, so
    its complement is itself with no index work, and has the rows a
    fresh subspace of the same rows computes by index work."""
    assert u.is_lagrangian()
    t = u.twist(r)
    assert t._own_perp and t.perp() is t
    assert Subspace(u.space, t.rows).perp().rows == t.rows


def test_twists_of_census_points_carry_their_complements():
    from dlstrata import dlclassify

    from .test_acceptance import CENSUS_CONFIGS

    for c, p, m in CENSUS_CONFIGS:
        for u in dlclassify._cached_lagrangians(c, p, m):
            _assert_twist_is_its_own_complement(u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 3, 4), (2, 5, 4), (3, 2, 4)]), st.integers(0, 2**32 - 1),
       st.integers(-3, 3))
def test_twists_of_random_lagrangians_carry_their_complements(config, seed, r):
    # c = 2 over F_81 and F_625, c = 3 over F_16
    c, p, k = config
    space = SymplecticSpace(field(p, k), c)
    _assert_twist_is_its_own_complement(random_lagrangian(space, np.random.default_rng(seed)), r)


def test_only_a_known_own_complement_is_carried_by_a_twist(space9):
    """A subspace that is not its own complement hands nothing on, and
    neither does a Lagrangian that was never checked, until it is."""
    rng = np.random.default_rng(5)
    for dim in (1, 2, 2, 2, 3):
        sub = rand_subspace(space9, rng, dim)
        assert sub.perp() is not sub and not sub._own_perp
        t = sub.twist(1)
        assert not t._own_perp
        assert t.perp().rows == Subspace(space9, t.rows).perp().rows
        assert not t._own_perp
    u = random_lagrangian(space9, rng)
    assert not u.twist(1)._own_perp
    assert u.is_lagrangian() and u.twist(1)._own_perp


def test_no_subspace_slot_holds_a_subspace(space4):
    """A subspace holds its space, rows, pivots, dimension and one flag,
    and no other subspace: not its complement, nor its source."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rand_subspace(space4, rng, int(rng.integers(0, space4.dim + 1)))
        for sub in (x, x.perp(), x.perp().perp(), x.twist(1), x.twist(1).perp()):
            held = [getattr(sub, name) for name in Subspace.__slots__]
            assert not any(isinstance(v, Subspace) for v in held)


def test_refine_emits_the_chain_in_order_and_refuses_a_bad_join(space4, monkeypatch):
    """Refining (0, <e1, e2>, V) against (0, <e1, e3>, V) inserts the meet
    <e1> and the join <e1, e2, e3> in place.  A meet that gives a join of
    another dimension than the table's, or a join of the table's
    dimension that breaks the chain, raises RuntimeError."""
    unit = eye(4)
    c = (zero_subspace(space4), Subspace(space4, unit[:2]), full_subspace(space4))
    d = (zero_subspace(space4), Subspace(space4, unit[[0, 2]]), full_subspace(space4))
    got, position = refine(c, d)
    want = (c[0], Subspace(space4, unit[:1]), c[1], Subspace(space4, unit[:3]), c[2])
    assert got == want and got[0] is c[0] and got[2] is c[1] and got[4] is c[2]
    assert position.perm == relpos(Flag(c), Flag(d)).perm
    monkeypatch.setattr(symplectic, "_meet", lambda a, b, sums: a)
    with pytest.raises(RuntimeError, match="the rank table says"):
        refine(c, d)
    # <e4> has the meet's dimension, but <e4> does not lie in <e1, e2>
    stray = Subspace(space4, unit[3:])
    monkeypatch.setattr(symplectic, "_meet", lambda a, b, sums: stray)
    with pytest.raises(RuntimeError, match="not a chain"):
        refine(c, d)


def _patched_meet(real, upper, stray):
    """``_meet`` with the meet under ``upper`` replaced by ``stray``."""
    return lambda a, b, sums: stray if a is upper else real(a, b, sums)


def test_refine_refuses_a_chain_that_is_not_self_dual(space4, monkeypatch):
    """A join of the table's dimension that keeps every containment but is
    not the complement of its lower partner is refused as not self-dual.
    Refining (0, <e1, e2>, V) against (0, <e1, e3>, V) with the meet <e4>
    under V gives the join <e1, e2, e4>: it holds <e1, e2>, so the
    refined members are a chain, but <e1>-perp is <e1, e2, e3>.  The
    refusal is not kept: it comes again on a second call."""
    unit = eye(4)
    c = (zero_subspace(space4), Subspace(space4, unit[:2]), full_subspace(space4))
    d = (zero_subspace(space4), Subspace(space4, unit[[0, 2]]), full_subspace(space4))
    stray = Subspace(space4, unit[3:])
    monkeypatch.setattr(symplectic, "_meet", _patched_meet(symplectic._meet, c[2], stray))
    skew = (c[0], Subspace(space4, unit[:1]), c[1], Subspace(space4, unit[[0, 1, 3]]), c[2])
    symplectic._check_chain(skew)
    assert not symplectic._is_self_dual(skew)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="refined chain is not self-dual"):
            refine(c, d)


def test_refine_refuses_a_lower_member_that_breaks_containment(space4, monkeypatch):
    """A lower join that does not lie in the member above it is refused as
    not a chain, by the containment check on the lower half, which runs
    before self-duality is asked: the meet <e4> under <e1, e2> gives
    the join <e4>, outside <e1, e2>."""
    unit = eye(4)
    c = (zero_subspace(space4), Subspace(space4, unit[:2]), full_subspace(space4))
    d = (zero_subspace(space4), Subspace(space4, unit[[0, 2]]), full_subspace(space4))
    stray = Subspace(space4, unit[3:])
    monkeypatch.setattr(symplectic, "_meet", _patched_meet(symplectic._meet, c[1], stray))
    monkeypatch.setattr(
        symplectic, "_is_self_dual", lambda members: pytest.fail("self-duality asked first")
    )
    with pytest.raises(RuntimeError, match="refined members are not a chain"):
        refine(c, d)


def test_refine_rejects_flags_with_non_symmetric_dimensions(space4):
    unit = eye(4)
    line = Flag([Subspace(space4, unit[:1])])  # dimensions {0, 1, 4}
    full = standard_flag(space4, [1, 2, 3])
    for a, b in ((line, full), (full, line), (line, line)):
        with pytest.raises(ValueError):
            refine(a.members, b.members)


def test_random_symplectic_properties(space9):
    ctx = space9.ctx
    g1 = random_symplectic(space9, np.random.default_rng(42))
    g2 = random_symplectic(space9, np.random.default_rng(42))
    assert g1 == g2  # deterministic per seed
    g3 = random_symplectic(space9, np.random.default_rng(43))
    assert len(g1) == 4 and all(len(row) == 4 for row in g1)
    assert all(type(x) is int for row in g1 for x in row)
    prod = linalg.matmul(ctx, g1, g3, 4)
    check = linalg.matmul(ctx, linalg.matmul(ctx, tuple(zip(*prod)), space9.gram_rows, 4), prod, 4)
    assert check == space9.gram_rows



# (p, k, c) -> sha256 of the little-endian int32 bytes of random_symplectic
# for seeds 0, 1 and 2, concatenated
RANDOM_SYMPLECTIC_DIGESTS = {
    (2, 2, 1): "e427bd12675f7861fda19b7edfb35721c96d97ca45f2e7198f6062dae6a3ad88",
    (2, 2, 2): "009a98ff49c17d5e0f55a5b49c6f290a75afe15a967ac4f41021deabf081bca3",
    (2, 2, 3): "813f3c274cef9e021e11849086853d7af706e098c6bae44605522e91e486c6d7",
    (3, 2, 1): "fea137ec39051dea54263c85e99d1fe2a6841a51b6d9d773deb06a5240219027",
    (3, 2, 2): "b425a9d71e79ede49b4635cec2985876d9abfa52e552953c2735036874179fda",
    (3, 2, 3): "500c244e0ccbf1d984bac64897b2d6027f3be88107b01c7d16c1c4c263021bc3",
    (2, 4, 1): "8e12c5f5d3354e6030ffda6fbad1d4e18bbef9a0bf1b12d9f288581e279684e5",
    (2, 4, 2): "85e7022d1aa4678ec5ff09fc77524fbee162a2d3c93f06e3d850a705e66fc0ea",
    (2, 4, 3): "f95e799249667ffe392aa0c7bee8a10baf120c3b805aa612b400e2a988361768",
    (2, 10, 1): "ab5869056d04d2348b8115792ecefafe472cecb861c4fbe3a1794dcc3c26a975",
    (2, 10, 2): "f751c6106bd0db45e5eebf4e3e2c110ecbddba825733e52a8c7f8a1c34f179d1",
    (2, 10, 3): "1f4ced9f9d8977d9a139c78ffed26153b2d4290e18272aea48a70bc8adc52d86",
}


@pytest.mark.parametrize("p,k,c", sorted(RANDOM_SYMPLECTIC_DIGESTS))
def test_random_symplectic_bytes_are_pinned(p, k, c):
    space = SymplecticSpace(field(p, k), c)
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        g = random_symplectic(space, np.random.default_rng(seed))
        assert len(g) == 2 * c and all(len(row) == 2 * c for row in g)
        digest.update(np.ascontiguousarray(g, dtype="<i4").tobytes())
    assert digest.hexdigest() == RANDOM_SYMPLECTIC_DIGESTS[(p, k, c)]
