import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dlstrata import linalg
from dlstrata.gf import field
from tests import DTYPE, as_array, as_rows, eye, reference, tables, zeros
from tests.reference import dense_nullspace, entries

# every field the differential tests cover: characteristic 2 and odd,
# prime and extension fields, up to the table limit
FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (31, 1), (2, 10)]

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def f4():
    return field(2, 2)


def _random_matrix(ctx, rng, rows, cols):
    return rng.integers(0, ctx.q, size=(rows, cols)).astype(DTYPE)


def assert_rows(got, nrows, ncols):
    """got is a tuple of nrows tuples of ncols Python ints."""
    assert type(got) is tuple and len(got) == nrows
    for row in got:
        assert type(row) is tuple and len(row) == ncols
        assert all(type(x) is int for x in row)


def test_rref_is_idempotent_and_canonical(f4):
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = _random_matrix(f4, rng, 3, 5)
        r, piv = linalg.rref(f4, as_rows(m), 5)
        r2, piv2 = linalg.rref(f4, r, 5)
        assert r == r2 and piv == piv2
        # scaling a row and permuting rows does not change the canonical form
        shuffled = m[rng.permutation(3)]
        assert linalg.rref(f4, as_rows(shuffled), 5)[0] == r


def test_nullspace_annihilates(f4):
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = as_rows(_random_matrix(f4, rng, 3, 6))
        ns = linalg.nullspace(f4, entries(m), 6)
        assert len(ns) == 6 - len(linalg.rref(f4, m, 6)[1])
        if ns:
            prod = linalg.matmul(f4, m, tuple(zip(*ns)), len(ns))
            assert not any(map(any, prod))


def test_matmul_against_scalar_arithmetic(f4):
    rng = np.random.default_rng(2)
    a = _random_matrix(f4, rng, 3, 4)
    b = _random_matrix(f4, rng, 4, 2)
    got = linalg.matmul(f4, as_rows(a), as_rows(b), 2)
    assert got == as_rows(scalar_matmul(f4, a, b))
    with pytest.raises(ValueError):
        linalg.matmul(f4, as_rows(a), as_rows(a), 4)


def test_inverse(f4):
    rng = np.random.default_rng(3)
    eye = linalg.identity(4)
    found = 0
    while found < 10:
        m = as_rows(_random_matrix(f4, rng, 4, 4))
        if len(linalg.rref(f4, m, 4)[1]) < 4:
            continue
        inv = reference.inverse(f4, m)
        assert_rows(inv, 4, 4)
        assert linalg.matmul(f4, m, inv, 4) == eye
        found += 1
    with pytest.raises(ValueError):
        reference.inverse(f4, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        reference.inverse(f4, ((1, 0, 0), (0, 1, 0)))
    assert reference.inverse(f4, ()) == ()


def test_frob_map_is_bijective_entrywise(f4):
    rng = np.random.default_rng(4)
    m = as_rows(_random_matrix(f4, rng, 3, 3))
    assert linalg.frob_map(f4, linalg.frob_map(f4, m, 1), -1) == m
    assert linalg.frob_map(f4, m, f4.k) == m
    table = tables(f4).frob[1]
    assert linalg.frob_map(f4, m, 1) == as_rows(table[np.array(m)])


def test_in_row_space(f4):
    # a vector lies in the row span exactly when its insertion adds no row
    m = [[1, 0, 2, 3], [0, 1, 1, 1]]
    r, piv = linalg.rref(f4, m, 4)
    assert linalg.insertion_ranks(f4, r, piv, [(1, 1, 3, 2)]) == (2,)  # row0 + row1
    assert linalg.insertion_ranks(f4, r, piv, [(0, 0, 1, 0)]) == (3,)
    assert linalg.insertion_ranks(f4, r, piv, [(1, 1, 3, 2), (0, 0, 1, 0)]) == (2, 3)
    assert linalg.insertion_ranks(f4, r, piv, []) == ()
    assert linalg.insertion_ranks(f4, (), (), [(0, 0, 0, 0)]) == (0,)
    assert linalg.insertion_ranks(f4, (), (), [(0, 0, 0, 1)]) == (1,)


def test_as_rows_and_as_array_round_trip(f4):
    rng = np.random.default_rng(6)
    for shape in ((0, 0), (0, 5), (3, 0), (3, 5)):
        m = _random_matrix(f4, rng, *shape)
        rows = as_rows(m)
        assert_rows(rows, *shape)
        back = as_array(rows, shape[1])
        assert back.dtype == DTYPE and back.flags.c_contiguous
        assert back.shape == shape and back.tobytes() == m.tobytes()


# -- the numpy reference and the property tests --------------------------


def reference_rref(ctx, mat):
    """The former per-column numpy elimination, kept as the reference."""
    a = np.array(mat, dtype=DTYPE, copy=True)
    nrows, ncols = a.shape
    t = tables(ctx)
    add, mul, neg, inv = t.add, t.mul, t.neg, t.inv
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = mul[int(inv[piv]), a[r]]
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = add[a[rows], mul[neg[col[rows]][:, None], a[r][None, :]]]
        pivots.append(c)
        r += 1
    return np.ascontiguousarray(a[: len(pivots)]), tuple(pivots)


def scalar_matmul(ctx, a, b):
    """Product by scalar table lookups, one entry at a time."""
    add, mul = ctx.add_list, ctx.mul_list
    n, m = a.shape
    l = b.shape[1]
    out = np.zeros((n, l), dtype=DTYPE)
    for i in range(n):
        for j in range(l):
            acc = 0
            for t in range(m):
                acc = add[acc][mul[int(a[i, t])][int(b[t, j])]]
            out[i, j] = acc
    return out


@st.composite
def field_matrices(draw, fields=FIELDS, max_rows=12, max_cols=24):
    """A field and a matrix over it: random, zero, or of low rank."""
    ctx = field(*draw(st.sampled_from(fields)))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "zero", "low_rank"]))
    if kind == "zero":
        mat = np.zeros((rows, cols), dtype=DTYPE)
    elif kind == "random":
        mat = rng.integers(0, ctx.q, size=(rows, cols)).astype(DTYPE)
    else:
        inner = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(0, ctx.q, size=(rows, inner)).astype(DTYPE)
        right = rng.integers(0, ctx.q, size=(inner, cols)).astype(DTYPE)
        product = linalg.matmul(ctx, as_rows(left), as_rows(right), cols)
        mat = as_array(product, cols)
    return ctx, mat


def span(ctx, mat):
    """Every vector of the row span, by enumerating all combinations."""
    vectors = set()
    for coeffs in itertools.product(range(ctx.q), repeat=mat.shape[0]):
        acc = [0] * mat.shape[1]
        for a, row in zip(coeffs, mat):
            acc = [ctx.add_list[x][ctx.mul_list[a][int(y)]] for x, y in zip(acc, row)]
        vectors.add(tuple(acc))
    return frozenset(vectors)


@PROPERTY
@given(field_matrices())
@example((field(2, 4), zeros(0, 0)))
@example((field(2, 4), zeros(0, 24)))
@example((field(3, 2), zeros(12, 0)))
@example((field(2, 10), zeros(12, 24)))
def test_rref_matches_the_numpy_reference(case):
    ctx, mat = case
    got, pivots = linalg.rref(ctx, as_rows(mat), mat.shape[1])
    want, want_pivots = reference_rref(ctx, mat)
    assert_rows(got, want.shape[0], mat.shape[1])
    assert got == as_rows(want)
    assert pivots == want_pivots


@PROPERTY
@given(field_matrices(fields=[(2, 1), (3, 1), (2, 2)], max_rows=5, max_cols=6), st.data())
def test_rref_bytes_are_equal_exactly_when_spans_are(case, data):
    ctx, a = case
    # b spans a subspace of a's span (equal when the mix is invertible),
    # or is unrelated
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        mix = rng.integers(0, ctx.q, size=(a.shape[0], a.shape[0])).astype(DTYPE)
        product = linalg.matmul(ctx, as_rows(mix), as_rows(a), a.shape[1])
        b = as_array(product, a.shape[1])
    else:
        b = rng.integers(0, ctx.q, size=a.shape).astype(DTYPE)
    ncols = a.shape[1]
    same_rows = (
        linalg.rref(ctx, as_rows(a), ncols)[0]
        == linalg.rref(ctx, as_rows(b), ncols)[0]
    )
    assert same_rows == (span(ctx, a) == span(ctx, b))


@PROPERTY
@given(field_matrices())
def test_nullspace_is_exact(case):
    ctx, mat = case
    ncols = mat.shape[1]
    rows = as_rows(mat)
    ns = linalg.nullspace(ctx, entries(rows), ncols)
    assert_rows(ns, ncols - len(linalg.rref(ctx, rows, ncols)[1]), ncols)
    # a canonical basis of vectors that mat annihilates
    arr = as_array(ns, ncols)
    assert ns == as_rows(reference_rref(ctx, arr)[0])
    assert not scalar_matmul(ctx, mat, arr.T).any()


@PROPERTY
@given(field_matrices(fields=[(2, 1), (3, 1), (2, 2)], max_rows=4, max_cols=6))
def test_nullspace_holds_every_solution(case):
    ctx, mat = case
    ncols = mat.shape[1]
    ns = as_array(linalg.nullspace(ctx, entries(as_rows(mat)), ncols), ncols)
    solutions = [
        x for x in itertools.product(range(ctx.q), repeat=ncols)
        if not scalar_matmul(ctx, mat, np.array(x, dtype=DTYPE).reshape(-1, 1)).any()
    ]
    assert len(solutions) == ctx.q ** ns.shape[0]
    assert span(ctx, ns) == frozenset(solutions)


def _sparsified(rng, mat):
    """mat with each entry zeroed with probability 1/2, then one whole row
    and one whole column zeroed (when it has any)."""
    mat = np.where(rng.random(mat.shape) < 0.5, 0, mat).astype(DTYPE)
    if mat.shape[0]:
        mat[rng.integers(mat.shape[0])] = 0
    if mat.shape[1]:
        mat[:, rng.integers(mat.shape[1])] = 0
    return mat


@PROPERTY
@given(
    st.sampled_from(FIELDS),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example((3, 2), 3, 0, 2, 0, False)
@example((31, 1), 2, 0, 4, 0, True)
@example((3, 2), 4, 5, 3, 0, True)
@example((31, 1), 5, 6, 4, 1, True)
@example((2, 10), 6, 6, 6, 2, True)
def test_matmul_matches_scalar_arithmetic(pk, n, m, l, seed, sparse):
    ctx = field(*pk)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ctx.q, size=(n, m)).astype(DTYPE)
    b = rng.integers(0, ctx.q, size=(m, l)).astype(DTYPE)
    if sparse:
        # the product skips zero entries of a, which dense draws over
        # large fields almost never contain
        a, b = _sparsified(rng, a), _sparsified(rng, b)
    got = linalg.matmul(ctx, as_rows(a), as_rows(b), l)
    assert_rows(got, n, l)
    assert got == as_rows(scalar_matmul(ctx, a, b))


def test_matmul_memory_is_bounded_by_its_operands():
    # 128 x 128 by 128 x 128 over F_1024: the former product built an
    # n x m x l x k int64 digit array, 168 MB here
    ctx = field(2, 10)
    rng = np.random.default_rng(5)
    a = rng.integers(0, ctx.q, size=(128, 128)).astype(DTYPE)
    b = rng.integers(0, ctx.q, size=(128, 128)).astype(DTYPE)
    a_rows, b_rows = as_rows(a), as_rows(b)
    tracemalloc.start()
    try:
        got = linalg.matmul(ctx, a_rows, b_rows, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert got[:2] == as_rows(scalar_matmul(ctx, a[:2], b))


def reference_nullspace(ctx, mat):
    """The former two-elimination null space, kept as the reference:
    eliminate mat, build one vector per free column, then eliminate
    those vectors again to get the canonical basis."""
    ncols = mat.shape[1]
    if mat.size == 0:
        return eye(ncols)
    rows, pivots = linalg.rref(ctx, as_rows(mat), ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = ctx.neg_list[row[fc]]
        basis.append(vec)
    return reference_rref(ctx, np.array(basis, dtype=DTYPE).reshape(len(free), ncols))[0]


@PROPERTY
@given(field_matrices())
@example((field(3, 2), zeros(5, 7)))
@example((field(2, 4), np.array([[1, 2, 3], [0, 1, 5], [0, 0, 7], [4, 4, 4]], dtype=DTYPE)))
@example((field(31, 1), np.array([[0], [5], [3]], dtype=DTYPE)))
@example((field(2, 1), zeros(3, 1)))
def test_nullspace_matches_the_two_elimination_reference(case):
    ctx, mat = case
    ncols = mat.shape[1]
    got = linalg.nullspace(ctx, entries(as_rows(mat)), ncols)
    want = reference_nullspace(ctx, mat)
    assert_rows(got, want.shape[0], ncols)
    assert got == as_rows(want) == dense_nullspace(ctx, as_rows(mat), ncols)


@PROPERTY
@given(
    field_matrices(fields=[(2, 1), (3, 2), (2, 4), (5, 2), (2, 10)], max_rows=12, max_cols=10),
    st.integers(0, 12),
    st.integers(1, 1023),
    st.integers(0, 2**32 - 1),
)
@example((field(3, 2), np.array([[0, 0, 1], [0, 2, 1]], dtype=DTYPE)), 1, 4, 0)
@example((field(2, 4), np.array([[1, 2, 3], [0, 1, 5], [4, 4, 4]], dtype=DTYPE)), 2, 7, 1)
def test_insertion_ranks_match_the_rank_of_every_prefix(case, split, scalar, seed):
    """Rows after a split are inserted into the reduced rows of those
    before it, followed by a nonzero multiple of each, which must reduce
    to zero against the row it made, then by vectors inside the span of
    the basis (a basis row repeated, a combination leading with
    coefficient 1, a random combination, each as a tuple and as a list)
    and by a combination of the basis and an inserted row; the rank
    after each insertion is that of the stack, by ``rref``."""
    ctx, mat = case
    ncols = mat.shape[1]
    rows = as_rows(mat)
    split = min(split, len(rows))
    basis, pivots = linalg.rref(ctx, rows[:split], ncols)
    scale = ctx.mul_list[scalar % (ctx.q - 1) + 1]
    vectors = rows[split:]
    vectors += tuple(tuple(scale[x] for x in vec) for vec in vectors)
    rng = np.random.default_rng(seed)
    add, mul = ctx.add_list, ctx.mul_list

    def combination(coeffs, rows):
        acc = [0] * ncols
        for f, row in zip(coeffs, rows):
            acc = [add[x][mul[f][y]] for x, y in zip(acc, row)]
        return tuple(acc)

    spanned = []
    if basis:
        spanned.append(basis[int(rng.integers(len(basis)))])
        coeffs = [1] + [int(x) for x in rng.integers(0, ctx.q, size=len(basis) - 1)]
        spanned.append(combination(coeffs, basis))
        spanned.append(combination([int(x) for x in rng.integers(0, ctx.q, size=len(basis))], basis))
    vectors += tuple(spanned) + tuple(list(vec) for vec in spanned)
    if vectors:
        # the span grows with the inserted rows: one of them plus the basis
        coeffs = [int(x) for x in rng.integers(1, ctx.q, size=len(basis) + 1)]
        vectors += (combination(coeffs, basis + (vectors[0],)),)
    got = linalg.insertion_ranks(ctx, basis, pivots, vectors)
    want = tuple(
        len(linalg.rref(ctx, basis + tuple(map(tuple, vectors[: i + 1])), ncols)[1])
        for i in range(len(vectors))
    )
    assert type(got) is tuple and got == want


# -- the elimination over nonzero entries against the dense routines --------

# F_4, F_9, F_16 and F_25: the fields of the module layer's censuses
ENTRY_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2)]


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=24):
    """A field and a matrix over it, random or of full rank, at a drawn
    density, with some rows zeroed; or the zero matrix."""
    ctx = field(*draw(st.sampled_from(ENTRY_FIELDS)))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "full_rank", "zero"]))
    if kind == "zero":
        return ctx, zeros(rows, cols)
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    mat = rng.integers(1, ctx.q, size=(rows, cols)).astype(DTYPE)
    mat = np.where(rng.random((rows, cols)) < density, mat, 0).astype(DTYPE)
    if kind == "full_rank":
        # a scaled permutation block on min(rows, cols) rows and columns,
        # zero elsewhere in its columns (rows <= cols) or its rows
        n = min(rows, cols)
        ri, ci = rng.permutation(rows)[:n], rng.permutation(cols)[:n]
        if rows <= cols:
            mat[:, ci] = 0
        else:
            mat[ri, :] = 0
        mat[ri, ci] = rng.integers(1, ctx.q, size=n)
    if rows:
        zeroed = rng.permutation(rows)[: draw(st.integers(0, rows))]
        if kind != "full_rank":
            mat[zeroed] = 0
    return ctx, mat


@PROPERTY
@given(sparse_matrices())
@example((field(2, 4), zeros(0, 24)))
@example((field(5, 2), zeros(12, 24)))
@example((field(3, 2), zeros(6, 0)))
@example((field(2, 2), eye(24)[:12]))
@example((field(5, 2), (eye(12) * 3)[:, ::-1].copy()))
def test_nullspace_matches_the_dense_reference(case):
    """The null space over nonzero entries is the dense one, row for row."""
    ctx, mat = case
    ncols = mat.shape[1]
    rows = as_rows(mat)
    got = linalg.nullspace(ctx, entries(rows), ncols)
    assert_rows(got, len(got), ncols)
    assert got == dense_nullspace(ctx, rows, ncols)


@PROPERTY
@given(sparse_matrices())
@example((field(2, 4), zeros(3, 5)))
@example((field(3, 2), eye(7)))
def test_rref_entries_matches_rref(case):
    """Eliminated with first-column pivots, the maps hold the rows of
    ``rref``; with last-column pivots, those of the column-reversed
    matrix, read back; and every kept entry is nonzero."""
    ctx, mat = case
    ncols = mat.shape[1]
    rows = as_rows(mat)
    last = ncols - 1
    # at(j): column j's place in the matrix whose rref the maps must give
    for lead, at in ((min, lambda j: j), (max, lambda j: last - j)):
        reduced = linalg.rref_entries(ctx, [dict(row) for row in entries(rows)], lead)
        assert all(all(tail.values()) for tail in reduced.values())
        dense = []
        for c in sorted(reduced, key=at):
            vec = [0] * ncols
            vec[at(c)] = 1
            for j, x in reduced[c].items():
                vec[at(j)] = x
            dense.append(tuple(vec))
        seen = [tuple(row[at(j)] for j in range(ncols)) for row in rows]
        want, pivots = linalg.rref(ctx, seen, ncols)
        assert tuple(dense) == want
        assert tuple(sorted(map(at, reduced))) == pivots
