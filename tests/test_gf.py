import numpy as np
import pytest

from dlstrata.gf import _pmod, _pmul, embed, embed_table, field, frobenius


def test_modulus_is_lex_first_irreducible():
    assert field(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert field(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert field(5, 1).modulus == (0, 1)


def test_field_order_guard():
    with pytest.raises(ValueError):
        field(2, 21)
    with pytest.raises(ValueError):
        field(4, 2)  # not prime


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 4), (3, 2), (5, 1), (3, 4), (7, 1)])
def test_field_axioms_exhaustive(p, k):
    ctx = field(p, k)
    q = ctx.q
    add, mul = ctx.add, ctx.mul
    codes = np.arange(q)
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], codes)
    assert np.array_equal(mul[1], codes)
    # inverses
    assert np.array_equal(add[codes, ctx.neg[codes]], np.zeros(q, dtype=add.dtype))
    nz = codes[1:]
    assert np.array_equal(mul[nz, ctx.inv[nz]], np.ones(q - 1, dtype=mul.dtype))
    # associativity and distributivity, fully vectorized over all triples
    a = codes[:, None, None]
    b = codes[None, :, None]
    c = codes[None, None, :]
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


def test_generator_relation_in_f4():
    ctx = field(2, 2)
    t = ctx.gen
    assert (t * t).coeffs == (1, 1)  # t^2 = t + 1
    assert (t * t.inv()).code == 1


def test_elem_roundtrip_and_errors():
    ctx = field(2, 2)
    assert ctx.elem([1, 1]).code == 3
    assert ctx.elem(3).coeffs == (1, 1)
    with pytest.raises(ValueError):
        ctx.elem(4)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inv()
    other = field(3, 1)
    with pytest.raises(ValueError):
        ctx.one + other.one


def test_frobenius_order_and_values():
    ctx = field(2, 2)
    t = ctx.gen
    assert frobenius(t, 0).code == t.code
    assert frobenius(t, ctx.k).code == t.code
    assert frobenius(t, 1).coeffs == (1, 1)  # t^2
    assert frobenius(frobenius(t, 1), -1).code == t.code
    for a in ctx.elements():
        assert frobenius(a, 1).code == (a * a).code
    # automorphism of order k on F_81
    ctx81 = field(3, 4)
    g = ctx81.gen
    powers = {frobenius(g, r).code for r in range(ctx81.k)}
    assert len(powers) == ctx81.k


def test_embed_is_ring_homomorphism():
    f4, f16 = field(2, 2), field(2, 4)
    table = embed_table(f4, f16)
    assert table[0] == 0 and table[1] == 1
    assert len(set(int(x) for x in table)) == f4.q  # injective
    for a in f4.elements():
        for b in f4.elements():
            assert embed(a * b, f16).code == (embed(a, f16) * embed(b, f16)).code
            assert embed(a + b, f16).code == (embed(a, f16) + embed(b, f16)).code
    # Frobenius-equivariance
    for a in f4.elements():
        assert embed(frobenius(a, 1), f16).code == frobenius(embed(a, f16), 1).code


def test_embed_identity_and_errors():
    f4 = field(2, 2)
    assert np.array_equal(embed_table(f4, f4), np.arange(4))
    with pytest.raises(ValueError):
        embed_table(f4, field(2, 3))
    with pytest.raises(ValueError):
        embed_table(f4, field(3, 2))


def test_orders_above_the_table_limit_are_refused():
    # every context carries dense tables, so larger orders are refused
    with pytest.raises(ValueError, match="table limit"):
        field(2, 11)


def test_huge_orders_are_refused_before_any_unbounded_work():
    # trial division of this p, or the power 3**200000000, would each
    # run for minutes; both are refused by the order bound at once
    with pytest.raises(ValueError, match="table limit"):
        field(1000000000000000003, 1)
    with pytest.raises(ValueError, match="table limit"):
        field(3, 200000000)
    with pytest.raises(ValueError, match="not prime"):
        field(1, 200000000)


def _digits(ctx):
    """q x k array of the base-p digits of every code, from ``coeffs_of``."""
    return np.array([ctx.coeffs_of(code) for code in range(ctx.q)], dtype=np.int64)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (2, 10), (31, 2), (1021, 1)])
def test_list_tables_equal_the_arrays(p, k):
    ctx = field(p, k)
    assert ctx.add_list == ctx.add.tolist()
    assert ctx.mul_list == ctx.mul.tolist()
    assert ctx.neg_list == ctx.neg.tolist()
    assert ctx.inv_list == ctx.inv.tolist()
    assert ctx.frob_lists == [t.tolist() for t in ctx.frob_tables]
    # the add table, built one digit at a time, is digit-wise addition mod p
    assert ctx.add.dtype == np.int32
    coeffs = _digits(ctx)
    for i in range(k):
        digit = coeffs[:, i]
        assert np.array_equal(digit[ctx.add], (digit[:, None] + digit[None, :]) % p)


def _frobenius_by_polynomials(ctx):
    """Reference Frobenius tables through polynomial arithmetic.

    x -> x^p is F_p-linear; its matrix has the coefficients of
    X^(i p) mod the modulus as columns, and the code table of x^(p^r)
    composes r copies of the table of x^p.
    """
    p, k = ctx.p, ctx.k
    frob_mat = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        out, base, e = (1,), (0, 1), i * p
        while e:
            if e & 1:
                out = _pmod(_pmul(out, base, p), ctx.modulus, p)
            base = _pmod(_pmul(base, base, p), ctx.modulus, p)
            e >>= 1
        frob_mat[: len(out), i] = out
    frob1 = ((_digits(ctx) @ frob_mat.T) % p) @ (p ** np.arange(k))
    tables = [np.arange(ctx.q)]
    for _ in range(1, k):
        tables.append(frob1[tables[-1]])
    return tables


@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (2, 2), (2, 4), (2, 5), (2, 10), (3, 1), (3, 2), (3, 4), (3, 6),
     (5, 2), (7, 3), (31, 2), (1021, 1)],
)
def test_frobenius_tables_match_the_polynomial_route(p, k):
    ctx = field(p, k)
    reference = _frobenius_by_polynomials(ctx)
    assert len(ctx.frob_tables) == k
    for got, want in zip(ctx.frob_tables, reference):
        assert got.dtype == np.int32
        assert got.tolist() == want.tolist()
