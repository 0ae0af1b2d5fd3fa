import gc
import hashlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dlstrata.gf import _pmod, _pmul, embed_table, field
from tests import ROOT, src_env, tables


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
    t = tables(ctx)
    q = ctx.q
    add, mul = t.add, t.mul
    codes = np.arange(q)
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], codes)
    assert np.array_equal(mul[1], codes)
    # inverses, with negation as an array built from the list
    assert np.array_equal(add[codes, t.neg[codes]], np.zeros(q, dtype=add.dtype))
    nz = codes[1:]
    assert np.array_equal(mul[nz, t.inv[nz]], np.ones(q - 1, dtype=mul.dtype))
    assert ctx.inv_list[0] == 0
    # associativity and distributivity, fully vectorized over all triples
    a = codes[:, None, None]
    b = codes[None, :, None]
    c = codes[None, None, :]
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


def test_generator_relation_in_f4():
    ctx = field(2, 2)
    t = ctx.p  # the code of x, a root of the modulus
    assert ctx.coeffs_of(ctx.mul_list[t][t]) == (1, 1)  # t^2 = t + 1
    assert ctx.mul_list[t][ctx.inv_list[t]] == 1


def test_frobenius_order_and_values():
    ctx = field(2, 2)
    t = ctx.p
    frob = ctx.frob_lists
    assert len(frob) == ctx.k
    assert frob[0] == tuple(range(ctx.q))
    assert ctx.coeffs_of(frob[1][t]) == (1, 1)  # t^2
    assert frob[1][frob[ctx.k - 1][t]] == t  # the power k - 1 inverts the power 1
    for a in range(ctx.q):
        assert frob[1][a] == ctx.mul_list[a][a]
    # automorphism of order k on F_81
    ctx81 = field(3, 4)
    powers = {ctx81.frob_lists[r][ctx81.p] for r in range(ctx81.k)}
    assert len(powers) == ctx81.k


def _poly_product(ctx, a, b):
    """The code of a * b, through polynomial multiplication mod the modulus."""
    prod = _pmod(_pmul(ctx.coeffs_of(a), ctx.coeffs_of(b), ctx.p), ctx.modulus, ctx.p)
    return sum(c * ctx.p**i for i, c in enumerate(prod))


@pytest.mark.parametrize(
    "p,k", [(2, 1), (2, 2), (3, 1), (2, 4), (3, 2), (5, 1), (7, 1), (5, 2), (2, 5), (7, 2),
            (2, 6), (3, 4)],
)
def test_mul_list_is_the_polynomial_product_on_every_pair(p, k):
    ctx = field(p, k)
    assert ctx.q <= 81
    for a in range(ctx.q):
        row = ctx.mul_list[a]
        assert row == tuple(_poly_product(ctx, a, b) for b in range(ctx.q)), a


@pytest.mark.parametrize("p,k", [(2, 10), (31, 2), (3, 6)])
def test_mul_list_is_the_polynomial_product_on_seeded_pairs(p, k):
    ctx = field(p, k)
    rng = np.random.default_rng(2000 + ctx.q)
    for a, b in rng.integers(0, ctx.q, size=(2000, 2)).tolist():
        assert ctx.mul_list[a][b] == _poly_product(ctx, a, b), (a, b)


def test_orders_above_the_table_limit_are_refused():
    # every context carries q x q tables, so larger orders are refused
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


def _powers_by_polynomials(ctx):
    """exp and log of the least generator, found by polynomial products."""
    n = ctx.q - 1
    for g in range(1, ctx.q):
        exp = [1]
        while len(exp) < n:
            exp.append(_poly_product(ctx, exp[-1], g))
            if exp[-1] == 1:
                break
        if len(exp) == n and _poly_product(ctx, exp[-1], g) == 1:
            log = np.zeros(ctx.q, dtype=np.int64)
            log[exp] = np.arange(n)
            return np.array(exp), log
    raise AssertionError("no generator")


@pytest.mark.parametrize(
    "p,k", [(2, 1), (2, 4), (3, 2), (2, 10), (31, 2), (1021, 1), (3, 6), (5, 4), (7, 3)]
)
def test_list_tables_equal_the_arrays(p, k):
    """The tables equal arrays built here by an independent route:
    addition and negation digit by digit, products and inverses through
    the powers of a generator found by polynomial multiplication."""
    ctx = field(p, k)
    coeffs = _digits(ctx)
    weights = p ** np.arange(k)
    add = np.zeros((ctx.q, ctx.q), dtype=np.int64)
    for i in range(k):
        add += (coeffs[:, None, i] + coeffs[None, :, i]) % p * weights[i]
    assert ctx.add_list == tuple(map(tuple, add.tolist()))
    assert ctx.neg_list == tuple(((-coeffs % p) @ weights).tolist())
    exp, log = _powers_by_polynomials(ctx)
    n = ctx.q - 1
    mul = np.zeros((ctx.q, ctx.q), dtype=np.int64)
    mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % n]
    assert ctx.mul_list == tuple(map(tuple, mul.tolist()))
    inv = np.zeros(ctx.q, dtype=np.int64)
    inv[1:] = exp[(-log[1:]) % n]
    assert ctx.inv_list == tuple(inv.tolist())


@pytest.mark.parametrize("p,k", [(2, 4), (3, 4), (2, 10)])
def test_tables_are_immutable_and_untracked_by_the_collector(p, k):
    # contexts are shared through the cache, so no caller may write into a
    # table; and tuples of ints drop out of the cyclic collector once it
    # has seen them, so it stops walking the q*q table slots.  A table
    # drops out once its rows have: a collection may visit it before them,
    # so two collections are needed, not one.
    ctx = field(p, k)
    outer = [ctx.add_list, ctx.mul_list, ctx.frob_lists]
    rows = [ctx.neg_list, ctx.inv_list, *ctx.add_list, *ctx.mul_list, *ctx.frob_lists]
    assert all(type(table) is tuple for table in outer + rows)
    assert all(len(row) == ctx.q for row in rows)
    for row in rows:
        with pytest.raises(TypeError):
            row[1] = 0
    with pytest.raises(TypeError):
        ctx.mul_list[1] = ctx.mul_list[0]
    gc.collect()
    gc.collect()
    assert not any(map(gc.is_tracked, outer + rows))


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
    assert len(ctx.frob_lists) == k
    for got, want in zip(ctx.frob_lists, reference):
        assert got == tuple(want.tolist())


# (p, k, K) -> sha256 of the little-endian int32 table of F_{p^k} -> F_{p^K}
EMBED_DIGESTS = {
    (2, 2, 2): "baed642339816affb3fe8719792d0e4ce82f12db72b7373d244eaa65445800fe",
    (2, 2, 4): "c496ed8b9201a17a5c94b18e146d84ec15c6e8d53d1c5f58950a92ca0ecc74d7",
    (3, 2, 2): "921c803abfa6ac88f44f7ab19198e5c137d1c7183e8e6912757a6263e8dee0a5",
    (3, 2, 4): "d70259d5ac22ba641474f1f69627a00ae070b3ffd6ca3df9c380d078fb9232c6",
    (2, 1, 4): "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
    (2, 2, 10): "142a72798835eb71c79f89e35e3e92bd1867014f9b13868309e6ecce7de62936",
    (2, 5, 10): "a1affe35868ecb7f385d40c7553e544da9fd9d9a3c0629e4dd367d0809345b1d",
    (3, 1, 6): "ad5dc1478de06a4c2728ea528bd9361a4b945e92a414bf4d180cedaaeaa5f4cc",
    (3, 2, 6): "25b322f2a20e20b08a276cfdb328f9b1b1827d64b8ab1cfc63a2648c4c989ed6",
    (5, 1, 4): "e528f4309e1413e6bc35aea5d8db8519384d2fcc33f9dd5d1126d73f104cf92a",
    (5, 2, 4): "534a07e505d7e5ed27afec24a78bcc795447b43d1daececce99323200fe5e723",
}


@pytest.mark.parametrize("p,k,K", sorted(EMBED_DIGESTS))
def test_embed_table_bytes_are_pinned(p, k, K):
    table = embed_table(field(p, k), field(p, K))
    digest = hashlib.sha256(np.asarray(table, dtype="<i4").tobytes()).hexdigest()
    assert digest == EMBED_DIGESTS[(p, k, K)]


def test_embed_is_ring_homomorphism():
    for p, k, K in sorted(EMBED_DIGESTS):
        src, dst = field(p, k), field(p, K)
        table = list(embed_table(src, dst))
        assert table[0] == 0 and table[1] == 1
        assert len(set(table)) == src.q  # injective
        for a in range(src.q):
            for b in range(src.q):
                assert table[src.mul_list[a][b]] == dst.mul_list[table[a]][table[b]]
                assert table[src.add_list[a][b]] == dst.add_list[table[a]][table[b]]
        # Frobenius-equivariance: x -> x^p on both sides
        for a in range(src.q):
            assert table[src.frob_lists[1 % k][a]] == dst.frob_lists[1][table[a]]


def test_embed_identity_and_errors():
    f4 = field(2, 2)
    assert embed_table(f4, f4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        embed_table(f4, field(2, 3))
    with pytest.raises(ValueError):
        embed_table(f4, field(3, 2))


def test_embed_table_is_immutable():
    # a cached table handed out writable could be corrupted by any caller
    src, dst = field(2, 2), field(2, 4)
    table = embed_table(src, dst)
    with pytest.raises(TypeError):
        table[1] = 7
    assert embed_table(src, dst) == table
    assert len(set(table)) == src.q


def test_gf_builds_without_numpy():
    # gf.py imports only the standard library; load it alone, outside the package
    code = textwrap.dedent(f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("gf", {str(ROOT / "src" / "dlstrata" / "gf.py")!r})
        gf = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gf)
        gf.FieldCtx(2, 10)
        gf.embed_table(gf.field(3, 2), gf.FieldCtx(3, 6))
        assert "numpy" not in sys.modules, "gf imported numpy"
    """)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_commands_without_a_draw_leave_numpy_unloaded():
    # numpy is imported only for the seeded draws: strata, bedard, census
    # and a full verify run without it, and a sampled verify loads it
    code = textwrap.dedent("""
        import sys
        import dlstrata
        from dlstrata import cli
        for argv in (["strata", "--c", "3"], ["bedard", "--c", "3"],
                     ["census", "--c", "2", "--p", "2", "--m", "1"],
                     ["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "2"]):
            assert cli.main(argv) == 0, argv
            assert "numpy" not in sys.modules, f"{argv[0]} imported numpy"
        assert cli.main(["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "2", "--trials", "5"]) == 0
        assert "numpy" in sys.modules, "the sampled verify drew without numpy"
    """)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_a_sampled_verify_without_numpy_exits_two():
    # with numpy blocked, a verify that samples ends with exit 2 and one
    # stderr line, not a traceback, before it enumerates a point; one
    # whose trials cover every point draws nothing and runs
    code = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        from dlstrata import cli, dlclassify
        status = cli.main(["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "2", "--trials", "5"])
        assert dlclassify._cached_lagrangians.cache_info().currsize == 0, "enumerated first"
        assert cli.main(["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "2", "--trials", "17"]) == 0
        sys.exit(status)
    """)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.count("\n") == 1 and "numpy" in result.stderr, result.stderr
