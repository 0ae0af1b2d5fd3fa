"""Exact arithmetic in small finite fields F_{p^k}.

Elements are polynomials over F_p modulo a fixed irreducible modulus,
encoded as integer codes 0..p^k-1 (base-p digits = coefficients, low
degree first).  For each (p, k) the modulus is the lexicographically
first irreducible monic polynomial, so every table and every serialized
value is reproducible bit for bit.

A :class:`FieldCtx` carries one layout of lookup tables: nested tuples
of ints (``add_list``, ``mul_list``, ``neg_list``, ``inv_list`` and
``frob_lists``, one row per Frobenius power), which the row-based
linear algebra indexes one entry at a time without numpy dispatch.
The module uses the standard library only.  Adding p^t and multiplying
by a generator permute the codes, so each row of the sum and product
tables is an earlier row read through one of those permutations (an
``itemgetter`` of many items returns a tuple), and every entry is an
object of one ``tuple(range(q))``.  Tuples make the tables immutable,
so the contexts the ``field`` cache shares cannot be written into; and
CPython's cyclic collector untracks a tuple of ints the first time a
collection sees it (and a table, a tuple of such rows, at a later
collection), so it stops walking the q*q slots of F_1024's tables:
most rows drop out during set-up, the rest at the next collection.  Orders above
``TABLE_LIMIT`` are refused, before any primality test or power is
computed, so every context has its tables and no input makes
construction unbounded.  Contexts are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

TABLE_LIMIT = 2**10  # largest order: q x q add and mul tables are built for every field

_CTX_CACHE: dict[tuple[int, int], "FieldCtx"] = {}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# Polynomials over F_p are tuples of ints, low degree first, no
# trailing zeros (except the zero polynomial = ()).


def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - f * mi) % p
        a.pop()
    return _ptrim(a)


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    divisors = []
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            low = _decode_int(code, p, d)
            divisors.append(tuple(low) + (1,))
    for code in range(p**k):
        cand = tuple(_decode_int(code, p, k)) + (1,)
        if all(_pmod(cand, q, p) for q in divisors):
            return cand
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")


def _digitwise(p: int, zero, moves: Sequence[Callable]) -> list:
    """The values f(0), ..., f(p^k - 1), k = len(moves), of a map with
    f(c + p^t) = moves[t](f(c)) whenever digit t of c is below p - 1.

    Codes are taken in order, one digit at a time: each block of p^t
    values gives the next through ``moves[t]``.
    """
    values = [zero]
    for t, move in enumerate(moves):
        for _ in range(p - 1):
            values += map(move, values[-(p**t):])
    return values


def _decode_int(code: int, p: int, k: int) -> list[int]:
    digits = []
    for _ in range(k):
        digits.append(code % p)
        code //= p
    return digits


class FieldCtx:
    """The field F_{p^k} with its fixed modulus and lookup tables.

    Every table is a tuple, and every row of a table a tuple of codes:
    ``add_list[a][b]`` and ``mul_list[a][b]`` are q x q, ``neg_list`` and
    ``inv_list`` (0 at 0) length q, and ``frob_lists[r]`` the code table
    of x -> x^(p^r) for r < k.  Rows are shared where they are equal:
    ``neg_list`` is the row ``mul_list[p - 1]``, and row 1 of
    ``mul_list``, row 0 of ``add_list`` and ``frob_lists[0]`` are one
    tuple.
    """

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        # bound p and k first: trial division of a huge p and the power
        # p**k for a huge k are both unbounded work (2^k > TABLE_LIMIT
        # once k reaches its bit length)
        if p > TABLE_LIMIT or (p >= 2 and k >= TABLE_LIMIT.bit_length()):
            raise ValueError(f"field order {p}^{k} exceeds the table limit {TABLE_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p**k > TABLE_LIMIT:
            raise ValueError(f"field order {p}^{k} exceeds the table limit {TABLE_LIMIT}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus: tuple[int, ...] = _first_irreducible(p, k)
        self._embed_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._build_tables()

    # -- tables ---------------------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # Every entry is an object of ``codes``, so each q x q table costs
        # q*q pointers, not q*q separate ints.
        codes = tuple(range(q))

        # Adding p^t raises digit t by one mod p, a permutation of the
        # codes; the row of a + p^t is the row of a read through it.
        shifts = [
            itemgetter(*[c + step if c // step % p < p - 1 else c - (p - 1) * step for c in codes])
            for step in [p**t for t in range(k)]
        ]
        self.add_list = tuple(_digitwise(p, codes, shifts))

        # Multiplying by the generator g is a permutation of the codes too;
        # the row of g^(a+1) is the row of g^a read through it.
        exp, log = self._discrete_logs()
        n = q - 1
        times_g = itemgetter(0, *[exp[(i + 1) % n] for i in log[1:]])
        mul = [(0,) * q] * q  # every row but row 0 is replaced below
        mul[1] = row = codes
        for x in exp[1:]:
            mul[x] = row = times_g(row)
        self.mul_list = tuple(mul)
        self.neg_list = mul[p - 1]  # -x = (p - 1) x; the code of -1 is p - 1
        self.inv_list = (0, *[exp[-i % n] for i in log[1:]])

        # Frobenius through the logs, x^p = exp[p log x mod (q-1)]; the
        # higher powers compose its code table
        frob1 = (0, *[exp[p * i % n] for i in log[1:]]).__getitem__
        frob = [codes]
        for _ in range(1, k):
            frob.append(tuple(map(frob1, frob[-1])))
        self.frob_lists = tuple(frob)

    def _scalar_mul(self, a: int, b: int) -> int:
        pa = _ptrim(_decode_int(a, self.p, self.k))
        pb = _ptrim(_decode_int(b, self.p, self.k))
        poly = _pmod(_pmul(pa, pb, self.p), self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(poly))

    def _discrete_logs(self) -> tuple[list[int], list[int]]:
        """exp and log of the least generator g: exp[i] = g^i, log[g^i] = i.

        Needs ``add_list``; the entries of exp are objects of its rows.
        """
        p, q, add = self.p, self.q, self.add_list
        n = q - 1
        for g in range(1, q):
            # b -> g b is F_p-linear: g (c + p^t) = g c + g p^t
            gx = [self._scalar_mul(g, p**t) for t in range(self.k)]
            times = _digitwise(p, 0, [add[v].__getitem__ for v in gx])
            exp, x = [1], times[1]
            while x != 1:
                exp.append(x)
                x = times[x]
            if len(exp) == n:
                log = [0] * q
                for i, x in enumerate(exp):
                    log[x] = i
                return exp, log
        raise RuntimeError("no generator found (not a field?)")

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        return tuple(_decode_int(code, self.p, self.k))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, k={self.k})"


def field(p: int, k: int) -> FieldCtx:
    """Cached field context for F_{p^k}; one fixed modulus per (p, k)."""
    key = (p, k)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, k)
        _CTX_CACHE[key] = ctx
    return ctx


def embed_table(src: FieldCtx, dst: FieldCtx) -> tuple[int, ...]:
    """Code table of the fixed ring embedding F_{p^k} -> F_{p^(km)}.

    The generator of the source is sent to the first root (in code
    order) of the source modulus inside the destination, so the
    embedding is deterministic for each ordered pair of contexts.
    """
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError(f"no embedding F_{src.q} -> F_{dst.q}")
    key = (dst.p, dst.k)
    cached = src._embed_cache.get(key)
    if cached is not None:
        return cached
    if src is dst:
        table = tuple(range(src.q))
        src._embed_cache[key] = table
        return table
    add, mul = dst.add_list, dst.mul_list
    root = None
    for cand in range(dst.q):
        acc, powc = 0, 1
        for c in src.modulus:
            if c:
                acc = add[acc][mul[c % dst.p][powc]]
            powc = mul[powc][cand]
        if acc == 0:
            root = cand
            break
    if root is None:
        raise RuntimeError("source modulus has no root in destination field")
    # the embedding is F_p-linear and sends the code p^t to root^t
    powers = [1]
    for _ in range(1, src.k):
        powers.append(mul[powers[-1]][root])
    table = tuple(_digitwise(src.p, 0, [add[r].__getitem__ for r in powers]))
    src._embed_cache[key] = table
    return table
