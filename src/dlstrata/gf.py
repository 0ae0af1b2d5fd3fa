"""Exact arithmetic in small finite fields F_{p^k}.

Elements are polynomials over F_p modulo a fixed irreducible modulus,
encoded as integer codes 0..p^k-1 (base-p digits = coefficients, low
degree first).  For each (p, k) the modulus is the lexicographically
first irreducible monic polynomial, so every table and every serialized
value is reproducible bit for bit.

A :class:`FieldCtx` carries one layout of lookup tables: nested Python
lists (``add_list``, ``mul_list``, ``neg_list``, ``inv_list`` and
``frob_lists``, one list per Frobenius power), which the row-based
linear algebra indexes one entry at a time without numpy dispatch.
The tables are built with numpy a block of rows at a time, and only
the lists are kept.  Orders above ``TABLE_LIMIT`` are refused, before
any primality test or power is computed, so every context has its
tables and no input makes construction unbounded.  Contexts are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TABLE_LIMIT = 2**10  # largest order: q x q add and mul tables are built for every field

_CTX_CACHE: dict[tuple[int, int], "FieldCtx"] = {}

_ROW_BLOCK = 64  # rows of a q x q table built per numpy step


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


def _decode_int(code: int, p: int, k: int) -> list[int]:
    digits = []
    for _ in range(k):
        digits.append(code % p)
        code //= p
    return digits


class FieldCtx:
    """The field F_{p^k} with its fixed modulus and lookup tables."""

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
        self._embed_cache: dict[tuple[int, int], np.ndarray] = {}
        self._build_tables()

    # -- tables ---------------------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # digit matrix: coeffs[code] = coefficient vector of that code
        codes = np.arange(q)
        coeffs = np.empty((q, k), dtype=np.int32)
        rest = codes.copy()
        for i in range(k):
            coeffs[:, i] = rest % p
            rest //= p
        weights = p ** np.arange(k, dtype=np.int32)
        neg = (-coeffs % p) @ weights

        # The tables are nested lists whose entries are shared int
        # objects (indexing an object array copies references), so each
        # q x q table costs q*q pointers, not q*q separate ints.  They are
        # built a block of rows at a time, so no q x q array is ever held.
        shared = np.empty(q, dtype=object)
        shared[:] = range(q)
        blocks = [codes[i : i + _ROW_BLOCK] for i in range(0, q, _ROW_BLOCK)]
        self.add_list = []
        for rows in blocks:
            add = np.zeros((len(rows), q), dtype=np.int32)
            for i in range(k):  # addition is digit-wise mod p
                add += (coeffs[rows, i, None] + coeffs[None, :, i]) % p * weights[i]
            self.add_list += shared[add].tolist()

        # multiplicative structure through a generator; the log of 0 is
        # a placeholder, so row and column 0 are set to 0 afterwards
        exp, log = self._discrete_logs()
        n = q - 1
        lo = log[1:]
        self.mul_list = []
        for rows in blocks:
            mul = exp[(log[rows, None] + log[None, :]) % n]
            mul[:, 0] = 0
            mul[rows == 0] = 0
            self.mul_list += shared[mul].tolist()
        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = exp[(-lo) % n]
        self.neg_list = shared[neg].tolist()
        self.inv_list = shared[inv].tolist()

        # Frobenius through the logs, x^p = exp[p log x mod (q-1)]; the
        # higher powers compose its code table
        frob1 = np.zeros(q, dtype=np.int32)
        frob1[1:] = exp[(p * lo) % n]
        table = codes
        self.frob_lists = [shared[table].tolist()]
        for _ in range(1, k):
            table = frob1[table]
            self.frob_lists.append(shared[table].tolist())

    def _scalar_mul(self, a: int, b: int) -> int:
        pa = _ptrim(_decode_int(a, self.p, self.k))
        pb = _ptrim(_decode_int(b, self.p, self.k))
        poly = _pmod(_pmul(pa, pb, self.p), self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(poly))

    def _discrete_logs(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        n = q - 1
        if n == 1:
            return np.array([1], dtype=np.int32), np.zeros(2, dtype=np.int32)
        for g in range(2, q):
            exp = np.empty(n, dtype=np.int32)
            x = 1
            ok = True
            for i in range(n):
                exp[i] = x
                x = self._scalar_mul(x, g)
                if x == 1 and i != n - 1:
                    ok = False
                    break
            if ok and x == 1:
                log = np.zeros(q, dtype=np.int32)
                log[exp] = np.arange(n, dtype=np.int32)
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


def embed_table(src: FieldCtx, dst: FieldCtx) -> np.ndarray:
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
        table = np.arange(src.q, dtype=np.int32)
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
    table = np.zeros(src.q, dtype=np.int32)
    for code in range(src.q):
        acc, powr = 0, 1
        for c in src.coeffs_of(code):
            if c:
                acc = add[acc][mul[c][powr]]
            powr = mul[powr][root]
        table[code] = acc
    src._embed_cache[key] = table
    return table
