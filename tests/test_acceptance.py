"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check here is exact (integer equalities); run with `pytest -s`
to see the per-criterion report.
"""

import math
from itertools import combinations

import numpy as np

from dlstrata import bedard, dlclassify as dc, dieudonne as dd, linalg, symplectic as sp, weyl
from dlstrata.bedard import FrobeniusAction
from dlstrata.gf import field
from dlstrata.symplectic import Flag, SymplecticSpace


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


CENSUS_CONFIGS = [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1)]


def test_c01_index_set_cardinalities():
    ok = True
    for c in range(1, 6):
        ok &= len(weyl.enumerate_group(c)) == 2**c * math.factorial(c)
        iw = weyl.enumerate_IW(c)
        ok &= len(iw) == 2**c
        images = set()
        for r in range(c + 1):
            for subset in combinations(range(1, c + 1), r):
                word = weyl.canonical_word_IW(subset, c)
                w = weyl.evaluate_word(word, c)
                ok &= weyl.length(w) == len(word)
                images.add(w.perm)
        ok &= images == {w.perm for w in iw}
    report(1, ok, "group and coset-representative cardinalities, canonical words")


def test_c02_sequence_bijection():
    ok = True
    for n in range(1, 5):
        F = FrobeniusAction.trivial(n)
        for r in range(n + 1):
            for sub in combinations(range(1, n + 1), r):
                I = frozenset(sub)
                seqs = bedard.enumerate_sequences(n, I, F)  # raises if broken
                reps = bedard._IW_for(n, I)
                ok &= sorted(s.u_inf.perm for s in seqs) == sorted(w.perm for w in reps)
    report(2, ok, "stabilizing sequences biject onto coset representatives (n <= 4)")


def _random_pairs(space, rng, count):
    for _ in range(count):
        yield (
            sp.random_self_dual_flag(space, rng),
            sp.random_self_dual_flag(space, rng),
        )


def test_c03_relative_position_law():
    ok = True
    for p, k in [(2, 2), (3, 2)]:
        space = SymplecticSpace(field(p, k), 2)
        rng = np.random.default_rng(1000 + p)
        pairs = list(_random_pairs(space, rng, 500))
        for c_flag, d_flag in pairs:
            sp.relpos(c_flag, d_flag)  # raises unless exactly one match
        for i in range(100):
            g = sp.random_symplectic(space, rng)
            c_flag, d_flag = pairs[i % len(pairs)]
            ok &= (
                sp.relpos(c_flag.apply(g), d_flag.apply(g)).perm
                == sp.relpos(c_flag, d_flag).perm
            )
    report(3, ok, "rank table matches exactly one representative; invariant under Sp")


def test_c04_refinement_lemmas():
    ok = True
    for p, k in [(2, 2), (3, 2)]:
        space = SymplecticSpace(field(p, k), 2)
        rng = np.random.default_rng(2000 + p)
        for c_flag, d_fine in _random_pairs(space, rng, 500):
            # d_coarse is a subchain of d_fine, i.e. its stabilizer contains
            # the finer one; drop a symmetric pair of proper members
            proper = [m for m in d_fine.members if 0 < m.dim < space.dim]
            keep = [m for m in proper if 2 * m.dim == space.dim]
            if not keep and proper:
                keep = [proper[0], proper[-1]]
            d_coarse = Flag(keep) if keep else Flag([d_fine.members[0]])
            r1, w1 = sp.refine(c_flag, d_coarse)
            ok &= sp.refine(r1, d_fine)[0] == sp.refine(c_flag, d_fine)[0]
            ok &= sp.refine(r1, d_coarse)[0] == r1
            ok &= sp.relpos(r1, d_coarse).perm == sp.relpos(c_flag, d_coarse).perm
            ok &= w1.perm == sp.relpos(c_flag, d_coarse).perm
    report(4, ok, "refinement tower collapse and relative-position preservation")


def test_c05_census_partition():
    ok = True
    for c, p, m in CENSUS_CONFIGS:
        records = dc.census(c, p, m)  # raises on partition failure
        q = p ** (2 * m)
        expected = 1
        for i in range(1, c + 1):
            expected *= q**i + 1
        ok &= sum(r.count for r in records) == expected
        ok &= len(records) == 2**c
        ok &= all(r.count >= 0 for r in records)
    report(5, ok, "every point gets one fine label; totals match prod(q^i + 1)")


def test_c06_coarse_fine_compatibility():
    ok = True
    for c, p, m in CENSUS_CONFIGS:
        I = weyl.siegel_type(c)
        for u in dc._cached_lagrangians(c, p, m):
            fine = dc.classify_fine(u, check=False)
            coarse = dc.classify_coarse(u)
            ok &= weyl.min_double_coset_rep(fine, I, I).perm == coarse.perm
        if not ok:
            break
    report(6, ok, "the double coset of the fine label is the coarse label")


def test_c07_equivariance():
    ok = True
    for i, (c, p, m) in enumerate(CENSUS_CONFIGS):
        ok &= dc.equivariance_check(c, p, m, trials=200, seed=3000 + i)
    report(7, ok, "rational symplectic substitutions preserve fine labels (200 trials each)")


def _module_sweep():
    sweep = []
    for u in dc._cached_lagrangians(1, 2, 1):
        sweep.append((u, 2))
    for u in dc._cached_lagrangians(1, 2, 2):
        sweep.append((u, 2))
        sweep.append((u, 3))
    pts = dc._cached_lagrangians(2, 2, 2)
    for u in pts[:: len(pts) // 20]:
        sweep.append((u, 4))
        sweep.append((u, 5))
    return sweep


def test_c08_module_invariants():
    ok = True
    for u, g in _module_sweep():
        mod = dd.build_from_lagrangian(u, g)  # constructor re-checks everything
        ok &= mod.kernel_of_F().dim == g
        ok &= np.array_equal(mod.kernel_of_F().basis, mod.image_of_V().basis)
        ok &= np.array_equal(mod.kernel_of_V().basis, mod.image_of_F().basis)
        lhs = linalg.matmul(mod.ctx, mod.fmat.T, mod.pairing)
        rhs = linalg.matmul(
            mod.ctx,
            linalg.frob_map(mod.ctx, mod.pairing, 1),
            linalg.frob_map(mod.ctx, mod.vmat, 1),
        )
        ok &= np.array_equal(lhs, rhs)
    report(8, ok, "kernel/image coincidences, dimension g, pairing adjunction")


def test_c09_canonical_flag_behavior():
    ok = True
    for u, g in _module_sweep():
        mod = dd.build_from_lagrangian(u, g)
        flag = dd.canonical_flag(mod)  # enforces the 2g+1 member bound and the dichotomy
        keys = {m.basis.tobytes() for m in flag.members}
        # each complement by one null space, not the cached one
        perps = [
            linalg.nullspace(mod.ctx, linalg.matmul(mod.ctx, m.basis, mod.pairing))
            for m in flag.members
        ]
        ok &= all(perp.tobytes() in keys for perp in perps)
        psi = dd.eo_type(mod).psi
        ok &= all(psi[2 * g - i] == psi[i] + g - i for i in range(2 * g + 1))
    report(9, ok, "flag stabilizes, is self-dual, dichotomy holds, psi duality")


def test_c10_flagship_pullback_identity():
    configs = [
        (1, 2, 2, 1),   # c, g, p, m: 5 points over F_4
        (1, 2, 2, 2),   # 17 points over F_16
        (2, 4, 2, 1),   # 85 points over F_4
        (2, 4, 2, 2),   # 4369 points over F_16
        (2, 5, 2, 2),   # 4369 points over F_16, with nontrivial middle slots
    ]
    ok = True
    for c, g, p, m in configs:
        points = dc._cached_lagrangians(c, p, m)
        passed = sum(dd.verify_pullback(u, g) for u in points)
        print(f"  flagship (c={c}, g={g}, q={p**(2*m)}): {passed}/{len(points)}")
        ok &= passed == len(points)
    report(10, ok, "module EO label equals the lifted fine label on every point")


def test_c11_irreducibility():
    ok = True
    for g in range(2, 9):
        for w in weyl.enumerate_IW(g):
            c = weyl.class_c(w)
            if c is None or c == 0:
                continue
            rw = weyl.r_map(w, c)
            ok &= bedard.is_irreducible(
                rw, weyl.siegel_type(c), FrobeniusAction.trivial(c)
            )
            ok &= weyl.support(rw) == frozenset(range(1, c + 1))
    # boundary: restricting an element fixing one more letter misses s_1
    for c in (2, 3, 4):
        g = 2 * c
        v = weyl.enumerate_IW(c - 1)[-1]  # longest rank-(c-1) representative
        w = weyl.r_map_inv(v, g)
        restricted = weyl.r_map(w, c)
        ok &= not restricted.is_identity()
        ok &= 1 not in weyl.support(restricted)
    report(11, ok, "restricted labels have full support and are irreducible (g <= 8)")


def test_c12_dimension_law():
    ok = True
    for c in range(1, 5):
        I = weyl.siegel_type(c)
        F = FrobeniusAction.trivial(c)
        for w in weyl.enumerate_IW(c):
            ok &= bedard.stratum_dimension(w, I, F) == weyl.length(w)
    for g in range(2, 7):
        for c in range(1, g // 2 + 1):
            for w in weyl.enumerate_IW(c):
                ok &= weyl.length(weyl.r_map_inv(w, g)) == weyl.length(w)
    report(12, ok, "stratum dimension equals length; lifting preserves length")
