"""Counting and classifying Lagrangian subspaces over small finite fields.

Lagrangians in F_q^{2n} number prod_{i<=n} (q^i + 1); each one falls in
exactly one fine stratum, read off by refining the flag {0, U, L}
against its twist by the classifying Frobenius (the p^2 power map).
The census below reproduces the partition for a few desk-scale fields
and demonstrates the symplectic equivariance of the labels.
"""

import numpy as np

from dlstrata import dlclassify as dc, symplectic as sp, weyl
from dlstrata.gf import field
from dlstrata.symplectic import SymplecticSpace

print("Lagrangian counts match the product formula:")
for n, p, k in [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 3, 1)]:
    space = SymplecticSpace(field(p, k), n)
    q = p**k
    expected = 1
    for i in range(1, n + 1):
        expected *= q**i + 1
    print(f"  n={n}, q={q:3}: {sp.count_lagrangians(space):7} (formula {expected})")

print("\ncensus of fine strata, F_{p^(2m)} points with the p^2-twist:")
for c, p, m in [(1, 2, 1), (1, 2, 2), (2, 2, 2), (2, 3, 1)]:
    records = dc.census(c, p, m)
    cells = ", ".join(
        f"{weyl.reduced_word(r.label) or 'e'}: {r.count}" for r in records
    )
    print(f"  (c={c}, p={p}, m={m}): {cells}")

print("\nnote the m=1 columns: every point is fixed by the p^2-twist, so")
print("everything lands in the trivial stratum, and over F_16 the label")
print("s2*s1 is empty because the intersection line cannot move yet.")

print("\nequivariance: rational symplectic substitutions preserve labels")
ok = dc.equivariance_check(2, 2, 2, trials=50, seed=0)
print(f"  50 random (g, U) trials over F_16: {'all labels preserved' if ok else 'FAILED'}")

rng = np.random.default_rng(123)
space = SymplecticSpace(field(2, 6), 2)
print("\nsampling random Lagrangians over F_64 (too many to enumerate):")
labels = {}
for _ in range(60):
    u = sp.random_lagrangian(space, rng)
    w = dc.classify_fine(u)
    labels[weyl.reduced_word(w) or "e"] = labels.get(weyl.reduced_word(w) or "e", 0) + 1
print(f"  observed label frequencies: {labels}")
