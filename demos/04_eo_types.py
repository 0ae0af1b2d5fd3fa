"""From a Lagrangian point to its Ekedahl-Oort type, and the matching law.

Each Lagrangian U in F^{2c} and genus g >= 2c determine a mod-p module
with semilinear operators F, V and an alternating pairing, built here
as a sum of five graded slots.  Oort's canonical flag (close ker V
under V-preimage and pairing-complement) yields the final type psi,
and psi singles out one minimal coset representative in rank g.

The payoff identity, checked exhaustively by the test suite: that
representative is precisely the lift of the point's fine stratum label.
"""

from dlstrata import dieudonne as dd, dlclassify as dc, weyl
from dlstrata.gf import field
from dlstrata.symplectic import Subspace, SymplecticSpace

space = SymplecticSpace(field(2, 4), 1)
s = space.ctx.p  # the code of x, a root of the modulus

for name, row in [("rational", [1, 0]), ("wild", [1, s])]:
    u = Subspace(space, [row])
    print(f"{name} line {row} over F_16:")
    for g in (2, 3):
        module = dd.build_from_lagrangian(u, g)
        flag = dd.canonical_flag(module)
        eo = dd.eo_type(module)
        fine = dc.classify_fine(u)
        lifted = weyl.r_map_inv(fine, g)
        print(f"  genus {g}: canonical dims {flag.dims}, F-image dims {flag.fdims}")
        print(f"           psi = {eo.psi}")
        print(
            f"           EO label {eo.w.perm} == lifted fine label "
            f"{lifted.perm}: {eo.w.perm == lifted.perm}"
        )
    print()

print("the same law on a rank-2 point over F_16, genus 5 (all slots busy):")
pts = dc._cached_lagrangians(2, 2, 2)
u = pts[500]
module = dd.build_from_lagrangian(u, 5)
eo = dd.eo_type(module)
fine = dc.classify_fine(u)
print(f"  point basis rows {[list(r) for r in u.rows]}")
print(f"  fine label word {weyl.reduced_word(fine) or 'e'}")
print(f"  psi = {eo.psi}")
print(f"  identity holds: {eo.w.perm == weyl.r_map_inv(fine, 5).perm}")

print("\nsweep: the identity on every F_16 point of the rank-1 space")
plane = [Subspace(space, [[1, a]]) for a in range(16)]
plane.append(Subspace(space, [[0, 1]]))
assert all(dd.verify_pullback(u, 2) for u in plane)
print(f"  verified on all {len(plane)} lines")
