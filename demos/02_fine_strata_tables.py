"""Fine stratum labels: stabilizing sequences, dimensions, irreducibility.

A fine stratum of the rank-c Lagrangian space is labelled by a minimal
Siegel coset representative; the label unfolds into a stabilizing
sequence (u_k, I_k) of relative positions and shrinking types.  This
script prints the full table for small c, the same data the command
line tool emits as JSON.
"""

from dlstrata import bedard, weyl
from dlstrata.bedard import FrobeniusAction, enumerate_sequences

for c in (1, 2, 3):
    I = weyl.siegel_type(c)
    F = FrobeniusAction.trivial(c)
    print(f"rank c = {c}: {2**c} strata")
    for seq in enumerate_sequences(c, I, F):
        w = seq.u_inf
        dim = bedard.stratum_dimension(w, I, F)
        irr = bedard.is_irreducible(w, I, F)
        steps = " -> ".join(
            f"({weyl.reduced_word(u) or 'e'}, {sorted(t) or '{}'})"
            for u, t in seq.steps
        )
        print(
            f"  label {str(weyl.reduced_word(w) or 'e'):12} dim {dim}  "
            f"{'irreducible' if irr else 'reducible'}   sequence {steps}"
        )
    print()

print("restrictions of supersingular labels always have full support,")
print("which is exactly why their strata are irreducible:")
for g in (4, 6, 8):
    for w in weyl.enumerate_IW(g):
        c = weyl.class_c(w)
        if c and c == g // 2:
            rw = weyl.r_map(w, c)
            print(
                f"  g={g}: label {w.perm} restricts to rank {c} with "
                f"support {sorted(weyl.support(rw))}"
            )
            break
