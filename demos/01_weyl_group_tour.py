"""A tour of the rank-n symplectic Weyl group in its permutation model.

Elements are permutations w of {1, ..., 2n} with w(2n+1-i) = 2n+1-w(i);
products apply the right factor first.  Run this script to see the
basic vocabulary: generators, lengths, reduced words, minimal coset
representatives, and the restriction map that drops fixed letters.
"""

from dlstrata import weyl
from dlstrata.weyl import (
    canonical_word_IW,
    class_c,
    enumerate_IW,
    evaluate_word,
    length,
    r_map,
    r_map_inv,
    reduced_word,
    simple_reflection,
)

n = 3
print(f"generators of the rank-{n} group:")
for i in range(1, n + 1):
    print(f"  s{i} = {simple_reflection(i, n).perm}")

w = simple_reflection(3, n) * simple_reflection(2, n) * simple_reflection(3, n)
print(f"\ns3 s2 s3 = {w.perm}, length {length(w)}, word {reduced_word(w)}")

print(f"\nthe group has {len(weyl.enumerate_group(n))} elements (2^n n!)")

print("\nminimal Siegel coset representatives (one per stratum label):")
for v in enumerate_IW(n):
    print(f"  {v.perm}  length {length(v)}  word {reduced_word(v) or '()'}")

print("\neach representative is the value of a canonical word, one per subset:")
for subset in ([], [2], [1, 3], [1, 2, 3]):
    word = canonical_word_IW(subset, n)
    print(f"  subset {subset!r:12} -> word {word} -> {evaluate_word(word, n).perm}")

print("\nthe restriction map drops fixed leading letters:")
lifted = r_map_inv(simple_reflection(1, 1), 3)
print(f"  lifting the rank-1 reflection to rank 3 gives {lifted.perm}")
print(f"  its class (smallest c with all earlier letters fixed) is {class_c(lifted)}")
print(f"  restricting back: {r_map(lifted, 1).perm}")
