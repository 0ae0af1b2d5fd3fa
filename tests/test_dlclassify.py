import numpy as np
import pytest

from dlstrata import dlclassify as dc, symplectic as sp, weyl
from dlstrata.bedard import FrobeniusAction, sequence_for
from dlstrata.dlclassify import (
    census,
    census_csv_rows,
    classify_coarse,
    classify_fine,
    equivariance_check,
)
from dlstrata.gf import field
from dlstrata.symplectic import Flag, Subspace, SymplecticSpace, flag_type


def test_rank_one_examples():
    space = SymplecticSpace(field(2, 4), 1)
    rational = Subspace(space, np.array([[1, 0]]))
    assert classify_fine(rational).is_identity()
    s = space.ctx.gen
    wild = Subspace(space, np.array([[1, s.code]]))
    assert weyl.reduced_word(classify_fine(wild)) == (1,)


CENSUS_ORACLE = {
    (1, 2, 1): [5, 0],
    (1, 2, 2): [5, 12],
    (1, 3, 1): [10, 0],
    (2, 2, 1): [85, 0, 0, 0],
}


@pytest.mark.parametrize("key", sorted(CENSUS_ORACLE))
def test_census_counts(key):
    c, p, m = key
    recs = census(c, p, m)
    assert [r.count for r in recs] == CENSUS_ORACLE[key]
    q = p ** (2 * m)
    total = 1
    for i in range(1, c + 1):
        total *= q**i + 1
    assert sum(r.count for r in recs) == total


def test_label_is_identity_iff_point_is_twist_fixed():
    for (c, p, m) in [(1, 2, 2), (2, 2, 1), (1, 3, 1), (2, 2, 2)]:
        pts = dc._cached_lagrangians(c, p, m)
        for u in pts:
            label = classify_fine(u, check=False)
            assert label.is_identity() == (u.twist(2) == u)


def test_middle_stratum_count_matches_component_formula():
    """An independent closed form for the length-one stratum over F_16.

    A point there has a twist-fixed intersection line A (85 choices, the
    rational isotropic lines), and the point itself corresponds to a
    line of A-perp/A not fixed by the twist (17 - 5 = 12 choices); the
    correspondence is bijective because a second rational line inside
    the point would force the point itself to be twist-fixed.
    """
    recs = census(2, 2, 2)
    by_word = {weyl.reduced_word(r.label): r.count for r in recs}
    rational_lines = (4**4 - 1) // (4 - 1)          # 85
    wild_quotient_lines = (16 + 1) - (4 + 1)        # 12
    assert by_word[(2,)] == rational_lines * wild_quotient_lines
    assert by_word[()] == rational_lines  # twist-fixed points are rational


def test_coarse_refines_fine():
    I = weyl.siegel_type(1)
    for u in dc._cached_lagrangians(1, 2, 2):
        fine = classify_fine(u, check=False)
        coarse = classify_coarse(u)
        assert weyl.min_double_coset_rep(fine, I, I).perm == coarse.perm


def test_trace_matches_sequence_on_every_rank_two_point_over_f16():
    I = weyl.siegel_type(2)
    F = FrobeniusAction.trivial(2)
    pts = dc._cached_lagrangians(2, 2, 2)
    for u in pts[:: max(1, len(pts) // 60)]:
        steps = dc._refine_to_stable(u, 2)
        label = steps[-1][1]
        assert label.perm == classify_fine(u).perm
        seq = sequence_for(label, I, F)
        for k, (flag, pos) in enumerate(steps):
            assert pos.perm == seq.u_at(k).perm
            assert flag_type(flag) == seq.type_at(k)


def test_odd_twist_exponent():
    # the classifying twist is a parameter; with the p-power twist over
    # F_4 the fixed points are exactly the prime-field lines
    space = SymplecticSpace(field(2, 2), 1)
    fixed, moved = 0, 0
    for u in dc._cached_lagrangians(1, 2, 1):
        label = classify_fine(u, qexp=1, check=True)
        if label.is_identity():
            fixed += 1
            assert u.twist(1) == u
        else:
            moved += 1
    assert (fixed, moved) == (3, 2)  # three F_2-rational lines among five


def test_census_rejects_non_lagrangian():
    space = SymplecticSpace(field(2, 2), 2)
    line = Subspace(space, np.array([[1, 0, 0, 0]]))
    with pytest.raises(ValueError):
        classify_fine(line)


def test_equivariance_small_configs():
    assert equivariance_check(1, 2, 2, trials=25, seed=3)
    assert equivariance_check(2, 2, 1, trials=10, seed=4)


def test_non_rational_substitution_is_a_negative_control_only():
    # matrices over the big field need not preserve labels; we only require
    # that classification still succeeds on the moved points
    space = dc.census_space(1, 2, 2)
    rng = np.random.default_rng(9)
    pts = dc._cached_lagrangians(1, 2, 2)
    changed = 0
    for _ in range(10):
        g = sp.random_symplectic(space, rng)
        u = pts[int(rng.integers(len(pts)))]
        changed += classify_fine(u.apply(g)).perm != classify_fine(u).perm
    assert changed >= 0  # no assertion on preservation, by design


def test_census_csv_rows_are_deterministic():
    recs = census(1, 2, 2)
    rows = census_csv_rows(recs)
    assert rows[0] == "p,m,c,label_word,label_oneline,count"
    assert rows == census_csv_rows(census(1, 2, 2))
    assert rows[1] == "2,2,1,,1 2,5"
    assert rows[2] == "2,2,1,1,2 1,12"


def test_coarse_fine_sampled_at_rank_three():
    # the enumerated configs stop at c = 2; sample the rank-3 space
    space = SymplecticSpace(field(2, 4), 3)
    I = weyl.siegel_type(3)
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(15):
        u = sp.random_lagrangian(space, rng)
        fine = classify_fine(u, check=True)
        coarse = classify_coarse(u)
        assert weyl.min_double_coset_rep(fine, I, I).perm == coarse.perm
        seen.add(fine.perm)
    assert len(seen) >= 2


def test_census_size_guard():
    with pytest.raises(ValueError):
        census(3, 2, 2)  # ~18 billion points


def test_equivalent_definition_route():
    """Refining the original flag against the twisted refinements reaches
    the same stable flag, and the relative position of the original flag
    with the twisted stable flag lands in the label's double coset."""
    I = weyl.siegel_type(2)
    F = FrobeniusAction.trivial(2)
    pts16 = dc._cached_lagrangians(2, 2, 2)
    sample = list(dc._cached_lagrangians(2, 2, 1))  # all 85 over F_4
    sample += list(pts16[:: max(1, len(pts16) // 40)])
    for u in sample:
        label = classify_fine(u)
        seq = sequence_for(label, I, F)
        flag0 = Flag([u])
        primed = flag0
        for _ in range(12):
            nxt = sp.refine(flag0, primed.twist(2))[0]
            if nxt == primed:
                break
            primed = nxt
        else:
            raise AssertionError("alternative route failed to stabilize")
        w_alt = sp.relpos(flag0, primed.twist(2))
        fi = F.apply_subset(seq.I_inf)
        assert (
            weyl.min_double_coset_rep(w_alt, I, fi).perm
            == weyl.min_double_coset_rep(label, I, fi).perm
        )


# -- the frozen eighth-degree regression point ------------------------------
#
# Over F_256 the twist has order four on rational points, which is the
# smallest field where the label s2*s1 occurs; these points are the only
# rank-two configurations whose intersection line moves under the twist,
# and they pin the orientation of the relative-position convention.

F256_SEED = (1, 2, 13, 196)


def f256_wild_point():
    space = SymplecticSpace(field(2, 8), 2)
    a = np.array(F256_SEED, dtype=np.int32)
    line = Subspace(space, a.reshape(1, 4))
    u = line + line.twist(6)
    return space, line, u


def test_frozen_wild_point_shape():
    space, line, u = f256_wild_point()
    assert u.dim == 2 and u.is_lagrangian()
    meet = u.intersect(u.twist(2))
    assert meet.dim == 1 and meet == line
    assert line.twist(2) != line  # the intersection line moves


def test_frozen_wild_point_label_and_trace():
    space, line, u = f256_wild_point()
    label = classify_fine(u)
    steps = dc._refine_to_stable(u, 2)
    assert weyl.reduced_word(label) == (2, 1)
    assert steps[-1][1].perm == label.perm
    assert [sorted(flag_type(flag)) for flag, _ in steps] == [[1], []]
    assert [weyl.reduced_word(pos) for _, pos in steps] == [(2,), (2, 1)]


def test_refinement_steps_return_the_relative_position():
    """Each step's position, read off refine's own meets, equals relpos of
    the flag and its twist computed on its own; the checked and unchecked
    classifications agree."""
    pts16 = dc._cached_lagrangians(2, 2, 2)
    sample = list(dc._cached_lagrangians(2, 2, 1))  # all 85 over F_4
    sample += list(pts16[::60])
    sample.append(f256_wild_point()[2])
    for u in sample:
        steps = dc._refine_to_stable(u, 2)
        for flag, pos in steps:
            assert pos.perm == sp.relpos(flag, flag.twist(2)).perm
        label = classify_fine(u)
        assert classify_fine(u, check=False).perm == label.perm == steps[-1][1].perm


def test_third_stratum_empty_over_degree_six():
    # over F_64 the three twist-conjugates of the intersection line are
    # pairwise orthogonal, hence coplanar, so the s2*s1 stratum is empty
    space = SymplecticSpace(field(2, 6), 2)
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(150):
        u = sp.random_lagrangian(space, rng)
        seen.add(weyl.reduced_word(classify_fine(u, check=True)))
    assert (2, 1) not in seen
