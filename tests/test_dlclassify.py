import numpy as np
import pytest

from dlstrata import dlclassify as dc, linalg, symplectic as sp, weyl
from dlstrata.bedard import FrobeniusAction, sequence_for
from dlstrata.dieudonne import verify_pullback
from dlstrata.dlclassify import (
    census,
    census_csv_rows,
    classify_coarse,
    classify_fine,
    equivariance_check,
)
from dlstrata.gf import embed_table, field
from dlstrata.symplectic import Flag, Subspace, SymplecticSpace, flag_type
from dlstrata.weyl import WeylElement
from tests.test_acceptance import CENSUS_CONFIGS


def test_rank_one_examples():
    space = SymplecticSpace(field(2, 4), 1)
    rational = Subspace(space, np.array([[1, 0]]))
    assert classify_fine(rational).is_identity()
    s = space.ctx.p  # the code of x, a root of the modulus
    wild = Subspace(space, np.array([[1, s]]))
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


def _isotropic_count(k, c, Q):
    """N(k; c, Q) = prod_{i<k} (Q^{2(c-i)} - 1)/(Q^{i+1} - 1), the number
    of k-dimensional totally isotropic subspaces of F_Q^{2c}."""
    num = den = 1
    for i in range(k):
        num *= Q ** (2 * (c - i)) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def closed_form_counts(c, p, m):
    """Stratum counts by reduced word from the rational-part recursion,
    with Q = p^2 and q = Q^m, for c = 1 and for c = 2 with m < 4.

    c = 1: e = Q + 1 (the rational lines) and s1 = q - Q.  c = 2:
    e = N(2; 2, Q) (the rational Lagrangians), s2 = N(1; 2, Q) (q - Q),
    s2*s1 = 0 below the Coxeter number 4, and the top stratum holds the
    rest of prod (q^i + 1).
    """
    Q = p * p
    q = Q**m
    total = sp.expected_total(c, q)
    if c == 1:
        counts = {(): Q + 1, (1,): q - Q}
    else:
        assert c == 2 and m < 4
        counts = {(): _isotropic_count(2, 2, Q), (2,): _isotropic_count(1, 2, Q) * (q - Q)}
        counts[(2, 1)] = 0
        counts[(2, 1, 2)] = total - sum(counts.values())
    assert sum(counts.values()) == total and min(counts.values()) >= 0
    return counts


# Full c = 2 censuses too long for Tier 1, by reduced word, as printed by
#   python -m dlstrata census --c 2 --p 2 --m 3 --format csv   (F_64, 266,305 points)
#   python -m dlstrata census --c 2 --p 3 --m 2 --format csv   (F_81, 538,084 points)
RECORDED_CENSUSES = {
    (2, 2, 3): {(): 85, (2,): 5100, (2, 1): 0, (2, 1, 2): 261120},
    (2, 3, 2): {(): 820, (2,): 59040, (2, 1): 0, (2, 1, 2): 478224},
}


def test_census_counts_match_the_closed_forms():
    """Every census configuration, and the recorded F_64 and F_81
    censuses, against the closed forms of ``closed_form_counts``."""
    for c, p, m in CENSUS_CONFIGS:
        got = {weyl.reduced_word(r.label): r.count for r in census(c, p, m)}
        assert got == closed_form_counts(c, p, m), (c, p, m)
    for (c, p, m), counts in RECORDED_CENSUSES.items():
        assert counts == closed_form_counts(c, p, m), (c, p, m)


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
        for k, (chain, pos) in enumerate(steps):
            assert pos.perm == seq.u_at(k).perm
            assert flag_type(Flag(chain)) == seq.type_at(k)


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
    # the check demo 03 runs
    assert equivariance_check(2, 2, 2, trials=50, seed=0)


def test_equivariance_check_is_bounded(monkeypatch):
    # (2, 2, 1) has 85 points: over a limit of 50 it must refuse before
    # enumerating anything
    monkeypatch.setattr(dc, "CENSUS_POINT_LIMIT", 50)
    with pytest.raises(ValueError, match="equivariance check"):
        equivariance_check(2, 2, 1, trials=1)


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
            nxt = Flag(sp.refine(flag0.members, primed.twist(2).members)[0])
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
    assert [sorted(flag_type(Flag(chain))) for chain, _ in steps] == [[1], []]
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
        for chain, pos in steps:
            flag = Flag(chain)
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


def _counting(monkeypatch, name):
    """Count calls of a ``linalg`` routine, wherever it is called from."""
    from dlstrata import linalg

    real, calls = getattr(linalg, name), [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def _fresh(u):
    """The point on a new subspace object, with nothing cached."""
    return Subspace._from_rref(u.space, u.rows, u.pivots)


def test_top_stratum_classifies_with_two_eliminations(monkeypatch):
    """A top-stratum point U over F_16 meets its twist in 0, so {0, U, L}
    is stable: its rank table is one insertion pass of the twist's rows
    into U's, and no meet or null space is taken.  An s2 point takes one
    refinement step: its meet U cap U' is the complement of U + U', one
    elimination of the stacked rows, and its join U' + U is that same
    sum, the refined chain's two containment checks are one insertion
    pass each, and the next rank table is one insertion pass per proper
    member, three in all.  No point takes a null space.  U is paired with itself once, in one
    product (U . J is a signed reversal), for its Lagrangian check and
    every self-duality check; an s2 point's second flag pairs its line
    with U + U' in one more.
    Counted with the check on; every reduction pass counts, ``rref``
    and insertion passes alike, containment included."""
    passes = [_counting(monkeypatch, "rref"), _counting(monkeypatch, "insertion_ranks")]
    null_spaces = _counting(monkeypatch, "nullspace")
    products = _counting(monkeypatch, "matmul")
    top = max(weyl.enumerate_IW(2), key=weyl.length).perm
    # most reduction passes, null spaces and products per point of a stratum
    bounds = {top: (1, 0, 1), (1, 3, 2, 4): (7, 0, 2), (1, 2, 3, 4): (1, 0, 1)}
    seen = dict.fromkeys(bounds, 0)
    all_null_spaces = 0
    for u in dc._cached_lagrangians(2, 2, 2):
        u = _fresh(u)
        for calls in passes + [null_spaces, products]:
            calls[0] = 0
        label = classify_fine(u)
        most_passes, most_null_spaces, most_products = bounds[label.perm]
        assert sum(calls[0] for calls in passes) <= most_passes, u.rows
        assert null_spaces[0] <= most_null_spaces, u.rows
        assert products[0] <= most_products, u.rows
        all_null_spaces += null_spaces[0]
        seen[label.perm] += 1
    assert seen == {top: 3264, (1, 3, 2, 4): 1020, (1, 2, 3, 4): 85}
    assert all_null_spaces == 0


def test_census_points_build_few_subspaces(monkeypatch):
    """Subspace objects built per classified F_16 census point, at most:
    on a top-stratum or rational point the twist U' of U, as its chain
    (0, U, V) holds the space's one 0 and one V; on an s2 point the
    twist U' of U, built in the first step and carried into the second,
    the sum U + U', built once for the meet and the join, the meet, and
    the twists of the meet and of the sum, five in all."""
    built = [0]
    init = Subspace._init

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    top = max(weyl.enumerate_IW(2), key=weyl.length).perm
    bounds = {top: 1, (1, 3, 2, 4): 5, (1, 2, 3, 4): 1}
    most = dict.fromkeys(bounds, 0)
    monkeypatch.setattr(Subspace, "_init", counted)
    for u in dc._cached_lagrangians(2, 2, 2):
        u = _fresh(u)
        built[0] = 0
        label = classify_fine(u)
        most[label.perm] = max(most[label.perm], built[0])
    assert all(most[label] <= bound for label, bound in bounds.items()), most


def test_twist_fixed_points_take_no_null_space(monkeypatch):
    """Over F_9 the p^2-twist fixes every point: the rank table, one
    insertion pass, shows {0, U, L} stable, so no meet, join or null
    space is built, and the self-duality of {0, U, L} reuses the pairing
    of U with itself that the Lagrangian check made."""
    null_spaces = _counting(monkeypatch, "nullspace")
    eliminations = _counting(monkeypatch, "rref")
    points = dc._cached_lagrangians(2, 3, 1)
    assert len(points) == 820
    for u in points:
        assert classify_fine(_fresh(u)).is_identity()
    assert null_spaces[0] == 0 and eliminations[0] == 0


# Seeded sweeps at odd p, at m = 3 and at c = 4 to 6: (c, p, k, points,
# seed) -> the labels, as reduced words, that the seed meets.  The c = 2
# and c = 4 sets over F_81, F_625 and F_16 were recorded before
# classification cached its integer checks, the c = 3 sets before the
# modules were written in the basis where their pairing is the standard
# form, and the F_729, c = 5 and c = 6 sets while a meet was still one
# elimination of stacked rows (Zassenhaus).
SWEEPS = {
    (2, 3, 4, 100, 3): {(), (2,), (2, 1, 2)},
    (2, 5, 4, 100, 6): {(), (2,), (2, 1, 2)},
    (2, 3, 6, 100, 0): {(2, 1, 2)},
    (3, 3, 4, 100, 2): {(3,), (3, 2, 3), (3, 2, 3, 1, 2, 3)},
    (3, 5, 4, 100, 1): {(3, 2, 3), (3, 2, 3, 1, 2, 3)},
    (4, 2, 4, 60, 0): {(4, 3, 4), (4, 3, 4, 2, 3, 4), (4, 3, 4, 2, 3, 4, 1, 2, 3, 4)},
    (5, 2, 4, 40, 1): {
        (5, 4, 5, 3, 4, 5),
        (5, 4, 5, 3, 4, 5, 2, 3, 4, 5),
        (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5),
    },
    (6, 2, 4, 10, 0): {
        (6, 5, 6, 4, 5, 6, 3, 4, 5, 6),
        (6, 5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6),
        (6, 5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6),
    },
}


@pytest.mark.parametrize("key", sorted(SWEEPS), ids=lambda k: f"c{k[0]}-p{k[1]}-k{k[2]}")
def test_seeded_sweep_classifies_checked_and_verifies(key):
    """Random points over F_81, F_625 (c = 2 and 3), F_729 (c = 2) and
    F_16 (c = 4 to 6): each is classified with every check on and passes
    the pullback identity at g = 2c and at g = 2c + 1, where the K slots
    are not empty."""
    c, p, k, points, seed = key
    space = SymplecticSpace(field(p, k), c)
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(points):
        u = sp.random_lagrangian(space, rng)
        label = classify_fine(u)
        for g in (2 * c, 2 * c + 1):
            assert verify_pullback(u, g, fine=label), (g, u.rows)
        seen.add(weyl.reduced_word(label))
    assert seen == SWEEPS[key]


S2 = (1, 3, 2, 4)  # the label s2 of rank 2


def _s2_steps():
    """The refinement trace of an s2 point over F_16, classified first so
    that the tables and the trace it meets are kept."""
    u = next(u for u in dc._cached_lagrangians(2, 2, 2) if classify_fine(u).perm == S2)
    steps = dc._refine_to_stable(u, 2)
    assert [(Flag(chain).dims, pos.perm) for chain, pos in steps] == [
        ((0, 2, 4), S2),
        ((0, 1, 2, 3, 4), S2),
    ]
    return steps


def _raises_twice(steps, message):
    """A failing trace is not kept: it fails on every call."""
    for _ in range(2):
        with pytest.raises(RuntimeError, match=message):
            dc._check_against_sequence(steps, 2)


def test_sequence_check_refuses_a_changed_position():
    (f0, _), step1 = _s2_steps()
    _raises_twice([(f0, weyl.identity(2)), step1], "differs from the sequence value")


def test_sequence_check_refuses_a_changed_flag_type():
    # the second flag swapped for the first, which is self-dual but of type {1}
    (f0, p0), (_, p1) = _s2_steps()
    _raises_twice([(f0, p0), (f0, p1)], "differs from the sequence type")


def test_sequence_check_refuses_a_label_outside_the_minimal_representatives():
    (f0, p0), (f1, p1) = _s2_steps()
    s1 = WeylElement(2, (2, 1, 4, 3))  # 1 is a left descent, 1 lies in the Siegel type
    _raises_twice([(f0, p0), (f1, s1)], "escaped the minimal coset representatives")


def test_a_wrong_twist_is_refused_as_not_self_dual_without_check(monkeypatch):
    """A patched Frobenius image of the point U = <e1, e2> that gives the
    plane <e1, e4>, which is not Lagrangian, makes refinement build the
    upper member U + <e1, e4> = <e1, e2, e4> of the right dimension over
    the lower member <e1>, whose complement is <e1, e2, e3>.  The chain
    check passes, and the self-duality check in ``refine`` must refuse
    it even with ``check=False``."""
    space = dc.census_space(2, 2, 2)
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    u, stray = Subspace(space, unit[:2]), Subspace(space, [unit[0], unit[3]])
    assert u.is_lagrangian() and not stray.is_lagrangian()
    real = Subspace.twist
    monkeypatch.setattr(Subspace, "twist", lambda sub, r: stray if sub is u else real(sub, r))
    with pytest.raises(RuntimeError, match="refined chain is not self-dual"):
        classify_fine(u, check=False)
    monkeypatch.setattr(Subspace, "twist", real)
    assert classify_fine(u).is_identity()


def test_every_refined_chain_is_checked_once_where_it_is_built(monkeypatch):
    """On every F_16 census point, classified with ``check=False``, each
    chain that ``refine`` builds goes through ``_check_chain`` on its
    lower half and through ``_is_self_dual`` once; D_0 = (0, U, V), which
    the Lagrangian check covers, and the stable chain handed back again
    go through neither."""
    real_chain, real_dual = sp._check_chain, sp._is_self_dual
    contained, dual = [], []

    def check_chain(members):
        contained.append(tuple(members))
        return real_chain(members)

    def is_self_dual(members):
        dual.append(tuple(members))
        return real_dual(members)

    monkeypatch.setattr(sp, "_check_chain", check_chain)
    monkeypatch.setattr(sp, "_is_self_dual", is_self_dual)
    built_total = 0
    for u in dc._cached_lagrangians(2, 2, 2):
        contained.clear()
        dual.clear()
        classify_fine(u, check=False)
        built = [chain for chain, _ in dc._refine_to_stable(u, 2)[1:]]
        assert dual == built * 2
        assert contained == [chain[: len(chain) // 2 + 1] for chain in built] * 2
        built_total += len(built)
    # over F_16 only the 1,020 s2 points refine, once each; (0, U, V) is
    # already stable at the e and s2.s1.s2 points
    assert built_total == 1020


def test_cold_and_warm_caches_give_the_same_labels():
    """Every point of every census configuration gets the same label with
    the kept tables and traces as with both caches emptied before it; the
    F_16 census keeps one trace per non-empty stratum."""
    caches = (weyl._position_of_table, dc._check_trace)
    for c, p, m in CENSUS_CONFIGS:
        points = dc._cached_lagrangians(c, p, m)
        warm = [classify_fine(u).perm for u in points]
        cold = []
        for u in points:
            for cache in caches:
                cache.cache_clear()
            cold.append(classify_fine(u).perm)
        assert cold == warm, (c, p, m)
    dc._check_trace.cache_clear()
    records = census(2, 2, 2)
    assert sum(r.count > 0 for r in records) == 3
    assert dc._check_trace.cache_info().currsize == 3


def test_labels_are_invariant_under_absolute_frobenius():
    """The form is F_p-rational and the p-power map commutes with the
    p^2-twist, so phi(U), the entrywise p-th power of U, has U's label,
    on every point of every census configuration."""
    for c, p, m in CENSUS_CONFIGS:
        for u in dc._cached_lagrangians(c, p, m):
            rows = linalg.frob_map(u.space.ctx, u.rows, 1)
            phi = Subspace._from_rref(u.space, rows, u.pivots)
            assert classify_fine(phi).perm == classify_fine(u).perm, (c, p, m, u.rows)


# (c, p, m, step, k) -> the labels met when every step-th point of the
# census over F_{p^{2m}} is read in F_{p^k} through the fixed embedding
TOWERS = {
    (2, 2, 2, 8, 8): {(), (2,), (2, 1, 2)},
    (2, 3, 1, 1, 4): {()},
}


@pytest.mark.parametrize("key", sorted(TOWERS), ids=lambda k: f"c{k[0]}-p{k[1]}-m{k[2]}-in-k{k[4]}")
def test_labels_and_pullback_survive_a_subfield_embedding(key):
    """A point over a subfield, read in the larger field, keeps its label
    (the embedding commutes with the p^2-twist) and passes the pullback
    identity at g = 2c there."""
    c, p, m, step, k = key
    points = dc._cached_lagrangians(c, p, m)[::step]
    small, big = dc.census_space(c, p, m), SymplecticSpace(field(p, k), c)
    table = list(embed_table(small.ctx, big.ctx))
    seen = set()
    for u in points:
        rows = tuple([tuple([table[x] for x in row]) for row in u.rows])
        v = Subspace._from_rref(big, rows, u.pivots)
        label = classify_fine(u)
        assert classify_fine(v).perm == label.perm, u.rows
        assert verify_pullback(v, 2 * c, fine=label), u.rows
        seen.add(weyl.reduced_word(label))
    assert seen == TOWERS[key]
