from itertools import combinations
from math import factorial

import pytest

from dlstrata import bedard, weyl
from dlstrata.bedard import (
    FrobeniusAction,
    conjugate_type,
    enumerate_sequences,
    flag_variety_dim,
    is_irreducible,
    sequence_for,
    stratum_dimension,
)
from dlstrata.weyl import identity, length, simple_reflection
from tests import reference
from tests.reference import is_min_double_rep, min_double_reps, parabolic_subgroup


def all_subsets(n):
    for r in range(n + 1):
        for sub in combinations(range(1, n + 1), r):
            yield frozenset(sub)


def _sequences_by_search(n, I, F):
    """Every stabilizing sequence for (I, F) by forward depth-first search.

    Each step scans the minimal double-coset representatives of the next
    type and keeps those in W_{I_{k+1}} u_k W_{F(I_k)}; the reference that
    ``enumerate_sequences``, which builds each sequence from its label,
    must reproduce.
    """
    sequences = []

    def coset_members(left, u, right):
        return {
            weyl.compose(weyl.compose(a, u), b).perm
            for a in parabolic_subgroup(n, left)
            for b in parabolic_subgroup(n, right)
        }

    def extend(steps, u, cur_type):
        next_type = cur_type & conjugate_type(u, F.apply_subset(cur_type))
        if next_type == cur_type:
            sequences.append(bedard.BedardSequence(I, tuple(steps) + ((u, next_type),)))
            return
        members = coset_members(next_type, u, F.apply_subset(cur_type))
        for cand in min_double_reps(n, next_type, F.apply_subset(next_type)):
            if cand.perm in members:
                extend(steps + [(cand, next_type)], cand, next_type)

    for u0 in min_double_reps(n, I, F.apply_subset(I)):
        extend([(u0, I)], u0, I)
    return tuple(sorted(sequences, key=lambda s: s.u_inf.sort_key()))


def test_frobenius_action_validation():
    FrobeniusAction.trivial(3)
    # the rank-2 diagram flip is a genuine Coxeter-matrix automorphism
    FrobeniusAction(2, (2, 1))
    with pytest.raises(ValueError):
        FrobeniusAction(3, (3, 2, 1))  # would swap edge orders 3 and 4
    with pytest.raises(ValueError):
        FrobeniusAction(2, (1, 1))


def test_conjugate_type_examples():
    e, s1, s2 = identity(2), simple_reflection(1, 2), simple_reflection(2, 2)
    assert conjugate_type(e, frozenset({1})) == frozenset({1})
    assert conjugate_type(s1, frozenset({1})) == frozenset({1})
    # s2 s1 s2 is not a simple reflection, so nothing simple survives
    assert conjugate_type(s2, frozenset({1})) == frozenset()
    assert conjugate_type(s1, frozenset({2})) == frozenset()
    # conjugation by the longest element permutes the generators
    w0 = weyl.longest_element(2)
    assert conjugate_type(w0, frozenset({1, 2})) == frozenset({1, 2})
    # an index outside 1..n is refused, not read off the wrong position
    for bad in ({0}, {5}, {1, 3}):
        with pytest.raises(ValueError, match="out of range 1..2"):
            conjugate_type(s1, frozenset(bad))
    # the two-entry rule against w s_j w^{-1} by products, exhaustively
    for n in (1, 2, 3, 4):
        types = list(all_subsets(n))
        for w in reference.group(n):
            for J in types:
                assert conjugate_type(w, J) == reference.conjugate_type(w, J), (w.perm, J)


def test_cold_stratum_table_builds_few_elements(monkeypatch):
    # steps through the group are swaps on one-line tuples, so a Weyl
    # element is built (and validated) only for a value handed back
    for cached in (
        weyl._position_of_table,
        weyl.enumerate_IW,
        bedard.sequence_for,
        bedard.enumerate_sequences,
        bedard.flag_variety_dim,
        bedard.siegel_frobenius,
    ):
        cached.cache_clear()
    built = 0
    validate = weyl.WeylElement.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        validate(self)

    monkeypatch.setattr(weyl.WeylElement, "__post_init__", counting)
    rows = bedard.stratum_table(6)
    assert len(rows) == 64
    assert built <= 500


def test_sequence_counts_examples():
    assert len(enumerate_sequences(1, frozenset(), FrobeniusAction.trivial(1))) == 2
    assert len(enumerate_sequences(2, frozenset({1}), FrobeniusAction.trivial(2))) == 4
    assert len(enumerate_sequences(3, frozenset({1, 2}), FrobeniusAction.trivial(3))) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coset_representatives_match_the_group_scan(n):
    """The upward search lists exactly the group elements that the scan
    ``min_double_reps`` keeps, in the same order, for every type."""
    for I in all_subsets(n):
        reps = weyl.min_left_reps(n, I)
        assert reps == min_double_reps(n, I, frozenset()), sorted(I)
        assert len(reps) * len(parabolic_subgroup(n, I)) == 2**n * factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_and_step_conditions_all_types(n):
    F = FrobeniusAction.trivial(n)
    for I in all_subsets(n):
        seqs = enumerate_sequences(n, I, F)
        reps = {w.perm for w in weyl.min_left_reps(n, I)}
        # bijection onto the minimal left coset representatives
        assert sorted(s.u_inf.perm for s in seqs) == sorted(reps)
        for seq in seqs:
            us = [u for u, _ in seq.steps]
            types = [t for _, t in seq.steps]
            assert types[0] == I
            assert seq.steps[-1] == seq.steps[-2]
            drops = 0
            for k, (u, t) in enumerate(seq.steps):
                assert is_min_double_rep(u, t, F.apply_subset(t))
                if k + 1 < len(seq.steps):
                    t_next = t & conjugate_type(u, F.apply_subset(t))
                    assert types[k + 1] == t_next
                    assert t_next <= t
                    drops += t_next != t
                    members = {
                        (a * us[k] * b).perm
                        for a in parabolic_subgroup(n, t_next)
                        for b in parabolic_subgroup(n, F.apply_subset(t))
                    }
                    assert us[k + 1].perm in members
            assert drops <= len(I) + 1
            # the fine label refines the coarse double coset
            coarse_last = weyl.min_double_coset_rep(seq.u_inf, I, F.apply_subset(I))
            coarse_first = weyl.min_double_coset_rep(us[0], I, F.apply_subset(I))
            assert coarse_last.perm == coarse_first.perm


def test_sequence_for_lookup_and_uniqueness():
    n = 2
    I = frozenset({1})
    F = FrobeniusAction.trivial(n)
    seq = sequence_for(identity(n), I, F)
    assert all(u.is_identity() and t == I for u, t in seq.steps)
    s2 = simple_reflection(2, 2)
    assert sequence_for(s2, I, F).u_inf.perm == s2.perm
    infs = [s.u_inf.perm for s in enumerate_sequences(n, I, F)]
    assert len(infs) == len(set(infs))
    with pytest.raises(ValueError):
        sequence_for(simple_reflection(1, 2), I, F)  # has a left descent in I


@pytest.mark.parametrize(
    "n, F, types",
    [
        (n, FrobeniusAction.trivial(n), list(all_subsets(n)))
        for n in (1, 2, 3, 4)
    ]
    + [
        (2, FrobeniusAction(2, (2, 1)), list(all_subsets(2))),
        (5, FrobeniusAction.trivial(5), [weyl.siegel_type(5)]),
    ],
    ids=["n1", "n2", "n3", "n4", "n2-flip", "n5-siegel"],
)
def test_sequences_from_labels_match_the_search(n, F, types):
    for I in types:
        assert enumerate_sequences(n, I, F) == _sequences_by_search(n, I, F)


def test_sequence_stabilizing_off_its_label_raises(monkeypatch):
    # with types that never shrink the first step already repeats, and
    # its u is the minimal double-coset representative, not w itself
    monkeypatch.setattr(
        bedard, "conjugate_type", lambda u, subset: frozenset(range(1, u.n + 1))
    )
    w = weyl.WeylElement(2, (3, 1, 4, 2))
    I, F = weyl.siegel_type(2), FrobeniusAction.trivial(2)
    assert weyl.is_min_left_rep(w, I)
    with pytest.raises(RuntimeError, match=r"\(1, 3, 2, 4\)"):
        sequence_for.__wrapped__(w, I, F)


def test_flag_variety_dimensions():
    assert flag_variety_dim(2, frozenset({1, 2})) == 0
    assert flag_variety_dim(1, frozenset()) == 1
    assert flag_variety_dim(2, frozenset({1})) == 3
    assert flag_variety_dim(3, frozenset()) == 9  # full flag variety of Sp_6
    for bad in ({9}, {0}, {1, 3}):
        with pytest.raises(ValueError, match="out of range 1..2"):
            flag_variety_dim(2, frozenset(bad))
    for n in (1, 2, 3, 4):
        full = length(weyl.longest_element(n))
        for J in all_subsets(n):
            longest = max(length(w) for w in parabolic_subgroup(n, J))
            assert flag_variety_dim(n, J) == full - longest, (n, sorted(J))


@pytest.mark.parametrize("c", [1, 2, 3])
def test_stratum_dimension_equals_length_for_trivial_frobenius(c):
    I = weyl.siegel_type(c)
    F = FrobeniusAction.trivial(c)
    for w in weyl.enumerate_IW(c):
        assert stratum_dimension(w, I, F) == length(w)


def test_irreducibility_examples():
    I = weyl.siegel_type(2)
    F = FrobeniusAction.trivial(2)
    s1, s2 = simple_reflection(1, 2), simple_reflection(2, 2)
    assert is_irreducible(s2 * s1 * s2, I, F)       # support is everything
    assert is_irreducible(s2 * s1, I, F)
    assert not is_irreducible(s2, I, F)             # trapped in W_{{2}}
    assert not is_irreducible(identity(2), I, F)    # trapped in W_I
    # with the full type there is a single stratum and it is the whole space
    assert is_irreducible(identity(2), frozenset({1, 2}), F)


def test_twisted_frobenius_still_bijects():
    # the rank-2 diagram flip exercises the general closure machinery
    flip = FrobeniusAction(2, (2, 1))
    for I in all_subsets(2):
        seqs = enumerate_sequences(2, I, flip)
        reps = sorted(w.perm for w in weyl.min_left_reps(2, I))
        assert sorted(s.u_inf.perm for s in seqs) == reps
    s2 = simple_reflection(2, 2)
    # under the flip no proper subset is stable, so the closure saturates
    assert is_irreducible(s2, frozenset({1}), flip)
    assert not is_irreducible(s2, frozenset({1}), FrobeniusAction.trivial(2))


def test_stratum_table_shape():
    rows = bedard.stratum_table(2, g=4)
    assert len(rows) == 4
    for row in rows:
        for key in (
            "word",
            "one_line",
            "length",
            "I_inf",
            "u_sequence",
            "dimension",
            "irreducible",
            "coarse_class",
            "lifted_one_line",
            "lifted_class",
            "lifted_class_is_exact",
        ):
            assert key in row
        assert row["dimension"] == row["length"] == len(row["word"])
    by_len = {row["length"]: row for row in rows}
    assert by_len[0]["lifted_class_is_exact"] is False
    assert by_len[0]["lifted_class"] == 0
    assert by_len[3]["lifted_class_is_exact"] is True
    assert by_len[3]["lifted_class"] == 2
