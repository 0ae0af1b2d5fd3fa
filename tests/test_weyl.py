import doctest
from itertools import combinations

import pytest

from dlstrata import weyl
from dlstrata.weyl import (
    WeylElement,
    canonical_word_IW,
    class_c,
    compose,
    enumerate_IW,
    enumerate_group,
    evaluate_word,
    identity,
    in_IW,
    is_min_left_rep,
    left_descents,
    length,
    longest_element,
    min_double_coset_rep,
    r_map,
    r_map_inv,
    r_w,
    reduced_word,
    right_descents,
    simple_reflection,
    support,
)
from tests.reference import (
    cayley_distances,
    group,
    min_double_reps,
    parabolic_subgroup,
    reduced_word_largest_first,
)


def s(i, n):
    return simple_reflection(i, n)


# -- generators and composition ------------------------------------------


def test_simple_reflections_match_the_stated_permutations():
    assert s(2, 2).perm == (1, 3, 2, 4)       # (c, c+1)
    assert s(1, 2).perm == (2, 1, 4, 3)       # (i, i+1)(2c-i, 2c+1-i)
    assert s(1, 1).perm == (2, 1)
    with pytest.raises(ValueError):
        s(3, 2)


def test_symmetry_invariant_holds_on_the_whole_group():
    for w in enumerate_group(3):
        n = w.n
        for i in range(1, 2 * n + 1):
            assert w(2 * n + 1 - i) == 2 * n + 1 - w(i)


def test_invalid_elements_rejected():
    with pytest.raises(ValueError):
        WeylElement(1, (1, 1))
    with pytest.raises(ValueError):
        WeylElement(2, (2, 1, 3, 4))  # breaks the symmetry


def test_compose_convention():
    e = identity(2)
    w = s(2, 2) * s(1, 2)
    assert compose(e, w).perm == w.perm
    assert compose(s(1, 1), s(1, 1)).perm == identity(1).perm
    # apply-right-first: (s2 s1)(1) = s2(s1(1)) = s2(2) = 3
    assert w.perm == (3, 1, 4, 2)
    # permutation-matrix oracle: with column convention M[v][v(i)][i] = 1,
    # matrices multiply in the same order as the group elements
    def mat(v):
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            m[v(i + 1) - 1][i] = 1
        return m

    prod = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*mat(s(1, 2)))]
        for row in mat(s(2, 2))
    ]
    assert prod == mat(w)
    with pytest.raises(ValueError):
        compose(s(1, 1), s(1, 2))


# -- length, descents, words ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_length_agrees_with_cayley_graph_distance(n):
    dist = cayley_distances(n)
    for w in enumerate_group(n):
        assert length(w) == dist[w.perm]


def test_length_changes_by_one_under_right_multiplication():
    for n in (1, 2, 3):
        for w in enumerate_group(n):
            for i in range(1, n + 1):
                assert abs(length(w * s(i, n)) - length(w)) == 1


def test_length_examples():
    assert length(identity(2)) == 0
    assert all(length(s(i, 3)) == 1 for i in (1, 2, 3))
    assert length(s(2, 2) * s(1, 2) * s(2, 2)) == 3
    assert longest_element(2).perm == (4, 3, 2, 1)
    assert length(longest_element(2)) == 4
    assert length(longest_element(4)) == 16


def test_right_descents_match_length_drops():
    for n in (1, 2, 3):
        for w in enumerate_group(n):
            drops = {i for i in range(1, n + 1) if length(w * s(i, n)) < length(w)}
            assert right_descents(w) == drops
    assert right_descents(identity(3)) == frozenset()
    assert right_descents(s(2, 3)) == frozenset({2})
    assert right_descents(longest_element(2)) == frozenset({1, 2})


def test_reduced_word_reevaluates():
    assert reduced_word(identity(3)) == ()
    assert reduced_word(s(1, 2)) == (1,)
    for n in (3, 4):
        for w in enumerate_group(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            assert evaluate_word(word, n).perm == w.perm
    w0 = longest_element(2)
    assert len(reduced_word(w0)) == 4
    assert evaluate_word(reduced_word(w0), 2).perm == w0.perm


def test_support_is_word_independent():
    for w in enumerate_group(3):
        a = frozenset(reduced_word(w))
        b = frozenset(reduced_word_largest_first(w))
        assert a == b == support(w)
    assert support(s(2, 2) * s(1, 2)) == frozenset({1, 2})


def test_support_detects_parabolic_membership():
    n = 3
    group = enumerate_group(n)
    for subset in [frozenset(), frozenset({1}), frozenset({2, 3}), frozenset({1, 3})]:
        members = {w.perm for w in parabolic_subgroup(n, subset)}
        for w in group:
            assert (support(w) <= subset) == (w.perm in members)


# -- coset representatives -------------------------------------------------


def test_min_left_rep_equals_increasing_preimage_criterion():
    for n in (1, 2, 3, 4):
        siegel = weyl.siegel_type(n)
        for w in enumerate_group(n):
            inv = w.inverse()
            increasing = all(inv(j) < inv(j + 1) for j in range(1, n))
            assert is_min_left_rep(w, siegel) == increasing == in_IW(w)


def test_min_left_rep_filter_in_rank_two():
    got = {
        w.perm
        for w in enumerate_group(2)
        if is_min_left_rep(w, {1})
    }
    e, s1, s2 = identity(2), s(1, 2), s(2, 2)
    expected = {e.perm, s2.perm, (s2 * s1).perm, (s2 * s1 * s2).perm}
    assert got == expected
    # a type index outside 1..n is refused, as a word letter is
    for bad in (0, 3):
        with pytest.raises(ValueError):
            is_min_left_rep(e, {bad})
        with pytest.raises(ValueError):
            weyl.min_left_reps(2, {bad})
        with pytest.raises(ValueError):
            evaluate_word([1, bad], 2)


def test_min_double_coset_rep_examples():
    e = identity(2)
    assert min_double_coset_rep(s(1, 2), {1}, {1}).perm == e.perm
    assert min_double_coset_rep(s(1, 2) * s(2, 2), {1}, set()).perm == s(2, 2).perm
    w = s(2, 2) * s(1, 2)
    assert min_double_coset_rep(w, set(), set()).perm == w.perm
    # an index outside 1..n is refused, not dropped from the type
    for left, right in (([0], []), ([], [3]), ([0], [3]), ([1, 3], [2])):
        with pytest.raises(ValueError, match="out of range 1..2"):
            min_double_coset_rep(s(1, 2), left, right)


def _strip_right_first(w, left, right):
    # alternative stripping order, used to check order independence
    left, right = frozenset(left), frozenset(right)
    cur = w
    while True:
        rds = right_descents(cur) & right
        if rds:
            cur = cur * s(max(rds), w.n)
            continue
        lds = left_descents(cur) & left
        if lds:
            cur = s(max(lds), w.n) * cur
            continue
        return cur


def test_min_double_coset_rep_is_constant_on_cosets():
    # every (w, left, right) at n <= 3: the table reading agrees with the
    # right-first stripping order and is one of the scanned representatives
    for n in (1, 2, 3):
        subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
        for left in subsets:
            for right in subsets:
                reps = {v.perm for v in min_double_reps(n, left, right)}
                for w in enumerate_group(n):
                    rep = min_double_coset_rep(w, left, right)
                    assert _strip_right_first(w, left, right).perm == rep.perm
                    assert rep.perm in reps
    for n, cases in [
        (2, [({1}, {1}), ({1}, {2}), ({2}, set()), ({1, 2}, {1})]),
        (3, [({1, 2}, {1, 2}), ({1}, {3}), ({2, 3}, {1, 2, 3})]),
    ]:
        for left, right in cases:
            wl = parabolic_subgroup(n, frozenset(left))
            wr = parabolic_subgroup(n, frozenset(right))
            for w in enumerate_group(n):
                rep = min_double_coset_rep(w, left, right)
                assert min_double_coset_rep(rep, left, right).perm == rep.perm
                for a in wl:
                    for b in wr:
                        assert (
                            min_double_coset_rep(a * w * b, left, right).perm
                            == rep.perm
                        )


# -- the Siegel coset representatives --------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_IW_matches_brute_force_filter(n):
    brute = sorted(
        (w.perm for w in enumerate_group(n) if in_IW(w))
    )
    direct = sorted(w.perm for w in enumerate_IW(n))
    assert brute == direct
    # every type, order included, against the Cayley-graph group filtered
    # by "no left descent in J", read off the inverse
    ref = group(n)
    assert [w.perm for w in enumerate_group(n)] == [w.perm for w in ref]
    for r in range(n + 1):
        for J in combinations(range(1, n + 1), r):
            kept = []
            for w in ref:
                inv = w.inverse()
                if all(inv(j) < inv(j + 1) for j in J):
                    kept.append(w.perm)
            assert [w.perm for w in weyl.min_left_reps(n, J)] == kept, J


def test_enumerate_IW_cardinality_and_order():
    for n in (1, 2, 3, 4, 5):
        iw = enumerate_IW(n)
        assert len(iw) == 2**n
        keys = [w.sort_key() for w in iw]
        assert keys == sorted(keys)
    assert [w.perm for w in enumerate_IW(1)] == [(1, 2), (2, 1)]
    assert [length(w) for w in enumerate_IW(2)] == [0, 1, 2, 3]


def test_group_orders():
    import math

    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_group(n)) == 2**n * math.factorial(n)


def test_canonical_words():
    assert canonical_word_IW([], 3) == ()
    assert canonical_word_IW([3], 3) == (3,)
    assert canonical_word_IW({1, 2}, 2) == (2, 1, 2)
    full = canonical_word_IW(range(1, 4), 3)
    assert len(full) == 6  # n(n+1)/2
    w = evaluate_word(full, 3)
    assert length(w) == 6
    assert w.perm == max(enumerate_IW(3), key=length).perm


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_words_biject_onto_enumerate_IW(n):
    images = set()
    for r in range(n + 1):
        for subset in combinations(range(1, n + 1), r):
            word = canonical_word_IW(subset, n)
            w = evaluate_word(word, n)
            assert length(w) == len(word)
            assert in_IW(w)
            images.add(w.perm)
    assert images == {w.perm for w in enumerate_IW(n)}


# -- the rank function and the restriction map ------------------------------


def test_r_w_basics():
    e = identity(2)
    for i in range(5):
        for j in range(5):
            assert r_w(e, i, j) == min(i, j)
    assert r_w(longest_element(2), 2, 2) == 0
    with pytest.raises(ValueError):
        r_w(e, 5, 0)


def test_r_w_shift_identity():
    # for w fixing 1..g-c: r_w(g-c+i, g-c+j) = g-c + r_{restriction}(i, j)
    for g in (2, 3, 4):
        for c in (1, 2):
            if c > g:
                continue
            for w in enumerate_group(g):
                if not weyl.in_W_fixed(w, c):
                    continue
                rw = r_map(w, c)
                for i in range(2 * c + 1):
                    for j in range(2 * c + 1):
                        assert r_w(w, g - c + i, g - c + j) == g - c + r_w(rw, i, j)


def test_r_map_examples_and_roundtrip():
    swap23 = WeylElement(2, (1, 3, 2, 4))
    assert r_map(swap23, 1).perm == (2, 1)
    assert r_map_inv(simple_reflection(1, 1), 2).perm == (1, 3, 2, 4)
    assert r_map(identity(3), 1).perm == (1, 2)
    with pytest.raises(ValueError):
        r_map(simple_reflection(1, 2), 1)  # does not fix letter 1
    for c in (1, 2, 3):
        for g in (c, c + 1, 2 * c + 1):
            for w in enumerate_IW(c):
                lifted = r_map_inv(w, g)
                assert r_map(lifted, c).perm == w.perm
                assert length(lifted) == length(w)
                assert in_IW(lifted)


def test_r_map_is_a_homomorphism_on_samples():
    g, c = 3, 1
    fixing = [w for w in enumerate_group(g) if weyl.in_W_fixed(w, c)]
    for a in fixing:
        for b in fixing:
            assert r_map(a * b, c).perm == (r_map(a, c) * r_map(b, c)).perm


def test_class_c():
    assert class_c(identity(2)) == 0
    assert class_c(WeylElement(2, (1, 3, 2, 4))) == 1
    moved = [w for w in enumerate_IW(2) if w.perm[0] != 1]
    assert moved and all(class_c(w) is None for w in moved)
    assert class_c(r_map_inv(simple_reflection(1, 1), 4)) == 1
    with pytest.raises(ValueError):
        class_c(s(1, 2))  # not a minimal representative


def test_module_doctest_runs():
    result = doctest.testmod(weyl)
    assert result.attempted >= 3
    assert result.failed == 0
