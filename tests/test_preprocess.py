import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from otdistill import (EXACT_ASSIGNMENT, SUM_SORT, InvalidInput,
                       TooLargeForExact, align_and_truncate, alignment_cost,
                       match_student, sequence_rank_teacher, softmax_rows,
                       truncate_topk)
from otdistill import core, preprocess
from otdistill.core import _matrix
from otdistill.preprocess import _SIMD_SORT_MIN, _descending_stable


def random_probs(rng, rows, cols):
    return softmax_rows(rng.standard_normal((rows, cols)) * 2.0)


class TestSequenceRankTeacher:
    def test_sorts_by_column_sums(self):
        t = np.array([[0.1, 0.6, 0.3], [0.0, 0.7, 0.3]])
        perm, t_sr = sequence_rank_teacher(t)
        np.testing.assert_array_equal(perm, [1, 2, 0])
        np.testing.assert_allclose(t_sr, [[0.6, 0.3, 0.1], [0.7, 0.3, 0.0]])

    def test_stable_tie_break_is_identity(self):
        t = np.full((2, 4), 0.25)
        perm, t_sr = sequence_rank_teacher(t)
        np.testing.assert_array_equal(perm, [0, 1, 2, 3])
        np.testing.assert_allclose(t_sr, t)

    def test_single_token_equals_row_sort(self):
        t = np.array([[0.2, 0.5, 0.1, 0.2]])
        _, t_sr = sequence_rank_teacher(t)
        np.testing.assert_allclose(t_sr[0], np.sort(t[0])[::-1])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        t = random_probs(rng, 3, 7)
        _, t_sr = sequence_rank_teacher(t)
        perm2, t_sr2 = sequence_rank_teacher(t_sr)
        np.testing.assert_array_equal(perm2, np.arange(7))
        np.testing.assert_array_equal(t_sr2, t_sr)

    def test_invariant_under_input_column_permutation(self):
        rng = np.random.default_rng(2)
        t = random_probs(rng, 4, 6)
        _, t_sr = sequence_rank_teacher(t)
        for seed in range(5):
            shuffle = np.random.default_rng(seed).permutation(6)
            _, other = sequence_rank_teacher(t[:, shuffle])
            np.testing.assert_array_equal(other, t_sr)


# Row lengths on both sides of the length from which _descending_stable
# takes the SIMD sort.
RANKED_LENGTHS = (1, 2, 15, _SIMD_SORT_MIN - 1, _SIMD_SORT_MIN,
                  3 * _SIMD_SORT_MIN + 5)


@st.composite
def ranked_rows(draw):
    """A (B, n) stack, or one row, each row of one kind: distinct values;
    a few values repeated over the whole row (exact ties, 0.0 and -0.0
    among them); distinct values with 0.0 and -0.0 in place of some; or
    distinct values with the k-th and (k+1)-th largest made equal, a tie
    straddling a truncation cut at k."""
    rows, n = draw(st.integers(1, 3)), draw(st.sampled_from(RANKED_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, n))
    for row in x:
        kind = draw(st.sampled_from(["distinct", "few", "zeros", "cut"]))
        if kind == "few":
            row[:] = rng.choice([0.0, -0.0, 0.25, 1.0, -3.0], n)
        elif kind == "zeros":
            row[rng.random(n) < 0.2] = 0.0
            row[rng.random(n) < 0.2] = -0.0
        elif kind == "cut" and n > 1:
            k = draw(st.integers(1, n - 1))
            order = np.argsort(-row)
            row[order[k]] = row[order[k - 1]]
    return x if draw(st.booleans()) else x[0]


def tie_at_cut(n, k):
    # Distinct descending values, the (k+1)-th largest equal to the k-th.
    x = np.linspace(2.0, 1.0, n)
    x[k] = x[k - 1]
    return x


class TestDescendingStable:
    @given(x=ranked_rows())
    # Long rows: one of many equal values, which an unstable sort reorders,
    # and one tied at a cut, in a stack with a row of distinct values.
    @example(x=np.tile([2.0, 1.0, 0.0, -0.0], _SIMD_SORT_MIN)[None])
    @example(x=np.stack([tie_at_cut(_SIMD_SORT_MIN, 50),
                         np.linspace(0.0, 1.0, _SIMD_SORT_MIN)]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stable_descending_argsort(self, x):
        np.testing.assert_array_equal(_descending_stable(x),
                                      np.argsort(-x, axis=-1, kind="stable"))

    def test_a_long_row_holds_its_order_one_copy_and_the_tie_check(self):
        # A tie-free row the SIMD sort ranks: the permutation and the
        # negated copy (8 bytes an entry each), which the tie check sorts in
        # place and compares (a bool an entry), and sort scratch of a few
        # kB. A second sorted copy beside the first would take 25 bytes.
        n = 4 * _SIMD_SORT_MIN
        x = np.random.default_rng(6).random(n)
        tracemalloc.start()
        try:
            order = _descending_stable(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(order, np.argsort(-x, kind="stable"))
        assert peak <= 17 * n + 4096, f"peak {peak} bytes"


class TestMatchStudent:
    def test_sum_sort_permutation(self):
        s = np.array([[0.2, 0.5, 0.3]])
        t_sr = np.array([[0.5, 0.3, 0.2]])
        np.testing.assert_array_equal(match_student(t_sr, s, SUM_SORT), [1, 2, 0])

    def test_exact_beats_sum_sort_on_adversarial_pair(self):
        # teacher columns d1=(0.9, 0.1), d2=(0.1, 0.9) already ranked;
        # student column a=(0.1, 0.9) has the larger sum but matches d2.
        t_sr = np.array([[0.9, 0.1], [0.1, 0.9]])
        s = np.array([[0.1, 0.85], [0.9, 0.05]])
        perm_sum = match_student(t_sr, s, SUM_SORT)
        perm_exact = match_student(t_sr, s, EXACT_ASSIGNMENT)
        np.testing.assert_array_equal(perm_sum, [0, 1])
        np.testing.assert_array_equal(perm_exact, [1, 0])
        assert alignment_cost(t_sr, s, perm_sum) == pytest.approx(3.2)
        assert alignment_cost(t_sr, s, perm_exact) == pytest.approx(0.1)

    def test_sum_sort_tie_break_identity(self):
        s = np.full((2, 3), 1 / 3)
        t_sr = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        np.testing.assert_array_equal(match_student(t_sr, s, SUM_SORT), [0, 1, 2])

    def test_exact_never_worse_than_sum_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = random_probs(rng, 3, 5)
            s = random_probs(rng, 3, 4)
            _, t_sr = sequence_rank_teacher(t)
            c_sum = alignment_cost(t_sr, s, match_student(t_sr, s, SUM_SORT))
            c_exact = alignment_cost(t_sr, s, match_student(t_sr, s, EXACT_ASSIGNMENT))
            assert c_exact <= c_sum + 1e-12

    def test_exact_result_is_bijection(self):
        rng = np.random.default_rng(9)
        t = random_probs(rng, 2, 3)
        s = random_probs(rng, 2, 6)
        _, t_sr = sequence_rank_teacher(t)
        perm = match_student(t_sr, s, EXACT_ASSIGNMENT)
        np.testing.assert_array_equal(np.sort(perm), np.arange(6))

    # r = min(m, n) up to ASSIGNMENT_LIMIT; levels > 0 quantizes the entries
    # and copies teacher columns into the student, so columns tie exactly.
    @given(tokens=st.integers(1, 6), m=st.integers(1, 64), n=st.integers(1, 64),
           levels=st.sampled_from([0, 2, 5]), seed=st.integers(0, 2**32 - 1))
    @example(tokens=6, m=64, n=64, levels=2, seed=0)
    @example(tokens=1, m=1, n=1, levels=0, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_exact_reaches_the_dense_optimum(self, tokens, m, n, levels, seed):
        rng = np.random.default_rng(seed)
        t_sr, s = rng.random((tokens, m)), rng.random((tokens, n))
        if levels:
            t_sr, s = np.floor(t_sr * levels) / levels, np.floor(s * levels) / levels
            copies = rng.random(n) < 0.5
            s[:, copies] = t_sr[:, rng.integers(0, m, copies.sum())]
        r = min(m, n)
        dense = np.abs(t_sr[:, :r, None] - s[:, None, :]).sum(axis=0)
        optimum = dense[linear_sum_assignment(dense)].sum()
        perm = match_student(t_sr, s, EXACT_ASSIGNMENT)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        # Ties may be broken differently, so compare costs, not permutations.
        assert alignment_cost(t_sr, s, perm) == pytest.approx(optimum, rel=1e-12,
                                                              abs=1e-12)

    def test_exact_size_cap(self):
        t_sr = np.full((1, 65), 1 / 65)
        s = np.full((1, 65), 1 / 65)
        with pytest.raises(TooLargeForExact):
            match_student(t_sr, s, EXACT_ASSIGNMENT)


class TestTruncateTopk:
    def test_keeps_first_columns(self):
        t_sr = np.array([[0.6, 0.3, 0.1]])
        s_sr = np.array([[0.5, 0.4, 0.1]])
        pair = truncate_topk(t_sr, s_sr, 2)
        np.testing.assert_allclose(pair.teacher, [[0.6, 0.3]])
        np.testing.assert_allclose(pair.student, [[0.5, 0.4]])

    def test_clamps_to_smaller_vocab(self):
        rng = np.random.default_rng(3)
        t_sr = random_probs(rng, 2, 30)
        s_sr = random_probs(rng, 2, 30)
        pair = truncate_topk(t_sr, s_sr, 50)
        assert pair.teacher.shape == (2, 30)

    def test_k_one(self):
        t_sr = np.array([[0.6, 0.4], [0.7, 0.3]])
        pair = truncate_topk(t_sr, t_sr, 1)
        assert pair.teacher.shape == (2, 1)

    def test_rejects_zero_k(self):
        # k is an integer >= 1 or a float holding one, as LossWeights.k.
        for k in (0, 2.5, float("nan"), float("inf"), "2"):
            with pytest.raises(InvalidInput, match="truncation width"):
                truncate_topk(np.eye(2), np.eye(2), k)
            with pytest.raises(InvalidInput, match="truncation width"):
                align_and_truncate(np.eye(2), np.eye(2), k)
        assert truncate_topk(np.eye(3), np.eye(3), 2.0).teacher.shape == (3, 2)


class TestAlignAndTruncate:
    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    def test_validates_each_matrix_once(self, monkeypatch, mode):
        # Every array check goes through core._matrix, which preprocess
        # also calls itself: one call per input, on the input as given,
        # and one per matrix of the AlignedPair returned, as it is built.
        rng = np.random.default_rng(7)
        t, s = random_probs(rng, 3, 8), random_probs(rng, 3, 6)
        reads = []

        def counted(x, *args, **kwargs):
            reads.append(x)
            return _matrix(x, *args, **kwargs)

        monkeypatch.setattr(core, "_matrix", counted)
        monkeypatch.setattr(preprocess, "_matrix", counted)
        pair, _ = align_and_truncate(t, s, 4, mode)
        assert [id(x) for x in reads] == [id(t), id(s), id(pair.teacher),
                                          id(pair.student)]

    def test_selection_records_clamped_k(self):
        rng = np.random.default_rng(5)
        t = random_probs(rng, 2, 8)
        s = random_probs(rng, 2, 5)
        pair, sel = align_and_truncate(t, s, 50)
        assert sel.k == 5
        assert pair.teacher.shape == (2, 5)

    def test_single_token_teacher_rows_nonincreasing(self):
        rng = np.random.default_rng(6)
        t = random_probs(rng, 1, 9)
        pair, _ = align_and_truncate(t, random_probs(rng, 1, 9), 6)
        assert (np.diff(pair.teacher[0]) <= 0).all()
