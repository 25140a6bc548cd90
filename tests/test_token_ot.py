import tracemalloc

import numpy as np
import pytest

from otdistill import (BRUTE_FORCE, AlignedPair, InvalidInput, check_gradient,
                       exact_ot, finite_diff_grad, had_loss, sl_loss,
                       softmax_rows, uld_grad, uld_loss)
from otdistill.token_ot import _uld_grad, _uld_sorted


def pair_of(teacher, student):
    return AlignedPair(teacher=np.asarray(teacher, float),
                       student=np.asarray(student, float))


class TestHadLoss:
    def test_zero_at_equality(self):
        t = np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]])
        out = had_loss(pair_of(t, t))
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, np.zeros_like(t))

    def test_small_example(self):
        out = had_loss(pair_of([[0.5, 0.3]], [[0.4, 0.4]]))
        assert out.value == pytest.approx(0.2)
        np.testing.assert_array_equal(out.grad, [[-1.0, 1.0]])

    def test_sorted_vectors_match_exact_transport(self):
        # identity plan is optimal for |t_i - s_j| when both are sorted
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = np.sort(rng.random(5))[::-1]
            s = np.sort(rng.random(5))[::-1]
            cost = np.abs(t[:, None] - s[None, :])
            expected = exact_ot(cost, BRUTE_FORCE).value
            assert had_loss(pair_of([t], [s])).value == pytest.approx(
                expected, abs=1e-12
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            pair_of([[0.5, 0.5]], [[0.5, 0.3, 0.2]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        t = rng.random((3, 4))
        s = rng.random((3, 4))
        assert np.abs(t - s).min() > 1e-4  # kink-free with this seed
        analytic = had_loss(pair_of(t, s)).grad
        numeric = finite_diff_grad(lambda x: had_loss(pair_of(t, x)).value, s)
        assert check_gradient(analytic, numeric).passed


class TestSlLoss:
    def test_single_entry(self):
        out = sl_loss(pair_of([[1.0]], [[0.5]]))
        assert out.value == pytest.approx(0.693147, abs=1e-6)
        np.testing.assert_allclose(out.grad, [[-2.0]])

    def test_entropy_at_equality(self):
        row = [[0.7, 0.3]]
        out = sl_loss(pair_of(row, row))
        assert out.value == pytest.approx(0.610864, abs=1e-6)

    def test_zero_student_entry_stays_finite(self):
        out = sl_loss(pair_of([[0.4, 0.6]], [[0.0, 0.6]]))
        assert np.isfinite(out.value)
        assert out.value == pytest.approx(
            -0.4 * np.log(1e-12) - 0.6 * np.log(0.6)
        )

    def test_nonnegative_on_probabilities(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = softmax_rows(rng.standard_normal((2, 5)))
            s = softmax_rows(rng.standard_normal((2, 5)))
            assert sl_loss(pair_of(t, s)).value >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        t = rng.uniform(0.1, 0.9, (2, 3))
        s = rng.uniform(0.1, 0.9, (2, 3))
        analytic = sl_loss(pair_of(t, s)).grad
        numeric = finite_diff_grad(lambda x: sl_loss(pair_of(t, x)).value, s)
        assert check_gradient(analytic, numeric).passed


class TestUldLoss:
    def test_padding_example(self):
        t = np.array([[0.7, 0.3]])
        s = np.array([[0.6, 0.3, 0.1]])
        assert uld_loss(t, s) == pytest.approx(0.2)

    def test_zero_at_equality(self):
        rng = np.random.default_rng(15)
        t = softmax_rows(rng.standard_normal((3, 6)))
        assert uld_loss(t, t) == 0.0

    def test_matches_exact_transport_per_token(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            t = softmax_rows(rng.standard_normal((1, 4)))
            s = softmax_rows(rng.standard_normal((1, 4)))
            cost = np.abs(t[0][:, None] - s[0][None, :])
            assert uld_loss(t, s) == pytest.approx(
                exact_ot(cost, BRUTE_FORCE).value, abs=1e-12
            )

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(17)
        t = softmax_rows(rng.standard_normal((3, 5)))
        s = softmax_rows(rng.standard_normal((3, 7)))
        base = uld_loss(t, s)
        for seed in range(5):
            prng = np.random.default_rng(seed)
            assert uld_loss(
                t[:, prng.permutation(5)], s[:, prng.permutation(7)]
            ) == pytest.approx(base, abs=1e-12)

    def test_rejects_token_count_mismatch(self):
        with pytest.raises(InvalidInput):
            uld_loss(np.eye(3), np.eye(2))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        t = rng.random((2, 4))
        s = rng.random((2, 5))
        analytic = uld_grad(t, s)
        numeric = finite_diff_grad(lambda x: uld_loss(t, x), s)
        assert check_gradient(analytic, numeric).passed

    # rows wider than 16 columns, where an unstable argsort reorders ties,
    # and rows of at least 2048, which the SIMD sort ranks unless they tie
    @pytest.mark.parametrize("m, n", [(4, 4), (6, 4), (3, 5), (40, 33), (20, 48),
                                      (30, 2048), (3000, 2500)])
    def test_grad_equals_per_row_loop_with_ties(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        # values drawn from a small set, so rows hold exact ties of both
        # matrices and ties between them; the student's first row has none
        t = rng.integers(0, 3, (5, m)) / 4.0
        s = rng.integers(0, 3, (5, n)) / 4.0
        s[0] = rng.permutation(n) / n
        t_sorted = -np.sort(-np.pad(t, ((0, 0), (0, max(m, n) - m))), axis=1)
        expected = np.zeros_like(s)
        for row in range(s.shape[0]):
            order = np.argsort(-s[row], kind="stable")
            expected[row, order] = np.sign(s[row, order] - t_sorted[row, :n])
        np.testing.assert_array_equal(uld_grad(t, s), expected)

    def test_grad_holds_its_order_signs_and_gradient(self):
        # The student's half of uld_grad, beside its inputs (the student and
        # the teacher's sorted rows, computed once per run by the harness):
        # the sort order, the sorted entries turned into their signs in
        # place, and the gradient, 24 bytes an entry; the ranking's 17
        # come and go before the signs. numpy's index buffer for
        # take_along_axis and put_along_axis (8192 entries, 64 kB) and a
        # few kB more are the constant. Signs in a copy of the sorted
        # entries would take 32.
        rng = np.random.default_rng(19)
        s, t = rng.random((8, 4096)), rng.random((8, 4096))
        t_sorted = _uld_sorted(t, s.shape[-1])
        tracemalloc.start()
        try:
            grad = _uld_grad(t_sorted, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(grad, uld_grad(t, s))
        assert peak <= 24 * s.size + 2**17, f"peak {peak} bytes"
