import numpy as np
import pytest

from otdistill import (ASSIGNMENT, BRUTE_FORCE, InvalidInput,
                       NumericalFailure, TooLargeForExact, check_gradient,
                       exact_ot, finite_diff_grad, had_loss)
from otdistill.preprocess import AlignedPair
from refimpl import brute_force_min_transport


class TestExactOT:
    def test_identity_optimal(self):
        result = exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert result.value == 0.0
        np.testing.assert_array_equal(result.permutation, [0, 1])

    def test_one_by_one(self):
        assert exact_ot(np.array([[5.0]])).value == 5.0

    def test_methods_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            C = rng.random((5, 5))
            assert exact_ot(C, BRUTE_FORCE).value == pytest.approx(
                exact_ot(C, ASSIGNMENT).value, abs=1e-12
            )

    def test_agrees_with_reference_enumeration(self):
        rng = np.random.default_rng(1)
        C = rng.random((6, 6))
        assert exact_ot(C, ASSIGNMENT).value == pytest.approx(
            brute_force_min_transport(C), abs=1e-12
        )

    def test_plan_matrix_attains_value(self):
        rng = np.random.default_rng(2)
        C = rng.random((4, 4))
        result = exact_ot(C)
        plan = result.plan_matrix()
        np.testing.assert_allclose(plan.sum(axis=0), 1.0)
        np.testing.assert_allclose(plan.sum(axis=1), 1.0)
        assert (plan * C).sum() == pytest.approx(result.value, abs=1e-15)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        C = rng.random((5, 5))
        base = exact_ot(C).value
        for seed in range(5):
            p = np.random.default_rng(seed).permutation(5)
            assert exact_ot(C[np.ix_(p, p)]).value == pytest.approx(base, abs=1e-12)

    def test_sorted_vectors_diagonal_optimal(self):
        rng = np.random.default_rng(4)
        t = np.sort(rng.random(5))[::-1]
        s = np.sort(rng.random(5))[::-1]
        C = np.abs(t[:, None] - s[None, :])
        assert exact_ot(C).value == pytest.approx(np.trace(C), abs=1e-12)

    def test_size_limits(self):
        with pytest.raises(TooLargeForExact):
            exact_ot(np.zeros((8, 8)), BRUTE_FORCE)
        with pytest.raises(TooLargeForExact):
            exact_ot(np.zeros((65, 65)), ASSIGNMENT)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            exact_ot(np.zeros((2, 3)))

    @pytest.mark.parametrize("method", [BRUTE_FORCE, ASSIGNMENT])
    def test_rejects_non_finite_costs(self, method):
        # Brute force skipped nan permutations, and scipy's assignment
        # raised its own ValueError.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput, match="non-finite"):
                exact_ot(np.array([[bad, 0.0], [0.0, 1.0]]), method)

    @pytest.mark.parametrize("method", [BRUTE_FORCE, ASSIGNMENT])
    def test_overflowing_optimum_raises(self, method):
        # Finite costs whose every assignment sums past the float range.
        with pytest.raises(NumericalFailure):
            exact_ot(np.full((2, 2), 1e308), method)

    @pytest.mark.parametrize("method", [BRUTE_FORCE, ASSIGNMENT])
    def test_overflowing_assignments_do_not_win(self, method):
        # Every permutation but the identity sums to inf; the optimum is 0,
        # with no RuntimeWarning (an error under the test settings).
        C = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        result = exact_ot(C, method)
        assert result.value == 0.0
        np.testing.assert_array_equal(result.permutation, [0, 1, 2])

    @pytest.mark.parametrize("C", [np.zeros((0, 0)),
                                   np.array([[3.0, 0.0, 5.0], [0.0, 4.0, 6.0],
                                             [7.0, 8.0, 1.0]])],
                             ids=["n=0", "n=3"])
    def test_methods_return_the_same_integer_permutation(self, C):
        # At n = 0 brute force enumerates one empty permutation, still an
        # integer array; at n = 3 the optimum (1, 0, 2) is unique, so both
        # methods find it.
        results = [exact_ot(C, method) for method in (BRUTE_FORCE, ASSIGNMENT)]
        for result in results:
            assert result.permutation.dtype.kind == "i", result.method
        np.testing.assert_array_equal(results[0].plan_matrix(),
                                      results[1].plan_matrix())


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        x = np.array([[3.0, -1.0]])
        grad = finite_diff_grad(lambda v: float((v ** 2).sum()), x)
        np.testing.assert_allclose(grad, [[6.0, -2.0]], atol=1e-4)

    def test_linear(self):
        coeff = np.array([[2.5, -0.5, 1.0]])
        grad = finite_diff_grad(lambda v: float((coeff * v).sum()),
                                np.zeros((1, 3)))
        np.testing.assert_allclose(grad, coeff, atol=1e-9)

    def test_cross_checks_had_gradient(self):
        rng = np.random.default_rng(5)
        t = rng.random((2, 3))
        s = rng.random((2, 3))
        pair = AlignedPair(teacher=t, student=s)
        numeric = finite_diff_grad(
            lambda x: had_loss(AlignedPair(teacher=t, student=x)).value, s
        )
        assert check_gradient(had_loss(pair).grad, numeric).passed

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NumericalFailure):
            finite_diff_grad(lambda v: float("nan"), np.zeros((1, 2)))

    @pytest.mark.parametrize("value", [None, "1.0", 1 + 2j, np.complex128(1),
                                       np.array([1.0]), np.zeros(2)],
                             ids=["None", "str", "complex", "np.complex",
                                  "1-element", "n-element"])
    def test_a_value_that_is_not_a_real_number_raises_naming_the_entry(
            self, value):
        with pytest.raises(InvalidInput, match=r"near entry \(0, 0\)"):
            finite_diff_grad(lambda v: value, np.zeros((1, 2)))

    def test_a_loss_that_is_not_callable_raises(self):
        with pytest.raises(InvalidInput, match="callable"):
            finite_diff_grad(1.0, np.zeros((1, 2)))

    def test_an_int_past_the_float_range_is_not_finite(self):
        with pytest.raises(NumericalFailure, match=r"near entry \(0, 0\)"):
            finite_diff_grad(lambda v: 10 ** 400, np.zeros((1, 2)))


class TestCheckGradient:
    def test_identical_pass(self):
        report = check_gradient(np.ones((2, 2)), np.ones((2, 2)))
        assert report.passed
        assert report.max_abs_err == 0.0

    def test_small_relative_error_passes(self):
        report = check_gradient(np.array([[1.0]]), np.array([[1.00005]]),
                                rel_tol=1e-4, abs_tol=1e-8)
        assert report.passed

    def test_large_relative_error_fails(self):
        report = check_gradient(np.array([[1.0]]), np.array([[1.1]]),
                                rel_tol=1e-4)
        assert not report.passed

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            check_gradient(np.zeros((2, 2)), np.zeros((2, 3)))
