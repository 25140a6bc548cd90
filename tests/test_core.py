import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otdistill import (InvalidConfig, InvalidInput, safe_log, softmax_backward,
                       softmax_rows)

finite_logit_rows = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 4), st.integers(2, 6)),
    elements=st.floats(-30, 30),
)


class TestSoftmaxRows:
    def test_uniform_on_equal_logits(self):
        out = softmax_rows([[0.0, 0.0, 0.0]], 1.0)
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_exp_ratio(self):
        out = softmax_rows([[np.log(4.0), 0.0]], 1.0)
        np.testing.assert_allclose(out, [[0.8, 0.2]], atol=1e-12)

    def test_temperature_rescales_logits(self):
        out = softmax_rows([[2.0, 0.0]], 2.0)
        np.testing.assert_allclose(out, [[0.731059, 0.268941]], atol=1e-6)
        np.testing.assert_allclose(out, softmax_rows([[1.0, 0.0]], 1.0))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(rng.standard_normal((5, 9)) * 50, 0.7)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(finite_logit_rows, st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, shift):
        shifted = logits + shift
        np.testing.assert_allclose(
            softmax_rows(logits), softmax_rows(shifted), atol=1e-12
        )

    @pytest.mark.parametrize("tau", [
        1e-300, np.nextafter(1 / np.finfo(float).max, 1.0)])
    def test_tiny_temperatures_give_one_hot_rows(self, tau):
        # Scaled by 1 / tau, every difference from the row's max falls far
        # below exp's range (or to -inf), whose exp is 0, also at the least
        # temperature, whose reciprocal is just below float max; the max
        # itself stays 0 * (1 / tau) = 0, whose exp is 1.
        assert 1.0 / tau < np.inf
        logits = np.array([[3.0, -1.0, 0.5, 2.0], [0.0, 1e-3, -5.0, 1.0]])
        np.testing.assert_array_equal(softmax_rows(logits, tau),
                                      np.eye(4)[logits.argmax(axis=1)])

    def test_large_temperature_flattens(self):
        row = np.array([[3.0, -1.0, 0.5, 2.0]])
        spread = lambda p: p.max() - p.min()
        assert spread(softmax_rows(row, 10.0)) < spread(softmax_rows(row, 1.0))

    @given(finite_logit_rows, st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_argmax_preserved(self, logits, tau):
        # near-ties can flip argmax once the gap falls below float resolution
        top2 = np.sort(logits, axis=1)[:, -2:]
        assume(np.all(top2[:, 1] - top2[:, 0]
                      > 1e-9 * (1.0 + np.abs(top2).max())))
        out = softmax_rows(logits, tau)
        np.testing.assert_array_equal(
            out.argmax(axis=1), logits.argmax(axis=1)
        )

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            softmax_rows([[0.0, np.nan]])

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InvalidConfig):
            softmax_rows([[0.0, 1.0]], 0.0)
        with pytest.raises(InvalidConfig):
            softmax_rows([[0.0, 1.0]], -1.0)
        probs = np.array([[0.25, 0.75]])
        for tau in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidConfig):
                softmax_backward(probs, np.ones_like(probs), tau)

    def test_rejects_single_column(self):
        with pytest.raises(InvalidInput):
            softmax_rows([[1.0]])

    def test_no_overflow_on_huge_logits(self):
        out = softmax_rows([[1e300, 0.0]])
        assert np.isfinite(out).all()

    def test_no_overflow_when_temperature_scales_past_float_max(self):
        # 1e308 / 0.5 overflows; the max is subtracted before the division
        np.testing.assert_array_equal(softmax_rows([[1e308, 0.0]], 0.5),
                                      [[1.0, 0.0]])


class TestSafeLog:
    def test_half(self):
        assert safe_log(0.5) == pytest.approx(-0.693147, abs=1e-6)

    def test_one(self):
        assert safe_log(1.0) == 0.0

    def test_zero_hits_floor(self):
        assert safe_log(0.0) == pytest.approx(np.log(1e-12))
        assert safe_log(0.0) == pytest.approx(-27.6310, abs=1e-4)

    def test_monotone(self):
        ps = np.linspace(0, 1, 101)
        vals = safe_log(ps)
        assert (np.diff(vals) >= 0).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            safe_log(1.5)
        with pytest.raises(InvalidInput):
            safe_log(-0.1)


class TestSoftmaxBackward:
    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_matches_finite_differences(self, tau):
        from otdistill import check_gradient, finite_diff_grad

        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 5))
        weights = rng.standard_normal((2, 5))

        def loss(x):
            return float((weights * softmax_rows(x, tau)).sum())

        probs = softmax_rows(z, tau)
        analytic = softmax_backward(probs, weights, tau)
        numeric = finite_diff_grad(loss, z)
        assert check_gradient(analytic, numeric).passed
