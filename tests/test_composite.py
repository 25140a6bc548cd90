import warnings
from dataclasses import replace

import numpy as np
import pytest

from otdistill import (InvalidConfig, InvalidInput, LossWeights, SinkhornConfig,
                       build_state, ce_loss, check_gradient, finite_diff_grad,
                       softmax_rows, total_grad, total_loss, total_loss_frozen)

SMALL = LossWeights(k=4, sinkhorn=SinkhornConfig(0.5, 20))


def random_pair(seed, tokens=3, m=8, n=6, scale=2.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((tokens, m)) * scale,
            rng.standard_normal((tokens, n)) * scale)


class TestCeLoss:
    def test_half_probability(self):
        probs = np.array([[0.5, 0.5]])
        value, _ = ce_loss(probs, [0])
        assert value == pytest.approx(0.693147, abs=1e-6)

    def test_certain_label_zero_loss(self):
        value, grad = ce_loss(np.array([[1.0, 0.0]]), [0])
        assert value == 0.0
        np.testing.assert_allclose(grad, [[0.0, 0.0]])

    def test_two_tokens_add(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        value, _ = ce_loss(probs, [0, 0])
        assert value == pytest.approx(0.693147 + 1.386294, abs=1e-6)

    def test_grad_is_probs_minus_onehot(self):
        probs = softmax_rows(np.array([[1.0, 0.0, -1.0]]))
        _, grad = ce_loss(probs, [2])
        expected = probs.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(grad, expected)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(InvalidInput):
            ce_loss(np.array([[0.5, 0.5]]), [2])

    @pytest.mark.parametrize("label", [1.7, np.nan])
    def test_rejects_non_integer_label(self, label):
        with pytest.raises(InvalidInput):
            ce_loss(np.array([[0.5, 0.5], [0.5, 0.5]]), [0.0, label])

    def test_accepts_integral_float_labels(self):
        value, _ = ce_loss(np.array([[0.5, 0.5]]), np.array([1.0]))
        assert value == pytest.approx(np.log(2.0))


class TestLossWeights:
    @pytest.mark.parametrize("field, value", [
        ("tau_sl", np.nan), ("tau_sl", np.inf), ("tau_sd", np.nan),
        ("tau_sd", np.inf), ("tau_sl", 0.0), ("k", 2.5), ("k", 0),
        ("alpha", -1.0),
    ])
    def test_rejects_with_invalid_config(self, field, value):
        with pytest.raises(InvalidConfig):
            LossWeights(**{field: value})

    def test_non_integer_labels_rejected_not_truncated(self):
        t, s = random_pair(9)
        with pytest.raises(InvalidInput):
            total_loss(t, s, [0.0, 1.7, 2.0], SMALL)
        with pytest.raises(InvalidInput):
            build_state(t, s, np.array([0.0, 1.7, 2.0]), SMALL)


class TestTotalLoss:
    def test_combination_formula(self):
        # weighted combination with the default alpha/beta/gamma
        assert 1.0 + 0.15 * (0.2 + 0.1 * 0.5 + 0.1 * 0.1) == pytest.approx(1.039)

    def test_breakdown_total_is_exact_recombination(self):
        t, s = random_pair(0)
        b = total_loss(t, s, w=SMALL)
        assert b.total == b.ce + SMALL.alpha * (
            b.had + SMALL.beta * b.sl + SMALL.gamma * b.sd
        )

    def test_identical_models_labeled(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 6)) * 2
        labels = softmax_rows(logits).argmax(axis=1)
        b = total_loss(logits, logits, labels, SMALL)
        assert b.had == pytest.approx(0.0, abs=1e-12)
        assert b.sl > 0.0  # cross-entropy equals entropy, not zero
        # the heavily regularized plan still pays off-diagonal cost; a tight
        # regularization drives the plan to the identity and sd to zero
        tight = replace(SMALL, sinkhorn=SinkhornConfig(0.01, 200))
        assert total_loss(logits, logits, labels, tight).sd == pytest.approx(
            0.0, abs=1e-6
        )

    def test_alpha_zero_reduces_to_ce(self):
        t, s = random_pair(2)
        labels = [0, 1, 2]
        w0 = replace(SMALL, alpha=0.0)
        b = total_loss(t, s, labels, w0)
        assert b.total == b.ce

    def test_gamma_monotone(self):
        t, s = random_pair(3)
        lo = total_loss(t, s, w=replace(SMALL, gamma=0.1))
        hi = total_loss(t, s, w=replace(SMALL, gamma=0.5))
        assert lo.sd > 0.0
        assert hi.total >= lo.total

    def test_nonnegative_components(self):
        for seed in range(10):
            t, s = random_pair(seed)
            b = total_loss(t, s, w=SMALL)
            assert b.ce >= 0 and b.had >= 0 and b.sl >= 0 and b.sd >= 0

    def test_pseudo_label_consistency_same_model(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 5)) * 2
        probs = softmax_rows(logits)
        expected, _ = ce_loss(probs, probs.argmax(axis=1))
        b = total_loss(logits, logits, labels=None, w=SMALL)
        assert b.ce == pytest.approx(expected, abs=1e-12)

    def test_row_count_alignment(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((5, 6))
        s = rng.standard_normal((3, 6))
        b = total_loss(t, s, w=SMALL)
        b_trunc = total_loss(t[:3], s, w=SMALL)
        assert b.total == pytest.approx(b_trunc.total, abs=1e-12)

    def test_k_eff_reported(self):
        t, s = random_pair(6)
        b = total_loss(t, s, w=replace(SMALL, k=50))
        assert b.k_eff == 6


class TestTotalGrad:
    def test_alpha_zero_is_ce_gradient(self):
        t, s = random_pair(7)
        labels = np.array([0, 1, 2])
        w0 = replace(SMALL, alpha=0.0)
        grad = total_grad(t, s, labels, w0)
        probs = softmax_rows(s, w0.tau_sl)
        expected = probs.copy()
        expected[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(grad, expected / w0.tau_sl, atol=1e-12)

    def test_identical_models_distill_grads_vanish(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((3, 5)) * 2
        # with sign(0)=0 the token-level absolute-difference term vanishes at
        # equality; the sequence term compares *different* tokens through the
        # plan, so it is excluded here via gamma=0
        g_full = total_grad(logits, logits, w=replace(SMALL, beta=0.0, gamma=0.0))
        g_ce = total_grad(logits, logits, w=replace(SMALL, alpha=0.0))
        np.testing.assert_allclose(g_full, g_ce, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        t, s = random_pair(seed + 20)
        w = replace(SMALL, k=4)
        state = build_state(t, s, None, w)
        analytic = total_grad(t, s, w=w, state=state)
        numeric = finite_diff_grad(
            lambda x: total_loss_frozen(state, t, x, w).total, s
        )
        assert check_gradient(analytic, numeric, rel_tol=1e-4).passed

    def test_labeled_matches_finite_differences(self):
        t, s = random_pair(30)
        labels = np.array([1, 0, 3])
        state = build_state(t, s, labels, SMALL)
        analytic = total_grad(t, s, labels, SMALL, state=state)
        numeric = finite_diff_grad(
            lambda x: total_loss_frozen(state, t, x, SMALL).total, s
        )
        assert check_gradient(analytic, numeric, rel_tol=1e-4).passed

    def test_saturated_labels_raise_no_warning(self):
        # At this scale each softmax row is one-hot, so most label
        # probabilities are exactly 0; their -1/p upstream term is skipped
        # (the floor), not evaluated as 1/0.
        t, s = random_pair(31, scale=1e300)
        labels = np.array([0, 1, 2])
        assert (softmax_rows(s, SMALL.tau_sl)[np.arange(3), labels] == 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = total_grad(t, s, labels, SMALL)
        assert np.isfinite(grad).all()


class TestFrozenState:
    """A state only fits logits of the shapes it was built from."""

    STATE_SHAPES = ((3, 5), (3, 4))

    @pytest.mark.parametrize("teacher, student", [
        ((3, 5), (3, 3)),   # fewer student columns: used to index past them
        ((3, 5), (3, 9)),   # more student columns: used to return a wrong loss
        ((3, 7), (3, 4)),   # another teacher vocabulary
        ((2, 5), (2, 4)),   # another token count
    ])
    def test_rejects_other_shapes(self, teacher, student):
        rng = np.random.default_rng(32)
        state = build_state(*(rng.standard_normal(shape)
                              for shape in self.STATE_SHAPES), w=SMALL)
        t, s = rng.standard_normal(teacher), rng.standard_normal(student)
        with pytest.raises(InvalidInput):
            total_loss_frozen(state, t, s, SMALL)
        with pytest.raises(InvalidInput):
            total_grad(t, s, w=SMALL, state=state)
