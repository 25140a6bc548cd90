import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from otdistill import (InvalidConfig, InvalidInput, LossWeights, SinkhornConfig,
                       build_state, ce_loss, check_gradient, finite_diff_grad,
                       softmax_rows, total_grad, total_loss, total_loss_frozen)
from otdistill import composite
from otdistill.composite import _pseudo_labels
from otdistill.core import _BLOCK_ENTRIES, _softmax
from otdistill.preprocess import _align_and_truncate

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

    def test_rejects_another_teacher(self):
        # Same shape, one kept logit changed: the state's frozen teacher
        # probabilities would silently be wrong for it.
        t, s = random_pair(33)
        state = build_state(t, s, w=SMALL)
        other = t.copy()
        other[1, state.rank.teacher_perm[0]] += 0.5
        with pytest.raises(InvalidInput):
            total_loss_frozen(state, other, s, SMALL)
        with pytest.raises(InvalidInput):
            total_grad(other, s, w=SMALL, state=state)

    @pytest.mark.parametrize("field", ["tau_sl", "tau_sd"])
    def test_rejects_other_temperatures(self, field):
        t, s = random_pair(34)
        state = build_state(t, s, w=SMALL)
        w = replace(SMALL, **{field: getattr(SMALL, field) * 1.5})
        with pytest.raises(InvalidConfig):
            total_loss_frozen(state, t, s, w)
        with pytest.raises(InvalidConfig):
            total_grad(t, s, w=w, state=state)


class TestSoftmaxAccounting:
    """Blocked softmax passes, streamed backwards and dense softmaxes per
    public call.

    The teacher (m = 8 columns) and the student (n = 6) are told apart by
    their width. A pass is recorded with its temperature count and the
    number of B x T x V softmaxes it writes into caller buffers.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def who(arr):
            return "teacher" if arr.shape[-1] == 8 else "student"

        def counted_pass(arr, taus, out=(), **kwargs):
            dense = sum(o is not None for o in out)
            calls.append(("pass", who(arr), len(taus), dense))
            return kernel_pass(arr, taus, out, **kwargs)

        def counted(kind, kernel):
            def wrapper(arr, *args, **kwargs):
                calls.append((kind, who(arr)))
                return kernel(arr, *args, **kwargs)
            return wrapper

        kernel_pass = composite._softmax_pass
        monkeypatch.setattr(composite, "_softmax_pass", counted_pass)
        monkeypatch.setattr(composite, "_softmax",
                            counted("dense", composite._softmax))
        monkeypatch.setattr(composite, "_softmax_backward_streamed",
                            counted("streamed backward",
                                    composite._softmax_backward_streamed))
        return calls

    def test_calls_per_function(self, calls):
        t, s = random_pair(35, m=8, n=6)
        state = build_state(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2, 0), ("pass", "student", 2, 0)]
        calls.clear()
        total_loss_frozen(state, t, s, SMALL)
        assert calls == [("pass", "student", 2, 0)]
        calls.clear()
        total_grad(t, s, w=SMALL, state=state)
        assert calls == [("pass", "student", 2, 1),
                         ("streamed backward", "student")]
        calls.clear()
        total_loss(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2, 0), ("pass", "student", 2, 0)]
        calls.clear()
        total_grad(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2, 0), ("pass", "student", 2, 1),
                         ("streamed backward", "student")]


class TestPeakMemory:
    """build_state and total_grad with a state at T = 64, n = 20000 (more
    entries than one block holds) stay within bounds derived from what
    they keep, in float64 entries:

    - blocks: a pass holds one block buffer of at most _BLOCK_ENTRIES
      entries per temperature it does not write whole (two), and the
      streamed backward one;
    - columns: per matrix, the column sums at both temperatures and, while
      ranking, their negation and the permutation; 8 * n covers them twice;
    - kept: (T, k) gathers, products and index arrays, a few dozen T * k;
    - total_grad also holds its one T x n buffer, the returned gradient.

    Before the blocked pass, build_state held two dense softmaxes per
    matrix (19 MB here) and total_grad two student ones (22 MB).
    """

    TOKENS, M, N = 64, 16000, 20000

    def peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_blocks_only_and_one_gradient_buffer(self):
        t, s = random_pair(37, self.TOKENS, self.M, self.N)
        w = LossWeights()
        state = build_state(t, s, w=w)
        small = 2 * _BLOCK_ENTRIES + 8 * self.N + 32 * self.TOKENS * w.k
        build_peak = self.peak(lambda: build_state(t, s, w=w))
        assert build_peak < 8 * small, (build_peak, 8 * small)
        grad_peak = self.peak(lambda: total_grad(t, s, w=w, state=state))
        bound = 8 * (self.TOKENS * self.N + small)
        assert grad_peak < bound, (grad_peak, bound)


def test_pseudo_labels_invert_the_ranking_on_ties():
    # Rounded logits with copied columns tie the sequence sums, so the
    # stable ranking decides between equal columns.
    rng = np.random.default_rng(36)
    t = np.round(rng.standard_normal((3, 4, 9)))
    t[..., 5] = t[..., 1]
    t[..., 7] = t[..., 1]
    s = rng.standard_normal((3, 4, 6))
    t1, s1 = _softmax(t, 1.0), _softmax(s, 1.0)
    _, rank = _align_and_truncate(t1, s1, 4, "sum_sort")
    inv = np.argsort(rank.teacher_perm, axis=-1)
    pos = np.minimum(np.take_along_axis(inv, t1.argmax(axis=-1), axis=-1), 5)
    expected = np.take_along_axis(rank.student_perm, pos, axis=-1)
    np.testing.assert_array_equal(_pseudo_labels(t1.argmax(axis=-1), rank, 6),
                                  expected)
