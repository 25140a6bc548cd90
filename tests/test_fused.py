"""The fused composite pass against a dense reference built from public parts.

The reference recomputes every softmax per use, copies whole permuted
matrices, and back-propagates through dense T x V upstream gradients, the
way the objective reads on paper. The fused pass must agree with it to 1e-10
relative on every shape and setting below.
"""

from dataclasses import replace

import numpy as np
import pytest

from otdistill import (EXACT_ASSIGNMENT, AlignedPair, LossWeights,
                       SinkhornConfig, align_and_truncate, build_state,
                       check_gradient, finite_diff_grad, had_loss, safe_log,
                       sd_grad, sd_loss, seq_cost_matrix, sinkhorn_plan,
                       sl_loss, softmax_backward, softmax_rows, total_grad,
                       total_loss, total_loss_frozen, uld_grad)
from otdistill.composite import CE_ONLY, ULD, _forward

RTOL = 1e-10
BASE = LossWeights(k=4, sinkhorn=SinkhornConfig(0.5, 20))


def reference_state(t, s, labels, w):
    length = min(t.shape[0], s.shape[0])
    t, s = t[:length], s[:length]
    t1, s1 = softmax_rows(t, w.tau_sl), softmax_rows(s, w.tau_sl)
    _, rank = align_and_truncate(t1, s1, w.k, mode=w.match_mode)
    t2, s2 = softmax_rows(t, w.tau_sd), softmax_rows(s, w.tau_sd)
    pair2, rank_seq = align_and_truncate(t2, s2, w.k, mode=w.match_mode)
    plan = sinkhorn_plan(seq_cost_matrix(pair2), w.sinkhorn)
    if labels is None:
        # teacher argmax -> its rank position -> the matched student column
        pos = np.argsort(rank.teacher_perm)[t1.argmax(axis=1)]
        labels = rank.student_perm[np.minimum(pos, s.shape[1] - 1)]
    return {"labels": np.asarray(labels)[:length], "rank": rank,
            "rank_seq": rank_seq, "plan": plan}


def reference_pair(t_probs, s_probs, rank):
    return AlignedPair(teacher=t_probs[:, rank.teacher_perm][:, :rank.k],
                       student=s_probs[:, rank.student_perm][:, :rank.k])


def scatter(values, rank, shape):
    full = np.zeros(shape)
    full[:, rank.student_perm[:rank.k]] = values
    return full


def reference_terms(ref, t, s, w):
    length = ref["labels"].shape[0]
    t, s = t[:length], s[:length]
    rows = np.arange(length)
    t1, s1 = softmax_rows(t, w.tau_sl), softmax_rows(s, w.tau_sl)
    t2, s2 = softmax_rows(t, w.tau_sd), softmax_rows(s, w.tau_sd)
    pair1 = reference_pair(t1, s1, ref["rank"])
    pair2 = reference_pair(t2, s2, ref["rank_seq"])
    return rows, t1, s1, s2, pair1, pair2


def reference_loss(ref, t, s, w):
    rows, _, s1, _, pair1, pair2 = reference_terms(ref, t, s, w)
    ce = -float(safe_log(s1[rows, ref["labels"]]).sum())
    had, sl = had_loss(pair1).value, sl_loss(pair1).value
    sd = sd_loss(seq_cost_matrix(pair2), ref["plan"])
    return np.array([ce, had, sl, sd,
                     ce + w.alpha * (had + w.beta * sl + w.gamma * sd)])


def reference_ce_upstream(ref, s1):
    rows = np.arange(s1.shape[0])
    g1 = np.zeros_like(s1)
    at_label = s1[rows, ref["labels"]]
    g1[rows, ref["labels"]] = np.where(at_label > 1e-12, -1.0 / at_label, 0.0)
    return g1


def reference_grad(ref, t, s, w):
    _, _, s1, s2, pair1, pair2 = reference_terms(ref, t, s, w)
    g1 = reference_ce_upstream(ref, s1)
    g1 += scatter(w.alpha * (had_loss(pair1).grad + w.beta * sl_loss(pair1).grad),
                  ref["rank"], s1.shape)
    grad = softmax_backward(s1, g1, w.tau_sl)
    g2 = scatter(w.alpha * w.gamma * sd_grad(pair2, ref["plan"]),
                 ref["rank_seq"], s2.shape)
    return grad + softmax_backward(s2, g2, w.tau_sd)


def breakdown_array(b):
    return np.array([b.ce, b.had, b.sl, b.sd, b.total])


def assert_close(actual, expected):
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


# (teacher rows, student rows, m, n, weights)
CASES = {
    "m_gt_n": (3, 3, 8, 6, BASE),
    "m_lt_n": (4, 4, 5, 9, BASE),
    "more_teacher_rows": (5, 3, 7, 6, BASE),
    "more_student_rows": (3, 5, 7, 6, BASE),
    "single_token": (1, 1, 6, 5, BASE),
    "vocab_two": (3, 3, 2, 2, BASE),
    "k_above_vocab": (3, 3, 7, 5, replace(BASE, k=50)),
    "exact_match": (3, 3, 6, 8, replace(BASE, match_mode=EXACT_ASSIGNMENT)),
    "taus_differ": (4, 4, 7, 6, replace(BASE, tau_sl=0.7, tau_sd=3.1)),
    "taus_equal": (3, 3, 7, 6, replace(BASE, tau_sl=1.5, tau_sd=1.5)),
    "gamma_zero": (3, 3, 8, 6, replace(BASE, gamma=0.0)),
    "alpha_zero": (3, 3, 8, 6, replace(BASE, alpha=0.0)),
}


def case_inputs(name, labeled):
    t_rows, s_rows, m, n, w = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    t = rng.standard_normal((t_rows, m)) * 2.0
    s = rng.standard_normal((s_rows, n)) * 2.0
    labels = rng.integers(0, n, size=s_rows) if labeled else None
    return t, s, labels, w


@pytest.mark.parametrize("labeled", [False, True], ids=["pseudo", "given"])
@pytest.mark.parametrize("name", sorted(CASES))
class TestFusedMatchesDenseReference:
    def test_state(self, name, labeled):
        t, s, labels, w = case_inputs(name, labeled)
        ref = reference_state(t, s, labels, w)
        state = build_state(t, s, labels, w)
        np.testing.assert_array_equal(state.labels, ref["labels"])
        for got, want in ((state.rank, ref["rank"]),
                          (state.rank_seq, ref["rank_seq"])):
            np.testing.assert_array_equal(got.teacher_perm, want.teacher_perm)
            np.testing.assert_array_equal(got.student_perm, want.student_perm)
            assert got.k == want.k
        assert_close(state.plan, ref["plan"])

    def test_losses(self, name, labeled):
        t, s, labels, w = case_inputs(name, labeled)
        ref = reference_state(t, s, labels, w)
        expected = reference_loss(ref, t, s, w)
        state = build_state(t, s, labels, w)
        assert_close(breakdown_array(total_loss_frozen(state, t, s, w)), expected)
        assert_close(breakdown_array(total_loss(t, s, labels, w)), expected)

    def test_gradient(self, name, labeled):
        t, s, labels, w = case_inputs(name, labeled)
        ref = reference_state(t, s, labels, w)
        expected = reference_grad(ref, t, s, w)
        state = build_state(t, s, labels, w)
        assert_close(total_grad(t, s, labels, w, state=state), expected)
        assert_close(total_grad(t, s, labels, w), expected)

    def test_training_objectives(self, name, labeled):
        # The harness modes: cross-entropy alone, and plus alpha * uld_loss.
        t, s, labels, w = case_inputs(name, labeled)
        ref = reference_state(t, s, labels, w)
        length = ref["labels"].shape[0]
        t1 = softmax_rows(t[:length], w.tau_sl)
        s1 = softmax_rows(s[:length], w.tau_sl)
        ce_grad = softmax_backward(s1, reference_ce_upstream(ref, s1), w.tau_sl)
        uld_part = softmax_backward(s1, w.alpha * uld_grad(t1, s1), w.tau_sl)
        # The fused pass takes a batch: here one sequence of the shared length.
        batch = (t[None, :length], s[None, :length])
        given = None if labels is None else labels[None, :length]
        _, b_ce, g_ce = _forward(*batch, w, labels=given, grad=CE_ONLY)
        _, b_uld, g_uld = _forward(*batch, w, labels=given, grad=ULD)
        assert_close(g_ce[0], ce_grad)
        assert_close(g_uld[0], ce_grad + uld_part)
        expected = reference_loss(ref, t, s, w)
        assert_close(breakdown_array(b_ce)[:, 0], expected)
        assert_close(breakdown_array(b_uld)[:, 0], expected)


def test_exact_match_uneven_rows_matches_finite_differences():
    rng = np.random.default_rng(41)
    t = rng.standard_normal((4, 7)) * 2.0
    s = rng.standard_normal((3, 6)) * 2.0
    labels = np.array([5, 0, 2])
    w = replace(BASE, k=3, tau_sl=0.8, tau_sd=1.7, match_mode=EXACT_ASSIGNMENT)
    state = build_state(t, s, labels, w)
    analytic = total_grad(t, s, labels, w, state=state)
    numeric = finite_diff_grad(
        lambda x: total_loss_frozen(state, t, x, w).total, s)
    assert check_gradient(analytic, numeric, rel_tol=1e-4).passed

