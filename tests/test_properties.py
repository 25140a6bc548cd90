"""Whole-pipeline properties over generated inputs.

- One batched fused pass over B sequences equals the per-sequence public
  functions (build_state, total_loss, total_loss_frozen, total_grad)
  stacked, for every training objective.
- With a state, the teacher comes from the state and a loss-only call
  reads the student from row normalizers; both equal, bit for bit, a dense
  pass that softmaxes every matrix and then gathers.
- The blocked softmax pass gives the dense softmax's normalizers, column
  sums and argmax bit for bit, and its streamed backward the in-place
  dense one, for blocks of one row, of part of a sequence and of several
  sequences; the fused pass gives the same outputs under each blocking.
- Any logit scale from 1e-3 to 1e300 gives finite outputs or an error of a
  type the CLI maps to a documented exit code.

Shapes cover m != n, T = 1, a vocabulary of 2, k above the vocabulary and
exact ties at the rank cut, under both match modes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otdistill import (CE_ONLY, EXACT_ASSIGNMENT, MULTILEVEL_OT, SUM_SORT, ULD,
                       DistillConfig, InvalidConfig, InvalidInput, LossWeights,
                       NumericalFailure, NumericalUnderflow, SinkhornConfig,
                       TooLargeForExact, build_state, run_distillation,
                       total_grad, total_loss, total_loss_frozen)
from otdistill import core
from otdistill.composite import (_forward, _softmax_backward_inplace,
                                 _softmax_backward_streamed)
from otdistill.core import _softmax, _softmax_at, _softmax_pass
from otdistill.preprocess import _last_axis

LOSS_RTOL = 1e-12
GRAD_RTOL = 1e-10
COMPONENTS = ("ce", "had", "sl", "sd", "total")

# The error types `otdistill` maps to exit code 3 (InvalidInput, InvalidConfig,
# TooLargeForExact) or 4 (NumericalUnderflow, NumericalFailure).
TYPED = (InvalidInput, InvalidConfig, TooLargeForExact, NumericalUnderflow,
         NumericalFailure)


def assert_close(actual, expected, rtol):
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def components(breakdown, item=None):
    values = np.array([getattr(breakdown, name) for name in COMPONENTS])
    return values if item is None else values[:, item]


@st.composite
def logit_batches(draw, scale=2.0, max_batch=5):
    """(teacher, student, labels or None, weights) for B sequences.

    With ties, the logits are rounded and one teacher and one student column
    copy another, so sequence sums tie, at the rank cut whenever k falls
    between the copies.
    """
    batch, tokens = draw(st.integers(1, max_batch)), draw(st.integers(1, 4))
    m, n, k = draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.standard_normal((batch, tokens, m)) * scale
    s = rng.standard_normal((batch, tokens, n)) * scale
    if draw(st.booleans()):
        t, s = np.round(t), np.round(s)
        t[..., rng.integers(m)] = t[..., 0]
        s[..., rng.integers(n)] = s[..., 0]
    labels = rng.integers(0, n, (batch, tokens)) if draw(st.booleans()) else None
    w = LossWeights(k=k, match_mode=draw(st.sampled_from([SUM_SORT, EXACT_ASSIGNMENT])),
                    sinkhorn=SinkhornConfig(draw(st.sampled_from([0.1, 0.5])), 20))
    return t, s, labels, w


# Two sequences, the second with teacher column sums 3 > 1 = 1 > 0: k = 2
# cuts between the tied columns.
TIED_AT_CUT = (np.array([[[0.0, 0.0, 0.0, 0.0]], [[3.0, 1.0, 1.0, 0.0]]]),
               np.array([[[1.0, 0.0, 0.0]], [[0.0, 2.0, 2.0]]]),
               None, LossWeights(k=2, sinkhorn=SinkhornConfig(0.5, 20)))


@given(batch=logit_batches(),
       objective=st.sampled_from([MULTILEVEL_OT, CE_ONLY, ULD]))
@example(batch=TIED_AT_CUT, objective=MULTILEVEL_OT)
@settings(max_examples=60, deadline=None)
def test_batched_pass_equals_stacked_sequences(batch, objective):
    t, s, labels, w = batch
    state, breakdown, grad = _forward(t, s, w, labels=labels, grad=objective)
    built = _forward(t, s, w, labels=labels, need_loss=False)[0]
    _, frozen, frozen_grad = _forward(t, s, w, state=built, grad=MULTILEVEL_OT)
    for b in range(t.shape[0]):
        given_b = None if labels is None else labels[b]
        one = build_state(t[b], s[b], given_b, w)
        for batched in (state, built):
            np.testing.assert_array_equal(batched.labels[b], one.labels)
            for got, want in ((batched.rank, one.rank),
                              (batched.rank_seq, one.rank_seq)):
                np.testing.assert_array_equal(got.teacher_perm[b], want.teacher_perm)
                np.testing.assert_array_equal(got.student_perm[b], want.student_perm)
                assert got.k == want.k
            assert_close(batched.plan[b], one.plan, LOSS_RTOL)

        assert_close(components(breakdown, b),
                     components(total_loss(t[b], s[b], given_b, w)), LOSS_RTOL)
        assert_close(components(frozen, b),
                     components(total_loss_frozen(one, t[b], s[b], w)), LOSS_RTOL)
        assert_close(frozen_grad[b], total_grad(t[b], s[b], w=w, state=one),
                     GRAD_RTOL)
        if objective == MULTILEVEL_OT:
            expected = total_grad(t[b], s[b], given_b, w)
        else:
            # The other objectives have no public gradient: compare with a
            # batch of this sequence alone.
            alone = None if labels is None else labels[b:b + 1]
            expected = _forward(t[b:b + 1], s[b:b + 1], w, labels=alone,
                                grad=objective)[2][0]
        assert_close(grad[b], expected, GRAD_RTOL)


SCALES = st.floats(-3.0, 300.0).map(lambda e: 10.0**e)


def kept(shape, perm, k):
    return _last_axis(shape, perm[:, None, :k])


@given(batch=logit_batches(scale=1.0), scale=SCALES,
       taus=st.sampled_from([(1.0, 1.0), (1.0, 2.0), (0.5, 1.0), (0.7, 3.0)]))
@example(batch=TIED_AT_CUT, scale=1e300, taus=(1.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_state_paths_equal_a_dense_pass(batch, scale, taus):
    t, s, labels, w = batch
    t, s = t * scale, s * scale
    w = replace(w, tau_sl=taus[0], tau_sd=taus[1])
    state = _forward(t, s, w, labels=labels, need_loss=False)[0]
    # The frozen teacher is the dense teacher softmax, gathered.
    for probs, tau, rank in ((state.teacher, w.tau_sl, state.rank),
                             (state.teacher_seq, w.tau_sd, state.rank_seq)):
        dense = _softmax(t, tau)[kept(t.shape, rank.teacher_perm, rank.k)]
        assert np.array_equal(probs, dense)
        # and the normalizers give the dense student's entries.
        index = kept(s.shape, rank.student_perm, rank.k)
        top, (total,), _, _ = _softmax_pass(s, (tau,))
        assert np.array_equal(_softmax_at(s, tau, (top, total), index),
                              _softmax(s, tau)[index])

    # Loss-only and gradient calls with the state against the dense pass
    # that rebuilds everything from the same labels.
    _, loss_only, _ = _forward(t, s, w, state=state)
    _, with_grad, grad = _forward(t, s, w, state=state, grad=MULTILEVEL_OT)
    _, dense, dense_grad = _forward(t, s, w, labels=state.labels,
                                    grad=MULTILEVEL_OT)
    for name in COMPONENTS:
        assert np.array_equal(getattr(loss_only, name), getattr(dense, name)), name
        assert np.array_equal(getattr(with_grad, name), getattr(dense, name)), name
    assert np.array_equal(grad, dense_grad)


def fused_outputs(t, s, w):
    """Every array the fused pass returns, with and without a state."""
    state, loss, grad = _forward(t, s, w, grad=MULTILEVEL_OT)
    built = _forward(t, s, w, need_loss=False)[0]
    _, frozen, frozen_grad = _forward(t, s, w, state=built, grad=MULTILEVEL_OT)
    _, loss_only, _ = _forward(t, s, w, state=built)
    arrays = [grad, frozen_grad, built.teacher_logits]
    for one in (state, built):
        arrays += [one.labels, one.plan, one.teacher, one.teacher_seq]
        for rank in (one.rank, one.rank_seq):
            arrays += [rank.teacher_perm, rank.student_perm]
    for breakdown in (loss, frozen, loss_only):
        arrays += list(components(breakdown))
    return arrays


# _BLOCK_ENTRIES for a (B, T, V) stack whose blocks hold one row, the first
# or second half of a sequence (T >= 2), or two whole sequences.
BLOCKINGS = {"row": lambda tokens, vocab: 1,
             "half": lambda tokens, vocab: vocab * ((tokens + 1) // 2),
             "two sequences": lambda tokens, vocab: 2 * tokens * vocab}


@given(batch=logit_batches(scale=1.0, max_batch=4), tokens=st.integers(1, 16),
       scale=SCALES, taus=st.sampled_from([(1.0, 2.0), (0.5, 1.0), (0.7, 3.0)]),
       blocking=st.sampled_from(sorted(BLOCKINGS)),
       seed=st.integers(0, 2**32 - 1))
@example(batch=TIED_AT_CUT, tokens=16, scale=1e300, taus=(1.0, 2.0),
         blocking="half", seed=0)
@settings(max_examples=60, deadline=None)
def test_blocked_pass_equals_the_dense_softmax(batch, tokens, scale, taus,
                                               blocking, seed):
    t, s, _, w = batch
    t, s = t * scale, s * scale
    w = replace(w, tau_sl=taus[0], tau_sd=taus[1])
    # The kernel also runs on a stack with up to 16 rows per sequence, so
    # that a block holding part of a sequence holds several rows. Its rows
    # mix the drawn scale with moderate ones: at large scales every row is
    # one-hot, and its column sums are exact in any order.
    rng = np.random.default_rng(seed)
    shape = (s.shape[0], tokens, s.shape[2])
    z = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 10.0, scale],
                                                shape[:2] + (1,))
    dense = [_softmax(z, tau) for tau in taus]
    # Distinct columns per sequence, as a ranking's first k.
    cols = np.argsort(rng.random(z.shape[::2]), axis=-1)
    cols = cols[:, :rng.integers(1, z.shape[2] + 1)]
    index = _last_axis(z.shape, cols[:, None])
    p = dense[1][index]
    g = rng.standard_normal(p.shape)
    base = rng.standard_normal(z.shape)
    expected = base + _softmax_backward_inplace(dense[1].copy(), taus[1],
                                                [(index, p, g)])
    single = fused_outputs(t, s, w)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](*z.shape[1:]))
        out = np.empty(z.shape)
        top, totals, sums, best = _softmax_pass(z, taus, (out,), sums=True,
                                                argmax=True)
        bare_top, bare_totals, _, _ = _softmax_pass(z, taus)
        streamed = base.copy()
        _softmax_backward_streamed(z, taus[1], (top, totals[1]),
                                   (index, p, g), streamed)
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](*s.shape[1:]))
        blocked = fused_outputs(t, s, w)

    every = _last_axis(z.shape, np.arange(z.shape[2]))
    assert np.array_equal(bare_top, top)
    for probs, tau, total, bare_total, colsum in zip(dense, taus, totals,
                                                      bare_totals, sums):
        assert np.array_equal(_softmax_at(z, tau, (top, total), every), probs)
        assert np.array_equal(bare_total, total)
        assert np.array_equal(colsum, probs.sum(axis=-2))
    assert np.array_equal(out, dense[0])
    assert np.array_equal(best, dense[0].argmax(axis=-1))
    assert np.array_equal(streamed, expected)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, single))


@given(batch=logit_batches(scale=1.0), scale=SCALES,
       regularization=st.sampled_from([1e-3, 0.1, 0.5]))
@example(batch=TIED_AT_CUT, scale=1e300, regularization=0.1)
@settings(max_examples=80, deadline=None)
def test_any_logit_scale_gives_finite_outputs_or_a_typed_error(
        batch, scale, regularization):
    t, s, labels, w = batch
    # The first sequence, with unequal token counts when there are two.
    t, s = t[0] * scale, s[-1][: max(1, s.shape[1] - 1)] * scale
    labels = None if labels is None else labels[-1][: s.shape[0]]
    w = LossWeights(k=w.k, match_mode=w.match_mode,
                    sinkhorn=SinkhornConfig(regularization, 20))
    try:
        state = build_state(t, s, labels, w)
        outputs = [total_loss(t, s, labels, w), total_loss_frozen(state, t, s, w)]
        grads = [total_grad(t, s, labels, w), total_grad(t, s, w=w, state=state)]
    except TYPED:
        return
    for breakdown in outputs:
        assert np.isfinite(components(breakdown)).all()
    for grad in grads:
        assert grad.shape == s[: t.shape[0]].shape and np.isfinite(grad).all()
    assert np.isfinite(state.plan).all()


@given(scale=SCALES, mode=st.sampled_from([MULTILEVEL_OT, CE_ONLY, ULD]))
@settings(max_examples=20, deadline=None)
def test_harness_at_any_teacher_scale_is_finite_or_typed(scale, mode):
    cfg = DistillConfig(seed=5, m=6, n=4, tokens=3, contexts=9, steps=2,
                        sharpness=scale, mode=mode)
    try:
        metrics = run_distillation(cfg)
    except TYPED:
        return
    for name in COMPONENTS + ("eval_sd",):
        assert np.isfinite(getattr(metrics, name)).all()
