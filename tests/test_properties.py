"""Whole-pipeline properties over generated inputs.

- One batched fused pass over B sequences equals the per-sequence public
  functions (build_state, total_loss, total_loss_frozen, total_grad)
  stacked, for every training objective.
- With a state, the teacher comes from the state and a loss-only call
  reads the student from row normalizers; both equal, bit for bit, a dense
  pass that softmaxes every matrix and then gathers.
- The blocked softmax pass gives the dense softmax's normalizers, column
  sums and argmax bit for bit, and the streamed backward the dense
  formula's gradient, for blocks of one row, of part of a sequence and of
  several sequences; the fused pass gives the same outputs under each
  blocking. Over two temperatures, with a per-row and a broadcast sparse
  term, the streamed backward equals the sum of the dense softmax_backward
  at each. The pass, _softmax_at and the backward, which scale by 1 / tau
  and by reciprocal row sums, stay within a bound derived from the
  roundings of the division form that divides every entry twice.
- Any logit scale from 1e-3 to 1e300 gives finite outputs or an error of a
  type the CLI maps to a documented exit code.
- No raw numpy error escapes the public API: every function that takes
  arrays, given one that is 0-D, 1-D, 3-D, without rows, ragged, holding
  nan or inf, or of another shape than its partner (or, for
  alignment_cost, a student_perm that is no permutation), returns or
  raises an error the CLI maps to exit code 3, and given one of strings,
  complex numbers or timedeltas raises InvalidInput; every scalar argument or
  setting, given a string, None, nan, +-inf or a value out of its range,
  raises InvalidConfig naming it; and so does every config or state
  argument or field, given None, a string or a config of another class.
  Every field of a state that a call reads, spoiled in a copy (labels cut,
  None, fractional, ragged or out of range; a plan or kept teacher of
  another shape; a rank that is none, or whose k or kept permutation
  entries are out of range, not integers or repeat a student column), makes
  total_loss_frozen and total_grad raise an error the CLI maps to exit
  code 3 naming it, and a nan in the plan or kept teacher NumericalFailure.
  Every string setting, given a numpy array of strings, a list, None or an
  unknown name, raises InvalidConfig (a config field) or InvalidInput (a
  function argument) naming it.

Shapes cover m != n, T = 1, a vocabulary of 2, k above the vocabulary and
exact ties at the rank cut, under both match modes.
"""

import warnings
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import otdistill as od
from otdistill import (CE_ONLY, EXACT_ASSIGNMENT, MULTILEVEL_OT, SUM_SORT, ULD,
                       AlignedPair, DistillConfig, InvalidConfig, InvalidInput,
                       LossWeights, NumericalFailure, NumericalUnderflow,
                       SinkhornConfig, TooLargeForExact, build_state,
                       run_distillation, total_grad, total_loss,
                       total_loss_frozen)
from otdistill import core, seq_ot
from otdistill.composite import _forward, _kept_logits, _softmax_backward
from otdistill.core import (_softmax_at, _softmax_held, _softmax_pass,
                            softmax_backward)
from refimpl import _softmax, softmax_by_division

LOSS_RTOL = 1e-12
GRAD_RTOL = 1e-10
COMPONENTS = ("ce", "had", "sl", "sd", "total")

# The error types `otdistill` maps to exit code 3 (InvalidInput, InvalidConfig,
# TooLargeForExact) or 4 (NumericalUnderflow, NumericalFailure).
TYPED = (InvalidInput, InvalidConfig, TooLargeForExact, NumericalUnderflow,
         NumericalFailure)


def _last_axis(shape, cols):
    # The index tuple that fancy-indexes cols[b, t] from row t of item b of
    # a (B, T, V) array; the package takes cols, its third entry, alone.
    return (np.arange(shape[0])[:, None, None], np.arange(shape[1])[:, None],
            cols)


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


# Above about 1e3 softmax rows are one-hot, sums are exact in any order and
# most orderings tie, so half of the draws stay at moderate scales.
SCALES = st.one_of(st.floats(-3.0, 3.0),
                   st.floats(-3.0, 300.0)).map(lambda e: 10.0**e)


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
        dense = _softmax(t, tau, taus)[
            kept(t.shape, rank.teacher_perm, rank.k)]
        assert np.array_equal(probs, dense)
        # and the normalizers give the dense student's entries.
        index = kept(s.shape, rank.student_perm, rank.k)
        top, (total,), _, _ = _softmax_pass(s, (tau,))
        assert np.array_equal(_softmax_at(s, tau, (top, total), index[2]),
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
    arrays = [grad, frozen_grad, _kept_logits(t, built.rank, built.rank_seq)]
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
    dense = [_softmax(z, tau, taus) for tau in taus]
    # Distinct columns per sequence, as a ranking's first k.
    cols = np.argsort(rng.random(z.shape[::2]), axis=-1)
    cols = cols[:, :rng.integers(1, z.shape[2] + 1)]
    index = _last_axis(z.shape, cols[:, None])
    x = dense[1][index] * rng.standard_normal(cols[:, None].shape)
    # The dense formula: each row scaled by -sum(p * g) / tau, plus p * g / tau
    # at the indexed entries.
    expected = dense[1] * (-x.sum(axis=-1, keepdims=True) / taus[1])
    expected[index] += x / taus[1]
    single = fused_outputs(t, s, w)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](*z.shape[1:]))
        top, totals, sums, best = _softmax_pass(z, taus, sums=True, argmax=True)
        bare_top, bare_totals, _, _ = _softmax_pass(z, taus)
        # The backward finishes the softmax a pass at the second
        # temperature alone left in the gradient, here normalized by a
        # pass that ranks.
        gradient = np.empty(z.shape)
        _softmax_pass(z, taus[1:], sums=True, out=gradient)
        streamed = _softmax_backward(z, top, [(totals[1],
                                               [(index[2], x.copy())])],
                                     gradient, taus[1:])
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](*s.shape[1:]))
        blocked = fused_outputs(t, s, w)

    every = _last_axis(z.shape, np.arange(z.shape[2]))
    assert np.array_equal(bare_top, top)
    for probs, tau, total, bare_total, colsum in zip(dense, taus, totals,
                                                      bare_totals, sums):
        assert np.array_equal(_softmax_at(z, tau, (top, total), every[2]),
                              probs)
        assert np.array_equal(bare_total, total)
        assert np.array_equal(colsum, probs.sum(axis=-2))
    assert np.array_equal(best, dense[0].argmax(axis=-1))
    assert np.array_equal(streamed, expected)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, single))


@given(batch=st.integers(1, 4), tokens=st.integers(1, 16),
       vocab=st.integers(2, 12), scale=SCALES,
       taus=st.sampled_from([(1.0, 2.0), (0.5, 1.0), (0.7, 3.0)]),
       blocking=st.sampled_from(sorted(BLOCKINGS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_streamed_backward_equals_the_dense_backward_at_each_temperature(
        batch, tokens, vocab, scale, taus, blocking, seed):
    # A label per row at the first temperature (its index does not
    # broadcast over rows, so a block must take its own rows of it) and
    # distinct columns per sequence at both, as the fused pass has them.
    rng = np.random.default_rng(seed)
    shape = (batch, tokens, vocab)
    z = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 10.0, scale],
                                                shape[:2] + (1,))
    labels = _last_axis(shape, rng.integers(0, vocab, shape[:2] + (1,)))
    cols = np.argsort(rng.random((batch, vocab)), axis=-1)
    cols = _last_axis(shape, cols[:, None, :rng.integers(1, vocab + 1)])
    gradient = np.empty(shape)
    top, totals, _, _ = _softmax_pass(z, taus, out=gradient)
    expected = np.zeros(shape)
    levels = []
    for level, (tau, total) in enumerate(zip(taus, totals)):
        probs = _softmax(z, tau, taus)
        upstream = np.zeros(shape)
        terms = []
        for index in (labels, cols)[level:]:
            g = rng.standard_normal(probs[index].shape)
            upstream[index] += g
            terms.append((index[2], probs[index] * g))
        levels.append((total, terms))
        expected += softmax_backward(probs.reshape(-1, vocab),
                                     upstream.reshape(-1, vocab),
                                     tau).reshape(shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](tokens, vocab))
        streamed = _softmax_backward(z, top, levels, gradient, taus)
    assert_close(streamed, expected, 1e-12)


# The unit roundoff, 2^-53, and the smallest normal float.
U, TINY = np.finfo(float).eps / 2, np.finfo(float).tiny


def division_bound(z, tau, taus=()):
    """The division-form softmax p of z at tau (refimpl.softmax_by_division)
    and a bound, entry by entry, on how far otdistill's may lie from it, in
    a pass at the temperatures taus.

    otdistill computes x = (z - max) * fl(1 / tau), e = exp(x), the row sum
    S of e and p' = e * fl(1 / S), where the division form has x = (z -
    max) / tau and p = e / S. At tau 1 and 2, 1 / tau is exact, so x, e and
    S are the same bits, and p' = (e / S)(1 + d1)(1 + d2) against p = (e /
    S)(1 + d3) with |d| <= u: |p' - p| <= 3u(1 + 2u) p, about 2 ulp. At
    other temperatures x moves by at most 3u|x| (two roundings against
    one), and so e by 3u|x| plus two of exp's errors, at most 1 ulp (2u)
    each (numpy validates float64 exp to 1 ulp). S moves by the mean of
    its entries' moves, weighted by p, where the mean of |x| is at most
    ln V, plus its own roundings, (V - 1)u on each side; normalizing adds
    3u. The bound is u (3|x| + 3 ln V + 2V + 10) p. Entries at or below
    the smallest normal float round to absolute, not relative, precision:
    TINY covers them (and |x| is capped at 746, past which exp is 0).

    Where the pass squares (taus is (1, 2) or (2, 1), and tau is 1), e' =
    fl(exp(x * 1/2)^2) instead. x * 1/2 is exact, exp is within 1 ulp (2u)
    of exp(x / 2), and squaring doubles that error and adds one rounding:
    e' = exp(x)(1 + a) with |a| <= 5u, against e = exp(x)(1 + b), |b| <=
    2u, in the division form, so each entry moves by at most 7u. The row
    sums move by the mean of those moves, 7u, plus their own roundings,
    (V - 1)u on each side, and normalizing adds 3u as above. To first
    order |p' - p| <= u (2V + 15) p; the bound takes u (2V + 16) p, whose
    extra u covers the second-order terms (below 50^2 u^2 for V <= 12).
    Squares below the smallest normal float, and exponentials whose
    square underflows where the division form's exp is 0 (x below about
    -745), are off by a few subnormal steps at most: TINY covers them.
    """
    p = softmax_by_division(z, tau)
    if tau == 1.0 and len(taus) == 2 and 2.0 in taus:
        return p, U * (2 * z.shape[-1] + 16) * p + TINY
    if tau in (1.0, 2.0):
        return p, 3 * U * (1 + 2 * U) * p + TINY
    with np.errstate(over="ignore"):
        x = np.minimum((z.max(axis=-1, keepdims=True) - z) / tau, 746.0)
    vocab = z.shape[-1]
    rel = U * (3 * x + 3 * np.log(vocab) + 2 * vocab + 10)
    return p, rel * p + TINY


@given(batch=st.integers(1, 4), tokens=st.integers(1, 16),
       vocab=st.integers(2, 12), scale=SCALES,
       taus=st.sampled_from([(1.0, 2.0), (2.0, 1.0), (0.7, 3.0), (3.0, 0.7)]),
       blocking=st.sampled_from(sorted(BLOCKINGS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reciprocal_softmax_stays_near_the_division_form(
        batch, tokens, vocab, scale, taus, blocking, seed):
    # The pass, _softmax_at and the backward scale by 1 / tau and each row
    # by its reciprocal sum; the division form divides every entry twice.
    # Both temperatures' softmaxes and backwards are held to division_bound.
    rng = np.random.default_rng(seed)
    shape = (batch, tokens, vocab)
    z = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 10.0, scale],
                                                shape[:2] + (1,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_ENTRIES", BLOCKINGS[blocking](tokens, vocab))
        gradient = np.empty(shape)
        top, totals, _, _ = _softmax_pass(z, taus, sums=True, out=gradient)
        # The first level from what the pass left in the gradient (maybe
        # the gradient itself, all read before the backward writes it).
        got = [_softmax_held(z, taus, 0, (top, totals[0]), gradient)]
        got += [_softmax_at(z, tau, (top, total), out=np.empty(shape))
                for tau, total in zip(taus[1:], totals[1:])]
        # One sparse term per level, as the fused pass keeps them: x = p * g
        # at distinct columns per sequence.
        levels, expected, bound = [], 0.0, 0.0
        for tau, total, probs in zip(taus, totals, got):
            p, near = division_bound(z, tau, taus)
            assert (np.abs(probs - p) <= near).all()
            cols = np.argsort(rng.random((batch, vocab)), axis=-1)
            index = _last_axis(shape, cols[:, None, :rng.integers(1, vocab + 1)])
            x = p[index] * rng.standard_normal(p[index].shape)
            levels.append((total, [(index[2], x.copy())]))
            # The dense backward of the division form, and how far the
            # streamed one may lie from it: the scale times the bound on p,
            # plus a rounding of each product, sum and level on each side.
            row_scale = -x.sum(axis=-1, keepdims=True) / tau
            level = p * row_scale
            level[index] += x / tau
            expected = expected + level
            spread = np.abs(p * row_scale)
            spread[index] += np.abs(x / tau)
            bound = bound + np.abs(row_scale) * near + 6 * U * spread
        streamed = _softmax_backward(z, top, levels, gradient, taus)
    assert (np.abs(streamed - expected) <= bound + TINY).all()


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


# Every public function that takes arrays, as (function, valid arrays): the
# escape sweep below spoils one array at a time, or all of them at once.
_rng = np.random.default_rng(0)
_T_LOGITS, _S_LOGITS = _rng.normal(size=(3, 4)), _rng.normal(size=(3, 5))
_T, _S = od.softmax_rows(_T_LOGITS), od.softmax_rows(_S_LOGITS)
_COST = np.abs(_rng.normal(size=(3, 3)))
_PLAN = od.sinkhorn_plan(_COST)
_STATE = build_state(_T_LOGITS, _S_LOGITS)


def _pair(loss):
    # A function of an aligned pair, given its matrices; sd_grad gets a
    # plan as long as the teacher, so only the pair can be at fault.
    return lambda t, s: loss(AlignedPair(t, s))


API = {
    "validate_logits": (od.validate_logits, _T_LOGITS),
    "validate_probs": (od.validate_probs, _T),
    "softmax_rows": (od.softmax_rows, _T_LOGITS),
    "softmax_backward": (od.softmax_backward, _T, _T),
    "safe_log": (od.safe_log, _T),
    "ce_loss": (lambda p: od.ce_loss(p, [0, 1, 2]), _T),
    "build_state": (od.build_state, _T_LOGITS, _S_LOGITS),
    "total_loss": (od.total_loss, _T_LOGITS, _S_LOGITS),
    "total_grad": (od.total_grad, _T_LOGITS, _S_LOGITS),
    "total_loss_frozen": (lambda t, s: od.total_loss_frozen(_STATE, t, s),
                          _T_LOGITS, _S_LOGITS),
    "sequence_rank_teacher": (od.sequence_rank_teacher, _T),
    "match_student": (od.match_student, _T, _S),
    "match_student_exact": (
        lambda t, s: od.match_student(t, s, EXACT_ASSIGNMENT), _T, _S),
    "align_and_truncate": (lambda t, s: od.align_and_truncate(t, s, 2), _T, _S),
    "align_and_truncate_exact": (
        lambda t, s: od.align_and_truncate(t, s, 2, EXACT_ASSIGNMENT), _T, _S),
    "alignment_cost": (lambda t, s: od.alignment_cost(t, s, np.arange(5)),
                       _T, _S),
    "truncate_topk": (lambda t, s: od.truncate_topk(t, s, 2), _T, _S),
    "had_loss": (_pair(od.had_loss), _T, _T),
    "sl_loss": (_pair(od.sl_loss), _T, _T),
    "seq_cost_matrix": (_pair(od.seq_cost_matrix), _T, _T),
    "sd_grad": (_pair(lambda p: od.sd_grad(p, np.full(p.teacher.shape[:1] * 2,
                                                      0.5))), _T, _T),
    "sd_grad_plan": (lambda plan: od.sd_grad(AlignedPair(_T, _T), plan), _PLAN),
    "uld_loss": (od.uld_loss, _T, _S),
    "uld_grad": (od.uld_grad, _T, _S),
    "sinkhorn_plan": (od.sinkhorn_plan, _COST),
    "sd_loss": (od.sd_loss, _COST, _PLAN),
    "exact_ot": (od.exact_ot, _COST),
    "exact_ot_assignment": (lambda c: od.exact_ot(c, od.ASSIGNMENT), _COST),
    "check_gradient": (od.check_gradient, _T, _T),
    "finite_diff_grad": (lambda x: od.finite_diff_grad(np.sum, x), _T),
}


def _spoiled(x):
    nan, inf = x.copy(), x.copy()
    nan.flat[0], inf.flat[-1] = np.nan, np.inf
    return {"0-D": x[0, 0], "1-D": x[0], "3-D": np.stack([x, x]),
            "zero-row": x[:0], "nan": nan, "inf": inf,
            "ragged": [list(x[0]), list(x[1, :-1])]}


def _faulty_calls(name):
    fn, *good = API[name]
    calls = []
    for i, x in enumerate(good):
        for fault, bad in _spoiled(x).items():
            calls.append((f"arg {i} {fault}", good[:i] + [bad] + good[i + 1:]))
            if len(good) == 2 and i == 0:
                calls.append((f"both {fault}", [bad, _spoiled(good[1])[fault]]))
    if len(good) == 2:
        t, s = good
        calls += [("fewer rows", [t, s[:2]]),
                  ("more columns", [t, np.hstack([s, s])])]
    return [(label, fn, args) for label, args in calls]


def _escapes(calls):
    # The calls that raised anything but an error `otdistill` exits 3 on.
    escaped = []
    for label, fn, args in calls:
        try:
            fn(*args)
        except (InvalidInput, InvalidConfig, TooLargeForExact):
            pass
        except Exception as exc:  # any other error escapes
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    return escaped


@pytest.mark.parametrize("name", sorted(API))
def test_no_raw_error_escapes(name):
    assert _escapes(_faulty_calls(name)) == []


def _not_real(x):
    # x as arrays whose entries are not real numbers.
    return {"string": x.astype(str), "complex": x + 1j,
            "timedelta": x.astype("m8[s]")}


@pytest.mark.parametrize("name", sorted(API))
def test_arrays_of_entries_that_are_not_numbers_raise_invalid_input(name):
    # The escape sweep accepts a return: here an array of strings, complex
    # numbers or timedeltas must not be read as numbers, with no warning.
    fn, *good = API[name]
    for i, x in enumerate(good):
        for bad in _not_real(x).values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInput, match="not an array of "
                                   "numbers"):
                    fn(*good[:i], bad, *good[i + 1:])


@pytest.mark.parametrize("perm", [[0, 1, 2, 3, 9], [0, 0, 1, 2, 3], [0, 1],
                                  [0.0, 1.0, 2.0, 3.0, 4.0], [[0, 1, 2, 3, 4]],
                                  7])
def test_alignment_cost_rejects_a_non_permutation(perm):
    with pytest.raises(InvalidInput, match="permutation"):
        od.alignment_cost(_T, _S, np.asarray(perm))


@pytest.mark.parametrize("cost", [np.zeros((0, 0)), np.zeros((0, 3))])
def test_empty_costs_return_or_exit_3(cost):
    calls = [("sinkhorn_plan", od.sinkhorn_plan, [cost]),
             ("exact_ot", od.exact_ot, [cost]),
             ("sd_loss", od.sd_loss, [cost, cost])]
    assert _escapes(calls) == []


# Every scalar argument or setting of the public API, as (function of the
# value, least valid value, whether that value itself is invalid): None
# where any finite number is valid. Temperatures lie above 1 / float max
# (core._MIN_TAU), where 1 / tau is finite.
SCALARS = {
    "softmax_rows temperature": (
        lambda v: od.softmax_rows(_T_LOGITS, v), core._MIN_TAU, True),
    "softmax_backward temperature": (
        lambda v: od.softmax_backward(_T, _T, v), core._MIN_TAU, True),
    "validate_probs tol": (
        lambda v: od.validate_probs(np.full((2, 4), 0.25), tol=v), 0.0, False),
    "safe_log floor": (lambda v: od.safe_log(_T, floor=v), 0.0, True),
    "finite_diff_grad h": (
        lambda v: od.finite_diff_grad(np.sum, _T, h=v), 0.0, True),
    "check_gradient rel_tol": (
        lambda v: od.check_gradient(_T, _T, rel_tol=v), 0.0, False),
    "check_gradient abs_tol": (
        lambda v: od.check_gradient(_T, _T, abs_tol=v), 0.0, False),
    **{f"LossWeights {name}": (lambda v, name=name: LossWeights(**{name: v}),
                               0.0, False)
       for name in ("alpha", "beta", "gamma")},
    **{f"LossWeights {name}": (lambda v, name=name: LossWeights(**{name: v}),
                               core._MIN_TAU, True)
       for name in ("tau_sl", "tau_sd")},
    "SinkhornConfig regularization": (
        lambda v: SinkhornConfig(regularization=v), 0.0, True),
    "DistillConfig lr": (lambda v: DistillConfig(lr=v), 0.0, False),
    "DistillConfig sharpness": (lambda v: DistillConfig(sharpness=v), None,
                                False),
}

# Values above a setting's range, for the settings that have one.
ABOVE = {"safe_log floor": [1.0, 2.0]}


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_arguments_raise_invalid_config_naming_them(name):
    fn, least, strict = SCALARS[name]
    field = name.split()[-1]
    # A Decimal or a 1-element array is a number to float(), not here.
    bad = ["0.5", None, np.nan, np.inf, -np.inf, 10**400, Decimal("0.5"),
           np.array([0.5]), np.array("0.5")]
    if least is not None:
        # Positive values below a least above 0 too: 1e-310 and the least
        # subnormal are no temperatures.
        bad += [least - 1.0] + [least] * strict + [
            v for v in (5e-324, 1e-310) if v < least]
    bad += ABOVE.get(name, [])
    wrong = []
    for value in bad:
        try:
            fn(value)
            wrong.append(f"{value!r}: returned")
        except InvalidConfig as exc:
            if field not in str(exc):
                wrong.append(f"{value!r}: {exc}")
        except Exception as exc:  # any other error escapes
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert wrong == []
    # Valid values pass as Python floats, numpy scalars, 0-d arrays and
    # Fractions.
    good = 0.5 if least is None else least + 0.5 * strict
    for value in (good, np.float32(good), np.array(good), Fraction(good)):
        fn(value)


# Every integer setting of the public API, as (function of the value,
# least valid value, greatest or None, a valid value, the error it raises
# otherwise): InvalidConfig for a config field, InvalidInput for a
# function argument.
COUNTS = {
    "LossWeights k": (lambda v: LossWeights(k=v), 1, None, 4, InvalidConfig),
    "SinkhornConfig iterations": (
        lambda v: SinkhornConfig(iterations=v), 1, seq_ot.MAX_ITERATIONS, 20,
        InvalidConfig),
    **{f"DistillConfig {name}": (
        lambda v, name=name: DistillConfig(**{name: v}), least, None,
        getattr(DistillConfig(), name), InvalidConfig)
       for name, least in (("seed", 0), ("m", 2), ("n", 2), ("tokens", 1),
                           ("contexts", 1), ("steps", 1))},
    "truncate_topk k": (lambda v: od.truncate_topk(_T, _S, v), 1, None, 2,
                        InvalidInput),
    "align_and_truncate k": (lambda v: od.align_and_truncate(_T, _S, v), 1,
                             None, 2, InvalidInput),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_integer_settings_raise_naming_them(name):
    fn, least, most, good, error = COUNTS[name]
    field = name.split()[-1]
    bad = ["2", None, np.nan, np.inf, -np.inf, 2.5, Fraction(5, 2),
           Decimal(2), np.array([2]), np.array("2"), least - 1, least - 0.5]
    if most is not None:
        bad += [most + 1, 10**30, 1e300]
    wrong = []
    for value in bad:
        try:
            fn(value)
            wrong.append(f"{value!r}: returned")
        except error as exc:
            if field not in str(exc):
                wrong.append(f"{value!r}: {exc}")
        except Exception as exc:  # any other error escapes
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert wrong == []
    # Valid values pass as Python ints and floats holding one, numpy
    # scalars, 0-d arrays and Fractions.
    for value in (good, float(good), np.int64(good), np.float32(good),
                  np.array(good), Fraction(good)):
        fn(value)


@pytest.mark.parametrize("number", [
    Fraction, np.float32, np.int8, np.array,
    lambda v: bool(v) if v in (0, 1) else v],
    ids=["Fraction", "float32", "int8", "array", "bool"])
def test_config_fields_hold_python_floats_and_ints(number):
    # Each config keeps what its rule returns, whatever number type it was
    # given: a Python float for a real setting and an int for a count.
    def build(number):
        sink = SinkhornConfig(number(1), number(20))
        w = LossWeights(*map(number, (1, 0, 1, 1, 2, 4)), sinkhorn=sink)
        return sink, w, DistillConfig(
            *map(number, (3, 20, 15, 1, 32, 5, 1, 6)), weights=w)

    configs = build(number)
    assert configs == build(int)
    for config in configs:
        for f in fields(config):
            if f.type in (int, float):
                assert type(getattr(config, f.name)) is f.type, f.name


def test_settings_of_other_number_types_give_their_floats_bytes():
    # A Fraction or a numpy float32 setting computes what its float
    # computes, bit for bit.
    rng = np.random.default_rng(0)
    t, s = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
    for given, plain in ((dict(alpha=Fraction(3, 20)), dict(alpha=0.15)),
                         (dict(tau_sl=np.float32(0.7)),
                          dict(tau_sl=float(np.float32(0.7)))),
                         (dict(sinkhorn=SinkhornConfig(Fraction(1, 10))),
                          dict(sinkhorn=SinkhornConfig(0.1)))):
        a, b = LossWeights(**given), LossWeights(**plain)
        assert total_loss(t, s, w=a).total == total_loss(t, s, w=b).total
        assert total_grad(t, s, w=a).tobytes() == \
            total_grad(t, s, w=b).tobytes()
    cfg = DistillConfig(m=10, n=7, tokens=4, contexts=16, steps=3)
    expected = run_distillation(cfg)
    for given in (dict(lr=Fraction(1, 2)), dict(sharpness=Fraction(6))):
        got = run_distillation(replace(cfg, **given))
        for name in ("total", "eval_sd"):
            assert getattr(got, name).tobytes() == \
                getattr(expected, name).tobytes()


# Every config or state argument or field of the public API, as (function
# of the value, a config object of another class, whether None is valid).
CONFIGS = {
    "LossWeights sinkhorn": (lambda v: LossWeights(sinkhorn=v), LossWeights(),
                             False),
    "DistillConfig weights": (lambda v: DistillConfig(weights=v),
                              SinkhornConfig(), False),
    "build_state w": (lambda v: build_state(_T_LOGITS, _S_LOGITS, w=v),
                      SinkhornConfig(), False),
    "total_loss w": (lambda v: total_loss(_T_LOGITS, _S_LOGITS, w=v),
                     SinkhornConfig(), False),
    "total_grad w": (lambda v: total_grad(_T_LOGITS, _S_LOGITS, w=v),
                     SinkhornConfig(), False),
    "total_grad state": (lambda v: total_grad(_T_LOGITS, _S_LOGITS, state=v),
                         LossWeights(), True),
    "total_loss_frozen state": (
        lambda v: total_loss_frozen(v, _T_LOGITS, _S_LOGITS), LossWeights(),
        False),
    "total_loss_frozen w": (
        lambda v: total_loss_frozen(_STATE, _T_LOGITS, _S_LOGITS, v),
        SinkhornConfig(), False),
    "sinkhorn_plan cfg": (lambda v: od.sinkhorn_plan(_COST, v), LossWeights(),
                          False),
    "run_distillation cfg": (run_distillation, LossWeights(), False),
    "compare_modes cfg": (od.compare_modes, LossWeights(), False),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_arguments_raise_invalid_config_naming_them(name):
    fn, other, none_valid = CONFIGS[name]
    field = name.split()[-1]
    wrong = []
    for value in [None] * (not none_valid) + ["x", other]:
        try:
            fn(value)
            wrong.append(f"{value!r}: returned")
        except InvalidConfig as exc:
            if field not in str(exc):
                wrong.append(f"{value!r}: {exc}")
        except Exception as exc:  # any other error escapes
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert wrong == []


# A state and spoiled copies of it, one field at a time, as (copy, the
# field its error names, whether NumericalFailure is its error): the copy
# dataclasses.replace makes, which the calls given it check where they
# take it. The teacher's kept logits stay the state's, so each call reaches
# the field.
_rng6 = np.random.default_rng(0)
_T6, _S6 = _rng6.normal(size=(6, 9)), _rng6.normal(size=(6, 7))
_STATE6 = build_state(_T6, _S6)


def _field(name, value):
    return lambda state: replace(state, **{name: value(getattr(state, name))})


def _rank_field(name, value):
    return _field("rank", lambda rank: replace(rank, **{name: value(
        getattr(rank, name))}))


def _entry(i, x):
    # perm with its entry i set to x, or to its entry -x for a negative x.
    def spoil(perm):
        perm = perm.copy()
        perm[i] = perm[-x] if x < 0 else x
        return perm
    return spoil


def _non_finite(x):
    x = x.copy()
    x[0, 0] = np.nan
    return x


STATE_FIELDS = {
    "labels cut": (_field("labels", lambda x: x[:3]), "labels", False),
    "labels long": (_field("labels", lambda x: np.append(x, 0)), "labels",
                    False),
    "labels None": (_field("labels", lambda x: None), "labels", False),
    "labels fractional": (_field("labels", lambda x: x + 0.5), "labels", False),
    "labels out of range": (_field("labels", lambda x: x + 7), "labels", False),
    "labels ragged": (_field("labels", lambda x: [[0], [0, 1]]), "labels",
                      False),
    "plan 3 x 3": (_field("plan", lambda x: x[:3, :3]), "plan", False),
    "plan None": (_field("plan", lambda x: None), "plan", False),
    "teacher cut": (_field("teacher", lambda x: x[:, :2]), "teacher", False),
    "teacher_seq cut": (_field("teacher_seq", lambda x: x[:, :2]),
                        "teacher_seq", False),
    "rank None": (_field("rank", lambda x: None), "rank", False),
    "rank_seq a tuple": (_field("rank_seq", lambda x: (x.teacher_perm,)),
                         "rank_seq", False),
    "student_perm float": (_rank_field("student_perm",
                                       lambda x: x.astype(float)),
                           "student_perm", False),
    "student_perm a list": (_rank_field("student_perm", list),
                            "student_perm", False),
    "teacher_perm out of range": (_rank_field("teacher_perm", _entry(0, 9)),
                                  "teacher_perm", False),
    "teacher_perm cut": (_rank_field("teacher_perm", lambda x: x[:5]),
                         "teacher_perm", False),
    "student column repeated": (_rank_field("student_perm", _entry(1, 0)),
                                "student_perm", False),
    "k 2.5": (_rank_field("k", lambda k: 2.5), "k", False),
    "k 0": (_rank_field("k", lambda k: 0), "k", False),
    "k past the vocabulary": (_rank_field("k", lambda k: 8), "k", False),
    "length": (_field("length", lambda n: n - 1), "token count", False),
    "tau_sl": (_field("tau_sl", lambda tau: tau * 2), "tau_sl", False),
    "tau_sd None": (_field("tau_sd", lambda tau: None), "tau_sd", False),
    "plan nan": (_field("plan", _non_finite), "", True),
    "teacher nan": (_field("teacher", _non_finite), "", True),
    "teacher_seq nan": (_field("teacher_seq", _non_finite), "", True),
}


@pytest.mark.parametrize("name", sorted(STATE_FIELDS))
def test_spoiled_state_fields_raise_naming_them(name):
    spoil, field, numeric = STATE_FIELDS[name]
    state = spoil(_STATE6)
    # Before the check, the repeated student column gave a gradient 29%
    # off the finite differences of total_loss_frozen.
    wrong = []
    for call in (lambda: total_loss_frozen(state, _T6, _S6),
                 lambda: total_grad(_T6, _S6, state=state)):
        try:
            call()
            wrong.append("returned")
        except NumericalFailure as exc:
            if not numeric:
                wrong.append(f"NumericalFailure: {exc}")
        except (InvalidInput, InvalidConfig, TooLargeForExact) as exc:
            if numeric or field not in str(exc):
                wrong.append(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # any other error escapes
            wrong.append(f"{type(exc).__name__}: {exc}")
    assert wrong == []


def test_a_state_of_other_integer_and_float_types_gives_its_bytes():
    # Labels as floats holding integers and permutations of another integer
    # dtype are the state's: every call gives the bytes the state gives.
    other = replace(_STATE6, labels=_STATE6.labels.astype(float),
                    rank=replace(_STATE6.rank, student_perm=_STATE6.rank
                                 .student_perm.astype(np.int32)))

    def outputs(state):
        loss = total_loss_frozen(state, _T6, _S6)
        return [getattr(loss, name) for name in COMPONENTS] + [
            total_grad(_T6, _S6, state=state).tobytes()]

    assert outputs(other) == outputs(_STATE6)


def test_ragged_labels_raise_invalid_input():
    for call in (lambda: total_loss(_T_LOGITS, _S_LOGITS, [[0], [0, 1], [2]]),
                 lambda: od.ce_loss(_T, [[0], [0, 1], [2]])):
        with pytest.raises(InvalidInput, match="labels"):
            call()


# Every string setting of the public API, as (function of the value, the
# error it raises on a value that is none of its choices): InvalidConfig
# for a config field, InvalidInput for a function argument.
CHOICES = {
    "LossWeights match_mode": (lambda v: LossWeights(match_mode=v),
                               InvalidConfig),
    "DistillConfig mode": (lambda v: DistillConfig(mode=v), InvalidConfig),
    "match_student mode": (lambda v: od.match_student(_T, _S, v),
                           InvalidInput),
    "align_and_truncate mode": (
        lambda v: od.align_and_truncate(_T, _S, 2, v), InvalidInput),
    "exact_ot method": (lambda v: od.exact_ot(_COST, v), InvalidInput),
}


@pytest.mark.parametrize("name", sorted(CHOICES))
def test_string_settings_raise_naming_them(name):
    fn, error = CHOICES[name]
    field = name.split()[-1]
    wrong = []
    # An array of strings would make `in` and `==` raise numpy's ValueError.
    for value in (np.array(["a", "b"]), ["a", "b"], None, "x"):
        try:
            fn(value)
            wrong.append(f"{value!r}: returned")
        except error as exc:
            if field not in str(exc):
                wrong.append(f"{value!r}: {exc}")
        except Exception as exc:  # any other error escapes
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert wrong == []
