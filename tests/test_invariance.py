"""The paper's claim that the method needs no dimensional or token-by-token
correspondence, as properties over generated inputs.

- The sequence level ignores token order: permuting the rows and the
  columns of a cost permutes its Sinkhorn plan the same way.
- The fused loss and gradient ignore vocabulary order: permuting the
  teacher's and the student's columns independently, with the labels
  mapped, keeps every component and the selections, and permutes the
  gradient's columns.
- They ignore token order: one permutation of the teacher's, the student's
  and the labels' tokens keeps every component and permutes the gradient's
  rows.
- A student equal to its teacher is at zero token distance, and its sharp
  sequence loss is positive: the entropic plan's bias.

Invariance ends at ties. A tie at the rank cut resolves by column index, so
a permutation may keep another tied column: inputs are drawn with no two
column sums within rounding of each other. Under exact matching an L1
assignment can tie exactly, and the solver picks by index: inputs are
drawn with one optimal assignment. The token level pairs rows by index, so
the student's tokens alone are not interchangeable there.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from otdistill import (EXACT_ASSIGNMENT, SUM_SORT, LossWeights,
                       SinkhornConfig, sinkhorn_plan, softmax_rows,
                       total_grad, total_loss)
from otdistill.composite import COMPONENTS
from otdistill.preprocess import ASSIGNMENT_LIMIT

EPS = np.finfo(float).eps


@given(tokens=st.integers(8, 600), regularization=st.floats(0.01, 0.1),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permuted_tokens_permute_the_plan(tokens, regularization, seed):
    # sinkhorn_plan(C[p][:, q]) is sinkhorn_plan(C)[p][:, q] for independent
    # row and column permutations p and q. The two compute the same
    # iterates from v = 1 and differ only in the order of each product's
    # sum of T positive terms, within T eps relative; a sweep takes two
    # such products, and Sinkhorn's map does not expand Hilbert's
    # projective metric, so no sweep's rounding grows in later ones:
    # 2 iterations T eps, entry by entry.
    rng = np.random.default_rng(seed)
    C = rng.random((tokens, tokens))
    p, q = rng.permutation(tokens), rng.permutation(tokens)
    cfg = SinkhornConfig(regularization)
    bound = 2 * cfg.iterations * tokens * np.finfo(float).eps
    np.testing.assert_allclose(sinkhorn_plan(C[p][:, q], cfg),
                               sinkhorn_plan(C, cfg)[p][:, q],
                               rtol=bound, atol=0)


@st.composite
def logit_pairs(draw):
    """(teacher, student, labels or None, weights): T x m and T x n logits
    of random normals at one scale, with a random truncation width k. Exact
    matching gets widths up to ASSIGNMENT_LIMIT."""
    mode = draw(st.sampled_from([SUM_SORT, EXACT_ASSIGNMENT]))
    most = ASSIGNMENT_LIMIT if mode == EXACT_ASSIGNMENT else 400
    tokens = draw(st.integers(1, 24))
    m, n = draw(st.integers(2, most)), draw(st.integers(2, most))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 3.0]))
    t = rng.standard_normal((tokens, m)) * scale
    s = rng.standard_normal((tokens, n)) * scale
    labels = rng.integers(0, n, tokens) if draw(st.booleans()) else None
    w = LossWeights(k=draw(st.integers(1, 60)), match_mode=mode)
    return t, s, labels, w


def tie_free(z, w):
    # No two columns of z whose probability sums, at either temperature,
    # lie within rounding of each other, so two computations of a ranking
    # cannot order them differently. Each sum is within (V + T + 2) eps of
    # its exact value, relative to the largest, for V columns and T tokens
    # (the softmax's row sum of V terms, its reciprocal and product, and
    # the column sum of T); two sums whose gap is over twice that, on
    # either side, keep their order.
    tokens, vocab = z.shape
    for tau in (w.tau_sl, w.tau_sd):
        sums = np.sort(softmax_rows(z, tau).sum(axis=0))
        if (np.diff(sums) <= 4 * (vocab + tokens + 2) * EPS * sums[-1]).any():
            return False
    return True


def unique_match(t, s, w):
    # Under exact matching, no other assignment of the min(m, n) ranked
    # teacher columns at either temperature within rounding of the best
    # one's L1 cost. Such ties are not rare: where one column lies above
    # two others at every token, the two cost the same against it. Each
    # matched pair is forbidden in turn; a unique optimum then costs more.
    # Each cost entry, at most 2 T, sums T differences of probabilities
    # within (V + 2) eps, relative, and a total adds r entries: twice that
    # rounding, on each side, bounds how close two distinct totals come.
    if w.match_mode != EXACT_ASSIGNMENT:
        return True
    tokens, r = t.shape[0], min(t.shape[1], s.shape[1])
    for tau in (w.tau_sl, w.tau_sd):
        a, b = softmax_rows(t, tau), softmax_rows(s, tau)
        head = a[:, np.argsort(-a.sum(axis=0), kind="stable")[:r]]
        cost = cdist(head.T, b.T, "cityblock")
        rows, cols = linear_sum_assignment(cost)
        best = cost[rows, cols].sum()
        margin = 4 * (max(t.shape[1], s.shape[1]) + tokens + r + 2) * EPS * (
            2 * tokens * r)
        for i, j in zip(rows, cols):
            other = cost.copy()
            other[i, j] = np.inf
            rows2, cols2 = linear_sum_assignment(other)
            if other[rows2, cols2].sum() <= best + margin:
                return False
    return True


def bounds(b, tokens, w, delta):
    """Bounds on how far two calls' components, and their gradients entry
    by entry, may lie apart, when each probability one computes is within
    a relative delta of the other's (0: the same bits) and each sum runs
    over the same terms, in any order. To first order, with u = eps / 2:

    - a sum of N terms rounds within (N - 1) u of its exact value on each
      side; N is T for ce, T k for had and sl (kept rows sum to at most 1)
      and T^2 for sd;
    - ce moves by delta per log (plus log's 1 ulp), had by delta (t + s)
      per entry, sl by delta t + delta t |log s| (plus a product and a log);
    - a cost entry, a cityblock sum of k kept entries per row, moves by
      c = 2 (delta + (k + 1) eps); the kernel exp(-C / lambda) by
      kappa = (c + 2 eps) / lambda + 2 eps, relative. A sweep's two
      products of T terms each add kappa and T + 1 rounding on each side,
      and the plan diag(u) K diag(v) one more: pi = (2 iterations + 1)
      (kappa + (T + 1) eps). With delta = 0 both calls build the same
      kernel entries and c = kappa = 0. sd = sum P C then moves by
      pi sd + c T (the plan's columns sum to 1);
    - a gradient entry is sum over levels of (h_j - p_j H) / tau, h = p g
      the sparse products of a level, H their sum over its k + 1 columns.
      At tau_sl |h| sums to at most A = 1 + alpha (1 + beta) (the label's
      -1, alpha (p + beta t) per kept entry) and moves by 2 delta + 3 eps
      relative; at tau_sd to A = alpha gamma (a plan column sums to 1)
      and by delta + pi + T eps. An entry moves by at most (A / tau) (2
      rho + delta + 2 (k + 8) eps) at a level whose terms move by rho;
      with delta = 0 the tau_sl level's terms are the same bits, and so is
      its share.

    Returns ({component: bound}, gradient bound) about the reference
    breakdown b, over T tokens."""
    k, cfg = b.k_eff, w.sinkhorn
    c = 2 * (delta + (k + 1) * EPS) if delta else 0.0
    kappa = (c + 2 * EPS) / cfg.regularization + 2 * EPS if delta else 0.0
    pi = (2 * cfg.iterations + 1) * (kappa + (tokens + 1) * EPS)
    near = {
        "ce": tokens * delta + (tokens + 1) * EPS * b.ce,
        "had": 2 * tokens * delta + (tokens * k + 1) * EPS * b.had,
        "sl": tokens * delta + (delta + (tokens * k + 3) * EPS) * b.sl,
        "sd": (pi + (tokens**2 + 2) * EPS) * b.sd + c * tokens,
    }
    # The total: the weighted bounds, and its own four roundings on each
    # side.
    near["total"] = near["ce"] + w.alpha * (
        near["had"] + w.beta * near["sl"] + w.gamma * near["sd"]) + (
        10 * EPS * b.total)

    def level(a, tau, rho):
        return a / tau * (2 * rho + delta + 2 * (k + 8) * EPS)

    grad = level(w.alpha * w.gamma, w.tau_sd, delta + pi + tokens * EPS)
    if delta:
        grad += level(1 + w.alpha * (1 + w.beta), w.tau_sl,
                      2 * delta + 3 * EPS)
    return near, grad


def assert_same_loss(got, expected, near):
    for name in COMPONENTS:
        assert abs(getattr(got, name) - getattr(expected, name)) <= near[
            name], name


@given(case=logit_pairs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_permuted_columns_keep_the_loss_and_permute_the_gradient(case, seed):
    # t[:, p] and s[:, q], with each label l mapped to its new column
    # inverse(q)[l]: the same components, the same selections in the new
    # column indices, and the gradient's columns permuted by q. The
    # softmaxes' row sums add the same terms in another order, so each
    # probability moves by up to delta = (V + 2) eps relative at width V
    # (V - 1 roundings of the row sum on each side, its reciprocal and the
    # product); the selections move not at all on tie-free inputs.
    t, s, labels, w = case
    assume(tie_free(t, w) and tie_free(s, w) and unique_match(t, s, w))
    rng = np.random.default_rng(seed)
    (tokens, m), n = t.shape, s.shape[1]
    p, q = rng.permutation(m), rng.permutation(n)
    inverse_p, inverse_q = np.argsort(p), np.argsort(q)
    moved = None if labels is None else inverse_q[labels]

    expected = total_loss(t, s, labels, w)
    got = total_loss(t[:, p], s[:, q], moved, w)
    near, grad_near = bounds(expected, tokens, w, (max(m, n) + 2) * EPS)
    assert_same_loss(got, expected, near)
    # Exact matching appends the unmatched student columns in index order,
    # which a permutation reorders; the min(m, n) matched ones carry over.
    r = min(m, n)
    for rank, ranked in ((got.rank, expected.rank),
                         (got.rank_seq, expected.rank_seq)):
        np.testing.assert_array_equal(inverse_p[ranked.teacher_perm],
                                      rank.teacher_perm)
        np.testing.assert_array_equal(inverse_q[ranked.student_perm[:r]],
                                      rank.student_perm[:r])
    np.testing.assert_allclose(total_grad(t[:, p], s[:, q], moved, w),
                               total_grad(t, s, labels, w)[:, q],
                               rtol=0, atol=grad_near)


@given(case=logit_pairs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_permuted_tokens_keep_the_loss_and_permute_the_gradient(case, seed):
    # t[r], s[r] and labels[r]: the same components and the gradient's rows
    # permuted by r. Every probability is the same bits, row by row, and
    # the column sums only rank, which tie-free inputs keep; what moves is
    # the order of each sum over tokens and the plan, by its own rounding.
    t, s, labels, w = case
    assume(tie_free(t, w) and tie_free(s, w) and unique_match(t, s, w))
    r = np.random.default_rng(seed).permutation(t.shape[0])
    moved = None if labels is None else labels[r]

    expected = total_loss(t, s, labels, w)
    got = total_loss(t[r], s[r], moved, w)
    near, grad_near = bounds(expected, t.shape[0], w, 0.0)
    assert_same_loss(got, expected, near)
    np.testing.assert_allclose(total_grad(t[r], s[r], moved, w),
                               total_grad(t, s, labels, w)[r],
                               rtol=0, atol=grad_near)


@given(case=logit_pairs())
@settings(max_examples=40, deadline=None)
def test_a_student_equal_to_its_teacher_is_at_zero_token_distance(case):
    # At m = n with equal logits both sides compute the same softmaxes and
    # rankings, so the kept columns pair each column with itself: had is 0.
    # The sharp sequence loss reads the entropic plan, which keeps mass off
    # the diagonal wherever two tokens' kept rows differ: sd > 0 at T >= 2.
    t, _, labels, w = case
    assume(t.shape[0] >= 2 and tie_free(t, w))
    breakdown = total_loss(t, t.copy(), None if labels is None
                           else labels % t.shape[1], w)
    assert breakdown.had == 0.0
    assert breakdown.sd > 0.0
