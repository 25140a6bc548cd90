"""Independent reference routines used only by the tests."""

import itertools

import numpy as np

from otdistill.core import _softmax_at


def brute_force_min_transport(C):
    """Minimum of sum_i C[i, perm(i)] over all permutations, by enumeration."""
    n = C.shape[0]
    idx = np.arange(n)
    return min(
        float(C[idx, list(perm)].sum()) for perm in itertools.permutations(range(n))
    )


def two_by_two_sinkhorn_limit(off_diag_cost, lam):
    """Closed-form Sinkhorn fixed point for cost [[0, c], [c, 0]].

    The limit is [[a, 1-a], [1-a, a]] with a = 1 / (1 + exp(-c / lam)).
    """
    a = 1.0 / (1.0 + np.exp(-off_diag_cost / lam))
    return np.array([[a, 1.0 - a], [1.0 - a, a]])


def sinkhorn_scaling_form(C, lam, iterations):
    """Diagonal-scaling formulation of the alternating normalization."""
    K = np.exp(-C / lam)
    n = C.shape[0]
    v = np.ones(n)
    for _ in range(iterations):
        u = 1.0 / (K @ v)
        v = 1.0 / (K.T @ u)
    return np.diag(u) @ K @ np.diag(v)


def sinkhorn_by_normalization(C, lam, iterations, parts=1):
    """The plan of alternating row and column normalization, computed by
    rewriting the kernel exp(-C / lam) in place, sweep by sweep, for one
    T x T cost or a B x T x T stack. This is how otdistill.seq_ot built its
    plan before the scaling form, both of its paths: parts=1 is the serial
    loop, parts > 1 the row-split path of its threaded sweeps, run here one
    slice after another (each slice of rows divided by the previous column
    sums, or the kernel computed, then by its own row sums; the column sums
    taken over the whole stack between sweeps). The two give the same
    bytes. A zero row or column sum leaves nan in the plan."""
    C = np.asarray(C, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if parts == 1:
            K = np.exp(np.divide(C, -lam))
            for _ in range(iterations):
                K /= K.sum(axis=-1, keepdims=True)
                K /= K.sum(axis=-2, keepdims=True)
            return K
        K = np.empty_like(C)
        tokens = C.shape[-2]
        bounds = [tokens * i // parts for i in range(parts + 1)]
        for i in range(iterations + 1):
            for a, b in zip(bounds, bounds[1:]):
                rows = K[..., a:b, :]
                if i == 0:
                    np.exp(np.divide(C[..., a:b, :], -lam), out=rows)
                else:
                    rows /= colsums
                if i < iterations:
                    rows /= rows.sum(axis=-1, keepdims=True)
            if i < iterations:
                colsums = K.sum(axis=-2, keepdims=True)
        return K


def sd_grad_by_comparison(t, s, plan, block_entries):
    """The sequence-level gradient from float comparisons, over the same
    blocks of teacher rows as otdistill.seq_ot._sd_grad under a budget of
    block_entries: sum_i plan[b, i, j] * sign(s[b, j, l] - t[b, i, l]) for
    (B, T, k) teacher and student stacks and a (B, T, T) plan stack, with
    sign(0) = 0 and -0.0 equal to 0.0."""
    t = np.ascontiguousarray(t, dtype=float)
    s_all = np.ascontiguousarray(s, dtype=float)[:, None]
    tokens = t.shape[1]
    step = max(1, min(tokens, block_entries // 2 // (t.shape[0] * tokens)))
    buf = np.empty((t.shape[0], step) + s.shape[1:])
    grad = np.zeros(s.shape)
    for i in range(0, tokens, step):
        rows = slice(i, min(i + step, tokens))
        t_rows = t[:, rows, None, :]
        signs = buf[:, :rows.stop - i]
        np.greater(s_all, t_rows, out=signs)
        signs -= np.less(s_all, t_rows)
        grad += np.einsum("bij,bijl->bjl", plan[:, rows], signs)
    return grad


def _softmax(arr, tau, taus=()):
    """The dense temperature softmax along the last axis of a logit matrix
    or (B, T, V) stack, as a pass at the temperatures taus computes it at
    tau: exp((z - max) * (1 / tau)), then each row times the reciprocal of
    its sum. Where the pass has two temperatures and the other is exactly
    2 tau, the exponentials are instead those at 2 tau, squared.
    otdistill computes every softmax entry in blocks (core._softmax_pass,
    core._softmax_at); the tests hold those to this, bit for bit."""
    squared = len(taus) == 2 and 2.0 * tau in taus
    scale = 2.0 * tau if squared else tau
    with np.errstate(over="ignore"):
        out = np.subtract(arr, arr.max(axis=-1, keepdims=True))
        if scale != 1.0:
            out *= 1.0 / scale
    np.exp(out, out=out)
    if squared:
        out *= out
    out *= 1.0 / out.sum(axis=-1, keepdims=True)
    return out


def softmax_by_division(arr, tau):
    """The dense softmax as otdistill computed it before it scaled by
    reciprocals: exp((z - max) / tau), then each row divided by its sum,
    two divisions per entry. The tests bound how far _softmax (and so the
    package) may stray from it."""
    with np.errstate(over="ignore"):
        out = np.subtract(arr, arr.max(axis=-1, keepdims=True))
        if tau != 1.0:
            out /= tau
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def backward_by_levels(z, top, levels, taus):
    """The fused pass's streamed backward (core._softmax_backward) level by
    level and whole: each level's softmax recomputed from its normalizers
    by core._softmax_at, the arithmetic of the pass that writes it (exp,
    then each row times its reciprocal sum), then times its rows' scale
    -(sum of x) / tau, plus x / tau at its columns, and the levels summed
    in order. levels and taus are as the backward takes them, level i
    (total, terms) at taus[i] with terms (cols, x), and are not written."""
    grad = None
    for tau, (total, terms) in zip(taus, levels):
        inner = sum(x.sum(axis=-1, keepdims=True) for _, x in terms)
        probs = _softmax_at(z, tau, (top, total), out=np.empty(z.shape))
        probs *= -inner / tau
        for cols, x in terms:
            if cols is None:
                probs += x / tau
            else:
                probs[np.arange(z.shape[0])[:, None, None],
                      np.arange(z.shape[1])[:, None], cols] += x / tau
        grad = probs if grad is None else grad + probs
    return grad
