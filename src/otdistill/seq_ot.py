"""Sequence-level transport: token-to-token cost matrix and Sinkhorn plan.

The cost between token positions i and j is the L1 distance between the
corresponding rows of the aligned truncated matrices. The plan comes from a
fixed number of alternating row/column normalizations of the Gaussian kernel
exp(-C / lambda); its inner product with the cost is the sequence loss.

The private kernels behind the public functions take a leading batch axis
of B sequences of equal length T, so one call handles a whole training
step; the public T x T and T x k functions are their B = 1 case.

Memory is O(B T^2) in the token count T, not O(B T^2 k) in the truncation
width k. The cost is scipy's compiled cityblock distance, written per
sequence into one preallocated B x T x T stack without any T x T x k
temporary. The gradient visits the B x T x T x k signs of the
student/teacher row differences in blocks of teacher rows taken across
the whole batch, each block at most _BLOCK_ENTRIES entries (2^18) or one
teacher row per sequence, whichever is larger, summed into one B x T x k
gradient. The blocks are token-major, with the student token on the last
axis. When the call needs more than one block, the signs come from the
values' dense ranks (_ranks): an int16 subtraction and sign per entry, a
quarter of the float64 traffic, which the plan product reads directly
(each product plan * sign is exact in float64). A call that fits in one
block subtracts the float values themselves, as the sort behind the ranks
would cost more than the whole kernel. Both give the same signs, so the
gradient is the same bit for bit.
Sinkhorn normalizes its one kernel stack in place, and the sequence loss
reduces the plan and the cost per sequence without a T x T product
temporary.

A kernel call runs on one thread per core._THREAD_ENTRIES entries it
touches, at most one per usable core (core._parallel), each thread on
whole rows or whole columns, so no sum is split between threads: the cost
splits each cdist call's teacher rows, each Sinkhorn half-sweep its rows
or its columns (at least two per thread), and the gradient and the ranks
their k axis. The threads share the one block buffer, so memory stays as
above.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import _BLOCK_ENTRIES, _is_count, _parallel, _parts
from .errors import (InvalidConfig, InvalidInput, NumericalFailure,
                     NumericalUnderflow)
from .preprocess import AlignedPair

# _BLOCK_ENTRIES counts the B x T x T x k row-difference signs the gradient
# kernel holds at once; the harness's whole step at the fixture shapes
# (4 x 8 x 8 x 15) is a single block.

# Sweeps a SinkhornConfig allows. Far above the few hundred that near-tied
# costs need to converge (see the README), and low enough that a mistyped
# count ends in an error at once rather than a run that never returns.
MAX_ITERATIONS = 10**5


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropy regularization weight and fixed iteration count."""

    regularization: float = 0.1
    iterations: int = 20

    def __post_init__(self):
        if not np.isfinite(self.regularization) or self.regularization <= 0.0:
            raise InvalidConfig(
                f"regularization must be positive, got {self.regularization}"
            )
        n = self.iterations
        if not _is_count(n) or n > MAX_ITERATIONS:
            raise InvalidConfig(f"iterations must be an integer in "
                                f"[1, {MAX_ITERATIONS}], got {n}")


def _validate_cost(C):
    C = np.asarray(C, dtype=float)
    if C.ndim not in (2, 3) or C.shape[-1] != C.shape[-2]:
        raise InvalidInput("cost must be a square matrix or a stack of them, "
                           f"got shape {C.shape}")
    if C.size == 0:
        raise InvalidInput(f"cost matrix is empty, got shape {C.shape}")
    # min and max propagate nan and expose +-inf, so checking them covers
    # every entry without a boolean temporary of the matrix's size.
    lo, hi = C.min(), C.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInput("cost matrix contains non-finite entries")
    if lo < 0.0:
        raise InvalidInput("cost matrix entries must be nonnegative")
    return C


def seq_cost_matrix(pair: AlignedPair) -> np.ndarray:
    """T x T matrix of L1 distances between teacher row i and student row j."""
    return _cost(pair.teacher[None], pair.student[None])[0]


def _cost(t, s):
    # seq_cost_matrix for each item of a (B, T, k) teacher and student stack,
    # with threads splitting the teacher rows of every cdist call. cdist
    # copies an input that is not C-contiguous, so the students are copied
    # here once rather than by every thread.
    cost = np.empty((t.shape[0], t.shape[1], s.shape[1]))
    s = np.ascontiguousarray(s)

    def rows(r):
        for t_b, s_b, out in zip(t[:, r], s, cost[:, r]):
            cdist(t_b, s_b, "cityblock", out=out)

    _parallel(rows, t.shape[1], _parts(cost.size * t.shape[2]))
    return cost


def sinkhorn_plan(C, cfg: SinkhornConfig = SinkhornConfig()) -> np.ndarray:
    """Alternating row/column normalization of exp(-C / regularization).

    C is one T x T cost or a B x T x T stack of them, each normalized on its
    own. Each iteration normalizes every row to sum 1 and then every column
    to sum 1. What a fixed iteration count promises: the columns sum to 1 up
    to rounding, because a column step comes last; the l1 row residual
    sum_i |rowsum_i - 1| never increases from one iteration to the next; and
    both marginals reach 1 only in the limit (near-tied assignments can need
    hundreds of iterations, see the README). Raises
    NumericalUnderflow if a row or column of the kernel sums to zero, at the
    start or after a sweep rounds its last subnormal entries to zero
    (regularization too small for the cost scale; rescale C or raise it).
    """
    return _plan(_validate_cost(C), cfg)


def _plan(C, cfg):
    # sinkhorn_plan on a nonempty cost or stack the caller has validated.
    # A quotient that overflows to -inf gives the kernel entry its correct 0.
    with np.errstate(over="ignore"):
        K = C / -cfg.regularization
    np.exp(K, out=K)
    # A zero row or column sum, in the initial kernel or once a sweep has
    # rounded the last subnormal entries of one to zero, divides 0 by 0;
    # the nan it leaves is caught after the sweeps.
    # Threaded, one dispatch per half-sweep: the rows, then the columns, at
    # least two each (numpy sums a lone column pairwise, not in row order).
    # A serial call keeps the plain loop: at the harness's (4, 8, 8) plans,
    # two _parallel calls per sweep cost ~20% of the plan (~81 -> ~98 us).
    parts, tokens = _parts(K.size), K.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        if parts == 1:
            for _ in range(int(cfg.iterations)):
                K /= K.sum(axis=-1, keepdims=True)
                K /= K.sum(axis=-2, keepdims=True)
        else:
            for _ in range(int(cfg.iterations)):
                _parallel(lambda r: _normalize(K[..., r, :], -1), tokens,
                          parts)
                _parallel(lambda c: _normalize(K[..., c], -2), tokens,
                          min(parts, tokens // 2))
    if np.isnan(K.max()):
        raise NumericalUnderflow(
            "Sinkhorn kernel underflowed to an all-zero row or column; "
            "increase the regularization weight or rescale the cost matrix"
        )
    return K


def _normalize(K, axis):
    K /= K.sum(axis=axis, keepdims=True)


def sd_loss(C, plan) -> float:
    """Frobenius inner product of the transport plan and the cost matrix.

    Raises NumericalFailure when the value is not finite, as when finite
    terms sum past the float range.
    """
    C = np.asarray(C, dtype=float)
    plan = np.asarray(plan, dtype=float)
    if C.ndim != 2 or C.shape != plan.shape:
        raise InvalidInput(f"shape mismatch: cost {C.shape} vs plan {plan.shape}")
    with np.errstate(over="ignore"):
        value = float(_sd(C[None], plan[None])[0])
    if not np.isfinite(value):
        raise NumericalFailure("the transport value is not finite; rescale "
                               "the cost matrix")
    return value


def _sd(C, plan):
    # sd_loss for each item of a (B, T, T) stack, without a plan-sized
    # product temporary.
    return np.einsum("bij,bij->b", plan, C)


def sd_grad(pair: AlignedPair, plan) -> np.ndarray:
    """Gradient of sd_loss w.r.t. the student matrix, plan held fixed.

    d<P, C>/d student[j, l] = sum_i P[i, j] * sign(student[j, l] - teacher[i, l])
    with sign(0) = 0. Raises InvalidInput for non-finite teacher or student
    entries, whose signs are undefined.
    """
    plan = np.asarray(plan, dtype=float)
    tokens = pair.teacher.shape[0]
    if plan.shape != (tokens, pair.student.shape[0]):
        raise InvalidInput(
            f"plan shape {plan.shape} does not match pair with {tokens} tokens"
        )
    t, s = (np.asarray(x, dtype=float) for x in (pair.teacher, pair.student))
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        raise InvalidInput("aligned pair contains non-finite entries")
    # A difference of finite values past the float range is an infinity of
    # the right sign.
    with np.errstate(over="ignore"):
        return _sd_grad(t[None], s[None], plan[None])[0]


def _ranks(t, s):
    """Dense ranks of a (B, T, k) teacher and student stack's values among
    the 2T values of their item and column: equal values, -0.0 and 0.0
    included, share a rank, so comparing two ranks compares the values.

    Returns (teacher ranks, student ranks), (B, T, k) arrays of int16,
    whose differences stay within +-(2T - 1) <= 32767 while 2T <= 2^15, or
    of int32 beyond.
    """
    tokens = t.shape[1]
    values = np.concatenate((t, s), axis=1)
    dtype = np.int16 if 2 * tokens <= 2**15 else np.int32
    rank = np.zeros(values.shape, dtype)
    ranks = np.empty_like(rank)

    def columns(c):
        # Each column is ranked on its own, so threads split the k axis.
        v, r = values[..., c], rank[..., c]
        order = np.argsort(v, axis=1)
        # Sorted in place rather than gathered through order: ties may sit
        # in any order, as they share a rank.
        v.sort(axis=1)
        np.not_equal(v[:, 1:], v[:, :-1], out=r[:, 1:])
        np.cumsum(r, axis=1, out=r)
        np.put_along_axis(ranks[..., c], order, r, axis=1)

    # A sort touches each of its 2T entries about log2(2T) times.
    _parallel(columns, values.shape[2],
              _parts(values.size * (2 * tokens).bit_length()))
    return ranks[:, :tokens], ranks[:, tokens:]


def _sd_grad(t, s, plan):
    # sd_grad for each item of a (B, T, k) teacher and student stack of
    # finite values and a (B, T, T) plan stack, over blocks of teacher rows
    # whose budget counts the entries of all B items together. The blocks
    # are token-major, signs[b, i, l, j] for student token j last, so the
    # teacher value of (i, l) broadcasts along contiguous memory and the
    # sums build a (B, k, T) gradient, returned as its (B, T, k) view.
    tokens = t.shape[1]
    step = max(1, min(tokens, _BLOCK_ENTRIES // max(1, s.size)))
    if step < tokens:
        t, s = _ranks(t, s)
    else:
        t, s = (np.asarray(x, dtype=float) for x in (t, s))
    s_all = np.ascontiguousarray(s.transpose(0, 2, 1))[:, None]  # (B, 1, k, T)
    t_all = t[..., None]  # (B, T, k, 1)
    batch, width = t.shape[0], s_all.shape[2]
    buf = np.empty(batch * step * width * tokens, t.dtype)
    grad = np.zeros((batch, width, tokens))

    def columns(c):
        # Threads split the k axis, each walking every block of teacher
        # rows in order in its own contiguous part of the shared buffer
        # (strided, numpy's ufuncs would each take scratch buffers), so
        # each sum keeps its order over the blocks.
        part = buf[batch * step * tokens * c.start:
                   batch * step * tokens * c.stop].reshape(
                       batch, step, c.stop - c.start, tokens)
        g = grad[:, c]
        for i in range(0, tokens, step):
            diff = part[:, :min(step, tokens - i)]
            np.subtract(s_all[:, :, c], t_all[:, i:i + step, c], out=diff)
            # np.sign has no branches on int16 and keeps sign(0) = 0 exactly
            # (a float -0.0 adds nothing to the sums). The einsum reads the
            # signs in the compared dtype; each product plan * sign is exact.
            np.sign(diff, out=diff)
            g += np.einsum("bij,bilj->blj", plan[:, i:i + step], diff)

    _parallel(columns, width, _parts(batch * tokens**2 * width))
    return grad.transpose(0, 2, 1)
