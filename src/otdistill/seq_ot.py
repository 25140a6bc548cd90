"""Sequence-level transport: token-to-token cost matrix and Sinkhorn plan.

The cost between token positions i and j is the L1 distance between the
corresponding rows of the aligned truncated matrices. The plan comes from a
fixed number of alternating row/column normalizations of the Gaussian kernel
exp(-C / lambda), computed in scaling form (Cuturi 2013; Peyre and Cuturi
2019, section 4.2); its inner product with the cost is the sequence loss.

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
Sinkhorn keeps its one kernel stack K fixed and iterates two scaling
vectors, u = 1 / (K v) and v = 1 / (K^T u), reading K in fixed blocks of
at most _PLAN_ENTRIES entries (2^18), each block's two matrix-vector
products while it is in cache, with consecutive blocks of a sequence
stacked into one matmul call so that numpy releases the GIL around it;
it writes the plan diag(u) K diag(v) into a C-ordered array at the end.
The sequence loss reduces the plan and the cost per sequence without a
T x T product temporary.

A kernel call runs on one thread per core._THREAD_ENTRIES entries it
touches, at most one per usable core, each thread on whole rows or whole
columns (core._walk), so no sum is split between threads: the cost
splits each cdist call's teacher rows, Sinkhorn each sweep's stacks of
blocks (one dispatch per sweep; the calling thread adds the blocks' shares
of K^T u in block order), and the gradient and the ranks their k axis.
The threads share the one block buffer, so memory stays as above.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import (_BLOCK_ENTRIES, _blocks, _check_number, _check_type,
                   _is_count, _matrix, _parts, _slices, _walk)
from .errors import (InvalidConfig, InvalidInput, NumericalFailure,
                     NumericalUnderflow)
from .preprocess import AlignedPair

# _BLOCK_ENTRIES counts the B x T x T x k row-difference signs the gradient
# kernel holds at once; the harness's whole step at the fixture shapes
# (4 x 8 x 8 x 15) is a single block.

# Entries of the kernel one block of a Sinkhorn plan holds, fixed so that
# the plan's bytes depend on neither the core count nor core._BLOCK_ENTRIES.
_PLAN_ENTRIES = 1 << 18

# Entries a matmul call must write for numpy to release the GIL around it
# (numpy 2.4: a Python thread spinning beside a loop of (500, 1024) @
# (1024,) products runs at 0.48 of its idle rate, beside (501, 1024) @
# (1024,) at 0.69 and beside (512, 1024) @ (1024,) at 0.81). Reductions,
# ufuncs and einsum release it at the sizes the kernels here use.
_GIL_ENTRIES = 500

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
        _check_number(self.regularization, "regularization")
        n = self.iterations
        if not _is_count(n) or n > MAX_ITERATIONS:
            raise InvalidConfig(f"iterations must be an integer in "
                                f"[1, {MAX_ITERATIONS}], got {n}")


def seq_cost_matrix(pair: AlignedPair) -> np.ndarray:
    """T x T matrix of L1 distances between teacher row i and student row j
    of a T x k pair (InvalidInput for a stack of pairs)."""
    t, s = (_matrix(x, "aligned pair") for x in (pair.teacher, pair.student))
    return _cost(t[None], s[None])[0]


def _cost(t, s):
    # seq_cost_matrix for each item of a (B, T, k) teacher and student stack,
    # with threads splitting the teacher rows of every cdist call. cdist
    # copies an input that is not C-contiguous, so the students are copied
    # here once rather than by every thread.
    cost = np.empty((t.shape[0], t.shape[1], s.shape[1]))
    s = np.ascontiguousarray(s)

    def rows(r, part):
        for t_b, s_b, out in zip(t[:, r], s, cost[:, r]):
            cdist(t_b, s_b, "cityblock", out=out)

    _walk(rows, _slices(t.shape[1], _parts(cost.size * t.shape[2])))
    return cost


def sinkhorn_plan(C, cfg: SinkhornConfig = SinkhornConfig()) -> np.ndarray:
    """Alternating row/column normalization of exp(-C / regularization).

    C is one T x T cost or a B x T x T stack of them, each normalized on its
    own. Each iteration normalizes every row to sum 1 and then every column
    to sum 1, in scaling form: the kernel K stays fixed, an iteration sets
    u = 1 / (K v) and then v = 1 / (K^T u), and the plan returned is
    diag(u) K diag(v). What a fixed iteration count promises: the columns
    sum to 1 up to rounding, because a column step comes last; the l1 row
    residual sum_i |rowsum_i - 1| never increases from one iteration to the
    next; and both marginals reach 1 only in the limit (near-tied
    assignments can need hundreds of iterations, see the README). Raises
    NumericalUnderflow if a row or column of the kernel sums to zero, at the
    start or once a sweep's scaled products round to zero, or to less than
    1 / float max (regularization too small for the cost scale; rescale C
    or raise it), and InvalidInput unless C is finite, nonnegative and
    nonempty.
    """
    _check_type(cfg, SinkhornConfig, "cfg")
    C = _matrix(C, "cost matrix", finite=True, ndim=None)
    if C.ndim not in (2, 3) or C.shape[-1] != C.shape[-2]:
        raise InvalidInput("cost must be a square matrix or a stack of them, "
                           f"got shape {C.shape}")
    if C.size == 0:
        raise InvalidInput(f"cost matrix is empty, got shape {C.shape}")
    if C.min() < 0.0:
        raise InvalidInput("cost matrix entries must be nonnegative")
    return _plan(C, cfg)


def _plan(C, cfg):
    # sinkhorn_plan on a nonempty cost or stack the caller has validated,
    # from v = 1. K is walked in fixed blocks of at most _PLAN_ENTRIES
    # entries (whole sequences, or runs of rows of one), each sweep one
    # dispatch (core._walk): a block computes its rows of u and its share
    # u_b^T K_b of K^T u while it is in cache, and the calling thread adds
    # the shares in block order. The first dispatch also computes its
    # blocks of K, and the last only writes the plan. The blocks do not
    # depend on the thread count, so neither do the bytes; a block is also
    # below the size at which OpenBLAS splits a matrix-vector product
    # across its own threads.
    #
    # numpy releases the GIL around a matmul only when the call writes
    # more than _GIL_ENTRIES entries, and a run of rows writes one per
    # row. So a walk item stacks the least number of consecutive runs of
    # one sequence whose rows exceed it, (runs, rows, T): numpy makes one
    # BLAS call per run, the same call as for a run alone, and the threads'
    # row products overlap. Runs left after the last such group stack into
    # a smaller one, and a sequence's last run, when shorter, is an item of
    # its own.
    #
    # A zero row or column of K, at the start or once a sweep's scaled
    # products round to zero, makes an entry of u or v infinite (and later
    # nan); so does a row or column sum below 1 / float max. Either is
    # caught after the sweeps: while u and v are finite, so is the plan,
    # and an infinite u or v stays in the iterates to the end.
    iterations = int(cfg.iterations)
    # C-ordered whatever C's layout, so that the stacks below are views
    # and the products' bytes do not depend on the layout.
    K = np.empty(C.shape)
    c, k = C.reshape((-1,) + C.shape[-2:]), K.reshape((-1,) + C.shape[-2:])
    batch, tokens = k.shape[:2]
    blocks = _blocks(k.shape, budget=_PLAN_ENTRIES)
    step = blocks[0][1].stop
    runs = -(-tokens // step)
    u = np.empty((batch, tokens, 1))
    v = np.ones((batch, 1, tokens))
    if runs == 1:
        # Blocks of whole sequences write their shares, which are then all
        # of K^T u, straight into v.
        views = [(c[items], k[items], u[items], v[items], v[items])
                 for items, _ in blocks]
    else:
        shares = np.empty((runs,) + v.shape)
        full, group = tokens // step, _GIL_ENTRIES // step + 1
        spans = [(r, min(r + group, full)) for r in range(0, full, group)]
        if full < runs:
            spans.append((full, runs))
        views = []
        for b in range(batch):
            for first, stop in spans:
                rows = slice(first * step, min(stop * step, tokens))
                stack = (stop - first, -1, tokens)
                views.append((c[b, rows], k[b, rows].reshape(stack),
                              u[b, rows].reshape(stack[:2] + (1,)),
                              v[b:b + 1], shares[first:stop, b]))

    def sweep(view, first, last):
        c_b, k_b, u_b, v_b, share = view
        if first:
            # K = exp(-C / regularization). A quotient that overflows to
            # -inf gives the kernel entry its correct 0.
            np.divide(c_b, -cfg.regularization, out=k_b.reshape(c_b.shape))
            np.exp(k_b, out=k_b)
        if last:
            k_b *= u_b
            k_b *= v_b
            return
        np.matmul(k_b, v_b.transpose(0, 2, 1), out=u_b)
        np.reciprocal(u_b, out=u_b)
        np.matmul(u_b.transpose(0, 2, 1), k_b, out=share)

    parts = _parts(k.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(iterations + 1):
            _walk(lambda view, part: sweep(view, i == 0, i == iterations),
                  views, parts)
            if i < iterations:
                if runs > 1:
                    np.sum(shares, axis=0, out=v)
                np.reciprocal(v, out=v)
    if not (np.isfinite(u.max()) and np.isfinite(v.max())):
        raise NumericalUnderflow(
            "Sinkhorn kernel underflowed to an all-zero row or column; "
            "increase the regularization weight or rescale the cost matrix"
        )
    return K


def sd_loss(C, plan) -> float:
    """Frobenius inner product of the transport plan and the cost matrix.

    Raises InvalidInput unless both are finite T x T matrices of one shape,
    and NumericalFailure when the value of finite terms is not finite, as
    when they sum past the float range.
    """
    C = _matrix(C, "cost matrix", finite=True)
    plan = _matrix(plan, "plan", finite=True)
    if C.shape != plan.shape:
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
    with sign(0) = 0. Raises InvalidInput for a stack of pairs and unless
    the plan is a finite T x T matrix, as sd_loss requires (an AlignedPair
    is finite, so its signs are defined).
    """
    t, s = (_matrix(x, "aligned pair") for x in (pair.teacher, pair.student))
    plan = _matrix(plan, "plan", finite=True)
    if plan.shape != (t.shape[0], s.shape[0]):
        raise InvalidInput(f"plan shape {plan.shape} does not match pair "
                           f"with {t.shape[0]} tokens")
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

    def columns(c, part):
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
    _walk(columns, _slices(values.shape[2],
                           _parts(values.size * (2 * tokens).bit_length())))
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
    s_all = np.ascontiguousarray(s.transpose(0, 2, 1))[:, None]  # (B, 1, k, T)
    t_all = t[..., None]  # (B, T, k, 1)
    batch, width = t.shape[0], s_all.shape[2]
    buf = np.empty(batch * step * width * tokens, t.dtype)
    grad = np.zeros((batch, width, tokens))

    def columns(c, part):
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

    _walk(columns, _slices(width, _parts(batch * tokens**2 * width)))
    return grad.transpose(0, 2, 1)
