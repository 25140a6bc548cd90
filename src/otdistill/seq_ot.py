"""Sequence-level transport: token-to-token cost matrix and Sinkhorn plan.

The cost between token positions i and j is the L1 distance between the
corresponding rows of the aligned truncated matrices. The plan comes from a
fixed number of alternating row/column normalizations of the Gaussian kernel
exp(-C / lambda); its inner product with the cost is the sequence loss.

The private kernels behind the public functions take a leading batch axis
of B sequences of equal length T, so one call handles a whole training
step; the public T x T and T x k functions are their B = 1 case.

Memory is O(B T^2) in the token count T, not O(B T^2 k) in the truncation
width k: the cost and the gradient visit the B x T x T x k teacher/student
row differences in blocks of teacher rows taken across the whole batch, each
block at most _BLOCK_ENTRIES entries (2^18, 2 MB of float64) or one teacher
row per sequence, whichever is larger, written into one preallocated
B x T x T cost or B x T x k gradient. Sinkhorn normalizes its one kernel
stack in place, and the sequence loss reduces the plan and the cost per
sequence without a T x T product temporary.
"""

from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ENTRIES, _is_count
from .errors import InvalidConfig, InvalidInput, NumericalUnderflow
from .preprocess import AlignedPair

# _BLOCK_ENTRIES counts the B x T x T x k row differences the cost and
# gradient kernels hold at once; the harness's whole step at the fixture
# shapes (4 x 8 x 8 x 15) is a single block.

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


def _row_blocks(t, s):
    """Yield (rows, teacher, student, buf) per block of teacher rows of a
    (B, T, k) teacher and student stack: the row slice, those teacher rows
    shaped (B, b, 1, k), the student shaped (B, 1, T, k), and a (B, b, T, k)
    float buffer they broadcast into. The block budget counts the entries
    of all B items together."""
    # Column-gathered inputs are not C-contiguous, and broadcasting over
    # them would read strided memory in every block.
    t = np.ascontiguousarray(t, dtype=float)
    s = np.ascontiguousarray(s, dtype=float)
    tokens = t.shape[1]
    step = max(1, min(tokens, _BLOCK_ENTRIES // max(1, s.size)))
    buf = np.empty((s.shape[0], step) + s.shape[1:])
    for i in range(0, tokens, step):
        rows = slice(i, min(i + step, tokens))
        yield rows, t[:, rows, None, :], s[:, None], buf[:, :rows.stop - i]


def seq_cost_matrix(pair: AlignedPair) -> np.ndarray:
    """T x T matrix of L1 distances between teacher row i and student row j."""
    return _cost(pair.teacher[None], pair.student[None])[0]


def _cost(t, s):
    # seq_cost_matrix for each item of a (B, T, k) teacher and student stack.
    cost = np.empty((t.shape[0], t.shape[1], s.shape[1]))
    for rows, t_rows, s_all, diff in _row_blocks(t, s):
        np.subtract(t_rows, s_all, out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=3, out=cost[:, rows])
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
    NumericalUnderflow if the initial kernel has an all-zero row or column
    (regularization too small for the cost scale; rescale C or raise it).
    """
    return _plan(_validate_cost(C), cfg)


def _plan(C, cfg):
    # sinkhorn_plan on a nonempty cost or stack the caller has validated.
    K = C / -cfg.regularization
    np.exp(K, out=K)
    if K.sum(axis=-1).min() <= 0.0 or K.sum(axis=-2).min() <= 0.0:
        raise NumericalUnderflow(
            "Sinkhorn kernel underflowed to an all-zero row or column; "
            "increase the regularization weight or rescale the cost matrix"
        )
    for _ in range(int(cfg.iterations)):
        K /= K.sum(axis=-1, keepdims=True)
        K /= K.sum(axis=-2, keepdims=True)
    return K


def sd_loss(C, plan) -> float:
    """Frobenius inner product of the transport plan and the cost matrix."""
    C = np.asarray(C, dtype=float)
    plan = np.asarray(plan, dtype=float)
    if C.ndim != 2 or C.shape != plan.shape:
        raise InvalidInput(f"shape mismatch: cost {C.shape} vs plan {plan.shape}")
    return float(_sd(C[None], plan[None])[0])


def _sd(C, plan):
    # sd_loss for each item of a (B, T, T) stack, without a plan-sized
    # product temporary.
    return np.einsum("bij,bij->b", plan, C)


def sd_grad(pair: AlignedPair, plan) -> np.ndarray:
    """Gradient of sd_loss w.r.t. the student matrix, plan held fixed.

    d<P, C>/d student[j, l] = sum_i P[i, j] * sign(student[j, l] - teacher[i, l])
    with sign(0) = 0.
    """
    plan = np.asarray(plan, dtype=float)
    tokens = pair.teacher.shape[0]
    if plan.shape != (tokens, pair.student.shape[0]):
        raise InvalidInput(
            f"plan shape {plan.shape} does not match pair with {tokens} tokens"
        )
    return _sd_grad(pair.teacher[None], pair.student[None], plan[None])[0]


def _sd_grad(t, s, plan):
    # sd_grad for each item of a (B, T, k) teacher and student stack and a
    # (B, T, T) plan stack.
    grad = np.zeros(s.shape)
    for rows, t_rows, s_all, signs in _row_blocks(t, s):  # signs[b, i, j, l]
        # Two comparisons give the sign without branches (np.sign
        # mispredicts on mixed-sign data) and keep sign(0) = 0 exactly.
        np.greater(s_all, t_rows, out=signs)
        signs -= np.less(s_all, t_rows)
        grad += np.einsum("bij,bijl->bjl", plan[:, rows], signs)
    return grad
