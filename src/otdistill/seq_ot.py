"""Sequence-level transport: token-to-token cost matrix and Sinkhorn plan.

The cost between token positions i and j is the L1 distance between the
corresponding rows of the aligned truncated matrices. The plan comes from a
fixed number of alternating row/column normalizations of the Gaussian kernel
exp(-C / lambda); its inner product with the cost is the sequence loss.

Memory is O(T^2) in the token count T, not O(T^2 k) in the truncation width
k: the cost and the gradient visit the T x T x k teacher/student row
differences in blocks of teacher rows, each block at most _BLOCK_ENTRIES
entries (2^18, 2 MB of float64) or one teacher row, whichever is larger,
written into one preallocated T x T cost or T x k gradient. Sinkhorn
normalizes its one T x T kernel in place.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidInput, NumericalUnderflow
from .preprocess import AlignedPair

# Entries of T x T x k row differences held at once by seq_cost_matrix and
# sd_grad: small enough to stay in cache, large enough that per-block numpy
# overhead is negligible, and a single block at the fixture shapes.
_BLOCK_ENTRIES = 1 << 18


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
        if not np.isfinite(n) or n != int(n) or n < 1:
            raise InvalidConfig(f"iterations must be an integer >= 1, got {n}")


def _validate_cost(C):
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidInput(f"cost matrix must be square, got shape {C.shape}")
    # min and max propagate nan and expose +-inf, so checking them covers
    # every entry without a boolean temporary of the matrix's size.
    lo, hi = C.min(), C.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInput("cost matrix contains non-finite entries")
    if lo < 0.0:
        raise InvalidInput("cost matrix entries must be nonnegative")
    return C


def _row_blocks(pair: AlignedPair):
    """Yield (rows, teacher, student, buf) per block of teacher rows: the
    row slice, those teacher rows shaped (b, 1, k), the T x k student, and a
    (b, T, k) float buffer they broadcast into."""
    # Column-gathered inputs are not C-contiguous, and broadcasting over
    # them would read strided memory in every block.
    t = np.ascontiguousarray(pair.teacher, dtype=float)
    s = np.ascontiguousarray(pair.student, dtype=float)
    step = max(1, min(t.shape[0], _BLOCK_ENTRIES // max(1, s.size)))
    buf = np.empty((step,) + s.shape)
    for i in range(0, t.shape[0], step):
        rows = slice(i, min(i + step, t.shape[0]))
        yield rows, t[rows, None, :], s, buf[:rows.stop - i]


def seq_cost_matrix(pair: AlignedPair) -> np.ndarray:
    """T x T matrix of L1 distances between teacher row i and student row j."""
    cost = np.empty((pair.teacher.shape[0], pair.student.shape[0]))
    for rows, t, s, diff in _row_blocks(pair):
        np.subtract(t, s, out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=2, out=cost[rows])
    return cost


def sinkhorn_plan(C, cfg: SinkhornConfig = SinkhornConfig()) -> np.ndarray:
    """Alternating row/column normalization of exp(-C / regularization).

    Each iteration normalizes every row to sum 1 and then every column to
    sum 1. What a fixed iteration count promises: the columns sum to 1 up to
    rounding, because a column step comes last; the l1 row residual
    sum_i |rowsum_i - 1| never increases from one iteration to the next; and
    both marginals reach 1 only in the limit (near-tied assignments can need
    hundreds of iterations, see the README). Raises
    NumericalUnderflow if the initial kernel has an all-zero row or column
    (regularization too small for the cost scale; rescale C or raise it).
    """
    C = _validate_cost(C)
    K = C / -cfg.regularization
    np.exp(K, out=K)
    if K.sum(axis=1).min() <= 0.0 or K.sum(axis=0).min() <= 0.0:
        raise NumericalUnderflow(
            "Sinkhorn kernel underflowed to an all-zero row or column; "
            "increase the regularization weight or rescale the cost matrix"
        )
    for _ in range(int(cfg.iterations)):
        K /= K.sum(axis=1, keepdims=True)
        K /= K.sum(axis=0, keepdims=True)
    return K


def sd_loss(C, plan) -> float:
    """Frobenius inner product of the transport plan and the cost matrix."""
    C = np.asarray(C, dtype=float)
    plan = np.asarray(plan, dtype=float)
    if C.shape != plan.shape:
        raise InvalidInput(f"shape mismatch: cost {C.shape} vs plan {plan.shape}")
    return float((plan * C).sum())


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
    grad = np.zeros(pair.student.shape)
    for rows, t, s, signs in _row_blocks(pair):  # signs[i, j, l]
        # Two comparisons give the sign without branches (np.sign
        # mispredicts on mixed-sign data) and keep sign(0) = 0 exactly.
        np.greater(s, t, out=signs)
        signs -= np.less(s, t)
        grad += np.einsum("ij,ijl->jl", plan[rows], signs)
    return grad
