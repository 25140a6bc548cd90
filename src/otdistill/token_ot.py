"""Token-level transport losses on aligned truncated probability matrices.

Two losses share the identity transport plan on the aligned pair: an absolute
difference loss and a teacher-weighted logarithmic loss. The zero-padded,
per-token-sorted baseline loss is also provided for comparison. Analytic
gradients are with respect to the student entries of the aligned pair;
ranking and truncation are treated as constants under differentiation.
"""

from dataclasses import dataclass

import numpy as np

from .core import PROB_FLOOR, _floor_log, _matrix, safe_log
from .errors import InvalidInput
from .preprocess import AlignedPair, _descending_stable, _same_rows


@dataclass(frozen=True)
class TokenLossGrad:
    """Loss value with its gradient w.r.t. the student matrix of the pair.

    For a (B, T, k) stack of pairs, value holds one loss per pair.
    """

    value: float | np.ndarray
    grad: np.ndarray


def had_loss(pair: AlignedPair) -> TokenLossGrad:
    """Elementwise absolute difference loss over the aligned pair.

    value = sum |teacher - student|; gradient entry = sign(student - teacher)
    with sign(0) = 0.
    """
    t, s = pair.teacher, pair.student
    return TokenLossGrad(value=_had(t, s), grad=_had_grad(t, s))


# The token losses' values and gradients, apart: the fused pass computes a
# gradient only when its objective reads one.
def _had(t, s):
    return _per_pair(np.abs(s - t))


def _had_grad(t, s):
    grad = np.subtract(s, t)
    return np.sign(grad, out=grad)


def sl_loss(pair: AlignedPair, floor=PROB_FLOOR) -> TokenLossGrad:
    """Teacher-weighted negative log of aligned student probabilities.

    value = -sum teacher * log(max(student, floor)); gradient entry is
    -teacher / max(student, floor). Raises InvalidInput for student
    entries outside [0, 1].
    """
    t, s = pair.teacher, pair.student
    return TokenLossGrad(value=_sl(t, s, floor, log=safe_log),
                         grad=_sl_grad(t, s, floor))


def _sl(t, s, floor=PROB_FLOOR, log=_floor_log):
    # The fused pass skips safe_log's checks on the probabilities it has
    # just computed.
    return -_per_pair(t * log(s, floor=floor))


def _sl_grad(t, s, floor=PROB_FLOOR):
    # -t / max(s, floor) in one new array: a quotient rounds the same on
    # either side of zero, so negating it gives the bits of -t's.
    grad = np.maximum(s, floor)
    np.divide(t, grad, out=grad)
    return np.negative(grad, out=grad)


def _per_pair(terms):
    # Sum over the token and column axes: a float for one T x k pair, one
    # value per item for a (B, T, k) stack of pairs.
    total = terms.sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def uld_loss(t, s) -> float:
    """Zero-padded, per-token-sorted absolute difference between matrices.

    Pads the narrower matrix with zero columns to the wider width, sorts each
    token row of both matrices descending independently, and sums the
    elementwise absolute differences. Equals the exact transport cost of the
    padded absolute-difference cost matrix under unit row/column sums.
    Both must be finite matrices with the same number of rows.
    """
    t, s = _same_rows(t, s)
    return float(np.abs(_uld_sorted(t, s.shape[1])
                        - _uld_sorted(s, t.shape[1])).sum())


def uld_grad(t, s) -> np.ndarray:
    """Gradient of uld_loss w.r.t. the student matrix entries.

    The per-token sort permutations are constants under differentiation:
    each student entry is compared against the teacher value at the same
    sorted position, so its gradient is the sign of that difference mapped
    back through the student's sort order. Rows lie along the last axis, so
    (B, T, m) and (B, T, n) stacks give one gradient per pair.
    """
    t, s = (_matrix(x, "probability array", True, None) for x in (t, s))
    if 0 in (t.ndim, s.ndim) or t.shape[:-1] != s.shape[:-1]:
        raise InvalidInput(f"token counts differ: {t.shape} vs {s.shape}")
    return _uld_grad(_uld_sorted(t, s.shape[-1]), s)


def _uld_sorted(t, n):
    # The teacher's half of uld_grad against a student width of n: its rows
    # zero-padded to max(m, n) columns and sorted descending. A frozen
    # teacher's is computed once per run.
    width = max(t.shape[-1], n)
    pad = [(0, 0)] * (t.ndim - 1) + [(0, width - t.shape[-1])]
    return -np.sort(-np.pad(t, pad), axis=-1)


def _uld_grad(t_sorted, s):
    # The student's half of uld_grad, given the teacher's from _uld_sorted.
    # Column j of the stable descending order is the student entry at sorted
    # position j; ties keep ascending column order.
    order = _descending_stable(s)
    s_sorted = np.take_along_axis(s, order, axis=-1)
    signs = np.sign(s_sorted - t_sorted[..., : s.shape[-1]])
    grad = np.empty_like(s)
    np.put_along_axis(grad, order, signs, axis=-1)
    return grad
