"""Token-level transport losses on aligned truncated probability matrices.

Two losses share the identity transport plan on the aligned pair: an absolute
difference loss and a teacher-weighted logarithmic loss. The zero-padded,
per-token-sorted baseline loss is also provided for comparison. Analytic
gradients are with respect to the student entries of the aligned pair;
ranking and truncation are treated as constants under differentiation.
"""

from dataclasses import dataclass

import numpy as np

from .core import PROB_FLOOR, safe_log
from .errors import InvalidInput
from .preprocess import AlignedPair


@dataclass(frozen=True)
class TokenLossGrad:
    """Loss value with its gradient w.r.t. the student matrix of the pair."""

    value: float
    grad: np.ndarray


def had_loss(pair: AlignedPair) -> TokenLossGrad:
    """Elementwise absolute difference loss over the aligned pair.

    value = sum |teacher - student|; gradient entry = sign(student - teacher)
    with sign(0) = 0.
    """
    diff = pair.student - pair.teacher
    return TokenLossGrad(value=float(np.abs(diff).sum()), grad=np.sign(diff))


def sl_loss(pair: AlignedPair, floor=PROB_FLOOR) -> TokenLossGrad:
    """Teacher-weighted negative log of aligned student probabilities.

    value = -sum teacher * log(max(student, floor)); gradient entry is
    -teacher / max(student, floor).
    """
    t, s = pair.teacher, pair.student
    value = -float((t * safe_log(s, floor=floor)).sum())
    grad = -t / np.maximum(s, floor)
    return TokenLossGrad(value=value, grad=grad)


def uld_loss(t, s) -> float:
    """Zero-padded, per-token-sorted absolute difference between matrices.

    Pads the narrower matrix with zero columns to the wider width, sorts each
    token row of both matrices descending independently, and sums the
    elementwise absolute differences. Equals the exact transport cost of the
    padded absolute-difference cost matrix under unit row/column sums.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.ndim != 2 or s.ndim != 2:
        raise InvalidInput("expected 2-D probability matrices")
    if t.shape[0] != s.shape[0]:
        raise InvalidInput(
            f"token counts differ: {t.shape[0]} vs {s.shape[0]}"
        )
    width = max(t.shape[1], s.shape[1])
    t_pad = np.pad(t, ((0, 0), (0, width - t.shape[1])))
    s_pad = np.pad(s, ((0, 0), (0, width - s.shape[1])))
    t_sorted = -np.sort(-t_pad, axis=1)
    s_sorted = -np.sort(-s_pad, axis=1)
    return float(np.abs(t_sorted - s_sorted).sum())


def uld_grad(t, s) -> np.ndarray:
    """Gradient of uld_loss w.r.t. the student matrix entries.

    The per-token sort permutations are constants under differentiation:
    each student entry is compared against the teacher value at the same
    sorted position, so its gradient is the sign of that difference mapped
    back through the student's sort order.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.shape[0] != s.shape[0]:
        raise InvalidInput("token counts differ")
    width = max(t.shape[1], s.shape[1])
    t_pad = np.pad(t, ((0, 0), (0, width - t.shape[1])))
    t_sorted = -np.sort(-t_pad, axis=1)

    # Column j of the stable descending order is the student entry at sorted
    # position j; ties keep ascending column order.
    order = np.argsort(-s, axis=1, kind="stable")
    s_sorted = np.take_along_axis(s, order, axis=1)
    signs = np.sign(s_sorted - t_sorted[:, : s.shape[1]])
    grad = np.empty_like(s)
    np.put_along_axis(grad, order, signs, axis=1)
    return grad
