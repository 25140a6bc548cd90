"""Temperature softmax and numerically safe elementwise utilities.

All functions are pure and operate on plain numpy arrays: logit matrices are
T x V (rows = tokens, columns = vocabulary dimensions), probability matrices
are row-stochastic of the same shape.
"""

import numpy as np

from .errors import InvalidConfig, InvalidInput

# Floor applied inside logarithms of probabilities; truncation keeps the
# dominant dimensions but underflow can still produce exact zeros.
PROB_FLOOR = 1e-12

ROW_SUM_TOL = 1e-9

# Entries of a row block held at once by the blocked kernels (here and in
# seq_ot): small enough to stay in cache, large enough that per-block numpy
# overhead is negligible.
_BLOCK_ENTRIES = 1 << 18


def _is_count(value):
    # value is an integer >= 1, or a float holding one; nan, inf, fractions
    # and integers too large for a float give False (np.isfinite raises a
    # TypeError on the last).
    try:
        return value == int(value) and value >= 1
    except (OverflowError, TypeError, ValueError):
        return False


def validate_logits(logits):
    """Coerce to a float matrix and enforce logit-matrix invariants.

    Requires a 2-D array with at least one row, at least two columns
    (a 1-dimensional vocabulary makes softmax degenerate), and all
    entries finite.
    """
    arr = np.asarray(logits, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a 2-D logit matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise InvalidInput(f"logit matrix must be at least 1x2, got {arr.shape}")
    # min and max propagate nan and expose +-inf, so checking them covers
    # every entry without a boolean temporary of the matrix's size.
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise InvalidInput("logit matrix contains non-finite entries")
    return arr


def validate_probs(probs, tol=ROW_SUM_TOL):
    """Coerce to a float matrix and enforce row-stochasticity.

    Every entry must lie in [0, 1] and every row must sum to 1 within `tol`.
    """
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a 2-D probability matrix, got ndim={arr.ndim}")
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInput("probability matrix contains non-finite entries")
    if lo < 0.0 or hi > 1.0:
        raise InvalidInput("probability entries must lie in [0, 1]")
    row_sums = arr.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > tol:
        raise InvalidInput("probability rows must sum to 1")
    return arr


def softmax_rows(logits, temperature=1.0):
    """Row-wise temperature softmax with max-subtraction for stability.

    Returns a row-stochastic matrix of the same shape; each output row is
    exp(z / temperature) normalized to sum 1.
    """
    arr = validate_logits(logits)
    tau = float(temperature)
    if not np.isfinite(tau) or tau <= 0.0:
        raise InvalidConfig(f"temperature must be positive, got {temperature}")
    return _softmax(arr, tau)


def _softmax(arr, tau, out=None):
    # Rows lie along the last axis, so a (B, T, V) stack of logit matrices
    # works as well; out, when given, is a free buffer of arr's shape that
    # the result overwrites. Callers have validated arr and tau.
    out = _shifted_exp(arr, arr.max(axis=-1, keepdims=True), tau, out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _shifted_exp(z, top, tau, out=None):
    # exp((z - top) / tau), the numerator of every softmax entry here. The
    # max is subtracted before dividing by tau, so the quotient cannot
    # overflow to inf; entries far below the max may saturate to -inf, whose
    # exp is the correct 0. Dividing by 1 is exact, so it is skipped.
    with np.errstate(over="ignore"):
        out = np.subtract(z, top, out=out)
        if tau != 1.0:
            out /= tau
    return np.exp(out, out=out)


def _row_normalizers(arr, tau):
    """Each row's max and sum of exp((z - max) / tau) for a (B, T, V) stack.

    One pass over blocks of rows, each at most _BLOCK_ENTRIES entries or one
    row, through one reused buffer: no B x T x V array is written. Each row
    is reduced exactly as _softmax reduces it, so _softmax_at returns the
    softmax's own entries bit for bit. Returns two (B, T, 1) arrays.
    """
    top = np.empty(arr.shape[:-1] + (1,))
    total = np.empty_like(top)
    step = max(1, min(arr.shape[1], _BLOCK_ENTRIES // arr.shape[2]))
    buf = np.empty((step, arr.shape[2]))
    for b in range(arr.shape[0]):
        for i in range(0, arr.shape[1], step):
            rows = slice(i, min(i + step, arr.shape[1]))
            np.max(arr[b, rows], axis=-1, keepdims=True, out=top[b, rows])
            block = _shifted_exp(arr[b, rows], top[b, rows], tau,
                                 buf[:rows.stop - i])
            block.sum(axis=-1, keepdims=True, out=total[b, rows])
    return top, total


def _softmax_at(arr, tau, normalizers, index):
    """The entries _softmax(arr, tau) has at index, from _row_normalizers.

    index picks entries of a (B, T, V) stack row by row (the last axis
    last), as preprocess._last_axis builds it.
    """
    top, total = normalizers
    out = _shifted_exp(arr[index], top, tau)
    out /= total
    return out


def softmax_backward(probs, grad_probs, temperature=1.0):
    """Jacobian-vector product of a row softmax at the given temperature.

    Maps a gradient w.r.t. the probabilities to a gradient w.r.t. the raw
    logits they came from.
    """
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner) / float(temperature)


def safe_log(p, floor=PROB_FLOOR):
    """log of a probability (scalar or array) with a positive floor.

    Returns ln(max(p, floor)); monotone nondecreasing in p. Inputs outside
    [0, 1] raise InvalidInput.
    """
    if not 0.0 < floor < 1.0:
        raise InvalidConfig(f"floor must lie in (0, 1), got {floor}")
    arr = np.asarray(p, dtype=float)
    if not np.isfinite(arr).all() or arr.min(initial=0.0) < 0.0 or arr.max(initial=0.0) > 1.0:
        raise InvalidInput("probabilities must lie in [0, 1]")
    out = _floor_log(arr, floor)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _floor_log(p, floor=PROB_FLOOR):
    # safe_log without its checks, for probabilities the caller has just
    # computed from validated logits.
    return np.log(np.maximum(p, floor))
