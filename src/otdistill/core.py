"""Temperature softmax and numerically safe elementwise utilities.

All functions are pure and operate on plain numpy arrays: logit matrices are
T x V (rows = tokens, columns = vocabulary dimensions), probability matrices
are row-stochastic of the same shape. The private kernels behind the fused
loss take (B, T, V) stacks; _softmax_pass walks one in cache-sized blocks
and returns only what its caller reads, each value bit-identical to the
dense _softmax.
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


def _blocks(shape):
    """The (items, rows) slices that cover a (B, T, V) stack in blocks of at
    most _BLOCK_ENTRIES entries: as many whole sequences as fit, or, when
    one does not, runs of rows of one sequence (at least one row)."""
    batch, tokens, vocab = shape
    if tokens * vocab <= _BLOCK_ENTRIES:
        step = _BLOCK_ENTRIES // (tokens * vocab)
        return [(slice(b, min(b + step, batch)), slice(0, tokens))
                for b in range(0, batch, step)]
    step = max(1, _BLOCK_ENTRIES // vocab)
    return [(slice(b, b + 1), slice(i, min(i + step, tokens)))
            for b in range(batch) for i in range(0, tokens, step)]


def _softmax_pass(arr, taus, out=(), sums=False, argmax=False):
    """One pass over a (B, T, V) stack of validated logits at each
    temperature in taus, block by block (see _blocks).

    Each row's max and its difference from it are taken once; at each
    temperature the pass computes exp((z - max) / tau) and its row sum as
    _softmax does, then emits only what the caller asks for: the softmax
    itself into out[i], a (B, T, V) buffer the caller owns (out holds one
    buffer or None per temperature; missing ones are None), each
    sequence's column sums when sums, and the per-row argmax at taus[0]
    when argmax. Column sums add the rows in order, as numpy reduces that
    axis, so every output equals the dense softmax's bit for bit.

    Returns (top, totals, colsums, best): the (B, T, 1) row maxima, one
    (B, T, 1) array of row sums per temperature ((top, totals[i]) are the
    normalizers _softmax_at reads), one (B, V) array of column sums per
    temperature or None, and the (B, T) argmax or None.
    """
    out = tuple(out) + (None,) * (len(taus) - len(out))
    top = np.empty(arr.shape[:-1] + (1,))
    totals = [np.empty_like(top) for _ in taus]
    colsums = [np.zeros(arr.shape[::2]) for _ in taus] if sums else None
    best = np.empty(arr.shape[:-1], dtype=np.intp) if argmax else None
    blocks = _blocks(arr.shape)
    bufs = [np.empty(arr[blocks[0]].shape) if o is None else None for o in out]
    for block in blocks:
        z = arr[block]
        np.max(z, axis=-1, keepdims=True, out=top[block])
        exps = [o[block] if o is not None else buf[:z.shape[0], :z.shape[1]]
                for o, buf in zip(out, bufs)]
        with np.errstate(over="ignore"):
            np.subtract(z, top[block], out=exps[0])
            for e, tau in zip(exps[1:], taus[1:]):
                np.divide(exps[0], tau, out=e)
            if taus[0] != 1.0:
                exps[0] /= taus[0]
        for i, e in enumerate(exps):
            np.exp(e, out=e)
            total = totals[i][block]
            e.sum(axis=-1, keepdims=True, out=total)
            if out[i] is None and not sums and not (argmax and i == 0):
                continue
            e /= total
            if sums:
                acc = colsums[i][block[0]]
                if e.shape[1] == arr.shape[1]:
                    e.sum(axis=-2, out=acc)
                else:
                    for row in e[0]:
                        acc[0] += row
            if argmax and i == 0:
                np.argmax(e, axis=-1, out=best[block])
    return top, totals, colsums, best


def _softmax_at(arr, tau, normalizers, index):
    """The entries _softmax(arr, tau) has at index, from the normalizers
    (top, total) of _softmax_pass.

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
