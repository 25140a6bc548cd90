"""Temperature softmax and numerically safe elementwise utilities.

All functions are pure and operate on plain numpy arrays: logit matrices are
T x V (rows = tokens, columns = vocabulary dimensions), probability matrices
are row-stochastic of the same shape. _matrix coerces and checks every
public array argument of the package, and the private kernels trust it.
Those behind the fused loss take (B, T, V) stacks; _softmax_pass walks one
in cache-sized blocks, checks the logits as it reads them, and returns only
what its caller reads (given an array, it also writes the first
temperature's softmax there), and _softmax_at computes any softmax entry
from the pass's row normalizers, bit for bit the pass's own. Every softmax
here, softmax_rows included, comes from these two.

The blocked kernels here and in composite and seq_ot split a call across
the cores the process may use (_walk), one thread per _THREAD_ENTRIES
entries the call touches: each thread takes whole rows, whole columns or
whole blocks along one axis (column sums pass between blocks in order),
so no sum is split between threads and every output is the same bit for
bit at any thread count. Only the process's CPU affinity mask caps it.
"""

import os
import threading

import numpy as np

from .errors import InvalidConfig, InvalidInput

# Floor applied inside logarithms of probabilities; truncation keeps the
# dominant dimensions but underflow can still produce exact zeros.
PROB_FLOOR = 1e-12

ROW_SUM_TOL = 1e-9

# The error of a logit matrix with a nan or +-inf, from validate_logits or
# from the pass that checks the logits it reads.
_NON_FINITE = "logit matrix contains non-finite entries"

# Entries of a row block held at once by the blocked kernels (here and in
# seq_ot): small enough to stay in cache, large enough that per-block numpy
# overhead is negligible.
_BLOCK_ENTRIES = 1 << 18

# Entries of a kernel call each thread takes at least: a call touching
# fewer than twice as many stays on the calling thread. Handing slices to
# waiting threads costs tens of microseconds per dispatch. Serial against
# two threads (2 vCPU, numpy 2.4, best of 7 runs at sizes 2^15 to 2^18),
# the kernels break even between 2^16.5 entries (the pass, the sequence
# gradient) and 2^17.5 (the cost); above 2^17.5 every kernel gains. A
# Sinkhorn plan splits only across its fixed blocks of 2^18 kernel entries
# (seq_ot._PLAN_ENTRIES), so below two blocks it stays serial whatever
# this floor; two blocks gain ~25% ((2, 512, 512): 3.1 -> 2.4 ms), while
# blocks of 2^16 or 2^17 entries, which would thread T = 362 to 512, lose
# there (T = 512: 1.4 -> 2.4 and 1.8 ms).
# The floor per thread also bounds numpy's per-call scratch (~130 kB per
# thread for a broadcast subtraction) by the work of the call, not by the
# core count. The harness's steps at its default shapes
# (4 x 8 x 20 logits) stay far below, on the calling thread alone.
_THREAD_ENTRIES = 1 << 16

# The executor behind _walk, of (usable cores - 1) threads: made by the
# first call that goes parallel, never at import, and dropped in a forked
# child, whose copy of it has no threads (with the lock, which a thread of
# the parent may have held at the fork).
_pool = None
_pool_lock = threading.Lock()


def _drop_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _cores():
    # The cores this process may run on.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _parts(entries, width=1):
    """How many slices a kernel call touching `entries` entries splits its
    work into: one per _THREAD_ENTRIES entries, but at most one per usable
    core and at most _BLOCK_ENTRIES // width. A kernel whose threads each
    hold a block of rows `width` entries wide passes that width, so that
    the threads' blocks together hold no more than one block of a serial
    call. A kernel decides this once per call; a call that stays on one
    thread does not ask the system for its cores."""
    parts = entries // _THREAD_ENTRIES
    if parts < 2:
        return 1
    return max(1, min(parts, _cores(), _BLOCK_ENTRIES // width))


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: a process whose calls all stay serial skips
            # the ~8 ms import.
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, _cores() - 1), "otdistill")
        return _pool


def _is_count(value, least=1):
    # value is an integer >= least, or a float holding one; nan, inf,
    # fractions and non-numbers give False (int() raises on nan, inf and
    # most non-numbers, and the comparison fails on the rest).
    try:
        return value == int(value) and value >= least
    except (OverflowError, TypeError, ValueError):
        return False


def _check_temperature(tau, name="temperature"):
    # The one temperature rule; the error names the value's field.
    if not np.isfinite(tau) or tau <= 0.0:
        raise InvalidConfig(f"{name} must be finite and positive, got {tau}")
    return tau


def validate_logits(logits):
    """Coerce to a float matrix and enforce logit-matrix invariants.

    Requires a 2-D array with at least one row, at least two columns
    (a 1-dimensional vocabulary makes softmax degenerate), and all
    entries finite.
    """
    arr = _logit_matrix(logits)
    _check_finite(arr[None])
    return arr


def _logit_matrix(logits):
    # validate_logits without the finiteness check, for logits that a
    # blocked pass (_softmax_pass) checks as it reads them.
    arr = _matrix(logits, "logit matrix")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise InvalidInput(f"logit matrix must be at least 1x2, got {arr.shape}")
    return arr


def _finite_range(lo, hi):
    # min and max propagate nan and expose +-inf, so checking them covers
    # every entry without a boolean temporary of the matrix's size.
    return np.isfinite(lo) and np.isfinite(hi)


def _matrix(x, what, finite=False, ndim=2):
    # x as float64; InvalidInput naming `what` unless it is an array of
    # numbers with ndim dimensions (any for None) and, if finite, no nan/inf.
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{what} is not an array of numbers: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInput(f"expected a {ndim}-D {what}, got ndim={arr.ndim}")
    if finite and not _finite_range(arr.min(initial=0.0), arr.max(initial=0.0)):
        raise InvalidInput(f"{what} contains non-finite entries")
    return arr


def _check_finite(arr):
    # Raise InvalidInput unless the (B, T, V) stack arr is finite, reading
    # each block's min and max while the block is in cache.
    def check(block, part):
        z = arr[block]
        if not _finite_range(z.min(), z.max()):
            raise InvalidInput(_NON_FINITE)
    parts = _parts(arr.size, arr.shape[-1])
    _walk(check, _blocks(arr.shape, parts), parts)


def validate_probs(probs, tol=ROW_SUM_TOL):
    """Coerce to a float matrix and enforce row-stochasticity.

    Requires at least one row; every entry must lie in [0, 1] and every row
    must sum to 1 within `tol`.
    """
    arr = _matrix(probs, "probability matrix")
    if arr.shape[0] < 1:
        raise InvalidInput(f"probability matrix must have a row, got {arr.shape}")
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not _finite_range(lo, hi):
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
    arr = _logit_matrix(logits)
    tau = _check_temperature(float(temperature))
    out = np.empty(arr.shape)
    _softmax_pass(arr[None], (tau,), out=out[None])
    return out


def _shifted_exp(z, top, tau, out=None):
    # exp((z - top) / tau), the numerator of every softmax entry here, in
    # out if given. The max is subtracted before dividing by tau, so the
    # quotient cannot overflow to inf; entries far below the max may
    # saturate to -inf, whose exp is the correct 0. Dividing by 1 is exact,
    # so it is skipped.
    with np.errstate(over="ignore"):
        out = np.subtract(z, top, out=out)
        if tau != 1.0:
            out /= tau
    return np.exp(out, out=out)


def _blocks(shape, parts=1, budget=None):
    """The (items, rows) slices that cover a (B, T, V) stack in blocks of at
    most budget // parts entries (budget defaults to _BLOCK_ENTRIES): as
    many whole sequences as fit, or, when one does not, runs of rows of one
    sequence (at least one row). Where the stack has as many rows, there
    are at least `parts` blocks, so that every thread of _walk gets one."""
    batch, tokens, vocab = shape
    budget = (_BLOCK_ENTRIES if budget is None else budget) // parts
    if tokens * vocab <= budget and batch >= parts:
        step = min(budget // (tokens * vocab), batch // parts)
        return [(slice(b, min(b + step, batch)), slice(0, tokens))
                for b in range(0, batch, step)]
    step = max(1, min(budget // vocab, batch * tokens // parts))
    return [(slice(b, b + 1), slice(i, min(i + step, tokens)))
            for b in range(batch) for i in range(0, tokens, step)]


def _walk(fn, items, parts=None):
    """Call fn(item, part) for every item of items on up to `parts` threads
    (by default one per item): part 0 is the calling thread, and part p a
    thread's share of a block buffer. Each thread takes the first item not
    yet taken, so an item that waits for an earlier one (_softmax_pass's
    column sums) waits for a running thread, however the pool orders
    concurrent calls. Workers run under the caller's np.errstate. Once an
    item raises, no thread takes another, those taken finish, and the
    calling thread's exception is raised, or else the first worker's in
    part order."""
    if parts == 1 or len(items) == 1:
        for item in items:
            fn(item, 0)
    else:
        _threads(fn, items, min(parts or len(items), len(items)))


def _threads(fn, items, parts):
    # _walk on several threads, apart so its closures cost one thread nothing.
    lock, left, err = threading.Lock(), iter(items), np.geterr()

    def take():
        with lock:
            return next(left, None)

    def run(part):
        try:
            with np.errstate(**err):
                for item in iter(take, None):
                    fn(item, part)
        finally:
            with lock:  # after a raise, no thread takes another item
                for _ in left:
                    pass

    futures = [_executor().submit(run, part) for part in range(1, parts)]
    try:
        run(0)
    finally:
        for future in futures:
            future.exception()  # waits for it
    for future in futures:
        future.result()


def _slices(length, parts):
    # Up to `parts` contiguous slices covering range(length): _walk's items.
    if parts <= 1:
        return (slice(0, length),)
    parts = min(parts, length)
    return [slice(length * i // parts, length * (i + 1) // parts)
            for i in range(parts)]


def _softmax_pass(arr, taus, sums=False, argmax=False, out=None):
    """One pass over a (B, T, V) stack of logits at each temperature in
    taus, block by block (see _blocks), that also checks them: a block
    holding nan or +-inf raises InvalidInput before any arithmetic on it.

    Each row's max and its difference from it are taken once; at each
    temperature the pass computes exp((z - max) / tau) and its row sum as
    _shifted_exp does, in a block buffer, then emits only what the caller asks
    for: each sequence's column sums when sums, and the per-row argmax at
    taus[0] when argmax. The pass writes no B x T x V array of its own.
    Given out, a (B, T, V) array, it computes the softmax at taus[0] there
    instead of in a buffer, dividing each row by its sum while the block is
    in cache: softmax_rows returns it, exact matching and the padded-sort
    teacher read it whole, and in a gradient call the backward
    (composite._softmax_backward) finishes it in place.

    A large pass runs on several threads (_parts, _walk), each on blocks of
    its share of the block budget in its share of the buffers, so the
    buffers take no more memory than on one thread; the thread count is
    capped so that each share holds a row. Column sums add each sequence's
    rows in order, as numpy reduces that axis: a block adds its rows once
    the block before it in the sequence has added its own or raised, so
    every output is the same bit for bit at any blocking and thread count
    (the tests hold it to a dense softmax, their refimpl._softmax).

    Returns (top, totals, colsums, best): the (B, T, 1) row maxima, one
    (B, T, 1) array of row sums per temperature ((top, totals[i]) are the
    normalizers _softmax_at and the backward read), one (B, V) array of
    column sums per temperature or None, and the (B, T) argmax or None.
    """
    top = np.empty(arr.shape[:-1] + (1,))
    totals = [np.empty_like(top) for _ in taus]
    colsums = [np.zeros(arr.shape[::2]) for _ in taus] if sums else None
    best = np.empty(arr.shape[:-1], dtype=np.intp) if argmax else None
    parts = _parts(arr.size * len(taus), arr.shape[-1])
    blocks = _blocks(arr.shape, parts)
    bufs = [np.empty((parts,) + arr[blocks[0]].shape)
            for _ in taus[out is not None:]]
    # added[b] counts the rows of sequence b handed off to its next block.
    turn = threading.Condition()
    added = [0] * arr.shape[0]

    def walk(block, part):
        items, span = block
        z = arr[block]
        exps = ([] if out is None else [out[block]]) + [
            buf[part, :z.shape[0], :z.shape[1]] for buf in bufs]
        try:
            peak = np.max(z, axis=-1, keepdims=True, out=top[block])
            # The block's min is read while the block is in cache.
            if not _finite_range(z.min(), peak.max()):
                raise InvalidInput(_NON_FINITE)
            with np.errstate(over="ignore"):
                np.subtract(z, peak, out=exps[0])
                for e, tau in zip(exps[1:], taus[1:]):
                    np.divide(exps[0], tau, out=e)
                if taus[0] != 1.0:
                    exps[0] /= taus[0]
            for i, e in enumerate(exps):
                np.exp(e, out=e)
                total = totals[i][block]
                e.sum(axis=-1, keepdims=True, out=total)
                if sums or i == 0 and (argmax or out is not None):
                    e /= total
            if argmax:
                np.argmax(exps[0], axis=-1, out=best[block])
            if sums:
                with turn:
                    turn.wait_for(lambda: added[items.start] >= span.start)
                for acc, e in zip(colsums, exps):
                    if span.start == 0:
                        e.sum(axis=-2, out=acc[items])
                    else:
                        for row in e[0]:
                            acc[items.start] += row
        finally:
            # Handed off even when the block raised (maybe before earlier
            # blocks, hence max), so that no block waits forever.
            with turn:
                added[items.start] = max(added[items.start], span.stop)
                turn.notify_all()

    _walk(walk, blocks, parts)
    return top, totals, colsums, best


def _softmax_at(arr, tau, normalizers, index, out=None):
    """The entries the softmax of arr at tau has at index, from the
    normalizers (top, total) of _softmax_pass, bit for bit the pass's own;
    written into out if given.

    index picks entries of a (B, T, V) stack row by row (the last axis
    last), as preprocess._last_axis builds it; or it is a block of
    _blocks, with the normalizers cut to it, or ... for every entry.
    """
    top, total = normalizers
    out = _shifted_exp(arr[index], top, tau, out)
    out /= total
    return out


def softmax_backward(probs, grad_probs, temperature=1.0):
    """Jacobian-vector product of a row softmax at the given temperature.

    Maps a gradient w.r.t. the probabilities to a gradient w.r.t. the raw
    logits they came from. Both must be finite matrices of one shape.
    """
    tau = _check_temperature(float(temperature))
    probs = _matrix(probs, "probability matrix", finite=True)
    grad_probs = _matrix(grad_probs, "gradient", finite=True)
    if grad_probs.shape != probs.shape:
        raise InvalidInput(f"shape mismatch: {probs.shape} vs {grad_probs.shape}")
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner) / tau


def safe_log(p, floor=PROB_FLOOR):
    """log of a probability (scalar or array) with a positive floor.

    Returns ln(max(p, floor)); monotone nondecreasing in p. Inputs outside
    [0, 1] raise InvalidInput.
    """
    if not 0.0 < floor < 1.0:
        raise InvalidConfig(f"floor must lie in (0, 1), got {floor}")
    arr = _matrix(p, "probability array", ndim=None)
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not _finite_range(lo, hi) or lo < 0.0 or hi > 1.0:
        raise InvalidInput("probabilities must lie in [0, 1]")
    out = _floor_log(arr, floor)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _floor_log(p, floor=PROB_FLOOR):
    # safe_log without its checks, for probabilities the caller has just
    # computed from validated logits.
    return np.log(np.maximum(p, floor))
