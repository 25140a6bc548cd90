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
here, softmax_rows included, comes from these two, and _softmax_backward
turns one a pass wrote into the gradient of a loss read at sparse entries.
Kept columns are plain (B, T or 1, c) arrays of columns per row, read with
a take along the last axis (_gather) and added to through flat indices
(_softmax_backward) where numpy's generic fancy indexing is slower.

The blocked kernels here and in seq_ot split a call across the cores the
process may use (_walk), one thread per _THREAD_ENTRIES entries the call
touches: each thread takes whole rows, whole columns or whole blocks
along one axis (column sums pass between blocks in order),
so no sum is split between threads and every output is the same bit for
bit at any thread count. Only the process's CPU affinity mask caps it.
The threads run at once only while numpy has released the GIL: its
reductions, ufuncs, einsum, take and scipy's cdist do at the sizes that
split, a matmul only when the call writes more than 500 entries, so
Sinkhorn stacks the row products of its blocks (seq_ot._plan).
"""

import math
import numbers
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
# this floor. Serial against two threads (median of 21): two blocks of
# whole sequences gain ~25% ((2, 512, 512): 2.2 -> 1.6 ms); T = 1024 and
# 2048, whose 4 and 16 blocks stack into 2 and 4 walk items, gain 1.65x
# (4.5 -> 2.7 ms, 29 -> 17.5 ms; 4.3 -> 3.5 ms and 28 -> 20 ms when each
# block's row products held the GIL). Blocks of 2^16 or 2^17 entries
# would not thread T = 512: its 4 or 2 runs of rows stack into one item.
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


def _is_real(value):
    # A real number: a numbers.Real, or a numpy scalar or 0-d array of a
    # bool, integer or float dtype. Strings, None and Decimals are not: a
    # Decimal setting would reach numpy's ufuncs as an object.
    if isinstance(value, (np.ndarray, np.generic)):
        return value.ndim == 0 and value.dtype.kind in "biuf"
    return isinstance(value, numbers.Real)


def _check_number(value, name, least=0.0, strict=True):
    """The one rule for a scalar argument or setting: value as a float if it
    is a finite real number (_is_real) above least (at least least if not
    strict; any for least=None), else InvalidConfig naming its field. A
    string, None, a Decimal, nan and +-inf are never numbers here."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not math.isfinite(x) or least is not None and (
            x <= least if strict else x < least):
        bound = ("" if least is None
                 else f" {'>' if strict else '>='} {least:g}")
        raise InvalidConfig(f"{name} must be a finite number{bound}, "
                            f"got {value!r}")
    return x


def _check_type(value, cls, name):
    """value if it is a cls (a config or state object), else InvalidConfig
    naming the argument or field it came in as."""
    if not isinstance(value, cls):
        raise InvalidConfig(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


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
    tol = _check_number(tol, "tol", strict=False)
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
    tau = _check_number(temperature, "temperature")
    out = np.empty(arr.shape)
    _softmax_pass(arr[None], (tau,), out=out[None])
    return out


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
    _softmax_at does, in a block buffer, then emits only what the caller asks
    for: each sequence's column sums when sums, and the per-row argmax at
    taus[0] when argmax. The pass writes no B x T x V array of its own.
    Given out, a (B, T, V) array, it computes the softmax at taus[0] there
    instead of in a buffer, dividing each row by its sum while the block is
    in cache: softmax_rows returns it, exact matching and the padded-sort
    teacher read it whole, and in a gradient call the backward
    (_softmax_backward) finishes it in place.

    A large pass runs on several threads (_parts, _walk), each on blocks of
    its share of the block budget in its share of the buffers, so the
    buffers take no more memory than on one thread; the thread count is
    capped so that each share holds a row. Column sums add each sequence's
    rows in order, as numpy reduces that axis: a block adds its rows once
    the block before it in the sequence has added its own or raised (in
    one sum after adding the running sums into its first row, or row by
    row into out's level, whose rows the caller reads), so every output is
    the same bit for bit at any blocking and thread count (the tests hold
    it to a dense softmax, their refimpl._softmax).

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
                # A later block of a sequence adds its rows to the running
                # sums in order, ((acc + r0) + r1) + ...: in one sum after
                # adding acc into its first row, which is spent, or one by
                # one into out's level, whose rows the caller reads.
                for i, e in enumerate(exps):
                    acc = colsums[i][items]
                    if span.start == 0:
                        e.sum(axis=-2, out=acc)
                    elif i == 0 and out is not None:
                        for row in e[0]:
                            acc[0] += row
                    else:
                        e[0, 0] += acc[0]
                        e.sum(axis=-2, out=acc)
        finally:
            # Handed off even when the block raised (maybe before earlier
            # blocks, hence max), so that no block waits forever.
            with turn:
                added[items.start] = max(added[items.start], span.stop)
                turn.notify_all()

    _walk(walk, blocks, parts)
    return top, totals, colsums, best


def _softmax_at(arr, tau, normalizers, cols=None, out=None):
    """The softmax of arr at tau from the normalizers (top, total) of
    _softmax_pass, bit for bit the pass's own: of every entry of arr,
    written into out if given, or of its entries at cols (columns per row
    that broadcast to (B, T, c)), in the array _gather reads them into
    (out is not taken with cols). arr is a (B, T, V) stack, or a block of
    one with the normalizers cut to it."""
    top, total = normalizers
    if cols is not None:
        if out is not None:
            raise ValueError("_softmax_at writes out only without cols")
        arr = out = _gather(arr, cols)
    # The max is subtracted before dividing by tau, so the quotient cannot
    # overflow to inf; entries far below the max may saturate to -inf,
    # whose exp is the correct 0. Dividing by 1 is exact, so it is skipped.
    with np.errstate(over="ignore"):
        out = np.subtract(arr, top, out=out)
        if tau != 1.0:
            out /= tau
    np.exp(out, out=out)
    out /= total
    return out


def _gather(arr, cols):
    """arr's entries at cols, a new array, for columns per row of a
    (B, T, V) stack that broadcast to (B, T, c). Columns every row reads,
    (1, 1, c) or (c,), are read from a C-ordered stack with one take along
    the last axis: 3 times faster than numpy's generic fancy indexing at
    (1, 1024, 768) and 50 columns. Other columns (per item or per row) and
    layouts, which take would copy whole, are indexed; at the harness's
    (4, 8, 15) a take per item saves nothing."""
    if arr.flags.c_contiguous and cols.size == cols.shape[-1]:
        return arr.take(cols.reshape(-1), axis=-1)
    return arr[np.arange(arr.shape[0])[:, None, None],
               np.arange(arr.shape[1])[:, None], cols]


def _softmax_backward(z, top, levels, gradient):
    """The gradient w.r.t. the (B, T, V) logits z of a loss that reads
    softmaxes of z only at sparse entries, one softmax per level.

    Each level is (tau, total, terms): the softmax of z at tau, whose row
    normalizers from _softmax_pass are (top, total), and its upstream
    gradient as terms (cols, x). cols picks entries p of the softmax (a
    (B, T or 1, c) array of columns per row, distinct within a row, or
    None for every entry), and x = p * g holds them times the upstream
    gradient g there. A level's backward is
    softmax * -(sum of x along each row) / tau plus x / tau at cols
    (softmax_backward of the dense upstream gradient); the terms' arrays
    are divided by tau in place.

    gradient, the array returned, holds the first level's softmax as the
    pass computed it there (its out). Block by block (_blocks), that level
    is finished in place, the other softmaxes are recomputed from their
    normalizers, and the levels of the block are summed into it. Rows are
    independent, so each usable core takes the next block not yet taken
    (_walk), in its share of the one block buffer.
    """
    scales = []
    for tau, _, terms in levels:
        inner = sum(x.sum(axis=-1, keepdims=True) for _, x in terms)
        scales.append(-inner / tau)
        for _, x in terms:
            x /= tau
    parts = _parts(z.size * len(levels), z.shape[-1])
    blocks = _blocks(z.shape, parts)
    buf = (np.empty((parts,) + z[blocks[0]].shape) if len(levels) > 1
           else None)

    def finish(block, part):
        zb, out = z[block], gradient[block]
        for i, ((tau, total, terms), scale) in enumerate(zip(levels, scales)):
            probs = out if i == 0 else _softmax_at(
                zb, tau, (top[block], total[block]),
                out=buf[part, :zb.shape[0], :zb.shape[1]])
            probs *= scale[block]
            for cols, x in terms:
                if cols is None:
                    probs += x[block]
                    continue
                # The block's columns (its rows', when given per row),
                # added through their flat indices: 26 against 63 us for
                # numpy's generic fancy indexing at (1, 256, 768) and 50
                # columns. probs, a block of the gradient or of the
                # buffer, is C-ordered, so its flat view writes into it;
                # in another layout reshape would copy and the terms be
                # lost, so that raises (reshape's copy=False needs numpy
                # 2.1). The index, as large as x's block, is not kept.
                if not probs.flags.c_contiguous:
                    raise RuntimeError("a backward block is not C-ordered")
                cols = cols[block] if cols.shape[1] > 1 else cols[block[0]]
                first = np.arange(0, probs.size, probs.shape[-1])
                probs.reshape(-1)[first.reshape(probs.shape[:2] + (1,))
                                  + cols] += x[block]
            if i:
                out += probs

    _walk(finish, blocks, parts)
    return gradient


def softmax_backward(probs, grad_probs, temperature=1.0):
    """Jacobian-vector product of a row softmax at the given temperature.

    Maps a gradient w.r.t. the probabilities to a gradient w.r.t. the raw
    logits they came from. Both must be finite matrices of one shape.
    """
    tau = _check_number(temperature, "temperature")
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
    if _check_number(floor, "floor") >= 1.0:
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
