"""Softmax levels, the blocked pass and its backward, the threaded walk, and
the one rule for each kind of argument.

Logit matrices are T x V (rows are tokens, columns the vocabulary); the
private kernels take (B, T, V) stacks. _matrix coerces and checks every
public array argument of the package, and the _check_* rules every setting;
the kernels behind them trust what they return. _softmax_pass reads a stack
once, in blocks of rows, checks it is finite as it reads it, and returns only
what its caller reads. _softmax_level, the one builder of every softmax
level, makes a level from the pass's normalizers or from the exponentials it
held (_held, _squared), and _softmax_backward builds each level into the
gradient of a loss read at sparse entries. Beside its outputs a kernel holds
a buffer per level it keeps in none: a block's where it sums columns or
takes the argmax, and otherwise a chunk's, of _CHUNK_ENTRIES over its
threads (_budget). _walk splits a kernel call across the usable cores
without splitting a sum, so every output here and in seq_ot is the same bit
for bit at any thread count.
"""

import functools
import math
import numbers
import os
import sys
import threading

import numpy as np

from .errors import InvalidConfig, InvalidInput, NumericalFailure

# Floor applied inside logarithms of probabilities; truncation keeps the
# dominant dimensions but underflow can still produce exact zeros.
PROB_FLOOR = 1e-12

ROW_SUM_TOL = 1e-9

# The least of every temperature, exclusive (_check_number's least): a
# softmax scales its logits by 1 / tau, which is inf from 1 / float max down
# (that quotient rounds to a subnormal whose reciprocal overflows), and the
# row max would then become 0 * inf = nan.
_MIN_TAU = 1.0 / sys.float_info.max

# The error of a logit matrix with a nan or +-inf, from validate_logits or
# from the pass that checks the logits it reads.
_NON_FINITE = "logit matrix contains non-finite entries"

# Entries of a row block held at once by the blocked kernels (here and in
# seq_ot): small enough to stay in cache, large enough that per-block numpy
# overhead is negligible.
_BLOCK_ENTRIES = 1 << 18

# Entries of each buffer a kernel call that keeps no block buffer holds
# beside its outputs, over all its threads: a pass that sums no columns and
# the backward walk blocks of a chunk (_budget), and seq_ot._ranks its
# columns in groups, each thread in its share (one column at least).
_CHUNK_ENTRIES = 1 << 16

# Entries of a kernel call each thread takes at least: a call touching
# fewer than twice as many stays on the calling thread. Handing slices to
# waiting threads costs tens of microseconds per dispatch. Serial against
# two threads (2 vCPU, numpy 2.4, best of 7 runs at sizes 2^15 to 2^18),
# the kernels break even between 2^16.5 entries (the pass, the sequence
# gradient) and 2^17.5 (the cost); above 2^17.5 every kernel gains. A
# Sinkhorn plan splits only across its walk items, stacks of fixed runs of
# at most 2^18 kernel entries (seq_ot._PLAN_ENTRIES), so below two items
# it stays serial whatever this floor. Serial against two threads (median
# of 21): two one-run items of whole sequences gain ~25% ((2, 512, 512):
# 2.2 -> 1.6 ms); T = 1024 and 2048, whose 4 and 16 runs stack into 2 and
# 4 walk items, gain 1.65x (4.5 -> 2.7 ms, 29 -> 17.5 ms; 4.3 -> 3.5 ms
# and 28 -> 20 ms when each run's row products held the GIL). Runs of
# 2^16 or 2^17 entries would not thread T = 512: its 4 or 2 runs of rows
# stack into one item.
# The floor per thread also bounds numpy's per-call scratch (~75 kB per
# thread for the sequence gradient's einsum over int16 signs) by the work
# of the call, not by the core count. The harness's steps at its default
# shapes (4 x 8 x 20 logits) stay far below, on the calling thread alone.
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
    # The cores this process may run on: its CPU affinity mask is the only
    # cap on the thread count, which no option or environment variable sets.
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


def _check_count(value, name, least=1, most=None, error=InvalidConfig):
    """The one rule for an integer setting: value as an int if it is a
    finite real number (_is_real) equal to an integer from least to most
    (any for most=None), else error naming it (InvalidInput for arguments)."""
    n = int(value) if _is_real(value) and -math.inf < value < math.inf else None
    if n is None or n != value or n < least or most is not None and n > most:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return n


def _check_choice(value, choices, name, error=InvalidConfig):
    """The one rule for a string setting: value if it is a str among
    choices, else error naming it, InvalidConfig for a config field and
    InvalidInput for a function argument. Anything else (None, a list, a
    numpy array of strings, whose `in` would raise) is never a choice."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"unknown {name} {value!r}; choose from {choices}")
    return value


def _check_type(value, cls, name, error=InvalidConfig):
    """value if it is a cls (a config or state object), else error naming
    the argument or field it came in as: InvalidConfig, or InvalidInput for
    a state's field."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, got {value!r}")
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
    # every entry without a boolean temporary of the matrix's size. The
    # scalars go through math, a sixth of numpy's per-call cost.
    return math.isfinite(lo) and math.isfinite(hi)


def _matrix(x, what, finite=False, ndim=2):
    # x as float64; InvalidInput naming `what` unless it is an array of real
    # numbers (entries of a bool, integer or float dtype, or objects that
    # _is_real accepts: not strings, complex numbers, datetimes or None)
    # with ndim dimensions (any for None) and, if finite, no nan/inf.
    try:
        arr = np.asarray(x)
        if not (arr.dtype.kind in "biuf" or arr.dtype.kind == "O"
                and all(map(_is_real, arr.flat))):
            raise TypeError(f"{arr.dtype} entries")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
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
    _walk(check, _blocks(arr.shape, parts, _BLOCK_ENTRIES), parts)


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
    exp(z / temperature) normalized to sum 1. The temperature must lie
    above 1 / float max (about 5.6e-309), where its reciprocal is finite.
    """
    arr = _logit_matrix(logits)
    tau = _check_number(temperature, "temperature", least=_MIN_TAU)
    out = np.empty(arr.shape)
    held = out[None]
    top, (total,), _, _ = _softmax_pass(arr[None], (tau,), out=held)
    _softmax_level(arr[None], (tau,), 0, (top, total), held, out=held)
    return out


@functools.lru_cache
def _blocks(shape, parts, budget):
    """The (items, rows) slices that cover a (B, T, V) stack in blocks of at
    most budget // parts entries: as many whole sequences as fit, or, when
    one does not, runs of rows of one sequence (at least one row). Where
    the stack has as many rows, there are at least `parts` blocks, so that
    every thread of _walk gets one. A tuple, worked out once per shape,
    parts and budget; each caller names its budget (_budget, or
    _BLOCK_ENTRIES), so a patched _BLOCK_ENTRIES cuts anew."""
    batch, tokens, vocab = shape
    budget //= parts
    if tokens * vocab <= budget and batch >= parts:
        step = min(budget // (tokens * vocab), batch // parts)
        return tuple([(slice(b, min(b + step, batch)), slice(0, tokens))
                      for b in range(0, batch, step)])
    step = max(1, min(budget // vocab, batch * tokens // parts))
    return tuple([(slice(b, b + 1), slice(i, min(i + step, tokens)))
                  for b in range(batch) for i in range(0, tokens, step)])


def _budget(vocab, parts, scratch):
    """The one rule for the blocks a kernel over rows `vocab` wide walks on
    `parts` threads, as the budget it cuts them by (_blocks): chunks,
    blocks of _CHUNK_ENTRIES over its threads, where it holds scratch (a
    buffer of a level it keeps in no output) and a row fits in a thread's
    share of a chunk, else blocks of _BLOCK_ENTRIES.

    A row wider than the share keeps its block: one-row chunks at
    vocabulary width (vocab_t128 in bench/: 1 row of 50000 against the
    blocks' 2) made its step 4.8% slower for 1.5% less peak memory. The
    cost is per numpy call on two threads; on one, the row count per call
    changed nothing. A kernel with no scratch gains nothing from chunks
    and takes fewer items."""
    if scratch and vocab <= _CHUNK_ENTRIES // parts:
        return _CHUNK_ENTRIES
    return _BLOCK_ENTRIES


def _walk(fn, items, parts=None):
    """Call fn(item, part) for every item of items on up to `parts` threads
    (by default one per item): part 0 is the calling thread, and part p a
    thread's share of a block buffer or chunk scratch. Each thread takes
    the first item not yet taken, so an item that waits for an earlier one
    (_softmax_pass's column sums) waits for a running thread, however the
    pool orders concurrent calls. Workers run under the caller's
    np.errstate. Once an item raises, no thread takes another, those taken
    finish, and the calling thread's exception is raised, or else the
    first worker's in part order.

    Each item covers whole rows, whole columns or whole blocks along one
    axis, so no sum is split between threads and every output is the same
    bit for bit at any thread count. The threads run at once only while
    numpy has released the GIL: its reductions, ufuncs, einsum, take and
    scipy's cdist do at the sizes that split, a matmul only past
    seq_ot._GIL_ENTRIES written entries."""
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


def _both(fn, first, second, entries):
    """(fn(first), fn(second)) through _walk, which alone picks the path:
    two threads when a call touching `entries` entries splits (_parts),
    else a plain loop. For a kernel during which numpy releases the GIL,
    whose two calls are independent."""
    out = [first, second]

    def run(i, part):
        out[i] = fn(out[i])

    _walk(run, (0, 1), _parts(entries))
    return out[0], out[1]


def _slices(length, parts):
    # Up to `parts` contiguous slices covering range(length): _walk's items.
    if parts <= 1:
        return (slice(0, length),)
    parts = min(parts, length)
    return [slice(length * i // parts, length * (i + 1) // parts)
            for i in range(parts)]


@functools.lru_cache
def _squared(taus):
    """The one rule for squaring, of the temperatures one pass computes (a
    tuple): whether each level squares the other's exponentials. Of two
    temperatures where one is exactly twice the other, exp((z - max) / tau)
    at the smaller is the square of exp((z - max) / (2 tau)), so the pass
    exponentiates only at the larger and squares into the smaller's buffer
    (one exp per entry for both, at the default pair (1, 2)). One
    temperature, or any other pair, has nothing to square from. Worked out
    once per tuple, not on each of a step's kernel calls."""
    return tuple([len(taus) == 2 and 2.0 * tau in taus for tau in taus])


@functools.lru_cache
def _held(taus):
    """The one rule for what a pass at taus (_softmax_pass) leaves in an out
    it is given: the unnormalized exponentials of one level, and this is
    its index. Where _squared squares one level from the other's, the
    larger temperature's, from which _softmax_level builds both levels
    with no exp; otherwise taus[0]'s, from which it builds that level."""
    squared = _squared(taus)
    return squared.index(False) if any(squared) else 0


def _softmax_pass(arr, taus, sums=False, argmax=False, out=None):
    """One pass over a (B, T, V) stack of logits at each temperature in
    taus, block by block (see _blocks), that also checks them: a block
    holding nan or +-inf raises InvalidInput before any arithmetic on it.

    Each row's max is taken once, and its difference from it once. At each
    temperature the pass computes exp((z - max) * (1 / tau)), except where
    _squared says a level squares the other's exponentials, at twice its
    tau (np.square, before either is normalized), so at the default pair
    (1, 2) it takes one exp per entry for both levels. It then takes the
    reciprocal of each row sum, as _softmax_level does, and emits only what
    the caller asks for: each sequence's column sums when sums, and the
    per-row argmax at taus[0] when argmax. The pass writes no B x T x V
    array of its own. Given out, a (B, T, V) array, it computes there the
    exponentials of the level _held names, left unnormalized:
    _softmax_level builds a level from them.

    Beside its outputs it holds a buffer per level not in out, the thread's
    share of it at a time: a block's where it sums columns (whose unit of
    hand-off a block is; out's level is normalized into the last buffer)
    or takes the argmax, and otherwise a chunk's (_budget).

    A large pass runs on several threads (_parts, _walk), each on blocks of
    its share of the block or chunk budget in its share of the buffers,
    so they take no more memory than on one thread; the thread count is
    capped so that each block share holds a row. Column sums add each
    sequence's rows in order, as numpy reduces that axis: a block adds its
    rows once the block before it in the sequence has added its own or
    raised (in one sum after adding the running sums into its first row;
    out's level, whose rows out keeps, last, normalized in a block buffer),
    and a row's sums are the same over any run of rows, so every output is
    the same bit for bit at any blocking and thread count (the
    tests hold it to a dense softmax, their refimpl._softmax).

    Returns (top, totals, colsums, best): the (B, T, 1) row maxima, one
    (B, T, 1) array of reciprocal row sums per temperature ((top,
    totals[i]) are the normalizers _softmax_level reads), one (B, V) array
    of column sums per temperature or None, and the (B, T) argmax or None.
    """
    top = np.empty(arr.shape[:-1] + (1,))
    squared = _squared(taus)
    # The level whose exponentials out keeps unnormalized (_held).
    hold = _held(taus)
    totals = [np.empty_like(top) for _ in taus]
    colsums = [np.zeros(arr.shape[::2]) for _ in taus] if sums else None
    best = np.empty(arr.shape[:-1], dtype=np.intp) if argmax else None
    parts = _parts(arr.size * len(taus), arr.shape[-1])
    # A buffer per level not in out; for column sums, out's level is
    # normalized into the last, once that buffer's own sums are taken.
    count = max(len(taus) - (out is not None), int(sums))
    blocks = _blocks(arr.shape, parts, _budget(
        arr.shape[-1], parts, count and not (sums or argmax)))
    bufs = [np.empty((parts,) + arr[blocks[0]].shape) for _ in range(count)]
    # Levels in the order their column sums are taken: out's last.
    order = ((1 - hold, hold) if out is not None and len(taus) == 2
             else range(len(taus)))
    # added[b] counts the rows of sequence b handed off to its next block.
    # On one thread the blocks run in order and nothing waits, so nothing
    # is handed off.
    turn = threading.Condition() if sums and parts > 1 else None
    added = [0] * arr.shape[0]

    def walk(block, part):
        items, span = block
        z = arr[block]
        views = [buf[part, :z.shape[0], :z.shape[1]] for buf in bufs]
        exps = views[:len(taus) - (out is not None)]
        if out is not None:
            exps.insert(hold, out[block])
        try:
            peak = z.max(axis=-1, keepdims=True, out=top[block])
            # The block's min is read while the block is in cache.
            if not _finite_range(z.min(), peak.max()):
                raise InvalidInput(_NON_FINITE)
            np.subtract(z, peak, out=exps[0])
            for e, tau, square in zip(exps[1:], taus[1:], squared[1:]):
                if not square:
                    np.multiply(exps[0], 1.0 / tau, out=e)
            if not squared[0] and taus[0] != 1.0:
                exps[0] *= 1.0 / taus[0]
            for e, square in zip(exps, squared):
                if not square:
                    np.exp(e, out=e)
            # A squared level's other is the level at twice its tau.
            for e, other, square in zip(exps, exps[::-1], squared):
                if square:
                    np.square(other, out=e)
            for i, e in enumerate(exps):
                total = totals[i][block]
                e.sum(axis=-1, keepdims=True, out=total)
                np.reciprocal(total, out=total)
                # A buffer is normalized only for what the walk reads of
                # it; out keeps its exponentials.
                if (sums or i == 0 and argmax) and (out is None or i != hold):
                    e *= total
            if argmax:
                # Exponentials out holds unnormalized have the softmax's
                # argmax: a row's max is exp(0) = 1, which its reciprocal
                # sum r maps to r, and any entry below 1 to a float below r.
                np.argmax(exps[0], axis=-1, out=best[block])
            if turn is not None:
                with turn:
                    turn.wait_for(lambda: added[items.start] >= span.start)
            if sums:
                # A later block of a sequence adds its rows to the running
                # sums in order, ((acc + r0) + r1) + ...: in one sum after
                # adding acc into its first row, which is spent. out keeps
                # its rows: its level, normalized, is summed in a buffer.
                for i in order:
                    e, acc = exps[i], colsums[i][items]
                    if out is not None and i == hold:
                        e = np.multiply(e, totals[i][block], out=views[-1])
                    if span.start:
                        e[0, 0] += acc[0]
                    e.sum(axis=-2, out=acc)
        finally:
            # Handed off even when the block raised (maybe before earlier
            # blocks, hence max), so that no block waits forever.
            if turn is not None:
                with turn:
                    added[items.start] = max(added[items.start], span.stop)
                    turn.notify_all()

    # Scaling z - max by 1 / tau cannot overflow to +inf; entries far below
    # the max may saturate to -inf, whose exp is the correct 0. The workers
    # run under this errstate (_walk), entered once per pass.
    with np.errstate(over="ignore"):
        _walk(walk, blocks, parts)
    return top, totals, colsums, best


def _softmax_level(z, taus, i, normalizers, held=None, cols=None, out=None):
    """The softmax at taus[i] of the (B, T, V) stack z, bit for bit the
    level a pass over z at taus computes: exp((z - max) * (1 / tau)), or,
    where _squared says level i squares, the square of the exponentials at
    2 tau, then each row times its reciprocal sum. normalizers are the
    level's (top, total) from the pass; z may be a block of a stack, with
    the rest cut to it. The one builder of every softmax level.

    Given held, what the pass left in its out, a level it holds or squares
    from (_held) is built from it with no exp, whole, into out (a new array
    for None), which may be held itself, whose exponentials are then
    spent. Any other level is computed from the normalizers: whole into
    out, or only its entries at cols (columns per row that broadcast to
    (B, T, c)), in the array _gather reads them into (cols is taken
    without held and out)."""
    top, total = normalizers
    square = _squared(taus)[i]
    if held is None or not square and i != _held(taus):
        if cols is not None:
            if out is not None or held is not None:
                raise ValueError("_softmax_level takes cols without held "
                                 "and out")
            z = out = _gather(z, cols)
        # The max is subtracted before scaling by 1 / tau, so the product
        # cannot overflow to +inf; entries far below the max may saturate
        # to -inf, whose exp is the correct 0. Scaling by 1 is exact, so it
        # is skipped.
        scale = 2.0 * taus[i] if square else taus[i]
        with np.errstate(over="ignore"):
            held = out = np.subtract(z, top, out=out)
            if scale != 1.0:
                out *= 1.0 / scale
        np.exp(out, out=out)
    if square:
        held = out = np.square(held, out=out)
    # Each row is normalized by multiplying by its reciprocal sum, which
    # the pass divided once per row: a softmax divides once per temperature
    # and once per row, never once per entry.
    return np.multiply(held, total, out=out)


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


def _softmax_backward(z, top, levels, gradient, taus):
    """The gradient w.r.t. the (B, T, V) logits z of a loss that reads
    softmaxes of z only at sparse entries, one softmax per level.

    Level i is (total, terms): the softmax of z at taus[i], whose row
    normalizers from _softmax_pass are (top, total), and its upstream
    gradient as terms (cols, x). cols picks entries p of the softmax (a
    (B, T or 1, c) array of columns per row, distinct within a row, or
    None for every entry), and x = p * g holds them times the upstream
    gradient g there. A level's backward is
    softmax * -(sum of x along each row) / tau plus x / tau at cols
    (softmax_backward of the dense upstream gradient); the terms' arrays
    are divided by tau in place. Terms (products the caller computed under
    np.errstate) that are not finite, or whose sums of |x| / tau could carry
    the gradient past the float range, raise NumericalFailure before any
    block is written. The check reads the terms alone, not the gradient,
    so the gradient returned is finite and nothing reads it again.

    gradient, the array returned, is the out of a pass at taus and holds
    the exponentials _held names. Block by block (_blocks), _softmax_level
    builds each level from it: the other level first, in the thread's
    share of one chunk scratch (the blocks are chunks, as _budget rules
    for a kernel that holds scratch), then the one held there (or the
    first) in place, and the block's levels are summed into the gradient.
    With one level nothing is held beside the gradient but the check's
    pieces of |x|, a chunk of entries at a time. Rows are independent, so
    each usable core takes the next block not yet taken (_walk), and the
    gradient is the same bit for bit at any blocking and thread count.
    """
    scales, mass = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for tau, (_, terms) in zip(taus, levels):
            inner = sum(x.sum(axis=-1, keepdims=True) for _, x in terms)
            scales.append(-inner / tau)
            for _, x in terms:
                x /= tau
                mass += _abs_sum(x)
    # An entry of a level is a softmax entry (at most 1) times its row's
    # scale (at most the row's sum of |x|) plus its x at cols, so no entry of
    # the gradient, and no partial sum a block forms, exceeds 2 * mass; a
    # finite 4 * mass leaves room for the roundings.
    if not math.isfinite(4.0 * mass):
        raise NumericalFailure("the gradient is not finite; lower alpha, "
                               "beta or gamma, or raise the temperatures")
    # The level built in the gradient: the held one beside another, which
    # reads its exponentials first, else the first.
    own = _held(taus) if len(levels) > 1 else 0
    order = (1 - own, own) if len(levels) > 1 else (0,)
    # Beside another level, each thread's share of the chunk scratch holds
    # the level not built in the gradient, so the walk takes chunks
    # (_budget); one level needs no scratch and takes blocks.
    parts = _parts(z.size * len(levels), z.shape[-1])
    budget = _budget(z.shape[-1], parts, len(levels) > 1)
    blocks = _blocks(z.shape, parts, budget)
    shape = z[blocks[0]].shape
    buf = np.empty((parts,) + shape) if len(levels) > 1 else None
    # The flat index of each row's first entry in a C-ordered block, which
    # every sparse term of both levels adds to its columns; a smaller block
    # (one sequence's last rows, or fewer whole sequences) takes its head.
    first = np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:2] + (1,))

    def finish(block, part):
        zb, out = z[block], gradient[block]
        head = first[:zb.shape[0], :zb.shape[1]]
        spare = None if buf is None else buf[part, :zb.shape[0], :zb.shape[1]]
        for i in order:
            (total, terms), scale = levels[i], scales[i]
            probs = _softmax_level(zb, taus, i, (top[block], total[block]),
                                   out, out=out if i == own else spare)
            probs *= scale[block]
            for cols, x in terms:
                if cols is None:
                    probs += x[block]
                    continue
                # The block's columns (its rows', when given per row),
                # added through their flat indices: 26 against 63 us for
                # numpy's generic fancy indexing at (1, 256, 768) and 50
                # columns. probs, a block of the gradient or of the
                # scratch, is C-ordered, so its flat view writes into it;
                # in another layout reshape would copy and the terms be
                # lost, so that raises (reshape's copy=False needs numpy
                # 2.1). The index, as large as x's block, is not kept.
                if not probs.flags.c_contiguous:
                    raise RuntimeError("a backward block is not C-ordered")
                cols = cols[block] if cols.shape[1] > 1 else cols[block[0]]
                probs.reshape(-1)[head + cols] += x[block]
        # Addition is commutative, so the order of the two levels does not
        # change a bit of their sum.
        if spare is not None:
            out += spare

    _walk(finish, blocks, parts)
    return gradient


def _abs_sum(x):
    # The sum of |x| as a float, taken a chunk of entries at a time: no
    # temporary is as large as a term wider than a chunk.
    flat, mass = x.reshape(-1), 0.0
    for start in range(0, flat.size, _CHUNK_ENTRIES):
        mass += float(np.abs(flat[start:start + _CHUNK_ENTRIES]).sum())
    return mass


def softmax_backward(probs, grad_probs, temperature=1.0):
    """Jacobian-vector product of a row softmax at the given temperature.

    Maps a gradient w.r.t. the probabilities to a gradient w.r.t. the raw
    logits they came from. Both must be finite matrices of one shape; a
    result past the float range raises NumericalFailure.
    """
    tau = _check_number(temperature, "temperature", least=_MIN_TAU)
    probs = _matrix(probs, "probability matrix", finite=True)
    grad_probs = _matrix(grad_probs, "gradient", finite=True)
    if grad_probs.shape != probs.shape:
        raise InvalidInput(f"shape mismatch: {probs.shape} vs {grad_probs.shape}")
    # Finite inputs can still give a gradient past the float range (inf,
    # or nan where inf meets a zero probability): NumericalFailure, as for
    # a transport value that overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        inner = (grad_probs * probs).sum(axis=1, keepdims=True)
        grad = probs * (grad_probs - inner) / tau
    if not _finite_range(grad.min(initial=0.0), grad.max(initial=0.0)):
        raise NumericalFailure("the softmax gradient is not finite; rescale "
                               "the gradient or raise the temperature")
    return grad


def safe_log(p, floor=PROB_FLOOR):
    """log of a probability (scalar or array) with a positive floor.

    Returns ln(max(p, floor)); monotone nondecreasing in p. Inputs outside
    [0, 1] raise InvalidInput.
    """
    floor = _check_number(floor, "floor")
    if floor >= 1.0:
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
