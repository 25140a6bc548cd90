"""Sequence-level transport: the token-to-token cost, the Sinkhorn plan, the
transport loss sd and its gradient with the plan held fixed.

The cost between teacher token i and student token j is the L1 distance
between their rows of the aligned truncated matrices. The plan comes from a
fixed number of alternating row/column normalizations of exp(-C / lambda),
the Gibbs kernel of entropic OT (Cuturi 2013; Laplace-type for this L1
cost), computed in scaling form (Peyre and Cuturi 2019, section 4.2); its
inner product with the cost is sd. The private kernels take a leading batch
axis of B sequences of equal length T, and the fused loss runs them in one
stage, _transport. Memory is O(B T^2) whatever the kept width k: beside
the plan and its (B, T, k) operands, the gradient ranks its columns a chunk
at a time (core._CHUNK_ENTRIES), then holds the int16 ranks, one budget of
signs and its sums. Each kernel splits across the usable cores (core._walk)
without splitting a sum, so its bytes do not depend on the thread count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_ENTRIES, _CHUNK_ENTRIES, _check_count,
                   _check_number, _check_type, _matrix, _parts, _slices,
                   _walk)
from .errors import InvalidInput, NumericalFailure, NumericalUnderflow
from .preprocess import AlignedPair

# _BLOCK_ENTRIES counts the B x T x T x k int16 row-difference signs the
# gradient kernel holds at once; the harness's whole step at the fixture
# shapes (4 x 8 x 8 x 15) is a single block, of float64 signs.

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
        object.__setattr__(self, "regularization", _check_number(
            self.regularization, "regularization"))
        object.__setattr__(self, "iterations", _check_count(
            self.iterations, "iterations", most=MAX_ITERATIONS))


def seq_cost_matrix(pair: AlignedPair) -> np.ndarray:
    """T x T matrix of L1 distances between teacher row i and student row j
    of a T x k pair (InvalidInput for a stack of pairs)."""
    t, s = (_matrix(x, "aligned pair") for x in (pair.teacher, pair.student))
    return _cost(t[None], s[None])[0]


def _cost(t, s):
    # seq_cost_matrix for each item of a (B, T, k) teacher and student stack,
    # written by scipy's compiled cityblock distance straight into one
    # preallocated (B, T, T) stack, with no T x T x k temporary, and threads
    # splitting the teacher rows of every cdist call. cdist
    # copies an input that is not C-contiguous, so the students are copied
    # here once rather than by every thread. Imported here: scipy.spatial
    # is most of the package's import time, and a process that builds no
    # cost (`otdistill sinkhorn`, `oracle`) never needs it.
    from scipy.spatial.distance import cdist
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
    # from v = 1. K is walked in fixed runs of at most _PLAN_ENTRIES
    # entries of one sequence's rows (a whole sequence is its one run): a
    # run computes its rows of u and its share u_b^T K_b of K^T u while it
    # is in cache. One-run sequences write their shares, which are then all
    # of K^T u, straight into v; a longer sequence's shares are added in
    # run order. The runs do not depend on the thread count, so neither do
    # the bytes; a run is also below the size at which OpenBLAS splits a
    # matrix-vector product across its own threads. One function, _sweep,
    # holds a view's arithmetic for every sweep, iterations + 1 in all: the
    # first also builds its runs of K and the last only writes the plan.
    # Views that split across threads run each sweep as one dispatch
    # (core._walk); views on one thread (the harness's one item, at any
    # core count) run in a plain loop, with the same bytes.
    #
    # A walk item, one view, stacks consecutive runs, (runs, rows, T), of
    # one sequence or of whole one-run sequences: as many as fill
    # _PLAN_ENTRIES, and at least as many as write more than _GIL_ENTRIES
    # rows, since numpy releases the GIL around a matmul only when the
    # call writes more than that and a run writes one entry per row. The
    # rule does not depend on the thread count. numpy makes one BLAS call
    # per run, the same call as for a run alone, so the stacking changes
    # no byte, and the threads' row products overlap. Runs left after the
    # last full item stack into a smaller one, and a sequence's last run,
    # when shorter, is an item of its own.
    #
    # A zero row or column of K, at the start or once a sweep's scaled
    # products round to zero, makes an entry of u or v infinite (and later
    # nan); so does a row or column sum below 1 / float max. Either is
    # caught after the sweeps: while u and v are finite, so is the plan,
    # and an infinite u or v stays in the iterates to the end.
    # C-ordered whatever C's layout, so that the stacks below are views
    # and the products' bytes do not depend on the layout.
    K = np.empty(C.shape)
    c, k = C.reshape((-1,) + C.shape[-2:]), K.reshape((-1,) + C.shape[-2:])
    batch, tokens = k.shape[:2]
    step = max(1, min(tokens, _PLAN_ENTRIES // tokens))  # rows of a run
    runs, full = -(-tokens // step), tokens // step
    group = max(_PLAN_ENTRIES // (step * tokens), _GIL_ENTRIES // step + 1)
    u = np.empty((batch, tokens, 1))
    v = np.ones((batch, 1, tokens))
    shares = v[None] if runs == 1 else np.empty((runs,) + v.shape)
    # An item stacks the runs start:stop of `width` sequences' rows: group
    # whole one-run sequences, or runs of one longer sequence.
    width = group if runs == 1 else 1
    cuts = [(r, min(r + group, full)) for r in range(0, full, group)]
    cuts += [(full, runs)] if full < runs else []
    views = []
    for b in range(0, batch, width):
        for start, stop in cuts:
            seqs = slice(b, b + width)
            rows = slice(start * step, min(stop * step, tokens))
            stack = (-1, min(step, tokens - rows.start), tokens)
            k_b, v_b = k[seqs, rows].reshape(stack), v[seqs]
            u_b = u[seqs, rows].reshape(stack[:2] + (1,))
            # With v^T and u^T, taken once for every sweep.
            views.append((c[seqs, rows], k_b, u_b, v_b,
                          shares[start:stop, seqs].reshape(-1, 1, tokens),
                          v_b.transpose(0, 2, 1), u_b.transpose(0, 2, 1)))
    parts = _parts(k.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(cfg.iterations + 1):
            first, last = i == 0, i == cfg.iterations
            if parts == 1 or len(views) == 1:
                for view in views:
                    _sweep(view, cfg, first, last)
            else:
                _walk(lambda view, part: _sweep(view, cfg, first, last),
                      views, parts)
            if not last:
                if runs > 1:
                    np.sum(shares, axis=0, out=v)
                np.reciprocal(v, out=v)
    if not (math.isfinite(u.max()) and math.isfinite(v.max())):
        raise NumericalUnderflow(
            "Sinkhorn kernel underflowed to an all-zero row or column; "
            "increase the regularization weight or rescale the cost matrix"
        )
    return K


def _sweep(view, cfg, first, last):
    # One of _plan's sweeps over one view: u_b = 1 / (K_b v) and its share
    # u_b^T K_b of K^T u. The first sweep builds the view's runs of
    # K = exp(-C / regularization), where a quotient that overflows to -inf
    # gives the kernel entry its correct 0; the last writes the plan
    # diag(u) K diag(v) into K in place of the products.
    c_b, k_b, u_b, v_b, share, v_t, u_t = view
    if first:
        np.divide(c_b, -cfg.regularization, out=k_b.reshape(c_b.shape))
        np.exp(k_b, out=k_b)
    if last:
        k_b *= u_b
        k_b *= v_b
        return
    np.matmul(k_b, v_t, out=u_b)
    np.reciprocal(u_b, out=u_b)
    np.matmul(u_t, k_b, out=share)


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


def _transport(t, s, cfg, plan=None, stored=None, weight=0.0, loss=True):
    # The fused pass's sequence level on (B, T, k) stacks of kept tau_sd
    # probabilities: (plan, sd, product). Without a plan it builds the cost
    # and the plan. sd is computed only when loss (a call that reads no
    # loss and keeps no state asks for none), else None. stored, a state's
    # (student_seq, sd), is a cache: beside a given plan its sd is returned
    # when s is or equals that student (the cost depends on t and s alone)
    # and an sd is stored (a copy's state, or one built with loss False,
    # holds none); otherwise one new cost gives sd. A weight also gives
    # s * weight * dsd/ds (plan fixed; the backward checks it), scaled in
    # place in the kernel's own new array.
    student, sd = stored if stored and loss else (None, None)
    if plan is None or loss and (sd is None or not (
            s is student or np.array_equal(student, s))):
        cost = _cost(t, s)
        plan = _plan(cost, cfg) if plan is None else plan
        sd = _sd(cost, plan) if loss else None
        del cost  # T x T, spent before the gradient's blocks
    if not weight:
        return plan, sd, None
    with np.errstate(over="ignore", invalid="ignore"):
        g = _sd_grad(t, s, plan)
        return plan, sd, np.multiply(np.multiply(g, weight, out=g), s, out=g)


def _ranks(t, s):
    """Dense ranks of each item's teacher and student values per column of
    a (B, T, k) teacher and student stack, as a (B, k, 2T) array, the
    teacher's T first along its contiguous last axis: equal values, -0.0
    and 0.0 included, share a rank, so comparing two ranks compares the
    values.

    Each column is ranked on its own, so threads split the k axis, and each
    thread ranks its columns in groups whose values (in a new float array,
    sorted in place) and int64 sort order, with the group's int16 ranks,
    fill its share of the chunk scratch (core._CHUNK_ENTRIES, at three
    entries per value; one column at least): the returned ranks are the
    only array that spans every column.

    Returns int16 ranks, whose differences stay within +-(2T - 1) <= 32767
    while 2T <= 2^15, or int32 beyond.
    """
    batch, tokens, width = t.shape
    length = 2 * tokens
    dtype = np.int16 if length <= 2**15 else np.int32
    ranks = np.empty((batch, width, length), dtype)
    # A sort touches each of its 2T entries about log2(2T) times.
    parts = _parts(batch * width * length * length.bit_length())
    group = max(1, _CHUNK_ENTRIES // 3 // parts // (batch * length))

    def columns(c, part):
        for l in range(c.start, c.stop, group):
            _rank_group(t, s, slice(l, min(l + group, c.stop)), ranks)

    _walk(columns, _slices(width, parts))
    return ranks


def _rank_group(t, s, cols, ranks):
    # _ranks of the columns cols into ranks, in arrays of the group's size
    # that are freed on return, before the next group's are made.
    batch, tokens, _ = t.shape
    # C-ordered: a concatenation of transposes would be laid out as they are.
    v = np.concatenate((t[:, :, cols].transpose(0, 2, 1),
                        s[:, :, cols].transpose(0, 2, 1)), axis=2,
                       out=np.empty((batch, cols.stop - cols.start,
                                     2 * tokens)))
    order = np.argsort(v, axis=2)
    # Sorted in place rather than gathered through order: ties may sit in
    # any order, as they share a rank.
    v.sort(axis=2)
    # Steps between neighbours compared along the flat values, which numpy
    # does with no scratch of the group's size (the rows' own slices would
    # be buffered); each row then starts from 0.
    r = np.empty(v.shape, ranks.dtype)
    flat = v.reshape(-1)
    np.not_equal(flat[1:], flat[:-1], out=r.reshape(-1)[1:])
    r[..., 0] = 0
    np.cumsum(r, axis=2, out=r)
    # Scattered item by item through flat indices into the item's columns,
    # contiguous in ranks: the sort order, offset in place by its column's
    # place there, is the index. np.put_along_axis would build one of the
    # group's size, and a scatter per column and item costs a Python step
    # each (0.73 against 0.36 ms at (16, 8, 50)); numpy adds the offsets
    # through a buffer of at most 64 kB.
    order += np.arange(0, order[0].size, 2 * tokens)[:, None]
    for b in range(batch):
        ranks[b, cols].reshape(-1)[order[b]] = r[b]


def _sd_grad(t, s, plan):
    # sd_grad for each item of a (B, T, k) teacher and student stack of
    # finite values and a (B, T, T) plan stack, over signs[b, l, i, j] in
    # blocks of teacher rows i fixed by B and T alone, so no sum's grouping
    # depends on the thread count or k. Each thread walks the row blocks in
    # order and, in each, its share of the k axis in groups that fill its
    # share of the budget, on at most as many threads as blocks of one
    # column fit in the budget: a plan block is read for every column while
    # it is in cache. The signs are laid out (B, columns, rows, T), the
    # student token last, so each teacher value is subtracted along
    # contiguous memory.
    #
    # Unless a row block's signs, every column's, fit in half a chunk (then
    # one block covers the call), the signs come from the values' dense
    # ranks (_ranks): an int16 subtraction per entry, a quarter of the
    # float64 traffic, which the einsum reads directly. A call whose signs
    # fit subtracts the float values themselves, every column at once,
    # since the sort behind the ranks would cost more than the whole kernel
    # there (a harness step: 29 against 85 us at (4, 8, 15)); larger ones
    # gain from ranks, in one block or several ((1, 64, 50): 0.55 -> 0.34
    # ms on 2 cores). Both give the same signs, so the same bits; the
    # number of columns a group takes changes none.
    batch, tokens, width = t.shape
    row = max(1, batch * tokens)  # the signs of one column of a teacher row
    rows = max(1, min(tokens, _BLOCK_ENTRIES // 2 // row))
    block = rows * row  # of a row block
    ranked = block * width > _CHUNK_ENTRIES // 2
    # The signs held at once: _BLOCK_ENTRIES int16 differences of ranks, or
    # the at most half a chunk of float64 differences, which with numpy's
    # buffers for their broadcast subtraction stay within a chunk.
    budget = _BLOCK_ENTRIES if ranked else block * width
    columns = _slices(width, min(_parts(batch * tokens**2 * width),
                                 budget // block))
    cols = max(1, min(-(-width // len(columns)),
                      budget // len(columns) // block))
    if ranked:
        values = _ranks(t, s)
        t_all, s_all = values[..., :tokens, None], values[:, :, None, tokens:]
        del values  # held by its two views alone
    else:  # the values themselves, through transposed views
        t_all = t.transpose(0, 2, 1)[..., None]
        s_all = s.transpose(0, 2, 1)[:, :, None]
    # Made once the ranks are: the signs' budget and the (B, k, T) sums,
    # each column's in a row of its own, which no other thread writes.
    buf = np.empty(len(columns) * cols * block, t_all.dtype)
    sums = np.zeros((batch, width, tokens))

    def share(c, part):
        own = buf[part * cols * block:(part + 1) * cols * block]
        for i in range(0, tokens, rows):
            p = plan[:, i:i + rows]
            for l in range(c.start, c.stop, cols):
                group = slice(l, min(l + cols, c.stop))
                shape = (batch, group.stop - l) + p.shape[1:]
                diff = own[:math.prod(shape)].reshape(shape)
                # The student values copied in, then the teacher's
                # subtracted in place, the same bits as one subtraction:
                # numpy buffers each strided broadcast input of a float
                # subtraction, up to the block's size, and this leaves one
                # (31.9 against 62.6 kB at (4, 8, 15)); ranks cost the same.
                np.copyto(diff, s_all[:, group])
                np.subtract(diff, t_all[:, group, i:i + rows], out=diff)
                # np.sign has no branches on int16 and keeps sign(0) = 0
                # exactly (a float -0.0 adds nothing to the sums). The
                # einsum reads the signs in the compared dtype; each
                # product plan * sign is exact.
                np.sign(diff, out=diff)
                sums[:, group] += np.einsum("bij,blij->blj", p, diff)

    _walk(share, columns)
    # C-ordered, so that a product scaled in it sums its rows as a new one;
    # copied once the signs and ranks are freed.
    del buf, t_all, s_all
    return np.ascontiguousarray(sums.transpose(0, 2, 1))
