"""Cross-entropy plus the weighted multi-level transport objective.

total = ce + alpha * (had + beta * sl + gamma * sd)

The token losses (ce, had, sl) use one softmax temperature, the sequence
loss its own. build_state, total_loss_frozen, total_loss and total_grad are
thin wrappers that check the logits' shapes and call one fused pass
(_forward). It walks each logit matrix once, in cache-sized blocks of rows,
at both temperatures (core._softmax_pass, on every usable core), checks that
the logits are finite as it reads them, and keeps only what the loss reads:
each row's max and sum of exponentials, the column sums that rank the
columns, and the teacher's argmax for pseudo-labels. The label and k aligned
entries of every row are computed from those row normalizers. The upstream
gradient is nonzero only at the label and the k aligned columns, so a
gradient call keeps each temperature's part of it as sparse products. Its
student pass computes the tau_sl exponentials in the gradient it returns,
and one backward at the end (_softmax_backward) finishes them in place,
recomputes only the tau_sd softmax, block by block from the normalizers, and
sums it straight into the gradient: the only B x T x n array a gradient call
writes is the gradient it returns, and each of its entries is exponentiated
once per temperature. Gradients are with respect to the raw student logits,
with the rank/truncation selections and the Sinkhorn plan held fixed. Exact
matching reads whole softmaxes, which it takes from the dense core._softmax;
so does the padded-sort baseline, unless the student pass has left the whole
tau_sl softmax in the gradient.

A state also freezes the teacher's kept probabilities, so a call given one
runs no teacher pass.

The fused pass takes a leading batch axis of B sequences of equal length T:
every softmax, ranking, gather, cost, plan and loss works per sequence along
the last axes, so the distillation harness computes a whole training step in
one call, with the teacher's half of it computed once per run (_teacher).
The public functions above are its B = 1 case, passing views of their
inputs with a batch axis of one.
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .core import (PROB_FLOOR, _blocks, _check_temperature, _floor_log,
                   _is_count, _logit_matrix, _parts, _softmax, _softmax_at,
                   _softmax_pass, _walk, safe_log, validate_logits,
                   validate_probs)
from .errors import InvalidConfig, InvalidInput
from .preprocess import (EXACT_ASSIGNMENT, SUM_SORT, AlignedPair,
                         RankSelection, _descending_stable,
                         _head_width, _last_axis, _match, _width)
from .seq_ot import SinkhornConfig, _cost, _plan, _sd, _sd_grad
from .token_ot import _sl_loss, _uld_grad, _uld_sorted, had_loss

# Objectives the fused pass can differentiate: the full objective, the
# cross-entropy alone, and the cross-entropy plus alpha times the padded-sort
# baseline (uld_loss) at tau_sl. The distillation harness trains with each.
MULTILEVEL_OT = "multilevel_ot"
CE_ONLY = "ce_only"
ULD = "uld"


@dataclass(frozen=True)
class LossWeights:
    """Component weights, temperatures, and truncation width."""

    alpha: float = 0.15
    beta: float = 0.1
    gamma: float = 0.1
    tau_sl: float = 1.0
    tau_sd: float = 2.0
    k: int = 50
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    match_mode: str = SUM_SORT

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InvalidConfig(f"{name} must be finite and nonnegative, got {v}")
        # The fused pass trusts these temperatures.
        for name in ("tau_sl", "tau_sd"):
            _check_temperature(getattr(self, name), name)
        if not _is_count(self.k):
            raise InvalidConfig(f"truncation width k must be an integer >= 1, "
                                f"got {self.k}")
        modes = (SUM_SORT, EXACT_ASSIGNMENT)
        if self.match_mode not in modes:
            raise InvalidConfig(f"unknown match_mode {self.match_mode!r}; "
                                f"choose from {modes}")


@dataclass(frozen=True)
class LossBreakdown:
    """All loss components plus the weighted total and the alignments used."""

    ce: float
    had: float
    sl: float
    sd: float
    total: float
    rank: RankSelection
    rank_seq: RankSelection

    @property
    def k_eff(self) -> int:
        return self.rank.k


@dataclass(frozen=True)
class PipelineState:
    """Frozen alignment selections, Sinkhorn plan, labels and teacher.

    Holding this fixed makes the objective a plain differentiable function
    of the raw student logits (away from absolute-value kinks). A state is
    tied to the teacher and the temperatures it was built with: teacher and
    teacher_seq are the teacher's kept probabilities at tau_sl (the columns
    of rank) and at tau_sd (those of rank_seq), and teacher_logits the
    teacher's logits at both sets of kept columns, which every call given
    the state compares with its teacher argument. Only states returned to
    a caller carry teacher_logits.
    """

    length: int
    labels: np.ndarray
    rank: RankSelection
    rank_seq: RankSelection
    plan: np.ndarray
    tau_sl: float
    tau_sd: float
    teacher: np.ndarray
    teacher_seq: np.ndarray
    teacher_logits: np.ndarray | None


def ce_loss(student_probs, labels):
    """Negative log-likelihood of the labels under the student rows.

    Returns (value, grad) where grad is the gradient with respect to the raw
    student logits under a unit-temperature softmax: probs - onehot(labels).
    """
    probs = validate_probs(student_probs)
    labels = _validate_labels(labels, probs.shape[0], probs.shape[1])
    rows = np.arange(probs.shape[0])
    value = -float(safe_log(probs[rows, labels]).sum())
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return value, grad


def _validate_labels(labels, length, vocab):
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < length:
        raise InvalidInput(
            f"need at least {length} labels, got shape {labels.shape}"
        )
    labels = labels[:length]
    if labels.dtype.kind not in "iu" and not (
            labels.dtype.kind == "f" and np.isfinite(labels).all()
            and (labels == np.round(labels)).all()):
        raise InvalidInput("labels must be integers")
    labels = labels.astype(int)
    if labels.min() < 0 or labels.max() >= vocab:
        raise InvalidInput(f"label out of range [0, {vocab})")
    return labels


def _pseudo_labels(argmax, rank: RankSelection, n_student):
    """Teacher per-token argmax mapped through the rank alignment.

    The argmax teacher dimension's position in the teacher ranking indexes
    the matched student dimension; positions beyond the student vocabulary
    clamp to its last ranked dimension. Works per item on a (B, T) argmax
    with (B, m) and (B, n) permutations.
    """
    inv = np.empty_like(rank.teacher_perm)
    np.put_along_axis(inv, rank.teacher_perm,
                      np.arange(rank.teacher_perm.shape[-1]), axis=-1)
    pos = np.take_along_axis(inv, argmax, axis=-1)
    pos = np.minimum(pos, n_student - 1)
    return np.take_along_axis(rank.student_perm, pos, axis=-1)


def _batch_of_one(teacher_logits, student_logits, labels=None, state=None):
    # The public functions' inputs, cut to their shared tokens, as a batch
    # of one. Only shapes are checked here: each softmax pass checks that
    # the logits it reads are finite. A teacher given with a state, which
    # no pass reads, is validated whole, in one read of each block.
    t = (_logit_matrix if state is None else validate_logits)(teacher_logits)
    s = _logit_matrix(student_logits)
    length = min(t.shape[0], s.shape[0])
    if labels is not None:
        labels = _validate_labels(labels, length, s.shape[1])[None]
    return t[None, :length], s[None, :length], labels


def _index(obj, i):
    """A state, breakdown or rank with i applied to every array field.

    i=None views a single one as a batch of one; i=0 takes the first item
    of a batched one, with its loss components as floats.
    """
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value[i]
            if value.ndim == 0:
                value = float(value)
        elif is_dataclass(value):
            value = _index(value, i)
        changes[f.name] = value
    return replace(obj, **changes)


def _check_state(state: PipelineState, t, n, w):
    length, m = t.shape[1:]
    if state.length != length:
        raise InvalidInput("state was built for a different token count")
    for rank in (state.rank, state.rank_seq):
        if rank.teacher_perm.shape[-1] != m or rank.student_perm.shape[-1] != n:
            raise InvalidInput(
                f"state was built for vocabularies of {rank.teacher_perm.shape[-1]} "
                f"and {rank.student_perm.shape[-1]}, got {m} and {n}")
    if (state.tau_sl, state.tau_sd) != (w.tau_sl, w.tau_sd):
        raise InvalidConfig(
            f"state was built at tau_sl={state.tau_sl}, tau_sd={state.tau_sd}, "
            f"got tau_sl={w.tau_sl}, tau_sd={w.tau_sd}")
    if not np.array_equal(_kept_logits(t, state.rank, state.rank_seq),
                          state.teacher_logits):
        raise InvalidInput("teacher logits differ from the state's at its kept "
                           "columns; a state is tied to its teacher")


def _kept_logits(t, rank, rank_seq):
    # The teacher's logits at the kept columns of both levels, (B, T, 2k).
    cols = np.concatenate((rank.teacher_perm[:, :rank.k],
                           rank_seq.teacher_perm[:, :rank_seq.k]), axis=-1)
    return t[_last_axis(t.shape, cols[:, None, :])]


@dataclass(frozen=True)
class _Teacher:
    """The teacher's half of a pass without a state, for one student width.

    Per level (tau_sl, tau_sd): perm, the (B, m) ranking of the teacher's
    columns by sequence-summed probability, and head, its probabilities at
    the first ranked columns, (B, T, width): the k kept ones, or all
    min(m, n) that exact matching reads. argmax (the per-token argmax at
    tau_sl, for pseudo-labels) and dense (the rows of the dense tau_sl
    softmax, zero-padded to max(m, n) columns and sorted descending: the
    teacher's half of the padded-sort baseline's gradient) are None unless
    asked for.
    """

    logits: np.ndarray
    perm: tuple
    head: tuple
    argmax: np.ndarray | None
    dense: np.ndarray | None


def _teacher(t, n, w, argmax, dense):
    # The teacher's half of _forward on (B, T, m) logits t against a
    # student vocabulary of n: one blocked pass at both temperatures, which
    # also checks that t is finite.
    taus = (w.tau_sl, w.tau_sd)
    top, totals, sums, best = _softmax_pass(t, taus, sums=True, argmax=argmax)
    width = _head_width(w.k, t.shape[-1], n, w.match_mode)
    perm = tuple(_descending_stable(x) for x in sums)
    head = tuple(_softmax_at(t, tau, (top, total),
                             _last_axis(t.shape, p[:, None, :width]))
                 for tau, total, p in zip(taus, totals, perm))
    return _Teacher(logits=t, perm=perm, head=head, argmax=best,
                    dense=_uld_sorted(_softmax(t, w.tau_sl), n) if dense
                    else None)


def _rank(teacher, level, student, k, mode):
    # The RankSelection of one level: the teacher's ranking, and the student
    # matched to it from its column sums (SUM_SORT) or probabilities.
    return RankSelection(teacher_perm=teacher.perm[level],
                         student_perm=_match(teacher.head[level], student, mode),
                         k=k, match_mode=mode)


def _softmax_backward(z, top, levels, gradient, normalized):
    """The gradient w.r.t. the (B, T, V) logits z of a loss that reads
    softmaxes of z only at sparse entries, one softmax per level.

    Each level is (tau, total, terms): the softmax of z at tau, whose row
    normalizers from core._softmax_pass are (top, total), and its upstream
    gradient as terms (index, x). index picks entries p = softmax[index]
    (a preprocess._last_axis tuple whose entries are distinct within a
    term, or None for every entry), and x = p * g holds them times the
    upstream gradient g there. A level's backward is
    softmax * -(sum of x along each row) / tau plus x / tau at index
    (core.softmax_backward of the dense upstream gradient); the terms'
    arrays are divided by tau in place.

    gradient, the array returned, holds the first level's exponentials
    exp((z - top) / tau) as the pass computed them there (its out), divided
    by their row sums when normalized. Block by block (core._blocks), that
    level is finished in place, the other softmaxes are recomputed from
    their normalizers, and the levels of the block are summed into it.
    Rows are independent, so each usable core walks its own run of blocks
    (core._walk), in its share of the one block buffer.
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
            probs = out
            if i:
                probs = np.subtract(zb, top[block],
                                    out=buf[part, :zb.shape[0], :zb.shape[1]])
                if tau != 1.0:
                    probs /= tau
                np.exp(probs, out=probs)
            if i or not normalized:
                probs /= total[block]
            probs *= scale[block]
            for index, x in terms:
                if index is None:
                    probs += x[block]
                    continue
                # The batch and row parts of index count from 0, as in the
                # block; columns given per row are taken at its rows.
                cols = index[2]
                probs[index[0][:zb.shape[0]], index[1][:zb.shape[1]],
                      cols[block] if cols.shape[1] > 1 else cols[block[0]]
                      ] += x[block]
            if i:
                out += probs

    # The exponentials as core._shifted_exp computes them, under one
    # errstate for the call, which _parallel's threads share: a quotient
    # below the float range is -inf, whose exp is the correct 0.
    with np.errstate(over="ignore"):
        _walk(finish, blocks, parts)
    return gradient


def _forward(t, s, w, state=None, labels=None, need_loss=True, grad=None):
    """The fused pass behind build_state, total_loss_frozen, total_loss,
    total_grad and the harness's training step, on B sequences at once.

    t and s are validated (B, T, m) teacher and (B, T, n) student logits;
    without a state, t may instead be the teacher's half from _teacher,
    which the harness builds once per run. Builds the state when none is
    given (labels=None derives pseudo-labels; given labels are a validated
    (B, T) array, ignored when a state is given), evaluates the loss
    breakdown when need_loss, and, when grad names an objective
    (MULTILEVEL_OT, CE_ONLY or ULD; ULD only without a state), its
    gradient w.r.t. the raw student logits, computed by one backward at the
    end. Returns (state, breakdown or None, gradient or None), each with a
    leading batch axis: the state's arrays and the breakdown's components
    hold one entry per sequence, and the gradient is (B, T, n).

    A given state must match t at its kept columns and w's temperatures;
    the teacher then enters only through the state. A state built as the
    only output (no loss, no gradient: build_state) records the teacher's
    kept logits; the others are never returned to a caller.
    """
    length, n = s.shape[1:]
    ot_alpha = w.alpha if grad == MULTILEVEL_OT else 0.0
    seq_grad = grad is not None and ot_alpha * w.gamma > 0
    if state is None:
        teacher = t if isinstance(t, _Teacher) else _teacher(
            t, n, w, argmax=labels is None, dense=grad == ULD)
        k = _width(w.k, teacher.logits.shape[-1], n)
        exact = w.match_mode == EXACT_ASSIGNMENT
    else:
        _check_state(state, t, n, w)
        exact = False
    seq_level = state is None or need_loss or seq_grad
    taus = (w.tau_sl, w.tau_sd)[:1 + seq_level]

    # The student's one pass: its row normalizers and, to rank, its column
    # sums. Exact matching ranks from whole softmaxes instead, taken dense
    # one at a time. A gradient call has the pass write its tau_sl
    # exponentials into the gradient, which the backward finishes in place.
    gradient = None if grad is None else np.empty(s.shape)
    top, totals, sums, _ = _softmax_pass(s, taus, out=gradient,
                                         sums=state is None and not exact)

    # Token temperature: ce + alpha * (had + beta * sl).
    if state is None:
        rank = _rank(teacher, 0, _softmax(s, w.tau_sl) if exact else sums[0],
                     k, w.match_mode)
        if labels is None:
            labels = _pseudo_labels(teacher.argmax, rank, n)
        teacher1 = teacher.head[0][..., :k]
    else:
        rank, labels, teacher1 = state.rank, state.labels, state.teacher
    at_label = _last_axis(s.shape, labels[:, :, None])
    cols1 = _last_axis(s.shape, rank.student_perm[:, None, :rank.k])
    p_label = _softmax_at(s, w.tau_sl, (top, totals[0]), at_label)
    if need_loss or ot_alpha > 0:
        pair1 = AlignedPair(teacher=teacher1, student=_softmax_at(
            s, w.tau_sl, (top, totals[0]), cols1))
        had, sl = had_loss(pair1), _sl_loss(pair1)
    # Each level's upstream gradient is kept only as the sparse products
    # p * g that the one backward at the end reads. A softmax entry p read
    # by nothing else after its gradient g is overwritten with p * g.
    levels = []
    if grad is not None:
        # Only labels above the floor get -1/p; dividing elsewhere would
        # evaluate 1/0 on a saturated row.
        g_label = np.divide(-1.0, p_label, out=np.zeros_like(p_label),
                            where=p_label > PROB_FLOOR)
        terms = [(at_label, p_label * g_label)]
        if ot_alpha > 0:
            pair1.student[...] *= ot_alpha * (had.grad + w.beta * sl.grad)
            terms.append((cols1, pair1.student))
        if grad == ULD:
            # The padded-sort baseline reads every column of both softmaxes;
            # a pass that ranks left the student's at tau_sl in the gradient.
            probs = _softmax(s, w.tau_sl) if sums is None else gradient
            terms.append((None, probs * (w.alpha
                                         * _uld_grad(teacher.dense, probs))))
        levels.append((w.tau_sl, totals[0], terms))
    if need_loss or ot_alpha > 0:
        had, sl = had.value, sl.value

    # Sequence temperature: the plan, and alpha * gamma * sd.
    if seq_level:
        if state is None:
            rank_seq = _rank(teacher, 1, _softmax(s, w.tau_sd) if exact
                             else sums[1], k, w.match_mode)
            teacher2 = teacher.head[1][..., :k]
        else:
            rank_seq, teacher2 = state.rank_seq, state.teacher_seq
        cols2 = _last_axis(s.shape, rank_seq.student_perm[:, None, :rank_seq.k])
        pair2 = AlignedPair(teacher=teacher2, student=_softmax_at(
            s, w.tau_sd, (top, totals[1]), cols2))
        cost = (_cost(pair2.teacher, pair2.student)
                if state is None or need_loss else None)
        if state is None:
            kept = (_kept_logits(teacher.logits, rank, rank_seq)
                    if not need_loss and grad is None else None)
            state = PipelineState(length=length, labels=labels, rank=rank,
                                  rank_seq=rank_seq,
                                  plan=_plan(cost, w.sinkhorn),
                                  tau_sl=w.tau_sl, tau_sd=w.tau_sd,
                                  teacher=teacher1, teacher_seq=teacher2,
                                  teacher_logits=kept)
        if seq_grad:
            pair2.student[...] *= ot_alpha * w.gamma * _sd_grad(
                pair2.teacher, pair2.student, state.plan)
            levels.append((w.tau_sd, totals[1], [(cols2, pair2.student)]))

    if grad is not None:
        gradient = _softmax_backward(s, top, levels, gradient,
                                     normalized=sums is not None)
    breakdown = None
    if need_loss:
        ce = -_floor_log(p_label).sum(axis=(1, 2))
        sd = _sd(cost, state.plan)
        total = ce + w.alpha * (had + w.beta * sl + w.gamma * sd)
        breakdown = LossBreakdown(ce=ce, had=had, sl=sl, sd=sd,
                                  total=total, rank=state.rank,
                                  rank_seq=state.rank_seq)
    return state, breakdown, gradient


def build_state(teacher_logits, student_logits, labels=None, w=LossWeights()):
    """Compute the alignments and Sinkhorn plan for a teacher/student pair.

    With labels=None, per-token pseudo-labels are derived from the teacher
    argmax through the rank alignment.
    """
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels)
    return _index(_forward(t, s, w, labels=labels, need_loss=False)[0], 0)


def total_loss_frozen(state: PipelineState, teacher_logits, student_logits,
                      w=LossWeights()) -> LossBreakdown:
    """Evaluate every component with the state's selections and plan fixed.

    The state's labels, selections and plan apply: w.k, w.match_mode and
    w.sinkhorn are ignored, and only w's temperatures must match the state's.
    """
    t, s, _ = _batch_of_one(teacher_logits, student_logits, state=state)
    return _index(_forward(t, s, w, state=_index(state, None))[1], 0)


def total_loss(teacher_logits, student_logits, labels=None,
               w=LossWeights()) -> LossBreakdown:
    """Full objective: cross-entropy plus the weighted transport losses."""
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels)
    return _index(_forward(t, s, w, labels=labels)[1], 0)


def total_grad(teacher_logits, student_logits, labels=None, w=LossWeights(),
               state: PipelineState | None = None) -> np.ndarray:
    """Gradient of total_loss w.r.t. the raw student logits.

    Rank/truncation selections and the Sinkhorn plan are held fixed;
    truncated-away dimensions receive gradient only through the softmax
    normalization. Matches finite differences of total_loss_frozen.

    With a state, the state's labels, selections and plan apply: labels,
    w.k, w.match_mode and w.sinkhorn are ignored, and only w's temperatures
    must match the state's.
    """
    if state is not None:
        state, labels = _index(state, None), None
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels, state)
    return _forward(t, s, w, state=state, labels=labels, need_loss=False,
                    grad=MULTILEVEL_OT)[2][0]
