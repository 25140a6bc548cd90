"""Cross-entropy plus the weighted multi-level transport objective.

total = ce + alpha * (had + beta * sl + gamma * sd)

The token losses (ce, had, sl) use one softmax temperature, the sequence
loss its own. build_state, total_loss_frozen, total_loss and total_grad are
thin wrappers that check their config and state objects and the logits'
shapes and call one fused pass (_forward). This module holds the loss
algebra and the state; core walks the logit stacks and reads and writes them
at kept columns. The pass walks each logit matrix once, in blocks of rows,
at both temperatures (core._softmax_pass, on every usable core), checks that
the logits are finite as it reads them, and keeps only what the loss reads:
each row's max and sum of exponentials, the column sums that rank the
columns, and the teacher's argmax for pseudo-labels. The label and k aligned
entries of every row are computed from those row normalizers. The upstream
gradient is nonzero only at the label and the k aligned columns, so a
gradient call keeps each temperature's part of it as sparse products. Its
student pass computes the tau_sl softmax in the gradient it returns, and one
backward at the end (core._softmax_backward) finishes it in place,
recomputes only the tau_sd softmax, block by block from the normalizers, and
sums it straight into the gradient: the only B x T x n array a gradient call
writes under sum-sort matching is the gradient it returns, and each student
entry is exponentiated once at tau_sl and twice at tau_sd (in the pass and
in the backward). Gradients are with respect to the raw student logits, with
the rank/truncation selections and the Sinkhorn plan held fixed. Exact
matching reads whole student softmaxes: the tau_sl one that the student pass
leaves in an array (the gradient, in a gradient call), and the tau_sd one
from the pass's normalizers (core._softmax_at). The padded-sort baseline
reads the student's tau_sl softmax in the gradient and the teacher's from
the teacher pass. No softmax here is computed any other way.

A state also freezes the teacher's kept probabilities, so a call given one
runs no teacher pass. The state build_state returns also keeps the
sequence loss of its own student, so total_loss_frozen at that student
computes no T x T cost.

The fused pass takes a leading batch axis of B sequences of equal length T:
every softmax, ranking, gather, cost, plan and loss works per sequence along
the last axes, so the distillation harness computes a whole training step in
one call, with the teacher's half of it computed once per run (_teacher).
The public functions above are its B = 1 case, passing views of their
inputs with a batch axis of one.
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .core import (PROB_FLOOR, _check_number, _check_type, _floor_log,
                   _gather, _is_count, _logit_matrix, _softmax_at,
                   _softmax_backward, _softmax_pass, validate_logits,
                   validate_probs)
from .errors import InvalidConfig, InvalidInput
from .preprocess import (EXACT_ASSIGNMENT, SUM_SORT, RankSelection,
                         _descending_stable, _head_width, _match, _width)
from .seq_ot import SinkhornConfig, _cost, _plan, _sd, _sd_grad
from .token_ot import _had_loss, _sl_loss, _uld_grad, _uld_sorted

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
            _check_number(getattr(self, name), name, strict=False)
        # The fused pass trusts these temperatures.
        for name in ("tau_sl", "tau_sd"):
            _check_number(getattr(self, name), name)
        _check_type(self.sinkhorn, SinkhornConfig, "sinkhorn")
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


COMPONENTS = tuple(f.name for f in fields(LossBreakdown) if f.type is float)


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

    Such a state also keeps the sequence loss of the student it was built
    at: student_seq, that student's kept probabilities at tau_sd (the
    columns of rank_seq, T x k floats), and sd, the transport value of the
    plan and their cost against teacher_seq. The cost depends on nothing
    else, so a call given the state at the same kept probabilities takes
    sd from it and computes no T x T cost. Other states hold None. Neither
    is an argument of the constructor, so a copy (dataclasses.replace),
    which may hold another plan or teacher_seq, holds None too.
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
    student_seq: np.ndarray | None = field(default=None, init=False)
    sd: np.ndarray | float | None = field(default=None, init=False)


def ce_loss(student_probs, labels):
    """Negative log-likelihood of the labels under the student rows.

    Returns (value, grad) where grad is the gradient with respect to the raw
    student logits under a unit-temperature softmax: probs - onehot(labels).
    """
    probs = validate_probs(student_probs)
    labels = _validate_labels(labels, probs.shape[0], probs.shape[1])
    rows = np.arange(probs.shape[0])
    value = -float(_floor_log(probs[rows, labels]).sum())
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
            labels.dtype.kind == "f" and (labels == np.round(labels)).all()):
        raise InvalidInput("labels must be integers")
    # Compared in their own dtype (a float past the int range, inf too,
    # would not cast); the initial values let zero labels pass.
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= vocab:
        raise InvalidInput(f"label out of range [0, {vocab})")
    return labels.astype(int)


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
    of a batched one, with its loss components as floats. Fields outside
    the constructor (a state's stored sequence loss) are carried too.
    """
    changes, carried = {}, {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value[i]
            if value.ndim == 0:
                value = float(value)
        elif is_dataclass(value):
            value = _index(value, i)
        (changes if f.init else carried)[f.name] = value
    out = replace(obj, **changes)
    for name, value in carried.items():
        object.__setattr__(out, name, value)
    return out


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
    return _gather(t, cols[:, None, :])


@dataclass(frozen=True)
class _Teacher:
    """The teacher's half of a pass without a state, for one student width.

    Per level (tau_sl, tau_sd): perm, the (B, m) ranking of the teacher's
    columns by sequence-summed probability, and head, its probabilities at
    the first ranked columns, (B, T, width): the k kept ones, or all
    min(m, n) that exact matching reads. argmax (the per-token argmax at
    tau_sl, for pseudo-labels) and dense (the rows of the whole tau_sl
    softmax, which the pass writes, zero-padded to max(m, n) columns and
    sorted descending: the teacher's half of the padded-sort baseline's
    gradient) are None unless asked for.
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
    probs = np.empty(t.shape) if dense else None
    top, totals, sums, best = _softmax_pass(t, taus, sums=True, argmax=argmax,
                                            out=probs)
    width = _head_width(w.k, t.shape[-1], n, w.match_mode)
    perm = tuple(_descending_stable(x) for x in sums)
    head = tuple(_softmax_at(t, tau, (top, total), p[:, None, :width])
                 for tau, total, p in zip(taus, totals, perm))
    return _Teacher(logits=t, perm=perm, head=head, argmax=best,
                    dense=None if probs is None else _uld_sorted(probs, n))


def _rank(teacher, level, student, k, mode):
    # The RankSelection of one level: the teacher's ranking, and the student
    # matched to it from its column sums (SUM_SORT) or probabilities.
    return RankSelection(teacher_perm=teacher.perm[level],
                         student_perm=_match(teacher.head[level], student, mode),
                         k=k, match_mode=mode)


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
    kept logits and its own student's sequence loss, which a loss call
    given the state at that student reuses; the others are never returned
    to a caller.
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
    # sums. A gradient call has the pass write its tau_sl softmax into the
    # gradient, which the backward finishes in place. Exact matching ranks
    # from whole softmaxes instead: the pass's tau_sl one, in the gradient
    # or in probs, and then the tau_sd one from its normalizers, written
    # over probs unless probs is the gradient.
    gradient = probs = None if grad is None else np.empty(s.shape)
    if exact and probs is None:
        probs = np.empty(s.shape)
    top, totals, sums, _ = _softmax_pass(s, taus, out=probs,
                                         sums=state is None and not exact)

    # Token temperature: ce + alpha * (had + beta * sl).
    if state is None:
        rank = _rank(teacher, 0, probs if exact else sums[0], k, w.match_mode)
        if labels is None:
            labels = _pseudo_labels(teacher.argmax, rank, n)
        teacher1 = teacher.head[0][..., :k]
    else:
        rank, labels, teacher1 = state.rank, state.labels, state.teacher
    if need_loss or grad is not None:
        at_label = labels[:, :, None]
        p_label = _softmax_at(s, w.tau_sl, (top, totals[0]), at_label)
    if need_loss or ot_alpha > 0:
        cols1 = rank.student_perm[:, None, :rank.k]
        student1 = _softmax_at(s, w.tau_sl, (top, totals[0]), cols1)
        had, sl = _had_loss(teacher1, student1), _sl_loss(teacher1, student1)
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
            student1 *= ot_alpha * (had.grad + w.beta * sl.grad)
            terms.append((cols1, student1))
        if grad == ULD:
            # The padded-sort baseline reads every column of both softmaxes;
            # the pass left the student's at tau_sl in the gradient.
            terms.append((None, gradient * (
                w.alpha * _uld_grad(teacher.dense, gradient))))
        levels.append((w.tau_sl, totals[0], terms))
    if need_loss or ot_alpha > 0:
        had, sl = had.value, sl.value

    # Sequence temperature: the plan, and alpha * gamma * sd.
    if seq_level:
        if state is None:
            rank_seq = _rank(teacher, 1, _softmax_at(
                s, w.tau_sd, (top, totals[1]),
                out=None if probs is gradient else probs) if exact
                else sums[1], k, w.match_mode)
            teacher2 = teacher.head[1][..., :k]
        else:
            rank_seq, teacher2 = state.rank_seq, state.teacher_seq
        cols2 = rank_seq.student_perm[:, None, :rank_seq.k]
        student2 = _softmax_at(s, w.tau_sd, (top, totals[1]), cols2)
        # The cost is a function of the kept probabilities at tau_sd alone,
        # so at a state's own student its stored sd is the loss's.
        sd = (state.sd if need_loss and state is not None
              and state.sd is not None
              and np.array_equal(state.student_seq, student2) else None)
        cost = (_cost(teacher2, student2)
                if state is None or (need_loss and sd is None) else None)
        if state is None:
            returned = not need_loss and grad is None
            plan = _plan(cost, w.sinkhorn)
            state = PipelineState(
                length=length, labels=labels, rank=rank, rank_seq=rank_seq,
                plan=plan, tau_sl=w.tau_sl, tau_sd=w.tau_sd,
                teacher=teacher1, teacher_seq=teacher2,
                teacher_logits=(_kept_logits(teacher.logits, rank, rank_seq)
                                if returned else None))
            if returned:
                object.__setattr__(state, "student_seq", student2)
                object.__setattr__(state, "sd", _sd(cost, plan))
        if seq_grad:
            student2 *= ot_alpha * w.gamma * _sd_grad(teacher2, student2,
                                                      state.plan)
            levels.append((w.tau_sd, totals[1], [(cols2, student2)]))

    if grad is not None:
        gradient = _softmax_backward(s, top, levels, gradient)
    breakdown = None
    if need_loss:
        ce = -_floor_log(p_label).sum(axis=(1, 2))
        if sd is None:
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
    _check_type(w, LossWeights, "w")
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels)
    return _index(_forward(t, s, w, labels=labels, need_loss=False)[0], 0)


def total_loss_frozen(state: PipelineState, teacher_logits, student_logits,
                      w=LossWeights()) -> LossBreakdown:
    """Evaluate every component with the state's selections and plan fixed.

    The state's labels, selections and plan apply: w.k, w.match_mode and
    w.sinkhorn are ignored, and only w's temperatures must match the state's.
    """
    _check_type(state, PipelineState, "state")
    _check_type(w, LossWeights, "w")
    t, s, _ = _batch_of_one(teacher_logits, student_logits, state=state)
    return _index(_forward(t, s, w, state=_index(state, None))[1], 0)


def total_loss(teacher_logits, student_logits, labels=None,
               w=LossWeights()) -> LossBreakdown:
    """Full objective: cross-entropy plus the weighted transport losses."""
    _check_type(w, LossWeights, "w")
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
    _check_type(w, LossWeights, "w")
    if state is not None:
        state = _index(_check_type(state, PipelineState, "state"), None)
        labels = None
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels, state)
    return _forward(t, s, w, state=state, labels=labels, need_loss=False,
                    grad=MULTILEVEL_OT)[2][0]
