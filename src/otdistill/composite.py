"""Cross-entropy plus the weighted multi-level transport objective.

total = ce + alpha * (had + beta * sl + gamma * sd)

The token losses (ce, had, sl) use one softmax temperature, the sequence loss
its own. build_state, total_loss_frozen, total_loss and total_grad are thin
wrappers that validate the logits once and call one fused pass (_forward),
which runs each (matrix, temperature) softmax once, gathers only the k
aligned columns, and back-propagates through each softmax in place: the
upstream gradient is nonzero only at the label and the k aligned columns, so
the backward reads and writes k + 1 columns plus one rescaling of each row.
Gradients are with respect to the raw student logits, with the
rank/truncation selections and the Sinkhorn plan held fixed.

The fused pass takes a leading batch axis of B sequences of equal length T:
every softmax, ranking, gather, cost, plan and loss works per sequence along
the last axes, so the distillation harness computes a whole training step in
one call. The public functions above are its B = 1 case, passing views of
their inputs with a batch axis of one.
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .core import PROB_FLOOR, _softmax, safe_log, validate_logits, validate_probs
from .errors import InvalidConfig, InvalidInput
from .preprocess import (SUM_SORT, AlignedPair, RankSelection,
                         _align_and_truncate, _gather, _last_axis)
from .seq_ot import SinkhornConfig, _cost, _plan, _sd, _sd_grad
from .token_ot import had_loss, sl_loss, uld_grad

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
        # The fused pass trusts these temperatures; softmax_rows re-checks its own.
        for name in ("tau_sl", "tau_sd"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise InvalidConfig(f"{name} must be finite and positive, got {v}")
        if not np.isfinite(self.k) or self.k != int(self.k) or self.k < 1:
            raise InvalidConfig(f"truncation width k must be an integer >= 1, "
                                f"got {self.k}")


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
    """Frozen alignment selections, Sinkhorn plan, and resolved labels.

    Holding this fixed makes the objective a plain differentiable function
    of the raw student logits (away from absolute-value kinks).
    """

    length: int
    labels: np.ndarray
    rank: RankSelection
    rank_seq: RankSelection
    plan: np.ndarray


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


def _pseudo_labels(teacher_probs, rank: RankSelection, n_student):
    """Teacher per-token argmax mapped through the rank alignment.

    The argmax teacher dimension's position in the teacher ranking indexes
    the matched student dimension; positions beyond the student vocabulary
    clamp to its last ranked dimension. Works per item on a (B, T, m) stack
    with (B, m) and (B, n) permutations.
    """
    inv = np.argsort(rank.teacher_perm, axis=-1)
    pos = np.take_along_axis(inv, np.argmax(teacher_probs, axis=-1), axis=-1)
    pos = np.minimum(pos, n_student - 1)
    return np.take_along_axis(rank.student_perm, pos, axis=-1)


def _aligned_logits(teacher_logits, student_logits):
    t = validate_logits(teacher_logits)
    s = validate_logits(student_logits)
    length = min(t.shape[0], s.shape[0])
    if length == 0:
        raise InvalidInput("no overlapping tokens between teacher and student")
    return t[:length], s[:length], length


def _batch_of_one(teacher_logits, student_logits, labels=None):
    # The public functions' inputs, validated once, as a batch of one.
    t, s, length = _aligned_logits(teacher_logits, student_logits)
    if labels is not None:
        labels = _validate_labels(labels, length, s.shape[1])[None]
    return t[None], s[None], labels


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


def _check_state(state: PipelineState, length, m, n):
    if state.length != length:
        raise InvalidInput("state was built for a different token count")
    for rank in (state.rank, state.rank_seq):
        if rank.teacher_perm.shape[-1] != m or rank.student_perm.shape[-1] != n:
            raise InvalidInput(
                f"state was built for vocabularies of {rank.teacher_perm.shape[-1]} "
                f"and {rank.student_perm.shape[-1]}, got {m} and {n}")


def _softmax_backward_inplace(probs, tau, terms):
    """softmax_backward for an upstream gradient given as sparse terms.

    The upstream gradient is the sum over (index, p, g) in terms of g at
    probs[index], where p is probs[index] gathered before the call (the
    indexed entries are distinct within a term, and each index keeps the
    rows' last axis last). probs is overwritten with the gradient w.r.t.
    the logits and returned; no dense upstream matrix is built.
    """
    inner = sum((p * g).sum(axis=-1, keepdims=True) for _, p, g in terms)
    probs *= -inner / tau
    for index, p, g in terms:
        probs[index] += p * g / tau
    return probs


def _forward(t, s, w, state=None, labels=None, need_loss=True, grad=None):
    """The fused pass behind build_state, total_loss_frozen, total_loss,
    total_grad and the harness's training step, on B sequences at once.

    t and s are validated (B, T, m) teacher and (B, T, n) student logits.
    Builds the state when none is given (labels=None derives pseudo-labels;
    given labels are a validated (B, T) array, ignored when a state is
    given), evaluates the loss breakdown when need_loss, and, when grad
    names an objective (MULTILEVEL_OT, CE_ONLY or ULD), its gradient w.r.t.
    the raw student logits. Returns (state, breakdown or None, gradient or
    None), each with a leading batch axis: the state's arrays and the
    breakdown's components hold one entry per sequence, and the gradient is
    (B, T, n).
    """
    length, n = s.shape[1:]
    if state is not None:
        _check_state(state, length, t.shape[2], n)
    ot_alpha = w.alpha if grad == MULTILEVEL_OT else 0.0
    seq_grad = grad is not None and ot_alpha * w.gamma > 0

    # Each full softmax is dropped once its columns are gathered (or, for the
    # student, once it has become the gradient), which bounds the peak at
    # about three B x T x V buffers.

    # Token temperature: ce + alpha * (had + beta * sl).
    t1 = _softmax(t, w.tau_sl)
    s1 = _softmax(s, w.tau_sl)
    if state is None:
        pair1, rank = _align_and_truncate(t1, s1, w.k, w.match_mode)
        if labels is None:
            labels = _pseudo_labels(t1, rank, n)
    else:
        rank, labels = state.rank, state.labels
        pair1 = AlignedPair(teacher=_gather(t1, rank.teacher_perm[:, :rank.k]),
                            student=_gather(s1, rank.student_perm[:, :rank.k]))
    uld = w.alpha * uld_grad(t1, s1) if grad == ULD else None
    del t1
    at_label = _last_axis(s1.shape, labels[:, :, None])
    p_label = s1[at_label]
    if need_loss or ot_alpha > 0:
        had, sl = had_loss(pair1), sl_loss(pair1)
    gradient = None
    if grad is not None:
        # Only labels above the floor get -1/p; dividing elsewhere would
        # evaluate 1/0 on a saturated row.
        g_label = np.divide(-1.0, p_label, out=np.zeros_like(p_label),
                            where=p_label > PROB_FLOOR)
        terms = [(at_label, p_label, g_label)]
        if ot_alpha > 0:
            cols = _last_axis(s1.shape, rank.student_perm[:, None, :rank.k])
            terms.append((cols, pair1.student,
                          ot_alpha * (had.grad + w.beta * sl.grad)))
        if uld is not None:
            terms.append(((Ellipsis,), s1.copy(), uld))
        gradient = _softmax_backward_inplace(s1, w.tau_sl, terms)
    del s1

    # Sequence temperature: the plan, and alpha * gamma * sd.
    if state is None or need_loss or seq_grad:
        if state is None:
            t2 = _softmax(t, w.tau_sd)
            s2 = _softmax(s, w.tau_sd)
            pair2, rank_seq = _align_and_truncate(t2, s2, w.k, w.match_mode)
            del t2
            cost = _cost(pair2.teacher, pair2.student)
            state = PipelineState(length=length, labels=labels, rank=rank,
                                  rank_seq=rank_seq,
                                  plan=_plan(cost, w.sinkhorn))
        else:
            rank_seq = state.rank_seq
            t2_k = _gather(_softmax(t, w.tau_sd),
                           rank_seq.teacher_perm[:, :rank_seq.k])
            s2 = _softmax(s, w.tau_sd)
            pair2 = AlignedPair(
                teacher=t2_k,
                student=_gather(s2, rank_seq.student_perm[:, :rank_seq.k]))
            cost = _cost(pair2.teacher, pair2.student) if need_loss else None
        if seq_grad:
            cols = _last_axis(s2.shape, rank_seq.student_perm[:, None, :rank_seq.k])
            g2 = ot_alpha * w.gamma * _sd_grad(pair2.teacher, pair2.student,
                                               state.plan)
            gradient += _softmax_backward_inplace(
                s2, w.tau_sd, [(cols, pair2.student, g2)])

    breakdown = None
    if need_loss:
        ce = -safe_log(p_label).sum(axis=(1, 2))
        sd = _sd(cost, state.plan)
        total = ce + w.alpha * (had.value + w.beta * sl.value + w.gamma * sd)
        breakdown = LossBreakdown(ce=ce, had=had.value, sl=sl.value, sd=sd,
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
    """Evaluate every component with the state's selections and plan fixed."""
    t, s, _ = _batch_of_one(teacher_logits, student_logits)
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
    """
    if state is not None:
        state, labels = _index(state, None), None
    t, s, labels = _batch_of_one(teacher_logits, student_logits, labels)
    return _forward(t, s, w, state=state, labels=labels, need_loss=False,
                    grad=MULTILEVEL_OT)[2][0]
