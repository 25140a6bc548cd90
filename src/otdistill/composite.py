"""Cross-entropy plus the weighted multi-level transport objective.

total = ce + alpha * (had + beta * sl + gamma * sd)

The token losses (ce, had, sl) use one softmax temperature, the sequence loss
its own. build_state, total_loss_frozen, total_loss and total_grad are thin
wrappers over one fused pass (_forward) that validates the logits once, runs
each (matrix, temperature) softmax once, gathers only the k aligned columns,
and back-propagates through each softmax in place: the upstream gradient is
nonzero only at the label and the k aligned columns, so the backward reads
and writes k + 1 columns plus one rescaling of each row. Gradients are with
respect to the raw student logits, with the rank/truncation selections and
the Sinkhorn plan held fixed.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import PROB_FLOOR, _softmax, safe_log, validate_logits, validate_probs
from .errors import InvalidConfig, InvalidInput
from .preprocess import SUM_SORT, AlignedPair, RankSelection, _align_and_truncate
from .seq_ot import SinkhornConfig, sd_grad, sd_loss, seq_cost_matrix, sinkhorn_plan
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
    clamp to its last ranked dimension.
    """
    inv = np.argsort(rank.teacher_perm)
    pos = inv[np.argmax(teacher_probs, axis=1)]
    pos = np.minimum(pos, n_student - 1)
    return rank.student_perm[pos]


def _aligned_logits(teacher_logits, student_logits):
    t = validate_logits(teacher_logits)
    s = validate_logits(student_logits)
    length = min(t.shape[0], s.shape[0])
    if length == 0:
        raise InvalidInput("no overlapping tokens between teacher and student")
    return t[:length], s[:length], length


def _softmax_backward_inplace(probs, tau, terms):
    """softmax_backward for an upstream gradient given as sparse terms.

    The upstream gradient is the sum over (index, p, g) in terms of g at
    probs[index], where p is probs[index] gathered before the call (the
    indexed entries are distinct within a term). probs is overwritten with
    the gradient w.r.t. the logits and returned; no dense upstream matrix
    is built.
    """
    inner = sum((p * g).sum(axis=1, keepdims=True) for _, p, g in terms)
    probs *= -inner / tau
    for index, p, g in terms:
        probs[index] += p * g / tau
    return probs


def _forward(teacher_logits, student_logits, w, state=None, labels=None,
             need_loss=True, grad=None):
    """The fused pass behind build_state, total_loss_frozen, total_loss,
    total_grad and the harness's training step.

    Builds the state when none is given (labels=None derives pseudo-labels;
    labels are ignored when a state is given), evaluates the loss breakdown
    when need_loss, and, when grad names an objective (MULTILEVEL_OT,
    CE_ONLY or ULD), its gradient w.r.t. the raw student logits. Returns
    (state, breakdown or None, gradient or None).
    """
    t, s, length = _aligned_logits(teacher_logits, student_logits)
    n = s.shape[1]
    if state is not None and length != state.length:
        raise InvalidInput("state was built for a different token count")
    if state is None and labels is not None:
        labels = _validate_labels(labels, length, n)
    ot_alpha = w.alpha if grad == MULTILEVEL_OT else 0.0
    seq_grad = grad is not None and ot_alpha * w.gamma > 0

    # Each full softmax is dropped once its columns are gathered (or, for the
    # student, once it has become the gradient), which bounds the peak at
    # about three T x V buffers.

    # Token temperature: ce + alpha * (had + beta * sl).
    t1 = _softmax(t, w.tau_sl)
    s1 = _softmax(s, w.tau_sl)
    if state is None:
        pair1, rank = _align_and_truncate(t1, s1, w.k, w.match_mode)
        if labels is None:
            labels = _pseudo_labels(t1, rank, n)
    else:
        rank, labels = state.rank, state.labels
        pair1 = AlignedPair(teacher=t1[:, rank.teacher_perm[:rank.k]],
                            student=s1[:, rank.student_perm[:rank.k]])
    uld = w.alpha * uld_grad(t1, s1) if grad == ULD else None
    del t1
    at_label = (np.arange(length)[:, None], labels[:, None])
    p_label = s1[at_label]
    if need_loss or ot_alpha > 0:
        had, sl = had_loss(pair1), sl_loss(pair1)
    gradient = None
    if grad is not None:
        g_label = np.where(p_label > PROB_FLOOR, -1.0 / p_label, 0.0)
        terms = [(at_label, p_label, g_label)]
        if ot_alpha > 0:
            cols = (slice(None), rank.student_perm[:rank.k])
            terms.append((cols, pair1.student,
                          ot_alpha * (had.grad + w.beta * sl.grad)))
        if uld is not None:
            terms.append(((slice(None),), s1.copy(), uld))
        gradient = _softmax_backward_inplace(s1, w.tau_sl, terms)
    del s1

    # Sequence temperature: the plan, and alpha * gamma * sd.
    if state is None or need_loss or seq_grad:
        if state is None:
            t2 = _softmax(t, w.tau_sd)
            s2 = _softmax(s, w.tau_sd)
            pair2, rank_seq = _align_and_truncate(t2, s2, w.k, w.match_mode)
            del t2
            cost = seq_cost_matrix(pair2)
            state = PipelineState(length=length, labels=labels, rank=rank,
                                  rank_seq=rank_seq,
                                  plan=sinkhorn_plan(cost, w.sinkhorn))
        else:
            rank_seq = state.rank_seq
            t2_k = _softmax(t, w.tau_sd)[:, rank_seq.teacher_perm[:rank_seq.k]]
            s2 = _softmax(s, w.tau_sd)
            pair2 = AlignedPair(teacher=t2_k,
                                student=s2[:, rank_seq.student_perm[:rank_seq.k]])
            cost = seq_cost_matrix(pair2) if need_loss else None
        if seq_grad:
            cols = (slice(None), rank_seq.student_perm[:rank_seq.k])
            g2 = ot_alpha * w.gamma * sd_grad(pair2, state.plan)
            gradient += _softmax_backward_inplace(
                s2, w.tau_sd, [(cols, pair2.student, g2)])

    breakdown = None
    if need_loss:
        ce = -float(safe_log(p_label).sum())
        sd = sd_loss(cost, state.plan)
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
    return _forward(teacher_logits, student_logits, w, labels=labels,
                    need_loss=False)[0]


def total_loss_frozen(state: PipelineState, teacher_logits, student_logits,
                      w=LossWeights()) -> LossBreakdown:
    """Evaluate every component with the state's selections and plan fixed."""
    return _forward(teacher_logits, student_logits, w, state=state)[1]


def total_loss(teacher_logits, student_logits, labels=None,
               w=LossWeights()) -> LossBreakdown:
    """Full objective: cross-entropy plus the weighted transport losses."""
    return _forward(teacher_logits, student_logits, w, labels=labels)[1]


def total_grad(teacher_logits, student_logits, labels=None, w=LossWeights(),
               state: PipelineState | None = None) -> np.ndarray:
    """Gradient of total_loss w.r.t. the raw student logits.

    Rank/truncation selections and the Sinkhorn plan are held fixed;
    truncated-away dimensions receive gradient only through the softmax
    normalization. Matches finite differences of total_loss_frozen.
    """
    return _forward(teacher_logits, student_logits, w, state=state,
                    labels=labels, need_loss=False, grad=MULTILEVEL_OT)[2]
