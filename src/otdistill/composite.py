"""Cross-entropy plus the weighted multi-level transport objective, its
state and its gradient: total = ce + alpha * (had + beta * sl + gamma * sd).

The token losses (ce, had, sl) read the student's softmax at tau_sl, the
sequence loss sd the one at tau_sd. build_state, total_loss_frozen,
total_loss and total_grad are thin wrappers: _arguments checks every
argument and cuts both logit matrices to their first min(T_t, T_s) rows, and
the fused pass (_forward) trusts it and checks none. A call given no state
builds one (_build); every call then evaluates its state alone, so a call
given the state its stateless twin builds returns that call's bytes.
Gradients are with respect to the raw student logits, with the selections
and the plan held fixed. Every softmax level comes from core._softmax_level.
The fused pass takes a leading batch axis of B sequences of equal length;
the public functions are its B = 1 case.
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .core import (_MIN_TAU, PROB_FLOOR, _check_choice, _check_count,
                   _check_number, _check_type, _floor_log, _gather,
                   _logit_matrix, _matrix, _softmax_backward, _softmax_level,
                   _softmax_pass, validate_logits, validate_probs)
from .errors import InvalidConfig, InvalidInput, NumericalFailure
from .preprocess import (EXACT_ASSIGNMENT, MATCH_MODES, SUM_SORT,
                         RankSelection, _descending_pair, _head_width,
                         _match)
from .seq_ot import SinkhornConfig, _transport
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
        # Kept as their rules return them; temperatures lie above 1 / float
        # max (core._MIN_TAU), where the fused pass's reciprocals are finite.
        for name in ("alpha", "beta", "gamma", "tau_sl", "tau_sd"):
            tau = name.startswith("tau")
            object.__setattr__(self, name, _check_number(
                getattr(self, name), name, least=_MIN_TAU if tau else 0.0,
                strict=tau))
        object.__setattr__(self, "k", _check_count(self.k, "truncation width k"))
        _check_type(self.sinkhorn, SinkhornConfig, "sinkhorn")
        _check_choice(self.match_mode, MATCH_MODES, "match_mode")


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
    the state compares with its teacher argument. Only build_state attaches
    teacher_logits: a state the fused pass builds holds None. A call given
    a state (or a copy) checks every field it reads, and raises InvalidInput
    (InvalidConfig for a temperature) naming a field it cannot use.

    A state also keeps the sequence loss of the student it was built at:
    student_seq, that student's kept probabilities at tau_sd (the columns
    of rank_seq, T x k floats), and sd, their transport value against
    teacher_seq, which the sequence stage (seq_ot._transport) reads at the
    same kept probabilities instead of building a T x T cost. Neither is an
    argument of the constructor, so a copy (dataclasses.replace), which may
    hold another plan or teacher_seq, holds None for both.
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
    try:
        labels = np.asarray(labels)
    except ValueError:  # ragged
        labels = np.asarray(None)
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
        raise InvalidInput(f"labels out of range [0, {vocab})")
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


def _index(obj, i, **given):
    """A state, breakdown or rank with i applied to every array field.

    i=None views a single one as a batch of one; i=0 takes the first item
    of a batched one, with its loss components as floats. Fields outside
    the constructor (a state's stored sequence loss) are carried too, and
    given fields replace obj's before i is applied.
    """
    changes, carried = {}, {}
    for f in fields(obj):
        value = given.get(f.name, getattr(obj, f.name))
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


def _arguments(teacher_logits, student_logits, labels, w, state=None,
               frozen=False):
    # A public call's arguments, each checked, as the fused pass takes
    # them: (t, s, labels, state), both logit matrices cut to their first
    # min(T_t, T_s) rows (the longer one's last rows reach no loss), with a
    # batch axis of one; frozen if the call needs a state. Each pass checks the
    # logits it reads; a teacher given with a state, which no pass reads,
    # is validated whole and must be the state's at its kept columns.
    _check_type(w, LossWeights, "w")
    if frozen or state is not None:
        _check_type(state, PipelineState, "state")
    t = (_logit_matrix if state is None else validate_logits)(teacher_logits)
    s = _logit_matrix(student_logits)
    length = min(t.shape[0], s.shape[0])
    t, s = t[None, :length], s[None, :length]
    if state is None:
        if labels is not None:
            labels = _validate_labels(labels, length, s.shape[-1])[None]
        return t, s, labels, None
    if not np.array_equal(state.length, length):
        raise InvalidInput("state was built for a different token count")
    if not (np.array_equal(state.tau_sl, w.tau_sl)
            and np.array_equal(state.tau_sd, w.tau_sd)):
        raise InvalidConfig(
            f"state was built at tau_sl={state.tau_sl}, tau_sd={state.tau_sd}, "
            f"got tau_sl={w.tau_sl}, tau_sd={w.tau_sd}")
    # Every other field the pass reads, in O(T + k log k): the rankings'
    # kept heads (_check_rank), the labels, and the shapes of the plan and
    # the kept teacher probabilities, as float arrays. Their values may be
    # non-finite: the loss and the gradient check theirs (NumericalFailure).
    for name in ("rank", "rank_seq"):
        _check_rank(getattr(state, name), name, t.shape[-1], s.shape[-1])
    given = {"labels": _validate_labels(state.labels, length, s.shape[-1])}
    if len(state.labels) != length:
        raise InvalidInput(f"state must hold {length} labels, got "
                           f"{len(state.labels)}")
    for name, width in (("plan", length), ("teacher", state.rank.k),
                        ("teacher_seq", state.rank_seq.k)):
        given[name] = _matrix(getattr(state, name), f"state {name}")
        if given[name].shape != (length, width):
            raise InvalidInput(f"state {name} must be {length} x {width}, "
                               f"got {given[name].shape}")
    state = _index(state, None, **given)
    if state.teacher_logits is None:
        raise InvalidInput("state holds no teacher logits; a state is tied "
                           "to its teacher through them (see build_state)")
    if not np.array_equal(_kept_logits(t, state.rank, state.rank_seq),
                          state.teacher_logits):
        raise InvalidInput("teacher logits differ from the state's at its kept "
                           "columns; a state is tied to its teacher")
    return t, s, None, state


def _check_rank(rank, name, m, n):
    # A state's rank where the pass reads it: k an int in [1, min(m, n)], as
    # build_state makes it, and the first k entries of each permutation
    # columns of its vocabulary, the student's distinct (a repeated column
    # would have its gradient added twice). The rest is not read.
    _check_type(rank, RankSelection, f"state {name}", InvalidInput)
    k = rank.k
    if type(k) is not int or not 1 <= k <= min(m, n):
        raise InvalidInput(f"state {name}.k must be an int in "
                           f"[1, {min(m, n)}], got {k!r}")
    for side, vocab in (("teacher_perm", m), ("student_perm", n)):
        perm = getattr(rank, side)
        shape = getattr(perm, "shape", None)
        if not isinstance(perm, np.ndarray) or shape != (vocab,):
            raise InvalidInput(f"state {name}.{side} must order {vocab} "
                               f"columns, got shape {shape}")
        head = perm[:k]
        if head.dtype.kind not in "iu" or head.min() < 0 or head.max() >= vocab:
            raise InvalidInput(f"state {name}.{side} must hold columns in "
                               f"[0, {vocab}) in its first k={k} entries")
    if np.unique(rank.student_perm[:k]).size < k:
        raise InvalidInput(f"state {name}.student_perm repeats a column in "
                           f"its first k={k} entries")


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
    the first ranked columns, (B, T, width): the min(k, m, n) kept ones, or
    all min(m, n) that exact matching reads. argmax (the per-token argmax at
    tau_sl, for pseudo-labels) and dense (the rows of the whole tau_sl
    softmax, which the pass writes, zero-padded to max(m, n) columns and
    sorted descending: the teacher's half of the padded-sort baseline's
    gradient) are None unless asked for.
    """

    perm: tuple
    head: tuple
    argmax: np.ndarray | None
    dense: np.ndarray | None


def _teacher(t, n, w, argmax, dense):
    # The teacher's half of _forward on (B, T, m) logits t against a
    # student vocabulary of n: one blocked pass at both temperatures, which
    # also checks that t is finite.
    taus = (w.tau_sl, w.tau_sd)
    held = np.empty(t.shape) if dense else None
    top, totals, sums, best = _softmax_pass(t, taus, sums=True, argmax=argmax,
                                            out=held)
    width = _head_width(w.k, t.shape[-1], n, w.match_mode)
    perm = _descending_pair(*sums)
    head = tuple(_softmax_level(t, taus, i, (top, totals[i]),
                                cols=perm[i][:, None, :width])
                 for i in range(2))
    # The dense rows: the tau_sl softmax, finished in place in held.
    dense = None if held is None else _uld_sorted(_softmax_level(
        t, taus, 0, (top, totals[0]), held=held, out=held), n)
    return _Teacher(perm=perm, head=head, argmax=best, dense=dense)


def _build(teacher, s, w, labels, gradient=None):
    """(state, (top, totals)): the state of a call given none, from its
    _Teacher and the student's raw pass over s at both temperatures, which
    leaves in gradient, if given, the exponentials core._held names, and
    sums columns for sum-sort. Exact matching ranks from each level's whole
    softmax in turn, in one array beside the gradient
    (core._softmax_level)."""
    mode = w.match_mode
    taus = (w.tau_sl, w.tau_sd)
    whole = np.empty(s.shape) if mode == EXACT_ASSIGNMENT else None
    held = whole if gradient is None else gradient
    top, totals, sums, _ = _softmax_pass(s, taus, out=held,
                                         sums=whole is None)
    if whole is None:
        first, second = _descending_pair(*sums)
    else:
        first = _match(teacher.head[0], _softmax_level(
            s, taus, 0, (top, totals[0]), held=held, out=whole), mode)
        # The tau_sd softmax overwrites the tau_sl one once it is ranked:
        # from the gradient, or recomputed where the pass wrote that array.
        second = _match(teacher.head[1], _softmax_level(
            s, taus, 1, (top, totals[1]), held=gradient, out=whole), mode)
    k = min(w.k, teacher.head[0].shape[-1])
    rank = RankSelection(teacher.perm[0], first, k, mode)
    rank_seq = RankSelection(teacher.perm[1], second, k, mode)
    if labels is None:
        labels = _pseudo_labels(teacher.argmax, rank, s.shape[-1])
    teacher2 = teacher.head[1][..., :k]
    student2 = _softmax_level(s, taus, 1, (top, totals[1]),
                              cols=rank_seq.student_perm[:, None, :k])
    plan, sd, _ = _transport(teacher2, student2, w.sinkhorn)
    state = PipelineState(
        length=s.shape[1], labels=labels, rank=rank, rank_seq=rank_seq,
        plan=plan, tau_sl=w.tau_sl, tau_sd=w.tau_sd,
        teacher=teacher.head[0][..., :k], teacher_seq=teacher2,
        teacher_logits=None)
    object.__setattr__(state, "student_seq", student2)
    object.__setattr__(state, "sd", sd)
    return state, (top, totals)


def _forward(t, s, w, state=None, labels=None, need_loss=True, grad=None):
    """The fused pass behind build_state, total_loss_frozen, total_loss,
    total_grad and the harness's training step, on B sequences at once.

    t and s are validated (B, T, m) teacher and (B, T, n) student logits;
    without a state, t may instead be the teacher's half from _teacher,
    which the harness builds once per run. The student's one pass runs in
    _build for a call given no state, which builds one (labels=None derives
    pseudo-labels, given labels are a validated (B, T) array, ignored when
    a state is given). Each call evaluates its state: the loss breakdown
    when need_loss (NumericalFailure when a total is not finite, before the
    backward writes the gradient), and, when grad names an objective
    (MULTILEVEL_OT, CE_ONLY or ULD; ULD, which also reads the teacher's
    sorted rows, only without a state), its gradient w.r.t. the raw student
    logits, computed by one backward at the end (NumericalFailure when its
    terms could carry it past the float range). Returns (state, breakdown
    or None, gradient or None), each with a leading batch axis: the state's
    arrays and the breakdown's components hold one entry per sequence, and
    the gradient is (B, T, n). A call asks for a loss, a gradient or both.

    Arguments are trusted as _arguments returns them: a given state fits
    t and w, and the teacher enters only through it (t is not read). No
    state built here holds teacher_logits; build_state attaches them.
    """
    ot_alpha = w.alpha if grad == MULTILEVEL_OT else 0.0
    seq_weight = ot_alpha * w.gamma
    built = state is None
    if built:
        teacher = t if isinstance(t, _Teacher) else _teacher(
            t, s.shape[-1], w, argmax=labels is None, dense=grad == ULD)

    # The student's one pass leaves in a gradient call's gradient the
    # exponentials core._held names, from which the backward builds each
    # level. It runs at both temperatures whatever the call reads, as a
    # state's build ran it, so a level has the same bits with or without a
    # state. Under sum-sort matching the gradient is the only B x T x n
    # array a call writes.
    taus = (w.tau_sl, w.tau_sd)
    gradient = None if grad is None else np.empty(s.shape)
    if built:
        state, (top, totals) = _build(teacher, s, w, labels, gradient)
    else:
        top, totals, _, _ = _softmax_pass(s, taus, out=gradient)

    # Sequence temperature: sd and its product, from one stage, run before
    # the token level so that none of its arrays is alive beside the
    # stage's blocks. A state built here passes its own student: no compare.
    if need_loss or seq_weight > 0:
        cols2 = state.rank_seq.student_perm[:, None, :state.rank_seq.k]
        _, sd, student2 = _transport(
            state.teacher_seq, state.student_seq if built else _softmax_level(
                s, taus, 1, (top, totals[1]), cols=cols2),
            w.sinkhorn, state.plan,
            (state.student_seq, state.sd) if need_loss else None, seq_weight)
    # Token temperature: ce + alpha * (had + beta * sl).
    at_label = state.labels[:, :, None]
    p_label = _softmax_level(s, taus, 0, (top, totals[0]), cols=at_label)
    if need_loss or ot_alpha > 0:
        cols1 = state.rank.student_perm[:, None, :state.rank.k]
        student1 = _softmax_level(s, taus, 0, (top, totals[0]), cols=cols1)
        had = _had_loss(state.teacher, student1)
        sl = _sl_loss(state.teacher, student1)
    breakdown = (_breakdown(p_label, had.value, sl.value, sd, w, state)
                 if need_loss else None)
    if grad is None:
        return state, breakdown, None

    # Each level's upstream gradient is kept only as the sparse products
    # p * g that the one backward at the end reads. A softmax entry p read
    # by nothing else after its gradient g is overwritten with p * g.
    # Only labels above the floor get -1/p; dividing elsewhere would
    # evaluate 1/0 on a saturated row. The weights can carry a product
    # past the float range: the backward checks them (NumericalFailure).
    g_label = np.divide(-1.0, p_label, out=np.zeros_like(p_label),
                        where=p_label > PROB_FLOOR)
    terms = [(at_label, p_label * g_label)]
    levels = [(totals[0], terms)]
    with np.errstate(over="ignore", invalid="ignore"):
        if ot_alpha > 0:
            student1 *= ot_alpha * (had.grad + w.beta * sl.grad)
            terms.append((cols1, student1))
            del had, sl  # their (B, T, k) gradients, spent before the backward
        if grad == ULD:
            # The padded-sort baseline reads every column of both softmaxes,
            # the student's at tau_sl from what its pass left in the gradient.
            probs = _softmax_level(s, taus, 0, (top, totals[0]),
                                   held=gradient)
            uld = w.alpha * _uld_grad(teacher.dense, probs)
            uld *= probs
            terms.append((None, uld))
        if seq_weight > 0:
            levels.append((totals[1], [(cols2, student2)]))
    return state, breakdown, _softmax_backward(s, top, levels, gradient,
                                               taus)


def _breakdown(p_label, had, sl, sd, w, state):
    # The loss of each sequence from its components, NumericalFailure when
    # a total is not finite: each component is bounded, but the weights
    # can carry the sum past the float range.
    ce = -_floor_log(p_label).sum(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        total = ce + w.alpha * (had + w.beta * sl + w.gamma * sd)
    if not np.isfinite(total).all():
        raise NumericalFailure("the loss is not finite; lower alpha, beta or "
                               "gamma")
    return LossBreakdown(ce=ce, had=had, sl=sl, sd=sd, total=total,
                         rank=state.rank, rank_seq=state.rank_seq)


def build_state(teacher_logits, student_logits, labels=None, w=LossWeights()):
    """Compute the alignments and Sinkhorn plan for a teacher/student pair.

    With labels=None, per-token pseudo-labels are derived from the teacher
    argmax through the rank alignment. Both logit matrices are cut to their
    first min(T_t, T_s) rows, and the state holds that many tokens.
    """
    t, s, labels, _ = _arguments(teacher_logits, student_logits, labels, w)
    teacher = _teacher(t, s.shape[-1], w, argmax=labels is None, dense=False)
    state = _build(teacher, s, w, labels)[0]
    object.__setattr__(state, "teacher_logits",
                       _kept_logits(t, state.rank, state.rank_seq))
    return _index(state, 0)


def total_loss_frozen(state: PipelineState, teacher_logits, student_logits,
                      w=LossWeights()) -> LossBreakdown:
    """Evaluate every component with the state's selections and plan fixed.

    The state's labels, selections and plan apply: w.k, w.match_mode and
    w.sinkhorn are ignored, and only w's temperatures must match the state's.
    Both logit matrices are cut to their first min(T_t, T_s) rows, which
    must be the state's token count.
    """
    t, s, _, state = _arguments(teacher_logits, student_logits, None, w,
                                state, frozen=True)
    return _index(_forward(t, s, w, state=state)[1], 0)


def total_loss(teacher_logits, student_logits, labels=None,
               w=LossWeights()) -> LossBreakdown:
    """Full objective: cross-entropy plus the weighted transport losses.

    Both logit matrices are cut to their first min(T_t, T_s) rows; the
    longer one's last rows reach no loss.
    """
    t, s, labels, _ = _arguments(teacher_logits, student_logits, labels, w)
    return _index(_forward(t, s, w, labels=labels)[1], 0)


def total_grad(teacher_logits, student_logits, labels=None, w=LossWeights(),
               state: PipelineState | None = None) -> np.ndarray:
    """Gradient of total_loss w.r.t. the raw student logits.

    Rank/truncation selections and the Sinkhorn plan are held fixed;
    truncated-away dimensions receive gradient only through the softmax
    normalization. Matches finite differences of total_loss_frozen.

    Both logit matrices are cut to their first min(T_t, T_s) rows, so the
    gradient has min(T_t, T_s) rows, not the student's T_s: a 5-row student
    against a 3-row teacher gets 3 rows.

    With a state, the state's labels, selections and plan apply: labels,
    w.k, w.match_mode and w.sinkhorn are ignored, and only w's temperatures
    must match the state's.
    """
    t, s, labels, state = _arguments(teacher_logits, student_logits, labels,
                                     w, state)
    return _forward(t, s, w, state=state, labels=labels, need_loss=False,
                    grad=MULTILEVEL_OT)[2][0]
