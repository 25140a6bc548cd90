"""Toy cross-vocabulary distillation: frozen synthetic teacher, linear student.

The teacher is a fixed seeded logit table with one row per context; the
student is a trainable logit table over a smaller (or larger) vocabulary.
Contexts are grouped into consecutive sequences of T tokens, which one
batched fused pass per step handles together; the last quarter of the
sequences are the evaluation blocks, also trained. Training is full-batch
gradient descent on the total loss, so runs are bit-deterministic for a
fixed seed.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .composite import (CE_ONLY, COMPONENTS, MULTILEVEL_OT, ULD, LossWeights,
                        _forward, _teacher)
from .core import _check_choice, _check_count, _check_number, _check_type
from .errors import InvalidConfig, NumericalFailure
from .fileio import _metrics_csv_lines, write_text_atomic

# A mode names the objective training differentiates; every mode records the
# same multi-level loss breakdown.
MODES = (MULTILEVEL_OT, CE_ONLY, ULD)


@dataclass(frozen=True)
class DistillConfig:
    """Settings for one toy distillation run."""

    seed: int = 0
    m: int = 20                 # teacher vocab size
    n: int = 15                 # student vocab size
    tokens: int = 8             # sequence length T
    contexts: int = 32
    steps: int = 500
    lr: float = 0.5
    sharpness: float = 6.0      # scale of the teacher logit table
    weights: LossWeights = field(default_factory=LossWeights)
    mode: str = MULTILEVEL_OT

    def __post_init__(self):
        # Each setting is kept as its rule returns it, an int or a float;
        # counts from their least value (a vocabulary needs 2 entries).
        for name, least in (("seed", 0), ("m", 2), ("n", 2), ("tokens", 1),
                            ("contexts", 1), ("steps", 1)):
            object.__setattr__(self, name, _check_count(
                getattr(self, name), name, least))
        object.__setattr__(self, "lr", _check_number(self.lr, "lr",
                                                     strict=False))
        object.__setattr__(self, "sharpness", _check_number(
            self.sharpness, "sharpness", least=None))
        _check_type(self.weights, LossWeights, "weights")
        _check_choice(self.mode, MODES, "mode")
        if self.contexts < 2 * self.tokens:
            raise InvalidConfig(
                "need at least two sequences worth of contexts "
                f"(contexts={self.contexts}, tokens={self.tokens})"
            )


@dataclass(frozen=True)
class RunMetrics:
    """Per-step loss components plus the sequence-loss metric on the
    evaluation blocks, also trained."""

    step: np.ndarray
    ce: np.ndarray
    had: np.ndarray
    sl: np.ndarray
    sd: np.ndarray
    total: np.ndarray
    eval_sd: np.ndarray

    def to_csv(self, path):
        # Streamed line by line: the whole CSV text is never held.
        write_text_atomic(path, _metrics_csv_lines(self))


def make_teacher_table(cfg: DistillConfig):
    rng = np.random.default_rng(cfg.seed)
    with np.errstate(over="ignore"):
        table = _normal_table(rng, cfg, "m") * cfg.sharpness
    if not np.isfinite(table).all():
        raise InvalidConfig(f"sharpness {cfg.sharpness} overflows the teacher "
                            "logit table; use a smaller scale")
    return table


def _initial_student(cfg: DistillConfig):
    # Separate stream so the student init never perturbs the teacher table.
    rng = np.random.default_rng((cfg.seed, 1))
    return _normal_table(rng, cfg, "n") * 0.01


def _normal_table(rng, cfg, vocab):
    # A contexts x cfg.<vocab> table of standard normals. numpy refuses a
    # shape past its dimension limit (ValueError) or the memory it can get
    # (MemoryError); either is a config out of range.
    try:
        return rng.standard_normal((cfg.contexts, getattr(cfg, vocab)))
    except (MemoryError, ValueError):
        raise InvalidConfig(
            f"a table of contexts={cfg.contexts} x {vocab}="
            f"{getattr(cfg, vocab)} entries cannot be allocated") from None


def _records(cfg):
    # One float64 row per recorded metric, cfg.steps entries each, allocated
    # once: a run holds 8 bytes per metric per step and no Python object per
    # step. A steps numpy cannot allocate is a config out of range, found
    # before any step runs.
    names = COMPONENTS + ("eval_sd",)
    try:
        return dict(zip(names, np.empty((len(names), cfg.steps))))
    except (MemoryError, ValueError):
        raise InvalidConfig(
            f"metrics of steps={cfg.steps} cannot be allocated") from None


def _metrics(records, count) -> RunMetrics:
    # The first count steps; after a divergence, callers persist these.
    return RunMetrics(step=np.arange(count),
                      **{name: values[:count]
                         for name, values in records.items()})


def _block_mean(values):
    # Mean of the per-block values, summed in block order.
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


def run_distillation(cfg: DistillConfig) -> RunMetrics:
    """Full-batch gradient descent on the student table.

    Metrics are recorded before each update, so step 0 reflects the initial
    student, into arrays of cfg.steps entries made before the first step.
    Raises InvalidConfig if numpy cannot allocate them, and
    NumericalFailure (with the step index, and the steps before it as its
    metrics) if any loss goes non-finite.
    """
    _check_type(cfg, DistillConfig, "cfg")
    records = _records(cfg)
    teacher = make_teacher_table(cfg)
    W = _initial_student(cfg)
    w = cfg.weights

    # Every block trains (the student table has no feature sharing, so a row
    # that never trains never moves); the last quarter doubles as the
    # evaluation set, whose sequence-level metric is not what any single
    # update step optimizes directly. The blocks are consecutive runs of T
    # contexts, so the tables' first n_blocks * T rows reshape into
    # (n_blocks, T, vocab) views and one fused pass covers them all.
    n_blocks = cfg.contexts // cfg.tokens
    n_eval = max(1, n_blocks // 4)
    used = n_blocks * cfg.tokens
    teacher_blocks = teacher[:used].reshape(n_blocks, cfg.tokens, cfg.m)
    # A view: it follows the in-place updates of W below.
    student_blocks = W[:used].reshape(n_blocks, cfg.tokens, cfg.n)

    # The teacher is frozen, so its half of every pass (softmaxes, ranking,
    # kept entries, and the sorted rows the padded-sort baseline reads) is
    # computed once; each step's pass computes only the student's half.
    teacher_half = _teacher(teacher_blocks, cfg.n, w, argmax=True,
                            dense=cfg.mode == ULD)

    # Step 0's pass derives pseudo-targets from the initial alignment, kept
    # for the whole run like pre-generated teacher text: recomputed each
    # step, they oscillate whenever two student dimensions trade rank.
    labels = None

    for step in range(cfg.steps):
        # One fused pass: every block's state, breakdown and the mode's
        # gradient from the same softmaxes.
        try:
            state, breakdown, grad = _forward(teacher_half, student_blocks,
                                              w, labels=labels, grad=cfg.mode)
        except NumericalFailure as exc:
            failure = NumericalFailure(f"step {step}: {exc}")
            failure.metrics = _metrics(records, step)
            raise failure from None
        labels = state.labels
        for name in COMPONENTS:
            records[name][step] = _block_mean(getattr(breakdown, name))
        # The metric of the evaluation blocks, also trained, is the
        # sequence loss at a freshly built plan, which is what the fused
        # pass just computed for them.
        records["eval_sd"][step] = np.mean(breakdown.sd[-n_eval:])
        student_blocks -= np.multiply(grad, cfg.lr, out=grad)

    return _metrics(records, cfg.steps)


@dataclass(frozen=True)
class ModeResult:
    mode: str
    final_eval_sd: float
    final_had: float


def compare_modes(cfg: DistillConfig) -> list[ModeResult]:
    """Run every training mode from the same seed and summarize the endpoints."""
    _check_type(cfg, DistillConfig, "cfg")
    results = []
    for mode in MODES:
        metrics = run_distillation(replace(cfg, mode=mode))
        results.append(ModeResult(
            mode=mode,
            final_eval_sd=float(metrics.eval_sd[-1]),
            final_had=float(metrics.had[-1]),
        ))
    return results
