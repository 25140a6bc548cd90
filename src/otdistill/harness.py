"""Toy cross-vocabulary distillation: frozen synthetic teacher, linear student.

The teacher is a fixed seeded logit table with one row per context; the
student is a trainable logit table over a smaller (or larger) vocabulary.
Contexts are grouped into consecutive sequences of T tokens, which one
batched fused pass per step handles together; the last quarter of the
sequences is held out for evaluation. Training is full-batch
gradient descent on the total loss, so runs are bit-deterministic for a
fixed seed.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .composite import (CE_ONLY, MULTILEVEL_OT, ULD, LossWeights, _forward,
                        _teacher)
from .core import validate_logits
from .errors import InvalidConfig, NumericalFailure
from .fileio import metrics_csv_text, write_text_atomic

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
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.m < 2 or self.n < 2:
            raise InvalidConfig(f"vocabularies need at least 2 entries, "
                                f"got m={self.m}, n={self.n}")
        if self.tokens < 1:
            raise InvalidConfig(f"tokens must be >= 1, got {self.tokens}")
        if self.steps < 1:
            raise InvalidConfig(f"steps must be >= 1, got {self.steps}")
        if not np.isfinite(self.lr) or self.lr < 0:
            raise InvalidConfig(f"lr must be finite and nonnegative, got {self.lr}")
        if not np.isfinite(self.sharpness):
            raise InvalidConfig(f"sharpness must be finite, got {self.sharpness}")
        if self.mode not in MODES:
            raise InvalidConfig(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.contexts < 2 * self.tokens:
            raise InvalidConfig(
                "need at least two sequences worth of contexts "
                f"(contexts={self.contexts}, tokens={self.tokens})"
            )


@dataclass(frozen=True)
class RunMetrics:
    """Per-step loss components plus the held-out sequence-loss metric."""

    step: np.ndarray
    ce: np.ndarray
    had: np.ndarray
    sl: np.ndarray
    sd: np.ndarray
    total: np.ndarray
    eval_sd: np.ndarray

    def to_csv(self, path):
        write_text_atomic(path, metrics_csv_text(self))


def make_teacher_table(cfg: DistillConfig):
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.contexts, cfg.m)) * cfg.sharpness


def _initial_student(cfg: DistillConfig):
    # Separate stream so the student init never perturbs the teacher table.
    rng = np.random.default_rng((cfg.seed, 1))
    return rng.standard_normal((cfg.contexts, cfg.n)) * 0.01


def _partial_metrics(records) -> RunMetrics:
    # Rows recorded before a divergence; lets callers persist what finished.
    done = len(records["eval_sd"])
    return RunMetrics(
        step=np.arange(done),
        **{name: np.array(values[:done]) for name, values in records.items()},
    )


def _block_mean(values):
    # Mean of the per-block values, summed in block order.
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


def run_distillation(cfg: DistillConfig) -> RunMetrics:
    """Full-batch gradient descent on the student table.

    Metrics are recorded before each update, so step 0 reflects the initial
    student. Raises NumericalFailure (with the step index) if any loss goes
    non-finite.
    """
    teacher = validate_logits(make_teacher_table(cfg))
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
    # kept entries, and the dense softmax the padded-sort baseline reads) is
    # computed once; each step's pass computes only the student's half.
    teacher_half = _teacher(teacher_blocks, cfg.n, w, argmax=True,
                            dense=cfg.mode == ULD)

    # Pseudo-targets are generated once from the initial alignment and kept
    # fixed for the whole run, mirroring distillation against pre-generated
    # teacher text; recomputing them every step makes the targets oscillate
    # whenever two student dimensions trade rank.
    fixed_labels = _forward(teacher_half, student_blocks, w,
                            need_loss=False)[0].labels

    records = {name: [] for name in ("ce", "had", "sl", "sd", "total", "eval_sd")}
    for step in range(cfg.steps):
        validate_logits(W)
        # One fused pass: every block's state, breakdown and the mode's
        # gradient from the same softmaxes.
        _, breakdown, grad = _forward(teacher_half, student_blocks, w,
                                      labels=fixed_labels, grad=cfg.mode)
        if not np.isfinite(breakdown.total).all():
            exc = NumericalFailure(f"non-finite loss at step {step}")
            exc.metrics = _partial_metrics(records)
            raise exc
        for name in ("ce", "had", "sl", "sd", "total"):
            records[name].append(_block_mean(getattr(breakdown, name)))
        # The held-out metric is the sequence loss at a freshly built plan,
        # which is what the fused pass just computed for the eval blocks.
        records["eval_sd"].append(float(np.mean(breakdown.sd[-n_eval:])))
        student_blocks -= cfg.lr * grad

    return RunMetrics(
        step=np.arange(cfg.steps),
        **{name: np.array(values) for name, values in records.items()},
    )


@dataclass(frozen=True)
class ModeResult:
    mode: str
    final_eval_sd: float
    final_had: float


def compare_modes(cfg: DistillConfig) -> list[ModeResult]:
    """Run every training mode from the same seed and summarize the endpoints."""
    results = []
    for mode in MODES:
        metrics = run_distillation(replace(cfg, mode=mode))
        results.append(ModeResult(
            mode=mode,
            final_eval_sd=float(metrics.eval_sd[-1]),
            final_had=float(metrics.had[-1]),
        ))
    return results
