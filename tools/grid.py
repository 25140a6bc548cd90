"""Print one sha256 per group of the package's outputs, to hold a change that
should keep every byte against the tree before it.

Run from anywhere, with no arguments (a few seconds):

    python3 tools/grid.py

Each output line is `<group> <sha256>`, one per group:
  public    build_state, total_loss_frozen, total_loss and total_grad with
            and without a state, given labels and pseudo-labels, under both
            match modes;
  forward   the fused pass (composite._forward) on (4, 8, m) and (4, 8, n)
            stacks, as the harness calls it, for each objective, at step 0
            (pseudo-labels) and at a later step (given labels);
  plan      sinkhorn_plan on a (4, 8, 8) and a (1, 600, 600) cost stack;
  distill   the seed-1 metrics CSV of each training mode, as `otdistill
            distill` writes it at its default settings;
  long      total_grad with and without a state, total_loss_frozen and
            softmax_rows at each temperature, at T = 96 against a student
            vocabulary of 3000, at temperatures (1, 2) and (0.7, 3.1),
            where a pass that sums no columns and the backward walk
            several chunks, and one at a single temperature several
            blocks of its output, and sd_grad with tied values at
            T = 600 and at T = 64, k = 50 (one block of signs, larger
            than half a chunk), which both compare dense ranks.
A hash covers the dtype, shape and bytes of every array, and the repr of
every number, so two trees print the same line for a group only if every
output of the group is the same bit for bit.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import otdistill as od  # noqa: E402
from otdistill.composite import _forward, _teacher  # noqa: E402
from otdistill.fileio import metrics_csv_text  # noqa: E402
from otdistill.harness import MODES  # noqa: E402

GROUPS = ("public", "forward", "plan", "distill", "long")


def _feed(h, value):
    # Everything a value holds, in a fixed order, into the hash h.
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def _public():
    rng = np.random.default_rng(0)
    t, s = rng.standard_normal((7, 12)) * 3, rng.standard_normal((6, 10)) * 3
    given = rng.integers(0, 10, 6)
    out = []
    for mode in (od.SUM_SORT, od.EXACT_ASSIGNMENT):
        for w in (od.LossWeights(match_mode=mode),
                  od.LossWeights(k=4, tau_sd=3.0, match_mode=mode)):
            for labels in (None, given):
                state = od.build_state(t, s, labels, w)
                out += [state, od.total_loss(t, s, labels, w),
                        od.total_grad(t, s, labels, w),
                        od.total_loss_frozen(state, t, s, w),
                        od.total_grad(t, s, w=w, state=state)]
    return out


def _forward_calls():
    rng = np.random.default_rng(1)
    t, s = rng.standard_normal((4, 8, 20)) * 6, rng.standard_normal((4, 8, 15))
    w = od.LossWeights()
    out = []
    for mode in MODES:
        teacher = _teacher(t, s.shape[-1], w, argmax=True,
                           dense=mode == od.ULD)
        state, breakdown, grad = _forward(teacher, s, w, grad=mode)
        out += [state, breakdown, grad,
                _forward(teacher, s, w, labels=state.labels, grad=mode)]
    return out


def _plans():
    rng = np.random.default_rng(2)
    return [od.sinkhorn_plan(rng.random(shape) * scale)
            for shape, scale in (((4, 8, 8), 1.0), ((1, 600, 600), 0.5))]


def _distill():
    return [metrics_csv_text(od.run_distillation(
        od.DistillConfig(seed=1, mode=mode))) for mode in MODES]


def _long():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((96, 2000)) * 3
    s = rng.standard_normal((96, 3000)) * 3
    out = []
    for taus in ((1.0, 2.0), (0.7, 3.1)):
        w = od.LossWeights(tau_sl=taus[0], tau_sd=taus[1])
        state = od.build_state(t, s, w=w)
        out += [od.total_grad(t, s, w=w),
                od.total_grad(t, s, w=w, state=state),
                od.total_loss_frozen(state, t, s, w)]
        out += [od.softmax_rows(s, tau) for tau in taus]
    for tokens in (600, 64):
        pair = od.AlignedPair(np.round(rng.random((tokens, 50)), 2),
                              np.round(rng.random((tokens, 50)), 2))
        out.append(od.sd_grad(pair, rng.random((tokens, tokens))))
    return out


def main():
    for group, outputs in zip(GROUPS, (_public, _forward_calls, _plans,
                                       _distill, _long)):
        h = hashlib.sha256()
        _feed(h, outputs())
        print(group, h.hexdigest())


if __name__ == "__main__":
    main()
