"""The benchmark workloads: inputs, one unit of work, and its checks.

Every workload has
  - ``prepare(seed, workdir)``: untimed input generation from the seed;
  - ``unit(inputs)``: one unit of work, calling the package only through
    module attributes looked up at call time, so the tracer's wrappers apply;
  - ``check(inputs, out, first)``: cheap checks run after every unit;
    ``first`` is the output of the run's first unit (None for that unit);
  - ``check_once(inputs, out)``: costlier checks run on the first unit only;
  - ``tokens_per_unit`` and ``softmax_needed``: the token positions one unit
    processes, and the number of distinct (matrix, temperature) softmaxes it
    needs, which is the useful part of ``core.softmax_rows.calls``.
Checks return a list of problems; an empty list means the unit is correct.
None of them runs inside the timed region.

Import this module only after ``otdistill`` itself: the benchmark times that
import as part of set-up.
"""

import math
import os

import numpy as np

import otdistill as od
import otdistill.cli  # noqa: F401  (binds od.cli)

LOGIT_SCALE = 3.0
CSV_HEADER = "step,ce,had,sl,sd,total,eval_sd"
MODES = ("multilevel_ot", "ce_only", "uld")
LOSS_FIELDS = ("ce", "had", "sl", "sd", "total")

# Final held-out eval_sd per mode and the shared initial value of the
# acceptance fixture (m, n, T, contexts, steps, lr below) at seed 1.
ACCEPTANCE_FIXTURE = (20, 15, 8, 32, 500, 0.5)
FIXTURE_PINS = {"multilevel_ot": 4.98282, "ce_only": 5.39522, "uld": 5.35705}
FIXTURE_INITIAL = 11.78848
PIN_TOL = 1e-3


def _logits(rng, tokens, vocab):
    return rng.standard_normal((tokens, vocab)) * LOGIT_SCALE


def _not_finite(name, values):
    return [] if np.isfinite(values).all() else [f"{name} is not finite"]


class TrainingStep:
    """build_state + total_loss_frozen + total_grad with pseudo-labels."""

    softmax_needed = 4   # teacher and student at tau_sl and at tau_sd

    def __init__(self, tokens, m, n):
        self.tokens, self.m, self.n = tokens, m, n
        self.tokens_per_unit = tokens

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return {"teacher": _logits(rng, self.tokens, self.m),
                "student": _logits(rng, self.tokens, self.n),
                "direction_seed": seed}

    def unit(self, inputs):
        t, s = inputs["teacher"], inputs["student"]
        state = od.build_state(t, s)
        loss = od.total_loss_frozen(state, t, s)
        grad = od.total_grad(t, s, state=state)
        return state, loss, grad

    def check(self, inputs, out, first):
        _, loss, grad = out
        values = np.array([getattr(loss, f) for f in LOSS_FIELDS])
        problems = _not_finite("loss", values) + _not_finite("gradient", grad)
        if problems:
            return problems
        w = od.LossWeights()
        expect = loss.ce + w.alpha * (loss.had + w.beta * loss.sl + w.gamma * loss.sd)
        if not math.isclose(loss.total, expect, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"total {loss.total!r} != composite formula {expect!r}")
        row_sums = np.abs(grad.sum(axis=1)).max()
        if row_sums > 1e-9 * max(1.0, np.abs(grad).max()):
            problems.append(f"gradient rows do not sum to 0 (max {row_sums:.3g})")
        if first is not None:
            before = np.array([getattr(first[1], f) for f in LOSS_FIELDS])
            if not np.allclose(values, before, rtol=1e-9, atol=0.0):
                problems.append("loss differs from the first unit on the same inputs")
        return problems

    def check_once(self, inputs, out):
        """Directional derivative of total_grad against total_loss_frozen."""
        state, _, grad = out
        t, s = inputs["teacher"], inputs["student"]
        rng = np.random.default_rng(inputs["direction_seed"])
        d = rng.standard_normal(s.shape)
        h = 1e-5

        def loss_at(x):
            return od.total_loss_frozen(state, t, x).total

        numeric = (loss_at(s + h * d) - loss_at(s - h * d)) / (2.0 * h)
        analytic = float(np.vdot(grad, d))
        report = od.check_gradient(np.array([analytic]), np.array([numeric]))
        if report.passed:
            return []
        return [f"directional derivative {analytic!r} vs finite difference "
                f"{numeric!r} (rel err {report.max_rel_err:.3g})"]


class DistillFixture:
    """``otdistill distill`` in process, once per training mode."""

    def __init__(self, m=20, n=15, tokens=8, contexts=32, steps=500, lr=0.5):
        self.m, self.n, self.tokens = m, n, tokens
        self.contexts, self.steps, self.lr = contexts, steps, lr
        self.pinned = (m, n, tokens, contexts, steps, lr) == ACCEPTANCE_FIXTURE
        blocks = contexts // tokens
        self.tokens_per_unit = steps * contexts * len(MODES)
        # Student blocks at both temperatures every step; the frozen teacher
        # blocks at both temperatures once per run.
        self.softmax_needed = len(MODES) * 2 * blocks * (steps + 1)

    def prepare(self, seed, workdir):
        config = os.path.join(workdir, "fixture.cfg")
        with open(config, "w") as f:
            f.write(f"seed={seed}\nm={self.m}\nn={self.n}\nT={self.tokens}\n"
                    f"contexts={self.contexts}\nsteps={self.steps}\nlr={self.lr}\n")
        return {"seed": seed, "config": config,
                "out": {mode: os.path.join(workdir, f"{mode}.csv") for mode in MODES}}

    def unit(self, inputs):
        result = {}
        for mode in MODES:
            path = inputs["out"][mode]
            code = od.cli.main(["distill", "--config", inputs["config"],
                                "--out", path, "--mode", mode])
            with open(path) as f:
                result[mode] = (code, f.read())
        return result

    def check(self, inputs, out, first):
        problems, initial = [], {}
        for mode, (code, text) in out.items():
            if code != 0:
                problems.append(f"{mode}: exit code {code}")
                continue
            rows, csv_problems = self._parse_csv(text)
            problems += [f"{mode}: {p}" for p in csv_problems]
            if csv_problems:
                continue
            initial[mode] = rows[0][-1]
            # Every seed tried (0-11) ends far below both: a gradient with the
            # wrong sign or scale shows here even where no value is pinned.
            if not (rows[-1][5] < 0.5 * rows[0][5] and rows[-1][6] < rows[0][6]):
                problems.append(f"{mode}: training did not lower total and eval_sd")
            if first is not None and text != first[mode][1]:
                problems.append(f"{mode}: CSV differs from the first unit")
            if self.pinned and inputs["seed"] == 1:
                pin = FIXTURE_PINS[mode]
                if abs(rows[-1][-1] - pin) > PIN_TOL:
                    problems.append(f"{mode}: final eval_sd {rows[-1][-1]} != {pin}")
                if abs(rows[0][-1] - FIXTURE_INITIAL) > PIN_TOL:
                    problems.append(f"{mode}: initial eval_sd {rows[0][-1]} "
                                    f"!= {FIXTURE_INITIAL}")
        if len(set(initial.values())) > 1:
            problems.append(f"initial eval_sd differs between modes: {initial}")
        return problems

    def _parse_csv(self, text):
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return None, ["CSV header is not " + CSV_HEADER]
        if len(lines) - 1 != self.steps:
            return None, [f"{len(lines) - 1} CSV rows, expected {self.steps}"]
        rows = []
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            try:
                values = [float(x) for x in fields]
            except ValueError:
                return None, [f"row {i} is not numeric"]
            if len(values) != 7 or values[0] != i or not np.isfinite(values).all():
                return None, [f"row {i} is malformed or not finite"]
            rows.append(values)
        return rows, []

    def check_once(self, inputs, out):
        return []


WORKLOADS = {
    "vocab_t128": TrainingStep(tokens=128, m=32000, n=50000),
    "seq_t1024": TrainingStep(tokens=1024, m=512, n=768),
    "distill_fixture": DistillFixture(),
}

# The same code paths at shapes small enough for the self-test.
TINY = {
    "vocab_t128": TrainingStep(tokens=6, m=300, n=500),
    "seq_t1024": TrainingStep(tokens=24, m=60, n=80),
    "distill_fixture": DistillFixture(steps=20),
}
