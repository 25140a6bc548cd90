"""Acceptance gate: one test per shipping criterion, each printing PASS/FAIL.

Tolerances are pinned here on purpose; loosening them requires changing this
file. Expected fixture-run values were frozen from the first recorded run of
the toy harness (seed 1): initial eval 11.789, final eval 4.983 vs 5.395 for
the cross-entropy-only baseline.

The three Sinkhorn checks run the prescribed 20-sweep solver and assert what
a fixed sweep count guarantees, with each bound derived in the test (full
analysis in the README). Write e1(N) for the l1 row residual
sum_i |rowsum_i - 1| of the plan after N sweeps:
- marginals: columns sum to 1 within 1e-12 after 20 sweeps, e1(N) never
  increases over sweeps 1..20, and both marginals are within 1e-6 after a
  500-sweep budget taken from the README's ~0.966-per-sweep contraction;
- entropic sandwich: exact <= regularized, and at lambda=0.02 the gap is at
  most lambda * n * log(n) + max(C) * e1(200), the entropic bias plus the
  residual of the unconverged plan;
- saturation: |objective(50) - objective(20)| is at most
  2 * max(C) * sum_{N=20}^{49} e1(N) + 1e-12, since each sweep moves the plan
  by at most 2 * e1(N) in l1; the 5 -> 20 gap still dominates.
"""

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from otdistill import (BRUTE_FORCE, AlignedPair, DistillConfig, LossWeights,
                       SinkhornConfig, build_state, check_gradient, cli,
                       compare_modes, exact_ot, fileio, finite_diff_grad,
                       had_loss, run_distillation, sd_grad, sd_loss,
                       seq_cost_matrix, sinkhorn_plan, sl_loss, softmax_rows,
                       total_grad, total_loss_frozen, uld_loss)
from otdistill.harness import CE_ONLY, MULTILEVEL_OT, ULD

FIXTURE = DistillConfig(seed=1, m=20, n=15, tokens=8, contexts=32,
                        steps=500, lr=0.5)


RESULTS = []  # (name, ok, detail); echoed by the conftest terminal summary


def report(name, ok, detail=""):
    RESULTS.append((name, bool(ok), detail))
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def random_probs(rng, size):
    p = rng.random(size) + 1e-3
    return p / p.sum()


def test_padded_sort_baseline_equals_exact_transport():
    # 200 single-token instances, padded width <= 6, tolerance 1e-12
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        t = random_probs(rng, m)[None, :]
        s = random_probs(rng, n)[None, :]
        width = max(m, n)
        t_pad = np.zeros(width)
        s_pad = np.zeros(width)
        t_pad[:m] = t[0]
        s_pad[:n] = s[0]
        cost = np.abs(t_pad[:, None] - s_pad[None, :])
        worst = max(worst, abs(uld_loss(t, s)
                               - exact_ot(cost, BRUTE_FORCE).value))
    elapsed = time.perf_counter() - start
    report("padded-sort baseline equals exact transport (200x, tol 1e-12)",
           worst < 1e-12 and elapsed < 5.0,
           f"max err {worst:.2e}, {elapsed:.2f}s")


def test_identity_plan_optimal_for_sorted_vectors():
    # 200 sorted-descending pairs, k <= 6, tolerance 1e-12
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        t = np.sort(random_probs(rng, k))[::-1]
        s = np.sort(random_probs(rng, k))[::-1]
        value = had_loss(AlignedPair(teacher=t[None, :],
                                     student=s[None, :])).value
        cost = np.abs(t[:, None] - s[None, :])
        worst = max(worst, abs(value - exact_ot(cost, BRUTE_FORCE).value))
    elapsed = time.perf_counter() - start
    report("identity plan optimal for sorted vectors (200x, tol 1e-12)",
           worst < 1e-12 and elapsed < 5.0,
           f"max err {worst:.2e}, {elapsed:.2f}s")


def _row_residuals(C, cfg, sweep_counts):
    """e1(N) = sum_i |rowsum_i - 1| of the plan after each sweep count N."""
    return [np.abs(sinkhorn_plan(C, replace(cfg, iterations=n)).sum(axis=1)
                   - 1.0).sum()
            for n in sweep_counts]


def test_alternating_normalization_marginals():
    # 100 cost matrices up to 16x16, lambda=0.1, 20 iterations.
    # A column step comes last, so the columns sum to 1 up to rounding
    # (<= 1e-12). The rows are exact only in the limit, but e1 never grows:
    # with column sums 1 and row sums r, the next row step moves column j by
    # sum_i P_ij (1/r_i - 1), so by the triangle inequality the column l1
    # error is at most sum_i r_i |1/r_i - 1| = e1(N); the column step bounds
    # e1(N+1) by that column error the same way round. The 1e-12 slack covers
    # rounding in n row sums of n entries, below n^2 * eps < 6e-14 at n=16.
    # The 1e-6 tolerance holds after a budget set by the README's 2x2 rate
    # ((1-sqrt(eta))/(1+sqrt(eta)))^2: its near-tied example contracts at
    # ~0.966 per sweep, so an O(1) residual needs ln(1e-6)/ln(0.966) ~ 400
    # sweeps; 500 leaves a 25% margin.
    rng = np.random.default_rng(102)
    cfg = SinkhornConfig(regularization=0.1, iterations=20)
    converged = replace(cfg, iterations=500)
    start = time.perf_counter()
    worst_col = 0.0
    monotone = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        C = rng.random((n, n))
        worst_col = max(worst_col,
                        np.abs(sinkhorn_plan(C, cfg).sum(axis=0) - 1.0).max())
        e1 = _row_residuals(C, cfg, range(1, cfg.iterations + 1))
        monotone = monotone and all(
            later <= earlier + 1e-12 for earlier, later in zip(e1, e1[1:]))
        plan = sinkhorn_plan(C, converged)
        worst = max(worst,
                    np.abs(plan.sum(axis=0) - 1.0).max(),
                    np.abs(plan.sum(axis=1) - 1.0).max())
    elapsed = time.perf_counter() - start
    report("plan columns exact and row residual non-increasing over 20 "
           "sweeps, marginals within 1e-6 by 500 (100x)",
           worst_col <= 1e-12 and monotone and worst < 1e-6 and elapsed < 2.0,
           f"column dev {worst_col:.1e}, row residual "
           f"{'non-increasing' if monotone else 'increased'}, "
           f"max dev at 500 {worst:.2e}, {elapsed:.2f}s")


def test_entropic_objective_sandwich():
    # exact <= regularized, and at lambda=0.02 the gap stays within the
    # entropic bias. With r its row sums, the plan diag(u) K diag(v) minimizes
    # <P, C> - lambda * H(P) over plans with its own marginals (r, 1), since
    # that objective differs from lambda * KL(Q || P) by a constant there.
    # Compare it with Q: an optimal permutation whose rows with r_i < 1 give
    # up r_i - 1 and whose rows with r_i > 1 take that freed column mass, so
    # <Q, C> <= exact + max(C) * e1 / 2 with e1 = sum_i |r_i - 1|. Entries of
    # both lie in [0, 1] and total n, so 0 <= H <= n * log(n), giving
    #   tight - exact <= lambda * n * log(n) + max(C) * e1   (0.111 at n=4).
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    lower_ok = True
    worst_gap = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        C = rng.random((4, 4))
        exact = exact_ot(C, BRUTE_FORCE).value
        loose = sd_loss(C, sinkhorn_plan(C, SinkhornConfig(0.1, 20)))
        tight_plan = sinkhorn_plan(C, SinkhornConfig(0.02, 200))
        tight = sd_loss(C, tight_plan)
        n = C.shape[0]
        bound = (0.02 * n * np.log(n)
                 + C.max() * np.abs(tight_plan.sum(axis=1) - 1.0).sum())
        lower_ok = lower_ok and exact <= loose + 1e-12
        worst_gap = max(worst_gap, tight - exact)
        worst_ratio = max(worst_ratio, (tight - exact) / bound)
    elapsed = time.perf_counter() - start
    report("entropic objective brackets exact value (50x 4x4)",
           lower_ok and worst_ratio <= 1.0 and elapsed < 5.0,
           f"lower bound {'holds' if lower_ok else 'broken'}, "
           f"max gap {worst_gap:.2e}, at most {worst_ratio:.2f} of the "
           f"entropic bound, {elapsed:.2f}s")


def _kink_free_pair(rng, tokens, width, min_gap=1e-3):
    """Aligned probability pair whose entries stay off the sign kinks."""
    while True:
        t = np.array([random_probs(rng, width) for _ in range(tokens)])
        s = np.array([random_probs(rng, width) for _ in range(tokens)])
        if np.abs(t - s).min() > min_gap:
            return AlignedPair(teacher=t, student=s)


def _kink_free_logits(rng, tokens, m, n, w, min_gap=1e-3):
    """Raw logit pair whose frozen-pipeline loss is smooth near the point."""
    while True:
        t = rng.standard_normal((tokens, m)) * 2
        s = rng.standard_normal((tokens, n)) * 2
        state = build_state(t, s, None, w)
        k = state.rank.k
        t1 = softmax_rows(t, w.tau_sl)[:, state.rank.teacher_perm[:k]]
        s1 = softmax_rows(s, w.tau_sl)[:, state.rank.student_perm[:k]]
        t2 = softmax_rows(t, w.tau_sd)[:, state.rank_seq.teacher_perm[:k]]
        s2 = softmax_rows(s, w.tau_sd)[:, state.rank_seq.student_perm[:k]]
        gap = min(np.abs(t1 - s1).min(), np.abs(t2[:, None] - s2[None]).min())
        if gap > min_gap:
            return t, s, state


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst = {"had": 0.0, "sl": 0.0, "sd": 0.0, "total": 0.0}

    for _ in range(20):
        pair = _kink_free_pair(rng, tokens=3, width=4)
        t, s = pair.teacher, pair.student
        numeric = finite_diff_grad(
            lambda x: had_loss(AlignedPair(teacher=t, student=x)).value, s)
        rep = check_gradient(had_loss(pair).grad, numeric, rel_tol=1e-4)
        worst["had"] = max(worst["had"], rep.max_rel_err)

        numeric = finite_diff_grad(
            lambda x: sl_loss(AlignedPair(teacher=t, student=x)).value, s)
        rep = check_gradient(sl_loss(pair).grad, numeric, rel_tol=1e-4)
        worst["sl"] = max(worst["sl"], rep.max_rel_err)

        plan = sinkhorn_plan(seq_cost_matrix(pair), SinkhornConfig(0.5, 20))
        numeric = finite_diff_grad(
            lambda x: sd_loss(
                seq_cost_matrix(AlignedPair(teacher=t, student=x)), plan), s)
        rep = check_gradient(sd_grad(pair, plan), numeric, rel_tol=1e-4)
        worst["sd"] = max(worst["sd"], rep.max_rel_err)

    w = LossWeights(k=4, sinkhorn=SinkhornConfig(0.5, 20))
    for _ in range(20):
        t, s, state = _kink_free_logits(rng, tokens=3, m=8, n=6, w=w)
        analytic = total_grad(t, s, w=w, state=state)
        numeric = finite_diff_grad(
            lambda x: total_loss_frozen(state, t, x, w).total, s)
        rep = check_gradient(analytic, numeric, rel_tol=1e-4)
        worst["total"] = max(worst["total"], rep.max_rel_err)

    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-4 and elapsed < 10.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report("analytic gradients match finite differences (20x each, rel 1e-4)",
           ok, f"{detail}, {elapsed:.2f}s")


def test_iteration_count_saturates():
    # extra iterations past 20 change the objective by no more than the row
    # residual left at 20 allows, while the 5 -> 20 gap dominates on most
    # instances. From a plan with column sums 1 the row step moves P by
    # sum_i |1 - r_i| = e1(N) in l1 and the column step by at most the same
    # (see the marginal check), so |<P_{N+1} - P_N, C>| <= 2 * max(C) * e1(N)
    # and, telescoping, |f(50) - f(20)| <= 2 * max(C) * sum_{N=20}^{49} e1(N).
    # The 1e-12 covers rounding when the plan converges in one sweep.
    rng = np.random.default_rng(105)
    cfg = SinkhornConfig(0.1, 20)
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_late = 0.0
    dominated = 0
    for _ in range(20):
        C = rng.random((8, 8))
        values = {
            n: sd_loss(C, sinkhorn_plan(C, SinkhornConfig(0.1, n)))
            for n in (5, 20, 50)
        }
        late_gap = abs(values[50] - values[20])
        early_gap = abs(values[20] - values[5])
        bound = (2.0 * C.max() * sum(_row_residuals(C, cfg, range(20, 50)))
                 + 1e-12)
        worst_late = max(worst_late, late_gap)
        worst_ratio = max(worst_ratio, late_gap / bound)
        dominated += early_gap > late_gap
    elapsed = time.perf_counter() - start
    report("normalization count saturates past 20 iterations (20x 8x8)",
           worst_ratio <= 1.0 and dominated >= 15 and elapsed < 2.0,
           f"worst late gap {worst_late:.2e}, at most {worst_ratio:.2f} of "
           f"the residual bound, early gap larger on {dominated}/20, "
           f"{elapsed:.2f}s")


def test_harness_distillation_beats_label_only_training():
    start = time.perf_counter()
    multilevel = run_distillation(FIXTURE)
    initial = float(multilevel.eval_sd[0])
    finals = {r.mode: r.final_eval_sd for r in compare_modes(FIXTURE)}
    elapsed = time.perf_counter() - start
    ok = (finals[MULTILEVEL_OT] <= finals[CE_ONLY]
          and finals[MULTILEVEL_OT] < 0.5 * initial
          and elapsed < 60.0)
    report("toy distillation beats label-only training on the evaluation "
           "blocks, also trained",
           ok,
           f"initial {initial:.3f}, multilevel {finals[MULTILEVEL_OT]:.3f}, "
           f"ce-only {finals[CE_ONLY]:.3f}, {elapsed:.1f}s")


def test_harness_distillation_wins_across_seeds():
    # The seed-1 check above, over seeds 1-10: the full objective ends the
    # fixture run below both baselines at 8 of them (it loses to both at
    # seeds 4 and 5).
    start = time.perf_counter()
    wins = {CE_ONLY: 0, ULD: 0}
    for seed in range(1, 11):
        finals = {r.mode: r.final_eval_sd
                  for r in compare_modes(replace(FIXTURE, seed=seed))}
        for baseline in wins:
            wins[baseline] += finals[MULTILEVEL_OT] < finals[baseline]
    elapsed = time.perf_counter() - start
    report("toy distillation beats ce-only and uld at 8 of seeds 1-10",
           min(wins.values()) >= 8,
           f"wins over ce-only {wins[CE_ONLY]}/10, over uld {wins[ULD]}/10, "
           f"{elapsed:.1f}s")


_THREAD_PROBE = """
import numpy as np
from otdistill import DistillConfig, fileio, run_distillation
m = run_distillation(DistillConfig(seed=3, m=12, n=9, tokens=4,
                                   contexts=16, steps=30, lr=0.3))
print(fileio.metrics_csv_text(m), end="")
"""


def test_repeat_runs_are_bit_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed=2\nm=12\nn=9\nT=4\ncontexts=16\nsteps=20\nlr=0.4\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["distill", "--config", str(config), "--out", str(a)]) == 0
    assert cli.main(["distill", "--config", str(config), "--out", str(b)]) == 0
    same_bytes = a.read_bytes() == b.read_bytes()

    # The probe imports the same otdistill as this process, installed or not.
    package_parent = str(Path(cli.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            capture_output=True, text=True, check=True,
            env={"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
                 "MKL_NUM_THREADS": threads, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_parent},
        )
        outputs.add(proc.stdout)
    report("repeat runs are byte-identical across processes and thread counts",
           same_bytes and len(outputs) == 1)


def test_cli_error_contract_and_round_trip(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code_parse = cli.main(["loss", "--teacher", str(bad),
                           "--student", str(bad)])

    wide = tmp_path / "wide.csv"
    fileio.write_matrix_csv(wide, np.zeros((2, 3)))
    code_shape = cli.main(["sinkhorn", "--cost", str(wide),
                           "--out", str(tmp_path / "plan.csv")])

    cost_path = tmp_path / "cost.csv"
    cost = np.random.default_rng(106).random((5, 5))
    fileio.write_matrix_csv(cost_path, cost)
    plan_path = tmp_path / "plan.csv"
    code_ok = cli.main(["sinkhorn", "--cost", str(cost_path),
                        "--out", str(plan_path)])
    plan = sinkhorn_plan(cost, SinkhornConfig(0.1, 20))
    round_trip_err = np.abs(fileio.load_matrix_csv(plan_path) - plan).max()

    report("command errors map to exit codes and plans round-trip (tol 1e-12)",
           code_parse == 2 and code_shape == 3 and code_ok == 0
           and round_trip_err < 1e-12,
           f"exits {code_parse}/{code_shape}/{code_ok}, "
           f"round-trip {round_trip_err:.1e}")
