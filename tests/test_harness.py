import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otdistill import (CE_ONLY, MULTILEVEL_OT, ULD, DistillConfig,
                       InvalidConfig, LossWeights, NumericalFailure, cli,
                       compare_modes, harness, run_distillation)
from otdistill.fileio import metrics_csv_text
from otdistill.harness import MODES, make_teacher_table

FAST = DistillConfig(seed=3, m=10, n=7, tokens=4, contexts=16, steps=25, lr=0.3)


class TestRunDistillation:
    def test_deterministic(self):
        a = run_distillation(FAST)
        b = run_distillation(FAST)
        for name in ("ce", "had", "sl", "sd", "total", "eval_sd"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_zero_learning_rate_freezes_metrics(self):
        m = run_distillation(replace(FAST, lr=0.0, steps=5))
        for name in ("ce", "had", "sl", "sd", "total", "eval_sd"):
            values = getattr(m, name)
            np.testing.assert_array_equal(values, np.full(5, values[0]))

    def test_one_record_per_step(self):
        m = run_distillation(replace(FAST, steps=7))
        assert len(m.step) == 7
        np.testing.assert_array_equal(m.step, np.arange(7))
        for name in ("ce", "had", "sl", "sd", "total", "eval_sd"):
            assert np.isfinite(getattr(m, name)).all()

    def test_one_fused_pass_per_step(self, monkeypatch):
        # Step 0's pass derives the pseudo-labels; later steps reuse them.
        derived = []
        forward = harness._forward

        def counted(*args, **kwargs):
            derived.append(kwargs.get("labels") is None)
            return forward(*args, **kwargs)

        monkeypatch.setattr(harness, "_forward", counted)
        run_distillation(replace(FAST, steps=6))
        assert derived == [True] + [False] * 5

    def test_total_decreases_with_small_lr(self):
        m = run_distillation(replace(FAST, lr=0.05, steps=11))
        assert m.total[10] <= m.total[0]

    def test_ce_only_update_ignores_distill_terms(self):
        # ce_only must trace the same trajectory as training with alpha=0,
        # even though the distillation components are still recorded
        base = run_distillation(replace(FAST, mode=CE_ONLY))
        alpha0 = replace(FAST, mode=MULTILEVEL_OT,
                         weights=replace(FAST.weights, alpha=0.0))
        equiv = run_distillation(alpha0)
        np.testing.assert_array_equal(base.ce, equiv.ce)
        np.testing.assert_array_equal(base.eval_sd, equiv.eval_sd)
        assert base.had.max() > 0.0

    def test_mismatched_vocabulary_is_default(self):
        assert FAST.m != FAST.n
        m = run_distillation(replace(FAST, steps=3))
        assert np.isfinite(m.total).all()

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidConfig):
            DistillConfig(steps=0)
        with pytest.raises(InvalidConfig):
            DistillConfig(mode="nope")
        with pytest.raises(InvalidConfig):
            DistillConfig(contexts=4, tokens=4)
        with pytest.raises(InvalidConfig):
            DistillConfig(tokens=0)
        for key in ("lr", "sharpness"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(InvalidConfig, match=key):
                    DistillConfig(**{key: value})
        # Finite, but the teacher table it scales overflows.
        with pytest.raises(InvalidConfig, match="sharpness"):
            run_distillation(replace(FAST, sharpness=1e308))
        # Counts are integers >= 1 (m and n >= 2, the seed >= 0), or floats
        # holding one, which then run as that integer.
        for key, value in (("seed", 0.5), ("seed", -1), ("seed", float("nan")),
                           ("tokens", 2.5), ("steps", float("inf")),
                           ("contexts", "16"), ("m", None), ("n", 7.5)):
            with pytest.raises(InvalidConfig, match=key):
                replace(FAST, **{key: value})
        steps = replace(FAST, steps=2)
        expected = run_distillation(steps)
        for key in ("seed", "contexts", "tokens", "m", "steps"):
            floated = replace(steps, **{key: float(getattr(steps, key))})
            assert floated == steps
            got = run_distillation(floated)
            np.testing.assert_array_equal(got.total, expected.total)
            np.testing.assert_array_equal(got.eval_sd, expected.eval_sd)

    def test_contexts_past_the_last_block_are_unused(self):
        # 18 contexts make the same four blocks of 4 as 16 do; the seeded
        # tables of 18 rows start with the 16 rows of the shorter run.
        short = run_distillation(replace(FAST, steps=5))
        longer = run_distillation(replace(FAST, contexts=18, steps=5))
        for name in ("ce", "had", "sl", "sd", "total", "eval_sd"):
            np.testing.assert_array_equal(getattr(short, name),
                                          getattr(longer, name))


# The acceptance fixture at seed 1, as a distill config file's lines.
FIXTURE = "seed=1\nm=20\nn=15\nT=8\ncontexts=32\nlr=0.5\n"


def distill(tmp_path, text, mode=MULTILEVEL_OT):
    """otdistill distill in process on a config of text: the exit code and
    the path it was asked to write."""
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / f"{mode}.csv"
    return cli.main(["distill", "--config", str(config), "--out", str(out),
                     "--mode", mode]), out


class TestRunMemory:
    @pytest.mark.parametrize("mode", MODES)
    def test_a_run_holds_at_most_64_bytes_per_step(self, tmp_path, mode):
        # The six metrics take 8 bytes each per step, in arrays made once,
        # and the CSV is streamed to its file, never held whole; a list of
        # Python floats per metric and the whole CSV text took about 470.
        distill(tmp_path, FIXTURE + "steps=5\n", mode)  # first-call caches
        peaks = {}
        for steps in (300, 1500):
            tracemalloc.start()
            try:
                code, out = distill(tmp_path, FIXTURE + f"steps={steps}\n",
                                    mode)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(out.read_text().splitlines()) == steps + 1
        per_step = (peaks[1500] - peaks[300]) / 1200
        assert per_step <= 64, f"{per_step:.1f} bytes per step, {peaks}"

    def test_the_written_csv_is_metrics_csv_text(self, tmp_path):
        # The file is streamed line by line and the text is those lines
        # joined: the same bytes, for a full run and for the steps a run
        # stopped by a gradient past the float range keeps.
        code, out = distill(tmp_path, FIXTURE + "steps=40\n")
        assert code == 0
        cfg = DistillConfig(seed=1, m=20, n=15, tokens=8, contexts=32,
                            steps=40, lr=0.5)
        assert out.read_bytes() == metrics_csv_text(
            run_distillation(cfg)).encode()
        code, out = distill(tmp_path, FIXTURE + "steps=5\nalpha=1e300\n")
        assert code == 4
        with pytest.raises(NumericalFailure) as info:
            run_distillation(replace(cfg, steps=5,
                                     weights=LossWeights(alpha=1e300)))
        partial = info.value.metrics
        assert 0 < len(partial.step) < 5
        assert out.read_bytes() == metrics_csv_text(partial).encode()

    @pytest.mark.parametrize("steps", [10**15, 10**20])
    def test_steps_numpy_cannot_allocate_are_a_config_error(self, capsys,
                                                            tmp_path, steps):
        # The metric arrays are made before the first step: numpy refuses
        # 10**15 steps the memory (MemoryError) and 10**20 the dimension
        # (ValueError); either is a steps out of range, and nothing is
        # written.
        with pytest.raises(InvalidConfig, match="steps"):
            run_distillation(replace(FAST, steps=steps))
        code, _ = distill(tmp_path, FIXTURE + f"steps={steps}\n")
        assert code == 3
        assert "steps" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


class TestTeacherTable:
    def test_seeded_and_scaled(self):
        a = make_teacher_table(FAST)
        b = make_teacher_table(FAST)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (16, 10)
        c = make_teacher_table(replace(FAST, seed=4))
        assert not np.array_equal(a, c)


class TestCompareModes:
    def test_three_labeled_rows(self):
        results = compare_modes(replace(FAST, steps=5))
        assert [r.mode for r in results] == [MULTILEVEL_OT, CE_ONLY, ULD]
        for r in results:
            assert np.isfinite(r.final_eval_sd)
            assert np.isfinite(r.final_had)

    def test_same_teacher_across_modes(self):
        # the summary runs share a seed, hence a teacher table
        cfg = replace(FAST, steps=2)
        tables = {mode: make_teacher_table(replace(cfg, mode=mode))
                  for mode in (MULTILEVEL_OT, CE_ONLY, ULD)}
        first = tables[MULTILEVEL_OT]
        for table in tables.values():
            np.testing.assert_array_equal(table, first)
