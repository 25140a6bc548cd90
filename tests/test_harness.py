import numpy as np
import pytest
from dataclasses import replace

from otdistill import (CE_ONLY, MULTILEVEL_OT, ULD, DistillConfig,
                       InvalidConfig, compare_modes, run_distillation)
from otdistill.harness import make_teacher_table

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

    def test_contexts_past_the_last_block_are_unused(self):
        # 18 contexts make the same four blocks of 4 as 16 do; the seeded
        # tables of 18 rows start with the 16 rows of the shorter run.
        short = run_distillation(replace(FAST, steps=5))
        longer = run_distillation(replace(FAST, contexts=18, steps=5))
        for name in ("ce", "had", "sl", "sd", "total", "eval_sd"):
            np.testing.assert_array_equal(getattr(short, name),
                                          getattr(longer, name))


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
