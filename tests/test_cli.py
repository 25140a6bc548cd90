import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otdistill import (DistillConfig, InvalidConfig, InvalidInput, LossWeights,
                       NumericalFailure, NumericalUnderflow, SinkhornConfig,
                       TooLargeForExact, cli, fileio, run_distillation,
                       sinkhorn_plan, total_loss)
from otdistill.fileio import ParseError, metrics_csv_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_logits(path, arr):
    fileio.write_logit_file(path, np.asarray(arr, float))
    return str(path)


def with_setting(text, line):
    """The key=value config text with line in place of every line of the
    same key (a key may be given once), or after them."""
    key = line.partition("=")[0]
    kept = [ln for ln in text.splitlines() if ln.partition("=")[0] != key]
    return "\n".join(kept + [line]) + "\n"


def not_utf8(text):
    """text behind a UTF-16 byte-order mark, which is not valid UTF-8."""
    return b"\xff\xfe" + text.encode()


@pytest.fixture
def logit_pair(tmp_path):
    rng = np.random.default_rng(0)
    teacher = write_logits(tmp_path / "teacher.json", rng.standard_normal((3, 6)))
    student = write_logits(tmp_path / "student.json", rng.standard_normal((3, 5)))
    return teacher, student


class TestLossCommand:
    def test_text_output_fields(self, capsys, logit_pair):
        code, out, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1])
        assert code == 0
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert names == ["ce", "had", "sl", "sd", "total", "k_eff"]

    def test_json_output(self, capsys, logit_pair):
        code, out, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--json")
        assert code == 0
        fields = json.loads(out)
        assert fields["total"] == pytest.approx(
            fields["ce"] + 0.15 * (fields["had"] + 0.1 * fields["sl"]
                                   + 0.1 * fields["sd"])
        )
        assert fields["k_eff"] == 5

    def test_labels_change_ce(self, capsys, logit_pair, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n0\n0\n")
        _, out_a, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                          "--student", logit_pair[1], "--json")
        _, out_b, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                          "--student", logit_pair[1], "--labels", str(labels),
                          "--json")
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["had"] == b["had"]
        assert a["ce"] != b["ce"]

    def test_config_overrides(self, capsys, logit_pair, tmp_path):
        config = tmp_path / "w.cfg"
        config.write_text("alpha=0\n")
        _, out, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                        "--student", logit_pair[1], "--config", str(config),
                        "--json")
        fields = json.loads(out)
        assert fields["total"] == fields["ce"]

    def test_unknown_config_key_exits_2(self, capsys, logit_pair, tmp_path):
        config = tmp_path / "w.cfg"
        config.write_text("bogus=1\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--config", str(config))
        assert code == 2
        assert "bogus" in err

    def test_a_key_only_distill_reads_exits_2(self, capsys, logit_pair,
                                              tmp_path):
        config = tmp_path / "w.cfg"
        config.write_text("steps=5\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--config", str(config))
        assert code == 2
        assert "unknown config key 'steps'" in err

    def test_a_repeated_config_key_exits_2(self, capsys, logit_pair,
                                           tmp_path):
        # Not a run at the last value, alpha = 0.9.
        config = tmp_path / "w.cfg"
        config.write_text("alpha=0.1\nalpha=0.9\n")
        code, out, err = run(capsys, "loss", "--teacher", logit_pair[0],
                             "--student", logit_pair[1], "--config",
                             str(config))
        assert (code, out) == (2, "")
        assert "'alpha' on line 2 repeats line 1" in err

    def test_a_repeated_logit_file_key_exits_2(self, capsys, logit_pair,
                                               tmp_path):
        # Not logits of the last declared shape, 2 x 2.
        bad = tmp_path / "bad.json"
        bad.write_text('{"tokens": 3, "vocab": 2, "logits": [[1, 2], [3, 4]],'
                       ' "tokens": 2}')
        code, out, err = run(capsys, "loss", "--teacher", str(bad),
                             "--student", logit_pair[1])
        assert (code, out) == (2, "")
        assert "bad.json" in err and "key 'tokens' given twice" in err

    def test_malformed_logit_file_exits_2(self, capsys, tmp_path, logit_pair):
        # Not JSON; nested past the decoder's recursion limit; an integer
        # past the float range, and one past Python's 4300-digit limit on
        # integer parsing; numbers given as strings.
        bad = tmp_path / "bad.json"
        for text in ("{not json", '{"tokens": 1, "vocab": 1, "logits": '
                     + "[" * 100000 + "]" * 100000 + "}",
                     '{"tokens": 1, "vocab": 2, "logits": [[1' + "0" * 400
                     + ', 0]]}',
                     '{"tokens": 1, "vocab": 2, "logits": [[1' + "0" * 5000
                     + ', 0]]}',
                     '{"tokens": 1, "vocab": 2, "logits": [["1", "2"]]}'):
            bad.write_text(text)
            code, _, err = run(capsys, "loss", "--teacher", str(bad),
                               "--student", logit_pair[1])
            assert code == 2, text[:60]
            assert "bad.json" in err

    # 1e-310 lies below the least temperature, 1 / float max, whose
    # reciprocal overflows.
    @pytest.mark.parametrize("line", ["tau_sl=nan", "tau_sd=inf", "k=2.5",
                                      "tau_sd=1e-310"])
    def test_out_of_range_config_value_exits_3(self, capsys, logit_pair,
                                               tmp_path, line):
        config = tmp_path / "w.cfg"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--config", str(config))
        assert code == 3
        assert line.split("=")[0] in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_loss_past_the_float_range_exits_4(self, capsys, logit_pair,
                                               tmp_path, json_flag):
        # Each component is finite, but alpha carries the total past the
        # float range: an error, not "total inf" or JSON's Infinity.
        config = tmp_path / "w.cfg"
        config.write_text("alpha=1e308\n")
        code, out, err = run(capsys, "loss", "--teacher", logit_pair[0],
                             "--student", logit_pair[1], "--config",
                             str(config), *json_flag)
        assert (code, out) == (4, "")
        assert "not finite" in err

    def test_non_integer_label_exits_3(self, capsys, logit_pair, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1.7\n0\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--labels", str(labels))
        assert code == 3
        assert "line 2" in err

    def test_label_past_the_int_range_exits_3(self, capsys, logit_pair,
                                              tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n99999999999999999999\n0\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--labels", str(labels))
        assert code == 3
        assert "label out of range" in err

    def test_nan_logit_file_exits_2(self, capsys, tmp_path, logit_pair):
        bad = tmp_path / "nan.json"
        bad.write_text('{"tokens": 1, "vocab": 2, "logits": [[0, NaN]]}')
        code, _, err = run(capsys, "loss", "--teacher", str(bad),
                           "--student", logit_pair[1])
        assert code == 2
        assert "nan.json" in err


class TestSinkhornCommand:
    def test_zero_cost_uniform_plan(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.zeros((2, 2)))
        out_path = tmp_path / "plan.csv"
        code, out, _ = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--out", str(out_path))
        assert code == 0
        assert float(out) == pytest.approx(0.0)
        assert out_path.read_text() == "0.5,0.5\n0.5,0.5\n"

    def test_plan_round_trip(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.random.default_rng(1).random((5, 5)))
        out_path = tmp_path / "plan.csv"
        code, out, _ = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--lambda", "0.1", "--iters", "20",
                           "--out", str(out_path))
        assert code == 0
        plan = fileio.load_matrix_csv(out_path)
        np.testing.assert_allclose(plan.sum(axis=0), 1.0, atol=1e-6)
        # the printed objective must match <plan, cost> recomputed from disk
        cost_back = fileio.load_matrix_csv(cost)
        assert float(out) == pytest.approx((plan * cost_back).sum(), abs=1e-12)

    def test_nonsquare_cost_exits_3(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.zeros((2, 3)))
        code, _, err = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--out", str(tmp_path / "plan.csv"))
        assert code == 3
        assert err

    def test_a_ragged_cost_names_the_files_own_line(self, capsys, tmp_path):
        # The blank line 2 is skipped but counted.
        cost = tmp_path / "cost.csv"
        cost.write_text("1,2\n\n3\n")
        out_path = tmp_path / "plan.csv"
        code, out, err = run(capsys, "sinkhorn", "--cost", str(cost),
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert "ragged row on line 3" in err
        assert not out_path.exists()

    def test_underflow_exits_4(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, 1e6 * (np.ones((2, 2)) - np.eye(2))
                                + 1e6 * np.eye(2))
        code, _, err = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--out", str(tmp_path / "plan.csv"))
        assert code == 4
        assert "lambda" in err

    def test_overflowing_value_exits_4(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        cost.write_text("1e308,1e308\n1e308,1e308\n")
        out_path = tmp_path / "plan.csv"
        code, out, err = run(capsys, "sinkhorn", "--cost", str(cost),
                             "--lambda", "1e308", "--out", str(out_path))
        assert code == 4
        assert "not finite" in err and out == ""
        assert not out_path.exists()

    def test_kernel_entries_past_the_float_range_exit_0(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n")
        out_path = tmp_path / "plan.csv"
        code, out, err = run(capsys, "sinkhorn", "--cost", str(cost),
                             "--out", str(out_path))
        assert (code, out, err) == (0, "0\n", "")
        np.testing.assert_array_equal(fileio.load_matrix_csv(out_path), np.eye(3))

    @pytest.mark.parametrize("iters", ["1", "20"])
    def test_underflow_during_the_sweeps_exits_4(self, capsys, tmp_path, iters):
        # No initial row or column is zero, but the middle column's
        # subnormal kernel entries round to zero in the first row step.
        cost = tmp_path / "cost.csv"
        cost.write_text("0,0.7444,0\n" * 3)
        out_path = tmp_path / "plan.csv"
        code, _, err = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--lambda", "1e-3", "--iters", iters,
                           "--out", str(out_path))
        assert code == 4
        assert "lambda" in err
        assert not out_path.exists()


class TestOracleCommand:
    def test_identity_cost(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.array([[0.0, 1.0], [1.0, 0.0]]))
        code, out, _ = run(capsys, "oracle", "--cost", str(cost))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value 0"
        assert lines[1] == "permutation 0,1"

    def test_methods_agree(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.random.default_rng(2).random((6, 6)))
        _, out_b, _ = run(capsys, "oracle", "--cost", str(cost),
                          "--method", "brute")
        _, out_a, _ = run(capsys, "oracle", "--cost", str(cost),
                          "--method", "assign")
        value_b = float(out_b.splitlines()[0].split()[1])
        value_a = float(out_a.splitlines()[0].split()[1])
        assert value_b == pytest.approx(value_a, abs=1e-12)

    @pytest.mark.parametrize("method", ["brute", "assign"])
    def test_overflowing_value_exits_4(self, capsys, tmp_path, method):
        cost = tmp_path / "cost.csv"
        cost.write_text("1e308,1e308\n1e308,1e308\n")
        code, out, err = run(capsys, "oracle", "--cost", str(cost),
                             "--method", method)
        assert code == 4
        assert "overflow" in err and out == ""

    @pytest.mark.parametrize("method", ["brute", "assign"])
    def test_overflowing_assignments_exit_0(self, capsys, tmp_path, method):
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n")
        code, out, err = run(capsys, "oracle", "--cost", str(cost),
                             "--method", method)
        assert (code, out, err) == (0, "value 0\npermutation 0,1,2\n", "")

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        cost.write_bytes(not_utf8("0,1\n1,0\n"))
        code, out, err = run(capsys, "oracle", "--cost", str(cost))
        assert (code, out) == (2, "")
        assert str(cost) in err and "UTF-8" in err

    def test_brute_force_limit_exits_3(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.zeros((8, 8)))
        code, _, err = run(capsys, "oracle", "--cost", str(cost),
                           "--method", "brute")
        assert code == 3
        assert err


class TestDistillCommand:
    CONFIG = "seed=3\nm=10\nn=7\nT=4\ncontexts=16\nsteps=5\nlr=0.3\n"

    def test_writes_metrics_csv(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG)
        out_path = tmp_path / "metrics.csv"
        code, _, _ = run(capsys, "distill", "--config", str(config),
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step,ce,had,sl,sd,total,eval_sd"
        assert len(lines) == 6

    def test_byte_identical_reruns(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "distill", "--config", str(config), "--out", str(a))
        run(capsys, "distill", "--config", str(config), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_mode_flag_changes_trajectory(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "distill", "--config", str(config), "--out", str(a))
        run(capsys, "distill", "--config", str(config), "--out", str(b),
            "--mode", "ce_only")
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_value_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("steps=five\n")
        code, _, err = run(capsys, "distill", "--config", str(config),
                           "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert "steps" in err

    def test_a_repeated_config_key_exits_2(self, capsys, tmp_path):
        # Not a run of the last value's 2 steps.
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG + "steps=2\n")
        out_path = tmp_path / "out.csv"
        code, _, err = run(capsys, "distill", "--config", str(config),
                           "--out", str(out_path))
        assert code == 2
        assert "'steps' on line 8 repeats line 6" in err
        assert not out_path.exists()

    def test_invalid_config_combination_exits_3(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("contexts=4\nT=4\n")
        code, _, _ = run(capsys, "distill", "--config", str(config),
                         "--out", str(tmp_path / "out.csv"))
        assert code == 3

    def test_loss_past_the_float_range_exits_4_keeping_the_header(
            self, capsys, tmp_path):
        # Step 0's loss is past the float range: no step is recorded, and
        # the metrics file holds the header alone.
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG + "alpha=1e308\n")
        out = tmp_path / "metrics.csv"
        code, _, err = run(capsys, "distill", "--config", str(config),
                           "--out", str(out))
        assert code == 4
        assert "step 0" in err and "not finite" in err
        assert out.read_text() == "step,ce,had,sl,sd,total,eval_sd\n"

    def test_gradient_past_the_float_range_exits_4_keeping_the_steps(
            self, capsys, tmp_path):
        # At alpha=1e300 every loss is finite, but a step's gradient passes
        # the float range: the run stops there, with the steps before it.
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\nm=20\nn=15\nT=8\ncontexts=32\nsteps=5\n"
                          "lr=0.5\nalpha=1e300\n")
        out = tmp_path / "metrics.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "distill", "--config", str(config),
                               "--out", str(out))
        assert code == 4
        assert "gradient is not finite" in err
        step = int(re.search(r"step (\d+):", err).group(1))
        lines = out.read_text().splitlines()
        assert lines[0] == "step,ce,had,sl,sd,total,eval_sd"
        assert len(lines) == step + 1
        assert np.isfinite([[float(x) for x in line.split(",")]
                            for line in lines[1:]]).all()

    def test_a_numeric_failure_it_cannot_write_exits_4_naming_both(
            self, capsys, tmp_path):
        # The steps before the failure cannot be written: the failure stays
        # the exit status, and both errors are named.
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\nalpha=1e308\nsteps=5\n")
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, err = run(capsys, "distill", "--config", str(config),
                                "--out", str(out))
        assert (code, stdout) == (4, "")
        assert "step 0: the loss is not finite" in err
        assert "cannot write file" in err and str(out) in err

    # A sharpness of 1e308 is finite, but the teacher table it scales is not.
    @pytest.mark.parametrize("setting", ["lr=nan", "lr=inf", "sharpness=nan",
                                         "sharpness=-inf", "sharpness=1e308"])
    def test_non_finite_rate_or_scale_exits_3_naming_it(self, capsys, tmp_path,
                                                        setting):
        config = tmp_path / "run.cfg"
        config.write_text(with_setting(self.CONFIG, setting))
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "distill", "--config", str(config),
                           "--out", str(out))
        assert code == 3
        assert setting.split("=")[0] in err
        assert not out.exists()

    # numpy refuses both teacher tables at once, without allocating: 2.3
    # PiB, past the address space, and a dimension past its limit.
    @pytest.mark.parametrize("setting", ["m=10000000000000",
                                         "contexts=100000000000000000000"])
    def test_table_it_cannot_allocate_exits_3_naming_it(self, capsys,
                                                        tmp_path, setting):
        config = tmp_path / "run.cfg"
        config.write_text(setting + "\n")
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "distill", "--config", str(config),
                           "--out", str(out))
        assert code == 3
        assert "contexts=" in err and " m=" in err
        assert not out.exists()


def numeric_fields(*configs):
    return sum(f.type in (int, float) for c in configs
               for f in dataclasses.fields(c))


class TestEveryKey:
    """Each config key sets its own field: a run with every key set to a
    value off its default gives the output of configs built by hand."""

    LOSS = ("alpha=0.3\nbeta=0.2\ngamma=0.4\ntau_sl=1.5\ntau_sd=3\nk=3\n"
            "lambda=0.05\nn_iters=3\n")
    WEIGHTS = LossWeights(alpha=0.3, beta=0.2, gamma=0.4, tau_sl=1.5,
                          tau_sd=3.0, k=3, sinkhorn=SinkhornConfig(
                              regularization=0.05, iterations=3))

    def test_loss_reads_every_weight_key(self, capsys, logit_pair, tmp_path):
        config = tmp_path / "w.cfg"
        config.write_text(self.LOSS)
        code, out, _ = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--config",
                           str(config), "--json")
        breakdown = total_loss(*map(fileio.load_logit_file, logit_pair),
                               w=self.WEIGHTS)
        assert code == 0
        assert json.loads(out) == {name: getattr(breakdown, name) for name in
                                   ("ce", "had", "sl", "sd", "total", "k_eff")}
        # No int or float field is left without a key: one for each.
        assert numeric_fields(LossWeights, SinkhornConfig) == 8

    def test_distill_reads_every_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=2\nm=9\nn=6\nT=3\ncontexts=12\nsteps=4\n"
                          "lr=0.3\nsharpness=4\n" + self.LOSS)
        out = tmp_path / "metrics.csv"
        code, _, _ = run(capsys, "distill", "--config", str(config),
                         "--out", str(out))
        cfg = DistillConfig(seed=2, m=9, n=6, tokens=3, contexts=12, steps=4,
                            lr=0.3, sharpness=4.0, weights=self.WEIGHTS)
        assert code == 0
        assert out.read_text() == metrics_csv_text(run_distillation(cfg))
        assert numeric_fields(DistillConfig, LossWeights, SinkhornConfig) == 16


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_an_unwritable_output_exits_2_naming_it(capsys, tmp_path, where):
    cost = tmp_path / "cost.csv"
    fileio.write_matrix_csv(cost, np.zeros((2, 2)))
    config = tmp_path / "run.cfg"
    config.write_text(TestDistillCommand.CONFIG)
    out = tmp_path / "out"
    if where == "a directory":
        out.mkdir()
    else:
        out = out / "missing" / "p.csv"
    for argv in (["sinkhorn", "--cost", str(cost)],
                 ["distill", "--config", str(config)]):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert "cannot write file" in err and str(out) in err
    # No temp file is left beside the inputs.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cost.csv", "run.cfg"] + ["out"] * (where == "a directory"))


class TestOneParser:
    """main parses every call with one parser per process, which carries
    nothing from one call into the next."""

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_json_does_not_carry_into_the_next_loss(self, capsys, logit_pair):
        argv = ("loss", "--teacher", logit_pair[0], "--student", logit_pair[1])
        _, first, _ = run(capsys, *argv, "--json")
        code, text, _ = run(capsys, *argv)
        assert code == 0 and json.loads(first)
        assert [line.split()[0] for line in text.splitlines()] == [
            "ce", "had", "sl", "sd", "total", "k_eff"]

    def test_flags_do_not_carry_between_commands(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, np.random.default_rng(1).random((4, 4)))
        outs = [run(capsys, "sinkhorn", "--cost", str(cost), *lam, "--out",
                    str(tmp_path / "plan.csv"))[1]
                for lam in ((), ("--lambda", "0.5"), ())]
        assert outs[0] == outs[2] != outs[1]
        # distill needs its own --config and --out, however sinkhorn ran.
        with pytest.raises(SystemExit) as exc:
            cli.main(["distill"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(TestDistillCommand.CONFIG)
        csvs = []
        for mode in ((), ("--mode", "ce_only"), ()):
            out_path = tmp_path / f"{len(csvs)}.csv"
            assert run(capsys, "distill", "--config", str(config),
                       "--out", str(out_path), *mode)[0] == 0
            csvs.append(out_path.read_bytes())
        assert csvs[0] == csvs[2] != csvs[1]


def run_module(tmp_path, module, *argv):
    # A separate process, so a regression fails on the timeout instead of
    # hanging the suite.
    package_parent = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", module, *argv], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_parent})


def test_python_m_otdistill_runs_the_cli(tmp_path):
    (tmp_path / "cost.csv").write_text("0,1\n1,0\n")
    proc = run_module(tmp_path, "otdistill", "sinkhorn", "--cost", "cost.csv",
                      "--out", "plan.csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    plan = fileio.load_matrix_csv(tmp_path / "plan.csv")
    np.testing.assert_allclose(plan.sum(axis=0), 1.0)


class TestIterationBound:
    """An iteration count past SinkhornConfig's bound exits 3 at once; before
    the bound existed both commands below ran on without end."""

    def run_cli(self, tmp_path, *argv):
        return run_module(tmp_path, "otdistill.cli", *argv)

    def test_sinkhorn_iters_flag(self, tmp_path):
        (tmp_path / "cost.csv").write_text("0,1\n1,0\n")
        proc = self.run_cli(tmp_path, "sinkhorn", "--cost", "cost.csv",
                            "--iters", "1000000000000000", "--out", "plan.csv")
        assert proc.returncode == 3
        assert "iterations" in proc.stderr
        assert not (tmp_path / "plan.csv").exists()

    def test_loss_config_n_iters(self, tmp_path, logit_pair):
        (tmp_path / "loss.cfg").write_text("n_iters=" + "9" * 30 + "\n")
        teacher, student = logit_pair
        proc = self.run_cli(tmp_path, "loss", "--teacher", teacher,
                            "--student", student, "--config", "loss.cfg")
        assert proc.returncode == 3
        assert "iterations" in proc.stderr


# Property: generated files, intact or spoiled in one way, always give a
# documented exit code and never a traceback.

EXIT_CODES = {ParseError: 2, InvalidInput: 3, InvalidConfig: 3,
              TooLargeForExact: 3, NumericalUnderflow: 4, NumericalFailure: 4}


def documented_code(call):
    """The exit code the CLI documents for the outcome of a library call."""
    try:
        call()
    except tuple(EXIT_CODES) as exc:
        return EXIT_CODES[type(exc)]
    return 0


def run_quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code == 0) == ("error:" not in err.getvalue())
    return code


def logit_text(arr):
    return json.dumps({"tokens": arr.shape[0], "vocab": arr.shape[1],
                       "logits": arr.tolist()})


def spoil_logits(arr, how):
    doc = {"tokens": arr.shape[0], "vocab": arr.shape[1], "logits": arr.tolist()}
    if how == "truncated":
        return logit_text(arr)[:-3]
    if how in ("nan", "inf"):
        doc["logits"][0][-1] = float(how)
    elif how == "rows":
        doc["tokens"] += 1
    elif how == "ragged":
        doc["logits"][-1].append(0.0)
    elif how == "tokens_text":
        doc["tokens"] = "three"
    elif how == "tokens_null":
        doc["tokens"] = None
    elif how == "tokens_fraction":
        doc["tokens"] += 0.5
    elif how == "tokens_bool":
        return logit_text(arr[:1]).replace('"tokens": 1', '"tokens": true')
    elif how == "extra_key":
        doc["extra"] = 1
    elif how == "one_column":
        return logit_text(arr[:, :1])
    elif how == "deep":
        doc["logits"] = []
        return json.dumps(doc).replace("[]", "[" * 100000 + "]" * 100000)
    elif how == "huge_int":
        doc["logits"][0][-1] = 10**400
    elif how == "strings":
        doc["logits"] = [[repr(x) for x in row] for row in doc["logits"]]
    elif how == "bools":
        doc["logits"][0][0] = True
    elif how == "repeated_key":
        return json.dumps(doc)[:-1] + f', "tokens": {arr.shape[0]}}}'
    return json.dumps(doc)


LOGIT_FAULTS = {"truncated": 2, "nan": 2, "inf": 2, "rows": 2, "ragged": 2,
                "tokens_text": 2, "tokens_null": 2, "tokens_fraction": 2,
                "tokens_bool": 2, "extra_key": 2, "one_column": 3,
                "deep": 2, "huge_int": 2, "strings": 2, "bools": 2,
                "repeated_key": 2, "not_utf8": 2}
LABEL_FAULTS = {"-1": 3, "1.5": 3, "one": 2, "1" + "0" * 30: 3, "few": 3,
                "vocab": 3, "not_utf8": 2, "1_0": 2, "\u0661": 2}
CONFIG_FAULTS = {"bogus=1": 2, "alpha=abc": 2, "no equals sign": 2,
                 "tau_sl=0": 3, "tau_sd=-1": 3, "alpha=-1": 3, "beta=inf": 3,
                 "k=0": 3, "k=2.5": 3, "k=" + "9" * 30: 0, "lambda=0": 3,
                 "lambda=nan": 3, "n_iters=0": 3, "n_iters=" + "9" * 30: 3,
                 "alpha=0.1\nalpha=0.1": 2, "not_utf8": 2, "alpha=1_0": 2,
                 "k=\u0661\u0662": 2}


@given(tokens=st.integers(1, 4), m=st.integers(2, 6), n=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(-3.0, 300.0),
       lam=st.sampled_from([1e-3, 0.1]), with_labels=st.booleans(),
       fault=st.sampled_from([None]
                             + [("teacher", f) for f in LOGIT_FAULTS]
                             + [("student", f) for f in LOGIT_FAULTS]
                             + [("labels", f) for f in LABEL_FAULTS]
                             + [("config", f) for f in CONFIG_FAULTS]))
@settings(max_examples=150, deadline=None)
def test_loss_command_exit_codes(tokens, m, n, seed, scale, lam, with_labels,
                                 fault):
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal((tokens, m)) * 10.0**scale
    student = rng.standard_normal((tokens, n)) * 10.0**scale
    labels = rng.integers(0, n, tokens)
    texts = {"teacher": logit_text(teacher), "student": logit_text(student),
             "labels": "\n".join(map(str, labels)) + "\n",
             "config": f"lambda={lam}\n"}
    where, how = fault or (None, None)
    if how == "not_utf8":
        # The intact file, spoiled only by its encoding.
        texts[where] = not_utf8(texts[where])
        expected = {"labels": LABEL_FAULTS,
                    "config": CONFIG_FAULTS}.get(where, LOGIT_FAULTS)[how]
    elif where in ("teacher", "student"):
        texts[where] = spoil_logits((teacher, student)[where == "student"], how)
        expected = LOGIT_FAULTS[how]
    elif where == "labels":
        lines = {"few": labels[:-1], "vocab": [n] * tokens}.get(how, [how] * tokens)
        texts["labels"] = "\n".join(map(str, lines)) + "\n"
        expected = LABEL_FAULTS[how]
    elif where == "config":
        texts["config"] = with_setting(texts["config"], how)
        expected = CONFIG_FAULTS[how]
    if where != "labels" and not with_labels:
        texts.pop("labels")
    if where is None or expected == 0:
        # Intact files: the code of what the library returns on the arrays.
        k = int(how.split("=")[1]) if how else 50
        w = LossWeights(k=k, sinkhorn=SinkhornConfig(lam, 20))
        expected = documented_code(lambda: total_loss(
            teacher, student, labels if "labels" in texts else None, w))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["loss"]
        for name, text in texts.items():
            path = os.path.join(tmp, name)
            with open(path, "wb") as f:
                f.write(text if isinstance(text, bytes) else text.encode())
            argv += [f"--{name}", path]
        assert run_quiet(argv) == expected


DISTILL_FAULTS = {"seed=-1": 3, "m=-2": 3, "n=1": 3, "T=0": 3, "T=1.5": 3,
                  "contexts=3": 3, "steps=0": 3, "steps=two": 2, "lr=-1": 3,
                  "lr=nan": 3, "sharpness=nan": 3, "sharpness=inf": 3,
                  "colour=red": 2, "lr=0.1\nlr=0.1": 2, "not_utf8": 2}


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(2, 6),
       scale=st.floats(-3.0, 300.0),
       fault=st.sampled_from([None, *DISTILL_FAULTS]))
@settings(max_examples=40, deadline=None)
def test_distill_command_exit_codes(seed, m, n, scale, fault):
    settings_text = (f"seed={seed}\nm={m}\nn={n}\nT=2\ncontexts=8\nsteps=2\n"
                     f"sharpness={10.0**scale!r}\n")
    if fault is None:
        cfg = DistillConfig(seed=seed, m=m, n=n, tokens=2, contexts=8, steps=2,
                            sharpness=10.0**scale)
        expected = documented_code(lambda: run_distillation(cfg))
    else:
        expected = DISTILL_FAULTS[fault]
        if fault != "not_utf8":
            settings_text = with_setting(settings_text, fault)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "wb") as f:
            f.write(not_utf8(settings_text) if fault == "not_utf8"
                    else settings_text.encode())
        argv = ["distill", "--config", config, "--out", os.path.join(tmp, "m.csv")]
        assert run_quiet(argv) == expected


COST_FAULTS = {"negative": 3, "non-square": 3, "text": 2, "empty": 2, "nan": 2,
               "ragged": 2, "not_utf8": 2, "1_0": 2, "\u0661": 2}


@given(size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 6.0), lam=st.sampled_from([1e-3, 0.1]),
       fault=st.sampled_from([None, *COST_FAULTS]))
@settings(max_examples=60, deadline=None)
def test_sinkhorn_command_exit_codes(size, seed, scale, lam, fault):
    cost = np.random.default_rng(seed).random((size, size)) * 10.0**scale
    rows = [",".join(repr(float(x)) for x in row) for row in cost]
    if fault == "negative":
        rows[0] = "-1," + rows[0].partition(",")[2] if size > 1 else "-1"
    elif fault == "non-square":
        rows = rows + [rows[0]]
    elif fault == "text":
        rows[-1] = "cost"
    elif fault == "empty":
        rows = []
    elif fault in ("nan", "1_0", "\u0661"):
        rows[0] = fault + rows[0][len(rows[0].split(",")[0]):]
    elif fault == "ragged":
        rows.append(rows[0] + ",0")
    expected = (COST_FAULTS[fault] if fault else
                documented_code(lambda: sinkhorn_plan(cost, SinkhornConfig(lam, 20))))
    text = "\n".join(rows) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cost.csv")
        with open(path, "wb") as f:
            f.write(not_utf8(text) if fault == "not_utf8" else text.encode())
        argv = ["sinkhorn", "--cost", path, "--lambda", repr(lam),
                "--out", os.path.join(tmp, "plan.csv")]
        assert run_quiet(argv) == expected
