import json

import numpy as np
import pytest

from otdistill import cli, fileio


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_logits(path, arr):
    fileio.write_logit_file(path, np.asarray(arr, float))
    return str(path)


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

    def test_malformed_logit_file_exits_2(self, capsys, tmp_path, logit_pair):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "loss", "--teacher", str(bad),
                           "--student", logit_pair[1])
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("line", ["tau_sl=nan", "tau_sd=inf", "k=2.5"])
    def test_out_of_range_config_value_exits_3(self, capsys, logit_pair,
                                               tmp_path, line):
        config = tmp_path / "w.cfg"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--config", str(config))
        assert code == 3
        assert line.split("=")[0] in err

    def test_non_integer_label_exits_3(self, capsys, logit_pair, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1.7\n0\n")
        code, _, err = run(capsys, "loss", "--teacher", logit_pair[0],
                           "--student", logit_pair[1], "--labels", str(labels))
        assert code == 3
        assert "line 2" in err

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

    def test_underflow_exits_4(self, capsys, tmp_path):
        cost = tmp_path / "cost.csv"
        fileio.write_matrix_csv(cost, 1e6 * (np.ones((2, 2)) - np.eye(2))
                                + 1e6 * np.eye(2))
        code, _, err = run(capsys, "sinkhorn", "--cost", str(cost),
                           "--out", str(tmp_path / "plan.csv"))
        assert code == 4
        assert "lambda" in err


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

    def test_invalid_config_combination_exits_3(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("contexts=4\nT=4\n")
        code, _, _ = run(capsys, "distill", "--config", str(config),
                         "--out", str(tmp_path / "out.csv"))
        assert code == 3
