import json

import numpy as np
import pytest

from otdistill import fileio
from otdistill.fileio import ParseError


class TestLogitFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "logits.json"
        arr = np.random.default_rng(0).standard_normal((3, 4))
        fileio.write_logit_file(path, arr)
        np.testing.assert_array_equal(fileio.load_logit_file(path), arr)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"tokens": 1, "vocab": 2, "logits": [[0, 1]], "extra": 1}
        ))
        with pytest.raises(ParseError):
            fileio.load_logit_file(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tokens": 2, "vocab": 2, "logits": [[0, 1]]}))
        with pytest.raises(ParseError):
            fileio.load_logit_file(path)

    def test_rejects_nan_and_names_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"tokens": 1, "vocab": 2, "logits": [[0, NaN]]}')
        with pytest.raises(ParseError, match="nan.json"):
            fileio.load_logit_file(path)

    @pytest.mark.parametrize("declared", [3.5, 3.0, True, "3", None])
    def test_rejects_a_shape_that_is_not_an_integer(self, tmp_path, declared):
        # int() would truncate 3.5 to the logits' 3 rows, and True is an int
        # subclass equal to 1.
        rows = 1 if declared is True else 3
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"tokens": declared, "vocab": 2,
                                    "logits": [[0.0, 1.0]] * rows}))
        with pytest.raises(ParseError, match="integers"):
            fileio.load_logit_file(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"tokens": 1,')
        with pytest.raises(ParseError):
            fileio.load_logit_file(path)


class TestMatrixCSV:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "m.csv"
        arr = np.random.default_rng(1).random((4, 4)) * np.pi
        fileio.write_matrix_csv(path, arr)
        np.testing.assert_array_equal(fileio.load_matrix_csv(path), arr)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            fileio.load_matrix_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ParseError, match="line 1"):
            fileio.load_matrix_csv(path)

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "sci.csv"
        path.write_text("1e-3,2.5E2\n")
        np.testing.assert_allclose(fileio.load_matrix_csv(path), [[1e-3, 250.0]])


class TestLabelsAndConfig:
    def test_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n3\n1\n")
        np.testing.assert_array_equal(fileio.load_labels_file(path), [0, 3, 1])

    def test_labels_reject_garbage(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\nhello\n")
        with pytest.raises(ParseError):
            fileio.load_labels_file(path)

    def test_keyvalue_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("alpha=0.2\n# comment\n\nk = 10\n")
        assert fileio.load_keyvalue_config(path) == {"alpha": "0.2", "k": "10"}

    def test_keyvalue_rejects_bare_token(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("alpha\n")
        with pytest.raises(ParseError):
            fileio.load_keyvalue_config(path)


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.write_text_atomic(path, "hello")
        assert path.read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
