import json
import os
import stat
import time

import numpy as np
import pytest

from otdistill import InvalidInput, fileio
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

    @pytest.mark.parametrize("first, others", [(3, 0), (2, 0), (2, 200000)])
    def test_rejects_a_repeated_key(self, tmp_path, first, others):
        # json.loads keeps the last value of a repeated key, which here
        # declares the 2 x 2 logits' own shape; a repeat of the same value
        # is rejected too, and so is one among 200000 other keys, in one
        # pass over them.
        path = tmp_path / "repeat.json"
        padding = "".join(f'"k{i}": 0, ' for i in range(others))
        path.write_text(f'{{"tokens": {first}, "vocab": 2, {padding}'
                        '"logits": [[1, 2], [3, 4]], "tokens": 2}')
        start = time.perf_counter()
        with pytest.raises(ParseError, match="repeat.json: .*key 'tokens' "
                                             "given twice"):
            fileio.load_logit_file(path)
        assert time.perf_counter() - start < 5.0

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
        # Truncated; nested past the decoder's recursion limit; an integer
        # past the float range, and one past Python's 4300-digit limit on
        # integer parsing; numbers given as strings; booleans, alone or
        # beside numbers; a document that is not an object.
        for logits in ("", "[" * 100000 + "]" * 100000,
                       "[[1" + "0" * 400 + ", 0]]",
                       "[[1" + "0" * 5000 + ", 0]]", '[["1", "2"]]',
                       "[[true, false]]", "[[true, 0.5]]", None):
            path = tmp_path / "bad.json"
            path.write_text("[[0, 1]]" if logits is None else
                            '{"tokens": 1, "vocab": 2' + (
                                f', "logits": {logits}}}' if logits else ","))
            with pytest.raises(ParseError, match="bad.json"):
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

    def test_a_label_past_the_int_range_is_out_of_range(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n99999999999999999999\n")
        with pytest.raises(InvalidInput, match="label out of range"):
            fileio.load_labels_file(path)

    def test_keyvalue_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("alpha=0.2\n# comment\n\nk = 10\n")
        assert fileio.load_keyvalue_config(path) == {"alpha": "0.2", "k": "10"}

    def test_keyvalue_rejects_a_repeated_key(self, tmp_path):
        # Not the last value silently: the error names the key and both
        # lines, comments and blank lines counted.
        path = tmp_path / "cfg.txt"
        path.write_text("alpha=0.1\n# comment\nk=10\n alpha = 0.9\n")
        with pytest.raises(ParseError, match="'alpha' on line 4 repeats "
                                             "line 1"):
            fileio.load_keyvalue_config(path)

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

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_of_any_new_file(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            fileio.write_text_atomic(tmp_path / "out.txt", "hello")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) \
            == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o644, 0o600, 0o640, 0o755])
    def test_a_rewritten_file_keeps_its_mode(self, tmp_path, mode):
        path = tmp_path / "out.txt"
        path.write_text("old")
        path.chmod(mode)
        fileio.write_text_atomic(path, "new")
        assert (path.read_text(), stat.S_IMODE(path.stat().st_mode)) \
            == ("new", mode)


    def test_a_stream_that_raises_midway_leaves_the_old_file(self, tmp_path):
        # Lines already written sit in the temp file, which is removed; the
        # error reaches the caller as it was raised.
        path = tmp_path / "out.txt"
        path.write_text("old")

        def lines():
            yield "step\n"
            yield "0\n"
            raise RuntimeError("stream broke")

        with pytest.raises(RuntimeError, match="stream broke"):
            fileio.write_text_atomic(path, lines())
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_an_unwritable_path_is_a_parse_error_leaving_no_temp_file(
            self, tmp_path, where):
        # Over a directory the temp file is written and then removed; in a
        # missing directory it is never made.
        path = tmp_path / "out"
        if where == "a directory":
            path.mkdir()
        else:
            path = path / "missing" / "p.csv"
        with pytest.raises(ParseError, match="cannot write file") as info:
            fileio.write_text_atomic(path, "hello")
        assert str(path) in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["out"] * (
            where == "a directory")


@pytest.mark.parametrize("load", [
    fileio.load_logit_file, fileio.load_matrix_csv, fileio.load_labels_file,
    fileio.load_keyvalue_config,
], ids=lambda load: load.__name__)
class TestUnreadable:
    def test_missing_file_is_a_parse_error(self, tmp_path, load):
        with pytest.raises(ParseError, match="cannot read file"):
            load(tmp_path / "missing")

    def test_not_utf8_is_a_parse_error_naming_the_path(self, tmp_path, load):
        path = tmp_path / "utf16.txt"
        path.write_bytes("1\n".encode("utf-16"))
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load(path)
        assert str(path) in str(info.value)
