"""Text file formats shared by the CLI and the harness.

Logit files are JSON objects with exactly the keys "tokens", "vocab", and
"logits". Matrices travel as headerless CSV with one row per line. All
writes go through a temp file plus rename so readers never see a partial
file; CSV files are streamed into it line by line, never held whole.
Numbers are written with 17 significant digits so 64-bit values
round-trip exactly.
"""

import json
import os
from dataclasses import fields

import numpy as np

from .errors import InvalidInput, OTDistillError


class ParseError(OTDistillError, ValueError):
    """A file could not be read, written or parsed, or violates its format
    invariants."""


def parse_float(text):
    """float(text) for ASCII text without a digit separator.

    float() and int() also read `1_0` as 10 and non-ASCII digits; in these
    files such text raises ValueError, a parse error.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain number: {text.strip()!r}")
    return float(text)


def parse_int(text, error=InvalidInput):
    """int(text) for an integer literal, read by parse_float's rule.

    A number that is not an integer (2.5, nan) is a value out of range and
    raises `error`; any other text raises ValueError, a parse error.
    """
    parse_float(text)
    try:
        return int(text)
    except ValueError:
        raise error(f"expected an integer, got {text.strip()!r}") from None


def _fmt(x):
    return f"{x:.17g}"


def write_text_atomic(path, chunks):
    """Write the strings of chunks, in order, to path via a temp file in the
    same directory plus rename.

    chunks is any iterable of str (a str writes its characters), taken one
    at a time, so a generator of lines streams a file that is never held
    whole. The file keeps the mode of a file it replaces; a new one gets
    the mode open() gives a new file, 0o666 less the umask. A path that
    cannot be written (a directory, a missing one) raises ParseError naming
    it; that, or any error raised while chunks are taken, leaves the file
    at path as it was and no temp file behind.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = os.stat(path).st_mode & 0o777
    except OSError:
        mode = None
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                f.writelines(chunks)
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParseError(
            f"{path}: cannot write file: {exc.strerror or exc}") from exc


def _read(path):
    """The text of the file at path, decoded as UTF-8; ParseError naming
    the path when it cannot be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc


def _lines(path):
    """(line number, line) for each non-blank line of the file at path
    (_read), numbered as the file numbers them, from 1: the errors of the
    line readers name the file's own line."""
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        if line.strip():
            yield lineno, line


def _object(pairs):
    # json.loads' object_pairs_hook: ValueError for the first key given
    # twice, which json would otherwise load with its last value.
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} given twice")
        seen.add(key)
    return dict(pairs)


def load_logit_file(path):
    """Read a logit matrix from a strict JSON logit file.

    The document must be a single object with exactly the keys "tokens",
    "vocab", and "logits", each given once; the logits array must match the
    declared shape and contain only finite JSON numbers, integers within 64
    bits. Anything else raises ParseError.
    """
    text = _read(path)
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    expected = {"tokens", "vocab", "logits"}
    if set(doc) != expected:
        extra = sorted(set(doc) ^ expected)
        raise ParseError(f"{path}: keys must be exactly tokens/vocab/logits "
                         f"(mismatch: {extra})")
    # A safe cast refuses what infers no number dtype: strings, null, 10**400.
    try:
        arr = np.array(doc["logits"]).astype(float, casting="safe", copy=False)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: logits is not a numeric matrix") from exc
    declared = (doc["tokens"], doc["vocab"])
    # JSON true and false load as bool, an int subclass numpy reads as 1, 0.
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in declared):
        raise ParseError(f"{path}: tokens and vocab must be integers")
    if arr.ndim != 2 or arr.shape != declared:
        raise ParseError(
            f"{path}: logits shape {arr.shape} does not match declared "
            f"tokens={doc['tokens']}, vocab={doc['vocab']}"
        )
    if any(bool in set(map(type, row)) for row in doc["logits"]):
        raise ParseError(f"{path}: logits must be numbers, not true or false")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"{path}: non-finite logit at row {bad[0]}, column {bad[1]}")
    return arr


def write_logit_file(path, logits):
    arr = np.asarray(logits, dtype=float)
    doc = {"tokens": arr.shape[0], "vocab": arr.shape[1],
           "logits": [[float(x) for x in row] for row in arr]}
    write_text_atomic(path, (json.dumps(doc) + "\n",))


def load_matrix_csv(path):
    """Read a headerless rectangular CSV matrix of finite numbers."""
    rows = []
    for lineno, line in _lines(path):
        try:
            row = [parse_float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}: bad number on line {lineno}") from exc
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"{path}: ragged row on line {lineno}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: non-finite matrix entry")
    return arr


def write_matrix_csv(path, matrix):
    arr = np.asarray(matrix, dtype=float)
    write_text_atomic(path, (",".join(_fmt(x) for x in row) + "\n"
                             for row in arr))


def load_labels_file(path):
    """Read one integer label per line."""
    labels = []
    for lineno, line in _lines(path):
        try:
            labels.append(parse_int(line))
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: label on line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ParseError(f"{path}: bad label on line {lineno}") from exc
    try:
        return np.array(labels, dtype=int)
    except OverflowError:
        raise InvalidInput(f"{path}: label out of range") from None


def load_keyvalue_config(path):
    """Read a key=value config file; values stay strings for the caller to
    coerce. A key given on two lines raises ParseError naming both."""
    out, lines = {}, {}
    for lineno, line in _lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: expected key=value on line {lineno}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            raise ParseError(f"{path}: config key {key!r} on line {lineno} "
                             f"repeats line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


def metrics_csv_text(metrics):
    """Render harness run metrics as CSV, one column per field, in order."""
    return "".join(_metrics_csv_lines(metrics))


def _metrics_csv_lines(metrics):
    # The lines of metrics_csv_text, each with its newline, made one at a
    # time: RunMetrics.to_csv streams them to its file.
    names = [f.name for f in fields(metrics)]
    yield ",".join(names) + "\n"
    for step, *row in zip(*(getattr(metrics, name) for name in names)):
        yield ",".join([str(int(step))] + [_fmt(v) for v in row]) + "\n"
