"""Text file formats shared by the CLI and the harness.

Logit files are JSON objects with exactly the keys "tokens", "vocab", and
"logits". Matrices travel as headerless CSV with one row per line. All
writes go through a temp file plus rename so readers never see a partial
file. Numbers are written with 17 significant digits so 64-bit values
round-trip exactly.
"""

import json
import os
import tempfile

import numpy as np

from .errors import InvalidInput, OTDistillError


class ParseError(OTDistillError, ValueError):
    """A file could not be parsed or violates its format invariants."""


def parse_int(text, error=InvalidInput):
    """int(text) for an integer literal.

    A number that is not an integer (2.5, nan) is a value out of range and
    raises `error`; any other text raises ValueError, a parse error.
    """
    try:
        return int(text)
    except ValueError:
        float(text)
        raise error(f"expected an integer, got {text.strip()!r}") from None


def _fmt(x):
    return f"{x:.17g}"


def write_text_atomic(path, text):
    """Write text to path via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_logit_file(path):
    """Read a logit matrix from a strict JSON logit file.

    The document must be a single object with exactly the keys "tokens",
    "vocab", and "logits"; the logits array must match the declared shape
    and contain only finite numbers.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    expected = {"tokens", "vocab", "logits"}
    if set(doc) != expected:
        extra = sorted(set(doc) ^ expected)
        raise ParseError(f"{path}: keys must be exactly tokens/vocab/logits "
                         f"(mismatch: {extra})")
    try:
        arr = np.array(doc["logits"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: logits is not a numeric matrix") from exc
    declared = (doc["tokens"], doc["vocab"])
    # JSON true and false load as bool, a subclass of int.
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in declared):
        raise ParseError(f"{path}: tokens and vocab must be integers")
    if arr.ndim != 2 or arr.shape != declared:
        raise ParseError(
            f"{path}: logits shape {arr.shape} does not match declared "
            f"tokens={doc['tokens']}, vocab={doc['vocab']}"
        )
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"{path}: non-finite logit at row {bad[0]}, column {bad[1]}")
    return arr


def write_logit_file(path, logits):
    arr = np.asarray(logits, dtype=float)
    doc = {"tokens": arr.shape[0], "vocab": arr.shape[1],
           "logits": [[float(x) for x in row] for row in arr]}
    write_text_atomic(path, json.dumps(doc) + "\n")


def load_matrix_csv(path):
    """Read a headerless rectangular CSV matrix of finite numbers."""
    rows = []
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}: bad number on line {lineno}") from exc
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"{path}: ragged row on line {lineno}")
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: non-finite matrix entry")
    return arr


def write_matrix_csv(path, matrix):
    arr = np.asarray(matrix, dtype=float)
    lines = [",".join(_fmt(x) for x in row) for row in arr]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_labels_file(path, expected=None):
    """Read one integer label per line."""
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    labels = []
    for lineno, line in enumerate(lines, start=1):
        try:
            labels.append(parse_int(line))
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: label on line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ParseError(f"{path}: bad label on line {lineno}") from exc
    if expected is not None and len(labels) < expected:
        raise InvalidInput(f"{path}: need {expected} labels, got {len(labels)}")
    try:
        return np.array(labels, dtype=int)
    except OverflowError:
        raise InvalidInput(f"{path}: label out of range") from None


def load_keyvalue_config(path):
    """Read a key=value config file; values stay strings for the caller to coerce."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: expected key=value on line {lineno}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def metrics_csv_text(metrics):
    """Render harness run metrics with the fixed header row."""
    lines = ["step,ce,had,sl,sd,total,eval_sd"]
    for i in range(len(metrics.step)):
        lines.append(",".join([str(int(metrics.step[i]))] + [
            _fmt(v[i]) for v in (metrics.ce, metrics.had, metrics.sl,
                                 metrics.sd, metrics.total, metrics.eval_sd)
        ]))
    return "\n".join(lines) + "\n"
