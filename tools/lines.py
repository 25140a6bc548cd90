"""Count the lines of each module under src/otdistill by what they hold.

Run from anywhere, with no arguments:

    python3 tools/lines.py

Each line is counted once, in the first of these that fits it:
  docstring  a line of a module, class or function docstring, blank lines
             inside it included;
  code       a line that holds any other token (a multi-line string
             spans its lines);
  comment    a line that holds only a comment;
  blank      any other line.
So for each file the four columns sum to its line count (`wc -l`).
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otdistill"
KINDS = ("code", "docstring", "comment", "blank")
_SILENT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """{kind: lines} for one Python file, over KINDS."""
    source = Path(path).read_text(encoding="utf-8")
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in _SILENT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def main():
    rows = [(path.name, count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows)
                           for kind in KINDS}))
    print(f"{'file':16s}" + "".join(f"{kind:>10s}" for kind in KINDS)
          + f"{'lines':>10s}")
    for name, counts in rows:
        print(f"{name:16s}" + "".join(f"{counts[kind]:10d}" for kind in KINDS)
              + f"{sum(counts.values()):10d}")


if __name__ == "__main__":
    main()
