"""The README as a checked contract.

Every test node, file and package name the README cites exists; every
python block in it runs with RuntimeWarnings as errors; its CLI synopsis,
exit codes, config keys, defaults and public API list are those of the
package. A rename or deletion anywhere fails here.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import otdistill
from otdistill import LossWeights, SinkhornConfig, cli

ROOT = Path(__file__).resolve().parents[1]
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {"otdistill": otdistill} | {
    path.stem: importlib.import_module(f"otdistill.{path.stem}")
    for path in (ROOT / "src" / "otdistill").glob("*.py")
    if path.stem != "__init__"}


def spans(text):
    """The text of every inline code span."""
    return re.findall(r"`([^`\n]+)`", text)


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, re.S)


def section(text, title):
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def missing_nodes(text):
    """Each tests/<file>.py::<name>[::<name>] that names no test."""
    missing = []
    for node in sorted(set(re.findall(r"tests/\w+\.py(?:::\w+)+", text))):
        path, *names = node.split("::")
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            found = [n for n in scope if getattr(n, "name", None) == name]
            if not found:
                missing.append(node)
                break
            scope = getattr(found[0], "body", [])
    return missing


def missing_files(text):
    """Each BENCH_<n>.json, and each path in a code span, that does not
    exist in the repository."""
    paths = set(re.findall(r"BENCH_\d+\.json", text))
    paths |= {span.split("::")[0] for span in spans(text)
              if re.fullmatch(r"[\w./-]+\.(py|md|toml|json)(::\w+)*", span)}
    return sorted(p for p in paths if not (ROOT / p).exists())


def unresolved_names(text):
    """Each `module.name` of a package module, and each bare `_name`, that
    is not an attribute of a module of the package."""
    bad = []
    for span in spans(text):
        qualified = re.fullmatch(r"(\w+)\.(\w+)", span)
        if qualified and qualified[1] in MODULES:
            if not hasattr(MODULES[qualified[1]], qualified[2]):
                bad.append(span)
        elif re.fullmatch(r"_\w+", span):
            if not any(hasattr(m, span) for m in MODULES.values()):
                bad.append(span)
    return bad


def test_every_cited_test_node_exists():
    assert missing_nodes(TEXT) == []


def test_every_cited_file_exists():
    assert missing_files(TEXT) == []


def test_every_cited_name_resolves():
    assert unresolved_names(TEXT) == []


@pytest.mark.parametrize("stale, check", [
    ("`core._softmax_at`", unresolved_names),
    ("`BENCH_99.json`", missing_files),
    ("`tests/test_fused.py::TestFusedMatchesDenseReference::test_gradeint`",
     missing_nodes),
], ids=["name", "bench", "node"])
def test_each_check_catches_stale_text(stale, check):
    assert check(f"{TEXT}\n{stale}\n") == [stale.strip("`")]


@pytest.mark.parametrize("block", python_blocks(TEXT),
                         ids=lambda block: block.splitlines()[0][:40])
def test_python_blocks_run(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_quick_start_is_checked():
    assert len(python_blocks(section(TEXT, "Install and quick start"))) == 1


def test_the_cli_synopsis_is_the_parser():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {
        "-h", "--help"} for name, p in sub.choices.items()}
    stated = {}
    for line in section(TEXT, "Command line").splitlines():
        if line.startswith("otdistill "):
            stated[line.split()[1]] = set(re.findall(r"--[\w-]+", line))
    assert stated == options


def test_the_exit_codes_are_the_clis():
    table = {name: int(code) for code, name in re.findall(
        r"^\| `(\d+)` \| `(EXIT_\w+)` \|", TEXT, re.M)}
    assert table == {name: getattr(cli, name) for name in dir(cli)
                     if name.startswith("EXIT_")}
    said = {int(code) for code in re.findall(r"exits? with `(\d+)`", TEXT)}
    assert said and said <= set(table.values())


def test_the_config_keys_are_the_clis():
    stated = {name: set(keys.split()) for keys, name in re.findall(
        r"`([\w ]+)`\s+\(`cli\.(_\w+_KEYS)`\)", TEXT)}
    assert stated == {name: set(getattr(cli, name)) for name in dir(cli)
                      if name.endswith("_KEYS")}


def _keywords(call):
    return {kw.arg: _keywords(kw.value) if isinstance(kw.value, ast.Call)
            else ast.literal_eval(kw.value) for kw in call.keywords}


def test_the_stated_defaults_are_the_configs():
    calls = [node for block in python_blocks(TEXT)
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.Call) and node.keywords
             and getattr(node.func, "id", None) == "LossWeights"]
    assert len(calls) == 1
    expected = {f.name: getattr(LossWeights(), f.name)
                for f in fields(LossWeights)}
    expected["sinkhorn"] = {f.name: getattr(SinkhornConfig(), f.name)
                            for f in fields(SinkhornConfig)}
    assert _keywords(calls[0]) == expected


def test_the_api_list_is_all():
    names = {span for span in spans(section(TEXT, "Public API"))
             if re.fullmatch(r"[A-Za-z]\w*", span)}
    assert names == set(otdistill.__all__)
