"""The package's public names: a deletion must not drop one, since the
tests and demos import them. What importing the package loads, no module
importing a name it never reads, no private module-level name that
nothing in the package reads, no float coercion outside core and fileio,
no block walk outside core and seq_ot, and no sequence kernel named
outside seq_ot."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import otdistill

PUBLIC = [
    "AlignedPair", "ASSIGNMENT", "BRUTE_FORCE", "CE_ONLY", "DistillConfig",
    "EXACT_ASSIGNMENT", "ExactOTResult", "GradientReport", "InvalidConfig",
    "InvalidInput", "LossBreakdown", "LossWeights", "ModeResult",
    "MULTILEVEL_OT", "NumericalFailure", "NumericalUnderflow",
    "OTDistillError", "PROB_FLOOR", "PipelineState", "RankSelection",
    "RunMetrics", "SinkhornConfig", "SUM_SORT", "TokenLossGrad",
    "TooLargeForExact", "ULD", "align_and_truncate", "alignment_cost",
    "build_state", "ce_loss", "check_gradient", "compare_modes", "exact_ot",
    "finite_diff_grad", "had_loss", "match_student", "run_distillation",
    "safe_log", "sd_grad", "sd_loss", "seq_cost_matrix",
    "sequence_rank_teacher", "sinkhorn_plan", "sl_loss", "softmax_backward",
    "softmax_rows", "total_grad", "total_loss", "total_loss_frozen",
    "truncate_topk", "uld_grad", "uld_loss", "validate_logits",
    "validate_probs",
]


def test_all_lists_exactly_the_pinned_names():
    assert len(PUBLIC) == len(set(PUBLIC)) == 54
    assert sorted(otdistill.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(otdistill, name) is not None, name


def test_import_leaves_scipy_optimize_unloaded():
    # Only exact matching and the exact-OT oracle need scipy.optimize, a
    # large share of the import time; they import it when called.
    package_parent = str(Path(otdistill.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, otdistill, otdistill.cli; "
         "print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_parent})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_import_leaves_scipy_spatial_unloaded():
    # Only the sequence cost and exact matching need scipy.spatial, most of
    # the package's import time; `otdistill sinkhorn` and `oracle` build no
    # cost. They import it when called.
    package_parent = str(Path(otdistill.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, otdistill, otdistill.cli; "
         "print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_parent})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export, so it is left out.
    unused = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in (a.asname or a.name.split(".")[0]
                                for a in node.names)
                   if name not in read]
    assert unused == []


def test_every_private_module_level_name_is_read():
    # A private function, class or constant that no module of the package
    # reads, as a name or as an attribute, is dead code, even if a test
    # reads it; importing it is not a read.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in
             sorted(Path(otdistill.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            unread += [f"{module}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


def test_only_core_and_fileio_coerce_to_float():
    # Every public array argument goes through core._matrix; fileio parses
    # files into arrays. A float coercion anywhere else is a second copy of
    # the array contract.
    found = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        if path.name in ("core.py", "fileio.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array")
                    and any(kw.arg == "dtype" and ast.unparse(kw.value) in
                            ("float", "np.float64", "np.double")
                            for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_core_and_seq_ot_walk_blocks():
    # core walks the logit stacks (its softmax pass and backward) and
    # seq_ot its cost, plan and gradient stacks; anywhere else, a walk over
    # a logit stack would be a second copy of how its blocks are cut.
    walk = {"_blocks", "_parts", "_walk"}
    found = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        if path.name in ("core.py", "seq_ot.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in walk]
    assert found == []


def test_only_seq_ot_names_the_sequence_kernels():
    # seq_ot's one stage (_transport) builds the fused pass's costs, plans,
    # sequence losses and their gradients' products; a sequence kernel
    # named anywhere else is a second copy of that level.
    kernels = {"_cost", "_plan", "_sd", "_sd_grad", "_ranks"}
    found = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        if path.name == "seq_ot.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in kernels]
    assert found == []


def test_only_core_names_the_held_rule():
    # core._held says which level's exponentials a pass leaves in its out
    # and core._squared which level squares the other's; only core's
    # _softmax_pass, _softmax_level and _softmax_backward read them. Either
    # named anywhere else is a second reader of a pass's out.
    rules = {"_held", "_squared"}
    found = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in rules]
    assert found == []


def test_no_module_subclasses_ndarray():
    # Every array the package makes is a plain np.ndarray: a subclass that
    # marks one carries a rule (such as core._squared) a second time, and
    # costs numpy's subclass checks on every ufunc that takes it.
    found = []
    for path in sorted(Path(otdistill.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{node.lineno} {node.name}"
                          for base in node.bases
                          if ast.unparse(base).split(".")[-1] == "ndarray"]
    assert found == []


def test_the_fused_pass_checks_no_argument():
    # composite._arguments checks every argument of the public calls, and
    # the fused pass (_forward, _build, _teacher and the sequence stage,
    # seq_ot._transport) trusts it: an argument error raised there, or a
    # rule called there, is a second copy of the argument contract.
    stages = {"composite.py": ("_forward", "_build", "_teacher"),
              "seq_ot.py": ("_transport",)}
    found = []
    for module, names in stages.items():
        path = Path(otdistill.__file__).parent / module
        for node in ast.parse(path.read_text(), str(path)).body:
            if not (isinstance(node, ast.FunctionDef) and node.name in names):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Raise) and inner.exc is not None:
                    exc = inner.exc.func if isinstance(inner.exc, ast.Call) \
                        else inner.exc
                    name = ast.unparse(exc).split(".")[-1]
                    if name in ("InvalidInput", "InvalidConfig"):
                        found.append(
                            f"{node.name}:{inner.lineno} raises {name}")
                elif isinstance(inner, ast.Call):
                    name = ast.unparse(inner.func).split(".")[-1]
                    if name.startswith(("_check_", "validate_")):
                        found.append(
                            f"{node.name}:{inner.lineno} calls {name}")
    assert found == []


def test_only_the_build_stage_reads_the_match_mode():
    # Exact matching is a ranking stage of the build (_teacher, _build) and
    # a setting of LossWeights; a read of the match mode anywhere else in
    # composite is a switch threaded through the evaluation.
    path = Path(otdistill.__file__).parent / "composite.py"
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name in ("LossWeights", "_teacher", "_build")):
            continue
        for inner in ast.walk(node):
            name = (inner.attr if isinstance(inner, ast.Attribute)
                    else inner.id if isinstance(inner, ast.Name) else None)
            if name in ("match_mode", "EXACT_ASSIGNMENT"):
                found.append(f"{node.name}:{inner.lineno} reads {name}")
    assert found == []
