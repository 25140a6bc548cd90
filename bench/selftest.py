"""Self-test of the benchmark at tiny shapes; it never gates on timings.

Run from the repository root:

    python3 bench/selftest.py

It checks that
  - every workload, with and without tracing, prints a last line with the
    contract keys and exactly the metrics BENCHMARK.json names, with units;
  - the checks reject broken outputs (a sign-flipped gradient, corrupted
    metrics CSVs), so ``failed`` cannot be vacuous;
  - the acceptance fixture at seed 1 passes its pinned values;
  - without the package source the benchmark exits non-zero, printing no
    result.
Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_emitted_metrics():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            proc = bench(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", str(trace), "--tiny"])
            what = f"{workload} --trace {trace} emits every {section} metric"
            if proc.returncode != 0:
                expect(False, f"{what} (exit {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1
                   and {k: v["unit"] for k, v in metrics.items()} == wanted
                   and all(set(v) == {"value", "unit"} and math.isfinite(v["value"])
                           for v in metrics.values()), what)


def check_rejections():
    from workloads import TINY, WORKLOADS

    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        step = TINY["vocab_t128"]
        inputs = step.prepare(5, workdir)
        state, loss, grad = step.unit(inputs)
        expect(not step.check(inputs, (state, loss, grad), None)
               and not step.check_once(inputs, (state, loss, grad)),
               "training step passes its checks")
        expect(bool(step.check_once(inputs, (state, loss, -grad))),
               "sign-flipped gradient fails the directional-derivative check")

        fixture = TINY["distill_fixture"]
        inputs = fixture.prepare(5, workdir)
        out = fixture.unit(inputs)
        expect(not fixture.check(inputs, out, out), "distill CSVs pass their checks")
        code, text = out["uld"]
        lines = text.splitlines()
        corrupt = {
            "header": "\n".join(["step,ce,had,sl,sd,total"] + lines[1:]) + "\n",
            "missing row": "\n".join(lines[:-1]) + "\n",
            "non-finite value": text.replace(lines[3].split(",")[2], "nan", 1),
            "changed digit": text[:-3] + ("1" if text[-3] != "1" else "2") + text[-2:],
            "no training": "\n".join(lines[:-1] + [
                ",".join(lines[-1].split(",")[:5] + lines[1].split(",")[5:])]) + "\n",
        }
        for name, bad in corrupt.items():
            # Only the byte-identity check can see a changed last digit.
            first = out if name == "changed digit" else None
            expect(bool(fixture.check(inputs, dict(out, uld=(code, bad)), first)),
                   f"corrupted metrics CSV ({name}) fails the checks")
        expect(bool(fixture.check(inputs, dict(out, uld=(3, text)), out)),
               "non-zero distill exit code fails the checks")

        fixture = WORKLOADS["distill_fixture"]
        inputs = fixture.prepare(1, workdir)
        out = fixture.unit(inputs)
        expect(not fixture.check(inputs, out, None),
               "acceptance fixture at seed 1 matches its pinned eval_sd values")
        code, text = out["ce_only"]
        lines = text.splitlines()
        fields = lines[-1].split(",")
        fields[-1] = repr(float(fields[-1]) + 0.01)
        bad = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
        expect(bool(fixture.check(inputs, dict(out, ce_only=(code, bad)), None)),
               "a moved final eval_sd fails the pinned-value check")


def check_without_source():
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--workload", "seq_t1024", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "without the package source the benchmark fails with no result")


def main():
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.import_package()
    check_without_source()
    check_rejections()
    check_emitted_metrics()
    print(f"{len(FAILURES)} self-test checks failed" if FAILURES
          else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
