"""Benchmark of the otdistill package: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload vocab_t128 --seed 1 --seconds 10 --trace 0

The workloads are defined in ``workloads.py`` and listed, with why each was
chosen, in ``BENCHMARK.json``. Each run is a closed loop: one process and
one caller, each unit of work starting after the previous one returned, with
BLAS/OpenMP threads capped at the number of usable cores. Inputs are made
from ``--seed`` before any timing. Every unit's output is checked outside
the timed region; a unit that raises, returns a non-finite value, exits
non-zero or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics:
  tokens_per_s  token positions per second over the timed units;
  step_ms_p50   median wall time of one unit (sample count printed);
  peak_mb       peak tracemalloc allocation over one unit, own untimed pass;
  setup_s       import of otdistill plus the first unit, median over this
                process and two fresh worker processes.
``--trace 1`` alternates untraced and traced units (see ``tracing.py``),
then traces one more unit under tracemalloc, and prints the per-layer
metrics, including ``trace_overhead`` (median traced / untraced unit time
over adjacent pairs).
The spans go to ``bench/out/spans-<workload>-seed<seed>.csv.gz`` and the
summary with the overhead to ``trace-<workload>-seed<seed>.json`` beside it.

Both print ``error_rate`` (failed / attempted units) above the result and
write the result with a record of the machine to ``bench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the package
source under ``src/otdistill`` the run exits with status 2 and no result.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 120
LAYERS = ("core", "preprocess", "token_ot", "seq_ot", "composite", "harness",
          "fileio", "cli")
HOT_CALLS = ("core.softmax_rows", "core.validate_logits",
             "seq_ot.seq_cost_matrix", "seq_ot.sinkhorn_plan")
HOT_SELF_MS = (
    "core.softmax_rows", "core.softmax_backward",
    "preprocess.align_and_truncate", "preprocess.sequence_rank_teacher",
    "composite.build_state", "composite.total_loss_frozen",
    "composite.total_grad", "seq_ot.seq_cost_matrix", "seq_ot.sd_grad",
    "seq_ot.sinkhorn_plan", "token_ot.uld_grad", "harness.run_distillation",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test shapes (see selftest.py)")
    p.add_argument("--setup-worker", metavar="WORKDIR",
                   help="time import + first unit in a fresh process and exit")
    return p.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable cores; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package():
    """Import otdistill from this checkout's src/; returns the seconds taken."""
    if not (SRC / "otdistill" / "__init__.py").is_file():
        raise ImportError(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import otdistill
    import otdistill.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not Path(otdistill.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"error: otdistill imported from {otdistill.__file__}")
    return elapsed


def machine_info(threads):
    import ctypes
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    # glibc sysconf names: _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
    # _SC_LEVEL3_CACHE_SIZE.
    try:
        libc = ctypes.CDLL(None)
        caches = {level: libc.sysconf(code)
                  for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    except (OSError, AttributeError):
        caches = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
        "cache_bytes": caches,
    }


class Counter:
    """Units attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def timed_unit(workload, inputs, call=None):
    """Run one unit; returns (seconds, output or None, problems)."""
    gc.collect()
    call = call or workload.unit
    start = time.perf_counter()
    try:
        out = call(inputs)
    except Exception as exc:  # a raising unit is a failed unit, not a crash
        return time.perf_counter() - start, None, [f"raised {exc!r}"]
    return time.perf_counter() - start, out, []


def checked(workload, inputs, out, problems, first):
    if out is None:
        return problems
    try:
        return problems + workload.check(inputs, out, first)
    except Exception as exc:
        return problems + [f"check raised {exc!r}"]


def first_unit(workload, inputs, counter):
    """The warm-up unit, checked in full; returns (seconds, output)."""
    seconds, out, problems = timed_unit(workload, inputs)
    problems = checked(workload, inputs, out, problems, None)
    if out is not None and not problems:
        try:
            problems = workload.check_once(inputs, out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    counter.record(problems)
    return seconds, (out if not problems else None)


def spawn_setup_worker(args, workdir):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-worker", workdir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, ["set-up worker timed out"]
    if proc.returncode != 0:
        return None, [f"set-up worker exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}"]
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, ["set-up worker printed no report"]
    return report["setup_s"], report["problems"]


def peak_pass(workload, inputs, counter, first):
    """Peak tracemalloc bytes over one untimed unit."""
    tracemalloc.start()
    try:
        _, out, problems = timed_unit(workload, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counter.record(checked(workload, inputs, out, problems, first))
    return peak


def output_stem(args):
    return f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, inputs, counter, first, first_setup_s, workdir):
    """End-to-end metrics of the untraced closed loop."""
    setup_samples, peaks = [first_setup_s], []

    def setup_worker():
        seconds, problems = spawn_setup_worker(args, workdir)
        counter.record(problems)
        if seconds is not None:
            setup_samples.append(seconds)

    # The untimed work runs between timed units, so that the timed units are
    # spread over the whole run: the machine's speed drifts within seconds.
    pending = [setup_worker,
               lambda: peaks.append(peak_pass(workload, inputs, counter, first)),
               setup_worker]
    durations = []
    while sum(durations) < args.seconds:
        seconds, out, problems = timed_unit(workload, inputs)
        durations.append(seconds)
        counter.record(checked(workload, inputs, out, problems, first))
        if pending:
            pending.pop(0)()
    for task in pending:
        task()
    metrics = {
        "tokens_per_s": metric(workload.tokens_per_unit * len(durations)
                               / sum(durations), "tokens/s"),
        "step_ms_p50": metric(statistics.median(durations) * 1e3, "ms"),
        "peak_mb": metric(peaks[0] / 1e6, "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }
    notes = [f"step_ms_p50 over {len(durations)} units",
             f"setup_s median of {len(setup_samples)} set-ups "
             f"(this process and {len(setup_samples) - 1} fresh workers)"]
    summary = {"unit_s": durations, "setup_s": setup_samples, "metrics": metrics}
    return metrics, notes, summary


def marginal_err(plan):
    return float(abs(plan.sum(axis=1) - 1.0).max())


def per_layer(args, workload, inputs, counter, first):
    """Per-layer metrics from alternating untraced and traced units."""
    from tracing import Tracer

    tracer = Tracer(observers={"seq_ot.sinkhorn_plan": marginal_err})
    tracer.install()
    try:
        plain, traced = [], []
        while len(traced) < 2 or sum(plain) + sum(traced) < args.seconds:
            traced_turn = len(traced) < len(plain)
            call = (lambda x: tracer.unit(workload.unit, x)) if traced_turn else None
            seconds, out, problems = timed_unit(workload, inputs, call)
            (traced if traced_turn else plain).append(seconds)
            counter.record(checked(workload, inputs, out, problems, first))
        units, unit_ns, functions = tracer.summarize()
        marginal = tracer.observed.get("seq_ot.sinkhorn_plan", 0.0)
        spans_path = OUT / f"spans-{output_stem(args)}.csv.gz"
        tracer.write_spans(spans_path)

        tracer.clear()
        tracer.memory = True
        tracemalloc.start()
        try:
            _, out, problems = timed_unit(
                workload, inputs, lambda x: tracer.unit(workload.unit, x))
        finally:
            tracemalloc.stop()
        counter.record(checked(workload, inputs, out, problems, first))
    finally:
        tracer.restore()

    unit_ms = unit_ns / units / 1e6

    def per_unit(name, key):
        return functions.get(name, {}).get(key, 0) / units

    metrics = {}
    for layer in LAYERS:
        names = [n for n in functions if n.startswith(layer + ".")]
        self_ms = sum(per_unit(n, "self_ns") for n in names) / 1e6
        peak = max((b for n, b in tracer.peak_bytes.items()
                    if n.startswith(layer + ".")), default=0)
        metrics[f"{layer}.self_ms"] = metric(self_ms, "ms")
        metrics[f"{layer}.share"] = metric(self_ms / unit_ms, "fraction")
        metrics[f"{layer}.peak_mb"] = metric(peak / 1e6, "MB")
        metrics[f"{layer}.errors"] = metric(
            sum((per_unit(n, "errors") for n in names), 0.0), "count")
    for name in HOT_CALLS:
        metrics[f"{name}.calls"] = metric(per_unit(name, "calls"), "count")
    softmax_calls = per_unit("core.softmax_rows", "calls")
    metrics["core.softmax_rows.useful_ratio"] = metric(
        workload.softmax_needed / softmax_calls if softmax_calls else 0.0, "ratio")
    for name in HOT_SELF_MS:
        metrics[f"{name}.self_ms"] = metric(per_unit(name, "self_ns") / 1e6, "ms")
    metrics["seq_ot.sinkhorn_plan.marginal_err"] = metric(marginal, "prob")
    # Each traced unit runs right after an untraced one; the median of the
    # pair ratios cancels the drift of the machine's speed between pairs.
    overhead = statistics.median(t / p for p, t in zip(plain, traced))
    metrics["trace_overhead"] = metric(overhead, "ratio")

    summary = {"trace_overhead": overhead,
               "untraced_unit_s": plain, "traced_unit_s": traced,
               "traced_units": units, "spans": spans_path.name,
               "metrics": metrics}
    notes = [f"trace_overhead {overhead:.4f} over {len(traced)} traced and "
             f"{len(plain)} untraced units; spans in {spans_path.relative_to(ROOT)}"]
    return metrics, notes, summary


def main(argv=None):
    args = parse_args(argv)
    threads = cap_threads()
    try:
        args.import_s = import_package()
    except ImportError as exc:
        print(exc, file=sys.stderr)
        return 2
    from workloads import TINY, WORKLOADS  # imports numpy: after the timed import

    table = TINY if args.tiny else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    if args.setup_worker:
        inputs = workload.prepare(args.seed, args.setup_worker)
        seconds, out, problems = timed_unit(workload, inputs)
        problems = checked(workload, inputs, out, problems, None)
        print(json.dumps({"setup_s": args.import_s + seconds,
                          "problems": problems}))
        return 0

    machine = machine_info(threads)
    counter = Counter()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        inputs = workload.prepare(args.seed, workdir)
        seconds, first = first_unit(workload, inputs, counter)
        if args.trace:
            metrics, notes, summary = per_layer(args, workload, inputs, counter,
                                                first)
        else:
            metrics, notes, summary = end_to_end(args, workload, inputs, counter,
                                                 first, args.import_s + seconds,
                                                 workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "machine": machine, **summary,
               "attempted": counter.attempted, "failed": counter.failed,
               "problems": counter.problems}
    mode = "trace" if args.trace else "result"
    with open(OUT / f"{mode}-{output_stem(args)}.json", "w") as f:
        json.dump(summary, f, indent=1)

    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
          f"{threads['OMP_NUM_THREADS']} BLAS/OpenMP threads")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(f"error_rate {counter.failed / counter.attempted:.6g} "
          f"({counter.failed} failed of {counter.attempted} units)")
    for problem in counter.problems[:10]:
        print("problem: " + problem)
    print(json.dumps({"correct": counter.failed == 0,
                      "attempted": counter.attempted,
                      "failed": counter.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
