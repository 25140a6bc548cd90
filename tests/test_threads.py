"""The blocked kernels give the same bits on any number of threads.

Every test here patches core._cores, the usable cores, and most lower
core._THREAD_ENTRIES and both block budgets so that small shapes split
into several slices and several blocks per slice. Outputs are compared with
the one-thread run under the same budgets (a budget fixes the grouping of
the sequence gradient's sums, a thread count must not).

- build_state, total_loss_frozen, total_grad with and without a state,
  total_loss under both match modes, the sequence kernels and batched
  harness runs are byte-identical at 1, 2 and 3 threads;
- a nan in a slice that a worker thread owns raises InvalidInput, and a
  threaded plan that underflows NumericalUnderflow;
- no RuntimeWarning escapes a worker thread, and concurrent callers share
  one pool;
- every thread of a walk gets a block, the threads' blocks together hold
  at most one serial block, and the peak-memory bounds of test_composite
  hold on 32 cores;
- the harness at its default shapes creates no pool, a process limited to
  one core writes the same CSVs and gradient as one on every core, and a
  forked child finishes a parallel pass.
"""

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import test_composite

from otdistill import (CE_ONLY, EXACT_ASSIGNMENT, MULTILEVEL_OT, SUM_SORT, ULD,
                       AlignedPair, DistillConfig, InvalidInput, LossWeights,
                       NumericalUnderflow, SinkhornConfig, build_state, cli,
                       fileio, run_distillation, sd_grad, seq_cost_matrix,
                       sinkhorn_plan, total_grad, total_loss,
                       total_loss_frozen)
from otdistill import core, seq_ot
from otdistill.core import _softmax_pass

THREADS = (1, 2, 3)
TOKENS, M, N = 12, 40, 30
W = LossWeights(k=8, sinkhorn=SinkhornConfig(0.3, 20))


def shut_down_pool():
    if core._pool is not None:
        core._pool.shutdown()
        core._pool = None


@pytest.fixture
def cores(monkeypatch):
    """The returned function sets the number of usable cores; each setting
    gets a pool of its own, shut down at the end."""
    monkeypatch.setattr(core, "_pool", None)

    def use(count):
        monkeypatch.setattr(core, "_cores", lambda: count)
        shut_down_pool()

    yield use
    shut_down_pool()


@pytest.fixture
def threads(monkeypatch, cores):
    """Split every kernel call, in blocks of a few rows; the returned
    function sets the number of usable cores."""
    monkeypatch.setattr(core, "_THREAD_ENTRIES", 1)
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 3 * N)
    monkeypatch.setattr(seq_ot, "_BLOCK_ENTRIES", 3 * N)
    return cores


def pair(seed, tokens=TOKENS, m=M, n=N):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((tokens, m)) * 3.0,
            rng.standard_normal((tokens, n)) * 3.0)


def arrays(obj, name=""):
    """Every array and float of a result, by name, as bytes."""
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            out.update(arrays(getattr(obj, f.name), f"{name}.{f.name}"))
        return out
    if isinstance(obj, (np.ndarray, float)):
        value = np.asarray(obj)
        return {name: (value.dtype.str, value.shape, value.tobytes())}
    return {}


def outputs(t, s, w):
    state = build_state(t, s, w=w)
    labels = np.arange(t.shape[0]) % s.shape[1]
    out = arrays(state, "state")
    out.update(arrays(total_loss_frozen(state, t, s, w), "frozen"))
    out.update(arrays(total_grad(t, s, w=w, state=state), "grad with state"))
    out.update(arrays(total_grad(t, s, w=w), "grad"))
    out.update(arrays(total_loss(t, s, w=w), "loss"))
    out.update(arrays(total_loss(t, s, labels, w=w), "loss with labels"))
    return out


def same_at_every_count(threads, compute, counts=THREADS):
    results = []
    for count in counts:
        threads(count)
        results.append(compute())
    for count, result in zip(counts[1:], results[1:]):
        assert result.keys() == results[0].keys()
        differ = [k for k in result if result[k] != results[0][k]]
        assert not differ, f"{count} threads changed {differ}"


@pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
@pytest.mark.parametrize("shape", [(TOKENS, M, N), (TOKENS, N, M), (5, 3, 200)])
def test_loss_calls_are_the_same_at_every_thread_count(threads, mode, shape):
    t, s = pair(60, *shape)
    same_at_every_count(threads,
                        lambda: outputs(t, s, replace(W, match_mode=mode)))


def test_kernels_keep_their_sums_in_order_at_any_thread_count(threads):
    # The pass's column sums add the rows in order, whole sequences (the
    # first stack) or runs of rows at a time; its rows split within a
    # block of several sequences too. 16 threads would cut the plan's 20
    # columns into slices narrower than two unless each slice keeps at
    # least two: numpy sums a lone column of 8 or more rows pairwise, not
    # in row order.
    rng = np.random.default_rng(67)
    stacks = [rng.standard_normal(shape) * 3.0
              for shape in ((5, 4, 10), (1, 20, 3), (2, 20, 5), (3, 9, 20))]
    cost = rng.random((2, 20, 20))

    def compute():
        out = {"plan": sinkhorn_plan(cost, W.sinkhorn).tobytes()}
        for z in stacks:
            top, totals, sums, best = _softmax_pass(z, (1.0, 0.7), sums=True,
                                                    argmax=True)
            out[z.shape] = b"".join(a.tobytes()
                                    for a in [top, best, *totals, *sums])
        return out

    same_at_every_count(threads, compute, counts=(1, 2, 3, 16))


def test_sequence_kernels_are_the_same_at_every_thread_count(threads):
    rng = np.random.default_rng(61)
    # Rounded values tie, so the rank path meets equal values too.
    aligned = AlignedPair(teacher=np.round(rng.random((20, 7)), 1),
                          student=np.round(rng.random((20, 7)), 1))

    def compute():
        cost = seq_cost_matrix(aligned)
        plan = sinkhorn_plan(cost, W.sinkhorn)
        stack = sinkhorn_plan(np.stack([cost, cost.T]), W.sinkhorn)
        return {name: value.tobytes() for name, value in (
            ("cost", cost), ("plan", plan), ("stack", stack),
            ("sd_grad", sd_grad(aligned, plan)))}

    same_at_every_count(threads, compute)


def test_batched_harness_runs_are_the_same_at_every_thread_count(threads):
    # Four sequences of 6 tokens: blocks of several sequences, and, under
    # uld, the gradient's softmax read by the padded-sort term.
    def compute():
        return {mode: fileio.metrics_csv_text(run_distillation(DistillConfig(
            seed=3, m=33, n=30, tokens=6, contexts=24, steps=4, mode=mode)))
            for mode in (MULTILEVEL_OT, CE_ONLY, ULD)}

    same_at_every_count(threads, compute)


@pytest.mark.parametrize("side", ["student", "teacher"])
@pytest.mark.parametrize("row", [TOKENS // 2, TOKENS - 1])
def test_a_nan_in_a_worker_slice_raises_invalid_input(threads, side, row):
    # With three threads the middle and the last rows belong to slices
    # the calling thread does not run.
    threads(3)
    t, s = pair(62)
    state = build_state(t, s, w=W)
    bad = (t if side == "teacher" else s).copy()
    bad[row, -1] = np.nan
    t, s = (bad, s) if side == "teacher" else (t, bad)
    calls = {"build_state": lambda: build_state(t, s, w=W),
             "total_loss": lambda: total_loss(t, s, w=W),
             "total_loss_frozen": lambda: total_loss_frozen(state, t, s, W),
             "total_grad": lambda: total_grad(t, s, w=W),
             "total_grad with a state": lambda: total_grad(t, s, w=W,
                                                           state=state)}
    for name, call in calls.items():
        with pytest.raises(InvalidInput, match="non-finite"):
            call()
            pytest.fail(f"{name} accepted a nan in row {row} of the {side}")


def test_a_threaded_plan_that_underflows_raises(threads):
    # Row 4's kernel entries all underflow to 0, so the row step divides
    # 0 by 0 in the second thread's slice.
    threads(3)
    cost = np.zeros((9, 9))
    cost[4] = 1e3
    with pytest.raises(NumericalUnderflow):
        sinkhorn_plan(cost, SinkhornConfig(1e-3, 20))


def test_no_runtime_warning_escapes_a_worker(threads):
    # Each call below computes, on worker threads, an overflow or a 0 / 0
    # that its kernel ignores on the calling thread.
    threads(3)
    t, s = pair(63)
    s[0, 0], s[-1, -1] = 1e308, -1e308
    huge = AlignedPair(teacher=np.full((3, 4), -1e308),
                       student=np.full((3, 4), 1e308))
    cost = np.zeros((9, 9))
    cost[4] = 1e3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isfinite(total_grad(t, s, w=replace(W, tau_sl=0.5))).all()
        assert np.isfinite(total_loss(t, s, w=W).total)
        assert (sd_grad(huge, np.full((3, 3), 1.0 / 3)) == 1.0).all()
        with pytest.raises(NumericalUnderflow):
            sinkhorn_plan(cost, SinkhornConfig(1e-3, 20))
    assert [str(w.message) for w in caught] == []


def test_concurrent_callers_share_the_pool(threads, monkeypatch):
    # More threads than cores, four callers and a short switch interval:
    # their first parallel calls race, yet they make one pool, and every
    # caller gets the one-thread gradient.
    threads(1)
    t, s = pair(64)
    expected = total_grad(t, s, w=W)
    threads(3)
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    results = [[] for _ in range(4)]
    callers = [threading.Thread(target=lambda out=out: out.extend(
        total_grad(t, s, w=W) for _ in range(5))) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [len(out) for out in results] == [5] * 4
    assert all(np.array_equal(r, expected) for out in results for r in out)
    assert made == [core._pool]


def test_harness_at_its_default_shapes_creates_no_pool(cores):
    # Two cores, the default budgets: every call of the harness's steps
    # (4 x 8 x 20 logits) stays below 2 * core._THREAD_ENTRIES.
    cores(2)
    for mode in (MULTILEVEL_OT, CE_ONLY, ULD):
        run_distillation(DistillConfig(seed=1, steps=5, mode=mode))
    assert core._pool is None


@pytest.mark.parametrize("shape", [(1, 64, 2048), (3, 8, 20), (2, 5, 1000),
                                   (1, 3, 50000), (4, 128, 512)])
@pytest.mark.parametrize("count", [2, 3, 32])
def test_every_thread_of_a_walk_gets_a_block_within_its_budget(cores, shape,
                                                               count):
    # A stack that fits one thread's budget whole still gives each thread
    # rows of its own, and the threads' blocks together hold at most one
    # serial block.
    cores(count)
    parts = core._parts(1 << 40, shape[-1])
    blocks = core._blocks(shape, parts)
    size = [np.empty(shape)[block].size for block in blocks]
    assert len(blocks) >= min(parts, shape[0] * shape[1])
    assert parts * max(size) <= max(core._BLOCK_ENTRIES, shape[-1])
    covered = np.zeros(shape[:2], int)
    for items, rows in blocks:
        covered[items, rows] += 1
    assert (covered == 1).all()


@pytest.mark.parametrize("bound", [
    "test_blocks_only_and_one_gradient_buffer",
    "test_gradient_call_holds_one_block_beside_the_gradient"])
def test_memory_bounds_hold_on_many_cores(cores, bound):
    # On 32 cores each thread's block would hold at least one row of
    # n = 20000 entries, 32 rows together, unless the threads of a call are
    # capped at the rows one block holds; and the sequence gradient's
    # threads, each with numpy's scratch, would pass the bound unless a
    # call's size caps them too.
    cores(32)
    getattr(test_composite.TestPeakMemory(), bound)()


_ONE_CORE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from otdistill import cli, core, total_grad
from test_threads import GRAD_SHAPE, pair
assert core._cores() == 1
with open(sys.argv[1], "wb") as f:
    f.write(total_grad(*pair(65, *GRAD_SHAPE)).tobytes())
for mode in ("multilevel_ot", "ce_only", "uld"):
    assert cli.main(["distill", "--config", sys.argv[2], "--mode", mode,
                     "--out", sys.argv[1] + mode + ".csv"]) == 0
"""

# A gradient call whose passes go parallel at the default budgets.
GRAD_SHAPE = (64, 3000, 2000)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity masks on this platform")
def test_one_core_process_writes_what_every_core_writes(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed=1\nsteps=40\n")
    one = tmp_path / "one"
    package_parent = str(Path(core.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", _ONE_CORE, str(one), str(config)],
        check=True, timeout=120, env={
            **os.environ, "PYTHONPATH": os.pathsep.join(
                (package_parent, str(Path(__file__).parent)))})
    assert one.read_bytes() == total_grad(*pair(65, *GRAD_SHAPE)).tobytes()
    for mode in (MULTILEVEL_OT, CE_ONLY, ULD):
        every = tmp_path / f"every{mode}.csv"
        assert cli.main(["distill", "--config", str(config), "--mode", mode,
                         "--out", str(every)]) == 0
        assert (tmp_path / f"one{mode}.csv").read_bytes() == every.read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_finishes_a_parallel_pass(threads):
    threads(2)
    z = np.random.default_rng(66).standard_normal((2, 9, N))
    expected = _softmax_pass(z, (1.0, 2.0), sums=True)[2]
    assert core._pool is not None
    with warnings.catch_warnings():
        # Python 3.12 and later warn on a fork beside running threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            sums = _softmax_pass(z, (1.0, 2.0), sums=True)[2]
            code = 0 if all(np.array_equal(a, b)
                            for a, b in zip(sums, expected)) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the pool it inherited")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
