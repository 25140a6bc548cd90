"""The blocked kernels give the same bits on any number of threads.

Every test here patches core._cores, the usable cores, and most lower
core._THREAD_ENTRIES and the three block budgets so that small shapes
split into several slices and several blocks per slice. Outputs are compared
with the one-thread run under the same budgets (a budget fixes the grouping
of the sequence gradient's sums and of the plan's shares, a thread count
must not).

- build_state, total_loss_frozen, total_grad with and without a state,
  total_loss under both match modes, the sequence kernels and batched
  harness runs are byte-identical at 1, 2 and 3 threads, and column sums
  over several blocks are those of one block;
- a nan in a slice that a worker thread owns raises InvalidInput, and a
  threaded plan that underflows NumericalUnderflow;
- a nan in any block of a column-sum pass raises without hanging, and
  concurrent column-sum passes finish (both in a separate process); once
  an item of a walk raises, no thread takes another;
- no RuntimeWarning escapes a worker thread, and concurrent callers share
  one pool;
- every thread of a walk gets a block, the threads' blocks together hold
  at most one serial block, and the peak-memory bounds of test_composite
  hold on 32 cores;
- the harness at its default shapes creates no pool, a process limited to
  one core, or one whose OpenBLAS runs on one thread, writes the same CSVs,
  gradient and Sinkhorn plans as one on every core, and a forked child
  finishes a parallel pass.
"""

import concurrent.futures
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
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
from refimpl import sd_grad_by_comparison

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
    monkeypatch.setattr(seq_ot, "_PLAN_ENTRIES", 3 * N)
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
    # first stack, two to a block on one thread) or runs of rows at a
    # time, each run handed off to the next block of its sequence on
    # whichever thread took it. A plan walks fixed blocks of at most 90
    # kernel entries (3 whole 5 x 5 costs, 4 rows of a 20 x 20, single
    # rows of the others), each thread taking the next block not yet
    # taken, unevenly at 16 threads; each sweep's shares of K^T u are
    # added in block order on the calling thread, so no sum depends on the
    # thread count.
    rng = np.random.default_rng(67)
    stacks = [rng.standard_normal(shape) * 3.0
              for shape in ((5, 4, 10), (1, 20, 3), (2, 20, 5), (3, 9, 20))]
    costs = [rng.random(shape) for shape in ((2, 20, 20), (1, 301, 301),
                                             (3, 97, 97), (9, 5, 5))]

    def compute():
        out = {cost.shape: sinkhorn_plan(cost, W.sinkhorn).tobytes()
               for cost in costs}
        for z in stacks:
            top, totals, sums, best = _softmax_pass(z, (1.0, 0.7), sums=True,
                                                    argmax=True)
            out[z.shape] = b"".join(a.tobytes()
                                    for a in [top, best, *totals, *sums])
        return out

    same_at_every_count(threads, compute, counts=(1, 2, 3, 16))


@pytest.mark.parametrize("count", THREADS)
def test_column_sums_over_several_blocks_equal_one_block_sums(cores,
                                                              monkeypatch,
                                                              count):
    # A block after the first of its sequence adds its rows to the running
    # column sums in order: in one sum after adding the sums into its
    # first row, or one by one into out's level. In a gradient call
    # without a state the tau_sl level's rows are the gradient's. At
    # blocks of 180 entries, shared by the threads, each sequence of 24
    # tokens spans 4 to 24 blocks of 1 to 6 rows (at least 2 rows of the
    # student); the reference holds it in one.
    t, s = pair(72, tokens=2 * TOKENS)

    def compute():
        out = arrays(total_grad(t, s, w=W), "grad")
        state = build_state(t, s, w=W)
        out.update(arrays(state.rank, "rank"))
        out.update(arrays(state.rank_seq, "rank_seq"))
        # The pass alone, at both temperatures and at out's alone.
        for taus in ((W.tau_sl, W.tau_sd), (W.tau_sd,)):
            probs = np.empty((1,) + s.shape)
            sums = _softmax_pass(s[None], taus, sums=True, out=probs)[2]
            out.update(arrays(probs, f"out at {taus}"))
            for tau, a in zip(taus, sums):
                out.update(arrays(a, f"sums at {tau} of {taus}"))
        return out

    whole = compute()
    cores(count)
    monkeypatch.setattr(core, "_THREAD_ENTRIES", 1)
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 6 * N)
    blocked = compute()
    assert blocked.keys() == whole.keys()
    assert [k for k in whole if blocked[k] != whole[k]] == []


@pytest.mark.parametrize("count", THREADS)
@pytest.mark.parametrize("chunk", [480, 120])
def test_chunks_give_the_bits_of_one_chunk(cores, monkeypatch, count, chunk):
    # At a chunk of 480 entries over the threads, a pass that sums no
    # columns walks each block of the 24 x 30 student in chunks of 16, 8
    # or 5 rows (on 1, 2 or 3 threads; 4, 2 or 1 at 120), the backward
    # walks blocks that small, adding the columns every row reads (B = 1)
    # and the harness's per-item columns (B = 4) through each block's flat
    # index, and _ranks ranks the 8 kept columns in groups of 3 on one
    # thread (3, 3 and 2, each offset by its start) and of 1 on more; at
    # 120 the mass check sums each (24, 8) term in two pieces. The
    # harness's stacks of 4 sequences of 6 tokens give chunks of whole
    # sequences or of runs of one sequence's rows. At the default chunk
    # each of these calls is one chunk, whose bits the reference tests
    # hold, so the chunked calls must give the same bytes, at both the
    # squaring pair of temperatures and another.
    t, s = pair(73, tokens=2 * TOKENS)

    def compute():
        out = {}
        for taus in ((1.0, 2.0), (0.7, 3.1)):
            w = replace(W, tau_sl=taus[0], tau_sd=taus[1])
            out.update({(taus, k): v for k, v in outputs(t, s, w).items()})
        for mode in (MULTILEVEL_OT, ULD):
            out[mode] = fileio.metrics_csv_text(run_distillation(
                DistillConfig(seed=3, m=33, n=30, tokens=6, contexts=24,
                              steps=4, mode=mode)))
        return out

    whole = compute()
    cores(count)
    monkeypatch.setattr(core, "_THREAD_ENTRIES", 1)
    for module in (core, seq_ot):
        monkeypatch.setattr(module, "_CHUNK_ENTRIES", chunk)
    chunked = compute()
    assert chunked.keys() == whole.keys()
    assert [k for k in whole if chunked[k] != whole[k]] == []


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


# (B, T, k, budget): blocks of one teacher row of 74 signs per column, on
# up to 3 threads; of 12 rows (five of 12 and one of 1) of 2 items, on up
# to 2; and one block of all 9 rows, 7 columns split over up to 3 threads.
# At the default chunk the first two rank every column of a thread at
# once and the third compares floats; at a chunk of 300 all three rank
# in groups of one or two columns.
@pytest.mark.parametrize("chunk", [core._CHUNK_ENTRIES, 300])
@pytest.mark.parametrize("batch, tokens, k, budget", [
    (2, 37, 9, 3 * 2 * 37), (2, 61, 5, 2 * 2 * 61 * 12),
    (2, 9, 7, seq_ot._BLOCK_ENTRIES)])
def test_sequence_gradient_blocks_are_the_same_at_every_thread_count(
        cores, monkeypatch, batch, tokens, k, budget, chunk):
    # The row blocks fix the bits, whatever the threads and the columns
    # each takes per block: every count gives the reference's bytes.
    monkeypatch.setattr(core, "_THREAD_ENTRIES", 1)
    monkeypatch.setattr(seq_ot, "_BLOCK_ENTRIES", budget)
    for module in (core, seq_ot):
        monkeypatch.setattr(module, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(tokens)
    t, s = (np.round(rng.random((batch, tokens, k)), 1) for _ in range(2))
    plan = rng.random((batch, tokens, tokens))
    expected = sd_grad_by_comparison(t, s, plan, budget).tobytes()
    for count in THREADS:
        cores(count)
        assert seq_ot._sd_grad(t, s, plan).tobytes() == expected, count


def test_sequence_gradient_signs_hold_one_budget_on_many_cores(
        cores, monkeypatch):
    # T = 250 with a budget of 2^15 signs: blocks of 65 teacher rows of one
    # column (16250 signs; 65, 65, 65 and 55 rows), so at most 2 threads,
    # whose buffers together hold at most the budget. Without that cap, 30
    # threads on 32 cores would each hold a block (975 kB of int16).
    # Measured from the ranks on: the signs (2 bytes each), the (B, T, k)
    # gradient the sums add into, and numpy's scratch for an einsum over
    # int16 signs (75 kB measured, numpy 2.4), one per thread.
    cores(32)
    budget, (batch, tokens, k) = 1 << 15, (1, 250, 32)
    monkeypatch.setattr(seq_ot, "_BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(250)
    t, s = (rng.random((batch, tokens, k)) for _ in range(2))
    plan = rng.random((batch, tokens, tokens))
    ranks, start = seq_ot._ranks, []

    def ranked(*args):
        out = ranks(*args)
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(seq_ot, "_ranks", ranked)
    seq_ot._sd_grad(t, s, plan)  # the pool, made before the measured call
    tracemalloc.start()
    try:
        seq_ot._sd_grad(t, s, plan)
        peak = tracemalloc.get_traced_memory()[1] - start[-1]
    finally:
        tracemalloc.stop()
    threads = budget // (budget // 2 // (batch * tokens) * batch * tokens)
    bound = 2 * budget + 8 * batch * k * tokens + threads * 80_000
    assert peak < bound, (peak, bound)


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


_HAND_OFF = """
import sys
import numpy as np
from otdistill import InvalidInput, build_state, core
core._cores = lambda: int(sys.argv[1])
core._THREAD_ENTRIES = 1
core._BLOCK_ENTRIES = 16 * 30
rng = np.random.default_rng(69)
t, s = rng.standard_normal((24, 40)) * 3.0, rng.standard_normal((24, 30)) * 3.0
blocks = core._blocks((1,) + s.shape, core._parts(2 * s.size, s.shape[-1]),
                      core._BLOCK_ENTRIES)
assert len(blocks) >= 3
calls = {"_softmax_pass": lambda z: core._softmax_pass(z[None], (1.0, 0.5),
                                                       sums=True),
         "build_state": lambda z: build_state(t, z)}
for name, call in calls.items():
    for _, rows in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
        bad = s.copy()
        bad[rows.start, -1] = np.nan
        try:
            call(bad)
        except InvalidInput:
            continue
        sys.exit(f"{name} accepted a nan in row {rows.start}")
"""


@pytest.mark.parametrize("count", [2, 3, 16])
def test_a_nan_in_a_column_sum_pass_raises_without_hanging(count):
    # The column sums of a pass take a block's rows only once the block
    # before it in its sequence has added its own, so a block that raises
    # must release the threads waiting for it. At each count the student
    # makes several blocks of its share of a 480-entry budget (the same in
    # build_state's student pass), and the nan goes in the first, a middle
    # and the last of them.
    run_within_timeout(_HAND_OFF, str(count))


_CONCURRENT_PASSES = """
import sys, threading
import numpy as np
from otdistill import core
core._cores = lambda: 3
core._THREAD_ENTRIES = 1
core._BLOCK_ENTRIES = 3 * 30
z = np.random.default_rng(71).standard_normal((1, 6, 30))
expected = core._softmax_pass(z, (1.0, 0.5), sums=True)[2]
same = []

def call():
    for _ in range(400):
        sums = core._softmax_pass(z, (1.0, 0.5), sums=True)[2]
        same.append(all(np.array_equal(a, b) for a, b in zip(sums, expected)))

sys.setswitchinterval(1e-6)
callers = [threading.Thread(target=call) for _ in range(8)]
for caller in callers:
    caller.start()
for caller in callers:
    caller.join()
assert same == [True] * 3200
"""


def test_concurrent_column_sum_passes_finish():
    # Eight callers share a pool of two threads; each pass splits six
    # one-row blocks, whose column sums wait for one another, over three
    # threads. A walk that gave each thread a fixed run or stride of
    # blocks would make a pass wait for a block whose thread is still
    # queued behind another caller's waiting thread, and hang.
    run_within_timeout(_CONCURRENT_PASSES)


def test_a_raise_stops_the_walk(cores):
    # Item 0 raises at once, every other item takes ~5 ms: once it has
    # raised no thread takes another item, so only the items the other two
    # threads had already taken run.
    cores(3)
    calls = []

    def fn(item, part):
        calls.append(item)
        if item == 0:
            raise ValueError("item 0")
        time.sleep(0.005)

    with pytest.raises(ValueError, match="item 0"):
        core._walk(fn, range(40), 3)
    assert 0 in calls and len(calls) <= 3, calls


def run_within_timeout(script, *args):
    """Run script in a separate process on this package, so that a hang
    fails on the timeout instead of stalling the suite."""
    subprocess.run([sys.executable, "-c", script, *args], check=True,
                   timeout=60, env={**os.environ, "PYTHONPATH": str(
                       Path(core.__file__).resolve().parents[1])})


def test_a_threaded_plan_that_underflows_raises(threads):
    # Row 4's kernel entries all underflow to 0, so K v is 0 there and u
    # infinite, in a block the second thread owns.
    threads(3)
    cost = np.zeros((20, 20))
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
    cost = np.zeros((20, 20))
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
    blocks = core._blocks(shape, parts, core._BLOCK_ENTRIES)
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


@pytest.mark.parametrize("count", [1, 32])
def test_long_sequence_memory_bound_holds_on_one_and_many_cores(cores, count):
    # On one core each kernel holds its whole share; on 32 the sequence
    # gradient's threads share one sign budget and the ranks' threads one
    # chunk.
    cores(count)
    test_composite.TestPeakMemory(
    ).test_long_sequence_gradient_call_holds_a_chunk_and_a_sign_budget()


_ONE_CORE = """
import os, sys
if sys.argv[3] == "one core":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from otdistill import cli, core, total_grad
from test_threads import GRAD_SHAPE, pair, plan_digests
if sys.argv[3] == "one core":
    assert core._cores() == 1
with open(sys.argv[1], "wb") as f:
    f.write(total_grad(*pair(65, *GRAD_SHAPE)).tobytes())
with open(sys.argv[1] + ".plans", "w") as f:
    f.write(" ".join(plan_digests()))
for mode in ("multilevel_ot", "ce_only", "uld"):
    assert cli.main(["distill", "--config", sys.argv[2], "--mode", mode,
                     "--out", sys.argv[1] + mode + ".csv"]) == 0
"""

# A gradient call whose passes go parallel at the default budgets.
GRAD_SHAPE = (64, 3000, 2000)


def plan_digests():
    """Hashes of Sinkhorn plans of 4 and 16 blocks at the default budget,
    large enough that OpenBLAS would split a product over the whole
    kernel across its own threads."""
    rng = np.random.default_rng(68)
    return [hashlib.sha256(sinkhorn_plan(rng.random((tokens, tokens)) * 2.0)
                           .tobytes()).hexdigest()
            for tokens in (1024, 2048)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity masks on this platform")
def test_one_core_process_writes_what_every_core_writes(tmp_path):
    writes_what_every_core_writes(tmp_path, "one core", {})


def test_one_blas_thread_process_writes_what_every_core_writes(tmp_path):
    # The plans' matrix-vector products go through OpenBLAS, whose own
    # threads must not change their bytes either.
    writes_what_every_core_writes(tmp_path, "every core",
                                  {"OPENBLAS_NUM_THREADS": "1"})


def writes_what_every_core_writes(tmp_path, limit, env):
    """Run _ONE_CORE in a subprocess under `limit` ("one core" sets its
    affinity to one core) and env, and compare what it writes with this
    process's run on every core."""
    config = tmp_path / "run.cfg"
    config.write_text("seed=1\nsteps=40\n")
    one = tmp_path / "one"
    package_parent = str(Path(core.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", _ONE_CORE, str(one), str(config), limit],
        check=True, timeout=120, env={
            **os.environ, **env, "PYTHONPATH": os.pathsep.join(
                (package_parent, str(Path(__file__).parent)))})
    assert one.read_bytes() == total_grad(*pair(65, *GRAD_SHAPE)).tobytes()
    assert (tmp_path / "one.plans").read_text().split() == plan_digests()
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
