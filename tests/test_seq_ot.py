import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otdistill import (BRUTE_FORCE, AlignedPair, InvalidConfig, InvalidInput,
                       LossWeights, NumericalFailure, NumericalUnderflow,
                       SinkhornConfig, build_state, check_gradient, exact_ot,
                       finite_diff_grad, sd_grad, sd_loss, seq_cost_matrix,
                       sinkhorn_plan, total_grad, total_loss)
from otdistill import composite, core, seq_ot
from refimpl import (sd_grad_by_comparison, sinkhorn_by_normalization,
                     sinkhorn_scaling_form, two_by_two_sinkhorn_limit)

CROSS = np.array([[0.0, 1.0], [1.0, 0.0]])


def pair_of(teacher, student):
    return AlignedPair(teacher=np.asarray(teacher, float),
                       student=np.asarray(student, float))


def dense_cost(t, s):
    return np.abs(t[:, None, :] - s[None, :, :]).sum(axis=2)


def dense_sd_grad(t, s, plan):
    return np.einsum("ij,ijl->jl", plan, np.sign(s[None, :, :] - t[:, None, :]))


def tied_pair(tokens, k, seed, levels, gathered):
    """A T x k pair whose entries take `levels` distinct values (0 means
    continuous) and whose student copies some teacher rows, so exact ties
    occur both entrywise and row-wise. With gathered=True both matrices are
    k columns gathered from wider ones, as the fused pass produces: not
    C-contiguous once T and k exceed 1."""
    rng = np.random.default_rng(seed)
    width = k + 3 if gathered else k

    def draw():
        x = rng.random((tokens, width))
        return np.floor(x * levels) / levels if levels else x

    t, s = draw(), draw()
    copies = rng.random(tokens) < 0.3
    s[copies] = t[rng.integers(0, tokens, copies.sum())]
    if gathered:
        cols = rng.permutation(width)[:k]
        t, s = t[:, cols], s[:, cols]
    return AlignedPair(teacher=t, student=s)


class TestSeqCostMatrix:
    def test_two_token_example(self):
        pair = pair_of([[0.9], [0.1]], [[0.8], [0.2]])
        np.testing.assert_allclose(
            seq_cost_matrix(pair), [[0.1, 0.7], [0.7, 0.1]]
        )

    def test_zero_diagonal_at_equality(self):
        rng = np.random.default_rng(0)
        t = rng.random((4, 3))
        np.testing.assert_allclose(np.diag(seq_cost_matrix(pair_of(t, t))), 0.0)

    def test_l1_entry(self):
        pair = pair_of([[0.5, 0.5]], [[0.3, 0.1]])
        assert seq_cost_matrix(pair)[0, 0] == pytest.approx(0.6)


class TestSinkhornPlan:
    def test_zero_cost_gives_uniform(self):
        plan = sinkhorn_plan(np.zeros((2, 2)), SinkhornConfig(0.5, 5))
        np.testing.assert_allclose(plan, np.full((2, 2), 0.5))

    def test_small_lambda_approaches_identity(self):
        plan = sinkhorn_plan(CROSS, SinkhornConfig(0.1, 20))
        expected = two_by_two_sinkhorn_limit(1.0, 0.1)
        np.testing.assert_allclose(plan, expected, atol=1e-8)
        assert np.abs(plan - np.eye(2)).max() < 1e-4
        assert plan[0, 1] == pytest.approx(np.exp(-10) / (1 + np.exp(-10)), rel=1e-6)

    def test_large_lambda_smooths_toward_uniform(self):
        plan = sinkhorn_plan(CROSS, SinkhornConfig(10.0, 50))
        np.testing.assert_allclose(plan, two_by_two_sinkhorn_limit(1.0, 10.0),
                                   atol=1e-10)
        assert np.abs(plan - 0.5).max() < 0.03

    def test_matches_scaling_formulation(self):
        rng = np.random.default_rng(1)
        C = rng.random((6, 6))
        plan = sinkhorn_plan(C, SinkhornConfig(0.1, 20))
        np.testing.assert_allclose(
            plan, sinkhorn_scaling_form(C, 0.1, 20), atol=1e-10
        )

    def test_marginals_converge(self):
        # slow instances (nearly tied assignments) can need hundreds of
        # sweeps at this regularization, hence the generous iteration budget
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(2, 17)
            plan = sinkhorn_plan(rng.random((n, n)), SinkhornConfig(0.1, 2000))
            np.testing.assert_allclose(plan.sum(axis=0), 1.0, atol=1e-6)
            np.testing.assert_allclose(plan.sum(axis=1), 1.0, atol=1e-6)
            assert plan.sum() == pytest.approx(n, abs=1e-5)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        C = rng.random((5, 5))
        cfg = SinkhornConfig(0.2, 200)
        np.testing.assert_allclose(
            sinkhorn_plan(C.T, cfg), sinkhorn_plan(C, cfg).T, atol=1e-9
        )

    def test_underflow_raises(self):
        with pytest.raises(NumericalUnderflow):
            sinkhorn_plan(np.array([[0.0, 1e6], [1e6, 0.0]]) + 1e6 * np.eye(2),
                          SinkhornConfig(0.1, 5))

    @pytest.mark.parametrize("iterations", [1, 20])
    def test_underflow_during_the_sweeps_raises(self, iterations):
        # The middle column's kernel entries are the subnormal 5e-324: the
        # initial kernel has no zero row or column, but the first sweep's
        # u is 1/2 in every row, each product 5e-324 * u rounds to 0, so
        # the middle column's K^T u is 0 and its v infinite (in the
        # normalizing form, the row step halves the entries to 0 and the
        # column step divides 0 by 0).
        C = np.tile([0.0, 0.7444, 0.0], (3, 1))
        assert np.exp(C / -1e-3).sum(axis=0).min() > 0.0
        with pytest.raises(NumericalUnderflow):
            sinkhorn_plan(C, SinkhornConfig(1e-3, iterations))
        with pytest.raises(NumericalUnderflow):
            sinkhorn_plan(np.stack([np.zeros((3, 3)), C]),
                          SinkhornConfig(1e-3, iterations))

    def test_kernel_sums_below_the_float_range_raise(self):
        # Every kernel entry is the subnormal 5e-324. In-place normalization
        # divides them by their sums and ends at the uniform plan; in
        # scaling form 1 / (K v) overflows, so u is infinite, and v 0,
        # from the first sweep on.
        C = np.full((2, 2), 0.7444)
        assert (np.exp(C / -1e-3) == 5e-324).all()
        np.testing.assert_array_equal(sinkhorn_by_normalization(C, 1e-3, 20),
                                      0.5)
        with pytest.raises(NumericalUnderflow):
            sinkhorn_plan(C, SinkhornConfig(1e-3, 20))

    def test_rescaled_cost_recovers(self):
        C = np.array([[0.0, 1e6], [1e6, 0.0]]) + 1e6 * np.eye(2)
        plan = sinkhorn_plan(C / C.max(), SinkhornConfig(0.1, 20))
        assert np.isfinite(plan).all()

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            sinkhorn_plan(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
    def test_rejects_empty(self, shape):
        with pytest.raises(InvalidInput):
            sinkhorn_plan(np.zeros(shape))

    def test_stack_normalizes_each_cost_on_its_own(self):
        rng = np.random.default_rng(9)
        costs = rng.random((3, 5, 5)) * np.array([0.5, 1.0, 2.0])[:, None, None]
        cfg = SinkhornConfig(0.1, 20)
        np.testing.assert_allclose(
            sinkhorn_plan(costs, cfg), [sinkhorn_plan(C, cfg) for C in costs],
            rtol=1e-14, atol=0)

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidConfig):
            SinkhornConfig(regularization=0.0)
        with pytest.raises(InvalidConfig):
            SinkhornConfig(iterations=0)

    @pytest.mark.parametrize("iterations", [2.5, float("nan"), float("inf")])
    def test_rejects_non_integer_iterations(self, iterations):
        with pytest.raises(InvalidConfig):
            SinkhornConfig(iterations=iterations)

    @pytest.mark.parametrize("iterations", [seq_ot.MAX_ITERATIONS + 1, 10**15,
                                            10**30, 1e300])
    def test_rejects_iterations_above_the_bound(self, iterations):
        with pytest.raises(InvalidConfig, match="iterations"):
            SinkhornConfig(iterations=iterations)

    def test_bound_leaves_room_to_converge(self):
        # Near-tied costs take a few hundred sweeps (see the README).
        assert seq_ot.MAX_ITERATIONS >= 10**4
        assert SinkhornConfig(iterations=seq_ot.MAX_ITERATIONS).iterations \
            == seq_ot.MAX_ITERATIONS

    def test_accepts_integral_float_iterations(self):
        np.testing.assert_array_equal(
            sinkhorn_plan(CROSS, SinkhornConfig(0.5, 3.0)),
            sinkhorn_plan(CROSS, SinkhornConfig(0.5, 3)),
        )

    # (1024, 1024) and (2048, 2048) stack 2 and 4 blocks per call;
    # (1000, 1000) and each (700, 700) cost end in a shorter block.
    @pytest.mark.parametrize("shape", [(2048, 2048), (3, 700, 700),
                                       (1024, 1024), (1000, 1000)])
    def test_products_stay_below_the_blas_threading_size(self, monkeypatch,
                                                         shape):
        # OpenBLAS splits a matrix-vector product across its own threads
        # somewhere between 640 x 640 and 700 x 700 entries (numpy 2.4), and
        # its threads then spin on the cores the package's own threads use.
        # So every product of a plan reads one block of K, at most
        # _PLAN_ENTRIES kernel entries, and a block stays below that size.
        # numpy makes one BLAS call per item of a stacked matmul, so what
        # counts is the size of each item's 2-D product.
        read = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            read.append(max(a.shape[-2] * a.shape[-1],
                            b.shape[-2] * b.shape[-1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        sinkhorn_plan(np.random.default_rng(70).random(shape))
        assert read and max(read) <= seq_ot._PLAN_ENTRIES <= 640 * 640

    @pytest.mark.parametrize("tokens", [40, 1024, 1000])
    def test_any_layout_gives_the_plan_of_a_c_ordered_copy(self, tokens):
        # The kernel is C-ordered whatever the cost's layout, so the
        # products, and the plan's bytes, are those of a C-ordered cost.
        C = np.random.default_rng(72).random((tokens, tokens))
        wide = np.zeros((tokens, 2 * tokens))
        wide[:, ::2] = C
        expected = sinkhorn_plan(C).tobytes()
        for laid in (np.asfortranarray(C), wide[:, ::2]):
            assert sinkhorn_plan(laid).tobytes() == expected

    @pytest.mark.parametrize("tokens", [1024, 1000, 2048])
    def test_row_products_release_the_gil(self, monkeypatch, tokens):
        # numpy 2.4 releases the GIL around a matmul only when the call
        # writes more than 500 entries, and a block's product K_b v writes
        # one per row. So the plan stacks the least number of consecutive
        # blocks of a sequence whose rows exceed 500 into one call, and
        # only blocks left after the last such full group (here the
        # shorter last block at T = 1000 and the block before it) may run
        # their products holding the GIL.
        monkeypatch.setattr(core, "_cores", lambda: 2)
        written = []
        matmul = np.matmul

        def counted(a, b, out):
            if out.shape[-1] == 1:  # K_b v, not u_b^T K_b
                written.append(out.size)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        cfg = SinkhornConfig()
        sinkhorn_plan(np.random.default_rng(71).random((tokens, tokens)), cfg)
        rows = seq_ot._PLAN_ENTRIES // tokens
        group = rows * (500 // rows + 1)
        released = sum(n for n in written if n > 500)
        assert sum(written) == cfg.iterations * tokens
        assert released >= cfg.iterations * (tokens // group * group)


class TestPlanSweeps:
    """A plan whose blocks form one walk item, or that runs on one thread,
    sweeps in a plain loop with no core._walk dispatch; one whose blocks
    split across threads dispatches every sweep, iterations + 1 times in
    all. Both give the same bytes."""

    CFG = SinkhornConfig()

    @pytest.fixture
    def walks(self, monkeypatch):
        calls, walk = [], seq_ot._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(seq_ot, "_walk", counted)
        return calls

    def test_the_harness_plan_sweeps_without_a_dispatch(self, walks):
        cost = np.random.default_rng(50).random((4, 8, 8))
        plan = sinkhorn_plan(cost, self.CFG)
        assert walks == []
        expected = [sinkhorn_scaling_form(c, self.CFG.regularization,
                                          self.CFG.iterations) for c in cost]
        np.testing.assert_allclose(plan, expected, rtol=1e-12)

    def test_a_plan_that_splits_dispatches_every_sweep(self, walks,
                                                       monkeypatch):
        # Four runs of 256 rows, stacked into two walk items; the same
        # plan on one core sweeps in the plain loop.
        cost = np.random.default_rng(51).random((1, 1024, 1024))
        monkeypatch.setattr(core, "_pool", None)
        plans = []
        try:
            for cores in (2, 1):
                monkeypatch.setattr(core, "_cores", lambda: cores)
                walks.clear()
                plans.append(sinkhorn_plan(cost, self.CFG))
                assert len(walks) == (self.CFG.iterations + 1
                                      if cores > 1 else 0)
        finally:
            if core._pool is not None:
                core._pool.shutdown()
        assert plans[0].tobytes() == plans[1].tobytes()


class TestAgainstNormalization:
    """The scaling-form plan against the plan of in-place normalization
    (refimpl.sinkhorn_by_normalization, the sweeps it replaced). The two
    compute the same iterates and round differently; at these shapes they
    differ by at most ~4e-15 relative, entry by entry, so the stated
    tolerance is 1e-13 relative for the plan, sd and the gradient."""

    RTOL = 1e-13

    # T=1024 spans 4 blocks of 256 rows, at the 300000-entry budget 4 of
    # 292 rows with a last of 148; each (700, 700) cost spans 2 blocks, of
    # 374 and 326 rows; the (4, 8, 8) stack is one block.
    @pytest.mark.parametrize("shape, budget", [
        ((1, 1), None), ((4, 8, 8), None), ((301, 301), None),
        ((1024, 1024), None), ((1024, 1024), 300_000), ((3, 700, 700), None)])
    def test_plan_and_sd_match(self, monkeypatch, shape, budget):
        if budget is not None:
            monkeypatch.setattr(seq_ot, "_PLAN_ENTRIES", budget)
        C = np.random.default_rng(sum(shape)).random(shape) * 2.0
        cfg = SinkhornConfig()
        plan = sinkhorn_plan(C, cfg)
        expected = sinkhorn_by_normalization(C, cfg.regularization,
                                             cfg.iterations)
        np.testing.assert_allclose(plan, expected, rtol=self.RTOL, atol=0)
        # The column step comes last: the acceptance checks' 1e-12.
        assert np.abs(plan.sum(axis=-2) - 1.0).max() <= 1e-12
        costs = C.reshape((-1,) + C.shape[-2:])
        np.testing.assert_allclose(
            seq_ot._sd(costs, plan.reshape(costs.shape)),
            seq_ot._sd(costs, expected.reshape(costs.shape)),
            rtol=self.RTOL, atol=0)

    @pytest.mark.parametrize("tokens", [1, 8, 301, 1024])
    def test_loss_and_gradient_match(self, monkeypatch, tokens):
        rng = np.random.default_rng(tokens)
        t = rng.standard_normal((tokens, 40)) * 3.0
        s = rng.standard_normal((tokens, 30)) * 3.0
        w = LossWeights(k=8)
        sd, grad = total_loss(t, s, w=w).sd, total_grad(t, s, w=w)
        monkeypatch.setattr(seq_ot, "_plan", lambda C, cfg: (
            sinkhorn_by_normalization(C, cfg.regularization, cfg.iterations)))
        expected = total_grad(t, s, w=w)
        assert sd == pytest.approx(total_loss(t, s, w=w).sd, rel=self.RTOL)
        # Relative to the gradient's largest entry: an entry is a sum of
        # terms of both signs.
        assert (np.abs(grad - expected).max()
                <= self.RTOL * np.abs(expected).max())

    @pytest.mark.parametrize("shape", [(5, 5), (2, 9, 9), (97, 97)])
    def test_reference_paths_agree(self, shape):
        C = np.random.default_rng(shape[-1]).random(shape)
        serial = sinkhorn_by_normalization(C, 0.1, 20)
        for parts in (2, 3):
            assert sinkhorn_by_normalization(C, 0.1, 20, parts).tobytes() \
                == serial.tobytes()


class TestSdLoss:
    def test_zero_cost(self):
        assert sd_loss(np.zeros((3, 3)), np.full((3, 3), 1 / 3)) == 0.0

    def test_uniform_plan_cross_cost(self):
        assert sd_loss(CROSS, np.full((2, 2), 0.5)) == pytest.approx(1.0)

    def test_near_identity_plan_small_loss(self):
        plan = sinkhorn_plan(CROSS, SinkhornConfig(0.1, 20))
        assert sd_loss(CROSS, plan) < 1e-3

    def test_entropic_plan_never_beats_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            C = rng.random((4, 4))
            plan = sinkhorn_plan(C, SinkhornConfig(0.1, 20))
            assert sd_loss(C, plan) >= exact_ot(C, BRUTE_FORCE).value - 1e-9

    def test_loss_decreases_toward_exact_as_lambda_shrinks(self):
        # the converged entropic objective carries a bias on the order of the
        # regularization whenever a runner-up assignment is nearly tied, so
        # the residual gap is bounded by a small multiple of lambda
        rng = np.random.default_rng(5)
        for _ in range(10):
            C = rng.random((4, 4))
            exact = exact_ot(C, BRUTE_FORCE).value
            losses = [
                sd_loss(C, sinkhorn_plan(C, SinkhornConfig(lam, iters)))
                for lam, iters in [(2.0, 50), (0.5, 200), (0.1, 2000),
                                   (0.02, 5000), (0.005, 20000)]
            ]
            assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))
            assert losses[-1] - exact < 0.01

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            sd_loss(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_overflowing_value_raises(self):
        # At lambda = 1e308 the kernel is exp(-1) everywhere and the plan is
        # uniform and finite; its inner product with the cost is not.
        C = np.full((2, 2), 1e308)
        plan = sinkhorn_plan(C, SinkhornConfig(1e308, 20))
        np.testing.assert_array_equal(plan, np.full((2, 2), 0.5))
        with pytest.raises(NumericalFailure):
            sd_loss(C, plan)

    @pytest.mark.parametrize("side", ["cost", "plan"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, side, value):
        # A nan or an infinity is invalid input, not a numerical failure.
        C, plan = np.ones((3, 3)), np.full((3, 3), 1 / 3)
        (C if side == "cost" else plan)[2, 1] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            sd_loss(C, plan)

    def test_kernel_entries_past_the_float_range_are_zero(self):
        # C / -lambda overflows to -inf off the diagonal, whose kernel entry
        # is the correct 0, with no RuntimeWarning (an error under the test
        # settings).
        C = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        plan = sinkhorn_plan(C, SinkhornConfig())
        np.testing.assert_array_equal(plan, np.eye(3))
        assert sd_loss(C, plan) == 0.0

    def test_no_plan_sized_temporary(self):
        tokens = 512
        rng = np.random.default_rng(10)
        C, plan = rng.random((tokens, tokens)), rng.random((tokens, tokens))
        tracemalloc.start()
        try:
            value = sd_loss(C, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx((plan * C).sum(), rel=1e-12)
        # The product plan * C alone would take 8 * tokens**2 bytes (2 MB).
        assert peak < tokens**2, f"peak {peak} bytes"


class TestSdGrad:
    def test_zero_at_equality(self):
        # the plan couples different token positions, so the gradient only
        # vanishes when every compared row pair is equal: either all rows
        # identical under any plan, or equal sides under the identity plan
        row = np.random.default_rng(6).random(2)
        t = np.tile(row, (3, 1))
        np.testing.assert_array_equal(
            sd_grad(pair_of(t, t), np.full((3, 3), 1 / 3)), np.zeros_like(t)
        )
        t_distinct = np.random.default_rng(7).random((3, 2))
        np.testing.assert_array_equal(
            sd_grad(pair_of(t_distinct, t_distinct), np.eye(3)),
            np.zeros_like(t_distinct),
        )

    def test_single_token_reduces_to_sign(self):
        pair = pair_of([[0.7, 0.3]], [[0.4, 0.5]])
        np.testing.assert_allclose(sd_grad(pair, [[1.0]]), [[-1.0, 1.0]])

    def test_matches_finite_differences_with_plan_fixed(self):
        rng = np.random.default_rng(7)
        t = rng.random((3, 2))
        s = rng.random((3, 2))
        pair = pair_of(t, s)
        plan = sinkhorn_plan(seq_cost_matrix(pair), SinkhornConfig(0.5, 20))
        analytic = sd_grad(pair, plan)
        numeric = finite_diff_grad(
            lambda x: sd_loss(seq_cost_matrix(pair_of(t, x)), plan), s
        )
        assert check_gradient(analytic, numeric).passed

    @pytest.mark.parametrize("side", ["teacher", "student"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, side, value):
        # NaN has no rank, and inf - inf is NaN: neither has a sign.
        rng = np.random.default_rng(8)
        t, s = rng.random((3, 2)), rng.random((3, 2))
        (t if side == "teacher" else s)[1, 0] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            sd_grad(pair_of(t, s), np.full((3, 3), 1 / 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_plan(self, value):
        # As sd_loss does, rather than return a nan gradient.
        rng = np.random.default_rng(8)
        plan = np.full((3, 3), 1 / 3)
        plan[2, 0] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            sd_grad(pair_of(rng.random((3, 2)), rng.random((3, 2))), plan)

    def test_differences_past_the_float_range_keep_their_sign(self):
        pair = pair_of([[-1e308, 1e308]], [[1e308, -1e308]])
        np.testing.assert_array_equal(sd_grad(pair, [[1.0]]), [[1.0, -1.0]])


class TestRanks:
    """_sd_grad compares dense ranks unless its signs fit in half a chunk
    and the float values when they do; both must give the float
    comparisons' gradient bit for bit."""

    # Budgets of 1 and 50 entries split every call with T > 1 into blocks;
    # the default keeps these shapes in one block. The default chunk takes
    # the rank path past 2^15 signs and ranks 21845 // (2 B T) columns per
    # group (all of them here); chunks of 600 and 1 take it past 300 and 0
    # signs, in groups of 200 // (2 B T) columns and of one.
    @given(batch=st.integers(1, 3), tokens=st.integers(1, 40),
           k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([0, 2, 5]), gathered=st.booleans(),
           signed_zeros=st.booleans(),
           budget=st.sampled_from([1, 50, seq_ot._BLOCK_ENTRIES]),
           chunk=st.sampled_from([1, 600, core._CHUNK_ENTRIES]))
    @example(batch=2, tokens=9, k=4, seed=0, levels=2, gathered=True,
             signed_zeros=True, budget=50, chunk=core._CHUNK_ENTRIES)
    @example(batch=3, tokens=8, k=5, seed=1, levels=5, gathered=True,
             signed_zeros=True, budget=seq_ot._BLOCK_ENTRIES,
             chunk=core._CHUNK_ENTRIES)
    # Blocks of 25 // (B * T) teacher rows: 2, 2, 2, 2 and 1 of 9 rows, and
    # 2, 2 and 1 of 5 rows in each of two items.
    @example(batch=1, tokens=9, k=5, seed=2, levels=2, gathered=True,
             signed_zeros=True, budget=50, chunk=core._CHUNK_ENTRIES)
    @example(batch=2, tokens=5, k=6, seed=3, levels=2, gathered=False,
             signed_zeros=False, budget=50, chunk=core._CHUNK_ENTRIES)
    # One block ranked in groups of 5 and 4 columns of both items, and in
    # groups of one column.
    @example(batch=2, tokens=9, k=9, seed=4, levels=2, gathered=True,
             signed_zeros=True, budget=seq_ot._BLOCK_ENTRIES, chunk=600)
    @example(batch=1, tokens=30, k=7, seed=5, levels=5, gathered=False,
             signed_zeros=True, budget=seq_ot._BLOCK_ENTRIES, chunk=1)
    @settings(max_examples=80, deadline=None)
    def test_equals_float_comparisons(self, batch, tokens, k, seed, levels,
                                      gathered, signed_zeros, budget, chunk):
        rng = np.random.default_rng(seed)
        pairs = [tied_pair(tokens, k, seed + b, levels, gathered)
                 for b in range(batch)]
        t = np.stack([p.teacher for p in pairs])
        s = np.stack([p.student for p in pairs])
        if signed_zeros:
            # -0.0 ties 0.0: the two must share a rank.
            for x in (t, s):
                x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
        if gathered:
            t, s = t[..., ::-1], s[..., ::-1]  # not C-contiguous
        plan = rng.random((batch, tokens, tokens))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seq_ot, "_BLOCK_ENTRIES", budget)
            for module in (core, seq_ot):
                patch.setattr(module, "_CHUNK_ENTRIES", chunk)
            grad = seq_ot._sd_grad(t, s, plan)
            public = (sd_grad(AlignedPair(t[0], s[0]), plan[0])
                      if batch == 1 else None)
        expected = sd_grad_by_comparison(t, s, plan, budget)
        np.testing.assert_array_equal(grad, expected)
        assert grad.tobytes() == expected.tobytes()
        if public is not None:
            assert public.tobytes() == expected[0].tobytes()

    # Rows per block, budget // 2 // (B * T): 5 of 23 rows (blocks of 5, 5,
    # 5, 5 and 3), 4 of 17 rows in each of three items (4, 4, 4, 4 and 1),
    # and 41 of 97 rows (41, 41 and 15).
    @pytest.mark.parametrize("batch, tokens, k, budget", [
        (1, 23, 6, 2 * 23 * 5), (3, 17, 4, 2 * 3 * 17 * 4),
        (1, 97, 43, 2 * 97 * 41)])
    def test_row_blocks_that_do_not_divide_the_tokens(self, monkeypatch,
                                                      batch, tokens, k,
                                                      budget):
        rng = np.random.default_rng(tokens)
        pairs = [tied_pair(tokens, k, tokens + b, 5, True)
                 for b in range(batch)]
        t = np.stack([p.teacher for p in pairs])
        s = np.stack([p.student for p in pairs])
        plan = rng.random((batch, tokens, tokens))
        monkeypatch.setattr(seq_ot, "_BLOCK_ENTRIES", budget)
        grad = seq_ot._sd_grad(t, s, plan)
        assert grad.tobytes() == sd_grad_by_comparison(
            t, s, plan, budget).tobytes()
        for b in range(batch):
            np.testing.assert_allclose(
                grad[b], dense_sd_grad(t[b], s[b], plan[b]), rtol=0,
                atol=1e-12 * plan[b].sum(axis=0).max())

    def test_ties_share_a_rank(self):
        # One column of one item: teacher values (0.0, -0.0, 0.5), then
        # student values (0.5, 0.25, -0.0), ranked along the last axis.
        t = np.array([0.0, -0.0, 0.5]).reshape(1, 3, 1)
        s = np.array([0.5, 0.25, -0.0]).reshape(1, 3, 1)
        rank = seq_ot._ranks(t, s)
        np.testing.assert_array_equal(rank[0, 0, :3], [0, 0, 2])
        np.testing.assert_array_equal(rank[0, 0, 3:], [2, 1, 0])

    @pytest.mark.parametrize("values", [2**15, 2**15 + 2])
    def test_rank_differences_do_not_wrap(self, values):
        # The largest rank difference, 2T - 1, fits int16 at 2T = 2^15 and
        # not at 2T = 2^15 + 2, where the ranks must widen.
        tokens = values // 2
        rank = np.random.default_rng(values).permutation(values)
        rank[[0, rank.argmin()]] = rank[[rank.argmin(), 0]]
        rank[[-1, rank.argmax()]] = rank[[rank.argmax(), -1]]
        x = (rank / values).reshape(1, values, 1)
        got = seq_ot._ranks(x[:, :tokens], x[:, tokens:])
        t_rank, s_rank = got[..., :tokens], got[..., tokens:]
        np.testing.assert_array_equal(t_rank[0, 0], rank[:tokens])
        np.testing.assert_array_equal(s_rank[0, 0], rank[tokens:])
        # The kernel subtracts in the ranks' own dtype.
        widest = s_rank[..., -1:] - t_rank[..., :1]
        assert widest.dtype == t_rank.dtype
        assert widest.item() == values - 1


class TestRowBlocks:
    """seq_cost_matrix and sd_grad against the dense T x T x k formulas."""

    # T*T*k above 2^18 entries spans several blocks of teacher rows:
    # 120 x 120 x 60 gives 4, and 97 x 97 x 43 gives 2 of unequal size.
    @given(tokens=st.integers(1, 120), k=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([0, 2, 5]),
           gathered=st.booleans())
    @example(tokens=120, k=60, seed=0, levels=5, gathered=True)
    @example(tokens=97, k=43, seed=1, levels=2, gathered=True)
    @example(tokens=1, k=1, seed=2, levels=0, gathered=False)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense(self, tokens, k, seed, levels, gathered):
        pair = tied_pair(tokens, k, seed, levels, gathered)
        t, s = pair.teacher, pair.student
        plan = np.random.default_rng(seed).random((tokens, tokens))

        np.testing.assert_allclose(seq_cost_matrix(pair), dense_cost(t, s),
                                   rtol=1e-12, atol=0)
        grad = sd_grad(pair, plan)
        # Entries are signed sums over i of plan[i, j], so the rounding
        # error scales with each column's mass, not with the (possibly
        # cancelled) result.
        mass = plan.sum(axis=0)[:, None]
        assert (np.abs(grad - dense_sd_grad(t, s, plan)) <= 1e-12 * mass).all()
        # Where student[j, l] ties teacher[i, l] for every i, each sign is 0.
        all_tied = (s[None, :, :] == t[:, None, :]).all(axis=0)
        assert (grad[all_tied] == 0.0).all()

    @pytest.mark.parametrize("budget", [1, 50])
    def test_rows_wider_than_the_budget(self, monkeypatch, budget):
        # A gradient block never holds fewer than one teacher row; the cost
        # has no blocks and must not depend on the budget.
        monkeypatch.setattr(seq_ot, "_BLOCK_ENTRIES", budget)
        pair = tied_pair(13, 7, 3, 2, True)
        plan = np.random.default_rng(3).random((13, 13))
        np.testing.assert_allclose(
            seq_cost_matrix(pair), dense_cost(pair.teacher, pair.student),
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            sd_grad(pair, plan), dense_sd_grad(pair.teacher, pair.student, plan),
            rtol=0, atol=1e-12 * plan.sum(axis=0).max())

    def test_peak_memory_is_quadratic_in_tokens(self):
        tokens, k = 512, 50
        pair = tied_pair(tokens, k, 4, 0, True)
        plan = np.random.default_rng(4).random((tokens, tokens))
        # The peak is in sd_grad, with the returned T x T cost (T^2 float64
        # entries) alive, and its two phases hold about the same: the sort
        # behind the ranks holds the values' concatenation and their sort
        # order (2*T*k entries each) and the int16 ranks (T*k/2 entries'
        # worth each, two arrays); the blocks hold at most 2^18 int16 signs
        # across the threads (2^16 entries' worth of bytes; no float64 copy
        # of them), the int16 ranks, the gradient, its C-ordered copy and
        # one einsum partial per thread (T*k each at most). The cost
        # call alone holds at most T^2 + 2*T*k
        # (test_cost_holds_only_its_output). That is 3.3 MB here; the
        # bound, 10.5 MB, allows about three times that, a tenth of the
        # 105 MB that one dense T x T x k difference takes.
        bound = 2 * 8 * (tokens**2 + 2**18 + 2**15 + 4 * tokens * k)
        tracemalloc.start()
        try:
            cost = seq_cost_matrix(pair)
            sd_grad(pair, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cost.shape == (tokens, tokens)
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    def test_cost_holds_only_its_output(self):
        tokens, k = 512, 50
        pair = tied_pair(tokens, k, 5, 0, True)
        assert not pair.teacher.flags.c_contiguous
        # The T x T output, plus at most a contiguous copy of each T x k
        # input: 2.5 MB here. One block of T x T x k row differences alone
        # would add 2^18 entries (2 MB).
        bound = 8 * (tokens**2 + 2 * tokens * k)
        tracemalloc.start()
        try:
            cost = seq_cost_matrix(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(cost, dense_cost(pair.teacher, pair.student),
                                   rtol=1e-12, atol=0)
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


class TestTransport:
    """The fused pass's one sequence-level stage, seq_ot._transport: the
    cost, plan and sd of a build, the stored sd of a state at its own
    student, and the product s * (weight * dsd/ds) the backward reads."""

    CFG = SinkhornConfig()

    @staticmethod
    def stacks(seed, batch=2, tokens=9, k=5):
        # Kept probabilities as the fused pass gathers them: (B, T, k) rows
        # of a wider softmax, not C-contiguous.
        rng = np.random.default_rng(seed)
        t, s = (rng.dirichlet(np.ones(k + 2), (batch, tokens))[..., :k]
                for _ in range(2))
        return t, s

    @pytest.fixture
    def costs(self, monkeypatch):
        calls, cost = [], seq_ot._cost

        def counted(*args):
            calls.append(args)
            return cost(*args)

        monkeypatch.setattr(seq_ot, "_cost", counted)
        return calls

    def test_without_a_plan_it_builds_the_cost_plan_and_sd(self):
        t, s = self.stacks(1)
        plan, sd, product = seq_ot._transport(t, s, self.CFG)
        cost = seq_ot._cost(t, s)
        expected = seq_ot._plan(cost, self.CFG)
        assert plan.tobytes() == expected.tobytes()
        assert sd.tobytes() == seq_ot._sd(cost, expected).tobytes()
        assert product is None

    @pytest.mark.parametrize("copy", [False, True])
    def test_the_stored_student_reads_the_stored_sd(self, costs, copy):
        t, s = self.stacks(2)
        plan, sd, _ = seq_ot._transport(t, s, self.CFG)
        costs.clear()
        student = s.copy() if copy else s
        got = seq_ot._transport(t, student, self.CFG, plan, (s, sd))
        assert got[0] is plan and got[1] is sd and costs == []

    def test_another_student_builds_one_cost_when_a_value_is_asked(
            self, costs):
        t, s = self.stacks(3)
        plan, sd, _ = seq_ot._transport(t, s, self.CFG)
        nudged = s.copy()
        nudged[1, 4, 2] += 1e-9
        costs.clear()
        got = seq_ot._transport(t, nudged, self.CFG, plan, (s, sd))[1]
        assert len(costs) == 1
        expected = seq_ot._sd(seq_ot._cost(t, nudged), plan)
        assert got.tobytes() == expected.tobytes() != sd.tobytes()
        # A copied state holds no stored loss: (None, None).
        costs.clear()
        got = seq_ot._transport(t, s, self.CFG, plan, (None, None))[1]
        assert len(costs) == 1 and got.tobytes() == sd.tobytes()
        # No value asked for: no cost and no sd, with or without a product,
        # whatever is stored.
        costs.clear()
        for weight in (0.0, 0.3):
            assert seq_ot._transport(t, nudged, self.CFG, plan, (s, sd),
                                     weight, loss=False)[1] is None
        assert costs == []

    @pytest.mark.parametrize("stored", [False, True])
    def test_the_product_is_a_new_array_and_writes_no_input(self, stored):
        t, s = self.stacks(4)
        plan, sd, _ = seq_ot._transport(t, s, self.CFG)
        before = s.copy()
        weight = 0.37
        product = seq_ot._transport(t, s, self.CFG, plan,
                                    (s, sd) if stored else None, weight)[2]
        # Scaled in place in the kernel's own array: multiplication is
        # commutative, so these are the bytes of a product in a new array.
        expected = s * (weight * seq_ot._sd_grad(t, s, plan))
        assert product.tobytes() == expected.tobytes()
        assert product is not s and s.tobytes() == before.tobytes()
        # C-ordered as that new array, so the backward sums each row of it
        # in the same order.
        assert product.flags.c_contiguous

    def test_a_batch_equals_its_items_stacked(self):
        t, s = self.stacks(5, batch=3)
        nudged = s + 1e-3 * self.stacks(6, batch=3)[1]
        batch = seq_ot._transport(t, s, self.CFG, weight=0.2)
        given = seq_ot._transport(t, nudged, self.CFG, batch[0],
                                  (s, batch[1]), 0.2)
        for b in range(t.shape[0]):
            item = slice(b, b + 1)
            one = seq_ot._transport(t[item], s[item], self.CFG, weight=0.2)
            one_given = seq_ot._transport(t[item], nudged[item], self.CFG,
                                          one[0], (s[item], one[1]), 0.2)
            for got, want in zip(batch + given, one + one_given):
                assert got[b].tobytes() == want[0].tobytes()

    def test_a_gradient_call_enters_it_with_few_kept_arrays_alive(
            self, monkeypatch):
        # total_grad with a state at T = 256: what is live when the stage
        # starts is the returned gradient, which holds the tau_sl softmax,
        # the gathered tau_sd student, (T, k), and (T,) normalizers and
        # labels. The stage runs before the token level: entering it with
        # the token level's (T, k) arrays alive (its kept student and the
        # had and sl gradients) would add three, where one is allowed.
        tokens, m, n = 256, 300, 400
        rng = np.random.default_rng(256)
        t, s = (rng.standard_normal((tokens, v)) * 3.0 for v in (m, n))
        w = LossWeights()
        state = build_state(t, s, w=w)
        live, stage = [], composite._transport

        def traced(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return stage(*args)

        monkeypatch.setattr(composite, "_transport", traced)
        tracemalloc.start()
        try:
            total_grad(t, s, w=w, state=state)
        finally:
            tracemalloc.stop()
        kept = 8 * tokens * w.k
        bound = 8 * tokens * n + 2 * kept
        assert len(live) == 1 and live[0] < bound, (live, bound)
