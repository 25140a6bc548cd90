import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otdistill import (BRUTE_FORCE, AlignedPair, InvalidConfig, InvalidInput,
                       NumericalUnderflow, SinkhornConfig, check_gradient,
                       exact_ot, finite_diff_grad, sd_grad, sd_loss,
                       seq_cost_matrix, sinkhorn_plan, softmax_rows)
from otdistill import seq_ot
from refimpl import sinkhorn_scaling_form, two_by_two_sinkhorn_limit

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
        # A block never holds fewer than one teacher row.
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
        # Live at the peak, in float64 entries: the returned T x T cost
        # (T^2), one block of row differences (2^18 entries, as T*k is
        # below that) plus its boolean comparison (2^15 entries' worth of
        # bytes), the two C-contiguous input copies, the gradient and one
        # einsum partial (T*k each). That is 5.3 MB here; the bound allows
        # twice that, a tenth of the 105 MB that one dense T x T x k
        # difference takes.
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
