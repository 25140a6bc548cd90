import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otdistill import (InvalidConfig, InvalidInput, NumericalFailure, safe_log,
                       softmax_backward, softmax_rows, validate_probs)
from otdistill import core
from otdistill.core import _softmax_level, _softmax_pass
from refimpl import _softmax, shifted_exp, softmax_by_division

finite_logit_rows = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 4), st.integers(2, 6)),
    elements=st.floats(-30, 30),
)


class TestSoftmaxRows:
    def test_uniform_on_equal_logits(self):
        out = softmax_rows([[0.0, 0.0, 0.0]], 1.0)
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_exp_ratio(self):
        out = softmax_rows([[np.log(4.0), 0.0]], 1.0)
        np.testing.assert_allclose(out, [[0.8, 0.2]], atol=1e-12)

    def test_temperature_rescales_logits(self):
        out = softmax_rows([[2.0, 0.0]], 2.0)
        np.testing.assert_allclose(out, [[0.731059, 0.268941]], atol=1e-6)
        np.testing.assert_allclose(out, softmax_rows([[1.0, 0.0]], 1.0))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(rng.standard_normal((5, 9)) * 50, 0.7)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(finite_logit_rows, st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, shift):
        shifted = logits + shift
        np.testing.assert_allclose(
            softmax_rows(logits), softmax_rows(shifted), atol=1e-12
        )

    @pytest.mark.parametrize("tau", [
        1e-300, np.nextafter(1 / np.finfo(float).max, 1.0)])
    def test_tiny_temperatures_give_one_hot_rows(self, tau):
        # Scaled by 1 / tau, every difference from the row's max falls far
        # below exp's range (or to -inf), whose exp is 0, also at the least
        # temperature, whose reciprocal is just below float max; the max
        # itself stays 0 * (1 / tau) = 0, whose exp is 1.
        assert 1.0 / tau < np.inf
        logits = np.array([[3.0, -1.0, 0.5, 2.0], [0.0, 1e-3, -5.0, 1.0]])
        np.testing.assert_array_equal(softmax_rows(logits, tau),
                                      np.eye(4)[logits.argmax(axis=1)])

    def test_large_temperature_flattens(self):
        row = np.array([[3.0, -1.0, 0.5, 2.0]])
        spread = lambda p: p.max() - p.min()
        assert spread(softmax_rows(row, 10.0)) < spread(softmax_rows(row, 1.0))

    @given(finite_logit_rows, st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_argmax_preserved(self, logits, tau):
        # near-ties can flip argmax once the gap falls below float resolution
        top2 = np.sort(logits, axis=1)[:, -2:]
        assume(np.all(top2[:, 1] - top2[:, 0]
                      > 1e-9 * (1.0 + np.abs(top2).max())))
        out = softmax_rows(logits, tau)
        np.testing.assert_array_equal(
            out.argmax(axis=1), logits.argmax(axis=1)
        )

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            softmax_rows([[0.0, np.nan]])

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InvalidConfig):
            softmax_rows([[0.0, 1.0]], 0.0)
        with pytest.raises(InvalidConfig):
            softmax_rows([[0.0, 1.0]], -1.0)
        probs = np.array([[0.25, 0.75]])
        for tau in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidConfig):
                softmax_backward(probs, np.ones_like(probs), tau)

    def test_rejects_single_column(self):
        with pytest.raises(InvalidInput):
            softmax_rows([[1.0]])

    def test_no_overflow_on_huge_logits(self):
        out = softmax_rows([[1e300, 0.0]])
        assert np.isfinite(out).all()

    def test_no_overflow_when_temperature_scales_past_float_max(self):
        # 1e308 / 0.5 overflows; the max is subtracted before the division
        np.testing.assert_array_equal(softmax_rows([[1e308, 0.0]], 0.5),
                                      [[1.0, 0.0]])


class TestSafeLog:
    def test_half(self):
        assert safe_log(0.5) == pytest.approx(-0.693147, abs=1e-6)

    def test_one(self):
        assert safe_log(1.0) == 0.0

    def test_zero_hits_floor(self):
        assert safe_log(0.0) == pytest.approx(np.log(1e-12))
        assert safe_log(0.0) == pytest.approx(-27.6310, abs=1e-4)

    def test_monotone(self):
        ps = np.linspace(0, 1, 101)
        vals = safe_log(ps)
        assert (np.diff(vals) >= 0).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            safe_log(1.5)
        with pytest.raises(InvalidInput):
            safe_log(-0.1)


class TestValidateProbs:
    @pytest.mark.parametrize("probs", [[[1.5, -0.5]], [[0.5, 0.5], [-0.1, 1.1]]])
    def test_rejects_entries_outside_the_unit_interval(self, probs):
        # Each row sums to 1: only the range is at fault.
        with pytest.raises(InvalidInput, match=r"\[0, 1\]"):
            validate_probs(probs)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_rejects_a_row_sum_off_by_more_than_tol(self, tol):
        probs = np.array([[0.5, 0.5], [0.25, 0.75 + 2 * tol + 1e-6]])
        with pytest.raises(InvalidInput, match="sum to 1"):
            validate_probs(probs, tol=tol)
        # Within tol it passes as it came.
        probs[1, 1] = 0.75 + tol / 2
        np.testing.assert_array_equal(validate_probs(probs, tol=tol), probs)


class TestSoftmaxBackward:
    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_matches_finite_differences(self, tau):
        from otdistill import check_gradient, finite_diff_grad

        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 5))
        weights = rng.standard_normal((2, 5))

        def loss(x):
            return float((weights * softmax_rows(x, tau)).sum())

        probs = softmax_rows(z, tau)
        analytic = softmax_backward(probs, weights, tau)
        numeric = finite_diff_grad(loss, z)
        assert check_gradient(analytic, numeric).passed

    def test_a_gradient_past_the_float_range_raises_numerical_failure(self):
        # Finite inputs, but inner - grad_probs and the division by tau pass
        # the float range: a typed error, not numpy's RuntimeWarning (an
        # error under the suite's filter).
        with pytest.raises(NumericalFailure):
            softmax_backward(softmax_rows([[0, 1, 2]]), [[1e10, -3e10, 2e10]],
                             1e-308)


def both_levels(z, taus):
    # The pass's first temperature finished in place from the exponentials
    # it left in its output (core._held), and the second computed whole
    # from its normalizers.
    held = np.empty(z.shape)
    top, totals, sums, _ = _softmax_pass(z, taus, sums=True, out=held)
    second = _softmax_level(z, taus, 1, (top, totals[1]),
                            out=np.empty(z.shape))
    first = _softmax_level(z, taus, 0, (top, totals[0]), held, out=held)
    return [first, second], sums


class TestSquaringRule:
    """Of a pass's two temperatures, one exactly twice the other, only the
    larger is exponentiated and the smaller's exponentials are its squares
    (core._squared); the builder of a level reads the same rule, so every
    entry it builds is the pass's own. Any other pair takes both
    exponentials."""

    Z = np.random.default_rng(7).standard_normal((2, 3, 40)) * 3.0

    @pytest.mark.parametrize("taus", [(1.0, 2.0), (2.0, 1.0)])
    def test_the_smaller_temperature_squares_the_larger(self, exponentials,
                                                        taus):
        _softmax_pass(self.Z, taus, sums=True)
        assert exponentials == {40: self.Z.size}
        probs, sums = both_levels(self.Z, taus)
        for tau, p, colsum in zip(taus, probs, sums):
            assert np.array_equal(p, _softmax(self.Z, tau, taus))
            assert np.array_equal(colsum, p.sum(axis=-2))
        # Squared, the tau = 1 softmax differs from the direct one in its
        # last bits, and both lie within a few ulp of the division form.
        squared = probs[taus.index(1.0)]
        assert not np.array_equal(squared, _softmax(self.Z, 1.0))
        np.testing.assert_allclose(squared, softmax_by_division(self.Z, 1.0),
                                   rtol=1e-14)

    @pytest.mark.parametrize("taus", [(1.0, np.nextafter(2.0, 3.0)),
                                      (0.7, 3.0), (1.0, 1.0)])
    def test_other_pairs_take_both_exponentials(self, exponentials, taus):
        _softmax_pass(self.Z, taus, sums=True)
        assert exponentials == {40: 2 * self.Z.size}
        probs, _ = both_levels(self.Z, taus)
        for tau, p in zip(taus, probs):
            assert np.array_equal(p, _softmax(self.Z, tau))

    def test_one_temperature_takes_its_own_exponentials(self, exponentials):
        assert np.array_equal(softmax_rows(self.Z[0], 1.0),
                              _softmax(self.Z[0], 1.0))
        assert exponentials == {40: self.Z[0].size}

    def test_an_argmax_beside_held_exponentials_is_the_softmaxs(self):
        # At (2, 1) out holds the unnormalized tau = 2 exponentials, and the
        # pass takes the argmax from them: rows whose top two logits tie or
        # lie 1 to 7 ulp apart give the normalized softmax's argmax.
        rng = np.random.default_rng(8)
        z = rng.standard_normal((2, 40, 12))
        top = z.max(axis=-1)
        z[..., 3] = top
        z[..., 7] = top - rng.integers(0, 8, top.shape) * np.spacing(top)
        held = np.empty(z.shape)
        best = _softmax_pass(z, (2.0, 1.0), argmax=True, out=held)[3]
        np.testing.assert_array_equal(
            best, _softmax(z, 2.0, (2.0, 1.0)).argmax(axis=-1))

    def test_squares_near_the_underflow_stay_within_tiny(self):
        # At tau_sl = 1 these entries sit around exp's underflow (about
        # -745), where exp(x / 2)^2 is subnormal or 0: they round to
        # absolute, not relative, precision, and the others to a few ulp.
        row = -np.array([0.0, 1.0, 700.0, 740.0, 744.0, 744.5, 745.0, 745.2,
                         746.0, 800.0, 1500.0])
        z = row[None, None] * np.array([1.0, 1.0003])[:, None, None]
        (probs, _), _ = both_levels(z, (1.0, 2.0))
        tiny = np.finfo(float).tiny
        assert (probs >= 0).all()
        division = softmax_by_division(z, 1.0)
        assert (np.abs(probs - division) <= 1e-14 * division + tiny).all()
        assert (probs[division < tiny] <= tiny).all()

    def test_tiny_temperatures_give_one_hot_rows(self):
        # 2e-300 is exactly twice 1e-300, so the pass squares: every entry
        # but the row's max scales to -inf or far below exp's range.
        logits = np.array([[[3.0, -1.0, 0.5, 2.0], [0.0, 1e-3, -5.0, 1.0]]])
        probs, _ = both_levels(logits, (1e-300, 2e-300))
        one_hot = np.eye(4)[logits.argmax(axis=-1)]
        for p in probs:
            np.testing.assert_array_equal(p, one_hot)


class TestHeldExponentials:
    """A pass given an out leaves there the unnormalized exponentials
    exp((z - max) / tau) of the level core._held names, and nothing else
    writes them: at a doubled pair in either order (the larger
    temperature's), at a pair that is not doubled, at equal temperatures
    and at one temperature (the first's). Every level the builder makes
    from them or from the normalizers is the reference's, bit for bit.
    Blocks of one row (a budget of 40 entries) hand column sums between
    blocks, where out's level is normalized in a buffer."""

    Z = TestSquaringRule.Z
    PAIRS = [(1.0, 2.0), (2.0, 1.0), (0.7, 3.1), (1.5, 1.5), (0.7,)]

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("taus", PAIRS)
    def test_a_pass_leaves_the_held_levels_exponentials(self, monkeypatch,
                                                        taus, budget):
        if budget is not None:
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", budget)
        want = shifted_exp(self.Z, taus[core._held(taus)])
        for flags in ({}, {"sums": True, "argmax": True}):
            held = np.empty(self.Z.shape)
            _softmax_pass(self.Z, taus, out=held, **flags)
            assert np.array_equal(held, want)
        for tau in taus:
            assert np.array_equal(softmax_rows(self.Z[1], tau),
                                  _softmax(self.Z[1], tau))

    @pytest.mark.parametrize("taus", PAIRS)
    def test_every_level_the_builder_makes_is_the_references(self, taus):
        # Whole and at kept columns from the normalizers, and whole from
        # the held exponentials (where the level is not built from them,
        # from the normalizers again), into a new array each.
        held = np.empty(self.Z.shape)
        top, totals, _, _ = _softmax_pass(self.Z, taus, out=held)
        cols = np.array([[[5, 0, 39]]])
        for i, tau in enumerate(taus):
            want = _softmax(self.Z, tau, taus)
            normalizers = (top, totals[i])
            for got in (_softmax_level(self.Z, taus, i, normalizers),
                        _softmax_level(self.Z, taus, i, normalizers, held)):
                assert np.array_equal(got, want)
            assert np.array_equal(
                _softmax_level(self.Z, taus, i, normalizers, cols=cols),
                want[..., cols[0, 0]])
        assert np.array_equal(held, shifted_exp(self.Z,
                                                taus[core._held(taus)]))


class TestCores:
    # Where the platform has no affinity masks, the cores are the CPU count,
    # or one when the count is unknown.
    @pytest.mark.parametrize("count, cores", [(6, 6), (None, 1)])
    def test_without_affinity_masks_the_cpu_count(self, monkeypatch, count,
                                                   cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert core._cores() == cores
