import importlib
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from otdistill import (EXACT_ASSIGNMENT, SUM_SORT, AlignedPair, DistillConfig,
                       InvalidConfig, InvalidInput, LossWeights,
                       NumericalFailure, SinkhornConfig, build_state, ce_loss, check_gradient,
                       finite_diff_grad, run_distillation, sd_loss,
                       seq_cost_matrix, softmax_rows, total_grad, total_loss,
                       total_loss_frozen)
from otdistill import cli, composite, core, fileio, seq_ot
from otdistill.composite import CE_ONLY, MULTILEVEL_OT, ULD, _pseudo_labels
from otdistill.core import _BLOCK_ENTRIES, _CHUNK_ENTRIES
from otdistill.preprocess import RankSelection, _descending_stable
from refimpl import _softmax, backward_by_levels

SMALL = LossWeights(k=4, sinkhorn=SinkhornConfig(0.5, 20))


def random_pair(seed, tokens=3, m=8, n=6, scale=2.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((tokens, m)) * scale,
            rng.standard_normal((tokens, n)) * scale)


class TestCeLoss:
    def test_half_probability(self):
        probs = np.array([[0.5, 0.5]])
        value, _ = ce_loss(probs, [0])
        assert value == pytest.approx(0.693147, abs=1e-6)

    def test_certain_label_zero_loss(self):
        value, grad = ce_loss(np.array([[1.0, 0.0]]), [0])
        assert value == 0.0
        np.testing.assert_allclose(grad, [[0.0, 0.0]])

    def test_two_tokens_add(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        value, _ = ce_loss(probs, [0, 0])
        assert value == pytest.approx(0.693147 + 1.386294, abs=1e-6)

    def test_grad_is_probs_minus_onehot(self):
        probs = softmax_rows(np.array([[1.0, 0.0, -1.0]]))
        _, grad = ce_loss(probs, [2])
        expected = probs.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(grad, expected)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(InvalidInput):
            ce_loss(np.array([[0.5, 0.5]]), [2])

    @pytest.mark.parametrize("label", [1.7, np.nan])
    def test_rejects_non_integer_label(self, label):
        with pytest.raises(InvalidInput):
            ce_loss(np.array([[0.5, 0.5], [0.5, 0.5]]), [0.0, label])

    def test_accepts_integral_float_labels(self):
        value, _ = ce_loss(np.array([[0.5, 0.5]]), np.array([1.0]))
        assert value == pytest.approx(np.log(2.0))


class TestLossWeights:
    @pytest.mark.parametrize("field, value", [
        ("tau_sl", np.nan), ("tau_sl", np.inf), ("tau_sd", np.nan),
        ("tau_sd", np.inf), ("tau_sl", 0.0), ("k", 2.5), ("k", 0),
        ("alpha", -1.0), ("match_mode", "bogus"),
    ])
    def test_rejects_with_invalid_config(self, field, value):
        with pytest.raises(InvalidConfig):
            LossWeights(**{field: value})

    def test_non_integer_labels_rejected_not_truncated(self):
        t, s = random_pair(9)
        with pytest.raises(InvalidInput):
            total_loss(t, s, [0.0, 1.7, 2.0], SMALL)
        with pytest.raises(InvalidInput):
            build_state(t, s, np.array([0.0, 1.7, 2.0]), SMALL)

    @pytest.mark.parametrize("label", [1e300, -1e300])
    def test_labels_past_the_int_range_are_out_of_range(self, label):
        # Range-checked before the int cast, which would warn (an error
        # under the test settings) and wrap.
        t, s = random_pair(9)
        with pytest.raises(InvalidInput, match="out of range"):
            total_loss(t, s, np.full(t.shape[0], label), SMALL)
        with pytest.raises(InvalidInput, match="out of range"):
            ce_loss(np.array([[0.5, 0.5]]), [label])


class TestTotalLoss:
    def test_combination_formula(self):
        # weighted combination with the default alpha/beta/gamma
        assert 1.0 + 0.15 * (0.2 + 0.1 * 0.5 + 0.1 * 0.1) == pytest.approx(1.039)

    def test_breakdown_total_is_exact_recombination(self):
        t, s = random_pair(0)
        b = total_loss(t, s, w=SMALL)
        assert b.total == b.ce + SMALL.alpha * (
            b.had + SMALL.beta * b.sl + SMALL.gamma * b.sd
        )

    def test_identical_models_labeled(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 6)) * 2
        labels = softmax_rows(logits).argmax(axis=1)
        b = total_loss(logits, logits, labels, SMALL)
        assert b.had == pytest.approx(0.0, abs=1e-12)
        assert b.sl > 0.0  # cross-entropy equals entropy, not zero
        # the heavily regularized plan still pays off-diagonal cost; a tight
        # regularization drives the plan to the identity and sd to zero
        tight = replace(SMALL, sinkhorn=SinkhornConfig(0.01, 200))
        assert total_loss(logits, logits, labels, tight).sd == pytest.approx(
            0.0, abs=1e-6
        )

    def test_alpha_zero_reduces_to_ce(self):
        t, s = random_pair(2)
        labels = [0, 1, 2]
        w0 = replace(SMALL, alpha=0.0)
        b = total_loss(t, s, labels, w0)
        assert b.total == b.ce

    def test_gamma_monotone(self):
        t, s = random_pair(3)
        lo = total_loss(t, s, w=replace(SMALL, gamma=0.1))
        hi = total_loss(t, s, w=replace(SMALL, gamma=0.5))
        assert lo.sd > 0.0
        assert hi.total >= lo.total

    def test_nonnegative_components(self):
        for seed in range(10):
            t, s = random_pair(seed)
            b = total_loss(t, s, w=SMALL)
            assert b.ce >= 0 and b.had >= 0 and b.sl >= 0 and b.sd >= 0

    def test_pseudo_label_consistency_same_model(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 5)) * 2
        probs = softmax_rows(logits)
        expected, _ = ce_loss(probs, probs.argmax(axis=1))
        b = total_loss(logits, logits, labels=None, w=SMALL)
        assert b.ce == pytest.approx(expected, abs=1e-12)

    def test_row_count_alignment(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((5, 6))
        s = rng.standard_normal((3, 6))
        b = total_loss(t, s, w=SMALL)
        b_trunc = total_loss(t[:3], s, w=SMALL)
        assert b.total == pytest.approx(b_trunc.total, abs=1e-12)

    def test_k_eff_reported(self):
        t, s = random_pair(6)
        b = total_loss(t, s, w=replace(SMALL, k=50))
        assert b.k_eff == 6


class TestTotalGrad:
    def test_alpha_zero_is_ce_gradient(self):
        t, s = random_pair(7)
        labels = np.array([0, 1, 2])
        w0 = replace(SMALL, alpha=0.0)
        grad = total_grad(t, s, labels, w0)
        probs = softmax_rows(s, w0.tau_sl)
        expected = probs.copy()
        expected[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(grad, expected / w0.tau_sl, atol=1e-12)

    def test_identical_models_distill_grads_vanish(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((3, 5)) * 2
        # with sign(0)=0 the token-level absolute-difference term vanishes at
        # equality; the sequence term compares *different* tokens through the
        # plan, so it is excluded here via gamma=0
        g_full = total_grad(logits, logits, w=replace(SMALL, beta=0.0, gamma=0.0))
        g_ce = total_grad(logits, logits, w=replace(SMALL, alpha=0.0))
        np.testing.assert_allclose(g_full, g_ce, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        t, s = random_pair(seed + 20)
        w = replace(SMALL, k=4)
        state = build_state(t, s, None, w)
        analytic = total_grad(t, s, w=w, state=state)
        numeric = finite_diff_grad(
            lambda x: total_loss_frozen(state, t, x, w).total, s
        )
        assert check_gradient(analytic, numeric, rel_tol=1e-4).passed

    def test_labeled_matches_finite_differences(self):
        t, s = random_pair(30)
        labels = np.array([1, 0, 3])
        state = build_state(t, s, labels, SMALL)
        analytic = total_grad(t, s, labels, SMALL, state=state)
        numeric = finite_diff_grad(
            lambda x: total_loss_frozen(state, t, x, SMALL).total, s
        )
        assert check_gradient(analytic, numeric, rel_tol=1e-4).passed

    def test_saturated_labels_raise_no_warning(self):
        # At this scale each softmax row is one-hot, so most label
        # probabilities are exactly 0; their -1/p upstream term is skipped
        # (the floor), not evaluated as 1/0.
        t, s = random_pair(31, scale=1e300)
        labels = np.array([0, 1, 2])
        assert (softmax_rows(s, SMALL.tau_sl)[np.arange(3), labels] == 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = total_grad(t, s, labels, SMALL)
        assert np.isfinite(grad).all()


    @pytest.mark.parametrize("state", [False, True])
    def test_a_gradient_past_the_float_range_raises_numerical_failure(
            self, state):
        # The loss is not computed, and its weights carry the sparse
        # products past the float range: NumericalFailure, no warning.
        rng = np.random.default_rng(0)
        t, s = rng.normal(size=(3, 6)) * 3, rng.normal(size=(3, 5)) * 3
        w = LossWeights(alpha=1e308, beta=1.0)
        given = build_state(t, s, w=w) if state else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="gradient"):
                total_grad(t, s, w=w, state=given)

    def test_a_gradient_near_the_float_range_is_returned_finite(self):
        # The check bounds the backward's sums: gradients of about 1e300
        # stay finite and are returned.
        t, s = random_pair(35)
        grad = total_grad(t, s, w=replace(SMALL, alpha=1e300))
        assert np.isfinite(grad).all() and np.abs(grad).max() > 1e290


class TestFrozenState:
    """A state only fits logits of the shapes it was built from."""

    STATE_SHAPES = ((3, 5), (3, 4))

    @pytest.mark.parametrize("teacher, student", [
        ((3, 5), (3, 3)),   # fewer student columns: used to index past them
        ((3, 5), (3, 9)),   # more student columns: used to return a wrong loss
        ((3, 7), (3, 4)),   # another teacher vocabulary
        ((2, 5), (2, 4)),   # another token count
    ])
    def test_rejects_other_shapes(self, teacher, student):
        rng = np.random.default_rng(32)
        state = build_state(*(rng.standard_normal(shape)
                              for shape in self.STATE_SHAPES), w=SMALL)
        t, s = rng.standard_normal(teacher), rng.standard_normal(student)
        with pytest.raises(InvalidInput):
            total_loss_frozen(state, t, s, SMALL)
        with pytest.raises(InvalidInput):
            total_grad(t, s, w=SMALL, state=state)

    def test_rejects_another_teacher(self):
        # Same shape, one kept logit changed: the state's frozen teacher
        # probabilities would silently be wrong for it.
        t, s = random_pair(33)
        state = build_state(t, s, w=SMALL)
        other = t.copy()
        other[1, state.rank.teacher_perm[0]] += 0.5
        with pytest.raises(InvalidInput):
            total_loss_frozen(state, other, s, SMALL)
        with pytest.raises(InvalidInput):
            total_grad(other, s, w=SMALL, state=state)
        # A state that holds no teacher logits is tied to no teacher.
        state = replace(state, teacher_logits=None)
        with pytest.raises(InvalidInput, match="no teacher logits"):
            total_loss_frozen(state, t, s, SMALL)
        with pytest.raises(InvalidInput, match="no teacher logits"):
            total_grad(t, s, w=SMALL, state=state)

    @pytest.mark.parametrize("field", ["tau_sl", "tau_sd"])
    def test_rejects_other_temperatures(self, field):
        t, s = random_pair(34)
        state = build_state(t, s, w=SMALL)
        w = replace(SMALL, **{field: getattr(SMALL, field) * 1.5})
        with pytest.raises(InvalidConfig):
            total_loss_frozen(state, t, s, w)
        with pytest.raises(InvalidConfig):
            total_grad(t, s, w=w, state=state)


class TestStoredSequenceLoss:
    """The state build_state returns keeps its own student's sequence loss,
    so total_loss_frozen at that student computes no T x T cost, and at
    any other student computes it once. At T = 400 the cost and the plan
    split across threads on two or more cores; exact matching's limit
    keeps the vocabularies small.
    """

    TOKENS, M, N = 400, 40, 30

    @pytest.fixture
    def costs(self, monkeypatch):
        calls, cost = [], seq_ot._cost

        def counted(*args):
            calls.append(args)
            return cost(*args)

        monkeypatch.setattr(seq_ot, "_cost", counted)
        return calls

    @staticmethod
    def components(breakdown):
        return ([float(getattr(breakdown, f)).hex()
                 for f in ("ce", "had", "sl", "sd", "total")]
                + [a.tobytes() for rank in (breakdown.rank, breakdown.rank_seq)
                   for a in (rank.teacher_perm, rank.student_perm)])

    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    def test_the_build_student_reads_the_stored_loss(self, monkeypatch, mode):
        t, s = random_pair(38, self.TOKENS, self.M, self.N)
        w = LossWeights(match_mode=mode)
        state = build_state(t, s, w=w)
        assert state.student_seq.shape == (self.TOKENS, state.rank_seq.k)

        def no_cost(*args):
            raise AssertionError("the sequence cost was computed again")

        with monkeypatch.context() as patched:
            patched.setattr(seq_ot, "_cost", no_cost)
            stored = total_loss_frozen(state, t, s, w)
        through_cost = total_loss_frozen(replace(state), t, s, w)
        assert self.components(stored) == self.components(through_cost)
        # The state a gradient call builds keeps them too: its backward
        # reads the state's probabilities and does not write into them.
        built = composite._forward(t[None], s[None], w,
                                   grad=composite.MULTILEVEL_OT)[0]
        assert np.array_equal(built.student_seq[0], state.student_seq)
        assert built.sd[0] == state.sd

    @pytest.mark.parametrize("name", ["plan", "teacher_seq"])
    def test_a_copy_with_another_plan_or_teacher_computes_its_loss(
            self, costs, name):
        # dataclasses.replace drops the stored loss, which was the build
        # plan's against the build teacher.
        t, s = random_pair(38, 16, self.M, self.N)
        state = build_state(t, s)
        other = build_state(*random_pair(41, 16, self.M, self.N))
        copy = replace(state, **{name: getattr(other, name)})
        assert copy.student_seq is None and copy.sd is None
        sd = total_loss_frozen(copy, t, s).sd
        assert len(costs) == 3
        kept = softmax_rows(s, state.tau_sd)[
            :, state.rank_seq.student_perm[:state.rank_seq.k]]
        fresh = sd_loss(seq_cost_matrix(
            AlignedPair(teacher=copy.teacher_seq, student=kept)), copy.plan)
        assert sd == pytest.approx(fresh, rel=1e-12)
        assert sd != pytest.approx(state.sd, rel=1e-3)

    def test_another_student_computes_the_cost_once(self, costs):
        t, s = random_pair(39, self.TOKENS, self.M, self.N)
        state = build_state(t, s)
        nudged = s.copy()
        nudged[7, state.rank_seq.student_perm[0]] += 1e-6
        counts = [len(costs)]
        for student in (s, nudged, s):
            total_loss_frozen(state, t, student)
            counts.append(len(costs))
        assert counts == [1, 1, 2, 2]


class TestUnreadValues:
    """A call computes no value that nothing reads: a gradient call without
    a state, which drops the state it builds, no transport value sd, and a
    call whose objective reads no token gradient (a loss alone, or the
    ce_only and uld objectives) neither had's nor sl's."""

    @staticmethod
    def counted(monkeypatch, module, names):
        calls = []
        for name in names:
            def wrapper(*args, kernel=getattr(module, name), name=name):
                calls.append(name)
                return kernel(*args)
            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_sd_only_where_a_loss_or_a_state_reads_it(self, monkeypatch):
        calls = self.counted(monkeypatch, seq_ot, ["_sd"])
        t, s = random_pair(60)
        counts = []
        for call in (lambda: total_grad(t, s), lambda: total_loss(t, s),
                     lambda: build_state(t, s)):
            calls.clear()
            call()
            counts.append(len(calls))
        assert counts == [0, 1, 1]
        # The gradient is the one a state-keeping build gives.
        assert (total_grad(t, s).tobytes()
                == total_grad(t, s, state=build_state(t, s)).tobytes())

    def test_token_gradients_only_where_the_objective_reads_them(
            self, monkeypatch):
        calls = self.counted(monkeypatch, composite,
                             ["_had_grad", "_sl_grad"])
        t, s = random_pair(61, tokens=8, m=20, n=15)
        state = build_state(t, s)
        total_loss_frozen(state, t, s)
        total_loss(t, s)
        for objective in (CE_ONLY, ULD):
            composite._forward(t[None], s[None], LossWeights(),
                               grad=objective)
        assert calls == []
        total_grad(t, s, state=state)
        assert calls == ["_had_grad", "_sl_grad"]


class TestFoldedFinitenessCheck:
    """No call validates the logits a softmax pass reads before it: the pass
    checks each block's min and max as it reads the block. A nan or +-inf
    in the first or the last block still raises validate_logits' error
    before any arithmetic on it (a RuntimeWarning is an error here)."""

    TOKENS, M, N = 6, 40, 30

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        # Two student rows or one teacher row per block: three and six
        # blocks.
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 2 * self.N)

    @staticmethod
    def spoiled(x, value, where):
        x = x.copy()
        x[(0, 0) if where == "first" else (-1, -1)] = value
        return x

    def calls(self, t, s, state, w):
        return {"build_state": lambda: build_state(t, s, w=w),
                "total_loss": lambda: total_loss(t, s, w=w),
                "total_loss_frozen": lambda: total_loss_frozen(state, t, s, w),
                "total_grad": lambda: total_grad(t, s, w=w),
                "total_grad with a state": lambda: total_grad(t, s, w=w,
                                                              state=state)}

    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise_invalid_input(self, value, where, mode):
        w = replace(SMALL, match_mode=mode)
        t, s = random_pair(38, self.TOKENS, self.M, self.N)
        state = build_state(t, s, w=w)
        for side, (bad_t, bad_s) in (
                ("student", (t, self.spoiled(s, value, where))),
                ("teacher", (self.spoiled(t, value, where), s))):
            for name, call in self.calls(bad_t, bad_s, state, w).items():
                with pytest.raises(InvalidInput, match="non-finite"):
                    call()
                    pytest.fail(f"{name} accepted a non-finite {side}")

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_loss_command_exits_2(self, tmp_path, capsys, value, where):
        # The logit file reader rejects the entry before any pass runs.
        t, s = random_pair(39, self.TOKENS, self.M, self.N)
        paths = [str(tmp_path / name) for name in ("t.json", "s.json")]
        fileio.write_logit_file(paths[0], t)
        fileio.write_logit_file(paths[1], self.spoiled(s, value, where))
        assert cli.main(["loss", "--teacher", paths[0],
                         "--student", paths[1]]) == 2
        assert "non-finite logit" in capsys.readouterr().err

    def test_rows_spanning_more_than_the_float_range_are_accepted(self):
        # Finite entries whose differences overflow pass validate_logits,
        # and so the pass's check.
        t, s = random_pair(40, self.TOKENS, self.M, self.N)
        s[0, :2] = s[-1, -2:] = (1e308, -1e308)
        state = build_state(t, s, w=SMALL)
        out = {name: call() for name, call in self.calls(t, s, state,
                                                          SMALL).items()}
        for name in ("total_loss", "total_loss_frozen"):
            assert np.isfinite(out[name].total), name
        for name in ("total_grad", "total_grad with a state"):
            assert np.isfinite(out[name]).all(), name


class TestSoftmaxAccounting:
    """Blocked softmax passes, streamed backwards and whole softmaxes per
    public call.

    The teacher (m = 8 columns) and the student (n = 6) are told apart by
    their width. A pass is recorded with its temperature count and a
    backward with its level count, and each sequence cost and plan too.
    composite has no dense softmax: every entry comes from a pass, through
    one builder (core._softmax_level) from the exponentials it left in its
    out or from its row normalizers, and only exact matching recomputes one
    of those whole.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def who(arr):
            return "teacher" if arr.shape[-1] == 8 else "student"

        def counted(kind, kernel, count=None):
            def wrapper(arr, *args, **kwargs):
                calls.append((kind, who(arr)) + (() if count is None
                                                 else (len(args[count]),)))
                return kernel(arr, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(composite, "_softmax_pass",
                            counted("pass", composite._softmax_pass, 0))
        monkeypatch.setattr(composite, "_softmax_backward",
                            counted("backward", composite._softmax_backward, 1))
        for kind in ("cost", "plan"):
            def sequence(*args, kind=kind,
                         kernel=getattr(seq_ot, "_" + kind)):
                calls.append((kind,))
                return kernel(*args)
            monkeypatch.setattr(seq_ot, "_" + kind, sequence)
        return calls

    def test_calls_per_function(self, calls):
        t, s = random_pair(35, m=8, n=6)
        state = build_state(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2), ("pass", "student", 2),
                         ("cost",), ("plan",)]
        calls.clear()
        total_loss_frozen(state, t, s, SMALL)
        assert calls == [("pass", "student", 2)]
        calls.clear()
        total_grad(t, s, w=SMALL, state=state)
        assert calls == [("pass", "student", 2), ("backward", "student", 2)]
        # Without the sequence term the pass still runs at both
        # temperatures, as the state's build did, and the backward builds
        # the one level.
        calls.clear()
        total_grad(t, s, w=replace(SMALL, gamma=0.0), state=state)
        assert calls == [("pass", "student", 2), ("backward", "student", 1)]
        calls.clear()
        total_loss(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2), ("pass", "student", 2),
                         ("cost",), ("plan",)]
        calls.clear()
        total_grad(t, s, w=SMALL)
        assert calls == [("pass", "teacher", 2), ("pass", "student", 2),
                         ("cost",), ("plan",), ("backward", "student", 2)]
        # The harness's one call per step builds one cost and one plan.
        calls.clear()
        run_distillation(replace(DistillConfig(), steps=6))
        assert [c for c in calls if len(c) == 1] == [("cost",), ("plan",)] * 6


    @staticmethod
    def per_entry(exponentials, w, m=8, n=6):
        # Per entry of the teacher and of the student, the exponentials of
        # build_state, total_loss_frozen and total_grad with a state, of
        # total_loss and total_grad without one, and of total_grad with a
        # state at gamma = 0, whose pass runs at both temperatures though
        # only tau_sl is read. Kept columns (k = 4) and labels (1) are
        # read narrower and not counted.
        t, s = random_pair(35, m=m, n=n)
        state = build_state(t, s, w=w)
        calls = [lambda: build_state(t, s, w=w),
                 lambda: total_loss_frozen(state, t, s, w),
                 lambda: total_grad(t, s, w=w, state=state),
                 lambda: total_loss(t, s, w=w),
                 lambda: total_grad(t, s, w=w),
                 lambda: total_grad(t, s, w=replace(w, gamma=0.0),
                                    state=state)]
        counts = []
        for call in calls:
            exponentials.clear()
            call()
            counts.append((exponentials.get(m, 0) / t.size,
                           exponentials.get(n, 0) / s.size))
        return [tuple(c) for c in zip(*counts)]

    @pytest.mark.parametrize("taus, teacher, student", [
        ((1.0, 2.0), (1, 0, 0, 1, 1, 0), (1, 1, 1, 1, 1, 1)),
        ((2.0, 1.0), (1, 0, 0, 1, 1, 0), (1, 1, 1, 1, 1, 1)),
        ((0.7, 3.0), (2, 0, 0, 2, 2, 0), (2, 2, 3, 2, 3, 2))])
    def test_exponentials_per_entry(self, exponentials, taus, teacher,
                                    student):
        # At (1, 2) and (2, 1) a pass takes one per entry for both
        # temperatures, and a gradient call's backward builds both levels
        # from the exponentials the pass left in the gradient; at
        # (0.7, 3.0) a pass takes two and the backward recomputes tau_sd,
        # and at gamma = 0 the pass's tau_sd one goes unread.
        w = replace(SMALL, tau_sl=taus[0], tau_sd=taus[1])
        assert self.per_entry(exponentials, w) == [teacher, student]

    @pytest.mark.parametrize("taus, teacher, student", [
        ((1.0, 2.0), (3, 0, 0, 3, 3, 0), (2, 1, 1, 2, 1, 1)),
        ((2.0, 1.0), (3, 0, 0, 3, 3, 0), (2, 1, 1, 2, 1, 1)),
        ((0.7, 3.0), (4, 0, 0, 4, 4, 0), (3, 2, 3, 3, 4, 2))])
    def test_exponentials_per_entry_under_exact_matching(
            self, exponentials, taus, teacher, student):
        # Exact matching ranks from both whole student softmaxes: at (1, 2)
        # and (2, 1) a gradient call builds them from the exponentials its
        # pass left in the gradient, and a call without a gradient
        # recomputes tau_sd over the tau_sl one; at (0.7, 3.0) each call
        # without a state recomputes tau_sd. The teacher (m = 6) is the
        # narrower, so its kept heads are all of its columns at both
        # temperatures: two more per teacher entry.
        w = replace(SMALL, tau_sl=taus[0], tau_sd=taus[1],
                    match_mode=EXACT_ASSIGNMENT)
        assert self.per_entry(exponentials, w, m=6, n=8) == [teacher,
                                                             student]

    def test_pseudo_labels_and_the_padded_sort_teacher_read_the_square(self):
        # The first row's top two logits lie 8e-17 apart: exp(-8e-17) is
        # 1 - 2^-53, but exp(-8e-17 / 2) is 1, so the squared tau_sl
        # softmax ties them, and its argmax is the first, not the logits'.
        t, s = random_pair(35, m=8, n=6)
        t[0] -= t[0].max() + 1.0
        t[0, :2] = [-8e-17, 0.0]
        squared = _softmax(t, SMALL.tau_sl, (SMALL.tau_sl, SMALL.tau_sd))
        direct = _softmax(t, SMALL.tau_sl)
        assert squared[0, 0] == squared[0, 1] and direct[0, 0] < direct[0, 1]
        teacher = composite._teacher(t[None], 6, SMALL, argmax=True,
                                     dense=True)
        np.testing.assert_array_equal(teacher.argmax[0],
                                      squared.argmax(axis=-1))
        assert teacher.argmax[0, 0] == 0
        np.testing.assert_array_equal(teacher.dense[0],
                                      np.sort(squared, axis=-1)[:, ::-1])
        state = build_state(t, s, w=SMALL)
        np.testing.assert_array_equal(
            state.labels, _pseudo_labels(squared.argmax(axis=-1), state.rank,
                                         6))

    @pytest.mark.parametrize("name", ["build_state", "total_loss",
                                      "total_grad"])
    def test_exact_matching_computes_one_whole_softmax(self, calls,
                                                        monkeypatch, name):
        # Without a gradient, the student pass leaves its exponentials in
        # an array it is given, the tau_sl softmax is built from them in
        # place, and the tau_sd one is computed whole from its normalizers
        # over it. A gradient call computes neither: at the
        # default temperatures both are built from the exponentials its
        # pass left in the gradient. Blocks and chunks of one student row
        # keep any recompute in the backward below whole size. The backward
        # lives in core and calls core's _softmax_level on block views, so
        # both names are patched. A softmax is recomputed whole when it is
        # as large as its whole stack and built from no held exponentials
        # (composite passes held by name).
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 6)
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 6)
        level = core._softmax_level
        t, s = random_pair(35, m=8, n=6)

        def whole(arr, *args, **kwargs):
            probs = level(arr, *args, **kwargs)
            stack = t if arr.shape[-1] == 8 else s
            if probs.size == stack.size and kwargs.get("held") is None:
                calls.append(("whole", "teacher" if stack is t
                              else "student"))
            return probs

        monkeypatch.setattr(composite, "_softmax_level", whole)
        monkeypatch.setattr(core, "_softmax_level", whole)
        assert not hasattr(composite, "_softmax")
        w = replace(SMALL, match_mode=EXACT_ASSIGNMENT)
        {"build_state": lambda: build_state(t, s, w=w),
         "total_loss": lambda: total_loss(t, s, w=w),
         "total_grad": lambda: total_grad(t, s, w=w)}[name]()
        assert calls == [("pass", "teacher", 2), ("pass", "student", 2)] + (
            [("cost",), ("plan",), ("backward", "student", 2)]
            if name == "total_grad"
            else [("whole", "student"), ("cost",), ("plan",)])

    def test_the_padded_sort_teacher_sorts_its_pass(self, calls):
        # Against a student of 10 columns, the teacher's rows are padded
        # with two zeros before they are sorted.
        t, _ = random_pair(35, m=8, n=6)
        teacher = composite._teacher(t[None], 10, SMALL, argmax=False,
                                     dense=True)
        assert calls == [("pass", "teacher", 2)]
        dense = np.pad(_softmax(t, SMALL.tau_sl, (SMALL.tau_sl, SMALL.tau_sd)),
                       ((0, 0), (0, 2)))
        np.testing.assert_array_equal(teacher.dense[0],
                                      np.sort(dense, axis=-1)[:, ::-1])


class TestBackwardByLevels:
    """Every gradient the fused pass returns equals the level-by-level
    reference backward (refimpl.backward_by_levels) bit for bit: each level
    recomputed whole from its normalizers with the arithmetic of the pass
    that writes it, where the backward builds both levels from the
    exponentials the pass left in the gradient at a pair that squares.
    Through total_grad and the harness's batched _forward, at pairs that
    square either way and at one that does not, with and without a state,
    under both match modes and for every objective, in whole blocks and in
    blocks of two rows on three threads."""

    @pytest.fixture
    def checked(self, monkeypatch):
        # Each backward's result against the reference on its inputs; the
        # backward divides the terms in place, so the reference reads
        # copies.
        checked, backward = [], composite._softmax_backward

        def checking(z, top, levels, gradient, taus):
            reference = backward_by_levels(z, top, [
                (total, [(cols, x.copy()) for cols, x in terms])
                for total, terms in levels], taus)
            out = backward(z, top, levels, gradient, taus)
            checked.append(out.tobytes() == reference.tobytes())
            return out

        monkeypatch.setattr(composite, "_softmax_backward", checking)
        return checked

    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    @pytest.mark.parametrize("taus", [(1.0, 2.0), (2.0, 1.0), (0.7, 3.0)])
    def test_gradients_equal_the_reference(self, checked, monkeypatch, taus,
                                           mode, rows):
        if rows:
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows * 15)
            monkeypatch.setattr(core, "_THREAD_ENTRIES", 1)
            monkeypatch.setattr(core, "_cores", lambda: 3)
        w = replace(SMALL, tau_sl=taus[0], tau_sd=taus[1], match_mode=mode)
        t, s = random_pair(39, tokens=8, m=20, n=15)
        total_grad(t, s, w=w)
        total_grad(t, s, w=w, state=build_state(t, s, w=w))
        # The harness's step: 4 blocks of 8 tokens, the teacher's half
        # computed apart; a state built there, given back with and without
        # a loss (ULD trains only without one).
        rng = np.random.default_rng(40)
        tb, sb = (rng.standard_normal((4, 8, v)) * 3.0 for v in (20, 15))
        for grad in (MULTILEVEL_OT, CE_ONLY, ULD):
            half = composite._teacher(tb, 15, w, argmax=True,
                                      dense=grad == ULD)
            state = composite._forward(half, sb, w, grad=grad)[0]
            if grad != ULD:
                for need_loss in (True, False):
                    composite._forward(tb, sb, w, state=state,
                                       need_loss=need_loss, grad=grad)
        assert checked == [True] * 9


class TestStateGivesTheStatelessBytes:
    """A call given the state that its stateless twin builds returns the
    stateless call's bytes: the student pass runs at both temperatures
    whether or not a term reads tau_sd, so at a pair that squares the
    tau_sl level is squared in both calls."""

    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    @pytest.mark.parametrize("taus", [(1.0, 2.0), (2.0, 1.0), (0.7, 3.0)])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("alpha", [0.0, 0.15])
    def test_total_grad(self, alpha, gamma, taus, mode):
        w = replace(SMALL, alpha=alpha, gamma=gamma, tau_sl=taus[0],
                    tau_sd=taus[1], match_mode=mode)
        t, s = random_pair(41, tokens=8, m=20, n=15)
        stateless = total_grad(t, s, w=w)
        given = total_grad(t, s, w=w, state=build_state(t, s, w=w))
        assert given.tobytes() == stateless.tobytes()

    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    @pytest.mark.parametrize("taus", [(1.0, 2.0), (2.0, 1.0), (0.7, 3.0)])
    def test_a_cross_entropy_step(self, taus, mode):
        # The harness's batch of 4 sequences: its CE_ONLY step given the
        # state it built, with and without a loss.
        w = replace(SMALL, tau_sl=taus[0], tau_sd=taus[1], match_mode=mode)
        rng = np.random.default_rng(42)
        tb, sb = (rng.standard_normal((4, 8, v)) * 3.0 for v in (20, 15))
        state, _, stateless = composite._forward(tb, sb, w, grad=CE_ONLY)
        for need_loss in (True, False):
            given = composite._forward(tb, sb, w, state=state,
                                       need_loss=need_loss, grad=CE_ONLY)[2]
            assert given.tobytes() == stateless.tobytes()


class TestSettingsCheckedOnce:
    """Every setting is checked where its config is built: a call on the
    config runs none of the rules (core's _check_number, _check_count and
    _check_choice), in any module that imports them."""

    RULES = ("_check_number", "_check_count", "_check_choice")

    @pytest.fixture
    def checks(self, monkeypatch):
        checks, rules = [], {name: getattr(core, name) for name in self.RULES}
        for path in sorted(Path(core.__file__).parent.glob("[!_]*.py")):
            module = importlib.import_module(f"otdistill.{path.stem}")
            for name, original in rules.items():
                if hasattr(module, name):
                    def rule(*args, name=name, original=original, **kwargs):
                        checks.append(name)
                        return original(*args, **kwargs)
                    monkeypatch.setattr(module, name, rule)
        return checks

    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    def test_no_rule_runs_during_a_call(self, checks, mode):
        w = replace(SMALL, match_mode=mode)
        cfg = DistillConfig(weights=w, steps=3)
        t, s = random_pair(36)
        state = build_state(t, s, w=w)
        checks.clear()
        total_loss(t, s, w=w)
        total_loss_frozen(state, t, s, w)
        total_grad(t, s, w=w)
        total_grad(t, s, w=w, state=state)
        run_distillation(cfg)
        assert checks == []


class TestPeakMemory:
    """build_state and total_grad with a state at T = 64, n = 20000 (more
    entries than one block holds) stay within bounds derived from what
    they keep, in float64 entries:

    - blocks: a pass that sums columns holds one block buffer of at most
      _BLOCK_ENTRIES entries per temperature (two); a gradient call's pass
      and its backward hold one chunk scratch (chunk, below);
    - columns: per matrix, the column sums at both temperatures and, while
      ranking, their negation, the permutation and the sorted values;
      8 * n covers them;
    - kept: (T, k) gathers, products and index arrays, a few dozen T * k;
    - total_grad also holds its one T x n buffer, the returned gradient,
      from before its pass, which computes its tau_sd exponentials there;
      without a state, exact matching holds one more, the whole softmax it
      ranks from, with its column distances.

    Before the blocked pass, build_state held two dense softmaxes per
    matrix (19 MB here) and total_grad two student ones (22 MB).
    """

    TOKENS, M, N = 64, 16000, 20000

    def peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def chunk(tokens, n):
        # The chunk scratch of a pass or backward over (tokens, n) logits at
        # two temperatures, over all its threads: _CHUNK_ENTRIES, or each
        # thread's block where its share of them holds less than a row.
        parts = core._parts(2 * tokens * n, n)
        if _CHUNK_ENTRIES // parts >= n:
            return _CHUNK_ENTRIES
        return parts * max(1, _BLOCK_ENTRIES // parts // n) * n

    def test_blocks_only_and_one_gradient_buffer(self):
        t, s = random_pair(37, self.TOKENS, self.M, self.N)
        w = LossWeights()
        state = build_state(t, s, w=w)
        small = 2 * _BLOCK_ENTRIES + 8 * self.N + 32 * self.TOKENS * w.k
        build_peak = self.peak(lambda: build_state(t, s, w=w))
        assert build_peak < 8 * small, (build_peak, 8 * small)
        grad_peak = self.peak(lambda: total_grad(t, s, w=w, state=state))
        bound = 8 * (self.TOKENS * self.N + small)
        assert grad_peak < bound, (grad_peak, bound)

    def test_gradient_call_holds_one_block_beside_the_gradient(self):
        # The pass computes its tau_sd exponentials in the gradient and
        # only the row sums of the tau_sl ones it squares from them, chunk
        # by chunk; the sequence gradient's int16 signs (one block here,
        # T * T * k < _BLOCK_ENTRIES, ranked: at most a chunk's bytes) and
        # the backward's chunk of the tau_sl level come after it. The rest is
        # (T, k) arrays: the kept entries at both temperatures, their
        # products and index arrays, the sequence gradient and its partial
        # sums. A block buffer in the pass or the backward would add
        # _BLOCK_ENTRIES (on one or two cores), more than the chunk and
        # the 8 * T * k allowed them.
        t, s = random_pair(37, self.TOKENS, self.M, self.N)
        w = LossWeights()
        state = build_state(t, s, w=w)
        grad_peak = self.peak(lambda: total_grad(t, s, w=w, state=state))
        bound = 8 * (self.TOKENS * self.N + self.chunk(self.TOKENS, self.N)
                     + 8 * self.TOKENS * w.k)
        assert grad_peak < bound, (grad_peak, bound)

    def test_long_sequence_gradient_call_holds_a_chunk_and_a_sign_budget(self):
        # At T = 512, m = 64, n = 96 and k = m the sequence level outweighs
        # the logits. Beside the gradient, the call holds the chunk scratch
        # of its pass and backward, the sequence gradient's sign budget
        # (_BLOCK_ENTRIES int16 differences of ranks) and (T, k) arrays:
        # the kept entries, their products, the backward's sparse terms,
        # the int16 ranks and the sequence gradient's sums, 2.25 floats per
        # kept entry in all (1.7 measured, numpy 2.4). Ranking every column
        # at once, from float copies of the values with int64 sort orders,
        # takes 2.6 here.
        tokens, m, n = 512, 64, 96
        t, s = random_pair(37, tokens, m, n)
        w = LossWeights(k=m)
        state = build_state(t, s, w=w)
        grad_peak = self.peak(lambda: total_grad(t, s, w=w, state=state))
        bound = (8 * (tokens * n + self.chunk(tokens, n)) + 2 * _BLOCK_ENTRIES
                 + 18 * tokens * w.k)
        assert grad_peak < bound, (grad_peak, bound)

    def test_a_frozen_loss_holds_a_chunk_per_level(self):
        # A state's loss reads the student's row sums at both temperatures
        # from a pass with no array of its own to leave exponentials in:
        # it holds one chunk buffer per level, and beside them the (T, k)
        # arrays of the kept entries, their products and logs, and the
        # T x T cost. It sums no columns, so it holds no array of n. A pass
        # holding block buffers (2 * _BLOCK_ENTRIES over 1 or 2 cores, at
        # least 2 * 240000 here) would exceed the bound.
        t, s = random_pair(37, self.TOKENS, self.M, self.N)
        w = LossWeights()
        state = build_state(t, s, w=w)
        total_loss_frozen(state, t, s, w)
        used = self.peak(lambda: total_loss_frozen(state, t, s, w))
        bound = 8 * (2 * self.chunk(self.TOKENS, self.N)
                     + 8 * self.TOKENS * w.k)
        assert used < bound, (used, bound)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_softmax_rows_holds_only_its_output(self, tau):
        # One temperature given its output computes its exponentials
        # there: beside the T x n output it holds each row's max and
        # reciprocal sum, and the few Python objects of a walk. One row of
        # a buffer (n entries) would exceed the bound.
        s = random_pair(37, self.TOKENS, self.M, self.N)[1]
        softmax_rows(s, tau)
        used = self.peak(lambda: softmax_rows(s, tau))
        bound = 8 * (self.TOKENS * self.N + 64 * self.TOKENS)
        assert used < bound, (used, bound)


    @pytest.mark.parametrize("mode", [SUM_SORT, EXACT_ASSIGNMENT])
    def test_a_gradient_call_without_a_state(self, mode):
        # Beside the gradient, the build's pass holds one block buffer
        # (the tau_sl level; the gradient holds the tau_sd exponentials),
        # then the column sums and the rankings of both levels (8 * n), or
        # under exact matching the one whole softmax it ranks from and the
        # r x n column distances (r = min(m, n) = 40 here); the backward
        # holds one block. Kept entries are as above. A first call imports
        # scipy.optimize for exact matching (about 5 MB), so it is made
        # before the measured one.
        m = self.M if mode == SUM_SORT else 40
        t, s = random_pair(37, self.TOKENS, m, self.N)
        w = LossWeights(match_mode=mode)
        total_grad(t, s, w=w)
        grad_peak = self.peak(lambda: total_grad(t, s, w=w))
        whole = 0 if mode == SUM_SORT else (self.TOKENS + m) * self.N
        bound = 8 * (self.TOKENS * self.N + _BLOCK_ENTRIES + 8 * self.N
                     + 32 * self.TOKENS * w.k + whole)
        assert grad_peak < bound, (grad_peak, bound)


class TestLogitLayouts:
    """Fortran-ordered and strided (x[:, ::2]) logits give the bytes that
    C-ordered copies give, through build_state, total_loss_frozen and
    total_grad with and without a state, and no call copies a whole logit
    matrix: each stays within TestPeakMemory's bounds, which a copy of
    either matrix (8 and 10 MB here) would pass."""

    TOKENS, M, N = TestPeakMemory.TOKENS, TestPeakMemory.M, TestPeakMemory.N

    @staticmethod
    def laid_out(x, layout):
        if layout == "fortran":
            return np.asfortranarray(x)
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]

    @staticmethod
    def calls(t, s, w):
        state = build_state(t, s, w=w)
        frozen = total_loss_frozen(state, t, s, w)
        out = [state.labels, state.plan, state.teacher, state.teacher_seq,
               state.teacher_logits, state.student_seq, state.sd,
               total_grad(t, s, w=w), total_grad(t, s, w=w, state=state)]
        for rank in (state.rank, state.rank_seq):
            out += [rank.teacher_perm, rank.student_perm]
        return out + [getattr(frozen, name) for name in composite.COMPONENTS]

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_layouts_give_the_bytes_of_c_ordered_copies(self, layout):
        t, s = random_pair(38, self.TOKENS, 300, 200)
        w = LossWeights(k=20)
        laid = [self.laid_out(x, layout) for x in (t, s)]
        assert not any(x.flags.c_contiguous for x in laid)
        for a, b in zip(self.calls(*laid, w), self.calls(t, s, w)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_no_call_copies_a_logit_matrix(self, layout):
        t, s = (self.laid_out(x, layout) for x in
                random_pair(37, self.TOKENS, self.M, self.N))
        w = LossWeights()
        peak = TestPeakMemory().peak
        small = 2 * _BLOCK_ENTRIES + 8 * self.N + 32 * self.TOKENS * w.k
        gradient = self.TOKENS * self.N + small
        state = build_state(t, s, w=w)
        for call, bound in [
                (lambda: build_state(t, s, w=w), small),
                (lambda: total_loss_frozen(state, t, s, w), small),
                (lambda: total_grad(t, s, w=w, state=state), gradient),
                (lambda: total_grad(t, s, w=w), gradient)]:
            used = peak(call)
            assert used < 8 * bound, (used, 8 * bound)


def test_pseudo_labels_invert_the_ranking_on_ties():
    # Rounded logits with copied columns tie the sequence sums, so the
    # stable ranking decides between equal columns.
    rng = np.random.default_rng(36)
    t = np.round(rng.standard_normal((3, 4, 9)))
    t[..., 5] = t[..., 1]
    t[..., 7] = t[..., 1]
    s = rng.standard_normal((3, 4, 6))
    t1, s1 = _softmax(t, 1.0), _softmax(s, 1.0)
    rank = RankSelection(teacher_perm=_descending_stable(t1.sum(axis=-2)),
                         student_perm=_descending_stable(s1.sum(axis=-2)), k=4)
    inv = np.argsort(rank.teacher_perm, axis=-1)
    pos = np.minimum(np.take_along_axis(inv, t1.argmax(axis=-1), axis=-1), 5)
    expected = np.take_along_axis(rank.student_perm, pos, axis=-1)
    np.testing.assert_array_equal(_pseudo_labels(t1.argmax(axis=-1), rank, 6),
                                  expected)
