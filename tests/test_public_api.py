"""The package's public names: a deletion must not drop one, since the
tests and demos import them."""

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
