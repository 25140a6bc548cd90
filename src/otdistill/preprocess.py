"""Sequence-level ranking, student dimension matching, and top-k truncation.

The teacher's vocabulary dimensions are ordered by their probability mass
summed over the whole sequence; the student's dimensions are matched to that
order either by the same sum-sort heuristic or by an exact rectangular
assignment; both matrices are then truncated to a shared support of k columns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import validate_probs
from .errors import InvalidInput, TooLargeForExact

SUM_SORT = "sum_sort"
EXACT_ASSIGNMENT = "exact_assignment"

# Dense assignment (exact matching here, the exact-OT oracle) is cubic in
# the dimension, which caps it at desk scale.
ASSIGNMENT_LIMIT = 64


@dataclass(frozen=True)
class RankSelection:
    """Record of how teacher and student dimensions were aligned.

    teacher_perm orders teacher columns by descending sequence-summed
    probability; student_perm is the matching permutation of student columns
    (the permutation matrix in vector form); k is the truncation width after
    clamping to min(m, n).
    """

    teacher_perm: np.ndarray
    student_perm: np.ndarray
    k: int
    match_mode: str = SUM_SORT


@dataclass(frozen=True)
class AlignedPair:
    """Aligned, truncated teacher/student probability matrices of shape T x k.

    Student rows need not sum to 1 after truncation.
    """

    teacher: np.ndarray
    student: np.ndarray

    def __post_init__(self):
        if self.teacher.shape != self.student.shape:
            raise InvalidInput(
                f"aligned pair shapes differ: {self.teacher.shape} vs {self.student.shape}"
            )


def _descending_stable(values):
    # Stable sort on the negated values keeps ties in ascending index order.
    return np.argsort(-np.asarray(values, dtype=float), kind="stable")


def sequence_rank_teacher(t):
    """Order teacher columns by descending sequence-summed probability.

    Returns (permutation, column-permuted matrix). Ties keep their original
    column order.
    """
    t = validate_probs(t)
    perm = _descending_stable(t.sum(axis=0))
    return perm, t[:, perm]


def match_student(t_sr, s, mode=SUM_SORT):
    """Permutation of student columns matching the ranked teacher columns.

    SUM_SORT sorts student columns by descending sequence-summed probability
    (cheap heuristic). EXACT_ASSIGNMENT minimizes the total L1 mismatch
    between the first min(m, n) ranked teacher columns and distinct student
    columns, as a rectangular assignment; unmatched student columns are
    appended in ascending order so the result is a bijection on [0, n).
    """
    t_sr = np.asarray(t_sr, dtype=float)
    return _match(t_sr, np.arange(t_sr.shape[1]), np.asarray(s, dtype=float), mode)


def _match(t, teacher_perm, s, mode):
    # match_student on the ranked teacher t[:, teacher_perm], gathering only
    # the columns the exact matcher reads.
    if t.shape[0] != s.shape[0]:
        raise InvalidInput("teacher and student must have the same number of rows")
    if mode == SUM_SORT:
        return _descending_stable(s.sum(axis=0))
    if mode != EXACT_ASSIGNMENT:
        raise InvalidInput(f"unknown match mode: {mode!r}")

    n = s.shape[1]
    r = min(t.shape[1], n)
    if r > ASSIGNMENT_LIMIT:
        raise TooLargeForExact(
            f"exact matching limited to {ASSIGNMENT_LIMIT} dimensions, got {r}"
        )
    # D[i, j] = sum_t |t_sr[t, i] - s[t, j]| over the first r teacher columns.
    head = t[:, teacher_perm[:r]]
    mismatch = np.abs(head[:, :, None] - s[:, None, :]).sum(axis=0)
    _, cols = linear_sum_assignment(mismatch)
    rest = np.setdiff1d(np.arange(n), cols)
    return np.concatenate([cols, rest])


def alignment_cost(t_sr, s, student_perm):
    """Total L1 mismatch between ranked teacher columns and permuted student columns.

    Compares the first min(m, n) columns of each, the quantity the exact
    matcher minimizes.
    """
    t_sr = np.asarray(t_sr, dtype=float)
    s_perm = np.asarray(s, dtype=float)[:, np.asarray(student_perm)]
    r = min(t_sr.shape[1], s_perm.shape[1])
    return float(np.abs(t_sr[:, :r] - s_perm[:, :r]).sum())


def _width(k, m, n):
    if k < 1:
        raise InvalidInput(f"truncation width must be >= 1, got {k}")
    return min(int(k), m, n)


def truncate_topk(t_sr, s_sr, k):
    """Keep the first min(k, m, n) columns of both ranked matrices.

    k is clamped rather than rejected; the effective width is the shared
    column count of the returned pair.
    """
    t_sr = np.asarray(t_sr, dtype=float)
    s_sr = np.asarray(s_sr, dtype=float)
    k_eff = _width(k, t_sr.shape[1], s_sr.shape[1])
    return AlignedPair(teacher=t_sr[:, :k_eff], student=s_sr[:, :k_eff])


def align_and_truncate(t, s, k, mode=SUM_SORT):
    """Full alignment pipeline: rank teacher, match student, truncate.

    Ranking and matching read column sums, so only the k kept columns of
    each matrix are ever gathered. Returns (AlignedPair, RankSelection).
    """
    t = validate_probs(t)
    s = np.asarray(s, dtype=float)
    k_eff = _width(k, t.shape[1], s.shape[1])
    teacher_perm = _descending_stable(t.sum(axis=0))
    student_perm = _match(t, teacher_perm, s, mode)
    pair = AlignedPair(teacher=t[:, teacher_perm[:k_eff]],
                       student=s[:, student_perm[:k_eff]])
    sel = RankSelection(
        teacher_perm=teacher_perm,
        student_perm=student_perm,
        k=k_eff,
        match_mode=mode,
    )
    return pair, sel
