"""Sequence-level ranking, student dimension matching, and top-k truncation.

The teacher's vocabulary dimensions are ordered by their probability mass
summed over the whole sequence; the student's dimensions are matched to that
order either by the same sum-sort heuristic or by an exact rectangular
assignment; both matrices are then truncated to a shared support of k columns.
"""

from dataclasses import dataclass, replace

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
    # Stable sort on the negated values keeps ties in ascending index order;
    # each row of a stack is sorted on its own.
    return np.argsort(-np.asarray(values, dtype=float), axis=-1, kind="stable")


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
    t_sr, s = _same_rows(t_sr, s)
    if mode == SUM_SORT:
        return _match(None, s.sum(axis=0)[None], mode)[0]
    r = _head_width(None, t_sr.shape[1], s.shape[1], mode)
    return _match(t_sr[None, :, :r], s[None], mode)[0]


def _same_rows(t, s):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.ndim != 2 or s.ndim != 2 or t.shape[0] != s.shape[0]:
        raise InvalidInput("teacher and student must be matrices with the same "
                           f"number of rows, got {t.shape} and {s.shape}")
    return t, s


def _head_width(k, m, n, mode):
    """The ranked teacher columns an alignment reads: the k kept ones under
    SUM_SORT, all min(m, n) that EXACT_ASSIGNMENT matches (at most
    ASSIGNMENT_LIMIT). Raises for an unknown mode."""
    if mode == SUM_SORT:
        return _width(k, m, n)
    if mode != EXACT_ASSIGNMENT:
        raise InvalidInput(f"unknown match mode: {mode!r}")
    r = min(m, n)
    if r > ASSIGNMENT_LIMIT:
        raise TooLargeForExact(
            f"exact matching limited to {ASSIGNMENT_LIMIT} dimensions, got {r}"
        )
    return r


def _match(head, s, mode):
    # match_student for B items: (B, n) student permutations matched to a
    # (B, T, r) stack of ranked teacher columns, r from _head_width. Under
    # SUM_SORT, s is the student's (B, n) column sums and head is not read;
    # under EXACT_ASSIGNMENT, s is its (B, T, n) probabilities.
    if mode == SUM_SORT:
        return _descending_stable(s)
    n, r = s.shape[-1], head.shape[-1]
    perms = np.empty(s.shape[:-2] + (n,), dtype=np.intp)
    for b, (head_b, s_b) in enumerate(zip(head, s)):
        # D[i, j] = sum_t |t_sr[t, i] - s[t, j]| over the first r teacher columns.
        mismatch = np.abs(head_b[:, :, None] - s_b[:, None, :]).sum(axis=0)
        _, cols = linear_sum_assignment(mismatch)
        perms[b, :r] = cols
        perms[b, r:] = np.setdiff1d(np.arange(n), cols)
    return perms


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
    t, s = _same_rows(validate_probs(t), s)
    pair, sel = _align_and_truncate(t[None], s[None], k, mode)
    return (AlignedPair(teacher=pair.teacher[0], student=pair.student[0]),
            replace(sel, teacher_perm=sel.teacher_perm[0],
                    student_perm=sel.student_perm[0]))


def _align_and_truncate(t, s, k, mode):
    # align_and_truncate on each item of a (B, T, m) teacher and (B, T, n)
    # student stack of float matrices the caller has validated. The pair is
    # (B, T, k) and the permutations (B, m) and (B, n).
    k_eff = _width(k, t.shape[-1], s.shape[-1])
    width = _head_width(k, t.shape[-1], s.shape[-1], mode)
    teacher_perm = _descending_stable(t.sum(axis=-2))
    head = _gather(t, teacher_perm[:, :width])
    student_perm = _match(head, s.sum(axis=-2) if mode == SUM_SORT else s, mode)
    pair = AlignedPair(teacher=head[..., :k_eff],
                       student=_gather(s, student_perm[:, :k_eff]))
    sel = RankSelection(
        teacher_perm=teacher_perm,
        student_perm=student_perm,
        k=k_eff,
        match_mode=mode,
    )
    return pair, sel


def _gather(probs, cols):
    # probs[b][:, cols[b]] for every item b of a (B, T, V) stack.
    return probs[_last_axis(probs.shape, cols[:, None, :])]


def _last_axis(shape, cols):
    """Index tuple picking cols[b, t] from row t of item b of a (B, T, V)
    array, for reading or writing; cols is (B, T, c) or broadcasts to it."""
    return (np.arange(shape[0])[:, None, None], np.arange(shape[1])[:, None],
            cols)
