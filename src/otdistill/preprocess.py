"""Sequence-level ranking, student dimension matching, and top-k truncation.

The teacher's vocabulary dimensions are ordered by their probability mass
summed over the whole sequence; the student's dimensions are matched to that
order either by the same sum-sort heuristic or by an exact rectangular
assignment; both matrices are then truncated to a shared support of k columns.
Kept columns of a logit stack are read and written through core.
"""

from dataclasses import dataclass

import numpy as np

from .core import (_both, _check_choice, _check_count, _matrix,
                   validate_probs)
from .errors import InvalidInput, TooLargeForExact

SUM_SORT = "sum_sort"
EXACT_ASSIGNMENT = "exact_assignment"
MATCH_MODES = (SUM_SORT, EXACT_ASSIGNMENT)

# Dense assignment (exact matching here, the exact-OT oracle) is cubic in
# the dimension, which caps it at desk scale.
ASSIGNMENT_LIMIT = 64

# Row length from which _descending_stable ranks by the SIMD sort. The
# stable sort is faster on shorter rows: the two cost the same at about
# 1100 entries on a 2-core AVX-512 machine (numpy 2.4), and at 2048 the
# SIMD sort, its tie check included, takes 0.4 of the time.
_SIMD_SORT_MIN = 2048


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

    Student rows need not sum to 1 after truncation; (B, T, k) stacks of
    pairs are allowed. Both must be finite and of one shape, at least 2-D.
    """

    teacher: np.ndarray
    student: np.ndarray

    def __post_init__(self):
        for name in ("teacher", "student"):
            object.__setattr__(self, name, _matrix(
                getattr(self, name), "aligned pair", finite=True, ndim=None))
        if self.teacher.ndim < 2 or self.teacher.shape != self.student.shape:
            raise InvalidInput("aligned pair must be matrices of one shape, got "
                               f"{self.teacher.shape} vs {self.student.shape}")


def _descending_stable(values):
    # Stable sort on the negated values keeps ties in ascending index order;
    # each row of a stack is sorted on its own. Rows of at least
    # _SIMD_SORT_MIN entries take numpy's default sort, SIMD where the CPU
    # has it: a row whose sorted values strictly increase has no ties and no
    # nan, so its permutation is the only sorted one, the stable one, and
    # any other row is sorted again stably. values are floats.
    neg = -values
    if neg.shape[-1] < _SIMD_SORT_MIN:
        return np.argsort(neg, axis=-1, kind="stable")
    order = np.argsort(neg, axis=-1)
    ordered = np.take_along_axis(neg, order, axis=-1)
    tied = ~(ordered[..., 1:] > ordered[..., :-1]).all(axis=-1)
    order[tied] = np.argsort(neg[tied], axis=-1, kind="stable")
    return order


def _descending_pair(first, second):
    # _descending_stable of two stacks of rows, on two threads where their
    # sorts are large enough to split (core._both). Sized by sort cost, as
    # seq_ot._ranks sizes its split (a sort touches each entry about log2 of
    # its row length times), so the harness's rows of 15 and 20 stay serial.
    return _both(_descending_stable, first, second,
                 (first.size + second.size) * first.shape[-1].bit_length())


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
    _check_choice(mode, MATCH_MODES, "mode", InvalidInput)
    t_sr, s = _same_rows(t_sr, s)
    if mode == SUM_SORT:
        return _match(None, s.sum(axis=0)[None], mode)[0]
    r = _head_width(None, t_sr.shape[1], s.shape[1], mode)
    return _match(t_sr[None, :, :r], s[None], mode)[0]


def _same_rows(t, s, probs=False):
    # t and s as finite matrices with one row count, t as a row-stochastic
    # one (validate_probs) if probs.
    t = (validate_probs(t) if probs
         else _matrix(t, "teacher matrix", finite=True))
    s = _matrix(s, "student matrix", finite=True)
    if t.shape[0] != s.shape[0]:
        raise InvalidInput("teacher and student must have the same number of "
                           f"rows, got {t.shape} and {s.shape}")
    return t, s


def _head_width(k, m, n, mode):
    """The ranked teacher columns an alignment reads: the min(k, m, n) kept
    ones under SUM_SORT, all min(m, n) that EXACT_ASSIGNMENT matches (at
    most ASSIGNMENT_LIMIT). k and mode are checked ones."""
    r = min(m, n)
    if mode == SUM_SORT:
        return min(k, r)
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
    # Imported here: scipy.optimize would add a sixth to the package's import
    # time, and only exact matching and the exact-OT oracle use it; so is
    # scipy.spatial, as in seq_ot._cost.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    n, r = s.shape[-1], head.shape[-1]
    perms = np.empty(s.shape[:-2] + (n,), dtype=np.intp)
    for b, (head_b, s_b) in enumerate(zip(head, s)):
        # D[i, j] = sum_t |t_sr[t, i] - s[t, j]| over the first r teacher
        # columns: the L1 distance between columns.
        _, cols = linear_sum_assignment(cdist(head_b.T, s_b.T, "cityblock"))
        perms[b, :r] = cols
        perms[b, r:] = np.setdiff1d(np.arange(n), cols)
    return perms


def alignment_cost(t_sr, s, student_perm):
    """Total L1 mismatch between ranked teacher columns and permuted student columns.

    Compares the first min(m, n) columns of each, the quantity the exact
    matcher minimizes. student_perm must be a permutation of range(n).
    """
    t_sr, s = _same_rows(t_sr, s)
    perm, n = np.asarray(student_perm), s.shape[1]
    if (perm.shape != (n,) or perm.dtype.kind not in "iu"
            or not np.array_equal(np.sort(perm), np.arange(n))):
        raise InvalidInput(f"student_perm must be a permutation of range({n})")
    r = min(t_sr.shape[1], n)
    return float(np.abs(t_sr[:, :r] - s[:, perm[:r]]).sum())


def truncate_topk(t_sr, s_sr, k):
    """Keep the first min(k, m, n) columns of both ranked matrices.

    k is clamped rather than rejected; the effective width is the shared
    column count of the returned pair.
    """
    t_sr, s_sr = _same_rows(t_sr, s_sr)
    k_eff = min(_check_count(k, "truncation width k", error=InvalidInput),
                t_sr.shape[1], s_sr.shape[1])
    return AlignedPair(teacher=t_sr[:, :k_eff], student=s_sr[:, :k_eff])


def align_and_truncate(t, s, k, mode=SUM_SORT):
    """Full alignment pipeline: rank teacher, match student, truncate.

    Ranking and SUM_SORT matching read column sums, so only the k kept
    columns of each matrix are gathered (and the min(m, n) teacher columns
    EXACT_ASSIGNMENT matches). Returns (AlignedPair, RankSelection).
    """
    k = _check_count(k, "truncation width k", error=InvalidInput)
    _check_choice(mode, MATCH_MODES, "mode", InvalidInput)
    t, s = _same_rows(t, s, probs=True)
    k_eff = min(k, t.shape[1], s.shape[1])
    width = _head_width(k, t.shape[1], s.shape[1], mode)
    teacher_perm = _descending_stable(t.sum(axis=0))
    head = t[:, teacher_perm[:width]]
    student_perm = _match(head[None], (
        s.sum(axis=0) if mode == SUM_SORT else s)[None], mode)[0]
    pair = AlignedPair(head[:, :k_eff], s[:, student_perm[:k_eff]])
    return pair, RankSelection(teacher_perm, student_perm, k_eff, mode)

