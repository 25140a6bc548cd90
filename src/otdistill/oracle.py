"""Ground-truth solvers and checkers used throughout the test suite.

Exact transport over unit row/column sums (the minimum of a linear objective
over doubly-stochastic matrices is attained at a permutation), a
finite-difference gradient estimator, and a gradient comparison report.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _check_choice, _check_number, _is_real, _matrix
from .errors import InvalidInput, NumericalFailure, TooLargeForExact
from .preprocess import ASSIGNMENT_LIMIT

BRUTE_FORCE = "brute_force"
ASSIGNMENT = "assignment"

BRUTE_FORCE_LIMIT = 7


@dataclass(frozen=True)
class ExactOTResult:
    """Minimal transport cost and a permutation attaining it."""

    value: float
    permutation: np.ndarray
    method: str

    def plan_matrix(self) -> np.ndarray:
        """The permutation as a 0/1 doubly-stochastic matrix."""
        n = len(self.permutation)
        plan = np.zeros((n, n))
        plan[np.arange(n), self.permutation] = 1.0
        return plan


def exact_ot(C, method=BRUTE_FORCE) -> ExactOTResult:
    """Global minimum of <P, C> over unit row/column sums.

    BRUTE_FORCE enumerates all n! permutations (n <= 7); ASSIGNMENT solves
    the equivalent assignment problem (n <= 64). Both return the exact value;
    ties between optimal permutations may resolve differently but the value
    is unique. Raises InvalidInput for a non-finite cost and
    NumericalFailure when the optimal value overflows.
    """
    _check_choice(method, (BRUTE_FORCE, ASSIGNMENT), "method", InvalidInput)
    C = _matrix(C, "cost matrix", finite=True)
    if C.shape[0] != C.shape[1]:
        raise InvalidInput(f"cost matrix must be square, got shape {C.shape}")
    n = C.shape[0]
    if method == BRUTE_FORCE:
        if n > BRUTE_FORCE_LIMIT:
            raise TooLargeForExact(
                f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {n}"
            )
        idx = np.arange(n)
        best_value = np.inf
        best_perm = idx
        # A permutation whose finite costs sum past the float range gives
        # inf, which never wins; only an overflowing optimum is an error.
        with np.errstate(over="ignore"):
            for perm in itertools.permutations(range(n)):
                value = C[idx, perm].sum()
                if value < best_value:
                    best_value = value
                    best_perm = np.array(perm, dtype=idx.dtype)
    else:
        if n > ASSIGNMENT_LIMIT:
            raise TooLargeForExact(
                f"assignment limited to n <= {ASSIGNMENT_LIMIT}, got {n}"
            )
        # Imported here, as in preprocess._match.
        from scipy.optimize import linear_sum_assignment
        rows, best_perm = linear_sum_assignment(C)
        with np.errstate(over="ignore"):
            best_value = C[rows, best_perm].sum()
    if not np.isfinite(best_value):
        raise NumericalFailure("the optimal transport value overflows; "
                               "rescale the cost matrix")
    return ExactOTResult(value=float(best_value), permutation=best_perm,
                         method=method)


def finite_diff_grad(loss, x, h=1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Perturbs one entry at a time by +-h and evaluates (f(x+h) - f(x-h)) / 2h.
    Raises InvalidInput for a nan or +-inf entry of x, a loss that is not
    callable or a value that is not a real number (core._is_real), and
    NumericalFailure for a value that is not finite.
    """
    h = _check_number(h, "h")
    x = _matrix(x, "x", finite=True, ndim=None)
    if not callable(loss):
        raise InvalidInput(f"loss must be callable, got {loss!r}")
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        plus = x.copy()
        plus[idx] += h
        minus = x.copy()
        minus[idx] -= h
        f_plus = loss(plus)
        f_minus = loss(minus)
        for value in (f_plus, f_minus):
            if not _is_real(value):
                raise InvalidInput(f"loss must return a real number, got "
                                   f"{value!r} near entry {idx}")
        try:  # an int past the float range is not finite either
            finite = math.isfinite(f_plus) and math.isfinite(f_minus)
        except OverflowError:
            finite = False
        if not finite:
            raise NumericalFailure(f"loss non-finite near entry {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class GradientReport:
    """Discrepancy summary between an analytic and a numeric gradient."""

    max_abs_err: float
    max_rel_err: float
    passed: bool


def check_gradient(analytic, numeric, rel_tol=1e-4, abs_tol=1e-8) -> GradientReport:
    """Entrywise comparison: pass iff |a - n| <= abs_tol + rel_tol * max(|a|, |n|)."""
    rel_tol = _check_number(rel_tol, "rel_tol", strict=False)
    abs_tol = _check_number(abs_tol, "abs_tol", strict=False)
    a, n = (_matrix(x, "gradient", ndim=None) for x in (analytic, numeric))
    if a.shape != n.shape:
        raise InvalidInput(f"shape mismatch: {a.shape} vs {n.shape}")
    # A nan, or infinities that agree, fail the check without a warning.
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_err = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        passed = bool(np.all(abs_err <= abs_tol + rel_tol * scale))
        rel = np.where(scale > 0, abs_err / scale, 0.0)
    return GradientReport(
        max_abs_err=float(abs_err.max(initial=0.0)),
        max_rel_err=float(rel.max(initial=0.0)),
        passed=passed,
    )
