"""Composition of estimators across the structure of the constraint set.

qCORAL composes an answer from two rules of Section 4:

* Section 4.1, Equations (4)–(6): path conditions produced by symbolic
  execution are pairwise disjoint, so their estimators add and the summed
  variance is an upper bound (Theorem 1);
* Section 4.2, Equations (7)–(8): the factors of one path condition obtained
  from the dependency partition are statistically independent, so their
  estimators multiply.

:func:`compose_disjoint_path_conditions` and :func:`compose_independent_factors`
fold the corresponding :class:`Estimate` methods over a few estimates.  The
analyzer applies the same rules to a whole constraint set at once, through an
:class:`Incidence` array that its plan builds once:

* ``occurrences[i, j]`` is the index of the ``j``-th factor of path condition
  ``i``, with factors indexed in sorted key order.  Rows shorter than the
  widest are padded with the *sentinel* index ``factors``, whose slot holds
  mean 1.0 and variance 0.0; a path condition without constraints is a row of
  sentinels.
* ``distinct[i, j]`` lists each row's distinct factors in the order they first
  occur in it, padded the same way; the allocation priorities range over it.

Every round gathers the factors' means and variances into two vectors with
the sentinel slot appended (:func:`moments`) and folds the occurrence columns
left to right (:func:`path_condition_moments`).  The fold order is fixed
because floating-point products and sums depend on their order: each column
step evaluates exactly the expression of :meth:`Estimate.multiply_independent`,
multiplying by the sentinel is exact (``m·1 = m`` and ``0 + v + 0 = v`` for
the finite, non-negative moments of probability estimates), and the path
conditions are summed one after another in their input order
(:func:`sum_in_order`), as :func:`sum_disjoint` does.  So every answer equals
the per-path-condition ``Estimate`` folds bit for bit, at the cost of a few
array operations per column instead of one object per product.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.estimate import Estimate, product_independent, sum_disjoint


def compose_disjoint_path_conditions(estimates: Iterable[Estimate]) -> Estimate:
    """Estimator of the disjunction of pairwise-disjoint path conditions.

    The mean is the exact sum of the member means (Equation 5); the variance is
    the sum of the member variances, which Theorem 1 shows is an upper bound on
    the true variance of the summed estimator.
    """
    return sum_disjoint(estimates)


def compose_independent_factors(estimates: Iterable[Estimate]) -> Estimate:
    """Estimator of the conjunction of independent factors (Equations 7–8)."""
    return product_independent(estimates)


def variance_upper_bound_holds(
    member_variances: Sequence[float], combined_variance: float, tolerance: float = 1e-12
) -> bool:
    """Check the Theorem 1 inequality ``Var[X] <= Σ Var[X_i]`` up to ``tolerance``.

    Used by the property-based tests to validate that empirical variances of
    summed estimators never exceed the bound reported by the analyzer.
    """
    return combined_variance <= sum(member_variances) + tolerance


class Incidence:
    """Path conditions × factor slots of one constraint set (see the module docstring).

    Built from ``rows``, the factor indices of each path condition in
    occurrence order, over ``factors`` distinct factors.  Beside the two
    padded matrices it keeps, per row, the slot codes the analyzer's reports
    are picked by: ``2·f`` for the occurrence that owns factor ``f``'s
    samples (its first in row-major order) and ``2·f + 1`` for the later
    ones, the in-run cache shares, which number :attr:`shared`.
    """

    __slots__ = ("factors", "rows", "slots", "shared", "occurrences", "distinct", "columns", "distinct_columns")

    def __init__(self, rows: Sequence[Sequence[int]], factors: int) -> None:
        self.factors = factors
        self.rows = tuple(tuple(row) for row in rows)
        seen = set()
        slots: List[Tuple[int, ...]] = []
        for row in self.rows:
            codes = []
            for factor in row:
                codes.append(2 * factor + (factor in seen))
                seen.add(factor)
            slots.append(tuple(codes))
        self.slots = tuple(slots)
        self.shared = sum(len(row) for row in self.rows) - len(seen)
        self.occurrences = _padded(self.rows, factors)
        self.distinct = _padded([tuple(dict.fromkeys(row)) for row in self.rows], factors)
        # The transposes, C-ordered: one gather through each yields every
        # column as a contiguous row.
        self.columns = np.ascontiguousarray(self.occurrences.T)
        self.distinct_columns = np.ascontiguousarray(self.distinct.T)

    def __len__(self) -> int:
        return len(self.rows)


def _padded(rows: Sequence[Sequence[int]], sentinel: int) -> np.ndarray:
    """``rows`` as one integer matrix, right-padded with ``sentinel`` (at least one column)."""
    width = max((len(row) for row in rows), default=0) or 1
    matrix = np.full((len(rows), width), sentinel, dtype=np.intp)
    for index, row in enumerate(rows):
        matrix[index, : len(row)] = row
    return matrix


def moments(estimates: Sequence[Estimate]) -> Tuple[np.ndarray, np.ndarray]:
    """The means and variances of ``estimates``, each with the sentinel slot (1, 0) appended."""
    means = np.array([estimate.mean for estimate in estimates] + [1.0])
    variances = np.array([estimate.variance for estimate in estimates] + [0.0])
    return means, variances


def path_condition_moments(
    incidence: Incidence, means: np.ndarray, variances: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance of every path condition: the product rule over its factors.

    Folds the occurrence columns left to right with the expression of
    :meth:`Estimate.multiply_independent`, so each row equals
    :func:`compose_independent_factors` over its factors bit for bit.
    Raises ``ValueError`` when a result is NaN, as :class:`Estimate` does.
    """
    column_means, column_variances = means[incidence.columns], variances[incidence.columns]
    mean, variance = column_means[0], column_variances[0]
    for other_mean, other_variance in zip(column_means[1:], column_variances[1:]):
        variance = mean * mean * other_variance + other_mean * other_mean * variance + variance * other_variance
        mean = mean * other_mean
    # A NaN anywhere makes the dot product NaN: one cheap pass checks both.
    if math.isnan(mean.dot(variance)):
        raise ValueError("estimate mean/variance may not be NaN")
    return mean, variance


def sum_in_order(means: Sequence[float], variances: Sequence[float]) -> Estimate:
    """The disjoint-sum rule over per-path-condition moments, in their order.

    A plain left-to-right loop, as :func:`compose_disjoint_path_conditions`
    adds: ``np.sum`` sums pairwise and ``math.fsum`` (like ``sum()`` on
    Python 3.12 and later) compensates, and either can move the last bits.
    """
    total_mean = 0.0
    total_variance = 0.0
    for mean, variance in zip(means, variances):
        total_mean += mean
        total_variance += variance
    return Estimate(total_mean, total_variance)


def combined_estimate(incidence: Incidence, means: np.ndarray, variances: np.ndarray) -> Estimate:
    """The estimate of the whole constraint set from its factors' moments."""
    mean, variance = path_condition_moments(incidence, means, variances)
    return sum_in_order(mean.tolist(), variance.tolist())


def neyman_coefficients(incidence: Incidence, means: np.ndarray) -> List[float]:
    """``c_f = Σ_{pc ∋ f} (Π_{g ≠ f} mean_g)²`` for every factor ``f``.

    The products run over each row's distinct factors in order, starting from
    1.0: the product of the factors before a position, shared by the later
    positions, continued with the factors after it.  The squares are added per
    factor in row-major order (``np.bincount`` adds its weights one after
    another), so every coefficient equals the per-path-condition loop's.
    """
    columns = means[incidence.distinct_columns]
    squares = []
    before = np.ones(len(incidence))
    for position, column in enumerate(columns):
        product = before
        for after in columns[position + 1 :]:
            product = product * after
        squares.append(product * product)
        before = before * column
    weights = np.stack(squares, axis=1).ravel()
    totals = np.bincount(incidence.distinct.ravel(), weights=weights, minlength=incidence.factors + 1)
    # Without rows, bincount answers integer zeros.
    return totals[: incidence.factors].astype(np.float64).tolist()
