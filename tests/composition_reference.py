"""The per-path-condition composition loops, kept as a test reference.

Before the analyzer composed on an incidence array
(:mod:`repro.core.composition`), it folded one :class:`Estimate` at a time:
every round it multiplied the factors of each path condition and added the
path conditions up, every Neyman round it summed each factor's squared
leave-one-out products, and at finalisation it multiplied each path
condition's factor reports again.  These functions are those loops over rows
of factor indices; the incidence array must reproduce them bit for bit.
"""

from typing import Dict, List, Sequence

from repro.core.composition import compose_disjoint_path_conditions, compose_independent_factors
from repro.core.estimate import Estimate


def path_condition_estimate(row: Sequence[int], estimates: Sequence[Estimate]) -> Estimate:
    """The product rule over one path condition's factors (a trivially true one is certain)."""
    if not row:
        return Estimate.one()
    return compose_independent_factors(estimates[factor] for factor in row)


def path_condition_estimates(rows: Sequence[Sequence[int]], estimates: Sequence[Estimate]) -> List[Estimate]:
    """Every path condition's estimate, as the finalisation reported them."""
    return [path_condition_estimate(row, estimates) for row in rows]


def combined_estimate(rows: Sequence[Sequence[int]], estimates: Sequence[Estimate]) -> Estimate:
    """The estimate of the disjunction of the path conditions, as every round computed it."""
    return compose_disjoint_path_conditions(path_condition_estimates(rows, estimates))


def neyman_coefficients(
    rows: Sequence[Sequence[int]], estimates: Sequence[Estimate], active: Sequence[int]
) -> Dict[int, float]:
    """``c_f = Σ_{pc ∋ f} (Π_{g ≠ f} mean_g)²`` of every active factor, path condition by path condition."""
    coefficients = {factor: 0.0 for factor in active}
    for row in rows:
        unique = list(dict.fromkeys(row))
        means = [estimates[factor].mean for factor in unique]
        for position, factor in enumerate(unique):
            if factor not in coefficients:
                continue
            product = 1.0
            for other, mean in enumerate(means):
                if other != position:
                    product *= mean
            coefficients[factor] += product * product
    return coefficients
