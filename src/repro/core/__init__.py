"""qCORAL core: estimators, samplers, compositional analysis."""

from repro.core.cache import CacheStatistics, EstimateCache
from repro.core.composition import (
    compose_disjoint_path_conditions,
    compose_independent_factors,
    variance_upper_bound_holds,
)
from repro.core.dependency import (
    DependencyPartition,
    UnionFind,
    compute_dependency_partition,
    partition_for_constraint_set,
)
from repro.core.estimate import Estimate, RunningEstimate, product_independent, sum_disjoint
from repro.core.importance import ImportanceSampler, importance_sampling
from repro.core.methods import ESTIMATION_METHODS
from repro.core.montecarlo import (
    SamplingResult,
    hit_or_miss,
    hit_or_miss_constraint_set,
)
from repro.core.profiles import (
    BinomialDistribution,
    CategoricalDistribution,
    DiscreteDistribution,
    Distribution,
    PiecewiseUniformDistribution,
    TruncatedGeometricDistribution,
    TruncatedNormalDistribution,
    TruncatedPoissonDistribution,
    UniformDistribution,
    UsageProfile,
    parse_distribution_spec,
)
from repro.core.qcoral import (
    FactorReport,
    PathConditionReport,
    QCoralAnalyzer,
    QCoralConfig,
    QCoralResult,
    RoundReport,
)
from repro.core.stratified import (
    ALLOCATION_POLICIES,
    StratifiedResult,
    StratifiedSampler,
    Stratum,
    StratumReport,
    allocate_budget,
    allocation_priorities,
    stratified_sampling,
)

__all__ = [
    "Estimate",
    "RunningEstimate",
    "sum_disjoint",
    "product_independent",
    "UsageProfile",
    "Distribution",
    "UniformDistribution",
    "TruncatedNormalDistribution",
    "PiecewiseUniformDistribution",
    "DiscreteDistribution",
    "BinomialDistribution",
    "TruncatedPoissonDistribution",
    "TruncatedGeometricDistribution",
    "CategoricalDistribution",
    "parse_distribution_spec",
    "ESTIMATION_METHODS",
    "ImportanceSampler",
    "importance_sampling",
    "SamplingResult",
    "hit_or_miss",
    "hit_or_miss_constraint_set",
    "StratifiedResult",
    "StratifiedSampler",
    "Stratum",
    "StratumReport",
    "stratified_sampling",
    "allocate_budget",
    "allocation_priorities",
    "ALLOCATION_POLICIES",
    "DependencyPartition",
    "UnionFind",
    "compute_dependency_partition",
    "partition_for_constraint_set",
    "EstimateCache",
    "CacheStatistics",
    "compose_disjoint_path_conditions",
    "compose_independent_factors",
    "variance_upper_bound_holds",
    "QCoralAnalyzer",
    "QCoralConfig",
    "QCoralResult",
    "RoundReport",
    "PathConditionReport",
    "FactorReport",
]
