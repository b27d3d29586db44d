"""qCORAL reproduction: compositional solution space quantification.

This package reproduces the PLDI 2014 paper "Compositional Solution Space
Quantification for Probabilistic Software Analysis" (Borges, Filieri,
d'Amorim, Păsăreanu, Visser).

The public way in is the **Session facade** (:mod:`repro.api`)::

    from repro import Session

    with Session() as session:
        report = (
            session.quantify("x <= 0 - y && y <= x", {"x": (-1, 1), "y": (-1, 1)})
            .with_budget(30_000)
            .seed(1)
            .run()
        )
        print(report.mean, report.std)

* :class:`Session` — owns the sampling pool, store and ledger, builds queries.
* :class:`Query` — fluent, immutable builder; ``run()`` blocks,
  ``stream()`` yields per-round results, ``repeat()`` aggregates trials.
* :class:`Report` — the unified result type with a versioned JSON schema.

The lower layers (:mod:`repro.core`, :mod:`repro.exec`, :mod:`repro.store`,
:mod:`repro.symexec`, :mod:`repro.baselines`) stay importable directly.
"""

from __future__ import annotations

import logging

from repro.api import SCHEMA_VERSION, Query, Report, RoundStream, Session
from repro.core.estimate import Estimate
from repro.core.methods import ESTIMATION_METHODS
from repro.core.importance import ImportanceSampler, importance_sampling
from repro.core.profiles import (
    BinomialDistribution,
    CategoricalDistribution,
    PiecewiseUniformDistribution,
    TruncatedGeometricDistribution,
    TruncatedNormalDistribution,
    TruncatedPoissonDistribution,
    UniformDistribution,
    UsageProfile,
    parse_distribution_spec,
)
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig, QCoralResult, RoundReport
from repro.incremental import (
    ConstraintDiff,
    FactorDelta,
    ReusePlan,
    diff_constraint_sets,
    plan_reuse,
)
from repro.lang.ast import Constraint, ConstraintSet, PathCondition
from repro.lang.kernel import (
    clear_kernel_cache,
    get_kernel,
    kernel_cache_info,
    kernel_cache_stats,
)
from repro.obs import Observability
from repro.lang.parser import (
    parse_constraint,
    parse_constraint_set,
    parse_expression,
    parse_path_condition,
)
from repro.store import (
    STORE_BACKENDS,
    EstimateStore,
    JsonlStore,
    MemoryStore,
    SqliteStore,
    StoreEntry,
    open_store,
)

__version__ = "0.2.0"

# Library convention: never emit log records unless the application opts in
# (the CLI's --verbose does; embedders attach their own handlers).
logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    # Session facade (the documented public API)
    "Session",
    "Query",
    "RoundStream",
    "Report",
    "SCHEMA_VERSION",
    # Observability (zero-perturbation spans + metrics)
    "Observability",
    # Profiles and the constraint language
    "Estimate",
    "UsageProfile",
    "UniformDistribution",
    "TruncatedNormalDistribution",
    "PiecewiseUniformDistribution",
    "BinomialDistribution",
    "TruncatedPoissonDistribution",
    "TruncatedGeometricDistribution",
    "CategoricalDistribution",
    "parse_distribution_spec",
    "Constraint",
    "PathCondition",
    "ConstraintSet",
    "parse_expression",
    "parse_constraint",
    "parse_path_condition",
    "parse_constraint_set",
    # Fused constraint kernels
    "get_kernel",
    "kernel_cache_stats",
    "kernel_cache_info",
    "clear_kernel_cache",
    # Engine layer (stable lower-level surface)
    "QCoralAnalyzer",
    "QCoralConfig",
    "QCoralResult",
    "RoundReport",
    "ESTIMATION_METHODS",
    "ImportanceSampler",
    "importance_sampling",
    # Incremental re-quantification (constraint-set diff + reuse plan)
    "ConstraintDiff",
    "FactorDelta",
    "diff_constraint_sets",
    "ReusePlan",
    "plan_reuse",
    # Store backends
    "EstimateStore",
    "MemoryStore",
    "JsonlStore",
    "SqliteStore",
    "StoreEntry",
    "STORE_BACKENDS",
    "open_store",
    "__version__",
]
