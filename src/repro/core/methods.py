"""Estimation methods: the per-factor sampler and store tag of each method name.

The analyzer estimates every factor with one of two methods — the paper's
hit-or-miss sampling inside ICP pavings, or the distribution-aware
importance-sampling layer (:mod:`repro.core.importance`).  This module is the
one place that maps a method name to its sampler (:func:`make_sampler`) and
to its persistent-store method tag (:func:`store_method_tag`), which keys
counts apart so methods with different sampling semantics never pool their
Bernoulli counts (see :mod:`repro.store.keys`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.importance import ImportanceSampler, _StoredImportanceSampler
from repro.core.profiles import UsageProfile
from repro.core.stratified import StratifiedSampler
from repro.icp.solver import ICPSolver, Paving
from repro.lang import ast
from repro.store.keys import importance_method, mc_method, stratified_method

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.qcoral import QCoralConfig
    from repro.obs import Observability

#: Method names accepted throughout the stack (config, CLI).
ESTIMATION_METHODS = ("hit-or-miss", "importance")


def make_sampler(
    factor: ast.PathCondition,
    profile: UsageProfile,
    *,
    variables: Sequence[str],
    solver: ICPSolver,
    seed: np.random.SeedSequence,
    chunk_size: Optional[int],
    config: "QCoralConfig",
    observability: Optional["Observability"] = None,
    paving: Optional[Paving] = None,
    masses: Optional[Sequence[float]] = None,
) -> StratifiedSampler:
    """Build the resumable sampler ``config.method`` estimates ``factor`` with.

    ``seed`` is the factor's keyed ``SeedSequence``, so every chunk is keyed
    by (master seed, factor, stratum, sample offset).  ``paving`` is a warm
    factor's stored paving, and ``masses`` its boxes' profile masses; the
    sampler builds its strata from them instead of re-paving with ICP.
    """
    if config.method != "importance":
        return StratifiedSampler(
            factor,
            profile,
            seed,
            variables=variables,
            solver=solver,
            chunk_size=chunk_size,
            observability=observability,
            paving=paving,
            masses=masses,
        )
    kwargs = dict(
        variables=variables,
        solver=solver,
        chunk_size=chunk_size,
        max_boxes=config.mass_split_boxes,
        observability=observability,
    )
    # Adaptive splits make the stored paving depend on the sample history,
    # so such runs re-pave and re-refine rather than adopt it.
    if paving is not None and config.mass_split_adaptive == 0:
        return _StoredImportanceSampler(factor, profile, seed, paving=paving, masses=masses, **kwargs)
    return ImportanceSampler(factor, profile, seed, adaptive_splits=config.mass_split_adaptive, **kwargs)


def store_method_tag(config: "QCoralConfig") -> str:
    """The persistent-store method tag a configuration samples under.

    This is the single place the config → method-tag mapping lives: the
    analyzer keys its store context with it, the run ledger derives family
    digests from it, and the incremental differ must produce digests that
    line up with both — so all three call here.  Non-stratified runs always
    tag ``mc`` regardless of the configured method name (the STRAT feature
    off means whole-domain hit-or-miss counts).
    """
    if not config.stratified:
        return mc_method()
    if config.method == "importance":
        return importance_method(config.icp, config.mass_split_boxes)
    return stratified_method(config.icp)
