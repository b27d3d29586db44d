"""Estimation-method registry: pluggable sampler construction per method name.

The analyzer used to hardcode its two estimation methods — the paper's
hit-or-miss sampling and the distribution-aware importance-sampling layer —
as an if/elif over :data:`ESTIMATION_METHODS`.  This module turns the method
name into a registry lookup so new estimation methods can be registered
(:func:`repro.api.register_method`) without touching
:mod:`repro.core.qcoral`.

An :class:`EstimationMethod` bundles everything the analyzer needs to know
about one method:

* ``make_sampler`` — how to build the resumable per-factor sampler;
* ``store_method`` — the persistent-store method tag, which keys counts apart
  so methods with different sampling semantics never pool their Bernoulli
  counts (see :mod:`repro.store.keys`);
* ``requires_stratified`` / ``adaptive`` — the configuration constraints the
  method imposes (importance sampling refines ICP pavings, so it needs the
  STRAT feature, and mass-aware allocation needs the adaptive round loop);
* ``feature`` — the optional tag the method contributes to
  :meth:`QCoralConfig.feature_label` (``IMP`` for importance sampling);
* ``accepts_paving`` — whether ``make_sampler`` takes a ready-made ``paving``
  keyword, read off its signature once when the method is built.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.importance import ImportanceSampler, _StoredImportanceSampler
from repro.core.profiles import UsageProfile
from repro.core.stratified import StratifiedSampler
from repro.icp.solver import ICPSolver, Paving
from repro.lang import ast
from repro.registry import Registry
from repro.store.keys import importance_method, stratified_method

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.qcoral import QCoralConfig
    from repro.obs import Observability

#: Signature every registered sampler factory must satisfy:
#: ``make_sampler(factor, profile, *, variables, solver, seed, chunk_size,
#: config)``.  ``seed`` is the factor's keyed ``SeedSequence`` (pass it on to
#: the sampler); ``config`` is the run's
#: :class:`~repro.core.qcoral.QCoralConfig`, from which method-specific knobs
#: (e.g. ``mass_split_boxes``) are read.
SamplerFactory = Callable[..., StratifiedSampler]


@dataclass(frozen=True)
class EstimationMethod:
    """One pluggable estimation method of the stratified sampling layer."""

    name: str
    make_sampler: SamplerFactory
    store_method: Callable[["QCoralConfig"], str]
    requires_stratified: bool = False
    adaptive: bool = False
    feature: Optional[str] = None
    #: True when ``make_sampler`` takes a ready-made ``paving`` keyword.  The
    #: analyzer hands a warm factor's stored paving only to such factories;
    #: factories registered without the keyword keep re-paving.
    accepts_paving: bool = field(init=False)

    def __post_init__(self) -> None:
        try:
            parameters = tuple(inspect.signature(self.make_sampler).parameters.values())
        except (TypeError, ValueError):
            parameters = ()
        takes = any(p.name == "paving" or p.kind == p.VAR_KEYWORD for p in parameters)
        object.__setattr__(self, "accepts_paving", takes)


#: Registry of estimation methods: name → :class:`EstimationMethod`.
METHOD_REGISTRY: "Registry[EstimationMethod]" = Registry("estimation method")

#: Method names accepted throughout the stack (config, CLI).  A live view of
#: :data:`METHOD_REGISTRY` — registered methods appear here too.
ESTIMATION_METHODS = METHOD_REGISTRY.view()


def _make_hit_or_miss(
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
) -> StratifiedSampler:
    return StratifiedSampler(
        factor,
        profile,
        seed,
        variables=variables,
        solver=solver,
        chunk_size=chunk_size,
        observability=observability,
        paving=paving,
    )


def _make_importance(
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
) -> StratifiedSampler:
    kwargs = dict(
        variables=variables,
        solver=solver,
        chunk_size=chunk_size,
        max_boxes=config.mass_split_boxes,
        adaptive_splits=config.mass_split_adaptive,
        observability=observability,
    )
    # Adaptive splits make the stored paving depend on the sample history,
    # so such runs re-pave and re-refine rather than adopt it.
    if paving is not None and config.mass_split_adaptive == 0:
        return _StoredImportanceSampler(factor, profile, seed, paving=paving, **kwargs)
    return ImportanceSampler(factor, profile, seed, **kwargs)


METHOD_REGISTRY.register(
    "hit-or-miss",
    EstimationMethod(
        name="hit-or-miss",
        make_sampler=_make_hit_or_miss,
        store_method=lambda config: stratified_method(config.icp),
    ),
)
METHOD_REGISTRY.register(
    "importance",
    EstimationMethod(
        name="importance",
        make_sampler=_make_importance,
        store_method=lambda config: importance_method(config.icp, config.mass_split_boxes),
        requires_stratified=True,
        adaptive=True,
        feature="IMP",
    ),
)


def store_method_tag(config: "QCoralConfig") -> str:
    """The persistent-store method tag a configuration samples under.

    This is the single place the config → method-tag mapping lives: the
    analyzer keys its store context with it, the run ledger derives family
    digests from it, and the incremental differ must produce digests that
    line up with both — so all three call here.  Non-stratified runs always
    tag ``mc`` regardless of the configured method name (the STRAT feature
    off means whole-domain hit-or-miss counts).
    """
    from repro.store.keys import mc_method

    if not config.stratified:
        return mc_method()
    if config.method not in METHOD_REGISTRY:
        return config.method
    return METHOD_REGISTRY.get(config.method).store_method(config)
