"""Public registration surface for the pluggable backend registries.

Two registries drive resolution end to end — estimation methods
(:data:`repro.core.methods.METHOD_REGISTRY`) and estimate-store backends
(:data:`repro.store.backends.STORE_REGISTRY`).  Anything registered here is
immediately usable everywhere a name is accepted: ``QCoralConfig`` validation,
``Query.method()`` / ``Session(store_backend=...)``, and the ``qcoral`` CLI
``choices`` lists (register before ``build_parser()``).

Example — a store backend lands without touching core code::

    from repro import MemoryStore, register_store_backend

    register_store_backend("scratch", lambda path=None, readonly=False: MemoryStore())
    Session(store_backend="scratch")
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.methods import METHOD_REGISTRY, EstimationMethod, SamplerFactory
from repro.store.backends import STORE_REGISTRY, EstimateStore
from repro.store.keys import stratified_method


def register_method(
    name: str,
    make_sampler: SamplerFactory,
    *,
    store_method: Optional[Callable[[object], str]] = None,
    requires_stratified: bool = True,
    adaptive: bool = False,
    feature: Optional[str] = None,
    replace: bool = False,
) -> EstimationMethod:
    """Register an estimation method under ``name``.

    ``make_sampler(factor, profile, *, variables, solver, seed, chunk_size,
    config)`` must build a resumable
    :class:`~repro.core.stratified.StratifiedSampler` (subclasses welcome).
    ``seed`` is the factor's keyed ``numpy.random.SeedSequence``; pass it on
    as the sampler's seed, so every chunk is keyed by (master seed, factor,
    stratum, sample offset) and results stay the same at every worker count.
    A factory that also takes a ``paving`` keyword receives a warm factor's
    stored paving (its strata, ready-made) and may skip ICP; factories
    without it re-pave on warm runs.
    ``store_method`` maps a config to the persistent-store method tag; the
    default prefixes the stratified tag with the method name so a custom
    method's counts never pool with another method's (identical sampling
    semantics must opt in explicitly by sharing a tag).
    """
    def _default_store_method(config, _name: str = name) -> str:
        return f"{_name}+{stratified_method(config.icp)}"

    spec = EstimationMethod(
        name=name,
        make_sampler=make_sampler,
        store_method=store_method if store_method is not None else _default_store_method,
        requires_stratified=requires_stratified,
        adaptive=adaptive,
        feature=feature,
    )
    return METHOD_REGISTRY.register(name, spec, replace=replace)


def register_store_backend(
    name: str,
    factory: Callable[..., EstimateStore],
    *,
    replace: bool = False,
) -> Callable[..., EstimateStore]:
    """Register a store backend: ``factory(path, readonly=...) -> EstimateStore``.

    Custom backends are reachable by explicit name (``Session(store=path,
    store_backend=name)``, ``--store-backend name``); path-suffix inference
    in :func:`repro.store.backends.open_store` stays limited to the builtins.
    """
    return STORE_REGISTRY.register(name, factory, replace=replace)


def unregister_method(name: str) -> EstimationMethod:
    """Remove a registered estimation method (plugin/test cleanup)."""
    return METHOD_REGISTRY.unregister(name)


def unregister_store_backend(name: str):
    """Remove a registered store backend (plugin/test cleanup)."""
    return STORE_REGISTRY.unregister(name)
