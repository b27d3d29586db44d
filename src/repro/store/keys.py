"""Canonical keys of the persistent estimate store.

A stored per-factor estimate is only reusable when *everything* that went
into producing it matches; the key therefore commits to four components:

1. **Alpha-renamed constraint text** — the factor simplified, conjuncts
   sorted, variables renamed to canonical positions
   (:mod:`repro.lang.canonical`), so syntactic duplicates *and* renamed
   duplicates share one entry.
2. **Profile fingerprint** — the distribution family, parameters, and domain
   of each variable, listed in canonical-position order.  Two factors with
   the same shape but differently distributed inputs describe different
   probabilities and must never share an entry.
3. **Estimation method** — plain hit-or-miss (``mc``) or ICP-stratified
   sampling with a specific solver configuration (``strat``).  Entries of
   different methods carry structurally different state (whole-domain counts
   vs per-stratum counts over a config-dependent paving), so they are kept
   apart by construction rather than reconciled at read time.
4. **Estimator version** — :data:`ESTIMATOR_VERSION`, bumped whenever the
   sampling semantics change, so entries written by an incompatible
   implementation are never reused.

For symmetric factors several alpha-renamings achieve the minimal canonical
text; the fingerprint breaks the tie (the smallest ``(text, fingerprint)``
pair wins), so the key is a pure function of factor + profile even when the
factor is invariant under swapping differently-distributed variables.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.profiles import (
    BinomialDistribution,
    CategoricalDistribution,
    Distribution,
    PiecewiseUniformDistribution,
    TruncatedGeometricDistribution,
    TruncatedNormalDistribution,
    TruncatedPoissonDistribution,
    UniformDistribution,
    UsageProfile,
)
from repro.icp.config import ICPConfig
from repro.lang import ast
from repro.lang.canonical import alpha_orders

#: Version tag of the estimator semantics.  Bump on any change to the
#: sampling/estimation pipeline that makes previously stored counts
#: incomparable with freshly drawn ones.
ESTIMATOR_VERSION = "qcoral-est-1"


def distribution_fingerprint(distribution: Distribution) -> str:
    """Deterministic text identifying a distribution family + parameters.

    The fingerprint covers the support too (it is implied by the parameters
    for the shipped families), so two variables are interchangeable for the
    store exactly when their fingerprints are equal.  Unknown distribution
    subclasses get a generic fingerprint from their dataclass fields, or —
    as a last resort — their ``repr``; an over-precise fingerprint only costs
    reuse, never soundness.
    """
    if isinstance(distribution, UniformDistribution):
        return f"uniform[{distribution.low!r},{distribution.high!r}]"
    if isinstance(distribution, TruncatedNormalDistribution):
        return (f"truncnorm[{distribution.mean!r},{distribution.std!r}," f"{distribution.low!r},{distribution.high!r}]")
    if isinstance(distribution, PiecewiseUniformDistribution):
        edges = ",".join(repr(edge) for edge in distribution.edges)
        weights = ",".join(repr(weight) for weight in distribution.weights)
        return f"piecewise[{edges};{weights}]"
    if isinstance(distribution, BinomialDistribution):
        return f"binomial[{distribution.trials!r},{distribution.success!r}]"
    if isinstance(distribution, TruncatedPoissonDistribution):
        return f"poisson[{distribution.rate!r},{distribution.low!r},{distribution.high!r}]"
    if isinstance(distribution, TruncatedGeometricDistribution):
        return f"geometric[{distribution.success!r},{distribution.low!r},{distribution.high!r}]"
    if isinstance(distribution, CategoricalDistribution):
        weights = ",".join(repr(weight) for weight in distribution.weights)
        return f"categorical[{distribution.low!r};{weights}]"
    if dataclasses.is_dataclass(distribution):
        fields = ",".join(
            f"{field.name}={getattr(distribution, field.name)!r}"
            for field in dataclasses.fields(distribution)
        )
        return f"{type(distribution).__name__}[{fields}]"
    return f"{type(distribution).__name__}[{distribution!r}]"


def mc_method() -> str:
    """Method tag of plain whole-domain hit-or-miss estimation."""
    return "mc"


def stratified_method(icp: ICPConfig) -> str:
    """Method tag of ICP-stratified estimation under a solver configuration.

    The paving — and with it the meaning of the per-stratum counts — depends
    on every solver knob, so the full configuration is folded into the tag
    (including the wall-clock budget: two budgets systematically produce
    different pavings, and sharing a key would make them evict each other's
    pools on every write instead of pooling).
    """
    return (
        f"strat[boxes={icp.max_boxes},prec={icp.precision!r},"
        f"iter={icp.max_contractor_iterations},tol={icp.contraction_tolerance!r},"
        f"time={icp.time_budget!r}]"
    )


def importance_method(icp: ICPConfig, mass_split_boxes: int) -> str:
    """Method tag of mass-refined importance sampling under a solver configuration.

    Importance-sampled counts live over a *mass-refined* paving and are
    combined self-normalised; they must never pool with plain hit-or-miss or
    ICP-stratified counts, so the tag is disjoint from :func:`mc_method` and
    :func:`stratified_method` by construction.  The refinement cap is part of
    the tag because it determines the deterministic refined paving (the
    profile, the other refinement input, is already part of the key).
    """
    return (
        f"imp[boxes={icp.max_boxes},prec={icp.precision!r},"
        f"iter={icp.max_contractor_iterations},tol={icp.contraction_tolerance!r},"
        f"time={icp.time_budget!r},splits={mass_split_boxes}]"
    )


@dataclass(frozen=True)
class FactorKey:
    """The resolved canonical key of one factor under one profile + method.

    Attributes:
        digest: Stable store key (SHA-256 over version, method, text, and
            fingerprint) — what the backends index by.
        pc_text: The alpha-renamed canonical constraint text.
        fingerprint: The canonical-position-ordered profile fingerprint.
        variables: Original variable names in canonical order; position ``i``
            is the variable ``$v{i}`` stands for.  A warm-starting reader
            uses this order to line stored state up with its own variables.
    """

    digest: str
    pc_text: str
    fingerprint: str
    variables: Tuple[str, ...]


@dataclass(frozen=True)
class StoreContext:
    """Everything needed to key factors of one analysis run.

    One analyzer quantifies factors under a fixed usage profile and a fixed
    estimation method, so the context is computed once per run and reused for
    every factor lookup.
    """

    profile: UsageProfile
    method: str
    version: str = ESTIMATOR_VERSION

    def tag(self) -> Tuple[str, str, str]:
        """Version, method and profile fingerprint: all that keys depend on.

        :meth:`key_for` sees the profile only through its distribution
        fingerprints, so two contexts with equal tags key every factor alike.
        Computed once per context; a run asks for it once per plan and once
        per stored paving it reads.
        """
        tag = self.__dict__.get("_tag")
        if tag is None:
            profile = ";".join(
                f"{name}={distribution_fingerprint(self.profile.distribution(name))}"
                for name in sorted(self.profile.variables)
            )
            tag = (self.version, self.method, profile)
            object.__setattr__(self, "_tag", tag)
        return tag

    def key_for(self, factor: ast.PathCondition) -> FactorKey:
        """Canonical store key of ``factor`` under this context.

        The factor is expected simplified (the analyzer keys simplified
        factors everywhere).  Among the minimal-text alpha orders the one
        with the smallest fingerprint wins, making the key deterministic for
        symmetric factors too.
        """
        best: Optional[Tuple[str, str, Tuple[str, ...]]] = None
        for order, text in alpha_orders(factor):
            fingerprint = ";".join(distribution_fingerprint(self.profile.distribution(name)) for name in order)
            candidate = (text, fingerprint, order)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        assert best is not None  # alpha_orders never returns an empty list
        text, fingerprint, order = best
        material = "\x1f".join((self.version, self.method, text, fingerprint))
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return FactorKey(digest=digest, pc_text=text, fingerprint=fingerprint, variables=order)
