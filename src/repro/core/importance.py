"""Distribution-aware importance sampling: mass-refined stratification.

The paper's stratified sampler (Section 3.3) lets the ICP solver decide where
the strata are: boxes are bisected by *width* until the solver's budget runs
out, then hit-or-miss samples are drawn inside each box.  That is the right
refinement target when the usage profile is uniform — box volume is box mass —
but on *peaked* profiles (truncated normals, binomial/Poisson-style discrete
inputs) most of the probability mass concentrates in a few boxes, and the
per-box sampling variance there dominates the combined error no matter how
finely the low-mass rim is paved.

:class:`ImportanceSampler` makes the stratification itself distribution-aware:

* **Mass-driven refinement** — the ICP paving is refined further by repeatedly
  splitting the boundary box with the highest ``mass × σ̂²`` score (before any
  sampling the per-box σ̂ is the constant Bernoulli prior, so the heaviest box
  goes first).  Splits are placed at the *conditional mass median* of the most
  mass-balanced dimension (:meth:`~repro.core.profiles.Distribution.split_point`),
  on half-integer boundaries for discrete variables so no atom is ever shared
  between siblings; every child is re-contracted with HC4 and re-classified,
  so refinement can prove children inner (exact, free) or empty (excluded,
  free) on top of shrinking the sampled region.
* **Mass-proportional allocation** — each round's budget lands on the strata
  by ``mass · σ̂`` (the existing Neyman machinery, which degrades to pure
  mass-proportional sampling while σ̂ is still the uniform prior).  A pilot
  round therefore draws from the profile *restricted to the union of the
  undecided boxes* — the textbook importance-sampling proposal for this
  estimand.
* **Self-normalised combination** — per-sample importance weights are constant
  inside a stratum (``w = m_i / (n_i / N)``), and the normalising constant
  ``Σ_j w_j / N = Σ_i m_i`` is *known exactly* because box masses are exact
  under the profile.  The self-normalised estimator therefore coincides with
  the stratified combination ``Σ_i m_i p̂_i`` — with zero normalisation noise —
  and its delta-method variance is the stratified variance
  ``Σ_i m_i² p̂_i (1 - p̂_i) / n_i``.  :meth:`ImportanceSampler.estimate`
  computes it in the normalised form so the estimator's structure is explicit.

Optionally the sampler keeps refining *while sampling*: with a positive
``adaptive_splits`` budget, each extension round may split the stratum with
the largest observed variance contribution ``m_i² σ̂_i² / n_i``.  The parent's
accumulated counts cannot be attributed to the children (only counts are kept,
not coordinates), so they are written off — tracked in
:attr:`ImportanceSampler.discarded_samples` and still charged against the
sampling budget.  Adaptive refinement trades those samples for a finer paving
where the variance actually is; it also makes the final paving depend on the
run's sample history, so such runs re-pave instead of adopting a stored
paving, and the persistent store only reuses/publishes importance entries
whose paving fingerprint still matches (the analyzer guards this).  Without
adaptive splits a warm run rebuilds the refined strata straight from the
stored paving.
"""

from __future__ import annotations

import heapq
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.estimate import Estimate
from repro.core.profiles import UsageProfile
from repro.core.stratified import SeedLike, StratifiedResult, StratifiedSampler, Stratum
from repro.errors import AnalysisError, ConfigurationError
from repro.exec.scheduler import SamplingTask
from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.contractor import contract
from repro.icp.hc4 import ConstraintTree, constraint_trees
from repro.icp.solver import ICPSolver, PavedBox, Paving
from repro.intervals.box import Box
from repro.intervals.interval import Interval
from repro.lang import ast
from repro.obs import Observability

#: Default cap on the number of strata after mass-driven refinement.
DEFAULT_MASS_SPLIT_BOXES = 64

#: Boxes with less profile mass than this are never worth refining.
MIN_SPLIT_MASS = 1e-12

#: The same threshold in log space (box ordering happens there; see
#: :meth:`ImportanceSampler._refined_boxes`).
_LOG_MIN_SPLIT_MASS = math.log(MIN_SPLIT_MASS)


class ImportanceSampler(StratifiedSampler):
    """Mass-refined, self-normalised stratified estimator of one path condition.

    Drop-in replacement for :class:`~repro.core.stratified.StratifiedSampler`:
    the persistent-strata machinery, the keyed chunk plan and its execution,
    and the store integration are all inherited.  What changes is *where the
    strata are* (mass-driven refinement on top of the ICP paving), *where the
    budget goes* (callers should extend with the ``"neyman"`` or ``"mass"``
    policy so draws follow ``mass · σ̂``), and *how the combination is formed*
    (the self-normalised estimator of the module docstring).

    Args:
        max_boxes: Stratum-count cap for the upfront mass-driven refinement;
            the ICP paving is refined until this many strata exist (or no
            splittable mass remains).  The refinement is a pure function of
            the paving, the profile, and this knob — never of the samples —
            so pavings (and store fingerprints) are reproducible across runs.
        adaptive_splits: Extra splits the sampler may spend *during* sampling
            on the strata with the largest observed variance contribution
            (0 disables; see the module docstring for the write-off cost).
    """

    method_label = "importance"

    def __init__(
        self,
        pc: ast.PathCondition,
        profile: UsageProfile,
        seed: SeedLike,
        variables: Optional[Sequence[str]] = None,
        icp_config: ICPConfig = PAPER_CONFIG,
        solver: Optional[ICPSolver] = None,
        pool: Optional[ThreadPoolExecutor] = None,
        chunk_size: Optional[int] = None,
        max_boxes: int = DEFAULT_MASS_SPLIT_BOXES,
        adaptive_splits: int = 0,
        observability: Optional[Observability] = None,
    ) -> None:
        self._configure(max_boxes, adaptive_splits)
        super().__init__(
            pc,
            profile,
            seed,
            variables=variables,
            icp_config=icp_config,
            solver=solver,
            pool=pool,
            chunk_size=chunk_size,
            observability=observability,
        )

    def _configure(self, max_boxes: int, adaptive_splits: int) -> None:
        """Check and keep the refinement knobs (before the strata are built)."""
        if max_boxes < 1:
            raise ConfigurationError("importance sampling needs a positive stratum cap")
        if adaptive_splits < 0:
            raise ConfigurationError("adaptive split budget may not be negative")
        self._max_boxes = max_boxes
        self._adaptive_remaining = adaptive_splits
        self._discarded_samples = 0

    # ------------------------------------------------------------------ #
    # Mass-driven refinement
    # ------------------------------------------------------------------ #
    def _refined_boxes(self, paving: Paving) -> Sequence[PavedBox]:
        """Refine the ICP paving by splitting the highest-mass boundary boxes.

        Before any sampling every undecided box carries the same prior σ̂, so
        the highest ``mass × σ̂²`` box is simply the heaviest one; a max-heap
        on mass pops it, :meth:`_split_paved` bisects it at the conditional
        mass median, and the (re-contracted, re-classified) children re-enter
        the heap.  Inner, mass-free, and unsplittable boxes retire to the
        ``finished`` list.  The returned order — retirees first, then the heap
        drained in mass order — is deterministic, which keeps store
        fingerprints reproducible.
        """
        finished: List[PavedBox] = []
        counter = itertools.count()
        heap: List[Tuple[float, int, PavedBox]] = []

        def admit(paved: PavedBox) -> None:
            # Heap priority in log space: a high-dimensional peaked profile
            # can underflow the linear mass product to 0.0, which would make
            # every heavy box tie at the top; log masses keep them ordered.
            log_mass = self._profile.log_mass(paved.box)
            if paved.inner or log_mass <= _LOG_MIN_SPLIT_MASS:
                finished.append(paved)
            else:
                heapq.heappush(heap, (-log_mass, next(counter), paved))

        for paved in paving.boxes:
            admit(paved)

        while heap and len(finished) + len(heap) < self._max_boxes:
            _, _, paved = heapq.heappop(heap)
            children = self._split_paved(paved)
            if children is None:
                finished.append(paved)
                continue
            self._obs.count("importance_refinement_splits_total")
            for child in children:
                admit(child)

        while heap:
            finished.append(heapq.heappop(heap)[2])
        return finished

    @cached_property
    def _trees(self) -> Tuple[ConstraintTree, ...]:
        """The factor's constraint trees, built on the first split and swept by every split."""
        return constraint_trees(self._pc)

    def _split_paved(self, paved: PavedBox) -> Optional[List[PavedBox]]:
        """Bisect one boundary box at the profile's mass median; None if unsplittable.

        Both halves are re-contracted with HC4 — a half proven solution-free
        vanishes (its mass is excluded exactly) — and re-classified, so a
        split can upgrade parts of the box to inner (exact, never sampled).
        """
        chosen = self._choose_split(paved.box)
        if chosen is None:
            return None
        name, at = chosen
        # Atoms on a strict-inequality boundary carry positive mass, so inner
        # certification over discrete variables must clear the boundary with
        # no floating-point slack (same rule the paving solver applies).
        strict = bool(self._integer_names)
        trees = self._trees
        children: List[PavedBox] = []
        for half in paved.box.split(name, at):
            contracted = contract(self._pc, half, self._icp_config, trees)
            if contracted is None:
                continue
            inner = all(tree.certainly_holds(contracted, strict) for tree in trees)
            children.append(PavedBox(contracted, inner=inner))
        return children

    def _choose_split(self, box: Box) -> Optional[Tuple[str, float]]:
        """Pick the dimension whose mass-median split is most balanced.

        Every dimension proposes its conditional mass median
        (:meth:`~repro.core.profiles.Distribution.split_point`); the one whose
        two halves carry the most equal mass wins, with ties broken towards
        the dimension with the most remaining resolution (atoms for discrete
        variables, relative width for continuous ones) so refinement cycles
        through the dimensions instead of slicing one forever.
        """
        best: Optional[Tuple[float, float, int, str, float]] = None
        for index, name in enumerate(box.variables):
            distribution = self._profile.distribution(name)
            interval = box.interval(name)
            at = distribution.split_point(interval)
            if at is None or not interval.lo < at < interval.hi:
                continue
            mass = distribution.mass(interval)
            if mass <= 0.0:
                continue
            left = distribution.mass(Interval.make(interval.lo, at))
            balance = abs(2.0 * left - mass) / mass
            if distribution.is_discrete:
                support = distribution.support
                resolution = min(interval.hi, support.hi) - max(interval.lo, support.lo)
            else:
                width = distribution.support.width()
                resolution = interval.width() / width if width > 0.0 else 0.0
            key = (round(balance, 9), -resolution, index)
            if best is None or key < best[:3]:
                best = key + (name, at)
        if best is None:
            return None
        return best[3], best[4]

    # ------------------------------------------------------------------ #
    # Adaptive refinement during sampling
    # ------------------------------------------------------------------ #
    @property
    def discarded_samples(self) -> int:
        """Samples written off by adaptive splits (still charged to the budget)."""
        return self._discarded_samples

    @property
    def total_samples(self) -> int:
        """Samples consumed so far, including those adaptive splits wrote off."""
        return super().total_samples + self._discarded_samples

    def _maybe_adaptive_refine(self) -> None:
        """Spend one adaptive split on the largest variance contributor, if any.

        Runs at the head of every extension round, so the decision depends
        only on the merged per-stratum counts — which do not depend on the
        worker count — and the refined paving stays bit-identical at every
        worker count.  The
        children's boxes differ from every live stratum's, so their chunk
        seeds never share a key with another stratum's.
        """
        if self._adaptive_remaining <= 0:
            return
        candidates = sorted(
            (index for index, stratum in enumerate(self._strata) if stratum.sampleable),
            key=lambda index: -self._variance_contribution(self._strata[index]),
        )
        for index in candidates:
            stratum = self._strata[index]
            children = self._split_paved(PavedBox(stratum.box, inner=False))
            if children is None:
                continue
            self._adaptive_remaining -= 1
            self._discarded_samples += stratum.draw_count
            if self._obs.enabled:
                self._obs.count("importance_adaptive_splits_total")
                self._obs.count("importance_discarded_samples_total", stratum.draw_count)
            replacement = [Stratum(child.box, self._profile.mass(child.box), child.inner) for child in children]
            self._strata[index : index + 1] = replacement
            if not any(stratum.sampleable for stratum in self._strata):
                # The split proved the last sampleable stratum inner/empty:
                # the estimate is now exact, and freezing it here stops the
                # remaining rounds from dumping budget into boxes that can
                # no longer reduce the variance (or, for mass-free discrete
                # boxes, cannot be sampled at all).
                self._exact = self.estimate()
            return
        # Nothing splittable is left; stop trying on future rounds.
        self._adaptive_remaining = 0

    @staticmethod
    def _variance_contribution(stratum: Stratum) -> float:
        """The stratum's term ``w² σ̂² / n`` of the combined variance."""
        sigma = stratum.sigma()
        return stratum.weight * stratum.weight * sigma * sigma / max(1, stratum.samples)

    def plan_extension(self, budget: int, allocation: str = "even") -> List[Tuple[int, SamplingTask]]:
        # The refine step can prove the estimate exact mid-run, in which case
        # the base plan is empty rather than an even split over inner strata.
        self._maybe_adaptive_refine()
        return super().plan_extension(budget, allocation)

    # ------------------------------------------------------------------ #
    # The self-normalised estimator
    # ------------------------------------------------------------------ #
    def estimate(self) -> Estimate:
        """Self-normalised importance estimate of the factor probability.

        Inner strata contribute their exact mass.  Over the sampled strata the
        per-sample importance weights are constant per stratum and their sum is
        the *exact* boundary mass ``M = Σ_i m_i``, so the self-normalised hit
        rate ``(Σ_i m_i p̂_i) / M`` carries no normalisation noise; scaling it
        back by ``M`` gives the stratified combination with the delta-method
        variance ``Σ_i m_i² p̂_i (1 - p̂_i) / n_i``.
        """
        if self._exact is not None:
            return self._exact
        inner_mass = 0.0
        weighted_hit_rate = 0.0
        normaliser = 0.0
        variance = 0.0
        for stratum in self._strata:
            if stratum.weight == 0.0:
                continue
            if stratum.inner:
                inner_mass += stratum.weight
                continue
            part = stratum.estimate()
            weighted_hit_rate += stratum.weight * part.mean
            variance += stratum.weight * stratum.weight * part.variance
            normaliser += stratum.weight
        if normaliser > 0.0:
            conditional = weighted_hit_rate / normaliser
            mean = inner_mass + normaliser * conditional
        else:
            mean = inner_mass
        return Estimate(mean, variance)

    # ------------------------------------------------------------------ #
    # Store integration
    # ------------------------------------------------------------------ #
    def paving_fingerprint(self, canonical_order: Sequence[str]) -> str:
        """Refined-paving fingerprint, prefixed with the refinement knob.

        The prefix makes importance fingerprints self-describing (and disjoint
        from plain stratified ones even for the degenerate cap of 1 box), on
        top of the method-tag separation the store key already enforces.
        """
        return f"imp{self._max_boxes}|" + super().paving_fingerprint(canonical_order)


class _StoredImportanceSampler(ImportanceSampler):
    """An :class:`ImportanceSampler` whose strata are a stored, already refined paving.

    Building it runs neither ICP nor the upfront mass refinement: the stored
    boxes become the strata as they are, as :class:`StratifiedSampler` takes
    a given ``paving`` (with their profile ``masses`` when the caller has
    them).  Stored pavings are only adopted without adaptive splits.  The
    public :class:`ImportanceSampler` constructor takes no paving, so this
    one runs its checks and then builds the strata itself.
    """

    def __init__(
        self,
        pc: ast.PathCondition,
        profile: UsageProfile,
        seed: SeedLike,
        *,
        paving: Paving,
        masses: Optional[Sequence[float]] = None,
        max_boxes: int = DEFAULT_MASS_SPLIT_BOXES,
        **kwargs: Any,
    ) -> None:
        self._configure(max_boxes, adaptive_splits=0)
        StratifiedSampler.__init__(self, pc, profile, seed, paving=paving, masses=masses, **kwargs)


def importance_sampling(
    pc: ast.PathCondition,
    profile: UsageProfile,
    samples: int,
    seed: SeedLike,
    variables: Optional[Sequence[str]] = None,
    icp_config: ICPConfig = PAPER_CONFIG,
    solver: Optional[ICPSolver] = None,
    allocation: str = "neyman",
    max_boxes: int = DEFAULT_MASS_SPLIT_BOXES,
    adaptive_splits: int = 0,
    pool: Optional[ThreadPoolExecutor] = None,
    chunk_size: Optional[int] = None,
) -> StratifiedResult:
    """One-shot convenience wrapper around :class:`ImportanceSampler`.

    Mirrors :func:`~repro.core.stratified.stratified_sampling`: build the
    mass-refined sampler, spend the whole budget in one round under
    ``allocation`` (``"neyman"`` — i.e. ``mass · σ̂`` — by default), and return
    the snapshot.
    """
    if samples <= 0:
        raise AnalysisError("importance sampling needs a positive sample budget")
    sampler = ImportanceSampler(
        pc,
        profile,
        seed,
        variables=variables,
        icp_config=icp_config,
        solver=solver,
        pool=pool,
        chunk_size=chunk_size,
        max_boxes=max_boxes,
        adaptive_splits=adaptive_splits,
    )
    sampler.extend(samples, allocation=allocation)
    return sampler.result()
