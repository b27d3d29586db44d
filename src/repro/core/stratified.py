"""ICP-driven stratified sampling (paper Section 3.3 and Algorithm 3).

The sampler asks the ICP solver for a paving of the constraint's solution set,
treats each paved box as a stratum, runs hit-or-miss Monte Carlo inside each
stratum, and combines the per-stratum estimators with the stratified-sampling
formulas of Equation (3):

    E[X] = Σ w_i · E[X_i]          Var[X] = Σ w_i² · Var[X_i]

The region of the domain not covered by any box is known to contain no
solution, so it contributes a stratum with mean 0 and variance 0 for free —
this is exactly the variance-reduction mechanism the paper describes.

Two refinements the ICP output enables:

* *inner* boxes (every point satisfies the constraints) contribute mean 1 and
  variance 0 without any sampling — this is why the paper's Cube
  microbenchmark has σ = 0;
* degenerate empty pavings prove the constraint unsatisfiable, yielding the
  exact estimate 0.

Beyond the paper's one-shot scheme, strata are *persistent*: a
:class:`StratifiedSampler` keeps each stratum's integer hit and draw counts,
estimates it from them (:func:`counts_estimate`), and can receive additional
budget round after round via :meth:`StratifiedSampler.extend`.
Each round's budget is split either evenly across the sampleable strata (the
paper's choice) or by **Neyman allocation** — proportional to each stratum's
weighted standard deviation ``w_i · σ_i``, which minimises the combined
variance ``Σ w_i² σ_i² / n_i`` for a fixed total budget.

The paper's plain hit-or-miss estimator (Equation 2) is the one-stratum case:
a sampler whose only stratum is its whole domain, of weight 1, keys its
chunks as whole-domain sampling does (stratum word 0), so its answers are
exactly those of hit-or-miss over the domain.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.estimate import Estimate
from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError, ConfigurationError
from repro.exec.scheduler import SamplingTask, digest_word, plan_chunks, run_sampling_tasks
from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.solver import ICPSolver, PavedBox, Paving
from repro.intervals.box import Box
from repro.intervals.interval import Interval
from repro.lang import ast
from repro.lang.kernel import get_kernel
from repro.obs import Observability, ensure_observability

#: What a sampler accepts as its seed: an int, a ``SeedSequence`` (the
#: analyzer passes each factor's keyed one), or None for fresh entropy.
SeedLike = Union[None, int, np.random.SeedSequence]

#: Allocation policy names accepted throughout the stack.  ``"even"`` is the
#: paper's equal split, ``"neyman"`` the variance-minimising ``w·σ`` split,
#: and ``"mass"`` the pure mass-proportional split (draws distributed like the
#: profile restricted to the union of the sampleable boxes — the importance
#: sampler's proposal before any variance information exists).
ALLOCATION_POLICIES = ("even", "neyman", "mass")

#: σ assumed for a stratum that has not been sampled yet: the Bernoulli
#: ceiling, so unexplored strata are prioritised by their weight alone.
_PRIOR_SIGMA = 0.5

#: Decoded stored pavings (:class:`StoredPaving`) a session keeps; the least
#: recently used goes first.  A paving-heavy or many-paths session reads ~50
#: distinct stored pavings per store context, and served-mix ~25.
PAVING_MEMO_SIZE = 256


def laplace_sigma_floor(hits: int, samples: int) -> float:
    """Smoothed Bernoulli σ from raw counts: ``√(p̃ (1 − p̃))``, ``p̃ = (h+1)/(n+2)``.

    Add-one (Laplace) smoothing keeps the σ estimate strictly positive on any
    finite sample, so an all-miss (or all-hit) pilot cannot zero a stratum's
    or factor's allocation priority forever; as ``n`` grows the floor decays
    to the true σ like ``1/√n``.
    """
    if samples < 0:
        raise AnalysisError("sample count may not be negative")
    smoothed = (hits + 1.0) / (samples + 2.0)
    return math.sqrt(smoothed * (1.0 - smoothed))


def counts_estimate(hits: int, samples: int) -> Estimate:
    """Hit-or-miss estimate of a stratum holding ``hits`` of ``samples`` draws.

    :meth:`Estimate.from_hits` of the counts; a stratum without draws reports
    the maximally uncertain prior (mean ½, the Bernoulli variance ceiling ¼).
    Live strata, preloaded strata and entries frozen from the store all
    estimate through here, so equal counts give bit-identical answers.
    """
    if samples == 0:
        return Estimate(0.5, 0.25)
    return Estimate.from_hits(hits, samples)


def stratum_masses(boxes: Iterable[PavedBox], profile: UsageProfile, domain: Box) -> Tuple[float, ...]:
    """Each box's profile mass; a box spanning the whole ``domain`` weighs exactly 1.

    The domain's mass is 1 by definition, while the per-variable product of
    :meth:`UsageProfile.mass` can round below it (histogram profiles), so a
    whole-domain stratum weighs the same whether it was built cold or decoded
    from the store.
    """
    return tuple(1.0 if paved.box == domain else profile.mass(paved.box) for paved in boxes)


@dataclass(frozen=True)
class StratumReport:
    """Per-stratum record kept for reporting and debugging."""

    box: Box
    weight: float
    inner: bool
    estimate: Estimate
    samples: int


@dataclass(frozen=True)
class StratifiedResult:
    """Combined stratified estimate plus per-stratum details."""

    estimate: Estimate
    strata: Tuple[StratumReport, ...]
    total_samples: int

    @property
    def box_count(self) -> int:
        """Number of strata (ICP boxes) used."""
        return len(self.strata)


class Stratum:
    """One persistent stratum: an ICP box plus its integer hit and draw counts.

    The counts are the stratum's whole sampling state: its estimate and σ are
    functions of them, and the persistent store serialises them (integers
    merge across runs without floating-point drift).  ``word`` keys the
    stratum's chunk seeds (set when first sampled, see
    :meth:`StratifiedSampler.plan_extension`).
    """

    __slots__ = (
        "box",
        "weight",
        "inner",
        "hit_count",
        "draw_count",
        "word",
        "zero_allocation_streak",
        "max_zero_allocation_streak",
    )

    def __init__(self, box: Box, weight: float, inner: bool) -> None:
        self.box = box
        self.weight = weight
        self.inner = inner
        self.hit_count = 0
        self.draw_count = 0
        self.word: Optional[int] = None
        # Starvation counters for the run-health diagnostics: consecutive
        # allocation rounds in which this sampleable stratum received zero
        # samples, and the worst such streak over the stratum's lifetime.
        self.zero_allocation_streak = 0
        self.max_zero_allocation_streak = 0

    @property
    def sampleable(self) -> bool:
        """True when this stratum consumes budget (boundary box with mass)."""
        return not self.inner and self.weight > 0.0

    @property
    def samples(self) -> int:
        """Samples spent inside this stratum so far."""
        return self.draw_count

    def absorb(self, hits: int, samples: int) -> None:
        """Add a batch of raw counts to the stratum's counts."""
        self.hit_count += hits
        self.draw_count += samples

    def sigma(self) -> float:
        """Per-sample standard deviation, with the Bernoulli prior when unsampled.

        The observed σ ``√(p (1 − p))``, ``p = h / n``, is floored by its
        Laplace-smoothed counterpart (``p̃ = (h + 1) / (n + 2)``): a stratum whose pilot saw 0 hits (or
        only hits) has an observed σ̂ of exactly 0, which under Neyman
        allocation would starve it of budget *permanently* no matter how
        little evidence the pilot carried.  The smoothed floor decays like
        ``1/√n``, so genuinely resolved strata still fade out of the
        allocation — they are just never hard-zeroed on finite evidence.
        """
        if not self.sampleable:
            return 0.0
        if self.draw_count == 0:
            return _PRIOR_SIGMA
        p = self.hit_count / self.draw_count
        return max(math.sqrt(p * (1.0 - p)), laplace_sigma_floor(self.hit_count, self.draw_count))

    def estimate(self) -> Estimate:
        """Current estimate of the conditional probability within the box."""
        if self.inner:
            return Estimate.one()
        if self.weight == 0.0:
            return Estimate.zero()
        return counts_estimate(self.hit_count, self.draw_count)

    def report(self) -> StratumReport:
        """Immutable snapshot for :class:`StratifiedResult`."""
        return StratumReport(self.box, self.weight, self.inner, self.estimate(), self.samples)


def stratified_estimate(terms: Iterable[Tuple[float, Estimate]]) -> Estimate:
    """Equation (3) over ``(weight, conditional estimate)`` terms, in order.

    Strata without mass contribute nothing and are skipped.  The sums run in
    plain floats, term by term, exactly as folding :meth:`Estimate.scale` and
    :meth:`Estimate.add_disjoint` would.  Both a live
    :class:`StratifiedSampler` and a fully covered stored entry
    (:meth:`StoredPaving.estimate`) sum through here, so the two agree bit for
    bit.
    """
    mean = 0.0
    variance = 0.0
    for weight, part in terms:
        if weight == 0.0:
            continue
        if weight < 0.0:
            raise ValueError("stratum weight must be non-negative")
        mean += weight * part.mean
        variance += weight * weight * part.variance
    return Estimate(mean, variance)


# --------------------------------------------------------------------------- #
# Budget allocation
# --------------------------------------------------------------------------- #
def allocate_budget(priorities: Sequence[float], budget: int) -> List[int]:
    """Split ``budget`` samples proportionally to ``priorities``.

    Largest-remainder rounding guarantees the shares sum to exactly ``budget``
    — no sample of the budget is ever silently dropped.  Every entry with a
    positive priority receives at least one sample whenever the budget is
    large enough to afford it.  Entries with zero priority receive nothing;
    when *all* priorities are zero the budget is split evenly instead.
    """
    if budget < 0:
        raise ConfigurationError("allocation budget may not be negative")
    count = len(priorities)
    if count == 0 or budget == 0:
        return [0] * count
    if any(p < 0 or math.isnan(p) for p in priorities):
        raise ConfigurationError("allocation priorities must be non-negative")

    total = float(sum(priorities))
    if total <= 0.0:
        effective = [1.0] * count
        total = float(count)
    else:
        effective = [float(p) for p in priorities]

    shares = [p / total * budget for p in effective]
    allocation = [int(share) for share in shares]
    remainders = [share - base for share, base in zip(shares, allocation)]
    leftover = budget - sum(allocation)
    for index in sorted(range(count), key=lambda i: remainders[i], reverse=True)[:leftover]:
        allocation[index] += 1

    # Guarantee a minimum of one sample per active entry so every stratum's σ
    # stays estimable, stealing from the largest shares when necessary.
    active = [index for index, p in enumerate(effective) if p > 0.0]
    if budget >= len(active):
        starved = [index for index in active if allocation[index] == 0]
        donors = sorted(active, key=lambda i: allocation[i], reverse=True)
        for index in starved:
            for donor in donors:
                if allocation[donor] > 1:
                    allocation[donor] -= 1
                    allocation[index] += 1
                    break
    return allocation


def allocation_priorities(strata: Sequence[Stratum], policy: str) -> List[float]:
    """Per-stratum allocation priorities under ``policy``.

    ``"even"`` gives every sampleable stratum the same priority (the paper's
    equal split); ``"neyman"`` weights each sampleable stratum by
    ``w_i · σ_i`` — the allocation that minimises the combined variance of
    Equation (3) — using the running per-stratum σ (unsampled strata assume
    the Bernoulli ceiling); ``"mass"`` weights by ``w_i`` alone, i.e. draws
    land mass-proportionally, as if sampling the profile restricted to the
    union of the sampleable boxes.
    """
    if policy not in ALLOCATION_POLICIES:
        raise ConfigurationError(f"unknown allocation policy {policy!r}; expected one of {ALLOCATION_POLICIES}")
    if policy == "even":
        return [1.0 if stratum.sampleable else 0.0 for stratum in strata]
    if policy == "mass":
        return [stratum.weight if stratum.sampleable else 0.0 for stratum in strata]
    return [stratum.weight * stratum.sigma() if stratum.sampleable else 0.0 for stratum in strata]


# --------------------------------------------------------------------------- #
# Paving text: the store's exact rendering of the strata
# --------------------------------------------------------------------------- #
def render_paving(boxes: Iterable[Union[Stratum, PavedBox]], canonical_order: Sequence[str]) -> str:
    """Render strata as ``|``-joined boxes: ``I``/``B``, then ``[lo,hi]`` per variable.

    Variables appear in ``canonical_order`` (position ``i`` is the variable
    the store calls ``$v{i}``) and bounds as ``repr`` floats, so the text is
    renaming-invariant and :func:`decode_paving` inverts it exactly.
    """
    rendered = []
    for paved in boxes:
        cells = ",".join(
            f"[{paved.box.interval(name).lo!r},{paved.box.interval(name).hi!r}]"
            for name in canonical_order
            if name in paved.box
        )
        rendered.append(("I" if paved.inner else "B") + cells)
    return "|".join(rendered)


def decode_paving(
    text: str, canonical_order: Sequence[str], variables: Sequence[str]
) -> Optional[Tuple[PavedBox, ...]]:
    """Exact inverse of :func:`render_paving`; None for text it did not render.

    Position ``i`` of each rendered box becomes ``canonical_order[i]``; the
    boxes list their variables in ``variables`` order (the sampler's, which
    fixes the order of every per-box product), a permutation of
    ``canonical_order``.  A leading segment that is not a box is a sampler's
    header (``ImportanceSampler`` writes ``imp<cap>``) and is skipped.  Every
    box must carry one ``[lo,hi]`` cell per variable with ``lo <= hi``, each
    bound written exactly as its ``repr``, so the decoded boxes render back
    to exactly ``text``.
    """
    if sorted(variables) != sorted(canonical_order):
        return None
    segments = text.split("|") if text else []
    if segments and segments[0][:1] not in ("I", "B"):
        segments = segments[1:]
    boxes = []
    for segment in segments:
        kind, cells = segment[:1], segment[1:]
        if kind not in ("I", "B"):
            return None
        bounds = cells[1:-1].split("],[") if cells else []
        if len(bounds) != len(canonical_order) or (cells and (cells[0], cells[-1]) != ("[", "]")):
            return None
        intervals = {}
        for name, pair in zip(canonical_order, bounds):
            parts = pair.split(",")
            if len(parts) != 2:
                return None
            try:
                lo, hi = float(parts[0]), float(parts[1])
            except ValueError:
                return None
            if not lo <= hi or repr(lo) != parts[0] or repr(hi) != parts[1]:
                return None
            intervals[name] = Interval(lo, hi)
        boxes.append(PavedBox(Box({name: intervals[name] for name in variables}), inner=kind == "I"))
    return tuple(boxes)


@dataclass(frozen=True)
class StoredPaving:
    """A stored paving, decoded and checked once, with each box's profile mass.

    Both are pure functions of the paving text, the two variable orders and
    the profile's distributions, so one decoding serves every run that reads
    the entry under one store context.  The entry's counts are not part of
    it: other runs keep pooling into them.  ``plain`` is True when the text is
    exactly the boxes' :func:`render_paving` text (it carries no sampler's
    header), which is the paving fingerprint of a :class:`StratifiedSampler`
    built on them.
    """

    paving: Paving
    masses: Tuple[float, ...]
    plain: bool

    @staticmethod
    def weigh(text: str, canonical_order: Sequence[str], paving: Paving, profile: UsageProfile) -> "StoredPaving":
        """``paving``, decoded from stored ``text`` (see :func:`decode_paving`), with its boxes weighed by ``profile``."""
        return StoredPaving(
            paving,
            stratum_masses(paving.boxes, profile, paving.domain),
            plain=render_paving(paving.boxes, canonical_order) == text,
        )

    @property
    def adoptable(self) -> bool:
        """True when a :class:`StratifiedSampler` on these strata would adopt the entry's counts and sample.

        Its paving fingerprint equals the stored text (``plain``), and some
        stratum would consume budget (a boundary box with mass), so the
        sampler is not exact.
        """
        return self.plain and any(
            not paved.inner and mass > 0.0 for paved, mass in zip(self.paving.boxes, self.masses)
        )

    def estimate(self, counts: Sequence[Tuple[int, int]]) -> Estimate:
        """What a :class:`StratifiedSampler` on these strata, preloaded with ``counts``, reports."""
        return stratified_estimate(
            (mass, Estimate.one() if paved.inner else counts_estimate(int(hits), int(samples)))
            for paved, mass, (hits, samples) in zip(self.paving.boxes, self.masses, counts)
        )


# --------------------------------------------------------------------------- #
# The persistent sampler
# --------------------------------------------------------------------------- #
class StratifiedSampler:
    """Resumable ICP-stratified estimator of one path condition.

    The paving is computed once at construction — or handed in ready-made
    through ``paving``, whose boxes then become the strata as they are (a
    warm run rebuilds them from its store entry, see :func:`decode_paving`,
    and may pass their profile ``masses`` too) —
    and every call to :meth:`extend` then distributes an additional sample
    budget over the persistent strata and adds the new counts to theirs.
    The current combined estimate is available at any time through
    :meth:`estimate` / :meth:`result`, so callers can interleave sampling
    with convergence checks.

    Each round is planned as per-stratum chunks (:meth:`plan_extension`)
    whose seeds are keyed by ``seed``, the stratum's box (word 0 for a lone
    whole-domain stratum) and the samples the stratum already holds
    (:func:`~repro.exec.scheduler.chunk_seed`); the chunks run on ``pool``
    (None: in the calling thread) and merge back through
    :meth:`absorb_chunk`, so the result is the same at every worker count.
    """

    #: Label the sampler reports its draws/hits under (importance overrides).
    method_label = "stratified"

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
        observability: Optional[Observability] = None,
        paving: Optional[Paving] = None,
        masses: Optional[Sequence[float]] = None,
    ) -> None:
        self._pc = pc
        self._profile = profile
        self._seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._pool = pool
        self._chunk_size = chunk_size
        self._obs = ensure_observability(observability)
        self._names: Tuple[str, ...] = (
            tuple(variables) if variables is not None else tuple(sorted(pc.free_variables()))
        )
        profile.check_covers(self._names)

        self._strata: List[Stratum] = []
        self._exact: Optional[Estimate] = None
        self._predicate = None
        #: True when ICP stopped on its wall-clock budget while paving this
        #: factor (so the paving depends on machine load).
        self.time_capped = False

        if not self._names:
            from repro.lang.evaluator import holds_path_condition

            self._exact = Estimate.exact(1.0 if holds_path_condition(pc, {}) else 0.0)
            return

        restricted = profile.restrict(self._names)
        icp_solver = solver if solver is not None else ICPSolver(icp_config)
        self._icp_config = icp_solver.config
        self._integer_names = restricted.discrete_variables()
        self._domain = restricted.domain()
        if paving is not None:
            # Ready-made strata (a stored paving): no ICP, no refinement.
            boxes: Sequence[PavedBox] = paving.boxes
        else:
            paving = self._pave(icp_solver, self._domain)
            self.time_capped = paving.time_capped
            if paving.is_unsatisfiable():
                self._exact = Estimate.zero()
                return
            boxes = self._refined_boxes(paving)
            masses = None
        if masses is None:
            masses = stratum_masses(boxes, profile, self._domain)

        for paved, mass in zip(boxes, masses):
            self._strata.append(Stratum(paved.box, mass, paved.inner))

        if not any(stratum.sampleable for stratum in self._strata):
            # Every box is inner or mass-free: the paving resolves the
            # probability exactly and no budget will ever be consumed.
            self._exact = Estimate.exact(sum(stratum.weight for stratum in self._strata if stratum.inner))
            return

        # Compiled here, outside the sampling rounds, and handed to every
        # planned chunk.
        self._predicate = get_kernel(pc)

    def _pave(self, solver: ICPSolver, domain: Box) -> Paving:
        """Pave the constraint over ``domain``, recording solver effort on the hub."""
        if not self._obs.enabled:
            return solver.pave(self._pc, domain, integer_variables=self._integer_names)
        with self._obs.span("icp.pave", variables=len(self._names)):
            pave_started = time.perf_counter()
            paving = solver.pave(self._pc, domain, integer_variables=self._integer_names)
            self._obs.observe("icp_pave_seconds", time.perf_counter() - pave_started)
        self._obs.count("icp_boxes_explored_total", paving.boxes_explored)
        self._obs.count("icp_contraction_passes_total", paving.contraction_passes)
        if paving.time_capped:
            self._obs.count("icp_time_capped_total")
        return paving

    def _refined_boxes(self, paving: "Paving") -> Sequence["PavedBox"]:
        """Hook mapping the ICP paving to the stratum boxes (identity here).

        The importance sampler overrides this to refine the paving further by
        splitting the highest-mass boxes before any budget is spent.
        """
        return paving.boxes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def strata(self) -> Tuple[Stratum, ...]:
        """The persistent strata (empty when the estimate is exact)."""
        return tuple(self._strata)

    @property
    def is_exact(self) -> bool:
        """True when ICP resolved the probability without any sampling."""
        return self._exact is not None

    @property
    def total_samples(self) -> int:
        """Samples consumed across all strata so far."""
        return sum(stratum.samples for stratum in self._strata)

    def effective_sample_size(self) -> Optional[float]:
        """Cross-strata effective sample size of the self-normalised form.

        With per-stratum importance weights constant inside a stratum
        (``w_i = m_i · N / n_i``), the standard ``(Σw)² / Σw²`` ESS reduces to
        ``M² / Σ m_i²/n_i`` over the sampled sampleable strata of total mass
        ``M``.  Equals ``N`` exactly when allocation is proportional to mass
        and collapses as allocation diverges from the mass profile — the
        degeneracy signal the run-health diagnostics act on.  ``None`` before
        any sampleable stratum has been drawn from.
        """
        mass = 0.0
        denominator = 0.0
        for stratum in self._strata:
            if not stratum.sampleable or stratum.draw_count == 0:
                continue
            mass += stratum.weight
            denominator += stratum.weight * stratum.weight / stratum.draw_count
        if denominator <= 0.0:
            return None
        return mass * mass / denominator

    def _record_allocation(self, shares: Sequence[int]) -> None:
        """Update per-stratum zero-allocation streaks after one budget split.

        Called exactly once per allocation round, so the streak counters —
        inputs to the deterministic run-health diagnostics — are identical
        at every worker count.
        """
        for stratum, share in zip(self._strata, shares):
            if not stratum.sampleable:
                continue
            if share > 0:
                stratum.zero_allocation_streak = 0
            else:
                stratum.zero_allocation_streak += 1
                if stratum.zero_allocation_streak > stratum.max_zero_allocation_streak:
                    stratum.max_zero_allocation_streak = stratum.zero_allocation_streak

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def extend(self, budget: int, allocation: str = "even") -> int:
        """Spend ``budget`` more samples across the strata; returns samples used.

        The whole budget is divided across the *sampleable* strata only —
        inner and mass-free boxes consume nothing — so the returned count
        equals ``budget`` whenever at least one stratum is sampleable.  The
        round is planned (:meth:`plan_extension`), run on the sampler's
        pool, and absorbed (:meth:`absorb_chunk`).
        """
        planned = self.plan_extension(budget, allocation)
        outcomes = run_sampling_tasks(self._pool, [task for _, task in planned], observability=self._obs)
        used = 0
        for (stratum_index, _), (hits, samples) in zip(planned, outcomes):
            self.absorb_chunk(stratum_index, hits, samples)
            used += samples
        return used

    def plan_extension(self, budget: int, allocation: str = "even") -> List[Tuple[int, SamplingTask]]:
        """Plan ``budget`` samples as keyed ``(stratum_index, task)`` chunks.

        Shares follow the allocation policy and each share is cut into
        worker-count-independent chunks, keyed by the sampler's seed, the
        stratum's box and the samples it already holds
        (:func:`~repro.exec.scheduler.plan_chunks`).  The plan is a pure
        function of the sampler's state, so running the tasks anywhere and
        feeding the counts back through :meth:`absorb_chunk` gives the same
        counts at any worker count.
        """
        if budget < 0:
            raise AnalysisError("stratified budget may not be negative")
        if self._exact is not None or budget == 0:
            return []
        shares = allocate_budget(allocation_priorities(self._strata, allocation), budget)
        self._record_allocation(shares)
        planned: List[Tuple[int, SamplingTask]] = []
        for index, (stratum, share) in enumerate(zip(self._strata, shares)):
            if share == 0:
                continue
            if stratum.word is None:
                # A lone whole-domain stratum is plain hit-or-miss and keys
                # its chunks with word 0, as whole-domain sampling does; any
                # other stratum by the digest of its box.
                whole_domain = len(self._strata) == 1 and stratum.box == self._domain
                stratum.word = 0 if whole_domain else digest_word(render_paving((stratum,), self._names))
            for task in plan_chunks(
                self._pc,
                self._profile,
                self._names,
                share,
                self._seed,
                stratum.word,
                stratum.draw_count,
                self._chunk_size,
                box=stratum.box,
                predicate=self._predicate,
            ):
                planned.append((index, task))
        return planned

    def absorb_chunk(self, stratum_index: int, hits: int, samples: int) -> None:
        """Fold one executed chunk's raw counts into its stratum."""
        self._strata[stratum_index].absorb(hits, samples)
        if self._obs.enabled:
            self._obs.count("sampler_draws_total", samples, method=self.method_label)
            self._obs.count("sampler_hits_total", hits, method=self.method_label)

    # ------------------------------------------------------------------ #
    # Persistent-store integration (raw counts in paving order)
    # ------------------------------------------------------------------ #
    def counts(self) -> Tuple[Tuple[int, int], ...]:
        """Exact per-stratum ``(hits, samples)`` counts, in paving order."""
        return tuple((stratum.hit_count, stratum.draw_count) for stratum in self._strata)

    def preload_counts(self, counts: Sequence[Tuple[int, int]]) -> None:
        """Warm-start the strata from counts a previous run stored.

        ``counts`` must line up with this sampler's paving (same length, same
        order).  A warm run builds the sampler from the entry's own paving,
        so they do; the caller still compares :meth:`paving_fingerprint`
        before preloading, which catches a sampler that had to re-pave.
        """
        if len(counts) != len(self._strata):
            raise AnalysisError(f"cannot preload {len(counts)} strata into a paving of {len(self._strata)}")
        for stratum, (hits, samples) in zip(self._strata, counts):
            if samples:
                stratum.absorb(int(hits), int(samples))

    def paving_fingerprint(self, canonical_order: Sequence[str]) -> str:
        """Deterministic, renaming-invariant text identifying the paving.

        ``canonical_order`` maps store positions to this sampler's variable
        names (position ``i`` is the variable the store calls ``$v{i}``), so
        two alpha-equivalent factors produce the same fingerprint exactly
        when their pavings are structurally identical — the condition under
        which stored per-stratum counts line up with local strata.
        """
        return render_paving(self._strata, canonical_order)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def estimate(self) -> Estimate:
        """Combined stratified estimate per Equation (3)."""
        if self._exact is not None:
            return self._exact
        return stratified_estimate((stratum.weight, stratum.estimate()) for stratum in self._strata)

    def result(self) -> StratifiedResult:
        """Snapshot of the combined estimate plus per-stratum details."""
        if self._exact is not None:
            return StratifiedResult(self._exact, tuple(s.report() for s in self._strata), 0)
        return StratifiedResult(
            self.estimate(),
            tuple(stratum.report() for stratum in self._strata),
            self.total_samples,
        )


def stratified_sampling(
    pc: ast.PathCondition,
    profile: UsageProfile,
    samples: int,
    seed: SeedLike,
    variables: Optional[Sequence[str]] = None,
    icp_config: ICPConfig = PAPER_CONFIG,
    solver: Optional[ICPSolver] = None,
    allocation: str = "even",
    pool: Optional[ThreadPoolExecutor] = None,
    chunk_size: Optional[int] = None,
) -> StratifiedResult:
    """Estimate the probability of ``pc`` with ICP-stratified sampling.

    One-shot convenience wrapper around :class:`StratifiedSampler`: pave,
    spend the whole budget in a single round, and return the snapshot.

    Args:
        pc: Conjunction of constraints to estimate (one independent factor).
        profile: Usage profile covering the free variables of ``pc``.
        samples: Total sampling budget, split across the sampleable strata
            according to ``allocation`` (inner and mass-free boxes consume no
            budget, so the full budget lands on boxes that need it).
        seed: Master seed of the sampling chunks (None: fresh entropy).
        variables: Variables to quantify over; defaults to the free variables
            of ``pc``.
        icp_config: Configuration for a solver created on the fly.
        solver: Optional pre-built ICP solver (overrides ``icp_config``).
        allocation: ``"even"`` (the paper's equal split) or ``"neyman"``.
        pool: Optional thread pool to run the sampling chunks on (None: the
            calling thread; the result is the same either way).
        chunk_size: Samples per sampling task.

    Returns:
        A :class:`StratifiedResult` with the combined estimate.
    """
    if samples <= 0:
        raise AnalysisError("stratified sampling needs a positive sample budget")
    sampler = StratifiedSampler(
        pc,
        profile,
        seed,
        variables=variables,
        icp_config=icp_config,
        solver=solver,
        pool=pool,
        chunk_size=chunk_size,
    )
    sampler.extend(samples, allocation=allocation)
    return sampler.result()
