"""The constraint-set differ: factor two program versions through canonical keys.

Both versions are factored by the engine's own planner
(:func:`repro.core.qcoral.plan_factors`: per-PC simplification, dependency
partition over the whole constraint set, per-block conjunct grouping) and
every factor is keyed with the persistent store's canonical digest (:class:`repro.store.keys.StoreContext`).  That
digest commits to the alpha-renamed constraint text, the profile
fingerprint, the method tag, and the estimator version, so:

* a factor whose digest appears in both versions is **unchanged** — the
  store would hand the new run the old run's counts, and a renamed but
  alpha-equivalent factor lands here automatically;
* an old factor and a new factor that share no digest but look like two
  revisions of one constraint (same variable set, or failing that the same
  structural skeleton) pair up as **changed**;
* everything else is **added** (new version only) or **removed** (old
  version only).

The changed/added/removed distinction is reporting vocabulary — the budget
planner treats all three identically (no stored coverage ⇒ sample fresh).
Only *unchanged* has engine-level meaning, and it is exact by construction
because it reuses the very digests the store indexes by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.methods import store_method_tag
from repro.core.profiles import UsageProfile
from repro.core.qcoral import plan_factors
from repro.errors import ConfigurationError
from repro.lang import ast
from repro.lang.canonical import skeleton
from repro.store.keys import StoreContext

#: Classification statuses of a :class:`FactorDelta`.
UNCHANGED = "unchanged"
CHANGED = "changed"
ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class FactorVersion:
    """One factor of one version, resolved to its canonical store identity."""

    #: The store digest — the key the engine's cross-run reuse indexes by.
    digest: str
    #: Alpha-renamed canonical constraint text.
    text: str
    #: Canonical-position-ordered profile fingerprint.
    fingerprint: str
    #: Original variable names in canonical order.
    variables: Tuple[str, ...]
    #: Structural skeleton (variables and numeric literals abstracted) used
    #: to pair edited factors across versions.
    skeleton: str
    #: The simplified factor itself.
    factor: ast.PathCondition


@dataclass(frozen=True)
class FactorDelta:
    """One factor's fate across the two versions."""

    status: str
    old: Optional[FactorVersion] = None
    new: Optional[FactorVersion] = None

    def __post_init__(self) -> None:
        if self.status in (UNCHANGED, CHANGED) and (self.old is None or self.new is None):
            raise ValueError(f"a {self.status} delta needs both versions")
        if self.status == ADDED and (self.old is not None or self.new is None):
            raise ValueError("an added delta has a new version only")
        if self.status == REMOVED and (self.old is None or self.new is not None):
            raise ValueError("a removed delta has an old version only")

    @property
    def key(self) -> str:
        """The digest the *current* (new) version samples under.

        For removed factors this is the old digest — useful for reporting,
        but a removed factor is never part of the new run's plan.
        """
        version = self.new if self.new is not None else self.old
        assert version is not None
        return version.digest

    @property
    def variables(self) -> Tuple[str, ...]:
        version = self.new if self.new is not None else self.old
        assert version is not None
        return version.variables


@dataclass(frozen=True)
class ConstraintDiff:
    """The factored difference between two versions of a constraint set."""

    #: Store method tag both versions were keyed under.
    method: str
    #: One delta per factor, unchanged first, then changed, added, removed;
    #: deterministic order within each class (sorted by canonical text).
    deltas: Tuple[FactorDelta, ...]

    def _by_status(self, status: str) -> Tuple[FactorDelta, ...]:
        return tuple(delta for delta in self.deltas if delta.status == status)

    @property
    def unchanged(self) -> Tuple[FactorDelta, ...]:
        return self._by_status(UNCHANGED)

    @property
    def changed(self) -> Tuple[FactorDelta, ...]:
        return self._by_status(CHANGED)

    @property
    def added(self) -> Tuple[FactorDelta, ...]:
        return self._by_status(ADDED)

    @property
    def removed(self) -> Tuple[FactorDelta, ...]:
        return self._by_status(REMOVED)

    @property
    def candidate_factor_keys(self) -> Tuple[str, ...]:
        """Digests of every factor the *new* version quantifies."""
        return tuple(delta.key for delta in self.deltas if delta.new is not None)

    @property
    def baseline_factor_keys(self) -> Tuple[str, ...]:
        """Digests of every factor the *old* version quantified."""
        return tuple(delta.old.digest for delta in self.deltas if delta.old is not None)

    @property
    def candidate_factor_count(self) -> int:
        return sum(1 for delta in self.deltas if delta.new is not None)

    @property
    def unchanged_fraction(self) -> float:
        """Share of the new version's factors the diff proved unchanged."""
        total = self.candidate_factor_count
        return len(self.unchanged) / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{len(self.unchanged)} unchanged, {len(self.changed)} changed, "
            f"{len(self.added)} added, {len(self.removed)} removed"
        )


def factor_versions(constraint_set: ast.ConstraintSet, profile: UsageProfile, method: str) -> Dict[str, FactorVersion]:
    """Factor one version and key every distinct factor canonically.

    The factors are the engine's own (:func:`repro.core.qcoral.plan_factors`),
    so the digests here are exactly the keys the analyzer looks up in the
    store.  Returns digest → version; a factor appearing in several path
    conditions resolves to one entry, like the engine's in-run sharing.
    """
    profile.check_covers(constraint_set.free_variables())
    _, factors = plan_factors(constraint_set.path_conditions)
    context = StoreContext(profile, method)
    versions: Dict[str, FactorVersion] = {}
    for factor, _ in factors.values():
        key = context.key_for(factor)
        if key.digest not in versions:
            versions[key.digest] = FactorVersion(
                digest=key.digest,
                text=key.pc_text,
                fingerprint=key.fingerprint,
                variables=key.variables,
                skeleton=skeleton(factor),
                factor=factor,
            )
    return versions


def _pair_edits(
    old_only: List[FactorVersion], new_only: List[FactorVersion]
) -> Tuple[List[Tuple[FactorVersion, FactorVersion]], List[FactorVersion], List[FactorVersion]]:
    """Pair leftover old/new factors that look like revisions of one another.

    Two deterministic passes: first by identical original-variable set (an
    edited threshold keeps its variables), then by structural skeleton (a
    renamed-and-edited factor keeps its shape).  Within a group both sides
    are sorted by canonical text, so pairing never depends on dict order.
    """
    pairs: List[Tuple[FactorVersion, FactorVersion]] = []
    for key_of in (
        lambda version: ("vars",) + tuple(sorted(version.variables)),
        lambda version: ("skeleton", version.skeleton),
    ):
        old_groups: Dict[Tuple, List[FactorVersion]] = {}
        for version in old_only:
            old_groups.setdefault(key_of(version), []).append(version)
        matched_old: set = set()
        matched_new: set = set()
        for version in sorted(new_only, key=lambda v: (v.text, v.fingerprint)):
            group = old_groups.get(key_of(version))
            if group:
                group.sort(key=lambda v: (v.text, v.fingerprint))
                partner = group.pop(0)
                pairs.append((partner, version))
                matched_old.add(partner.digest)
                matched_new.add(version.digest)
        old_only = [version for version in old_only if version.digest not in matched_old]
        new_only = [version for version in new_only if version.digest not in matched_new]
    return pairs, old_only, new_only


def diff_constraint_sets(
    baseline: ast.ConstraintSet,
    candidate: ast.ConstraintSet,
    profile: UsageProfile,
    *,
    config=None,
    method: Optional[str] = None,
    baseline_profile: Optional[UsageProfile] = None,
) -> ConstraintDiff:
    """Diff two versions of a constraint set through canonical factor keys.

    ``profile`` is the usage profile the *candidate* runs under;
    ``baseline_profile`` defaults to the same profile (pass the old one when
    the edit renamed inputs or moved their distributions).  The method tag
    comes from ``config`` (a :class:`~repro.core.qcoral.QCoralConfig`, via
    :func:`~repro.core.methods.store_method_tag`) or an explicit ``method``
    string; exactly one of the two must be given.
    """
    if (config is None) == (method is None):
        raise ConfigurationError("diff_constraint_sets needs a config= or a method= tag (not both)")
    tag = method if method is not None else store_method_tag(config)
    old_versions = factor_versions(baseline, baseline_profile if baseline_profile is not None else profile, tag)
    new_versions = factor_versions(candidate, profile, tag)

    unchanged = [
        FactorDelta(UNCHANGED, old=old_versions[digest], new=new_versions[digest])
        for digest in sorted(set(old_versions) & set(new_versions), key=lambda d: new_versions[d].text)
    ]
    old_only = [old_versions[digest] for digest in sorted(set(old_versions) - set(new_versions))]
    new_only = [new_versions[digest] for digest in sorted(set(new_versions) - set(old_versions))]
    pairs, removed_versions, added_versions = _pair_edits(old_only, new_only)
    changed = [
        FactorDelta(CHANGED, old=old, new=new)
        for old, new in sorted(pairs, key=lambda pair: pair[1].text)
    ]
    added = [
        FactorDelta(ADDED, new=version)
        for version in sorted(added_versions, key=lambda v: (v.text, v.fingerprint))
    ]
    removed = [
        FactorDelta(REMOVED, old=version)
        for version in sorted(removed_versions, key=lambda v: (v.text, v.fingerprint))
    ]
    return ConstraintDiff(method=tag, deltas=tuple(unchanged + changed + added + removed))
