"""Mergeable store entries: raw per-factor sampling state.

A :class:`StoreEntry` is what the persistent store keeps per canonical factor
key.  It records *raw Bernoulli counts* rather than a finished estimate, in
one of two kinds:

``"stratified"``
    Per-stratum hit-or-miss counts, one ``(hits, samples)`` pair per stratum
    in paving order, plus the paving itself: ``paving`` renders every stratum
    box exactly (:func:`repro.core.stratified.render_paving`), so a warm
    reader rebuilds its strata from the entry instead of re-paving with ICP.
    The key already commits to every input of that paving (factor, domain,
    ICP configuration).  Whole-domain hit-or-miss (the STRAT feature off) is
    the one-stratum case, its paving the factor's domain.
``"exact"``
    A probability resolved without sampling (ICP-exact factors), stored so a
    re-run skips the paving work too.

Counts make entries **mergeable**: two runs that sampled the same factor
independently add their counts (:meth:`StoreEntry.merge`), pooling their
budgets, which is statistically exact for independent Bernoulli pools.  A
warm-starting run needs nothing else to continue a same-seed stream: its
chunk seeds are keyed by the samples each stratum already holds, so it starts
past the pooled counts instead of replaying them.  Payloads written by older
versions may carry a ``spawned`` count; it is ignored on load.  Their
whole-domain ``"mc"`` kind is gone: such a payload fails to load
(:class:`StoreError`), which every backend reads as a miss, and the next
write replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.errors import ReproError


class StoreError(ReproError):
    """Raised on malformed entries, backend failures, or misuse of a store."""


#: Entry kinds a store recognises.
ENTRY_KINDS = ("stratified", "exact")


@dataclass(frozen=True)
class StoreEntry:
    """Raw, mergeable sampling state of one canonical factor.

    Attributes:
        kind: One of :data:`ENTRY_KINDS`.
        samples: Total samples drawn for this factor, across all merged runs.
        strata: Per-stratum ``(hits, samples)`` pairs (``"stratified"`` kind).
        exact_mean: The resolved probability (``"exact"`` kind).
        paving: The paving the stratum counts refer to, rendered exactly in
            canonical variable order (``"stratified"`` kind).  A warm run
            rebuilds its strata from it; counts only pool into an entry with
            the same paving text, because a re-paved factor (the solver has
            a wall-clock budget) can come out different.
        runs: How many run deltas have been merged into this entry.
        pc_text: Alpha-renamed canonical constraint text (debugging aid; the
            key already commits to it).
        fingerprint: Profile/estimator fingerprint text (debugging aid).
    """

    kind: str
    samples: int = 0
    strata: Tuple[Tuple[int, int], ...] = ()
    exact_mean: float = 0.0
    paving: str = ""
    runs: int = 1
    pc_text: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise StoreError(f"unknown entry kind {self.kind!r}; expected one of {ENTRY_KINDS}")
        if self.kind == "stratified":
            for hits, samples in self.strata:
                if hits < 0 or samples < 0 or hits > samples:
                    raise StoreError(f"inconsistent stratum counts: {hits} hits of {samples} samples")
            total = sum(samples for _, samples in self.strata)
            if total != self.samples:
                object.__setattr__(self, "samples", total)
        if self.samples < 0:
            raise StoreError(f"negative sample count {self.samples}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_strata(strata: Tuple[Tuple[int, int], ...], paving: str) -> "StoreEntry":
        """Entry for a sampled factor (counts in paving order)."""
        return StoreEntry(
            kind="stratified",
            strata=tuple((int(h), int(n)) for h, n in strata),
            samples=sum(int(n) for _, n in strata),
            paving=paving,
        )

    @staticmethod
    def from_exact(mean: float) -> "StoreEntry":
        """Entry for a factor whose probability was resolved without sampling."""
        return StoreEntry(kind="exact", exact_mean=float(mean))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def is_exact(self) -> bool:
        """True when the entry needs no sampling to be reused."""
        return self.kind == "exact"

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    def merge(self, other: "StoreEntry") -> "StoreEntry":
        """Pool this entry with an independently sampled ``other``.

        Counts add (elementwise for stratified entries), and ``runs`` adds so
        reuse statistics stay meaningful.  Exact entries are
        idempotent and win any merge: ICP proved the value, so pooling
        sampled counts into it adds nothing.

        Kind mismatches are resolved, never raised, because the ICP solver's
        wall-clock budget makes exactness machine-dependent: the same factor
        can pave exactly on a fast machine (an ``exact`` delta) and time out
        into sampled strata on a loaded one (a ``stratified`` delta) under
        one key.  Similarly, stratified counts are only poolable over *the
        same paving*.  Warm runs adopt the stored paving, so their deltas
        match it; a concurrent cold run may have paved differently, and on
        such a paving mismatch the merge keeps whichever
        pool holds more samples instead of corrupting both — losing the
        smaller pool is the price of an append-forever store that never
        blocks a writer.
        """
        if self.kind == "exact" or other.kind == "exact":
            exact = self if self.kind == "exact" else other
            return replace(exact, runs=self.runs + other.runs)
        if len(self.strata) != len(other.strata) or self.paving != other.paving:
            return self if self.samples >= other.samples else other
        merged = tuple((mine[0] + theirs[0], mine[1] + theirs[1]) for mine, theirs in zip(self.strata, other.strata))
        return replace(
            self,
            strata=merged,
            samples=self.samples + other.samples,
            runs=self.runs + other.runs,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {"kind": self.kind, "samples": self.samples, "runs": self.runs}
        if self.kind == "stratified":
            payload["strata"] = [list(pair) for pair in self.strata]
            payload["paving"] = self.paving
        else:
            payload["exact_mean"] = self.exact_mean
        if self.pc_text:
            payload["pc"] = self.pc_text
        if self.fingerprint:
            payload["fingerprint"] = self.fingerprint
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "StoreEntry":
        """Rebuild an entry from its :meth:`to_dict` form."""
        try:
            kind = payload["kind"]
            return StoreEntry(
                kind=kind,
                samples=int(payload.get("samples", 0)),
                strata=tuple((int(h), int(n)) for h, n in payload.get("strata", ())),
                exact_mean=float(payload.get("exact_mean", 0.0)),
                paving=str(payload.get("paving", "")),
                runs=int(payload.get("runs", 1)),
                pc_text=str(payload.get("pc", "")),
                fingerprint=str(payload.get("fingerprint", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed store entry payload: {payload!r}") from exc

    def described(self, pc_text: str, fingerprint: str) -> "StoreEntry":
        """Copy of this entry carrying the human-readable key components."""
        return replace(self, pc_text=pc_text, fingerprint=fingerprint)
