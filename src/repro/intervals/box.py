"""Axis-aligned boxes: named Cartesian products of intervals.

A :class:`Box` maps variable names to :class:`~repro.intervals.interval.Interval`
instances.  Boxes are the currency of the ICP solver (paving output), of the
stratified sampler (strata), and of the input-domain description consumed by
qCORAL.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import DomainError, EmptyIntervalError, IntervalError
from repro.intervals.interval import Interval


class Box:
    """An n-dimensional axis-aligned box over named variables.

    The box is immutable: every operation returns a new box.  Variable order
    is preserved (insertion order of the mapping used to build the box) so
    iteration and sampling are deterministic.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Mapping[str, Interval]) -> None:
        self._intervals: Dict[str, Interval] = dict(intervals)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_bounds(bounds: Mapping[str, Tuple[float, float]]) -> "Box":
        """Build a box from a mapping of variable name to ``(lo, hi)`` pairs."""
        intervals = {name: Interval.make(lo, hi) for name, (lo, hi) in bounds.items()}
        return Box(intervals)

    @staticmethod
    def empty(variables: Iterable[str]) -> "Box":
        """A box over ``variables`` in which every interval is empty."""
        return Box({name: Interval.empty() for name in variables})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[str, ...]:
        """Variable names, in insertion order."""
        return tuple(self._intervals)

    def interval(self, name: str) -> Interval:
        """Interval of variable ``name``."""
        try:
            return self._intervals[name]
        except KeyError as exc:
            raise DomainError(f"box has no variable {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[str]:
        return iter(self._intervals)

    def items(self) -> Iterator[Tuple[str, Interval]]:
        """Iterate over ``(name, interval)`` pairs."""
        return iter(self._intervals.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._intervals.items())))

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}: {iv!r}" for name, iv in self._intervals.items())
        return f"Box({{{parts}}})"

    # ------------------------------------------------------------------ #
    # Predicates and measures
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """True when any coordinate interval is empty."""
        return any(iv.is_empty() for iv in self._intervals.values())

    def is_bounded(self) -> bool:
        """True when every coordinate interval is bounded."""
        return all(iv.is_bounded() for iv in self._intervals.values())

    def volume(self) -> float:
        """Product of the widths of all coordinate intervals.

        A zero-dimensional box has volume 1 (the neutral element of the
        product), which makes weights of projected sub-boxes compose cleanly.
        """
        if self.is_empty():
            return 0.0
        volume = 1.0
        for iv in self._intervals.values():
            volume *= iv.width()
        return volume

    def max_width_variable(self) -> str:
        """Name of the variable whose interval is widest (ties: first)."""
        if not self._intervals:
            raise DomainError("cannot select a variable from an empty box")
        best_name = None
        best_width = -math.inf
        for name, iv in self._intervals.items():
            if iv.width() > best_width:
                best_width = iv.width()
                best_name = name
        assert best_name is not None
        return best_name

    def max_width(self) -> float:
        """Largest coordinate width."""
        if not self._intervals:
            return 0.0
        return max(iv.width() for iv in self._intervals.values())

    def contains_point(self, point: Mapping[str, float]) -> bool:
        """True when ``point`` (a name → value mapping) lies inside the box."""
        for name, iv in self._intervals.items():
            if name not in point or not iv.contains(point[name]):
                return False
        return True

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` is a subset of this box (same variables)."""
        for name, iv in self._intervals.items():
            if name not in other._intervals:
                return False
            if not iv.contains_interval(other._intervals[name]):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def replace(self, name: str, interval: Interval) -> "Box":
        """New box with the interval of ``name`` replaced."""
        if name not in self._intervals:
            raise DomainError(f"box has no variable {name!r}")
        intervals = dict(self._intervals)
        intervals[name] = interval
        return Box(intervals)

    def intersect(self, other: "Box") -> "Box":
        """Coordinate-wise intersection (variables must match)."""
        if set(self._intervals) != set(other._intervals):
            raise DomainError("cannot intersect boxes over different variables")
        return Box({name: iv.intersect(other._intervals[name]) for name, iv in self._intervals.items()})

    def hull(self, other: "Box") -> "Box":
        """Coordinate-wise interval hull (variables must match)."""
        if set(self._intervals) != set(other._intervals):
            raise DomainError("cannot hull boxes over different variables")
        return Box({name: iv.hull(other._intervals[name]) for name, iv in self._intervals.items()})

    def project(self, variables: Sequence[str]) -> "Box":
        """Sub-box over the given variables (order follows ``variables``)."""
        missing = [name for name in variables if name not in self._intervals]
        if missing:
            raise DomainError(f"box has no variables {missing}")
        return Box({name: self._intervals[name] for name in variables})

    def extend(self, other: "Box") -> "Box":
        """Cartesian product with a box over disjoint variables."""
        overlap = set(self._intervals) & set(other._intervals)
        if overlap:
            raise DomainError(f"cannot extend: variables {sorted(overlap)} appear in both boxes")
        intervals = dict(self._intervals)
        intervals.update(other._intervals)
        return Box(intervals)

    def split(self, name: Optional[str] = None, at: Optional[float] = None) -> Tuple["Box", "Box"]:
        """Bisect along ``name`` (default: widest variable) at ``at`` (default: midpoint)."""
        if self.is_empty():
            raise EmptyIntervalError("cannot split an empty box")
        variable = name if name is not None else self.max_width_variable()
        low, high = self.interval(variable).split(at)
        return self.replace(variable, low), self.replace(variable, high)

    def corners(self) -> List[Dict[str, float]]:
        """All 2^n corner points of a bounded box (small n only)."""
        if not self.is_bounded():
            raise IntervalError("corners of an unbounded box are undefined")
        names = list(self._intervals)
        corners: List[Dict[str, float]] = [{}]
        for name in names:
            iv = self._intervals[name]
            corners = [
                {**corner, name: bound}
                for corner in corners
                for bound in ((iv.lo,) if iv.is_point() else (iv.lo, iv.hi))
            ]
        return corners

    def midpoint(self) -> Dict[str, float]:
        """Centre point of a bounded box."""
        return {name: iv.midpoint() for name, iv in self._intervals.items()}

    def relative_volume(self, domain: "Box") -> float:
        """Volume of this box divided by the volume of ``domain``.

        This is the stratified-sampling weight ``w_i = size(R_i)/size(D)``
        from the paper's Equation (3).  Only the variables present in this box
        are considered (a projected factor box is weighed against the matching
        projection of the domain).
        """
        if self.is_empty():
            return 0.0
        weight = 1.0
        for name, iv in self._intervals.items():
            denominator = domain.interval(name).width()
            if denominator == 0.0:
                # Point domains contribute no measure; treat them as weight 1
                # so a degenerate dimension does not zero-out the whole weight.
                continue
            weight *= iv.width() / denominator
        return weight
