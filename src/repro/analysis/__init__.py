"""Repeated-trial experiment runner and result formatting."""

from __future__ import annotations

from repro.analysis.results import Table, TableRow, format_interval
from repro.analysis.runner import (
    RepeatedResult,
    TrialOutcome,
    repeat_analysis,
    repeat_query,
    trial_seeds,
)

__all__ = [
    "RepeatedResult",
    "TrialOutcome",
    "repeat_analysis",
    "repeat_query",
    "trial_seeds",
    "Table",
    "TableRow",
    "format_interval",
]
