"""Interval constraint propagation: HC4 contractors and branch-and-prune paving."""

from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.contractor import contract
from repro.icp.solver import ICPSolver, PavedBox, Paving, pave

__all__ = [
    "ICPConfig",
    "PAPER_CONFIG",
    "contract",
    "ICPSolver",
    "Paving",
    "PavedBox",
    "pave",
]
