"""The executor before path-sensitive pruning, kept as a test reference.

:class:`DomainOnlyExecutor` decides each branch constraint against the input
domain alone, as the symbolic executor once did: a branch is dropped only
when ICP proves its constraint infeasible on the whole domain, whatever the
path took before it.  The path-sensitive executor must produce its paths in
the same order, dropping only paths whose condition
:func:`~repro.icp.contractor.contract` refutes.
"""

from repro.intervals.box import Box
from repro.symexec.symbolic import SymbolicExecutor

from hc4_reference import constraint_certainly_fails


class DomainOnlyExecutor(SymbolicExecutor):
    """Prunes a branch only when its constraint fails on the input domain."""

    def _verdict(self, constraint):
        feasible, conjunct, tree = super()._verdict(constraint)
        if tree is not None:
            # No tree: the path's box is never revised.
            feasible = not constraint_certainly_fails(constraint, Box.from_bounds(self._program.input_bounds()))
        return feasible, conjunct, None
