"""Bounded symbolic execution of mini-language programs (the SPF substitute).

The executor explores every feasible program path up to a branch-depth bound,
building for each path a :class:`~repro.lang.ast.PathCondition` over the input
variables together with the set of target events observed on that path.  The
path conditions are pairwise disjoint by construction — every fork adds a
constraint to one path and its negation to the other — which is the property
qCORAL's disjunction rule (Equations 4–6) relies on.

Feasibility is path-sensitive, as in SPF: each path carries a box, the input
domain contracted by every conjunct added on the path so far, and each branch
outcome revises that box with its new conjunct (one HC4-revise on the
conjunct's :class:`~repro.icp.hc4.ConstraintTree`).  An outcome whose revise
comes back empty is dropped.  This is sound: HC4-revise returns nothing only
when no point of the box satisfies the conjunct, and the box encloses every
input satisfying the path's earlier conjuncts, so a dropped path has
probability zero under every usage profile, discrete ones included.  It is not
complete: earlier conjuncts are not re-contracted, and closed-interval
reasoning cannot refute boundary pairs such as ``x < 200 && x >= 200``, whose
paths are kept.

Loops are unrolled; a path that exceeds the bound is flagged ``hit_bound`` and
reported separately, mirroring the paper's treatment of bounded symbolic
execution (Section 3.1): bounded paths are excluded from ``PC^T`` but their
total probability can be quantified as a confidence measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SymbolicExecutionError
from repro.icp.hc4 import ConstraintTree
from repro.intervals.box import Box
from repro.lang import ast as expr_ast
from repro.lang.simplify import simplify_constraint
from repro.lang.substitution import substitute, substitute_constraint
from repro.symexec import ast as prog_ast
from repro.symexec.ast import ASSERTION_VIOLATION_EVENT


@dataclass(frozen=True)
class SymbolicPath:
    """One explored path: its condition, observed events, and bound status."""

    condition: expr_ast.PathCondition
    events: Tuple[str, ...]
    hit_bound: bool = False

    def observed(self, event: str) -> bool:
        """True when the target event occurs on this path."""
        return event in self.events


@dataclass(frozen=True)
class SymbolicExecutionResult:
    """All paths produced by one symbolic execution run."""

    program: prog_ast.Program
    paths: Tuple[SymbolicPath, ...]
    truncated: bool = False

    @property
    def path_count(self) -> int:
        """Number of explored (non-bounded) paths."""
        return len(self.paths)

    def events(self) -> Tuple[str, ...]:
        """Every event name observed on some path, sorted."""
        names: Set[str] = set()
        for path in self.paths:
            names.update(path.events)
        return tuple(sorted(names))

    def constraint_set_for(self, event: str) -> expr_ast.ConstraintSet:
        """The set ``PC^T``: conditions of complete paths observing ``event``."""
        selected = [path.condition for path in self.paths if path.observed(event) and not path.hit_bound]
        return expr_ast.ConstraintSet.of(selected, name=event)

    def constraint_set_against(self, event: str) -> expr_ast.ConstraintSet:
        """The set ``PC^F``: conditions of complete paths *not* observing ``event``."""
        selected = [path.condition for path in self.paths if not path.observed(event) and not path.hit_bound]
        return expr_ast.ConstraintSet.of(selected, name=f"not:{event}")

    def bounded_constraint_set(self) -> expr_ast.ConstraintSet:
        """Conditions of paths that hit the execution bound (confidence measure)."""
        selected = [path.condition for path in self.paths if path.hit_bound]
        return expr_ast.ConstraintSet.of(selected, name="bounded")


@dataclass
class _State:
    """Mutable per-path execution state (cloned at every fork)."""

    environment: Dict[str, expr_ast.Expression]
    condition: List[expr_ast.Constraint]
    events: List[str]
    #: The input domain contracted by every conjunct in ``condition``.
    box: Box
    decisions: int = 0
    hit_bound: bool = False

    def clone(self) -> "_State":
        return _State(
            environment=dict(self.environment),
            condition=list(self.condition),
            events=list(self.events),
            box=self.box,
            decisions=self.decisions,
            hit_bound=self.hit_bound,
        )


#: One branch outcome: its truth value, the conjunct it adds to the path
#: condition and that conjunct's tree (both None for a variable-free branch).
_Outcome = Tuple[bool, Optional[expr_ast.Constraint], Optional[ConstraintTree]]

#: One simplified branch constraint: whether it can hold (decided only when
#: it is variable-free), its conjunct and its tree.
_Verdict = Tuple[bool, Optional[expr_ast.Constraint], Optional[ConstraintTree]]


class SymbolicExecutor:
    """Explores program paths and collects path conditions per target event."""

    def __init__(
        self,
        program: prog_ast.Program,
        max_depth: int = 50,
        max_paths: int = 100_000,
    ) -> None:
        if max_depth < 1:
            raise SymbolicExecutionError("max_depth must be at least 1")
        if max_paths < 1:
            raise SymbolicExecutionError("max_paths must be at least 1")
        self._program = program
        self._max_depth = max_depth
        self._max_paths = max_paths
        self._truncated = False
        # Branch memos of one execute() call, keyed by canonical text (exact
        # where dataclass equality is not: 0.0 == -0.0).  Many paths reach
        # the same branch with the same substituted constraint; each distinct
        # one is simplified, decided and compiled to a tree once.
        self._outcomes: Dict[str, Tuple[_Outcome, ...]] = {}
        self._verdicts: Dict[str, _Verdict] = {}

    def execute(self) -> SymbolicExecutionResult:
        """Run bounded symbolic execution and return every explored path."""
        import sys

        # Path exploration recurses once per executed statement; long unrolled
        # loops need more head-room than CPython's default limit.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
        self._truncated = False
        initial = _State(
            environment={name: expr_ast.Variable(name) for name in self._program.input_names()},
            condition=[],
            events=[],
            box=Box.from_bounds(self._program.input_bounds()),
        )
        finished: List[SymbolicPath] = []
        try:
            self._execute_block(self._program.body, 0, initial, finished)
        finally:
            self._outcomes.clear()
            self._verdicts.clear()
        return SymbolicExecutionResult(self._program, tuple(finished), truncated=self._truncated)

    # ------------------------------------------------------------------ #
    # Statement execution (continuation-passing over the statement list)
    # ------------------------------------------------------------------ #
    def _execute_block(
        self,
        statements: Sequence[prog_ast.Statement],
        index: int,
        state: _State,
        finished: List[SymbolicPath],
        continuation: Tuple[Tuple[Sequence[prog_ast.Statement], int], ...] = (),
    ) -> None:
        if len(finished) >= self._max_paths:
            self._truncated = True
            return
        while index >= len(statements):
            if not continuation:
                finished.append(self._finish(state))
                return
            (statements, index), continuation = continuation[0], continuation[1:]

        statement = statements[index]

        if isinstance(statement, prog_ast.Assignment):
            state.environment[statement.name] = substitute(statement.expression, state.environment)
            self._execute_block(statements, index + 1, state, finished, continuation)
            return

        if isinstance(statement, (prog_ast.SkipStatement, prog_ast.InputDeclaration)):
            self._execute_block(statements, index + 1, state, finished, continuation)
            return

        if isinstance(statement, prog_ast.ObserveStatement):
            state.events.append(statement.event)
            self._execute_block(statements, index + 1, state, finished, continuation)
            return

        if isinstance(statement, prog_ast.AssertStatement):
            for branch_state, truth in self._branch(statement.condition, state):
                if not truth:
                    branch_state.events.append(ASSERTION_VIOLATION_EVENT)
                self._execute_block(statements, index + 1, branch_state, finished, continuation)
            return

        if isinstance(statement, prog_ast.IfStatement):
            for branch_state, truth in self._branch(statement.condition, state):
                body = statement.then_body if truth else statement.else_body
                rest = ((statements, index + 1),) + continuation
                self._execute_block(body, 0, branch_state, finished, rest)
            return

        if isinstance(statement, prog_ast.WhileStatement):
            self._execute_loop(statement, statements, index, state, finished, continuation)
            return

        raise SymbolicExecutionError(f"unknown statement type {type(statement).__name__}")

    def _execute_loop(
        self,
        loop: prog_ast.WhileStatement,
        statements: Sequence[prog_ast.Statement],
        index: int,
        state: _State,
        finished: List[SymbolicPath],
        continuation: Tuple[Tuple[Sequence[prog_ast.Statement], int], ...],
    ) -> None:
        for branch_state, truth in self._branch(loop.condition, state):
            if not truth:
                # Loop exit: continue with the statement after the loop.
                self._execute_block(statements, index + 1, branch_state, finished, continuation)
                continue
            if branch_state.decisions >= self._max_depth:
                branch_state.hit_bound = True
                finished.append(self._finish(branch_state))
                continue
            # Loop entry: run the body, then re-evaluate the loop.
            rest = ((statements, index),) + continuation
            self._execute_block(loop.body, 0, branch_state, finished, rest)

    def _finish(self, state: _State) -> SymbolicPath:
        return SymbolicPath(
            condition=expr_ast.PathCondition.of(state.condition),
            events=tuple(state.events),
            hit_bound=state.hit_bound,
        )

    # ------------------------------------------------------------------ #
    # Condition branching (short-circuit forking keeps paths disjoint)
    # ------------------------------------------------------------------ #
    def _branch(self, condition: prog_ast.Condition, state: _State) -> List[Tuple[_State, bool]]:
        if state.decisions >= self._max_depth:
            # The branch-depth bound was hit: stop adding constraints on this
            # path and flag it so it is excluded from PC^T (paper Section 3.1).
            state.hit_bound = True
            return [(state, False)]
        if isinstance(condition, prog_ast.Comparison):
            return self._branch_comparison(condition.constraint, state)
        if isinstance(condition, prog_ast.BooleanNot):
            return [(branch_state, not truth) for branch_state, truth in self._branch(condition.operand, state)]
        if isinstance(condition, prog_ast.BooleanAnd):
            outcomes: List[Tuple[_State, bool]] = []
            for branch_state, truth in self._branch(condition.left, state):
                if not truth:
                    outcomes.append((branch_state, False))
                else:
                    outcomes.extend(self._branch(condition.right, branch_state))
            return outcomes
        if isinstance(condition, prog_ast.BooleanOr):
            outcomes = []
            for branch_state, truth in self._branch(condition.left, state):
                if truth:
                    outcomes.append((branch_state, True))
                else:
                    outcomes.extend(self._branch(condition.right, branch_state))
            return outcomes
        raise SymbolicExecutionError(f"unknown condition type {type(condition).__name__}")

    def _branch_comparison(self, constraint: expr_ast.Constraint, state: _State) -> List[Tuple[_State, bool]]:
        outcomes: List[Tuple[_State, bool]] = []
        for truth, conjunct, tree in self._feasible_outcomes(substitute_constraint(constraint, state.environment)):
            box = state.box
            if tree is not None:
                # The path's box, revised by the new conjunct: empty means no
                # input satisfies the path condition extended by it.
                box = tree.revise(box)
                if box is None:
                    continue
            branch_state = state.clone()
            branch_state.box = box
            branch_state.decisions += 1
            if conjunct is not None:
                branch_state.condition.append(conjunct)
            outcomes.append((branch_state, truth))
        return outcomes

    def _feasible_outcomes(self, substituted: expr_ast.Constraint) -> Tuple[_Outcome, ...]:
        """The ``(truth, conjunct, tree)`` outcomes of one substituted branch.

        ``conjunct`` is the simplified constraint the branch adds to the path
        condition and ``tree`` its HC4 tree; both are None when it has no free
        variables, and then only the outcome that evaluates true is kept.
        Memoised per :meth:`execute` by the substituted constraint's
        canonical text.
        """
        key = substituted.canonical()
        outcomes = self._outcomes.get(key)
        if outcomes is None:
            concrete = simplify_constraint(substituted)
            outcomes = tuple(
                (truth, conjunct, tree)
                for truth, branch_constraint in ((True, concrete), (False, concrete.negate()))
                for feasible, conjunct, tree in (self._verdict(branch_constraint),)
                if feasible
            )
            self._outcomes[key] = outcomes
        return outcomes

    def _verdict(self, constraint: expr_ast.Constraint) -> _Verdict:
        """Whether a simplified branch constraint can hold, its conjunct and tree.

        Variable-free constraints are decided by evaluation and add nothing;
        the others stand here and are checked against each path's box by
        their tree.  Memoised per :meth:`execute` by canonical text, so every
        path taking this branch shares one conjunct object and one tree.
        """
        key = constraint.canonical()
        verdict = self._verdicts.get(key)
        if verdict is None:
            if not constraint.free_variables():
                from repro.lang.evaluator import holds

                verdict = (holds(constraint, {}), None, None)
            else:
                verdict = (True, constraint, ConstraintTree(constraint))
            self._verdicts[key] = verdict
        return verdict


def execute_program(
    program: prog_ast.Program,
    max_depth: int = 50,
    max_paths: int = 100_000,
) -> SymbolicExecutionResult:
    """Convenience wrapper: symbolically execute ``program``."""
    return SymbolicExecutor(program, max_depth, max_paths).execute()
