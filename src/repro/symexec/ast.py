"""Abstract syntax of the mini imperative language.

The language plays the role Java plays in the paper: programs over bounded
floating-point inputs whose branching structure gives rise to path conditions.
It is intentionally small but expressive enough to model every benchmark
subject used in the evaluation:

* ``input x in [lo, hi];`` — declares a symbolic floating-point input;
* assignments of arithmetic expressions (including math functions);
* ``if`` / ``else`` and bounded ``while`` loops;
* ``observe("event");`` — marks the occurrence of a named target event
  (the paper's ``callSupervisor()``);
* ``assert(cond);`` — violation of the condition is the target event
  ``assert.violation``.

Boolean conditions are conjunctions/disjunctions of arithmetic comparisons;
negation is expressed structurally by the symbolic executor (taking the other
branch), mirroring how SPF builds path conditions from bytecode branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.lang import ast as expr_ast

#: Name of the implicit event raised by a violated ``assert`` statement.
ASSERTION_VIOLATION_EVENT = "assert.violation"


# --------------------------------------------------------------------------- #
# Boolean conditions
# --------------------------------------------------------------------------- #
class Condition:
    """Base class of boolean conditions used in ``if``/``while``/``assert``."""

    __slots__ = ()


@dataclass(frozen=True)
class Comparison(Condition):
    """An atomic comparison between two arithmetic expressions."""

    constraint: expr_ast.Constraint


@dataclass(frozen=True)
class BooleanAnd(Condition):
    """Conjunction of two conditions."""

    left: Condition
    right: Condition


@dataclass(frozen=True)
class BooleanOr(Condition):
    """Disjunction of two conditions."""

    left: Condition
    right: Condition


@dataclass(frozen=True)
class BooleanNot(Condition):
    """Negation of a condition."""

    operand: Condition


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
class Statement:
    """Base class of statements."""

    __slots__ = ()


@dataclass(frozen=True)
class InputDeclaration(Statement):
    """``input name in [low, high];`` — a bounded symbolic input."""

    name: str
    low: float
    high: float


@dataclass(frozen=True)
class Assignment(Statement):
    """``name = expression;``"""

    name: str
    expression: expr_ast.Expression


@dataclass(frozen=True)
class IfStatement(Statement):
    """``if (condition) { then } else { otherwise }`` (else optional)."""

    condition: Condition
    then_body: Tuple[Statement, ...]
    else_body: Tuple[Statement, ...] = ()


@dataclass(frozen=True)
class WhileStatement(Statement):
    """``while (condition) { body }`` — unrolled up to the execution bound."""

    condition: Condition
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class ObserveStatement(Statement):
    """``observe("event");`` — records the occurrence of a target event."""

    event: str


@dataclass(frozen=True)
class AssertStatement(Statement):
    """``assert(condition);`` — violation raises ``assert.violation``."""

    condition: Condition


@dataclass(frozen=True)
class SkipStatement(Statement):
    """``skip;`` — no effect (useful for writing empty branches)."""


@dataclass(frozen=True)
class Program:
    """A parsed program: input declarations followed by a statement body."""

    inputs: Tuple[InputDeclaration, ...]
    body: Tuple[Statement, ...]
    name: str = ""

    def input_bounds(self) -> dict:
        """Mapping of input name to ``(low, high)`` bounds."""
        return {declaration.name: (declaration.low, declaration.high) for declaration in self.inputs}

    def input_names(self) -> Tuple[str, ...]:
        """Input variable names, in declaration order."""
        return tuple(declaration.name for declaration in self.inputs)

    def declared_events(self) -> Tuple[str, ...]:
        """Every event the program text can raise, sorted.

        These are the ``observe`` events anywhere in the body, plus
        ``assert.violation`` when the body has an ``assert``.  Whether a
        feasible path reaches one is for symbolic execution to say.
        """
        events = set()
        pending = list(self.body)
        while pending:
            statement = pending.pop()
            if isinstance(statement, ObserveStatement):
                events.add(statement.event)
            elif isinstance(statement, AssertStatement):
                events.add(ASSERTION_VIOLATION_EVENT)
            elif isinstance(statement, IfStatement):
                pending.extend(statement.then_body + statement.else_body)
            elif isinstance(statement, WhileStatement):
                pending.extend(statement.body)
        return tuple(sorted(events))
