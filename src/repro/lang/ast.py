"""Abstract syntax of the constraint language consumed by qCORAL.

The probabilistic-analysis stage of the paper consumes *path conditions*:
conjunctions of (possibly non-linear) mathematical comparisons over
floating-point input variables.  This module defines

* arithmetic **expressions** — constants, variables, unary/binary operators and
  calls to mathematical functions (``sin``, ``sqrt``, ``pow``, ``atan2``, ...);
* atomic **constraints** — comparisons between two expressions;
* **path conditions** — conjunctions of atomic constraints;
* **constraint sets** — disjunctions of path conditions (the set ``PC^T``).

All nodes are immutable and hashable so they can serve as cache keys, and each
node knows its free variables and a canonical textual form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Set, Tuple, Union

Number = Union[int, float]

# Binary arithmetic operators, in increasing precedence order groups.
ARITHMETIC_OPERATORS = ("+", "-", "*", "/")

# Comparison operators of atomic constraints.
COMPARISON_OPERATORS = ("<=", "<", ">=", ">", "==", "!=")

#: Negation of each comparison operator, used to build the complement of a
#: branch condition during symbolic execution.
NEGATED_COMPARISON = {
    "<=": ">",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "==": "!=",
    "!=": "==",
}


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
class Expression:
    """Base class of arithmetic expression nodes."""

    __slots__ = ()

    def free_variables(self) -> FrozenSet[str]:
        """Set of variable names occurring in the expression."""
        raise NotImplementedError

    def canonical(self) -> str:
        """Deterministic textual form (used for caching and hashing)."""
        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegated
        return self.canonical()


@dataclass(frozen=True)
class Constant(Expression):
    """A floating-point literal."""

    value: float

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def canonical(self) -> str:
        return repr(float(self.value))

    def children(self) -> Tuple[Expression, ...]:
        return ()


@dataclass(frozen=True)
class Variable(Expression):
    """A named input variable."""

    name: str

    def free_variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def canonical(self) -> str:
        return self.name

    def children(self) -> Tuple[Expression, ...]:
        return ()


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator application; only negation is supported."""

    operator: str
    operand: Expression

    def free_variables(self) -> FrozenSet[str]:
        return self.operand.free_variables()

    def canonical(self) -> str:
        return f"({self.operator}{self.operand.canonical()})"

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary arithmetic operator application."""

    operator: str
    left: Expression
    right: Expression

    def free_variables(self) -> FrozenSet[str]:
        return self.left.free_variables() | self.right.free_variables()

    def canonical(self) -> str:
        return f"({self.left.canonical()} {self.operator} {self.right.canonical()})"

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Application of a mathematical function (``sin``, ``pow``, ``atan2``...)."""

    name: str
    arguments: Tuple[Expression, ...]

    def free_variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for argument in self.arguments:
            names |= argument.free_variables()
        return names

    def canonical(self) -> str:
        rendered = ", ".join(argument.canonical() for argument in self.arguments)
        return f"{self.name}({rendered})"

    def children(self) -> Tuple[Expression, ...]:
        return self.arguments


# --------------------------------------------------------------------------- #
# Convenience expression constructors
# --------------------------------------------------------------------------- #
def const(value: Number) -> Constant:
    """Constant expression for ``value``."""
    return Constant(float(value))


def var(name: str) -> Variable:
    """Variable expression named ``name``."""
    return Variable(name)


def add(left: Expression, right: Expression) -> BinaryOp:
    """``left + right``."""
    return BinaryOp("+", left, right)


def sub(left: Expression, right: Expression) -> BinaryOp:
    """``left - right``."""
    return BinaryOp("-", left, right)


def mul(left: Expression, right: Expression) -> BinaryOp:
    """``left * right``."""
    return BinaryOp("*", left, right)


def div(left: Expression, right: Expression) -> BinaryOp:
    """``left / right``."""
    return BinaryOp("/", left, right)


def neg(operand: Expression) -> UnaryOp:
    """``-operand``."""
    return UnaryOp("-", operand)


def call(name: str, *arguments: Expression) -> FunctionCall:
    """Function call ``name(arguments...)``."""
    return FunctionCall(name, tuple(arguments))


# --------------------------------------------------------------------------- #
# Constraints
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Constraint:
    """An atomic constraint ``left <op> right``."""

    operator: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.operator not in COMPARISON_OPERATORS:
            raise ValueError(f"unknown comparison operator {self.operator!r}")

    def free_variables(self) -> FrozenSet[str]:
        """Variables mentioned by either side of the comparison."""
        return self.left.free_variables() | self.right.free_variables()

    def negate(self) -> "Constraint":
        """The complementary constraint (used when a branch is not taken)."""
        return Constraint(NEGATED_COMPARISON[self.operator], self.left, self.right)

    def canonical(self) -> str:
        """Deterministic textual form."""
        return f"{self.left.canonical()} {self.operator} {self.right.canonical()}"

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True)
class PathCondition:
    """A conjunction of atomic constraints describing one program path."""

    constraints: Tuple[Constraint, ...]
    label: str = ""

    @staticmethod
    def of(constraints: Iterable[Constraint], label: str = "") -> "PathCondition":
        """Build a path condition from any iterable of constraints."""
        return PathCondition(tuple(constraints), label)

    def free_variables(self) -> FrozenSet[str]:
        """Union of the free variables of all conjuncts."""
        names: FrozenSet[str] = frozenset()
        for constraint in self.constraints:
            names |= constraint.free_variables()
        return names

    def conjoin(self, constraint: Constraint) -> "PathCondition":
        """New path condition with one more conjunct appended."""
        return PathCondition(self.constraints + (constraint,), self.label)

    def is_empty(self) -> bool:
        """True for the trivial path condition with no conjuncts."""
        return not self.constraints

    def canonical(self) -> str:
        """Deterministic textual form with sorted conjuncts."""
        return " && ".join(sorted(c.canonical() for c in self.constraints)) or "true"

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __str__(self) -> str:
        return " && ".join(str(c) for c in self.constraints) or "true"


@dataclass(frozen=True)
class ConstraintSet:
    """A disjunction of pairwise-disjoint path conditions (the set ``PC^T``)."""

    path_conditions: Tuple[PathCondition, ...]
    name: str = ""

    @staticmethod
    def of(path_conditions: Iterable[PathCondition], name: str = "") -> "ConstraintSet":
        """Build a constraint set from any iterable of path conditions."""
        return ConstraintSet(tuple(path_conditions), name)

    def free_variables(self) -> FrozenSet[str]:
        """Union of the free variables of all member path conditions."""
        names: Set[str] = set()
        # Path conditions from symbolic execution share conjunct objects;
        # each object is walked once (this set holds every conjunct, so the
        # ids stay theirs).
        walked: Set[int] = set()
        for pc in self.path_conditions:
            for constraint in pc.constraints:
                if id(constraint) not in walked:
                    walked.add(id(constraint))
                    names |= constraint.free_variables()
        return frozenset(names)

    def __len__(self) -> int:
        return len(self.path_conditions)

    def __iter__(self) -> Iterator[PathCondition]:
        return iter(self.path_conditions)

    def __str__(self) -> str:
        return " || ".join(f"({pc})" for pc in self.path_conditions) or "false"


# --------------------------------------------------------------------------- #
# Generic traversal helpers
# --------------------------------------------------------------------------- #
def walk(expression: Expression) -> Iterator[Expression]:
    """Pre-order traversal of an expression tree."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def expression_size(expression: Expression) -> int:
    """Number of nodes in the expression tree."""
    return sum(1 for _ in walk(expression))


def count_operations(expression: Expression) -> Dict[str, int]:
    """Histogram of operators and function names used in the expression."""
    counts: Dict[str, int] = {}
    for node in walk(expression):
        if isinstance(node, BinaryOp):
            counts[node.operator] = counts.get(node.operator, 0) + 1
        elif isinstance(node, UnaryOp):
            counts["neg"] = counts.get("neg", 0) + 1
        elif isinstance(node, FunctionCall):
            counts[node.name] = counts.get(node.name, 0) + 1
    return counts
