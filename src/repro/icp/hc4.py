"""HC4-revise: forward interval evaluation and backward constraint projection.

The HC4 algorithm (Benhamou et al.) contracts a box with respect to a single
constraint in two sweeps over the expression tree:

* the **forward** sweep computes an interval enclosure for every node given
  the current variable domains;
* the **backward** sweep pushes the constraint's feasible output range back
  down the tree, narrowing the node enclosures and ultimately the variable
  domains.

:class:`ConstraintTree` runs them on a flat *tape*: the ``left - right`` tree
is numbered once, in preorder, into parallel lists of opcodes, child indices
and payloads, and each sweep is one ``for`` loop over two lists of float
bounds.  No :class:`~repro.intervals.interval.Interval` is built per node,
except at function calls, which reuse the extensions of
:mod:`repro.intervals.functions`.  The paving solver, the contractor, the
importance sampler, the symbolic executor and the VolComp and NIntegrate
baselines all sweep with it.  The tests keep a recursive walk over node
objects with :class:`Interval` arithmetic (``tests/hc4_reference.py``) that
the tape reproduces bit for bit — same outward rounding, same ``max``/``min``
argument order, same emptiness decisions, same errors — and compare the two
bound for bound and paving for paving; that walk imports the projections
defined here.

Every projection implemented here is *conservative*: when the exact inverse
image is expensive to compute (periodic functions, ``atan2``, ``min``/``max``)
the projection simply leaves the operand enclosure unchanged, which never
removes a solution.  This matches the paper's soundness requirement — the
union of reported boxes must contain all solutions.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ICPError, IntervalError
from repro.intervals.box import Box
from repro.intervals.functions import (
    apply_function,
    interval_exp,
    interval_log,
    interval_tan,
)
from repro.intervals.interval import EMPTY, ENTIRE, Interval
from repro.lang import ast

#: Feasible range of ``left - right`` for each comparison operator.  Strict and
#: non-strict inequalities share the same closed range: the boundary has zero
#: measure, and including it keeps the enclosure sound.
_RELATION_RANGES: Dict[str, Interval] = {
    "<=": Interval(-math.inf, 0.0),
    "<": Interval(-math.inf, 0.0),
    ">=": Interval(0.0, math.inf),
    ">": Interval(0.0, math.inf),
    "==": Interval(0.0, 0.0),
    "!=": ENTIRE,
}

#: Relative outward pad on the roots taken when inverting squares and
#: integer powers: ``**`` and ``sqrt`` round to nearest, so an unpadded root
#: can land just inside the true bound and cut off solutions.
_ROOT_PAD = 1e-12


def relation_range(operator: str) -> Interval:
    """Feasible interval of ``left - right`` for a comparison operator."""
    try:
        return _RELATION_RANGES[operator]
    except KeyError as exc:
        raise ICPError(f"unsupported comparison operator {operator!r}") from exc


#: Tolerance used when classifying a box as certainly satisfying a constraint.
#: The outward rounding of interval arithmetic can push an exact boundary a few
#: ULPs past zero; since the boundary itself has measure zero, absorbing that
#: slack keeps "inner" classification useful without affecting soundness of the
#: probability estimate beyond floating-point noise.
_CERTAINTY_TOLERANCE = 1e-12


def _certainly_holds(operator: str, value: Interval, strict_boundaries: bool) -> bool:
    if value.is_empty():
        return False
    slack = _CERTAINTY_TOLERANCE * max(1.0, value.magnitude())
    if operator == "<":
        return value.hi < 0.0 if strict_boundaries else value.hi <= slack
    if operator == ">":
        return value.lo > 0.0 if strict_boundaries else value.lo >= -slack
    if operator == "<=":
        return value.hi <= slack
    if operator == ">=":
        return value.lo >= -slack
    if operator == "==":
        return value.magnitude() <= slack
    if operator == "!=":
        return not value.contains(0.0)
    raise ICPError(f"unsupported comparison operator {operator!r}")


# --------------------------------------------------------------------------- #
# Shapes and projections the tape shares with the reference walk in the tests
# --------------------------------------------------------------------------- #
def _is_square(expression: ast.BinaryOp) -> bool:
    """True for products of the form ``e * e`` (syntactically identical factors)."""
    return expression.left.canonical() == expression.right.canonical()


def _integer_exponent(expression: ast.Expression) -> Optional[int]:
    """The exponent of ``pow(base, expression)`` when it is an integer constant."""
    if isinstance(expression, ast.Constant) and float(expression.value).is_integer():
        return int(expression.value)
    return None


def _project_call(
    name: str, value: Interval, arguments: Sequence[Interval], power: Optional[int]
) -> Optional[List[Interval]]:
    """Feasible ranges of a call's arguments, given the call's feasible ``value``.

    ``arguments`` are the arguments' enclosures and ``power`` the integer
    exponent of a ``pow`` call (None otherwise).  Returns None when the call
    cannot reach ``value`` at all.
    """
    if name == "sqrt":
        argument = value.intersect(Interval(0.0, math.inf)).sqr()
        return [argument.hull(Interval.point(0.0)) if argument.is_empty() else argument]
    if name == "exp":
        return [interval_log(value)]
    if name == "log":
        return [interval_exp(value)]
    if name == "abs":
        bound = value.intersect(Interval(0.0, math.inf))
        if bound.is_empty():
            return None
        return [Interval(-bound.hi, bound.hi)]
    if name == "atan":
        clipped = value.intersect(Interval(-math.pi / 2, math.pi / 2))
        if clipped.is_empty():
            return None
        return [interval_tan(clipped)]
    if name in ("tanh", "sin", "cos"):
        if value.intersect(Interval(-1.0, 1.0)).is_empty():
            return None
        return list(arguments)
    if name == "pow" and power is not None:
        base, exponent = arguments
        return [_invert_integer_power(value, base, power), exponent]
    # Non-integer exponents, asin, acos, tan, sinh, cosh, log10, atan2, min,
    # max and unknown functions never prune: the arguments keep their
    # enclosures.
    return list(arguments)


def _invert_integer_power(value: Interval, base: Interval, power: int) -> Interval:
    """Enclosure of the bases whose ``power``-th power lies in ``value``."""
    if power == 0:
        return base
    if value.is_empty():
        return EMPTY
    if power > 0 and power % 2 == 0:
        upper = value.intersect(Interval(0.0, math.inf))
        if upper.is_empty():
            return EMPTY
        root = upper.hi ** (1.0 / power) * (1.0 + _ROOT_PAD) if math.isfinite(upper.hi) else math.inf
        return base.intersect(Interval(-root, root))
    if power > 0:
        lo = _signed_root(value.lo, power, upward=False)
        hi = _signed_root(value.hi, power, upward=True)
        return base.intersect(Interval(lo, hi))
    # Negative powers: give up on pruning, stay conservative.
    return base


def _signed_root(value: float, power: int, upward: bool) -> float:
    """Real ``power``-th root of ``value`` for odd ``power``, rounded outward.

    The root is padded away from the true one in the rounding direction:
    up for an upper bound, down for a lower bound.
    """
    if value == math.inf or value == -math.inf:
        return value
    magnitude = abs(value) ** (1.0 / power)
    grows = (value >= 0.0) == upward
    magnitude *= (1.0 + _ROOT_PAD) if grows else (1.0 - _ROOT_PAD)
    return math.copysign(magnitude, value)


# --------------------------------------------------------------------------- #
# The tape
# --------------------------------------------------------------------------- #
_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter

# Tape opcodes.  ``_RAISE`` marks a node the forward sweep cannot evaluate (a
# NaN constant, an unknown operator): its payload is the error type and
# message, raised at the point where a recursive sweep would raise them.
_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _SQR, _CALL, _RAISE = range(10)
_BINARY_OPS = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}


def _multiply(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """:meth:`Interval.__mul__` on float pairs (``0 * inf = 0``), bit for bit.

    The running ``low``/``high`` make the same comparisons, in the same order,
    as ``min``/``max`` over the four products, without the cost of calling them.
    """
    if alo > ahi or blo > bhi:
        return _INF, _NINF
    low = high = alo * blo if alo and blo else 0.0
    product = alo * bhi if alo and bhi else 0.0
    if product < low:
        low = product
    if product > high:
        high = product
    product = ahi * blo if ahi and blo else 0.0
    if product < low:
        low = product
    if product > high:
        high = product
    product = ahi * bhi if ahi and bhi else 0.0
    if product < low:
        low = product
    if product > high:
        high = product
    return _nextafter(low, _NINF), _nextafter(high, _INF)


def _divide(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """:meth:`Interval.__truediv__` on float pairs, bit for bit."""
    if alo > ahi or blo > bhi:
        return _INF, _NINF
    if not blo <= 0.0 <= bhi:
        # ``a * [1/b]``, with the reciprocal rounded outward.
        r0 = 1.0 / blo
        r1 = 1.0 / bhi
        return _multiply(alo, ahi, _nextafter(r1 if r1 < r0 else r0, _NINF), _nextafter(r1 if r1 > r0 else r0, _INF))
    if blo == bhi:
        return (_NINF, _INF) if alo <= 0.0 <= ahi else (_INF, _NINF)
    return _NINF, _INF


class ConstraintTree:
    """One constraint's ``left - right`` tree as a flat tape, swept per box.

    Node ``i`` of the preorder numbering has opcode ``ops[i]``, children
    ``first[i]``/``second[i]`` (``-1`` when absent) and ``payload[i]``: the
    value of a constant, the name of a variable, ``(name, children,
    integer exponent)`` for a function call, or the error type and message
    of a ``_RAISE`` node.  Squares (``e * e``) are decided once, here.

    The forward sweep runs in postorder — the order in which the recursive
    walk finishes nodes, so even a failing function call fails first where it
    would there — and writes the enclosures into ``lo``/``hi``.  The backward
    sweep runs in preorder, the visiting order of the recursive walk, with
    the projected ranges in ``plo``/``phi``.

    Building a tape costs more than a sweep, so the paving solver, the
    contractor and the importance sampler build one per constraint per
    factor and sweep it over every box they visit.  The four float lists are
    scratch space reused by every sweep: share a tree within one thread only.
    """

    __slots__ = (
        "constraint",
        "ops",
        "first",
        "second",
        "payload",
        "_forward_steps",
        "_steps",
        "_lo",
        "_hi",
        "_plo",
        "_phi",
    )

    def __init__(self, constraint: ast.Constraint) -> None:
        self.constraint = constraint
        self.ops: List[int] = []
        self.first: List[int] = []
        self.second: List[int] = []
        self.payload: List[Any] = []
        self._forward_steps: List[Tuple[int, int, int, int]] = []
        self._number(ast.BinaryOp("-", constraint.left, constraint.right))
        size = len(self.ops)
        self._steps = list(zip(self.ops, range(size), self.first, self.second))
        self._lo = [value if op == _CONST else _NINF for op, value in zip(self.ops, self.payload)]
        self._hi = list(self._lo)
        self._plo = [_NINF] * size
        self._phi = [_INF] * size

    def _number(self, expression: ast.Expression) -> int:
        """Append ``expression``'s subtree in preorder; return its root's index."""
        index = len(self.ops)
        self.ops.append(_RAISE)
        self.first.append(-1)
        self.second.append(-1)
        self.payload.append(expression)
        op: int = _RAISE
        payload: Any = (ICPError, f"cannot evaluate node of type {type(expression).__name__}")
        if isinstance(expression, ast.Constant):
            value = float(expression.value)
            if math.isnan(value):
                payload = (IntervalError, f"interval bounds may not be NaN: [{expression.value}, {expression.value}]")
            else:
                op, payload = _CONST, value
        elif isinstance(expression, ast.Variable):
            op, payload = _VAR, expression.name
        elif isinstance(expression, ast.UnaryOp):
            op, payload = _NEG, None
            self.first[index] = self._number(expression.operand)
        elif isinstance(expression, ast.BinaryOp):
            # The operands come first even under an unknown operator: their
            # errors are raised before the operator's.
            self.first[index] = self._number(expression.left)
            self.second[index] = self._number(expression.right)
            if expression.operator in _BINARY_OPS:
                op, payload = _BINARY_OPS[expression.operator], None
                if op == _MUL and _is_square(expression):
                    op = _SQR
            else:
                payload = (ICPError, f"unknown binary operator {expression.operator!r}")
        elif isinstance(expression, ast.FunctionCall):
            children = tuple(self._number(argument) for argument in expression.arguments)
            power = None
            if expression.name == "pow" and len(children) == 2:
                power = _integer_exponent(expression.arguments[1])
            op, payload = _CALL, (expression.name, children, power)
        self.ops[index] = op
        self.payload[index] = payload
        if op != _CONST:
            self._forward_steps.append((op, index, self.first[index], self.second[index]))
        return index

    def _forward(self, box: Box) -> None:
        """Enclose every node over ``box`` into ``lo``/``hi`` (postorder)."""
        lo = self._lo
        hi = self._hi
        payload = self.payload
        intervals = box._intervals
        nextafter = _nextafter
        for op, i, a, b in self._forward_steps:
            if op == _ADD:
                alo = lo[a]
                ahi = hi[a]
                blo = lo[b]
                bhi = hi[b]
                if alo > ahi or blo > bhi:
                    lo[i] = _INF
                    hi[i] = _NINF
                else:
                    lo[i] = nextafter(alo + blo, _NINF)
                    hi[i] = nextafter(ahi + bhi, _INF)
            elif op == _MUL:
                lo[i], hi[i] = _multiply(lo[a], hi[a], lo[b], hi[b])
            elif op == _VAR:
                interval = intervals.get(payload[i])
                if interval is None:
                    lo[i] = _NINF
                    hi[i] = _INF
                else:
                    lo[i] = interval.lo
                    hi[i] = interval.hi
            elif op == _SUB:
                alo = lo[a]
                ahi = hi[a]
                blo = lo[b]
                bhi = hi[b]
                if alo > ahi or blo > bhi:
                    lo[i] = _INF
                    hi[i] = _NINF
                else:
                    lo[i] = nextafter(alo - bhi, _NINF)
                    hi[i] = nextafter(ahi - blo, _INF)
            elif op == _NEG:
                alo = lo[a]
                ahi = hi[a]
                if alo > ahi:
                    lo[i] = _INF
                    hi[i] = _NINF
                else:
                    lo[i] = -ahi
                    hi[i] = -alo
            elif op == _SQR:
                # ``e * e`` is a square: the tight enclosure avoids the spurious
                # negative range of the generic product rule (Interval.sqr).
                alo = lo[a]
                ahi = hi[a]
                if alo > ahi:
                    lo[i] = _INF
                    hi[i] = _NINF
                    continue
                if not alo >= 0:  # |e|, tested as Interval.__abs__ tests it
                    if ahi <= 0:
                        alo, ahi = -ahi, -alo
                    else:
                        alo, ahi = 0.0, ahi if ahi > -alo else -alo
                low = nextafter(alo * alo, _NINF)
                lo[i] = low if low > 0.0 else 0.0
                hi[i] = nextafter(ahi * ahi, _INF)
            elif op == _DIV:
                lo[i], hi[i] = _divide(lo[a], hi[a], lo[b], hi[b])
            elif op == _CALL:
                name, children, _ = payload[i]
                value = apply_function(name, [Interval(lo[c], hi[c]) for c in children])
                lo[i] = value.lo
                hi[i] = value.hi
            else:
                error, message = payload[i]
                raise error(message)

    def certainly_holds(self, box: Box, strict_boundaries: bool = False) -> bool:
        """True when every point of ``box`` satisfies the constraint.

        Used to classify paving boxes as *inner* (tight) boxes: sampling inside
        an inner box is unnecessary because the hit ratio is exactly one.

        The default mode grants the strict operators ``<`` and ``>`` the same
        floating-point boundary slack as their non-strict counterparts: under
        a continuous profile the boundary set has probability zero, so a box
        that touches it is still "inner up to measure zero".  That argument
        breaks for integer-supported profiles — an atom sitting exactly on the
        boundary of a strict inequality carries positive mass but does *not*
        satisfy it — so callers classifying boxes over discrete variables must
        pass ``strict_boundaries=True``, which requires the whole enclosure to
        clear the boundary with no slack (boundary-touching boxes stay
        undecided and get sampled, which is unbiased).
        """
        self._forward(box)
        return _certainly_holds(self.constraint.operator, Interval(self._lo[0], self._hi[0]), strict_boundaries)

    def certainly_fails(self, box: Box) -> bool:
        """True when no point of ``box`` satisfies the constraint.

        The enclosure of ``left - right`` over ``box`` is empty or misses the
        operator's feasible range (:func:`relation_range`).
        """
        self._forward(box)
        lo = self._lo[0]
        hi = self._hi[0]
        if lo > hi:
            return True
        return Interval(lo, hi).intersect(relation_range(self.constraint.operator)).is_empty()

    def revise(self, box: Box) -> Optional[Box]:
        """Contract ``box`` with respect to the constraint (one HC4-revise).

        Returns the contracted box, or ``None`` when the constraint is
        certainly unsatisfiable over ``box``.
        """
        self._forward(box)
        lo = self._lo
        hi = self._hi
        feasible = Interval(lo[0], hi[0]).intersect(relation_range(self.constraint.operator))
        if feasible.is_empty():
            return None
        plo = self._plo
        phi = self._phi
        plo[0] = feasible.lo
        phi[0] = feasible.hi
        payload = self.payload
        intervals = box._intervals
        narrowed: Dict[str, Tuple[float, float]] = {}
        nextafter = _nextafter
        # Every forward rule returns the empty interval as soon as an operand
        # is empty, so the children of a node that survives its meet have
        # non-empty enclosures: the projections need no emptiness tests on
        # them.  A projection that comes out empty fails the child's meet, so
        # the sweep can stop where it is found.
        for op, i, a, b in self._steps:
            # The node's value: its enclosure met with its projected range.
            flo = lo[i]
            fhi = hi[i]
            qlo = plo[i]
            qhi = phi[i]
            if flo > fhi or qlo > qhi:
                return None
            vlo = qlo if qlo > flo else flo
            vhi = qhi if qhi < fhi else fhi
            if vlo > vhi:
                return None
            if op == _CONST:
                continue
            if op == _VAR:
                name = payload[i]
                current = narrowed.get(name)
                if current is None:
                    interval = intervals.get(name)
                    if interval is None:
                        continue
                    clo = interval.lo
                    chi = interval.hi
                else:
                    clo, chi = current
                if clo > chi:
                    return None
                nlo = vlo if vlo > clo else clo
                nhi = vhi if vhi < chi else chi
                if nlo > nhi:
                    return None
                narrowed[name] = (nlo, nhi)
            elif op == _ADD:
                # left = value - right, right = value - left
                plo[a] = nextafter(vlo - hi[b], _NINF)
                phi[a] = nextafter(vhi - lo[b], _INF)
                plo[b] = nextafter(vlo - hi[a], _NINF)
                phi[b] = nextafter(vhi - lo[a], _INF)
            elif op == _MUL:
                # Each factor is the product over the other factor, unless
                # the other factor straddles zero (then it stays as it is).
                alo = lo[a]
                ahi = hi[a]
                blo = lo[b]
                bhi = hi[b]
                if blo <= 0.0 <= bhi:
                    plo[a] = alo
                    phi[a] = ahi
                else:
                    plo[a], phi[a] = _divide(vlo, vhi, blo, bhi)
                if alo <= 0.0 <= ahi:
                    plo[b] = blo
                    phi[b] = bhi
                else:
                    plo[b], phi[b] = _divide(vlo, vhi, alo, ahi)
            elif op == _SUB:
                # left = value + right, right = left - value
                plo[a] = nextafter(vlo + lo[b], _NINF)
                phi[a] = nextafter(vhi + hi[b], _INF)
                plo[b] = nextafter(lo[a] - vhi, _NINF)
                phi[b] = nextafter(hi[a] - vlo, _INF)
            elif op == _NEG:
                plo[a] = -vhi
                phi[a] = -vlo
            elif op == _SQR:
                # Invert the square: both copies of e lie in ±sqrt(max value).
                if (0.0 if 0.0 > vlo else vlo) > vhi:
                    return None
                if math.isfinite(vhi):
                    root = math.sqrt(vhi) * (1.0 + _ROOT_PAD)
                    rlo = -root
                else:
                    rlo, root = _NINF, _INF
                for child in (a, b):
                    clo = lo[child]
                    chi = hi[child]
                    clo = rlo if rlo > clo else clo
                    chi = root if root < chi else chi
                    if clo > chi:
                        return None
                    plo[child] = clo
                    phi[child] = chi
            elif op == _DIV:
                # numerator = value * denominator; denominator = numerator /
                # value unless value straddles zero.
                blo = lo[b]
                bhi = hi[b]
                plo[a], phi[a] = _multiply(vlo, vhi, blo, bhi)
                if vlo <= 0.0 <= vhi:
                    plo[b] = blo
                    phi[b] = bhi
                else:
                    plo[b], phi[b] = _divide(lo[a], hi[a], vlo, vhi)
            else:
                name, children, power = payload[i]
                arguments = [Interval(lo[c], hi[c]) for c in children]
                projections = _project_call(name, Interval(vlo, vhi), arguments, power)
                if projections is None:
                    return None
                for child, projected in zip(children, projections):
                    plo[child] = projected.lo
                    phi[child] = projected.hi
        domains = dict(intervals)
        for name, (nlo, nhi) in narrowed.items():
            domains[name] = Interval(nlo, nhi)
        return Box(domains)


def constraint_trees(pc: ast.PathCondition) -> Tuple[ConstraintTree, ...]:
    """One :class:`ConstraintTree` per conjunct of ``pc``, in order."""
    return tuple(ConstraintTree(constraint) for constraint in pc.constraints)
