"""Interval extensions of the mathematical functions used in path conditions.

Each function takes interval arguments and returns an interval that encloses
the exact image of the function over those arguments.  A small safety margin
(one ULP outward per bound, plus a fixed relative pad for the periodic
functions) keeps every enclosure conservative without the complexity of
correctly-rounded libm bounds.

The set of functions mirrors what the paper's subjects require: ``sin``,
``cos``, ``tan``, ``atan``, ``atan2``, ``asin``, ``acos``, ``exp``, ``log``,
``sqrt``, ``pow`` plus hyperbolic functions and ``min``/``max``/``abs``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

from repro.errors import IntervalError, UnknownFunctionError
from repro.intervals.interval import EMPTY, ENTIRE, Interval, _next_down, _next_up

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi

#: Width beyond which a periodic function is immediately enclosed by its range.
_PERIODIC_BAILOUT = 1.0e16


def _pad(lo: float, hi: float) -> Interval:
    """Build an interval padded outward by one ULP on each side."""
    return Interval(_next_down(lo), _next_up(hi))


# --------------------------------------------------------------------------- #
# Monotone helpers
# --------------------------------------------------------------------------- #
def _monotone(func: Callable[[float], float], iv: Interval) -> Interval:
    """Enclosure of a monotonically increasing function over ``iv``."""
    if iv.is_empty():
        return EMPTY
    return _pad(func(iv.lo), func(iv.hi))


def interval_exp(iv: Interval) -> Interval:
    """Enclosure of ``exp`` (overflow saturates to +inf)."""
    if iv.is_empty():
        return EMPTY

    def safe_exp(x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    return _pad(max(0.0, _next_down(safe_exp(iv.lo))), safe_exp(iv.hi))


def interval_log(iv: Interval) -> Interval:
    """Enclosure of the natural logarithm over the positive part of ``iv``."""
    if iv.is_empty() or iv.hi <= 0.0:
        return EMPTY
    lo = -math.inf if iv.lo <= 0.0 else math.log(iv.lo)
    hi = math.log(iv.hi)
    return _pad(lo, hi)


def interval_log10(iv: Interval) -> Interval:
    """Enclosure of the base-10 logarithm over the positive part of ``iv``."""
    if iv.is_empty() or iv.hi <= 0.0:
        return EMPTY
    lo = -math.inf if iv.lo <= 0.0 else math.log10(iv.lo)
    hi = math.log10(iv.hi)
    return _pad(lo, hi)


def interval_sqrt(iv: Interval) -> Interval:
    """Enclosure of the square root over the non-negative part of ``iv``."""
    if iv.is_empty() or iv.hi < 0.0:
        return EMPTY
    lo = 0.0 if iv.lo <= 0.0 else math.sqrt(iv.lo)
    hi = math.sqrt(iv.hi)
    return Interval(max(0.0, _next_down(lo)), _next_up(hi))


def interval_atan(iv: Interval) -> Interval:
    """Enclosure of the arctangent."""
    return _monotone(math.atan, iv)


def interval_sinh(iv: Interval) -> Interval:
    """Enclosure of the hyperbolic sine."""
    def safe_sinh(x: float) -> float:
        try:
            return math.sinh(x)
        except OverflowError:
            return math.copysign(math.inf, x)

    return _monotone(safe_sinh, iv)


def interval_tanh(iv: Interval) -> Interval:
    """Enclosure of the hyperbolic tangent, clipped to [-1, 1]."""
    result = _monotone(math.tanh, iv)
    return result.intersect(Interval(-1.0, 1.0)) if not result.is_empty() else result


def interval_cosh(iv: Interval) -> Interval:
    """Enclosure of the hyperbolic cosine."""
    if iv.is_empty():
        return EMPTY

    def safe_cosh(x: float) -> float:
        try:
            return math.cosh(x)
        except OverflowError:
            return math.inf

    values = [safe_cosh(iv.lo), safe_cosh(iv.hi)]
    lo = 1.0 if iv.contains(0.0) else min(values)
    return _pad(max(1.0, _next_down(lo)), max(values))


def interval_asin(iv: Interval) -> Interval:
    """Enclosure of arcsine over the intersection of ``iv`` with [-1, 1]."""
    clipped = iv.intersect(Interval(-1.0, 1.0))
    if clipped.is_empty():
        return EMPTY
    result = _monotone(math.asin, clipped)
    return result.intersect(Interval(-_HALF_PI, _HALF_PI)).hull(result)


def interval_acos(iv: Interval) -> Interval:
    """Enclosure of arccosine over the intersection of ``iv`` with [-1, 1]."""
    clipped = iv.intersect(Interval(-1.0, 1.0))
    if clipped.is_empty():
        return EMPTY
    return _pad(math.acos(clipped.hi), math.acos(clipped.lo))


# --------------------------------------------------------------------------- #
# Periodic functions
# --------------------------------------------------------------------------- #
def interval_sin(iv: Interval) -> Interval:
    """Enclosure of the sine function."""
    if iv.is_empty():
        return EMPTY
    if not iv.is_bounded() or iv.width() >= _TWO_PI or iv.magnitude() > _PERIODIC_BAILOUT:
        return Interval(-1.0, 1.0)
    lo, hi = iv.lo, iv.hi
    result_lo = min(math.sin(lo), math.sin(hi))
    result_hi = max(math.sin(lo), math.sin(hi))
    # sin attains +1 at pi/2 + 2k*pi and -1 at -pi/2 + 2k*pi.
    if _contains_congruent(lo, hi, _HALF_PI):
        result_hi = 1.0
    if _contains_congruent(lo, hi, -_HALF_PI):
        result_lo = -1.0
    return _clip_unit(_pad(result_lo, result_hi))


def interval_cos(iv: Interval) -> Interval:
    """Enclosure of the cosine function."""
    if iv.is_empty():
        return EMPTY
    if not iv.is_bounded() or iv.width() >= _TWO_PI or iv.magnitude() > _PERIODIC_BAILOUT:
        return Interval(-1.0, 1.0)
    lo, hi = iv.lo, iv.hi
    result_lo = min(math.cos(lo), math.cos(hi))
    result_hi = max(math.cos(lo), math.cos(hi))
    if _contains_congruent(lo, hi, 0.0):
        result_hi = 1.0
    if _contains_congruent(lo, hi, math.pi):
        result_lo = -1.0
    return _clip_unit(_pad(result_lo, result_hi))


def interval_tan(iv: Interval) -> Interval:
    """Enclosure of the tangent function (whole line across a pole)."""
    if iv.is_empty():
        return EMPTY
    if not iv.is_bounded() or iv.width() >= math.pi or iv.magnitude() > _PERIODIC_BAILOUT:
        return ENTIRE
    if _contains_congruent(iv.lo, iv.hi, _HALF_PI, period=math.pi):
        return ENTIRE
    return _pad(math.tan(iv.lo), math.tan(iv.hi))


def _contains_congruent(lo: float, hi: float, target: float, period: float = _TWO_PI) -> bool:
    """True when some ``target + k * period`` lies in ``[lo, hi]``."""
    k = math.ceil((lo - target) / period)
    return target + k * period <= hi


def _clip_unit(iv: Interval) -> Interval:
    """Clip a sine/cosine enclosure to the mathematically valid range."""
    return iv.intersect(Interval(-1.0, 1.0))


def interval_atan2(y: Interval, x: Interval) -> Interval:
    """Enclosure of ``atan2(y, x)``.

    The enclosure is computed from corner evaluations, widened to the full
    range ``[-pi, pi]`` whenever the argument box crosses the branch cut
    (negative x axis) or contains the origin.
    """
    if y.is_empty() or x.is_empty():
        return EMPTY
    full = Interval(-math.pi, math.pi)
    if not (y.is_bounded() and x.is_bounded()):
        return full
    crosses_cut = x.lo < 0.0 and y.contains(0.0)
    contains_origin = x.contains(0.0) and y.contains(0.0)
    if crosses_cut or contains_origin:
        return full
    corners = [math.atan2(yy, xx) for yy in (y.lo, y.hi) for xx in (x.lo, x.hi)]
    return _pad(min(corners), max(corners)).intersect(full)


# --------------------------------------------------------------------------- #
# Powers
# --------------------------------------------------------------------------- #
def interval_pow(base: Interval, exponent: Interval) -> Interval:
    """Enclosure of ``base ** exponent``.

    Integer point exponents get the tight monomial enclosure; other exponents
    are routed through ``exp(exponent * log(base))`` restricted to positive
    bases, which matches the semantics of ``Math.pow`` on the subjects the
    paper analyses (fractional powers of negative numbers are NaN and thus
    excluded from the solution space).
    """
    if base.is_empty() or exponent.is_empty():
        return EMPTY
    if exponent.is_point() and float(exponent.lo).is_integer():
        return integer_power(base, int(exponent.lo))
    positive_base = base.intersect(Interval(0.0, math.inf))
    if positive_base.is_empty():
        return EMPTY
    log_part = interval_log(positive_base)
    if log_part.is_empty():
        # base interval is exactly {0}; 0**e is 0 for e > 0, 1 for e == 0.
        out = Interval.point(0.0)
        if exponent.contains(0.0):
            out = out.hull(Interval.point(1.0))
        return out
    result = interval_exp(exponent * log_part)
    if positive_base.contains(0.0):
        result = result.hull(Interval.point(0.0))
        if exponent.contains(0.0):
            result = result.hull(Interval.point(1.0))
    return result


def integer_power(base: Interval, power: int) -> Interval:
    """Tight enclosure of an integer power of an interval."""
    if base.is_empty():
        return EMPTY
    if power == 0:
        return Interval.point(1.0)
    if power < 0:
        return Interval.point(1.0) / integer_power(base, -power)
    if power % 2 == 0:
        abs_base = abs(base)
        return _pad(_safe_pow(abs_base.lo, power), _safe_pow(abs_base.hi, power))
    return _pad(_safe_pow(base.lo, power), _safe_pow(base.hi, power))


def _safe_pow(value: float, power: int) -> float:
    """``value ** power`` with overflow saturated to signed infinity."""
    try:
        return float(value) ** power
    except OverflowError:
        sign = -1.0 if (value < 0 and power % 2 == 1) else 1.0
        return sign * math.inf


# --------------------------------------------------------------------------- #
# Min / max / misc
# --------------------------------------------------------------------------- #
def interval_min(a: Interval, b: Interval) -> Interval:
    """Enclosure of the pointwise minimum."""
    if a.is_empty() or b.is_empty():
        return EMPTY
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def interval_max(a: Interval, b: Interval) -> Interval:
    """Enclosure of the pointwise maximum."""
    if a.is_empty() or b.is_empty():
        return EMPTY
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def interval_abs(iv: Interval) -> Interval:
    """Enclosure of the absolute value."""
    return abs(iv)


# --------------------------------------------------------------------------- #
# Function tables used by the interval evaluator and the HC4 contractor
# --------------------------------------------------------------------------- #
_UNARY: Dict[str, Callable[[Interval], Interval]] = {
    "sin": interval_sin,
    "cos": interval_cos,
    "tan": interval_tan,
    "asin": interval_asin,
    "acos": interval_acos,
    "atan": interval_atan,
    "sinh": interval_sinh,
    "cosh": interval_cosh,
    "tanh": interval_tanh,
    "exp": interval_exp,
    "log": interval_log,
    "log10": interval_log10,
    "sqrt": interval_sqrt,
    "abs": interval_abs,
}

_BINARY: Dict[str, Callable[[Interval, Interval], Interval]] = {
    "pow": interval_pow,
    "atan2": interval_atan2,
    "min": interval_min,
    "max": interval_max,
}


def supported_functions() -> Sequence[str]:
    """Names of every function with an interval extension."""
    return sorted(set(_UNARY) | set(_BINARY))


def apply_function(name: str, args: Sequence[Interval]) -> Interval:
    """Apply the interval extension of function ``name`` to ``args``."""
    if name in _UNARY:
        if len(args) != 1:
            raise IntervalError(f"function {name!r} expects 1 argument, got {len(args)}")
        return _UNARY[name](args[0])
    if name in _BINARY:
        if len(args) != 2:
            raise IntervalError(f"function {name!r} expects 2 arguments, got {len(args)}")
        return _BINARY[name](args[0], args[1])
    raise UnknownFunctionError(name)
