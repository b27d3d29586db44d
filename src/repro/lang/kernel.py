"""Fused-kernel constraint compiler with an in-process kernel cache.

:mod:`repro.lang.compiler` evaluates a path condition as a tree of NumPy
closures: every AST node is one Python call plus one intermediate ndarray per
batch, and every constant is materialised with ``np.full``.  The estimator
spends essentially all of its wall-clock in that tree, so this module lowers a
whole path condition (or constraint set) into **one** generated Python
function — a fused kernel — that computes the conjunction in a single pass
with explicit temporaries:

* constants stay scalar literals (NumPy broadcasting replaces ``np.full``);
* each variable is converted to a float array once, not once per occurrence;
* common subexpressions are computed once across conjuncts — and, for
  constraint sets, across *path conditions*, which share long prefixes under
  bounded symbolic execution;
* the conjunction short-circuits between conjuncts exactly like the closure
  evaluator (``if not out.any(): return out``).

The compiled semantics is bit-identical to the closure compiler's: the same
ufuncs run in the same per-expression order, domain errors (division by zero,
roots/logs of negatives) produce the same NaN/inf entries under the same
``errstate``, and comparisons involving NaN are unsatisfied.  The closure
compiler stays as the reference oracle the kernel tests hold this one to.

Caching
-------
Kernels are keyed by the **canonical text** of the constraint over its own
variable names (conjuncts, and the disjuncts of a constraint set, sorted), so
factors with the same text share one compiled kernel whatever order their
conjuncts came in.  A kernel takes its variables by position, in sorted-name
order.  The cache is an in-process, thread-safe LRU
(``QCORAL_KERNEL_CACHE_SIZE``, default 4096 entries).
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import EvaluationError, UnknownFunctionError, UnknownVariableError
from repro.lang import ast
from repro.lang.compiler import CompiledPredicate, SampleBatch, _batch_length

#: Environment variable bounding the in-process LRU (entries, default 4096).
CACHE_SIZE_ENV = "QCORAL_KERNEL_CACHE_SIZE"

#: Default in-process LRU capacity.
DEFAULT_CACHE_SIZE = 4096

#: Name of the generated function inside an emitted kernel source.
_KERNEL_FUNC = "qcoral_kernel"

#: Anything :func:`get_kernel` accepts.
Compilable = Union[ast.Constraint, ast.PathCondition, ast.ConstraintSet]

#: NumPy spelling of every supported function, mirroring the closure
#: compiler's ufunc tables (same ufuncs => bit-identical values).
_UNARY_NUMPY: Dict[str, str] = {
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "asin": "np.arcsin",
    "acos": "np.arccos",
    "atan": "np.arctan",
    "sinh": "np.sinh",
    "cosh": "np.cosh",
    "tanh": "np.tanh",
    "exp": "np.exp",
    "log": "np.log",
    "log10": "np.log10",
    "sqrt": "np.sqrt",
    "abs": "np.abs",
}

_BINARY_NUMPY: Dict[str, str] = {
    "pow": "np.power",
    "atan2": "np.arctan2",
    "min": "np.minimum",
    "max": "np.maximum",
}


# --------------------------------------------------------------------------- #
# Code generation
# --------------------------------------------------------------------------- #
class _Emitter:
    """Emits statements for expression trees with common-subexpression reuse.

    Every non-leaf node becomes one explicit temporary (``t3 = t1 * t2``);
    constants and variables are referenced inline.  Temporaries are shared by
    canonical text, so a subexpression appearing in several conjuncts — or in
    several path conditions of one constraint set — is computed once.
    Variable ``variables[i]`` is referenced as the kernel argument ``v{i}``,
    so no input name can collide with a name the kernel itself uses.
    """

    def __init__(self, variables: Sequence[str]) -> None:
        self.lines: List[str] = []
        self._arguments = {name: f"v{index}" for index, name in enumerate(variables)}
        self._cse: Dict[str, str] = {}
        self._count = 0

    def _temp(self) -> str:
        name = f"t{self._count}"
        self._count += 1
        return name

    def expression(self, expr: ast.Expression) -> str:
        """A Python fragment referencing the value of ``expr``."""
        if isinstance(expr, ast.Constant):
            # np.float64, not a bare literal: constant-constant arithmetic must
            # follow IEEE semantics (1.0/0.0 -> inf), never raise ZeroDivisionError
            # the way scalar Python floats would.  Non-finite values have no
            # repr that evaluates (`inf`/`nan` are not names in the kernel
            # namespace), so they are spelled via np.inf/np.nan — reachable
            # from ordinary inputs: `x < 1e999` parses to Constant(inf), and
            # simplify folds 1.0/0.0 to Constant(inf).
            value = float(expr.value)
            if math.isnan(value):
                return "np.float64(np.nan)"
            if math.isinf(value):
                return "np.float64(np.inf)" if value > 0 else "np.float64(-np.inf)"
            return f"np.float64({value!r})"
        if isinstance(expr, ast.Variable):
            return self._arguments[expr.name]
        key = expr.canonical()
        cached = self._cse.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, ast.UnaryOp):
            if expr.operator != "-":
                raise EvaluationError(f"unknown unary operator {expr.operator!r}")
            statement = f"-({self.expression(expr.operand)})"
        elif isinstance(expr, ast.BinaryOp):
            if expr.operator not in ast.ARITHMETIC_OPERATORS:
                raise EvaluationError(f"unknown binary operator {expr.operator!r}")
            left = self.expression(expr.left)
            right = self.expression(expr.right)
            statement = f"{left} {expr.operator} {right}"
        elif isinstance(expr, ast.FunctionCall):
            statement = self._call(expr)
        else:
            raise EvaluationError(f"cannot compile node of type {type(expr).__name__}")
        name = self._temp()
        self.lines.append(f"{name} = {statement}")
        self._cse[key] = name
        return name

    def _call(self, expr: ast.FunctionCall) -> str:
        arguments = [self.expression(argument) for argument in expr.arguments]
        if expr.name in _UNARY_NUMPY:
            if len(arguments) != 1:
                raise EvaluationError(f"function {expr.name!r} expects 1 argument, got {len(arguments)}")
            return f"{_UNARY_NUMPY[expr.name]}({arguments[0]})"
        if expr.name in _BINARY_NUMPY:
            if len(arguments) != 2:
                raise EvaluationError(f"function {expr.name!r} expects 2 arguments, got {len(arguments)}")
            return f"{_BINARY_NUMPY[expr.name]}({arguments[0]}, {arguments[1]})"
        raise UnknownFunctionError(expr.name)

    def constraint(self, constraint: ast.Constraint) -> str:
        """A fragment referencing the boolean array of one atomic constraint."""
        key = constraint.canonical()
        cached = self._cse.get(key)
        if cached is not None:
            return cached
        left = self.expression(constraint.left)
        right = self.expression(constraint.right)
        name = self._temp()
        if constraint.free_variables():
            self.lines.append(f"{name} = {left} {constraint.operator} {right}")
        else:
            # Variable-free conjunct: both sides are scalars, so the result
            # must be broadcast to a batch-length boolean array explicitly.
            self.lines.append(f"{name} = np.full(n, {left} {constraint.operator} {right}, np.bool_)")
        self._cse[key] = name
        return name


def _cache_key(node: Union[ast.PathCondition, ast.ConstraintSet]) -> Tuple[str, str]:
    """``(kind, canonical text)``: the text sorts conjuncts (and disjuncts)."""
    if isinstance(node, ast.PathCondition):
        return "pc", node.canonical()
    return "cs", " || ".join(sorted(pc.canonical() for pc in node.path_conditions)) or "false"


def _sorted_conjuncts(pc: ast.PathCondition) -> List[ast.Constraint]:
    return sorted(pc.constraints, key=lambda constraint: constraint.canonical())


def _generate_source(node: Union[ast.PathCondition, ast.ConstraintSet]) -> str:
    """Emit the fused kernel source of ``node``.

    Conjuncts and disjuncts are emitted in canonical-text order and the
    arguments bind the variables in sorted-name order, so the source is a
    pure function of the cache key.
    """
    variables = sorted(node.free_variables())
    emitter = _Emitter(variables)
    body = emitter.lines
    if isinstance(node, ast.PathCondition):
        kind = "pc"
        constraints = _sorted_conjuncts(node)
        body.append("out = np.ones(n, dtype=np.bool_)")
        for index, constraint in enumerate(constraints):
            reference = emitter.constraint(constraint)
            body.append(f"out &= {reference}")
            if index + 1 < len(constraints):
                # Same short-circuit the closure evaluator applies between
                # conjuncts: once nothing survives, skip the rest.
                body.append("if not out.any():")
                body.append("    return out")
    elif isinstance(node, ast.ConstraintSet):
        kind = "cs"
        body.append("out = np.zeros(n, dtype=np.bool_)")
        for pc in sorted(node.path_conditions, key=lambda pc: pc.canonical()):
            if not pc.constraints:
                body.append("out |= np.ones(n, dtype=np.bool_)")
                continue
            references = [emitter.constraint(constraint) for constraint in _sorted_conjuncts(pc)]
            # No per-disjunct short-circuit here: temporaries are shared
            # across disjuncts (the CSE win on shared path prefixes), so a
            # skipped conjunct could starve a later disjunct of its input.
            body.append(f"out |= {' & '.join(references)}")
    else:
        raise EvaluationError(f"cannot build a kernel for node of type {type(node).__name__}")
    body.append("return out")
    args = ", ".join(["n"] + [f"v{index}" for index in range(len(variables))])
    code_lines = [f"def {_KERNEL_FUNC}({args}):"] + [f"    {line}" for line in body]
    header = ["# qcoral fused kernel (generated; do not edit)", f"# kind: {kind}"]
    return "\n".join(header + code_lines) + "\n"


# --------------------------------------------------------------------------- #
# In-process cache and statistics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelCacheStats:
    """Snapshot of the kernel cache counters (cumulative per process)."""

    lookups: int = 0
    memory_hits: int = 0
    codegens: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0

    @property
    def disk_hits(self) -> int:
        """Always 0: kernels are cached in memory only."""
        return 0


_CACHE_LOCK = threading.Lock()
#: Compiled kernels: (kind, canonical text) -> positional kernel function.
_KERNEL_CACHE: "OrderedDict[Tuple[str, str], Callable]" = OrderedDict()
_STATS: Dict[str, float] = {
    "lookups": 0,
    "memory_hits": 0,
    "codegens": 0,
    "evictions": 0,
    "compile_seconds": 0.0,
}


def _cache_capacity() -> int:
    raw = os.environ.get(CACHE_SIZE_ENV, "").strip()
    if not raw:
        return DEFAULT_CACHE_SIZE
    try:
        capacity = int(raw)
    except ValueError:
        return DEFAULT_CACHE_SIZE
    return max(1, capacity)


def _lru_get(cache: OrderedDict, key):
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _lru_put(cache: OrderedDict, key, value) -> None:
    # Callers hold _CACHE_LOCK, so the eviction counter is updated in place
    # rather than via _bump (which would deadlock on the non-reentrant lock).
    cache[key] = value
    cache.move_to_end(key)
    capacity = _cache_capacity()
    while len(cache) > capacity:
        cache.popitem(last=False)
        _STATS["evictions"] += 1


def kernel_cache_stats() -> KernelCacheStats:
    """Current cache counters (lookups, hits, codegen runs)."""
    with _CACHE_LOCK:
        return KernelCacheStats(**_STATS)  # type: ignore[arg-type]


def kernel_cache_info() -> Dict[str, object]:
    """Structured view of the cache, for observability surfaces.

    Unlike :func:`kernel_cache_stats` (a flat counter snapshot), this adds the
    live occupancy and capacity, so a dashboard or ``--verbose`` dump can tell
    an LRU that is thrashing (evictions climbing against a full ``size``).
    """
    capacity = _cache_capacity()
    with _CACHE_LOCK:
        stats = dict(_STATS)
        kernel_size = len(_KERNEL_CACHE)
    return {
        "memory": {
            "hits": int(stats["memory_hits"]),
            "misses": int(stats["lookups"] - stats["memory_hits"]),
            "evictions": int(stats["evictions"]),
            "size": kernel_size,
            "capacity": capacity,
        },
        "codegens": int(stats["codegens"]),
        "compile_seconds": float(stats["compile_seconds"]),
    }


def clear_kernel_cache(disk: bool = False) -> None:
    """Drop every compiled kernel and reset the counters.

    Counters are reset too, so tests can assert on deltas from zero.  ``disk``
    is accepted for callers that also cleared a kernel directory; kernels are
    never written to disk, so it changes nothing.
    """
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        for counter in _STATS:
            _STATS[counter] = 0


def _bump(counter: str, amount: float = 1) -> None:
    with _CACHE_LOCK:
        _STATS[counter] += amount


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
def _compile_source(source: str, kind: str) -> Callable:
    namespace: Dict[str, object] = {"np": np}
    code = compile(source, f"<qcoral-kernel-{kind}>", "exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated source
    return namespace[_KERNEL_FUNC]  # type: ignore[return-value]


def _raw_kernel(node: Union[ast.PathCondition, ast.ConstraintSet]) -> Callable:
    """The positional kernel function of ``node`` (cached by its key)."""
    key = _cache_key(node)
    _bump("lookups")
    with _CACHE_LOCK:
        cached = _lru_get(_KERNEL_CACHE, key)
    if cached is not None:
        _bump("memory_hits")
        return cached
    started = time.perf_counter()
    _bump("codegens")
    kernel = _compile_source(_generate_source(node), key[0])
    _bump("compile_seconds", time.perf_counter() - started)
    with _CACHE_LOCK:
        _lru_put(_KERNEL_CACHE, key, kernel)
    return kernel


def _make_predicate(kernel: Callable, variables: Tuple[str, ...]) -> CompiledPredicate:
    """Bind a positional kernel to the caller's variable names.

    The wrapper reproduces the closure compiler's input handling: each
    variable array is converted to float64 (once, not per occurrence), a
    missing variable raises :class:`UnknownVariableError`, and the whole
    evaluation runs under the same ``errstate`` so domain errors stay silent
    NaN/inf entries.
    """
    if not variables:

        def constant_predicate(batch: SampleBatch) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return kernel(_batch_length(batch))

        return constant_predicate

    def predicate(batch: SampleBatch) -> np.ndarray:
        arrays = []
        for name in variables:
            try:
                values = batch[name]
            except KeyError as exc:
                raise UnknownVariableError(name) from exc
            arrays.append(np.asarray(values, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return kernel(len(arrays[0]), *arrays)

    return predicate


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def _normalise(constraint: Compilable) -> Union[ast.PathCondition, ast.ConstraintSet]:
    if isinstance(constraint, ast.Constraint):
        return ast.PathCondition.of([constraint])
    if isinstance(constraint, (ast.PathCondition, ast.ConstraintSet)):
        return constraint
    raise EvaluationError(f"cannot build a kernel for node of type {type(constraint).__name__}")


def get_kernel(constraint: Compilable) -> CompiledPredicate:
    """The cached fused-kernel predicate of ``constraint``.

    This is the one entry point every evaluator goes through.  The returned
    callable has the exact :data:`~repro.lang.compiler.CompiledPredicate`
    contract — sample batch in, boolean hit array out — and is bit-identical
    to the closure compiler's predicate.

    Args:
        constraint: An atomic constraint, path condition, or constraint set.
    """
    node = _normalise(constraint)
    return _make_predicate(_raw_kernel(node), tuple(sorted(node.free_variables())))


def kernel_source(constraint: Compilable) -> str:
    """The generated fused-kernel source of ``constraint`` (for inspection)."""
    return _generate_source(_normalise(constraint))


def kernel_key(constraint: Compilable) -> str:
    """The canonical text ``constraint``'s kernel is cached under."""
    return _cache_key(_normalise(constraint))[1]
