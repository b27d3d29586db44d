"""Fused-kernel constraint compiler with an in-process kernel cache.

:mod:`repro.lang.compiler` evaluates a path condition as a tree of NumPy
closures: every AST node is one Python call plus one intermediate ndarray per
batch, and every constant is materialised with ``np.full``.  The estimator
spends essentially all of its wall-clock in that tree, so this module lowers a
whole canonical path condition (or constraint set) into **one** generated
Python function — a fused kernel — that computes the conjunction in a single
pass with explicit temporaries:

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
Kernels are keyed by the **alpha-renamed canonical text** of the constraint
(:mod:`repro.lang.canonical`), so alpha-equivalent factors — ``x <= 0.5`` and
``y <= 0.5`` — share one compiled kernel.  The cache is an in-process,
thread-safe LRU (``QCORAL_KERNEL_CACHE_SIZE``, default 4096 entries); process
workers compile their own kernels on first use.
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
from repro.lang.canonical import alpha_canonical_greedy, canonical_name
from repro.lang.compiler import CompiledPredicate, SampleBatch, _batch_length
from repro.lang.substitution import substitute_constraint

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
# Canonicalisation: cache keys and renamed ASTs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Lowered:
    """One constraint lowered to its canonical kernel identity.

    Attributes:
        kind: ``"pc"`` (conjunction) or ``"cs"`` (disjunction of conjunctions).
        text: Alpha-renamed canonical text — the cache key.
        variables: Original variable names in canonical order; position ``i``
            is the variable kernel argument ``v{i}`` binds to.
    """

    kind: str
    text: str
    variables: Tuple[str, ...]


def _renamed_sorted_constraints(
    constraints: Sequence[ast.Constraint], order: Sequence[str]
) -> List[ast.Constraint]:
    """``constraints`` with ``order[i]`` renamed to ``$v{i}``, conjuncts sorted.

    The sorted order matches the canonical text's conjunct order, so the
    emitted source is a pure function of the canonical text.
    """
    bindings: Dict[str, ast.Expression] = {
        name: ast.Variable(canonical_name(index)) for index, name in enumerate(order)
    }
    renamed = [substitute_constraint(constraint, bindings) for constraint in constraints]
    return sorted(renamed, key=lambda constraint: constraint.canonical())


def _lower_path_condition(pc: ast.PathCondition) -> Tuple[_Lowered, List[ast.Constraint]]:
    # Greedy (linear-time) canonicalisation: the exact variant enumerates up
    # to 7! renamings, which costs tens of milliseconds per factor — far more
    # than sampling the factor.  Greedy may miss a share between equivalent
    # factors with shape-tied conjuncts; that duplicates a kernel, nothing else.
    alpha = alpha_canonical_greedy(pc)
    renamed = _renamed_sorted_constraints(pc.constraints, alpha.variables)
    lowered = _Lowered("pc", alpha.text, alpha.variables)
    return lowered, renamed


def _lower_constraint_set(cs: ast.ConstraintSet) -> Tuple[_Lowered, List[List[ast.Constraint]]]:
    """Lower a disjunction with one *shared* renaming across all disjuncts.

    Per-disjunct alpha renaming would break cross-disjunct variable identity,
    so the whole set is renamed by one deterministic order (sorted original
    names).  Renamed sets therefore may miss reuse a per-conjunction alpha
    key would find — a cache miss, never a wrong kernel.
    """
    names = tuple(sorted(cs.free_variables()))
    renamed_pcs = [_renamed_sorted_constraints(pc.constraints, names) for pc in cs.path_conditions]
    texts = [" && ".join(c.canonical() for c in constraints) or "true" for constraints in renamed_pcs]
    ordered = sorted(range(len(texts)), key=lambda index: texts[index])
    text = " || ".join(texts[index] for index in ordered) or "false"
    lowered = _Lowered("cs", text, names)
    return lowered, [renamed_pcs[index] for index in ordered]


# --------------------------------------------------------------------------- #
# Code generation
# --------------------------------------------------------------------------- #
def _arg_name(canonical: str) -> str:
    """Kernel argument name of a canonical variable (``$v3`` -> ``v3``)."""
    return canonical.lstrip("$")


class _Emitter:
    """Emits statements for expression trees with common-subexpression reuse.

    Every non-leaf node becomes one explicit temporary (``t3 = t1 * t2``);
    constants and variables are referenced inline.  Temporaries are shared by
    canonical text, so a subexpression appearing in several conjuncts — or in
    several path conditions of one constraint set — is computed once.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
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
            return _arg_name(expr.name)
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


def _render(lowered: _Lowered, body: Sequence[str]) -> str:
    """Assemble the final kernel source under a short provenance header."""
    args = ", ".join(["n"] + [f"v{index}" for index in range(len(lowered.variables))])
    code_lines = [f"def {_KERNEL_FUNC}({args}):"] + [f"    {line}" for line in body]
    header = ["# qcoral fused kernel (generated; do not edit)", f"# kind: {lowered.kind}"]
    return "\n".join(header + code_lines) + "\n"


def _generate_source(node: Compilable) -> Tuple[_Lowered, str]:
    """Lower ``node`` and emit its fused kernel source."""
    if isinstance(node, ast.PathCondition):
        lowered, constraints = _lower_path_condition(node)
        emitter = _Emitter()
        body: List[str] = []
        emitter.lines = body
        body.append("out = np.ones(n, dtype=np.bool_)")
        for index, constraint in enumerate(constraints):
            reference = emitter.constraint(constraint)
            body.append(f"out &= {reference}")
            if index + 1 < len(constraints):
                # Same short-circuit the closure evaluator applies between
                # conjuncts: once nothing survives, skip the rest.
                body.append("if not out.any():")
                body.append("    return out")
        body.append("return out")
        return lowered, _render(lowered, body)

    if isinstance(node, ast.ConstraintSet):
        lowered, renamed_pcs = _lower_constraint_set(node)
        emitter = _Emitter()
        body = emitter.lines
        body.append("out = np.zeros(n, dtype=np.bool_)")
        for constraints in renamed_pcs:
            if not constraints:
                body.append("out |= np.ones(n, dtype=np.bool_)")
                continue
            references = [emitter.constraint(constraint) for constraint in constraints]
            # No per-disjunct short-circuit here: temporaries are shared
            # across disjuncts (the CSE win on shared path prefixes), so a
            # skipped conjunct could starve a later disjunct of its input.
            body.append(f"out |= {' & '.join(references)}")
        body.append("return out")
        return lowered, _render(lowered, body)

    raise EvaluationError(f"cannot build a kernel for node of type {type(node).__name__}")




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
#: Lowering results: (kind, node) -> _Lowered (alpha-canonicalisation is the
#: expensive part of the key, so it is memoised on the hashable AST itself).
_LOWERED_CACHE: "OrderedDict[Tuple[str, Compilable], _Lowered]" = OrderedDict()
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


def _lru_put(cache: OrderedDict, key, value, count_evictions: bool = False) -> None:
    # Callers hold _CACHE_LOCK, so the eviction counter is updated in place
    # rather than via _bump (which would deadlock on the non-reentrant lock).
    cache[key] = value
    cache.move_to_end(key)
    capacity = _cache_capacity()
    while len(cache) > capacity:
        cache.popitem(last=False)
        if count_evictions:
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
        lowered_size = len(_LOWERED_CACHE)
    return {
        "memory": {
            "hits": int(stats["memory_hits"]),
            "misses": int(stats["lookups"] - stats["memory_hits"]),
            "evictions": int(stats["evictions"]),
            "size": kernel_size,
            "lowered_size": lowered_size,
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
        _LOWERED_CACHE.clear()
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


def _lowered_for(node: Compilable) -> _Lowered:
    kind = "pc" if isinstance(node, ast.PathCondition) else "cs"
    key = (kind, node)
    with _CACHE_LOCK:
        cached = _lru_get(_LOWERED_CACHE, key)
    if cached is not None:
        return cached
    if isinstance(node, ast.PathCondition):
        lowered, _ = _lower_path_condition(node)
    else:
        lowered, _ = _lower_constraint_set(node)
    with _CACHE_LOCK:
        _lru_put(_LOWERED_CACHE, key, lowered)
    return lowered


def _raw_kernel(node: Compilable, lowered: _Lowered) -> Callable:
    """The positional kernel function for ``lowered`` (cached)."""
    key = (lowered.kind, lowered.text)
    _bump("lookups")
    with _CACHE_LOCK:
        cached = _lru_get(_KERNEL_CACHE, key)
    if cached is not None:
        _bump("memory_hits")
        return cached
    started = time.perf_counter()
    _bump("codegens")
    _, source = _generate_source(node)
    kernel = _compile_source(source, lowered.kind)
    _bump("compile_seconds", time.perf_counter() - started)
    with _CACHE_LOCK:
        _lru_put(_KERNEL_CACHE, key, kernel, count_evictions=True)
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
    lowered = _lowered_for(node)
    return _make_predicate(_raw_kernel(node, lowered), lowered.variables)


def kernel_source(constraint: Compilable) -> str:
    """The generated fused-kernel source of ``constraint`` (for inspection)."""
    _, source = _generate_source(_normalise(constraint))
    return source


def kernel_key(constraint: Compilable) -> str:
    """The alpha-renamed canonical cache key of ``constraint``."""
    return _lowered_for(_normalise(constraint)).text
