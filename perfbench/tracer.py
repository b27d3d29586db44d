"""Outside-in, nesting-aware layer tracer for the benchmark.

The tracer never edits the program: it replaces each layer's public entry
points with timing wrappers from the outside, and restores the originals on
:meth:`Tracer.uninstall`.  A wrapped call is a span.  Its *self time* is its
duration minus the time covered by wrapped calls made beneath it on the same
thread, so nested layers are never counted twice and the self times of one
thread's spans sum to the duration of its outermost span.

Several entry points are imported by name into other modules (for example
``repro.core.qcoral.get_kernel`` and ``repro.core.stratified.get_kernel``).
Patching only the defining module would miss those calls, so a function is
replaced at *every* binding site: each loaded ``repro`` module attribute that
is the original object.  Methods are replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names the benchmark reports, in report order.
LAYERS = (
    "symexec",
    "lang.simplify",
    "partition",
    "keys",
    "icp.pave",
    "kernel",
    "sampling",
    "qcoral",
    "store.get",
    "store.merge",
    "obs.ledger",
    "obs.diagnose",
    "report",
    "serve.query",
)

#: Root span of each in-process query; its self time is the unattributed time.
ROOT = "pass"


class Tracer:
    """Per-layer self time and counters, split by pass phase."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: The pass phase (``cold``/``warm``) spans are attributed to.
        self.phase = "cold"
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Summed duration of spans that had no parent on their thread.
        self.root_s: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, started: float) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        covered = stack.pop()
        if stack:
            stack[-1] += elapsed
        key = (self.phase, layer)
        with self._lock:
            self.self_s[key] += elapsed - covered
            self.calls[key] += 1
            if not stack:
                self.root_s[self.phase] += elapsed
        return elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += amount

    def span(self, layer: str) -> "_Span":
        """Context manager recording one span of ``layer``."""
        return _Span(self, layer)

    def wrap(self, layer: str, function: Callable, after: Optional[Callable] = None) -> Callable:
        """A timing wrapper of ``function``; ``after(args, kwargs, result, elapsed)`` runs on return."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = tracer._enter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = tracer._exit(layer, started)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def wrap_generator(self, layer: str, function: Callable, after_item: Optional[Callable] = None) -> Callable:
        """Wrap a generator function: every resumption of the generator is one span."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            sent = None
            while True:
                started = tracer._enter()
                try:
                    item = generator.send(sent)
                except StopIteration as finished:
                    return finished.value
                finally:
                    tracer._exit(layer, started)
                if after_item is not None:
                    after_item(item)
                try:
                    sent = yield item
                except GeneratorExit:
                    started = tracer._enter()
                    try:
                        generator.close()
                    finally:
                        tracer._exit(layer, started)
                    raise

        return wrapper

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def layer_self(self, layer: str, phase: Optional[str] = None) -> float:
        return sum(v for (p, name), v in self.self_s.items() if name == layer and phase in (None, p))

    def layer_calls(self, layer: str, phase: Optional[str] = None) -> int:
        return sum(v for (p, name), v in self.calls.items() if name == layer and phase in (None, p))

    def counter(self, name: str, phase: Optional[str] = None) -> float:
        return sum(v for (p, key), v in self.counts.items() if key == name and phase in (None, p))

    def roots(self, phase: Optional[str] = None) -> float:
        return sum(v for p, v in self.root_s.items() if phase in (None, p))

    # ------------------------------------------------------------------ #
    # Installation at every binding site
    # ------------------------------------------------------------------ #
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, original: Callable, replacement: Callable) -> int:
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)
                    sites += 1
        return sites

    def _patch_method(self, cls: type, name: str, layer: str, after: Optional[Callable] = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(self.wrap(layer, raw.__func__, after)))
        elif isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.wrap(layer, raw.__func__, after)))
        else:
            self._set(cls, name, self.wrap(layer, raw, after))

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        _import_all()
        from repro.api.report import Report
        from repro.core.cache import EstimateCache
        from repro.core.dependency import compute_dependency_partition
        from repro.core.montecarlo import hit_or_miss
        from repro.core.qcoral import QCoralAnalyzer
        from repro.core.stratified import StratifiedSampler
        from repro.icp.solver import ICPSolver
        from repro.lang.analysis import group_constraints_by_block
        from repro.lang.kernel import get_kernel
        from repro.lang.simplify import simplify_path_condition
        from repro.obs import ledger as ledger_module
        from repro.obs.diagnostics import diagnose_run
        from repro.serve.app import QuantifyServer
        from repro.store.backends import EstimateStore
        from repro.store.keys import StoreContext
        from repro.symexec.parser import parse_program
        from repro.symexec.symbolic import execute_program

        local = self._local

        def after_symexec(args, kwargs, result, elapsed):
            self.count("symexec.paths", result.path_count)

        def after_pave(args, kwargs, paving, elapsed):
            local.paves = getattr(local, "paves", 0) + 1
            self.count("icp.boxes_explored", paving.boxes_explored)
            self.count("icp.contraction_passes", paving.contraction_passes)
            if elapsed >= args[0].config.time_budget:
                self.count("icp.time_capped")

        def after_sampling(args, kwargs, result, elapsed):
            self.count("sampling.draws", kwargs["samples"] if "samples" in kwargs else args[2])

        def after_store_get(args, kwargs, entry, elapsed):
            self.count("store.hits", entry is not None)

        def after_round(item):
            self.count("qcoral.rounds")

        functions = (
            (execute_program, "symexec", after_symexec),
            (parse_program, "symexec", None),
            (simplify_path_condition, "lang.simplify", None),
            (compute_dependency_partition, "partition", None),
            (group_constraints_by_block, "partition", None),
            (get_kernel, "kernel", None),
            (hit_or_miss, "sampling", after_sampling),
            (diagnose_run, "obs.diagnose", None),
            (ledger_module.ledger_entry_for, "obs.ledger", None),
        )
        for original, layer, after in functions:
            if self._patch_function(original, self.wrap(layer, original, after)) == 0:
                raise RuntimeError(f"no binding site found for {original.__module__}.{original.__name__}")

        self._patch_method(EstimateCache, "key_for", "keys")
        self._patch_method(StoreContext, "key_for", "keys")
        self._patch_method(ICPSolver, "pave", "icp.pave", after_pave)
        self._patch_method(EstimateStore, "get", "store.get", after_store_get)
        self._patch_method(EstimateStore, "merge", "store.merge")
        self._patch_method(Report, "from_qcoral", "report")
        self._patch_method(Report, "to_dict", "report")
        self._patch_method(QuantifyServer, "_drive", "serve.query")
        for ledger_class in (ledger_module.MemoryLedger, ledger_module.JsonlLedger, ledger_module.SqliteLedger):
            self._patch_method(ledger_class, "append", "obs.ledger")
        self._set(
            QCoralAnalyzer,
            "analyze_stream",
            self.wrap_generator("qcoral", QCoralAnalyzer.__dict__["analyze_stream"], after_round),
        )

        # Counting hook (no span): which paved factors ICP resolved exactly.
        sampler_init = StratifiedSampler.__dict__["__init__"]

        @functools.wraps(sampler_init)
        def counting_init(sampler, *args, **kwargs):
            before = getattr(local, "paves", 0)
            sampler_init(sampler, *args, **kwargs)
            if getattr(local, "paves", 0) > before:
                self.count("icp.factors")
                self.count("icp.exact", sampler.is_exact)

        self._set(StratifiedSampler, "__init__", counting_init)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _Span:
    __slots__ = ("_tracer", "_layer", "_started")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self._tracer = tracer
        self._layer = layer

    def __enter__(self) -> "_Span":
        self._started = self._tracer._enter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._exit(self._layer, self._started)


def _import_all() -> None:
    """Load every ``repro`` module, so no binding site appears after install."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
