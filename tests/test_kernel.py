"""Fused-kernel compiler: closure-oracle equivalence and caching.

The closure-tree compiler (``tests/compiler_reference.py``) is the
reference oracle; every test here holds the fused codegen to *bit-identical* outputs —
including the domain-error semantics (division by zero, roots/logs of
negatives) that feed hit counts — and pins the cache-key contract:
constraints with the same canonical text share one kernel, distinct ones
never do.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownFunctionError, UnknownVariableError
from repro.lang import ast, kernel
from repro.lang.kernel import clear_kernel_cache, get_kernel, kernel_cache_stats, kernel_key, kernel_source
from repro.lang.parser import parse_constraint_set, parse_path_condition

from compiler_reference import compile_constraint_set, compile_path_condition


@pytest.fixture(autouse=True)
def isolated_kernel_cache():
    """Every test starts and ends with an empty kernel cache."""
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def closure_kernel(constraint):
    """The closure-oracle predicate, with :func:`get_kernel`'s signature."""
    if isinstance(constraint, ast.ConstraintSet):
        return compile_constraint_set(constraint)
    if isinstance(constraint, ast.Constraint):
        constraint = ast.PathCondition.of([constraint])
    return compile_path_condition(constraint)


@pytest.fixture
def closure_oracle(monkeypatch):
    """Route every evaluator through the closure compiler instead of fused kernels."""
    from repro.core import montecarlo, stratified

    for module in (montecarlo, stratified):
        monkeypatch.setattr(module, "get_kernel", closure_kernel)
    clear_kernel_cache()


def random_batch(names, size=512, seed=0, low=-3.0, high=3.0):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(low, high, size) for name in names}


# --------------------------------------------------------------------------- #
# Closure-oracle equivalence
# --------------------------------------------------------------------------- #
PC_TEXTS = [
    "x <= 0.5",
    "x * y >= 18 && x + y <= 30",
    "(x - 8.0) * (y - 9.0) <= 3.0 && x + 2.0 * y >= 20.0",
    "sin(x * 0.4) + y * y <= 0.5",
    "sqrt(x) + log(y) > 1 && x / (y - 2.0) <= 4",
    "pow(x, 2.0) + pow(y, 2.0) <= 1 && atan2(y, x) >= 0",
    "min(x, y) <= 0 && max(x, y) > 0 && abs(x - y) < 2.5",
    "exp(x) > 1.5 && log10(abs(y) + 0.1) < 0.4",
    "tanh(x) < 0.9 && cosh(y) < 10 && sinh(x) > -10",
    "asin(x / 4.0) < 1 && acos(y / 4.0) > 0.1 && atan(x) < 1.5",
    "-x <= y && -(x * y) < 5",
]


@pytest.mark.parametrize("text", PC_TEXTS)
def test_fused_matches_closure_on_path_conditions(text):
    pc = parse_path_condition(text)
    batch = random_batch(sorted(pc.free_variables()), seed=7)
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert observed.dtype == np.bool_
    assert np.array_equal(observed, expected)


def test_fused_matches_closure_on_constraint_sets():
    cs = parse_constraint_set(
        "x <= 0.5 && y * y <= 0.3 || x > 0.5 && sin(x) + y <= 0.2 || x * y > 8.5"
    )
    batch = random_batch(["x", "y"], seed=11)
    expected = compile_constraint_set(cs)(batch)
    observed = get_kernel(cs)(batch)
    assert np.array_equal(observed, expected)


def test_atomic_constraint_and_empty_forms():
    constraint = parse_path_condition("x <= 0.25").constraints[0]
    batch = random_batch(["x"], seed=3)
    assert np.array_equal(get_kernel(constraint)(batch), batch["x"] <= 0.25)

    empty_pc = ast.PathCondition.of([])
    assert np.array_equal(get_kernel(empty_pc)(batch), np.ones(512, dtype=bool))

    empty_cs = ast.ConstraintSet.of([])
    assert np.array_equal(get_kernel(empty_cs)(batch), np.zeros(512, dtype=bool))


def test_variable_free_conjunct_broadcasts():
    pc = parse_path_condition("1.0 <= 2.0 && x > 0")
    batch = {"x": np.array([-1.0, 1.0])}
    expected = compile_path_condition(pc)(batch)
    assert np.array_equal(get_kernel(pc)(batch), expected)
    assert list(expected) == [False, True]


def test_early_exit_short_circuit_matches_closure():
    # First (sorted) conjunct kills every sample; the kernel must return the
    # all-false array without evaluating the rest, like the closure loop.
    pc = parse_path_condition("x < -100 && sqrt(x) > 0")
    batch = random_batch(["x"], seed=5, low=0.0, high=1.0)
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert not observed.any()
    assert np.array_equal(observed, expected)


def test_missing_variable_raises_like_closure():
    pc = parse_path_condition("x + y <= 1")
    with pytest.raises(UnknownVariableError):
        get_kernel(pc)({"x": np.zeros(4)})


def test_unknown_function_raises_at_compile_time():
    pc = ast.PathCondition.of(
        [ast.Constraint("<=", ast.call("frobnicate", ast.var("x")), ast.const(1))]
    )
    with pytest.raises(UnknownFunctionError):
        get_kernel(pc)


# --------------------------------------------------------------------------- #
# Division-by-zero and domain-error semantics (satellite: pin NaN handling)
# --------------------------------------------------------------------------- #
def test_division_semantics_zero_over_zero_and_x_over_zero():
    pc = parse_path_condition("x / y >= 0")
    batch = {
        "x": np.array([0.0, 1.0, -1.0, 2.0]),
        "y": np.array([0.0, 0.0, 0.0, 1.0]),
    }
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    # 0/0 -> NaN (comparison unsatisfied), 1/0 -> +inf (satisfied),
    # -1/0 -> -inf (unsatisfied), 2/1 -> 2.0 (satisfied).
    assert list(expected) == [False, True, False, True]
    assert np.array_equal(observed, expected)


def test_division_by_zero_denominator_in_subexpression():
    pc = parse_path_condition("1.0 / (x - x) <= 100")
    batch = {"x": np.array([1.0, -2.0])}
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert not observed.any()  # +inf <= 100 is false everywhere
    assert np.array_equal(observed, expected)


@pytest.mark.parametrize(
    "text, values, expected",
    [
        # sqrt of a negative -> NaN -> unsatisfied either way.
        ("sqrt(x) <= 10", [-1.0, 4.0], [False, True]),
        ("sqrt(x) > -10", [-1.0, 4.0], [False, True]),
        # log of zero -> -inf (ordered); log of a negative -> NaN.
        ("log(x) >= -1000", [0.0, -1.0, 1.0], [False, False, True]),
        ("log(x) < 0", [0.0, -1.0, 0.5], [True, False, True]),
        # asin outside [-1, 1] -> NaN.
        ("asin(x) <= 2", [-3.0, 0.5], [False, True]),
        # exp overflow -> +inf, still ordered.
        ("exp(x) > 0", [1000.0, 0.0], [True, True]),
    ],
)
def test_domain_error_semantics_match_closure(text, values, expected):
    pc = parse_path_condition(text)
    batch = {"x": np.array(values)}
    closure_hits = compile_path_condition(pc)(batch)
    fused_hits = get_kernel(pc)(batch)
    assert list(closure_hits) == expected
    assert np.array_equal(fused_hits, closure_hits)


def test_domain_errors_raise_no_warnings():
    pc = parse_path_condition("sqrt(x) <= 1 && log(x) >= -10 && 1.0 / x <= 5")
    batch = {"x": np.array([-1.0, 0.0, 0.5])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        get_kernel(pc)(batch)


def test_hit_counts_identical_closure_vs_fused_on_domain_error_heavy_batch():
    pc = parse_path_condition("sqrt(x) + log(y) > 0.1 && x / y <= 2.0")
    batch = random_batch(["x", "y"], size=4096, seed=13)  # negatives included
    closure_hits = int(np.count_nonzero(compile_path_condition(pc)(batch)))
    fused_hits = int(np.count_nonzero(get_kernel(pc)(batch)))
    assert fused_hits == closure_hits


# --------------------------------------------------------------------------- #
# Non-finite constants (regression: bare `inf`/`nan` are not kernel names)
# --------------------------------------------------------------------------- #
def test_overflowing_literal_parses_to_inf_and_fused_matches_closure():
    # `1e999` overflows float64 at parse time, producing Constant(inf); the
    # fused kernel must emit it in a form that evaluates, not a bare `inf`.
    pc = parse_path_condition("x < 1e999")
    batch = {"x": np.array([-1.0, 0.0, 1e308, np.inf])}
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert list(expected) == [True, True, True, False]
    assert np.array_equal(observed, expected)


def test_simplify_folded_division_inf_constant_compiles():
    from repro.lang.simplify import simplify_path_condition

    # simplify folds 1.0/0.0 to Constant(inf) — the default analyzer path.
    pc = simplify_path_condition(parse_path_condition("1.0 / 0.0 >= x"))
    batch = {"x": np.array([0.0, np.inf, -np.inf])}
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert np.array_equal(observed, expected)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_nonfinite_constants_fused_matches_closure(value):
    pc = ast.PathCondition.of(
        [
            ast.Constraint("<=", ast.var("x"), ast.const(value)),
            ast.Constraint(">", ast.BinaryOp("+", ast.var("x"), ast.const(value)), ast.const(0.0)),
        ]
    )
    batch = {"x": np.array([-2.0, 0.0, 2.0, np.nan])}
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert np.array_equal(observed, expected)
    source = kernel_source(pc)
    assert "float64(inf" not in source and "float64(nan" not in source


# --------------------------------------------------------------------------- #
# Hypothesis: random ASTs, fused == closure element-wise
# --------------------------------------------------------------------------- #
VARIABLES = ("x", "y", "z")

_UNARY_FUNCTIONS = sorted(kernel._UNARY_NUMPY)
_BINARY_FUNCTIONS = sorted(kernel._BINARY_NUMPY)


def _expressions():
    leaves = st.one_of(
        st.sampled_from(VARIABLES).map(ast.var),
        st.floats(-4.0, 4.0, allow_nan=False).map(ast.const),
        # Non-finite constants are reachable (overflowing literals, folded
        # division by zero) and must round-trip through codegen.
        st.sampled_from([float("inf"), float("-inf"), float("nan")]).map(ast.const),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ast.ARITHMETIC_OPERATORS), children, children).map(
                lambda t: ast.BinaryOp(t[0], t[1], t[2])
            ),
            children.map(ast.neg),
            st.tuples(st.sampled_from(_UNARY_FUNCTIONS), children).map(lambda t: ast.call(t[0], t[1])),
            st.tuples(st.sampled_from(_BINARY_FUNCTIONS), children, children).map(
                lambda t: ast.call(t[0], t[1], t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _constraints():
    return st.tuples(
        st.sampled_from(ast.COMPARISON_OPERATORS), _expressions(), _expressions()
    ).map(lambda t: ast.Constraint(t[0], t[1], t[2]))


@settings(max_examples=60, deadline=None)
@given(
    constraints=st.lists(_constraints(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_ast_fused_equals_closure(constraints, seed):
    pc = ast.PathCondition.of(constraints)
    batch = random_batch(VARIABLES, size=64, seed=seed)
    expected = compile_path_condition(pc)(batch)
    observed = get_kernel(pc)(batch)
    assert np.array_equal(observed, expected)


@settings(max_examples=25, deadline=None)
@given(
    path_conditions=st.lists(st.lists(_constraints(), min_size=1, max_size=3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_ast_constraint_set_fused_equals_closure(path_conditions, seed):
    cs = ast.ConstraintSet.of([ast.PathCondition.of(cs) for cs in path_conditions])
    batch = random_batch(VARIABLES, size=64, seed=seed)
    expected = compile_constraint_set(cs)(batch)
    observed = get_kernel(cs)(batch)
    assert np.array_equal(observed, expected)


# --------------------------------------------------------------------------- #
# Cache keys: canonical text and the in-process LRU
# --------------------------------------------------------------------------- #
def test_same_text_constraints_share_a_kernel():
    first = parse_path_condition("x * x + y <= 1 && y > 0")
    reordered = parse_path_condition("y > 0 && x * x + y <= 1")
    renamed = parse_path_condition("u * u + v <= 1 && v > 0")
    assert kernel_key(first) == kernel_key(reordered) != kernel_key(renamed)

    get_kernel(first)
    before = kernel_cache_stats()
    get_kernel(reordered)  # same text: the cached kernel
    middle = kernel_cache_stats()
    assert middle.memory_hits == before.memory_hits + 1
    assert middle.codegens == before.codegens
    get_kernel(renamed)  # other names, other text: a kernel of its own
    assert kernel_cache_stats().codegens == middle.codegens + 1

    batch = random_batch(["u", "v", "x", "y"], seed=2)
    for pc in (first, reordered, renamed):
        assert np.array_equal(get_kernel(pc)(batch), compile_path_condition(pc)(batch))


@pytest.mark.parametrize(
    "text",
    [
        "n * np <= out + t0 && v1 > v0",
        "v1 - v0 <= 0.5 && sin(np) > 0 - n",
        "out * out + t0 <= 4 || v0 > v1 && np <= 1",
    ],
)
def test_variable_names_used_inside_kernels_compile_and_match_closure(text):
    node = parse_constraint_set(text)
    node = node.path_conditions[0] if len(node.path_conditions) == 1 else node
    batch = random_batch(sorted(node.free_variables()), seed=4)
    assert np.array_equal(get_kernel(node)(batch), closure_kernel(node)(batch))


def test_different_constraints_do_not_share_keys():
    assert kernel_key(parse_path_condition("x <= 1")) != kernel_key(parse_path_condition("x < 1"))
    assert kernel_key(parse_path_condition("x <= 1")) != kernel_key(parse_path_condition("x <= 2"))


def test_lru_capacity_is_bounded(monkeypatch):
    monkeypatch.setenv(kernel.CACHE_SIZE_ENV, "4")
    for index in range(10):
        get_kernel(parse_path_condition(f"x <= {float(index)}"))
    assert len(kernel._KERNEL_CACHE) <= 4


def test_kernel_source_is_deterministic_and_headed():
    pc = parse_path_condition("x * y >= 18 && x + y <= 30")
    source = kernel_source(pc)
    assert source == kernel_source(pc)
    assert source.startswith("# qcoral fused kernel (generated; do not edit)\n# kind: pc\n")
    assert source.count("def qcoral_kernel(") == 1


def test_common_subexpressions_are_fused_once():
    # x * y appears in both conjuncts; the kernel must compute it once.
    pc = parse_path_condition("x * y >= 10.0 && x * y <= 60.0")
    source = kernel_source(pc)
    assert source.count("v0 * v1") == 1


# --------------------------------------------------------------------------- #
# Thread safety and engine bit-identity
# --------------------------------------------------------------------------- #
def test_get_kernel_is_thread_safe():
    texts = [f"x * y >= {float(index)} && x + y <= 30" for index in range(6)]
    pcs = [parse_path_condition(text) for text in texts]
    batch = random_batch(["x", "y"], seed=29, low=-5.0, high=35.0)
    expected = [compile_path_condition(pc)(batch) for pc in pcs]
    failures = []

    def worker(worker_index):
        try:
            for repeat in range(25):
                index = (worker_index + repeat) % len(pcs)
                observed = get_kernel(pcs[index])(batch)
                if not np.array_equal(observed, expected[index]):
                    failures.append(index)
        except Exception as error:  # pragma: no cover - only on regression
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


def _engine_run():
    from repro.api import Session

    with Session() as session:
        report = (
            session.quantify(
                "x * x + y * y <= 1 && x / (y + 2.0) <= 0.4",
                {"x": (-1, 1), "y": (-1, 1)},
            )
            .with_budget(20_000)
            .seed(3)
            .run()
        )
    return report.mean, report.std, report.total_samples


def _sharded_run():
    from repro.core.profiles import UsageProfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.exec import plan_chunks, run_sampling_tasks

    pc = parse_path_condition("x * y >= 18 && x + y <= 30")
    profile = UsageProfile.uniform({"x": (0.0, 30.0), "y": (0.0, 40.0)})
    tasks = plan_chunks(pc, profile, ("x", "y"), 60_000, np.random.SeedSequence(123), 0, 0, 10_000)
    with ThreadPoolExecutor(2) as pool:
        counts = run_sampling_tasks(pool, tasks)
    return sum(hits for hits, _ in counts), sum(samples for _, samples in counts)


def test_engine_estimates_bit_identical_across_tiers(request):
    # Tiers here are the two evaluators: fused kernels and the closure oracle.
    fused = _engine_run()
    request.getfixturevalue("closure_oracle")
    assert _engine_run() == fused
    assert kernel_cache_stats().lookups == 0  # the oracle really ran


def test_sharded_worker_path_bit_identical_across_tiers(request):
    fused = _sharded_run()
    request.getfixturevalue("closure_oracle")
    assert _sharded_run() == fused
    assert kernel_cache_stats().lookups == 0  # the oracle really ran
