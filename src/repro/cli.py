"""Command-line interface of the qCORAL reproduction.

Two sub-commands cover the two entry points of the paper's tool chain, both
built on the :mod:`repro.api` Session facade:

``qcoral analyze``
    Run the full pipeline of Figure 1 on a mini-language program: symbolic
    execution followed by probabilistic analysis of a target event.

``qcoral quantify``
    Skip symbolic execution and quantify a constraint set given directly in
    the constraint language, with per-variable domains supplied on the command
    line (the mode in which the paper's microbenchmarks are run).

``qcoral obs``
    Cross-run observability analysis over the artifacts the other commands
    produce: ``summary`` (one run from a ledger, or a span aggregation of a
    JSONL trace), ``diff`` (estimate drift in σ units plus per-phase timing
    deltas between two ledger entries), ``history`` (a constraint family's
    trajectory across the ledger), and ``lint-trace`` (validate a JSONL trace
    file, header record included).

``qcoral ci``
    The incremental commit gate: quantify a candidate constraint set —
    incrementally against a ``--baseline-file`` when one is given, reusing
    stored per-factor estimates for everything the edit left untouched —
    record the run in the ledger, and gate on estimate drift vs the baseline
    family's previous recorded run (``--max-drift-sigmas``) and on a
    declared reliability floor (``--min-probability``).

Exit-code contract shared by the gate commands (``ci``, ``obs diff``):
**0** — ran and passed; **1** — ran and the gate tripped (drift/floor/lint
violation); **2** — usage error (missing files, malformed flags, a ledger
too empty to compare) — the gate never ran, so CI must not read 2 as a
verdict.

The estimation/worker/store options shared by both commands live in one
parent parser, so the two flag sets can never drift apart, and every
``choices`` list comes from the engine's own name tuples
(:data:`~repro.core.methods.ESTIMATION_METHODS`,
:data:`~repro.store.backends.STORE_BACKENDS`).
``--json`` on either command emits the versioned
:class:`~repro.api.report.Report` schema instead of the text summary.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Dict, Optional, Sequence

from repro.analysis.results import convergence_table, reuse_summary
from repro.api import Report, Session
from repro.core.importance import DEFAULT_MASS_SPLIT_BOXES
from repro.core.methods import ESTIMATION_METHODS
from repro.core.profiles import (
    Distribution,
    UniformDistribution,
    UsageProfile,
    parse_distribution_spec,
)
from repro.core.qcoral import QCoralConfig
from repro.core.stratified import ALLOCATION_POLICIES
from repro.errors import ConfigurationError, DomainError, ReproError, UsageError
from repro.incremental import diff_constraint_sets
from repro.lang.parser import parse_constraint_set
from repro.obs import Observability
from repro.obs.export import lint_trace
from repro.obs.ledger import (
    LEDGER_BACKENDS,
    LedgerEntry,
    estimate_drift_sigmas,
    family_digest,
    open_ledger,
    phase_timings,
)
from repro.store.backends import STORE_BACKENDS
from repro.symexec.parser import parse_program


def _parse_domain(specs: Sequence[str]) -> Dict[str, Distribution]:
    """Parse ``name=SPEC`` command-line domain specifications.

    ``SPEC`` is any form :func:`repro.core.profiles.parse_distribution_spec`
    accepts — the historical ``lo:hi`` uniform, discrete forms such as
    ``int:0:20`` / ``binomial:20:0.3`` / ``poisson:4:0:30``, or
    ``normal:mean:std:lo:hi``.
    """
    distributions: Dict[str, Distribution] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigurationError(f"invalid domain specification {spec!r}; expected name=SPEC")
        name, distribution = spec.split("=", 1)
        try:
            distributions[name.strip()] = parse_distribution_spec(distribution)
        except ReproError as error:
            # Name the variable in the message; malformed specs must read as
            # a configuration problem, never as an internal failure.
            raise ConfigurationError(f"invalid domain specification {spec!r}: {error}") from None
    return distributions


def _config_from_args(args: argparse.Namespace) -> QCoralConfig:
    """Compile the command-line flags down to the engine configuration.

    Worker and store flags are *not* part of the config here: the session
    owns those lifecycles (see :func:`_session_from_args`).
    """
    return QCoralConfig(
        samples_per_query=args.samples,
        stratified=not args.no_strat,
        method=args.method,
        mass_split_boxes=args.mass_split_boxes,
        mass_split_adaptive=args.mass_split_adaptive,
        partition_and_cache=not args.no_partcache,
        seed=args.seed,
        target_std=args.target_std,
        max_rounds=args.max_rounds,
        initial_fraction=args.initial_fraction,
        allocation=args.allocation,
    )


def _observability_from_args(args: argparse.Namespace) -> Optional[Observability]:
    """An observability hub when any observability flag asks for one.

    None (the zero-overhead disabled path) unless ``--trace`` or
    ``--metrics`` is given; ``--verbose`` alone only configures logging.
    """
    if args.trace is None and args.metrics is None:
        return None
    return Observability(trace_path=args.trace, trace_sample_every=args.trace_sample_every)


def _session_from_args(args: argparse.Namespace, observability: Optional[Observability] = None) -> Session:
    """A session owning the sampling pool/store/ledger the command line names."""
    return Session(
        workers=args.workers,
        store=args.store,
        store_backend=args.store_backend,
        store_readonly=args.store_readonly,
        observability=observability,
        ledger=args.ledger,
        ledger_backend=args.ledger_backend,
    )


def _emit_observability(args: argparse.Namespace, observability: Optional[Observability]) -> None:
    """Flush the trace and print the requested metrics rendering.

    The trace note goes to stderr so ``--json``/``--metrics`` output on
    stdout stays machine-parseable.
    """
    if observability is None:
        return
    if args.trace is not None:
        written = observability.flush_trace(args.trace)
        print(f"trace: {written} spans appended to {args.trace}", file=sys.stderr)
    if args.metrics == "prometheus":
        print(observability.prometheus(), end="")
    elif args.metrics == "json":
        print(json.dumps(observability.snapshot().to_dict(), indent=2))


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger for ``-v``/``-vv``.

    The library itself only ever installs a NullHandler (in
    :mod:`repro.__init__`); the CLI is an application, so it may configure
    real output.  Idempotent across :func:`main` calls (tests call it
    repeatedly in one process).
    """
    if verbosity <= 0:
        return
    logger = logging.getLogger("repro")
    logger.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)
    if not any(isinstance(handler, logging.StreamHandler) for handler in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def _common_parser() -> argparse.ArgumentParser:
    """The estimation/worker/store options shared by both sub-commands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=int, default=30_000, help="sampling budget per query")
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument("--no-strat", action="store_true", help="disable ICP stratified sampling")
    common.add_argument("--no-partcache", action="store_true", help="disable partitioning and caching")
    common.add_argument(
        "--target-std",
        type=float,
        default=None,
        help="stop sampling once the combined standard deviation falls below this value",
    )
    common.add_argument(
        "--max-rounds",
        type=int,
        default=1,
        help="maximum adaptive sampling rounds (1 = the paper's one-shot behaviour)",
    )
    common.add_argument(
        "--initial-fraction",
        type=float,
        default=0.25,
        help="fraction of the budget spent in the pilot round of an adaptive run",
    )
    common.add_argument(
        "--method",
        choices=list(ESTIMATION_METHODS),
        default="hit-or-miss",
        help=(
            "estimation method: hit-or-miss (paper) or importance "
            "(mass-refined pavings, mass-aware allocation, self-normalised "
            "combination — lower sigma on peaked profiles); registered "
            "methods appear here too"
        ),
    )
    common.add_argument(
        "--mass-split-boxes",
        type=int,
        default=DEFAULT_MASS_SPLIT_BOXES,
        metavar="N",
        help="stratum cap of the importance method's mass-driven paving refinement",
    )
    common.add_argument(
        "--mass-split-adaptive",
        type=int,
        default=0,
        metavar="N",
        help="extra adaptive splits the importance sampler may spend while sampling",
    )
    common.add_argument(
        "--allocation",
        choices=list(ALLOCATION_POLICIES),
        default="even",
        help="per-stratum budget split: even (paper), neyman (variance-driven), or mass",
    )
    common.add_argument(
        "--show-rounds",
        action="store_true",
        help="print the per-round convergence table of an adaptive run",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned Report JSON schema instead of the text summary",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "threads sampling each round's chunks (default: 1, the calling "
            "thread); the same seed gives identical results at every worker count"
        ),
    )
    common.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "persistent estimate store: stored per-factor estimates are "
            "reused (or warm-started) across runs and this run's samples are "
            "merged back"
        ),
    )
    common.add_argument(
        "--store-backend",
        choices=list(STORE_BACKENDS),
        default=None,
        help="store backend (default: inferred from the path; .jsonl => jsonl, else sqlite)",
    )
    common.add_argument(
        "--store-readonly",
        action="store_true",
        help="reuse stored estimates but write nothing back",
    )
    common.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help=(
            "append this run's provenance record (report summary, metrics, "
            "diagnostics, constraint-family key) to a run ledger at PATH for "
            "later `qcoral obs` analysis"
        ),
    )
    common.add_argument(
        "--ledger-backend",
        choices=list(LEDGER_BACKENDS),
        default=None,
        help="ledger backend (default: inferred from the path; .jsonl => jsonl, else sqlite)",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "append the run's tracing spans to PATH as JSONL (zero "
            "perturbation: fixed-seed results are bit-identical with tracing "
            "on or off)"
        ),
    )
    common.add_argument(
        "--trace-sample-every",
        type=int,
        default=1,
        metavar="N",
        help="record every N-th span per span name (deterministic, RNG-free sampling)",
    )
    common.add_argument(
        "--metrics",
        choices=("json", "prometheus"),
        default=None,
        help="print the run's metrics to stdout in the chosen format after the summary",
    )
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="engine logging on stderr (-v = INFO, -vv = DEBUG)",
    )
    return common


def _print_rounds(args: argparse.Namespace, report: Report) -> None:
    if not report.round_reports:
        return
    if args.show_rounds or report.target_std is not None:
        print(convergence_table(report.round_reports).render())
        if report.target_std is not None:
            status = "met" if report.met_target else "NOT met (budget exhausted)"
            print(f"target std:    {report.target_std:.3e} {status}")


def _command_analyze(args: argparse.Namespace) -> int:
    with open(args.program, "r", encoding="utf-8") as handle:
        source = handle.read()
    config = _config_from_args(args)
    profile = None
    overrides = _parse_domain(args.domain)
    if overrides:
        # Start from the program's declared uniform input bounds and replace
        # the overridden variables' distributions (e.g. a discrete profile).
        bounds = parse_program(source).input_bounds()
        unknown = sorted(set(overrides) - set(bounds))
        if unknown:
            raise ReproError(
                f"--domain overrides unknown program inputs {unknown}; "
                f"declared inputs: {sorted(bounds)}"
            )
        for name, distribution in overrides.items():
            low, high = bounds[name]
            support = distribution.support
            if support.lo < low - 1e-9 or support.hi > high + 1e-9:
                # Symbolic execution prunes branches against the *declared*
                # bounds, so a wider override would silently drop the
                # probability mass of paths feasible only outside them.
                raise ReproError(
                    f"--domain override for {name!r} has support "
                    f"[{support.lo}, {support.hi}] outside the declared "
                    f"bounds [{low}, {high}]; widen the program's input "
                    f"declaration instead"
                )
        distributions: Dict[str, Distribution] = {
            name: UniformDistribution(low, high) for name, (low, high) in bounds.items()
        }
        distributions.update(overrides)
        profile = UsageProfile(distributions)
    observability = _observability_from_args(args)
    with _session_from_args(args, observability) as session:
        report = session.analyze(source, args.event, profile=profile, max_depth=args.max_depth, config=config).run()
    if args.json:
        print(report.to_json(indent=2))
        _emit_observability(args, observability)
        return 0
    print(f"event:        {args.event}")
    print(f"paths:        {report.paths}")
    print(f"probability:  {report.mean:.6f}")
    print(f"std:          {report.std:.3e}")
    if report.executor is not None:
        print(f"executor:     {report.executor}")
    if report.store is not None:
        print(f"store:        {report.store}")
        print(f"reuse:        {reuse_summary(report.cache_statistics)}")
    if report.rounds > 1:
        print(f"rounds:       {report.rounds}")
    print(f"time:         {report.analysis_time:.2f}s")
    print(report.confidence_note)
    _print_rounds(args, report)
    _emit_observability(args, observability)
    return 0


def _command_quantify(args: argparse.Namespace) -> int:
    if args.constraints_file:
        with open(args.constraints_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.constraints
    if not text:
        print("error: provide constraints inline or via --constraints-file", file=sys.stderr)
        return 2
    constraint_set = parse_constraint_set(text)
    profile = UsageProfile(_parse_domain(args.domain))
    config = _config_from_args(args)
    observability = _observability_from_args(args)
    with _session_from_args(args, observability) as session:
        report = session.quantify(constraint_set, profile, config=config).run()
    if args.json:
        print(report.to_json(indent=2))
        _emit_observability(args, observability)
        return 0
    print(f"configuration: {report.feature_label}")
    print(f"paths:         {report.paths}")
    print(f"probability:   {report.mean:.6f}")
    print(f"std:           {report.std:.3e}")
    print(f"samples:       {report.total_samples}")
    if report.executor is not None:
        print(f"executor:      {report.executor}")
    if report.store is not None:
        print(f"store:         {report.store}")
    if report.rounds > 1:
        print(f"rounds:        {report.rounds}")
    print(f"time:          {report.analysis_time:.2f}s")
    cache = report.cache_statistics
    if cache is not None and cache.lookups:
        print(f"reuse:         {reuse_summary(cache)}")
    _print_rounds(args, report)
    _emit_observability(args, observability)
    return 0


# --------------------------------------------------------------------- #
# `qcoral obs`: cross-run analysis over ledgers and traces
# --------------------------------------------------------------------- #
def _sniff_obs_file(path: str) -> tuple:
    """Classify an observability artifact on disk.

    Returns ``(kind, backend)`` where ``kind`` is ``"ledger"`` or
    ``"trace"`` and ``backend`` names the ledger backend to open it with
    (None for traces).  Detection is content-based — SQLite magic bytes,
    else the first JSON line's shape — so renamed files still classify.
    """
    if not os.path.exists(path):
        raise UsageError(f"{path}: no such file")
    with open(path, "rb") as handle:
        magic = handle.read(16)
    if magic.startswith(b"SQLite format 3"):
        return "ledger", "sqlite"
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                raise UsageError(f"{path}: not a ledger or trace file (first record is not JSON)") from None
            if isinstance(payload, dict):
                schema = payload.get("schema")
                if isinstance(schema, str) and schema.startswith("qcoral-ledger"):
                    return "ledger", "jsonl"
                if payload.get("record") == "header" or "span_id" in payload:
                    return "trace", None
            raise UsageError(f"{path}: unrecognised observability record (not a ledger entry or trace span)")
    raise UsageError(f"{path}: empty file")


def _load_ledger_entries(path: str, backend: Optional[str]) -> list:
    kind, sniffed = _sniff_obs_file(path)
    if kind != "ledger":
        raise UsageError(f"{path}: this is a trace file, not a run ledger")
    with open_ledger(path, backend if backend is not None else sniffed) as ledger:
        return ledger.entries()


def _pick_family(entries: Sequence[LedgerEntry], family: Optional[str]) -> str:
    """Resolve the family a command works on (default: the latest entry's)."""
    if family is not None:
        matches = [entry.family for entry in entries if entry.family.startswith(family)]
        if not matches:
            known = ", ".join(sorted({entry.family for entry in entries}))
            raise UsageError(f"family {family!r} not found in ledger; known families: {known}")
        resolved = sorted(set(matches))
        if len(resolved) > 1:
            raise UsageError(f"family prefix {family!r} is ambiguous: {', '.join(resolved)}")
        return resolved[0]
    return entries[-1].family


def _format_created(created: float) -> str:
    if created <= 0:
        return "-"
    import datetime

    return datetime.datetime.fromtimestamp(created).strftime("%Y-%m-%d %H:%M:%S")


def _print_entry(entry: LedgerEntry, *, index: Optional[int] = None) -> None:
    label = f"entry {index}" if index is not None else "entry"
    print(f"{label}:        run {entry.run_id} (family {entry.family})")
    print(f"created:        {_format_created(entry.created)}")
    print(f"method:         {entry.method}")
    print(f"features:       {entry.features}")
    print(f"seed:           {entry.seed}")
    print(f"mean:           {entry.mean:.6f}")
    print(f"std:            {entry.std:.3e}")
    print(f"samples:        {entry.samples}")
    print(f"rounds:         {entry.rounds}")
    print(f"time:           {entry.analysis_time:.2f}s")
    print(f"versions:       repro {entry.repro_version}, estimator {entry.estimator_version}")
    diagnostics = entry.diagnostics()
    if diagnostics:
        print("diagnostics:")
        for diagnostic in diagnostics:
            print(f"  [{diagnostic.severity}] {diagnostic.code}: {diagnostic.message}")
    else:
        print("diagnostics:    none recorded")


def _command_obs_summary(args: argparse.Namespace) -> int:
    kind, backend = _sniff_obs_file(args.path)
    if kind == "trace":
        problems = lint_trace(args.path)
        header: Optional[dict] = None
        spans: Dict[str, list] = {}
        with open(args.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("record") == "header":
                    header = header or record
                elif "span_id" in record:
                    spans.setdefault(str(record.get("name", "?")), []).append(float(record.get("duration", 0.0)))
        print(f"trace:          {args.path}")
        if header is not None:
            print(f"schema:         {header.get('schema')}")
            print(f"repro version:  {header.get('repro_version')}")
            print(f"seed:           {header.get('seed')}")
            print(f"method:         {header.get('method')}")
            print(f"config:         {header.get('config_fingerprint')}")
        total = sum(len(durations) for durations in spans.values())
        print(f"spans:          {total} across {len(spans)} names")
        for name in sorted(spans):
            durations = spans[name]
            print(f"  {name:<28} count={len(durations):<6} total={sum(durations):.4f}s")
        if problems:
            print(f"lint:           {len(problems)} problem(s); run `qcoral obs lint-trace {args.path}`")
        return 0
    entries = _load_ledger_entries(args.path, backend)
    if not entries:
        print(f"ledger:         {args.path} (empty)")
        return 0
    families: Dict[str, int] = {}
    for entry in entries:
        families[entry.family] = families.get(entry.family, 0) + 1
    print(f"ledger:         {args.path}")
    print(f"entries:        {len(entries)} across {len(families)} families")
    for family, count in families.items():
        print(f"  {family}  runs={count}")
    print()
    _print_entry(entries[-1], index=len(entries) - 1)
    return 0


def _command_obs_history(args: argparse.Namespace) -> int:
    entries = _load_ledger_entries(args.path, args.backend)
    if not entries:
        raise UsageError(f"{args.path}: the ledger is empty")
    family = _pick_family(entries, args.family)
    selected = [entry for entry in entries if entry.family == family]
    if args.limit is not None and args.limit > 0:
        selected = selected[-args.limit :]
    print(f"family {family}: {len(selected)} run(s)")
    header = (
        f"{'#':>3}  {'created':<19}  {'seed':>6}  {'mean':>12}  {'std':>10}  "
        f"{'samples':>9}  {'rounds':>6}  {'time':>8}  diags"
    )
    print(header)
    print("-" * len(header))
    for index, entry in enumerate(selected):
        diagnostics = entry.diagnostics()
        worst = "-"
        if diagnostics:
            severities = [diagnostic.severity for diagnostic in diagnostics]
            worst = "error" if "error" in severities else ("warning" if "warning" in severities else "info")
        seed = "-" if entry.seed is None else str(entry.seed)
        print(
            f"{index:>3}  {_format_created(entry.created):<19}  {seed:>6}  "
            f"{entry.mean:>12.6f}  {entry.std:>10.3e}  {entry.samples:>9}  "
            f"{entry.rounds:>6}  {entry.analysis_time:>7.2f}s  {worst}"
        )
    return 0


def _gate_exit(violations: Sequence[str], ok_message: str, *, quiet: bool = False) -> int:
    """The shared verdict tail of the gate commands (``ci``, ``obs diff``).

    Prints one ``GATE:`` line per violation and returns 1, or the single
    ``OK:`` line and returns 0.  ``quiet`` suppresses the text (used by
    ``--json``, where the same verdict rides in the payload instead) while
    keeping the exit code identical, so scripts can rely on either channel.
    """
    if violations:
        if not quiet:
            for violation in violations:
                print(f"GATE: {violation}")
        return 1
    if not quiet:
        print(f"OK: {ok_message}")
    return 0


def _command_obs_diff(args: argparse.Namespace) -> int:
    entries = _load_ledger_entries(args.path, args.backend)
    if not entries:
        raise UsageError(f"{args.path}: the ledger is empty")
    family = _pick_family(entries, args.family)
    selected = [entry for entry in entries if entry.family == family]
    if len(selected) < 2:
        raise UsageError(
            f"need at least two runs of family {family} to diff; the ledger has {len(selected)}"
        )
    a, b = selected[-2], selected[-1]
    drift = estimate_drift_sigmas(a, b)
    print(f"family:     {family}")
    print(f"baseline:   run {a.run_id}  ({_format_created(a.created)}, repro {a.repro_version})")
    print(f"candidate:  run {b.run_id}  ({_format_created(b.created)}, repro {b.repro_version})")
    print(f"{'':12}{'baseline':>14}  {'candidate':>14}")
    print(f"{'mean':<12}{a.mean:>14.6f}  {b.mean:>14.6f}")
    print(f"{'std':<12}{a.std:>14.3e}  {b.std:>14.3e}")
    print(f"{'samples':<12}{a.samples:>14}  {b.samples:>14}")
    print(f"{'rounds':<12}{a.rounds:>14}  {b.rounds:>14}")
    print(f"{'time':<12}{a.analysis_time:>13.2f}s  {b.analysis_time:>13.2f}s")
    timings_a, timings_b = phase_timings(a), phase_timings(b)
    shared = [phase for phase in timings_a if phase in timings_b and (timings_a[phase] or timings_b[phase])]
    if shared:
        print("phase timings (seconds):")
        for phase in shared:
            before, after = timings_a[phase], timings_b[phase]
            if before > 0:
                change = f"{(after - before) / before * 100.0:+6.1f}%"
            else:
                change = "   new" if after > 0 else "     -"
            print(f"  {phase:<18}{before:>10.4f}  {after:>10.4f}  {change}")
    print(f"drift:      {drift:.2f} sigma (threshold {args.threshold:g})")
    violations = []
    if drift >= args.threshold:
        violations.append(f"estimates differ by {drift:.2f} sigma (>= {args.threshold:g})")
    return _gate_exit(violations, "estimates agree within the threshold")


def _command_obs_lint_trace(args: argparse.Namespace) -> int:
    kind, _ = _sniff_obs_file(args.path)
    if kind != "trace":
        raise UsageError(f"{args.path}: this is a run ledger, not a trace file")
    problems = lint_trace(args.path)
    if problems:
        for problem in problems:
            print(problem)
        print(f"FAIL: {len(problems)} problem(s) in {args.path}")
        return 1
    with open(args.path, "r", encoding="utf-8") as handle:
        spans = sum(1 for line in handle if line.strip() and '"span_id"' in line)
    print(f"OK: {args.path} is a well-formed trace ({spans} spans, header present)")
    return 0


# --------------------------------------------------------------------- #
# `qcoral ci`: the incremental commit gate
# --------------------------------------------------------------------- #
def _read_constraint_text(inline: Optional[str], path: Optional[str], what: str) -> str:
    """Fetch one constraint set from the flag pair (inline text, file path)."""
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            raise UsageError(f"cannot read {what} file {path}: {error}") from error
    if not inline:
        raise UsageError(f"provide the {what} constraints inline or via a file flag")
    return inline


def _reuse_evidence(report: Report) -> Optional[Dict[str, object]]:
    """The REUSE_SUMMARY diagnostic's evidence, when the run carried one."""
    for diagnostic in report.diagnostics:
        if diagnostic.code == "REUSE_SUMMARY":
            return dict(diagnostic.evidence)
    return None


def _command_ci(args: argparse.Namespace) -> int:
    if args.ledger is None:
        raise UsageError("qcoral ci needs --ledger: the gate compares against the previous recorded run")
    if args.max_drift_sigmas <= 0:
        raise UsageError(f"--max-drift-sigmas must be positive, got {args.max_drift_sigmas:g}")
    if args.min_probability is not None and not 0.0 <= args.min_probability <= 1.0:
        raise UsageError(f"--min-probability must lie in [0, 1], got {args.min_probability:g}")
    candidate_text = _read_constraint_text(args.constraints, args.constraints_file, "candidate")
    baseline_text: Optional[str] = None
    if args.baseline or args.baseline_file:
        baseline_text = _read_constraint_text(args.baseline, args.baseline_file, "baseline")
    config = _config_from_args(args)
    try:
        candidate_set = parse_constraint_set(candidate_text)
        baseline_set = parse_constraint_set(baseline_text) if baseline_text is not None else None
        profile = UsageProfile(_parse_domain(args.domain))
    except UsageError:
        raise
    except ReproError as error:
        raise UsageError(str(error)) from error

    # The edit changes the *candidate's* family digest, so the drift
    # comparison must look up the BASELINE version's family — computed from
    # the same diff the incremental run itself uses.
    diff = None
    if baseline_set is not None:
        if not config.partition_and_cache:
            raise UsageError("incremental quantification needs the PARTCACHE feature; drop --no-partcache")
        try:
            diff = diff_constraint_sets(baseline_set, candidate_set, profile, config=config)
        except (ConfigurationError, DomainError) as error:
            raise UsageError(str(error)) from error

    observability = _observability_from_args(args)
    with _session_from_args(args, observability) as session:
        query = session.quantify(candidate_set, profile, config=config)
        if baseline_set is not None:
            query = query.against_baseline(baseline_set)
        try:
            report = query.run()
        except (ConfigurationError, DomainError) as error:
            raise UsageError(str(error)) from error
        entries = session.ledger.entries()
    _emit_observability(args, observability)

    current = entries[-1]
    baseline_family = family_digest(diff.method, diff.baseline_factor_keys) if diff is not None else current.family
    history = [entry for entry in entries[:-1] if entry.family == baseline_family]
    previous = history[-1] if history else None
    drift = estimate_drift_sigmas(previous, current) if previous is not None else None

    violations = []
    if drift is not None and drift >= args.max_drift_sigmas:
        violations.append(
            f"estimate drifted {drift:.2f} sigma from run {previous.run_id} "
            f"(>= {args.max_drift_sigmas:g})"
        )
    if args.min_probability is not None and report.mean < args.min_probability:
        violations.append(
            f"probability {report.mean:.6f} is below the floor {args.min_probability:g}"
        )

    reuse = _reuse_evidence(report)
    if args.json:
        payload = {
            "report": report.to_dict(),
            "gate": {
                "family": current.family,
                "baseline_family": baseline_family,
                "previous_run": previous.run_id if previous is not None else None,
                "drift_sigmas": drift,
                "max_drift_sigmas": args.max_drift_sigmas,
                "min_probability": args.min_probability,
                "violations": violations,
                "passed": not violations,
            },
        }
        print(json.dumps(payload, indent=2))
        return _gate_exit(violations, "", quiet=True)
    print(f"family:       {current.family}")
    if previous is not None:
        print(f"baseline:     run {previous.run_id}  ({_format_created(previous.created)})")
    else:
        print(f"baseline:     none (first recorded run of family {baseline_family})")
    print(f"probability:  {report.mean:.6f}")
    print(f"std:          {report.std:.3e}")
    print(f"samples:      {report.total_samples}")
    if reuse is not None:
        print(
            f"reuse:        {reuse['factors_reused']}/{reuse['factors_total']} factors reused, "
            f"{reuse['samples_saved']} samples saved"
        )
    if drift is not None:
        print(f"drift:        {drift:.2f} sigma (threshold {args.max_drift_sigmas:g})")
    else:
        print("drift:        n/a (no prior run of this family to compare)")
    return _gate_exit(violations, "run recorded; the gate passed")


# --------------------------------------------------------------------- #
# `qcoral serve`: the engine as a long-lived HTTP/SSE service
# --------------------------------------------------------------------- #
def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import AdmissionLimits, QuantifyServer

    try:
        limits = AdmissionLimits(
            max_concurrent=args.max_concurrent,
            max_budget=args.max_budget,
            max_seconds=args.max_seconds,
            drain_timeout=args.drain_timeout,
        )
    except ConfigurationError as error:
        raise UsageError(str(error)) from error
    try:
        server = QuantifyServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store=args.store,
            store_backend=args.store_backend,
            ledger=args.ledger,
            ledger_backend=args.ledger_backend,
            defaults=QCoralConfig(samples_per_query=args.samples),
            limits=limits,
        )
    except ConfigurationError as error:
        raise UsageError(str(error)) from error

    def announce(host: str, port: int) -> None:
        print(f"qcoral serve listening on http://{host}:{port}", file=sys.stderr)
        print(
            f"admission: max_concurrent={limits.max_concurrent} "
            f"max_budget={limits.max_budget} max_seconds={limits.max_seconds}",
            file=sys.stderr,
        )

    try:
        server.run(announce=announce)
    except KeyboardInterrupt:  # pragma: no cover - platforms without signal handlers
        pass
    except OSError as error:
        raise UsageError(f"cannot bind {args.host}:{args.port}: {error}") from error
    print("qcoral serve drained cleanly", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="qcoral",
        description="Compositional solution space quantification (PLDI 2014 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()

    analyze = subparsers.add_parser("analyze", help="analyze a mini-language program", parents=[common])
    analyze.add_argument("program", help="path to the program source file")
    analyze.add_argument("event", help="target event name (or assert.violation)")
    analyze.add_argument("--max-depth", type=int, default=50, help="symbolic execution bound")
    analyze.add_argument(
        "--domain",
        action="append",
        default=[],
        metavar="VAR=SPEC",
        help=(
            "override one input's distribution (repeatable); SPEC is lo:hi, "
            "int:lo:hi, binomial:n:p, poisson:rate:lo:hi, geometric:p:lo:hi, "
            "categorical:lo:w1,w2,..., or normal:mean:std:lo:hi"
        ),
    )
    analyze.set_defaults(handler=_command_analyze)

    quantify = subparsers.add_parser("quantify", help="quantify a constraint set directly", parents=[common])
    quantify.add_argument("constraints", nargs="?", default="", help="constraint set text")
    quantify.add_argument("--constraints-file", help="file containing the constraint set")
    quantify.add_argument(
        "--domain",
        action="append",
        default=[],
        metavar="VAR=SPEC",
        help=(
            "domain of one input variable (repeatable); SPEC is lo:hi, "
            "int:lo:hi, binomial:n:p, poisson:rate:lo:hi, geometric:p:lo:hi, "
            "categorical:lo:w1,w2,..., or normal:mean:std:lo:hi"
        ),
    )
    quantify.set_defaults(handler=_command_quantify)

    ci = subparsers.add_parser(
        "ci",
        help="incremental commit gate: quantify against a baseline, gate on drift and a floor",
        parents=[common],
    )
    ci.add_argument("constraints", nargs="?", default="", help="candidate constraint set text")
    ci.add_argument("--constraints-file", help="file containing the candidate constraint set")
    ci.add_argument("--baseline", default="", help="baseline constraint set text (previous version)")
    ci.add_argument("--baseline-file", help="file containing the baseline constraint set")
    ci.add_argument(
        "--domain",
        action="append",
        default=[],
        metavar="VAR=SPEC",
        help=(
            "domain of one input variable (repeatable); SPEC is lo:hi, "
            "int:lo:hi, binomial:n:p, poisson:rate:lo:hi, geometric:p:lo:hi, "
            "categorical:lo:w1,w2,..., or normal:mean:std:lo:hi"
        ),
    )
    ci.add_argument(
        "--max-drift-sigmas",
        type=float,
        default=3.0,
        metavar="SIGMA",
        help="gate: fail when the estimate drifts this many sigma from the previous run (default 3.0)",
    )
    ci.add_argument(
        "--min-probability",
        type=float,
        default=None,
        metavar="P",
        help="gate: fail when the estimated probability falls below this floor (default: no floor)",
    )
    ci.set_defaults(handler=_command_ci)

    serve = subparsers.add_parser(
        "serve",
        help="serve the engine over HTTP/SSE: one shared session, store, ledger, and metrics hub",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral; default 8080)")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads of the sampling pool shared by every served run (default: 1, in-thread sampling)",
    )
    serve.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "persistent estimate store shared by every client; repeated "
            "identical requests are answered with zero samples drawn "
            "(default: a process-lifetime in-memory store)"
        ),
    )
    serve.add_argument(
        "--store-backend",
        choices=list(STORE_BACKENDS),
        default=None,
        help="store backend (default: inferred from the path; memory without one)",
    )
    serve.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="append every served run's provenance record to a run ledger at PATH",
    )
    serve.add_argument(
        "--ledger-backend",
        choices=list(LEDGER_BACKENDS),
        default=None,
        help="ledger backend (default: inferred from the path)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="admission: concurrent engine runs beyond N answer 429 (default 4)",
    )
    serve.add_argument(
        "--max-budget",
        type=int,
        default=None,
        metavar="N",
        help="admission: requests asking for more than N samples answer 413 (default: unlimited)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="admission: per-run wall-clock ceiling, enforced via early stop (default: unlimited)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="graceful-drain bound: how long SIGTERM waits for early-stopped runs to finalise",
    )
    serve.add_argument(
        "--samples",
        type=int,
        default=30_000,
        metavar="N",
        help="default sampling budget when a request names none (default 30000)",
    )
    serve.set_defaults(handler=_command_serve, verbose=0)

    obs = subparsers.add_parser("obs", help="analyse run ledgers and trace files across runs")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    summary = obs_sub.add_parser("summary", help="summarise a run ledger or a JSONL trace")
    summary.add_argument("path", help="ledger or trace file (content-sniffed)")
    summary.set_defaults(handler=_command_obs_summary)

    diff = obs_sub.add_parser("diff", help="compare the last two runs of a family (drift in sigma)")
    diff.add_argument("path", help="run ledger file")
    diff.add_argument("--family", default=None, help="family digest or unique prefix (default: latest entry's)")
    diff.add_argument("--backend", choices=list(LEDGER_BACKENDS), default=None, help="ledger backend override")
    diff.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        metavar="SIGMA",
        help="exit non-zero when the estimate drift reaches this many sigma (default 3.0)",
    )
    diff.set_defaults(handler=_command_obs_diff)

    history = obs_sub.add_parser("history", help="render a family's run trajectory from a ledger")
    history.add_argument("path", help="run ledger file")
    history.add_argument("--family", default=None, help="family digest or unique prefix (default: latest entry's)")
    history.add_argument("--backend", choices=list(LEDGER_BACKENDS), default=None, help="ledger backend override")
    history.add_argument("--limit", type=int, default=None, metavar="N", help="show only the last N runs")
    history.set_defaults(handler=_command_obs_history)

    lint = obs_sub.add_parser("lint-trace", help="validate a JSONL trace file (header record required)")
    lint.add_argument("path", help="trace file")
    lint.set_defaults(handler=_command_obs_lint_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # `obs` subcommands do not take the estimation/observability flag set.
    _configure_logging(getattr(args, "verbose", 0))
    try:
        return args.handler(args)
    except UsageError as error:
        # Usage failures are exit 2 so CI distinguishes "the gate tripped"
        # (exit 1) from "the gate never ran" — see the module docstring.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
