"""Seeded inputs of the four benchmark workloads, with their references.

Everything a run feeds the program is generated here from the workload seed:
the query seeds of the in-process workloads and the served-mix request
stream.  The same seed always yields the same inputs.  Each query carries
the reference its answer is checked against (see ``references.json`` and
:func:`evolution_truth`).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("paving-heavy", "many-paths", "sampling-bound", "served-mix")

#: Query settings shared by every workload unless stated otherwise.
SAMPLES_PER_QUERY = 20_000
SAMPLING_BOUND_SAMPLES = 1_000_000
SERVED_BUDGET = 100_000
MAX_ROUNDS = 4
ALLOCATION = "neyman"

PAVING_HEAVY = (("VOL", "count >= 20"), ("CART", "count >= 3"), ("CART", "count >= 1"), ("INVPEND", "pAng <= 1"))
MANY_PATHS = (("ATRIAL", "points >= 10"), ("ATRIAL", "points - pointsErr >= 5"), ("ATRIAL", "pointsErr - points <= 5"))

#: Served-mix shape: closed loop, this many clients, this many requests per pass.
SERVED_CLIENTS = 2
SERVED_REQUESTS = 200
#: The clients send a pass in batches of this many requests; the host is
#: calibrated between batches (see ``run.HostClock``).
SERVED_BATCH = 30
SERVED_REPEAT_SHARE = 0.6
#: How many of the five factor thresholds a new family moves (1..5), weighted
#: towards small edits so most factors of a new family are store hits.
SERVED_EDIT_WEIGHTS = (0.4, 0.3, 0.15, 0.1, 0.05)

#: The evolution fixture's five factors: a template over one threshold, the
#: v1 threshold, the alternatives a new family may move it to (all inside the
#: range where the closed form holds), and the closed form itself.
EVOLUTION_FACTORS: Tuple[Tuple[str, float, Tuple[float, ...], Any], ...] = (
    ("a*a + b*b <= {}", 1.0, (0.6, 0.7, 0.8, 0.9), lambda r: math.pi * r / 4.0),  # r <= 1
    ("sin(c) <= {}", 0.5, (0.3, 0.4, 0.6, 0.7), lambda t: math.asin(t) / 2.0),  # t < sin(2)
    ("d*d*d <= {}", 0.5, (0.2, 0.3, 0.4, 0.6), lambda t: (t ** (1.0 / 3.0) + 1.0) / 2.0),  # 0 < t <= 1
    ("e + f <= {}", 0.75, (0.55, 0.6, 0.65, 0.7), lambda s: s * s / 2.0),  # s <= 1
    ("cos(g) <= {}", 0.2, (0.0, 0.1, 0.3, 0.4), lambda u: (3.0 - math.acos(u)) / 3.0),  # u >= cos(3)
)


@dataclass(frozen=True)
class Reference:
    """What an answer is checked against: a mean and its own sigma (0 if exact)."""

    mean: float
    std: float = 0.0


@dataclass(frozen=True)
class ProgramQuery:
    """A VolComp program run via ``Session.analyze(program, "target")``."""

    name: str
    source: str
    max_depth: int
    seed: int
    reference: Reference


@dataclass(frozen=True)
class SetQuery:
    """A constraint set run via ``Session.quantify``."""

    name: str
    constraint_set: Any
    profile: Any
    seed: int
    reference: Reference


@dataclass(frozen=True)
class Request:
    """One served-mix request (an exact repeat reuses its original's text and seed)."""

    constraints: str
    seed: int
    reference: Reference

    def payload(self) -> Dict[str, Any]:
        return {"budget": SERVED_BUDGET, "max_rounds": MAX_ROUNDS, "allocation": ALLOCATION, "seed": self.seed}


def load_references() -> Mapping[str, Any]:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _seeds(rng: random.Random, count: int) -> List[int]:
    return [rng.randrange(2**31) for _ in range(count)]


def program_queries(cases, seed: int, references: Mapping[str, Any]) -> List[ProgramQuery]:
    from repro.subjects.volcomp_suite import subject_by_name

    rng = random.Random(f"{seed}:programs")
    queries = []
    for (name, label), query_seed in zip(cases, _seeds(rng, len(cases))):
        subject = subject_by_name(name)
        reference = references["volcomp"][f"{name}|{label}"]
        queries.append(
            ProgramQuery(
                name=f"{name}: {label}",
                source=subject.program_source(subject.assertion(label)),
                max_depth=subject.max_depth,
                seed=query_seed,
                reference=Reference(reference["mean"], reference["std"]),
            )
        )
    return queries


def sampling_queries(seed: int, references: Mapping[str, Any]) -> List[SetQuery]:
    from repro.lang.parser import parse_constraint_set
    from repro.subjects.discrete import all_discrete_subjects
    from repro.subjects.evolution import EVOLUTION_V1, evolution_profile
    from repro.subjects.solids import all_solids

    subjects: List[Tuple[str, Any, Any, Reference]] = []
    for solid in all_solids():
        truth = references["solids"][solid.name]["mean"]
        subjects.append((solid.name, solid.constraint_set(), solid.profile(), Reference(truth)))
    for subject in all_discrete_subjects():
        if subject.group == "discrete":
            truth = references["discrete"][subject.name]["mean"]
            subjects.append((subject.name, subject.constraint_set(), subject.profile, Reference(truth)))
    truth = references["evolution_v1"]["mean"]
    subjects.append(("evolution v1", parse_constraint_set(EVOLUTION_V1), evolution_profile(), Reference(truth)))
    rng = random.Random(f"{seed}:sampling")
    return [
        SetQuery(name, constraint_set, profile, query_seed, reference)
        for (name, constraint_set, profile, reference), query_seed in zip(subjects, _seeds(rng, len(subjects)))
    ]


def evolution_truth(thresholds: Tuple[float, ...]) -> float:
    """Closed-form probability of an evolution family (independent factors)."""
    return math.prod(truth(value) for (_, _, _, truth), value in zip(EVOLUTION_FACTORS, thresholds))


def evolution_constraints(thresholds: Tuple[float, ...]) -> str:
    return " && ".join(template.format(value) for (template, _, _, _), value in zip(EVOLUTION_FACTORS, thresholds))


def served_stream(seed: int) -> List[Request]:
    """The served-mix request stream of one pass: repeats and new families."""
    rng = random.Random(f"{seed}:served")
    families: List[Request] = []
    stream: List[Request] = []
    for _ in range(SERVED_REQUESTS):
        if families and rng.random() < SERVED_REPEAT_SHARE:
            stream.append(rng.choice(families))
            continue
        edits = rng.choices(range(1, 6), weights=SERVED_EDIT_WEIGHTS)[0]
        moved = set(rng.sample(range(len(EVOLUTION_FACTORS)), edits))
        thresholds = tuple(
            rng.choice(alternatives) if index in moved else baseline
            for index, (_, baseline, alternatives, _) in enumerate(EVOLUTION_FACTORS)
        )
        request = Request(evolution_constraints(thresholds), rng.randrange(2**31), Reference(evolution_truth(thresholds)))
        families.append(request)
        stream.append(request)
    return stream


def make_inputs(workload: str, seed: int) -> List[Any]:
    """Every query (or request) of one pass of ``workload``."""
    references = load_references()
    if workload == "paving-heavy":
        return program_queries(PAVING_HEAVY, seed, references)
    if workload == "many-paths":
        return program_queries(MANY_PATHS, seed, references)
    if workload == "sampling-bound":
        return sampling_queries(seed, references)
    if workload == "served-mix":
        return served_stream(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
