"""Compute the correctness references the benchmark checks answers against.

Run once from the repository root and commit the output::

    python3 perfbench/make_references.py

It writes ``perfbench/references.json`` with one entry per query subject:

* VolComp programs (paving-heavy, many-paths): an independent whole-domain
  plain Monte Carlo estimate (``repro.baselines.plain_mc``: no ICP, no
  stratification, no composition) at ``BUDGET`` samples, with its sigma,
  seed and budget recorded next to it.
* Solids: ``analytical_volume / bounding_volume`` (closed form).
* All-discrete subjects: ``exact_probability()`` (atom enumeration).
* The evolution v1 fixture: the product of its closed-form factor truths.

The served-mix families are references computed at run time from the same
closed forms (``perfbench/workloads.py``), so they are not stored here.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "references.json")

#: Plain Monte Carlo samples per VolComp query, its master seed, and the chunk
#: size that bounds memory (each chunk gets its own spawned seed).
BUDGET = 20_000_000
SEED = 20140609
CHUNK = 1_000_000


def main() -> int:
    # Keep generated kernels out of the user's cache directory.
    os.environ["QCORAL_KERNEL_DISK_CACHE"] = "0"
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import numpy as np

    from repro.baselines.plain_mc import plain_monte_carlo
    from repro.subjects.discrete import all_discrete_subjects
    from repro.subjects.evolution import EXACT_V1
    from repro.subjects.solids import all_solids
    from repro.subjects.volcomp_suite import subject_by_name
    from workloads import MANY_PATHS, PAVING_HEAVY

    volcomp = {}
    for index, (name, label) in enumerate(PAVING_HEAVY + MANY_PATHS):
        subject = subject_by_name(name)
        constraint_set = subject.constraint_set(subject.assertion(label))
        profile = subject.profile()
        started = time.perf_counter()
        hits = 0
        drawn = 0
        seeds = np.random.SeedSequence([SEED, index]).spawn((BUDGET + CHUNK - 1) // CHUNK)
        for chunk_seed in seeds:
            count = min(CHUNK, BUDGET - drawn)
            result = plain_monte_carlo(constraint_set, profile, count, seed=chunk_seed)
            hits += round(result.mean * count)
            drawn += count
        mean = hits / drawn
        std = (mean * (1.0 - mean) / drawn) ** 0.5
        volcomp[f"{name}|{label}"] = {"mean": mean, "std": std, "hits": hits, "samples": drawn}
        print(f"{name} {label}: {mean:.6f} +- {std:.2e} ({time.perf_counter() - started:.1f} s)", file=sys.stderr)

    solids = {
        solid.name: {"mean": solid.analytical_volume / solid.bounding_volume(), "std": 0.0} for solid in all_solids()
    }
    discrete = {
        subject.name: {"mean": subject.exact_probability(), "std": 0.0}
        for subject in all_discrete_subjects()
        if subject.group == "discrete"
    }
    payload = {
        "volcomp_method": "repro.baselines.plain_mc.plain_monte_carlo, whole-domain hit-or-miss",
        "volcomp_seed": SEED,
        "volcomp_budget": BUDGET,
        "volcomp": volcomp,
        "solids": solids,
        "discrete": discrete,
        "evolution_v1": {"mean": EXACT_V1, "std": 0.0},
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
