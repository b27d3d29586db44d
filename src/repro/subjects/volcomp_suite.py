"""The VolComp benchmark subjects of the paper's Table 3 (RQ2).

The original benchmark programs (distributed with VolComp) are not available
offline, so each subject is re-modelled as a mini-language program with the
same structure the paper describes: risk calculators accumulating points
through branch cascades (ATRIAL, CORONARY), estimator formulas with branch-
selected coefficients (EGFR), controllers (CART, INVPEND, VOL), and a packing
robot (PACK).  Every assertion row of Table 3 has a counterpart here; the
constraint *shapes* (linear, many disjoint paths, varying variable
interdependence) are preserved even though the constants — and therefore the
absolute probabilities — differ from the originals.

Each subject provides, per assertion, a constraint set obtained by bounded
symbolic execution of ``base_source`` extended with a final
``if (<assertion>) { observe(target); }`` block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.core.profiles import UsageProfile
from repro.lang import ast
from repro.symexec.parser import parse_program
from repro.symexec.symbolic import execute_program

#: Event name attached to every Table 3 assertion.
TARGET_EVENT = "target"


@dataclass(frozen=True)
class VolCompAssertion:
    """One assertion row of Table 3: a display label and its condition text."""

    label: str
    condition: str


@dataclass(frozen=True)
class VolCompSubject:
    """One Table 3 subject: a base program plus its assertion rows."""

    name: str
    base_source: str
    assertions: Tuple[VolCompAssertion, ...]
    max_depth: int = 60

    def assertion(self, label: str) -> VolCompAssertion:
        """Look up an assertion by its display label."""
        for assertion in self.assertions:
            if assertion.label == label:
                return assertion
        raise KeyError(f"subject {self.name!r} has no assertion {label!r}")

    def program_source(self, assertion: VolCompAssertion) -> str:
        """Base program extended with the assertion's observe block."""
        return (self.base_source + f"\nif ({assertion.condition}) {{\n    observe({TARGET_EVENT});\n}}\n")

    def program(self, assertion: VolCompAssertion):
        """Parsed program for one assertion."""
        return parse_program(self.program_source(assertion), name=f"{self.name}:{assertion.label}")

    def constraint_set(self, assertion: VolCompAssertion) -> ast.ConstraintSet:
        """Path conditions reaching the assertion's target event."""
        return _constraint_set_cached(self.name, assertion.label)

    def profile(self) -> UsageProfile:
        """Uniform usage profile over the subject's declared input domains."""
        program = parse_program(self.base_source + "\nskip;", name=self.name)
        return UsageProfile.uniform(program.input_bounds())


# --------------------------------------------------------------------------- #
# Subject definitions
# --------------------------------------------------------------------------- #
_ATRIAL_SOURCE = """
input age in [45, 95];
input sbp in [90, 190];
input pr in [120, 260];
input bmi in [18, 45];
input sbpErr in [-10, 10];
input prErr in [-15, 15];

points = 0;
if (age >= 85) { points = points + 8; }
else { if (age >= 75) { points = points + 6; }
else { if (age >= 65) { points = points + 4; }
else { if (age >= 55) { points = points + 2; } else { skip; } } } }

if (sbp >= 160) { points = points + 3; }
else { if (sbp >= 140) { points = points + 1; } else { skip; } }

if (pr >= 200) { points = points + 2; }
else { if (pr >= 180) { points = points + 1; } else { skip; } }

if (bmi >= 30) { points = points + 1; } else { skip; }

pointsErr = points;
if (sbp + sbpErr >= 160) { pointsErr = pointsErr + 3; }
else { if (sbp + sbpErr >= 140) { pointsErr = pointsErr + 1; } else { skip; } }
if (pr + prErr >= 200) { pointsErr = pointsErr + 2; }
else { if (pr + prErr >= 180) { pointsErr = pointsErr + 1; } else { skip; } }
if (sbp >= 160) { pointsErr = pointsErr - 3; }
else { if (sbp >= 140) { pointsErr = pointsErr - 1; } else { skip; } }
if (pr >= 200) { pointsErr = pointsErr - 2; }
else { if (pr >= 180) { pointsErr = pointsErr - 1; } else { skip; } }
"""

_CART_SOURCE = """
input pos in [-1, 1];
input wind in [-0.5, 0.5];

count = 0;
err1 = pos + wind;
if (err1 * err1 * (err1 - 0.1) * (err1 + 0.05) > 0.0005) { count = count + 1; pos = pos - 0.5 * err1; } else { skip; }
err2 = pos + 0.8 * wind;
if (err2 * err2 * (err2 - 0.1) * (err2 + 0.05) > 0.0005) { count = count + 1; pos = pos - 0.5 * err2; } else { skip; }
err3 = pos + 0.6 * wind;
if (err3 * err3 * (err3 - 0.1) * (err3 + 0.05) > 0.0005) { count = count + 1; pos = pos - 0.5 * err3; } else { skip; }
err4 = pos + 0.4 * wind;
if (err4 * err4 * (err4 - 0.1) * (err4 + 0.05) > 0.0005) { count = count + 1; pos = pos - 0.5 * err4; } else { skip; }
err5 = pos + 0.2 * wind;
if (err5 * err5 * (err5 - 0.1) * (err5 + 0.05) > 0.0005) { count = count + 1; pos = pos - 0.5 * err5; } else { skip; }
"""

_CORONARY_SOURCE = """
input age in [30, 75];
input chol in [150, 300];
input hdl in [20, 100];
input sbp in [100, 180];

tmp = 0;
if (age >= 65) { tmp = tmp + 5; }
else { if (age >= 50) { tmp = tmp + 3; }
else { if (age >= 40) { tmp = tmp + 1; } else { skip; } } }

if (chol >= 280) { tmp = tmp + 4; }
else { if (chol >= 240) { tmp = tmp + 2; }
else { if (chol >= 200) { tmp = tmp + 1; } else { skip; } } }

if (hdl >= 60) { tmp = tmp - 2; }
else { if (hdl <= 35) { tmp = tmp + 2; } else { skip; } }

if (sbp >= 170) { tmp = tmp + 3; }
else { if (sbp >= 150) { tmp = tmp + 1; } else { skip; } }

tmp = tmp - 6;
"""

_EGFR_SOURCE = """
input scr in [0.5, 3.0];
input age in [18, 90];
input scrF in [0.5, 3.0];
input ageF in [18, 90];

f = 0;
if (scr <= 0.9) { f = 6.0 - 0.7 * scr - 0.006 * age; }
else { if (scr <= 1.5) { f = 5.9 - 0.6 * scr - 0.007 * age; }
else { f = 5.7 - 0.5 * scr - 0.008 * age; } }

f1 = 0;
if (scrF <= 0.7) { f1 = 6.2 - 0.9 * scrF - 0.004 * ageF; }
else { if (scrF <= 1.3) { f1 = 6.0 - 0.7 * scrF - 0.005 * ageF; }
else { f1 = 5.9 - 0.65 * scrF - 0.006 * ageF; } }
"""

_INVPEND_SOURCE = """
input ang in [-0.5, 0.5];
input angVel in [-1, 1];
input force in [-2, 2];

pAng = 1.1 + 0.3 * ang + 0.05 * angVel + 0.01 * force * ang + 0.002 * force * force;
"""

_PACK_SOURCE = """
input w1 in [0, 1.5];
input w2 in [0, 1.5];
input w3 in [0, 1.5];
input w4 in [0, 1.5];
input w5 in [0, 1.5];
input w6 in [0, 1.5];
input w7 in [0, 1.5];
input w8 in [0, 1.5];

limit = 6.5;
totalWeight = 0;
count = 0;
if (totalWeight + w1 <= limit) { totalWeight = totalWeight + w1; count = count + 1; } else { skip; }
if (totalWeight + w2 <= limit) { totalWeight = totalWeight + w2; count = count + 1; } else { skip; }
if (totalWeight + w3 <= limit) { totalWeight = totalWeight + w3; count = count + 1; } else { skip; }
if (totalWeight + w4 <= limit) { totalWeight = totalWeight + w4; count = count + 1; } else { skip; }
if (totalWeight + w5 <= limit) { totalWeight = totalWeight + w5; count = count + 1; } else { skip; }
if (totalWeight + w6 <= limit) { totalWeight = totalWeight + w6; count = count + 1; } else { skip; }
if (totalWeight + w7 <= limit) { totalWeight = totalWeight + w7; count = count + 1; } else { skip; }
if (totalWeight + w8 <= limit) { totalWeight = totalWeight + w8; count = count + 1; } else { skip; }
"""

_VOL_SOURCE = """
input flowA in [0, 1];
input flowB in [0, 1];
input flowC in [0, 1];

volume = 0;
count = 0;
while (volume < 8 && count < 20) {
    volume = volume + 0.2 * flowA + 0.3 * flowB + 0.1 * flowC;
    count = count + 1;
}
"""


@lru_cache(maxsize=None)
def all_subjects() -> Tuple[VolCompSubject, ...]:
    """Every Table 3 subject, in the paper's order."""
    return (
        VolCompSubject(
            "ATRIAL",
            _ATRIAL_SOURCE,
            (
                VolCompAssertion("points >= 10", "points >= 10"),
                VolCompAssertion("points - pointsErr >= 5", "points - pointsErr >= 5"),
                VolCompAssertion("pointsErr - points <= 5", "pointsErr - points <= 5"),
            ),
        ),
        VolCompSubject(
            "CART",
            _CART_SOURCE,
            (
                VolCompAssertion("count >= 3", "count >= 3"),
                VolCompAssertion("count >= 1", "count >= 1"),
            ),
        ),
        VolCompSubject(
            "CORONARY",
            _CORONARY_SOURCE,
            (
                VolCompAssertion("tmp >= 5", "tmp >= 5"),
                VolCompAssertion("tmp <= -5", "tmp <= 0 - 5"),
            ),
        ),
        VolCompSubject(
            "EGFR EPI",
            _EGFR_SOURCE,
            (
                VolCompAssertion("f1 - f >= 0.1", "f1 - f >= 0.1"),
                VolCompAssertion("f - f1 >= 0.1", "f - f1 >= 0.1"),
            ),
        ),
        VolCompSubject(
            "EGFR EPI (SIMPLE)",
            _EGFR_SOURCE,
            (
                VolCompAssertion("f1 <= 4.4 && f >= 4.6", "f1 <= 4.4 && f >= 4.6"),
                VolCompAssertion("f1 >= 4.6 && f <= 4.4", "f1 >= 4.6 && f <= 4.4"),
            ),
        ),
        VolCompSubject(
            "INVPEND",
            _INVPEND_SOURCE,
            (VolCompAssertion("pAng <= 1", "pAng <= 1"),),
        ),
        VolCompSubject(
            "PACK",
            _PACK_SOURCE,
            (
                VolCompAssertion("count >= 5", "count >= 5"),
                VolCompAssertion("count >= 6", "count >= 6"),
                VolCompAssertion("count >= 7", "count >= 7"),
                VolCompAssertion("count >= 10", "count >= 10"),
                VolCompAssertion("totalWeight >= 6", "totalWeight >= 6"),
                VolCompAssertion("totalWeight >= 5", "totalWeight >= 5"),
                VolCompAssertion("totalWeight >= 4", "totalWeight >= 4"),
            ),
        ),
        VolCompSubject(
            "VOL",
            _VOL_SOURCE,
            (VolCompAssertion("count >= 20", "count >= 20"),),
            max_depth=80,
        ),
    )


def subject_by_name(name: str) -> VolCompSubject:
    """Look up a Table 3 subject by name (case-insensitive)."""
    for subject in all_subjects():
        if subject.name.lower() == name.lower():
            return subject
    raise KeyError(f"unknown VolComp subject {name!r}")


def all_assertion_cases() -> Tuple[Tuple[VolCompSubject, VolCompAssertion], ...]:
    """Every (subject, assertion) pair, i.e. every row of Table 3."""
    cases = []
    for subject in all_subjects():
        for assertion in subject.assertions:
            cases.append((subject, assertion))
    return tuple(cases)


@lru_cache(maxsize=None)
def _constraint_set_cached(subject_name: str, assertion_label: str) -> ast.ConstraintSet:
    """Symbolically execute a subject's assertion program (cached)."""
    subject = subject_by_name(subject_name)
    assertion = subject.assertion(assertion_label)
    program = subject.program(assertion)
    result = execute_program(program, max_depth=subject.max_depth)
    return result.constraint_set_for(TARGET_EVENT)
