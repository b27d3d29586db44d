"""Golden-file tests of the versioned Report JSON schema.

One golden file (``tests/data/report_golden.json``) pins the exact JSON a
fixed-seed run emits, and is shared by ``Report.to_json()`` and the CLI's
``--json`` output — the two must never diverge.

**Schema version bump rule** (also documented in :mod:`repro.api.report`):

* Adding a key is backward compatible: update the golden file, do NOT bump
  ``SCHEMA_VERSION``.
* Renaming, removing, or changing the meaning/type of an existing key bumps
  ``SCHEMA_VERSION`` *and* updates the golden file in the same change.

The wall-clock ``time`` field is the one legitimately nondeterministic value;
it is normalised to ``0.0`` on both sides before comparison.

Regenerate the golden file after an intentional schema change with::

    QCORAL_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report_schema.py
"""

import json
import os

from repro.api import SCHEMA_VERSION, Session
from repro.cli import main
from repro.core.qcoral import QCoralConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "report_golden.json")

CONSTRAINTS = "x <= 0 - y && y <= x"
BOUNDS = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}
SAMPLES = 2000
SEED = 1


def _golden_report_dict():
    config = QCoralConfig(samples_per_query=SAMPLES, seed=SEED)
    with Session() as session:
        report = session.quantify(CONSTRAINTS, BOUNDS, config=config).run()
    payload = report.to_dict()
    payload["time"] = 0.0
    return payload


def _load_golden():
    payload = _golden_report_dict()
    if os.environ.get("QCORAL_UPDATE_GOLDEN"):
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_report_to_json_matches_golden():
    golden = _load_golden()
    assert golden["schema_version"] == SCHEMA_VERSION, (
        "schema_version drifted: if keys were renamed/removed/retyped this is "
        "the intended bump — regenerate the golden file in the same change; "
        "otherwise revert the version change"
    )
    assert _golden_report_dict() == golden


def test_report_json_round_trips():
    config = QCoralConfig(samples_per_query=SAMPLES, seed=SEED)
    with Session() as session:
        report = session.quantify(CONSTRAINTS, BOUNDS, config=config).run()
    assert json.loads(report.to_json()) == report.to_dict()
    assert json.loads(report.to_json(indent=2)) == report.to_dict()


def test_cli_json_output_matches_golden(capsys):
    golden = _load_golden()
    exit_code = main(
        [
            "quantify",
            CONSTRAINTS,
            "--domain",
            "x=-1:1",
            "--domain",
            "y=-1:1",
            "--samples",
            str(SAMPLES),
            "--seed",
            str(SEED),
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    payload["time"] = 0.0
    assert payload == golden


def test_program_report_schema_keys(capsys, tmp_path):
    """Program reports speak the same schema with event/bounded filled in."""
    from repro.subjects import programs

    program_file = tmp_path / "monitor.prog"
    program_file.write_text(programs.SAFETY_MONITOR)
    exit_code = main(
        ["analyze", str(program_file), programs.SAFETY_MONITOR_EVENT, "--samples", "500", "--seed", "3", "--json"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    golden = _load_golden()
    assert set(payload) == set(golden)  # one schema, both kinds
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["kind"] == "program"
    assert payload["bounded"] == {"mean": 0.0, "std": 0.0}
