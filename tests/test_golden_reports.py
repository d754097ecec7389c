"""Pinned solve reports: a change to the breakpoint sequences, the LM
descriptors or the weighted median that alters any report fails here.

The reports in ``data/golden_reports.json`` are exact (point, weight loss,
witness angle and telemetry without wall time).  Regenerate them only for an
intended change of reports, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

import pytest

from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

# (n, seed, coord_range, mode): seed-1 instances of the benchmark's crosscheck
# workload in both searching modes (intermediate stops at n=16, which keeps
# the file under 5 s), and n=60 parametric solves that reach no certificate,
# so they run the LT, LM and LC searches.
CASES = (
    [(n, 1, 50, "parametric") for n in (8, 12, 24)]
    + [(n, 1, 50, "intermediate") for n in (8, 12, 16)]
    + [(60, seed, 120, "parametric") for seed in (3, 5)]
)


def case_id(case):
    return "n=%d seed=%d range=%d %s" % case


def report(n, seed, coord_range, mode):
    inst = generate_instance(n, seed, r=4.0, coord_range=coord_range)
    rep = solve_centroid(inst, mode)
    telemetry = dict(rep.telemetry)
    del telemetry["wall_time_s"]
    return {
        "point": [rep.centroid.x, rep.centroid.y],
        "weight_loss": rep.weight_loss,
        "witness_angle": rep.witness_angle,
        "telemetry": telemetry,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(golden, case):
    assert report(*case) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    reports = {case_id(c): report(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
