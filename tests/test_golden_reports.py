"""Pinned solve reports: a change to the follower sweep, a line's
breakpoint array or its exact-median search, or to the crossing batches
LT, LM and LC exhaust that alters any report fails here.

The reports in ``data/golden_reports.json`` are exact (point, weight loss,
witness angle and telemetry without wall time).  Regenerate them only for an
intended change of reports, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
import random
from pathlib import Path

import pytest

import support
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

# (n, seed, coord_range, mode): seed-1 instances of the benchmark's crosscheck
# workload in both searching modes (intermediate stops at n=16, which keeps
# the file under 5 s), and n=60 parametric solves that reach no certificate,
# so they search the boundary lines of the slab the three families leave.
# In these the LT search leaves no tangent-circle or circle-circle crossing
# inside the slab; the n=9 seed 3 solve still runs one LM round.  Of the
# n=80 and n=70 solves the first reaches no certificate, the second
# certifies.
CASES = (
    [(n, 1, 50, "parametric") for n in (8, 12, 24)]
    + [(n, 1, 50, "intermediate") for n in (8, 12, 16)]
    + [(60, seed, 120, "parametric") for seed in (3, 5)]
    + [(80, 1, 160, "parametric"), (70, 2, 140, "parametric")]
    + [(9, 3, 20, "parametric")]
)

# The same, on real-valued coordinates with integer weights: every case above
# lies on the integer grid.  The parametric solve reaches no certificate; the
# intermediate one searches all 90 tangent lines.
REAL_CASES = [(40, 1, 80, "parametric"), (10, 1, 20, "intermediate")]


def case_id(case):
    return "n=%d seed=%d range=%d %s" % case


def real_case_id(case):
    return "real " + case_id(case)


def real_instance(n, seed, coord_range):
    """Uniform real coordinates in [-coord_range, coord_range], integer
    weights 1..10, R = 4; checked for general position."""
    rng = random.Random(seed)
    customers = [
        Customer(
            Point(rng.uniform(-coord_range, coord_range),
                  rng.uniform(-coord_range, coord_range)),
            float(rng.randint(1, 10)),
        )
        for _ in range(n)
    ]
    inst = Instance(customers, 4.0)
    assert general_position_violation(inst) is None
    return inst


def instance(n, seed, coord_range, real=False):
    if real:
        return real_instance(n, seed, coord_range)
    return generate_instance(n, seed, r=4.0, coord_range=coord_range)


def report(n, seed, coord_range, mode, real=False):
    rep = solve_centroid(instance(n, seed, coord_range, real), mode)
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


@pytest.mark.parametrize("case", REAL_CASES, ids=real_case_id)
def test_real_coordinate_report_matches_golden(golden, case):
    assert report(*case, real=True) == golden[real_case_id(case)]


# Every golden case, by its key in the golden file, for the falsifier.
ALL_CASES = [(case_id(c), c, False) for c in CASES] + [
    (real_case_id(c), c, True) for c in REAL_CASES
]


@pytest.mark.parametrize("key, case, real", ALL_CASES, ids=[k for k, _, _ in ALL_CASES])
def test_no_sample_beats_the_golden_loss(golden, key, case, real):
    """A small-budget ``support.falsify`` run, which does not rest on the
    candidate theorem, finds no point below the pinned loss."""
    n, seed, coord_range, _mode = case
    loss = golden[key]["weight_loss"]
    beaten = support.falsify(instance(n, seed, coord_range, real), loss, seed,
                             samples=5000, rounds=8, keep=25, children=20)
    assert beaten is None, (beaten, loss)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    reports = {case_id(c): report(*c) for c in CASES}
    reports.update({real_case_id(c): report(*c, real=True) for c in REAL_CASES})
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
