"""Opt-in seed sweep over generated instances, run with ``pytest -m sweep``.

Every instance that ``rivalloc gen`` writes and the CLI accepts must solve
in parametric mode without an internal invariant failure, the reported
follower value must be the exact value at the reported point, and the
falsifier (``support.falsify`` at its full budget) must find no point with
a lower value.  A failure found here becomes a regression instance under
``data/``.
"""

import pytest

import support
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import general_position_violation
from rivalloc.medianoid import solve_medianoid

CASES = [
    (n, r, k * n, seed)
    for n in (100, 200, 400)
    for r in (1.0, 2.0, 4.0)
    for k in (1, 2, 4)
    for seed in (1, 2, 3)
]


@pytest.mark.sweep
@pytest.mark.parametrize("n, r, coord_range, seed", CASES)
def test_generated_instance_solves_exactly(n, r, coord_range, seed):
    inst = generate_instance(n, seed, r=r, coord_range=coord_range)
    violation = general_position_violation(inst)
    if violation is not None:
        pytest.skip(f"rejected by the CLI: {violation}")
    report = solve_centroid(inst)
    assert solve_medianoid(inst, report.centroid).weight_loss == report.weight_loss
    beaten = support.falsify(inst, report.weight_loss, seed)
    assert beaten is None, (beaten, report.weight_loss)
