"""Opt-in seed sweeps, run with ``pytest -m sweep``.

Every instance that ``rivalloc gen`` writes and the CLI accepts must solve
in parametric mode without an internal invariant failure, the reported
follower value must be the exact value at the reported point, and the
falsifier (``support.falsify`` at its full budget) must find no point with
a lower value.  A failure found here becomes a regression instance under
``data/``.

The near-shared-coordinate family puts two sites a few eps apart in x or
in y, which the general-position check accepts: the decisions' lines then
pass next to a disc's tangency (ROADMAP open item 1).  All three modes
solve each instance; intermediate and brute must report bitwise-equal
weight losses, and parametric the same, except on the pinned seeds where
a decision raises.  The 1,200 instances take about 30 s on a 2-core x86
host.
"""

import random

import pytest

import support
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation
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


def near_shared_instance(seed, axis):
    """4-11 sites uniform in [-50, 50]^2, from ``random.Random(seed)``,
    with R in {1, 2, 4, 8} or uniform in [1, 8] and weights integer 1-5 or
    uniform in [0.5, 5]; then coordinate ``axis`` of a site j is moved to a
    site i's value plus or minus 1.01-20 times the unmoved instance's eps."""
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    R = rng.choice((1, 2, 4, 8)) if rng.random() < 0.5 else rng.uniform(1, 8)
    real = rng.random() < 0.5
    sites = [[rng.uniform(-50, 50), rng.uniform(-50, 50)] for _ in range(n)]
    ws = [rng.uniform(0.5, 5) if real else rng.randint(1, 5) for _ in range(n)]
    eps = Instance([Customer(Point(*p), w) for p, w in zip(sites, ws)], R).eps
    i, j = rng.sample(range(n), 2)
    k = "xy".index(axis)
    sites[j][k] = sites[i][k] + rng.uniform(1.01, 20) * eps * rng.choice((-1, 1))
    return Instance([Customer(Point(*p), w) for p, w in zip(sites, ws)], R)


NO_CAPTURE = "no direction at the anchor captures the worse anchor's value"
# The instances on which a parametric decision raises NO_CAPTURE: its
# breakpoints are circles of radius r, but the sweep captures at r + eps.
NEAR_SHARED_RAISES = frozenset(("x", seed) for seed in (270, 326, 520, 560))


@pytest.mark.sweep
@pytest.mark.parametrize("axis", ["x", "y"])
def test_near_shared_coordinates_agree_in_all_modes(axis):
    raised = set()
    for seed in range(600):
        inst = near_shared_instance(seed, axis)
        assert general_position_violation(inst) is None, seed
        want = solve_centroid(inst, "intermediate").weight_loss
        assert solve_centroid(inst, "brute").weight_loss.hex() == want.hex(), seed
        try:
            got = solve_centroid(inst, "parametric").weight_loss
        except RuntimeError as err:
            if str(err) != NO_CAPTURE:
                raise
            raised.add((axis, seed))
            continue
        assert got.hex() == want.hex(), seed
    pinned = {key for key in NEAR_SHARED_RAISES if key[0] == axis}
    assert raised == pinned, sorted(raised ^ pinned)
