"""Opt-in mode agreement at the size ``parametric`` claims, run with
``pytest -m agree`` (a few minutes; intermediate mode dominates).

Parametric and intermediate mode solve six n=100 instances: integer and
real coordinates, R 2 and 4, coordinate ranges n and 3n, and one instance
with real weights.  Their weight losses must be bitwise equal, and each
reported point must re-evaluate to its reported loss.  A failure found here
becomes a tier-1 regression instance under ``data/``.
"""

import random

import pytest

from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation
from rivalloc.medianoid import solve_medianoid

N = 100


def real_instance(seed, R, coord_range):
    """Uniform real coordinates in [-coord_range, coord_range], integer
    weights 1..10."""
    rng = random.Random(seed)
    return Instance(
        [
            Customer(Point(rng.uniform(-coord_range, coord_range),
                           rng.uniform(-coord_range, coord_range)),
                     float(rng.randint(1, 10)))
            for _ in range(N)
        ],
        R,
    )


def real_weight_instance(seed, R, coord_range):
    """``rivalloc gen``'s integer sites with uniform real weights in
    [0.5, 10]."""
    rng = random.Random(seed)
    sites = generate_instance(N, seed, r=R, coord_range=coord_range).customers
    return Instance([Customer(c.site, rng.uniform(0.5, 10.0)) for c in sites], R)


CASES = {
    "integer R=4 range=n": lambda: generate_instance(N, 1, r=4.0, coord_range=N),
    "integer R=2 range=3n": lambda: generate_instance(N, 2, r=2.0, coord_range=3 * N),
    "integer R=2 range=n": lambda: generate_instance(N, 3, r=2.0, coord_range=N),
    "real R=4 range=3n": lambda: real_instance(4, 4.0, 3 * N),
    "real R=2 range=n": lambda: real_instance(5, 2.0, N),
    "real weights R=4 range=3n": lambda: real_weight_instance(6, 4.0, 3 * N),
}


@pytest.mark.agree
@pytest.mark.parametrize("name", CASES)
def test_parametric_agrees_with_intermediate(name):
    inst = CASES[name]()
    assert general_position_violation(inst) is None
    losses = {}
    for mode in ("parametric", "intermediate"):
        rep = solve_centroid(inst, mode)
        assert solve_medianoid(inst, rep.centroid).weight_loss == rep.weight_loss, mode
        losses[mode] = rep.weight_loss
    assert losses["parametric"] == losses["intermediate"], losses
