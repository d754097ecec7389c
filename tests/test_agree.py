"""Opt-in mode agreement at the size ``parametric`` claims, run with
``pytest -m agree`` (a few minutes; intermediate mode dominates).

Parametric and intermediate mode solve six n=100 instances: integer and
real coordinates, R 2 and 4, coordinate ranges n and 3n, and one instance
with real weights; and two n=200 instances, R=1 with range n and R=4 with
range 2n, the benchmark's first search-large solve (about 60 s each).
Parametric and the brute oracle solve seeded instances of n=13-20, 24, 30
and 40, above the CLI's brute limit, with integer and real weights (the two
n=40 brute solves take about 15 s each).
A hypothesis fuzz test draws real-valued sites off the grid for n=12-40
and compares parametric with intermediate on the instances that
``general_position_violation`` accepts.  Their weight losses must be
bitwise equal, and each reported point must re-evaluate to its reported
loss.  A failure found here becomes a tier-1 regression instance under
``data/``.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rivalloc import brute_centroid
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation
from rivalloc.medianoid import solve_medianoid

N = 100


def real_instance(seed, R, coord_range, n=N):
    """Uniform real coordinates in [-coord_range, coord_range], integer
    weights 1..10."""
    rng = random.Random(seed)
    return Instance(
        [
            Customer(Point(rng.uniform(-coord_range, coord_range),
                           rng.uniform(-coord_range, coord_range)),
                     float(rng.randint(1, 10)))
            for _ in range(n)
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
    # A parametric solve that lost its optimum (588 for 586) to a decision's
    # unkept midpoint.
    "integer n=200 R=1 range=n": lambda: generate_instance(200, 1, r=1.0, coord_range=200),
    # Parametric reports 596.
    "integer n=200 R=4 range=2n": lambda: generate_instance(200, 1, r=4.0, coord_range=400),
    "integer R=4 range=n": lambda: generate_instance(N, 1, r=4.0, coord_range=N),
    "integer R=2 range=3n": lambda: generate_instance(N, 2, r=2.0, coord_range=3 * N),
    "integer R=2 range=n": lambda: generate_instance(N, 3, r=2.0, coord_range=N),
    "real R=4 range=3n": lambda: real_instance(4, 4.0, 3 * N),
    "real R=2 range=n": lambda: real_instance(5, 2.0, N),
    "real weights R=4 range=3n": lambda: real_weight_instance(6, 4.0, 3 * N),
}


def assert_modes_agree(inst):
    """Parametric and intermediate report bitwise-equal weight losses, and
    each point re-evaluates to its loss."""
    losses = {}
    for mode in ("parametric", "intermediate"):
        rep = solve_centroid(inst, mode)
        assert solve_medianoid(inst, rep.centroid).weight_loss == rep.weight_loss, mode
        losses[mode] = rep.weight_loss
    assert losses["parametric"] == losses["intermediate"], losses


@pytest.mark.agree
@pytest.mark.parametrize("name", CASES)
def test_parametric_agrees_with_intermediate(name):
    inst = CASES[name]()
    assert general_position_violation(inst) is None
    assert_modes_agree(inst)


@pytest.mark.agree
@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(12, 40),
    seed=st.integers(0, 2**32 - 1),
    R=st.sampled_from([2.0, 4.0]),
    range_per_site=st.sampled_from([1, 3]),
)
def test_parametric_agrees_with_intermediate_off_the_grid(n, seed, R, range_per_site):
    inst = real_instance(seed, R, range_per_site * n, n)
    assume(general_position_violation(inst) is None)
    assert_modes_agree(inst)


@pytest.mark.agree
@pytest.mark.parametrize("real_weights", [False, True], ids=["integer", "real"])
@pytest.mark.parametrize("n", [*range(13, 21), 24, 30, 40])
def test_parametric_agrees_with_brute(n, real_weights):
    inst = generate_instance(n, 100 + n, r=4.0, coord_range=2 * n)
    if real_weights:
        rng = random.Random(n)
        inst = Instance(
            [Customer(c.site, rng.uniform(0.5, 10.0)) for c in inst.customers], 4.0
        )
    losses = {}
    for rep in (solve_centroid(inst, "parametric"), brute_centroid(inst)):
        assert solve_medianoid(inst, rep.centroid).weight_loss == rep.weight_loss, rep.solver
        losses[rep.solver] = rep.weight_loss
    assert losses["parametric"] == losses["brute"], losses
