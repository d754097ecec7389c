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

The decision-hint family checks that a decision which starts its anchors'
search from an ordinate interval, as every decision of a parametric solve
after the first does, decides as the unhinted search does, on ``rivalloc
gen`` and near-shared instances.
"""

import random

import pytest

import support
from rivalloc import centroid
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation
from rivalloc.linesearch import CertifiedOptimum, Telemetry, build_angular_index
from rivalloc.medianoid import solve_medianoid
from rivalloc.vprune import Decision, decide

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


NO_CAPTURE = support.NO_CAPTURE
# The instances on which a parametric decision raises NO_CAPTURE.  None does
# since a decision's array holds the capture circle's crossings next to a
# tangency (``vertical_breakpoints``); before, x-seeds 270, 326, 520 and 560
# raised.
NEAR_SHARED_RAISES = frozenset()


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


def solve_decisions(inst, monkeypatch):
    """The abscissas and hints of the decisions of ``inst``'s parametric
    solve, in order; a solve that raises NO_CAPTURE keeps those before."""
    calls = []
    decide = centroid.decide

    def recorded(inst, idx, x, telemetry, hint=None):
        calls.append((x, hint))
        return decide(inst, idx, x, telemetry, hint)

    with monkeypatch.context() as m:
        m.setattr(centroid, "decide", recorded)
        try:
            solve_centroid(inst)
        except RuntimeError as err:
            if str(err) != NO_CAPTURE:
                raise
    return calls


def the_one_certificate(inst, idx, x, hints, key):
    """Of the decisions at ``x`` with the two ``hints``, the one that
    certifies, which must be the only one and lie on the line: the closed
    side the other keeps then holds the certified point."""
    certs = []
    for hint in hints:
        try:
            decide(inst, idx, x, Telemetry(), hint)
        except CertifiedOptimum as cert:
            certs.append(cert)
    [cert] = certs
    assert cert.point.x == x, (key, cert.point)
    return cert


@pytest.mark.sweep
def test_a_hint_keeps_every_decision_on_2000_instances(monkeypatch):
    """``test_vprune.py::test_a_hint_keeps_every_decision`` on 1,000
    ``rivalloc gen`` instances (n = 6-30, R = 1, 4 or 12, range 2n) and
    500 near-shared instances per axis (``near_shared_instance``): at 2
    random abscissas with ``support.anchor_hints``'s eight intervals, and
    at every decision of the instance's parametric solve with the hint the
    solve gave it, ``decide`` with a hint returns what it returns without.
    The one exception is a strong centroid between the anchors, which one
    search can meet and the other pass by: then exactly one of the two
    certifies, at a point of the line and with intermediate mode's loss,
    so the closed side the other keeps holds an optimum.  52,724 hinted
    decisions, 97 of them of that kind; about 2 min on a 2-core x86
    host."""
    rng = random.Random(47)
    instances = [(("gen", i), support.accepted_instance(rng, rng.randint(6, 30),
                                                        rng.choice((1.0, 4.0, 12.0))))
                 for i in range(1000)]
    instances += [((axis, seed), near_shared_instance(seed, axis))
                  for axis in "xy" for seed in range(500)]
    seen = {"hinted": 0, "solve": 0, "certified": 0, "one certifies": 0}
    for key, inst in instances:
        best = None
        idx = build_angular_index(inst)
        frame = support.bounding_frame(inst)
        lines = [(x, [hint]) for x, hint in solve_decisions(inst, monkeypatch) if hint is not None]
        seen["solve"] += len(lines)
        for _ in range(2):
            lines.append((rng.uniform(frame.xmin, frame.xmax), None))
        for x, hints in lines:
            cold = support.decision_outcome(inst, idx, x)
            if hints is None:
                hints = support.anchor_hints(rng, idx, x, getattr(cold, "anchors", None))
            for hint in hints:
                warm = support.decision_outcome(inst, idx, x, hint)
                seen["hinted"] += 1
                seen["certified"] += not isinstance(cold, Decision)
                if warm != cold:
                    seen["one certifies"] += 1
                    cert = the_one_certificate(inst, idx, x, (None, hint), (key, hint))
                    if best is None:
                        best = solve_centroid(inst, "intermediate").weight_loss
                    assert cert.weight_loss == best, (key, x, hint)
    assert min(seen.values()) > 0, seen
