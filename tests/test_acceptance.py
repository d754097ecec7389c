"""Acceptance suite: one test per release criterion.

Each test here is a self-contained experiment at a fixed scale with its own
seeds, so `pytest -v tests/test_acceptance.py` prints one pass or fail line
per criterion.  The scaling measurements carry the `scaling` marker and can
be skipped with `-m "not scaling"`.
"""

import math
import random
import time

import pytest

import support
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Point
from rivalloc.linesearch import (
    CertifiedOptimum,
    Telemetry,
    breakpoint_sequences,
    build_angular_index,
)
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    solve_medianoid,
)
from rivalloc.oracle import brute_medianoid
from rivalloc.vprune import (
    PRUNE_LEFT,
    PRUNE_RIGHT,
    build_frame,
    decide,
)


classify_wedge_on_vertical = support.classify_wedge_on_vertical
weight_at_angle = support.weight_at_angle


def random_instance(rng, n_lo=3, n_hi=10):
    n = rng.randint(n_lo, n_hi)
    R = rng.choice((2.0, 4.0, 6.0))
    return generate_instance(n, seed=rng.randrange(1 << 30), r=R, coord_range=50)


def test_mode_agreement_on_200_instances():
    """All three solver modes return the same follower value on 200 random
    instances (n 3..10, integer grid, weights 1..10, R in {2, 4, 6}); every
    returned point re-evaluates to the reported value within 1e-9; the whole
    run finishes inside two minutes."""
    rng = random.Random(0xACCE51)
    t0 = time.perf_counter()
    for trial in range(200):
        inst = random_instance(rng)
        values = {}
        for mode in ("parametric", "intermediate", "brute"):
            rep = solve_centroid(inst, mode=mode)
            values[mode] = rep.weight_loss
            again = solve_medianoid(inst, rep.centroid).weight_loss
            assert abs(again - rep.weight_loss) <= 1e-9, (trial, mode)
        assert values["parametric"] == values["intermediate"] == values["brute"], (
            trial,
            values,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed


def test_medianoid_matches_oracle_on_1000_pairs():
    """The sweep solver and the brute-force direction scan agree exactly on
    1000 random (instance, point) pairs, in under ten seconds."""
    rng = random.Random(0xACCE52)
    t0 = time.perf_counter()
    for trial in range(100):
        inst = random_instance(rng)
        for _ in range(10):
            x = Point(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
            wl_oracle, _ = brute_medianoid(inst, x)
            wl_sweep = solve_medianoid(inst, x).weight_loss
            assert wl_sweep == wl_oracle, (trial, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed


def _check_convexity(rng, violations):
    inst = random_instance(rng, n_lo=3, n_hi=7)
    values = support.brute_values(inst)
    best = min(w for _, w in values)
    optima = [p for p, w in values if w == best]
    pairs = [(a, b) for i, a in enumerate(optima) for b in optima[i + 1:]]
    rng.shuffle(pairs)
    for a, b in pairs[:20]:
        mid = Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        if solve_medianoid(inst, mid).weight_loss != best:
            violations.append("optimum midpoint %r not optimal" % (mid,))


def _check_wedge_pruning(rng, violations):
    inst = random_instance(rng, n_lo=3, n_hi=8)
    frame = build_frame(inst)
    ymin = float(inst.ys.min()) - inst.r
    ymax = float(inst.ys.max()) + inst.r
    res = None
    for _ in range(50):
        x = Point(
            rng.uniform(frame.xmin - 5.0, frame.xmax + 5.0),
            rng.uniform(ymin - 5.0, ymax + 5.0),
        )
        res = solve_medianoid(inst, x)
        if res.wedge is not None:
            break
    if res is None or res.wedge is None:
        return
    wedge = res.wedge
    checked = 0
    while checked < 100:
        p = Point(
            rng.uniform(frame.xmin - 20.0, frame.xmax + 20.0),
            rng.uniform(ymin - 20.0, ymax + 20.0),
        )
        if support.wedge_contains(wedge, p, tol=1e-9):
            continue
        checked += 1
        if solve_medianoid(inst, p).weight_loss < res.weight_loss:
            violations.append("point outside the wedge beat its apex at %r" % (p,))


def _check_monotone_shift(rng, violations):
    inst = random_instance(rng, n_lo=3, n_hi=8)
    X = rng.uniform(-40.0, 40.0)
    for _ in range(20):
        y_lo = rng.uniform(-60.0, 60.0)
        y_hi = y_lo + rng.uniform(0.1, 40.0)
        theta = rng.uniform(0.0, math.pi)
        up_hi = weight_at_angle(inst, Point(X, y_hi), theta)
        up_lo = weight_at_angle(inst, Point(X, y_lo), theta)
        if up_hi > up_lo:
            violations.append("upward capture grew while moving up at x=%g" % X)
        dn_hi = weight_at_angle(inst, Point(X, y_hi), theta + math.pi)
        dn_lo = weight_at_angle(inst, Point(X, y_lo), theta + math.pi)
        if dn_hi < dn_lo:
            violations.append("downward capture shrank while moving up at x=%g" % X)


def _check_breakpoints(rng, violations):
    inst = random_instance(rng, n_lo=2, n_hi=8)
    L = support.non_horizontal_line(rng)
    idx = build_angular_index(inst)
    got = sorted(breakpoint_sequences(idx, L).tolist())
    want = support.expected_positions(inst, L)
    scale = max(1.0, max(map(abs, want), default=1.0))
    if len(got) != len(want) or any(
        abs(g - w) > 1e-6 * scale for g, w in zip(got, want)
    ):
        violations.append("breakpoint multiset mismatch (%d vs %d)" % (len(got), len(want)))


def _check_frame_directions(rng, violations):
    inst = random_instance(rng, n_lo=3, n_hi=8)
    frame = build_frame(inst)
    L = support.vertical_through_box(rng, frame)
    X = L.anchor.x
    res_top = solve_medianoid(inst, Point(X, frame.y_top))
    res_btm = solve_medianoid(inst, Point(X, frame.y_btm))
    if classify_wedge_on_vertical(res_top.wedge, X) != DOWNWARD:
        violations.append("top auxiliary crossing does not point down at x=%g" % X)
    if classify_wedge_on_vertical(res_btm.wedge, X) != UPWARD:
        violations.append("bottom auxiliary crossing does not point up at x=%g" % X)


def _check_phases(rng, violations):
    inst = random_instance(rng, n_lo=3, n_hi=7)
    frame = build_frame(inst)
    L = support.vertical_through_box(rng, frame)
    rows = support.scan_vertical_line(inst, frame, L)
    (t_D, p_D, r_D, _), (t_U, p_U, r_U, _) = support.vertical_anchors(rows)
    if not t_D > t_U:
        violations.append("downward anchor not above upward anchor at x=%g" % L.anchor.x)
        return
    scale = max(1.0, max(abs(r[0]) for r in rows))
    tol = 1e-6 * scale
    sideward = set()
    between = []
    for t, p, res, kind in rows:
        if kind == UPWARD and t > t_U + tol:
            violations.append("upward breakpoint above the upward anchor")
        if kind == DOWNWARD and t < t_D - tol:
            violations.append("downward breakpoint below the downward anchor")
        if t_U + tol < t < t_D - tol:
            between.append((t, kind))
            if kind in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
                sideward.add(kind)
            elif kind != "strong":
                violations.append("middle-band breakpoint is %s" % kind)
    if len(sideward) > 1:
        violations.append("middle-band sideward wedges disagree on the side")
    if not between:
        plateau = max(r_D.weight_loss, r_U.weight_loss)
        X = L.anchor.x
        for frac in (0.25, 0.5, 0.75):
            z = Point(X, p_U.y + frac * (p_D.y - p_U.y))
            if solve_medianoid(inst, z).weight_loss != plateau:
                violations.append("anchor gap is not a plateau at x=%g" % X)


def test_invariants_hold_on_100_trials_each():
    """Six structural invariants hold with zero violations over 100 seeded
    trials each: optima form a convex set, points outside a wedge never beat
    its apex, captures shift monotonically along vertical lines, a line's
    breakpoint array equals the brute multiset, the auxiliary frame
    crossings point into the box, and vertical-line breakpoints come in
    upward/middle/downward bands whose middle holds only strong centroids
    and same-side sideward wedges, with a plateau when it is empty."""
    families = (
        _check_convexity,
        _check_wedge_pruning,
        _check_monotone_shift,
        _check_breakpoints,
        _check_frame_directions,
        _check_phases,
    )
    violations = []
    for k, family in enumerate(families):
        rng = random.Random(0xACCE53 + k)
        for _trial in range(100):
            family(rng, violations)
    assert violations == [], violations[:10]


def test_vertical_line_decisions_are_sound_on_100_pairs():
    """For 100 random (instance, vertical line) pairs the pruning decision
    never discards every optimum: the kept closed half-plane still attains
    the global brute-force minimum, certified points re-evaluate to their
    claimed value, and the run stays under one minute."""
    rng = random.Random(0xACCE54)
    t0 = time.perf_counter()
    kinds = set()
    for trial in range(100):
        inst = random_instance(rng, n_lo=3, n_hi=7)
        idx = build_angular_index(inst)
        frame = build_frame(inst)
        L = support.vertical_through_box(rng, frame)
        X = L.anchor.x
        values = support.brute_values(inst)
        best = min(w for _, w in values)
        try:
            dec = decide(inst, idx, frame, L, Telemetry())
        except CertifiedOptimum as cert:
            # A strong or a conditional centroid: both are global optima.
            kinds.add(cert.origin)
            assert cert.origin in support.STRONG_ORIGINS + (
                support.CONDITIONAL_ORIGIN,), (trial, cert.origin)
            assert solve_medianoid(inst, cert.point).weight_loss == cert.weight_loss
            assert cert.weight_loss == best, trial
            continue
        kinds.add(dec.kind)
        if dec.kind == PRUNE_LEFT:
            kept = min(w for p, w in values if p.x >= X)
            assert kept == best, (trial, kept, best)
        else:
            assert dec.kind == PRUNE_RIGHT, (trial, dec.kind)
            kept = min(w for p, w in values if p.x <= X)
            assert kept == best, (trial, kept, best)
    assert PRUNE_LEFT in kinds or PRUNE_RIGHT in kinds
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed


def test_progress_and_round_budgets():
    """Every prune iteration discards at least half of the remaining
    breakpoint mass, and the two staged line selections stay within their
    budgets (LT's crossing batches: 3*ceil(log2 wires) + 4 decisions, one
    sample batch and one exact batch of at most 4*wires crossings, each
    halved per decision, with room for one thinned batch; LM's one batch
    of mass0 crossings: floor(log2 mass0) + 1 decisions)."""
    rng = random.Random(0xACCE55)
    lt_seen = lm_seen = fractions_seen = 0
    for trial in range(30):
        n = rng.randint(8, 16)
        inst = generate_instance(n, seed=rng.randrange(1 << 30), r=4.0, coord_range=60)
        tel = solve_centroid(inst, mode="parametric").telemetry
        frac = tel["prune_min_fraction"]
        if frac is not None:
            fractions_seen += 1
            assert frac >= 1.0 / 2.0, (trial, frac)
        wires = tel["lt_wires"]
        if wires and wires > 1:
            lt_seen += 1
            bound = 3 * math.ceil(math.log2(wires)) + 4
            assert tel["lt_oracle"] <= bound, (trial, wires, tel["lt_oracle"])
        mass0 = tel["lm_mass0"]
        if mass0:
            lm_seen += 1
            bound = math.floor(math.log2(mass0)) + 1
            assert tel["lm_rounds"] <= bound, (trial, mass0, tel["lm_rounds"])
    assert lt_seen > 0 and lm_seen > 0 and fractions_seen > 0


@pytest.mark.scaling
def test_scaling_doubles_below_budget():
    """Doubling n from 100 to 200 to 400 grows the parametric solve time by
    at most 5.5x per doubling (two runs per size, fastest kept; brute-force
    modes are never run at these sizes)."""
    times = {}
    for n, coord_range in ((100, 150), (200, 300), (400, 500)):
        inst = generate_instance(n, seed=7, r=4.0, coord_range=coord_range)
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            rep = solve_centroid(inst, mode="parametric")
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert rep.telemetry["certified"] is None or rep.weight_loss >= 0.0
        times[n] = best
    for small, large in ((100, 200), (200, 400)):
        factor = times[large] / max(times[small], 0.05)
        assert factor <= 5.5, (times, factor)


@pytest.mark.scaling
def test_search_scaling_doubles_below_budget():
    """The same gate on instances that reach no certificate, so it times the
    search itself (the series above certifies at n=400): doubling n from 100
    to 200 to 400 grows the parametric solve time by at most 5.5x per
    doubling (two runs per size, fastest kept)."""
    times = {}
    for n in (100, 200, 400):
        inst = generate_instance(n, seed=1, r=4.0, coord_range=2 * n)
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            rep = solve_centroid(inst, mode="parametric")
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert rep.telemetry["certified"] is None, (n, rep.telemetry["certified"])
        times[n] = best
    for small, large in ((100, 200), (200, 400)):
        factor = times[large] / max(times[small], 0.05)
        assert factor <= 5.5, (times, factor)
