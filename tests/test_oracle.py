"""Tests for the brute-force reference implementations."""

import math
import random

import pytest

import support
from rivalloc import brute_centroid, oracle, solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point
from rivalloc.medianoid import solve_medianoid
from rivalloc.oracle import brute_medianoid, enumerate_candidates


class TestBruteMedianoid:
    def test_single_capturable_customer(self):
        inst = Instance([Customer(Point(5.0, 0.0), 3.0)], 2.0)
        wl, theta = brute_medianoid(inst, Point(0.0, 0.0))
        assert wl == 3.0
        # the witness points at the customer closely enough to win it
        d = support.dist(Point(0.0, 0.0), Point(5.0, 0.0))
        assert abs(theta) <= math.acos(1.0 / d) + 1e-9

    def test_customer_inside_the_protected_disc(self):
        inst = Instance([Customer(Point(5.0, 0.0), 3.0)], 2.0)
        wl, _theta = brute_medianoid(inst, Point(4.5, 0.0))
        assert wl == 0.0

    def test_opposed_customers_cannot_be_combined(self):
        # capture arcs around 0 and pi with half-width arccos(1/3) do not
        # overlap, so the follower takes the heavier side alone
        inst = Instance(
            [Customer(Point(3.0, 0.0), 2.0), Customer(Point(-3.0, 0.0), 5.0)], 2.0
        )
        wl, _theta = brute_medianoid(inst, Point(0.0, 0.0))
        assert wl == 5.0

    def test_nearby_customers_combine(self):
        inst = Instance(
            [Customer(Point(4.0, 0.0), 2.0), Customer(Point(5.0, 1.0), 3.0)], 2.0
        )
        wl, _theta = brute_medianoid(inst, Point(0.0, 0.0))
        assert wl == 5.0

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_non_finite_leader_raises(self, axis, v):
        inst = Instance([Customer(Point(5.0, 0.0), 3.0), Customer(Point(-1.0, 4.0), 1.0)], 2.0)
        x = Point(v, 0.0) if axis == "x" else Point(0.0, v)
        with pytest.raises(ValueError, match="leader point must be finite"):
            brute_medianoid(inst, x)

    def test_matches_the_sweep_solver(self):
        import random

        rng = random.Random(5)
        for trial in range(20):
            inst = support.seeded_instance(30_000 + trial, n_lo=2, n_hi=8)
            x = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))
            wl, _ = brute_medianoid(inst, x)
            assert wl == solve_medianoid(inst, x).weight_loss, trial


def _points(blocks):
    """The candidate points of the blocks ``(xs, ys)``, in order."""
    return [(x, y) for xs, ys in blocks for x, y in zip(xs.tolist(), ys.tolist())]


class TestEnumerateCandidates:
    def test_two_customers_have_tangent_circle_crossings(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(10.0, 0.0), 1.0)], 2.0
        )
        # two parallel tangents never cross and the discs do not meet: the
        # candidates are where each tangent touches each circle
        got = sorted(_points(enumerate_candidates(inst)))
        assert got == [(0.0, -1.0), (0.0, 1.0), (10.0, -1.0), (10.0, 1.0)]


class TestBruteCentroid:
    def test_single_customer_is_free(self):
        inst = Instance([Customer(Point(2.0, 3.0), 4.0)], 2.0)
        rep = brute_centroid(inst)
        assert rep.weight_loss == 0.0

    def test_two_customers_concede_the_lighter(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(10.0, 0.0), 2.0)], 2.0
        )
        rep = brute_centroid(inst)
        assert rep.weight_loss == 1.0
        # the chosen point protects the heavier customer
        assert support.dist(rep.centroid, Point(10.0, 0.0)) <= inst.r + 1e-9

    def test_report_shape(self):
        inst = generate_instance(4, seed=2, r=4.0)
        rep = brute_centroid(inst)
        assert rep.solver == "brute"
        cands = len(_points(enumerate_candidates(inst)))
        assert rep.telemetry["medianoid_calls"] == cands + inst.n + 1
        check = solve_medianoid(inst, rep.centroid)
        assert check.weight_loss == rep.weight_loss

    def test_telemetry_has_the_keys_of_the_other_modes(self):
        """Every mode reports one ``Telemetry``: a brute report's keys are
        a parametric report's."""
        inst = generate_instance(5, seed=3, r=4.0)
        keys = set(solve_centroid(inst, "parametric").telemetry)
        assert set(brute_centroid(inst).telemetry) == keys
        assert set(solve_centroid(inst, "brute").telemetry) == keys

    def test_ties_break_lexicographically(self):
        inst = generate_instance(5, seed=14, r=2.0)
        rep = brute_centroid(inst)
        best = rep.weight_loss
        for x, y in _points(enumerate_candidates(inst)):
            res = solve_medianoid(inst, Point(x, y))
            if res.weight_loss == best:
                assert (rep.centroid.x, rep.centroid.y) <= (x, y)

    def test_memory_stays_flat_in_the_candidates(self):
        """Brute mode holds one block of candidates at a time: at n=24 its
        153,247 candidates would take 2.5 MB as coordinate arrays alone,
        and all of them held at once peaked at 21.9 MB."""
        inst = generate_instance(24, 1, r=2.0, coord_range=50)
        rep, peak = support.traced_peak(brute_centroid, inst)
        assert rep.weight_loss == 74.0
        assert peak < 4_000_000, peak


def _tangent_instance(R, sites):
    return Instance([Customer(Point(x, y), float(w)) for w, (x, y) in enumerate(sites, 1)], R)


def _real_instance(n, seed):
    rng = random.Random(seed)
    return Instance([Customer(Point(rng.uniform(-2 * n, 2 * n), rng.uniform(-2 * n, 2 * n)),
                              float(rng.randint(1, 10))) for _ in range(n)], 4.0)


# Seeded instances of every size up to 16; integer-grid discs of which
# several pairs touch exactly (centres 2r apart), so that tangent lines
# coincide and circles touch once; real coordinates.
ENUMERATION_CASES = [("seeded n=%d" % n, lambda n=n: generate_instance(n, seed=n, r=4.0))
                     for n in range(1, 17)] + [
    ("touching square", lambda: _tangent_instance(4.0, [(0, 0), (4, 0), (4, 4), (0, 4), (9, 7)])),
    ("touching chain", lambda: _tangent_instance(
        10.0, [(0, 0), (6, 8), (14, 2), (8, -6), (0, 10), (-6, 18)])),
    ("real n=10", lambda: _real_instance(10, 3)),
]


# Grid and real coordinates from one customer up, and the touching cases,
# whose pairs sharing a coordinate give axis-parallel tangent lines.
TANGENT_CASES = [("seeded n=%d" % n, lambda n=n: generate_instance(n, seed=n, r=4.0))
                 for n in (1, 2, 3, 9, 14)] + [
    ("real n=%d" % n, lambda n=n: _real_instance(n, n)) for n in (1, 2, 6, 12)
] + [case for case in ENUMERATION_CASES if case[0].startswith("touching")]


@pytest.mark.parametrize("make", [m for _, m in TANGENT_CASES],
                         ids=[name for name, _ in TANGENT_CASES])
def test_tangent_arrays_match_the_scalar_construction(make):
    """The anchors and directions of the tangent lines the enumeration
    builds are, bitwise and in order, those of ``support.outer_tangents``
    over the pairs i < j."""
    inst = make()
    want = [(L.anchor.x, L.anchor.y) + L.direction for L in support.all_tangent_lines(inst)]
    got = list(zip(*(a.tolist() for a in oracle._tangent_lines(inst))))
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_enumeration_rejects_a_zero_separation(n):
    """R = 0 is refused where the instance is built, before any enumeration."""
    with pytest.raises(ValueError, match="R must be positive"):
        Instance(generate_instance(n, seed=3).customers, 0.0)


def _bits(blocks):
    return [(x.hex(), y.hex()) for x, y in _points(blocks)]


def _brute_report(inst):
    rep = brute_centroid(inst)
    telemetry = dict(rep.telemetry)
    del telemetry["wall_time_s"]
    return (rep.centroid.x.hex(), rep.centroid.y.hex(), rep.weight_loss.hex(),
            rep.witness_angle.hex(), telemetry)


@pytest.mark.parametrize("make", [m for _, m in ENUMERATION_CASES],
                         ids=[name for name, _ in ENUMERATION_CASES])
def test_array_enumeration_matches_the_scalar_reference(monkeypatch, make):
    """The candidate points, bitwise and in order, and the brute report
    built on them are those of the per-pair scalar loop."""
    inst = make()
    want = support.reference_enumerate_candidates(inst)
    assert _bits(enumerate_candidates(inst)) == _bits(want)
    report = _brute_report(inst)
    monkeypatch.setattr(oracle, "enumerate_candidates", support.reference_enumerate_candidates)
    assert _brute_report(inst) == report
