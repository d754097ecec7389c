"""Tests for the follower best-response solver."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from rivalloc import medianoid
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, normalize_angle
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    classify_wedge_on_line,
    least_loss,
    solve_medianoid,
    sweep,
)
from rivalloc.oracle import brute_medianoid

TWO_PI = 2.0 * math.pi

arc_contains = support.arc_contains
capture_arc = support.capture_arc
classify_wedge_on_vertical = support.classify_wedge_on_vertical
weight_at_angle = support.weight_at_angle


def scan_result(x, arcs, best):
    """The result at x whose maximizing gaps, in angular order, are
    ``arcs`` and whose weight loss is ``best``, by the scalar covering-gap
    scan."""
    return medianoid.as_result(x, best, *support.cover(arcs))


def losses_at(inst, points):
    """The weight losses alone at ``points``, from one sweep."""
    xs = np.array([p.x for p in points], dtype=float)
    ys = np.array([p.y for p in points], dtype=float)
    return sweep(inst, xs, ys, losses=True).tolist()


def make_instance(sites_weights, R):
    return Instance([Customer(Point(x, y), w) for x, y, w in sites_weights], R)


class TestCaptureArc:
    def test_unit_example_exact_endpoints(self):
        # site two radii away on the +x axis: the arc is centered on angle 0
        # with half width arccos(1/2) = pi/3
        arc = capture_arc(Customer(Point(2.0, 0.0), 1.0), Point(0.0, 0.0), 2.0)
        assert arc is not None
        begin, end = arc
        assert begin == pytest.approx(5.0 * math.pi / 3.0, abs=1e-12)
        assert end == pytest.approx(5.0 * math.pi / 3.0 + 2.0 * math.pi / 3.0, abs=1e-12)
        assert begin == pytest.approx(5.235987755982988, abs=1e-12)
        assert end == pytest.approx(7.330382858376184, abs=1e-12)

    def test_boundary_and_interior_sites_are_not_capturable(self):
        x = Point(1.0, 2.0)
        assert capture_arc(Customer(Point(1.0, 3.0), 1.0), x, 2.0) is None  # d = r
        assert capture_arc(Customer(Point(1.2, 2.1), 1.0), x, 2.0) is None  # inside

    def test_tie_band_shrinks_the_arc(self):
        v = Customer(Point(2.0, 0.0), 1.0)
        plain = capture_arc(v, Point(0.0, 0.0), 2.0)
        banded = capture_arc(v, Point(0.0, 0.0), 2.0, eps=1e-6)
        assert banded[0] > plain[0]
        assert banded[1] < plain[1]

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError, match="R must be positive"):
            capture_arc(Customer(Point(2.0, 0.0), 1.0), Point(0.0, 0.0), 0.0)

    @pytest.mark.parametrize("d", [1.001, 1.5, 3.0, 50.0])
    def test_width_matches_projection_geometry(self, d):
        arc = capture_arc(Customer(Point(d, 0.0), 1.0), Point(0.0, 0.0), 2.0)
        width = arc[1] - arc[0]
        assert width == pytest.approx(2.0 * math.acos(1.0 / d), abs=1e-12)


class TestSolveMedianoid:
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_non_finite_leader_raises(self, axis, v):
        inst = make_instance([(0.0, 0.0, 1.0), (3.0, 1.0, 2.0), (-2.0, 5.0, 1.5)], 2.0)
        x = Point(v, 0.0) if axis == "x" else Point(0.0, v)
        with pytest.raises(ValueError, match="leader point must be finite"):
            solve_medianoid(inst, x)

    def test_two_customers_close_pair(self):
        inst = make_instance([(0.0, 0.0, 1.0), (2.0, 0.0, 1.0)], 2.0)
        res = solve_medianoid(inst, Point(0.0, 0.0))
        assert res.weight_loss == 1.0

    def test_two_customers_split_from_middle(self):
        inst = make_instance([(0.0, 0.0, 1.0), (10.0, 0.0, 1.0)], 2.0)
        res = solve_medianoid(inst, Point(5.0, 0.0))
        assert res.weight_loss == 1.0

    def test_tight_triangle_fully_protected(self):
        h = math.sqrt(3.0) / 2.0
        inst = make_instance(
            [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, h, 1.0)], 4.0
        )
        res = solve_medianoid(inst, Point(0.5, h / 3.0))
        assert res.weight_loss == 0.0
        assert res.strong_centroid

    def test_weights_drive_the_choice(self):
        inst = make_instance([(0.0, 0.0, 5.0), (10.0, 0.0, 2.0)], 2.0)
        res = solve_medianoid(inst, Point(9.0, 0.0))
        # the heavy far customer is capturable in full
        assert res.weight_loss == 5.0

    def test_rejects_nonpositive_separation(self):
        """R = 0 is refused where the instance is built, before any sweep."""
        inst = make_instance([(0.0, 0.0, 1.0)], 2.0)
        with pytest.raises(ValueError, match="R must be positive"):
            Instance(inst.customers, 0.0)

    def test_witness_attains_the_weight_loss(self):
        rng = random.Random(7)
        for k in range(25):
            inst = generate_instance(rng.randint(2, 8), seed=400 + k, r=2.0)
            x = Point(rng.uniform(-30, 30), rng.uniform(-30, 30))
            res = solve_medianoid(inst, x)
            assert weight_at_angle(inst, x, res.witness_angle) == res.weight_loss

    def test_maximizing_arcs_attain_and_bound(self):
        # The wedge's end angles are where the first maximizing arc of the
        # covering interval begins and its last one ends; the arcs are
        # open, so just inside each end the loss is attained.
        rng = random.Random(8)
        checked = 0
        for k in range(25):
            inst = generate_instance(rng.randint(2, 7), seed=500 + k, r=4.0)
            x = Point(rng.uniform(-25, 25), rng.uniform(-25, 25))
            res = solve_medianoid(inst, x)
            if res.wedge is None:
                continue
            delta = 1e-9
            assert weight_at_angle(inst, x, res.wedge.theta_b + delta) == res.weight_loss
            assert weight_at_angle(inst, x, res.wedge.theta_e - delta) == res.weight_loss
            checked += 1
        assert checked >= 10

    def test_angles_outside_covering_interval_fall_short(self):
        rng = random.Random(9)
        checked = 0
        for k in range(40):
            inst = generate_instance(rng.randint(2, 7), seed=600 + k, r=2.0)
            x = Point(rng.uniform(-25, 25), rng.uniform(-25, 25))
            res = solve_medianoid(inst, x)
            if res.wedge is None:
                continue
            free = res.wedge.theta_b + TWO_PI - res.wedge.theta_e
            for frac in (0.25, 0.5, 0.75):
                theta = res.wedge.theta_e + frac * free
                assert weight_at_angle(inst, x, theta) < res.weight_loss
            checked += 1
        assert checked >= 10

    def test_covering_interval_tie_picks_smallest_begin(self):
        # Perfectly opposed customers leave two equal inter-arc gaps, but
        # their covering interval spans more than pi: no wedge.
        inst = make_instance([(6.0, 0.0, 1.0), (-6.0, 0.0, 1.0)], 2.0)
        res = solve_medianoid(inst, Point(0.0, 0.0))
        assert res.weight_loss == 1.0
        assert res.strong_centroid
        # Two zero-width arcs pi apart tie with a covering interval of
        # exactly pi, the only tie that leaves a wedge; it must take the
        # smaller begin, although the loop meets the larger one first.
        x = Point(0.0, 0.0)
        for begin in (0.5, 2.0):
            arcs = [(begin, begin), (begin + math.pi, begin + math.pi)]
            wedge = scan_result(x, arcs, 1.0).wedge
            assert wedge is not None
            assert wedge.theta_b == begin
            assert wedge.theta_e == pytest.approx(begin + math.pi, abs=1e-12)
            assert wedge.ccw_span == pytest.approx(0.0, abs=1e-12)
            a, b = np.array(arcs).T
            got = medianoid._covering(np.zeros(2, dtype=int), a, b, a + (b - a) / 2.0, 1)
            assert tuple(v.item() for v in got) == support.cover(arcs)


class TestWedge:
    def test_outside_points_are_no_better(self):
        rng = random.Random(10)
        for k in range(20):
            inst = generate_instance(rng.randint(3, 7), seed=700 + k, r=4.0)
            x = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            res = solve_medianoid(inst, x)
            if res.wedge is None:
                continue
            for _ in range(50):
                p = Point(rng.uniform(-60, 60), rng.uniform(-60, 60))
                if not support.wedge_contains(res.wedge, p):
                    assert solve_medianoid(inst, p).weight_loss >= res.weight_loss

    def test_vertical_classification_consistent_with_line_form(self):
        rng = random.Random(11)
        seen = set()
        for k in range(40):
            inst = generate_instance(rng.randint(3, 7), seed=800 + k, r=2.0)
            x = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            res = solve_medianoid(inst, x)
            if res.wedge is None:
                continue
            a = classify_wedge_on_vertical(res.wedge, x.x)
            b = classify_wedge_on_line(res.wedge, math.pi / 2.0)
            assert a == b
            seen.add(a)
        assert {UPWARD, DOWNWARD} <= seen | {SIDEWARD_LEFT, SIDEWARD_RIGHT}


    def test_line_classification_matches_the_cone_reference(self):
        """``classify_wedge_on_line`` reads the lean with ``lean_code``, as
        the line searches do; it must give the per-call cone test's answer
        for lines in every direction, those along a cone side included."""
        rng = random.Random(13)
        seen = set()
        for k in range(60):
            inst = generate_instance(rng.randint(3, 9), seed=1300 + k, r=rng.choice((2.0, 4.0)))
            res = solve_medianoid(inst, Point(rng.uniform(-20, 20), rng.uniform(-20, 20)))
            if res.wedge is None:
                continue
            lo, span = res.wedge.cone
            ups = [rng.uniform(0.0, math.pi) for _ in range(20)]
            ups += [normalize_angle(lo + e) % math.pi for e in (0.0, span, 1e-13, -1e-13)]
            for up in ups:
                got = classify_wedge_on_line(res.wedge, up)
                assert got == support.reference_classify(res.wedge, up), (k, up)
                seen.add(got)
        assert {UPWARD, DOWNWARD, SIDEWARD_LEFT, SIDEWARD_RIGHT} <= seen, seen


class TestAgainstDirectCounting:
    def test_sweep_matches_direct_half_plane_sums(self):
        rng = random.Random(12)
        for k in range(30):
            inst = generate_instance(rng.randint(1, 8), seed=900 + k, r=4.0)
            x = Point(rng.uniform(-30, 30), rng.uniform(-30, 30))
            theta = rng.uniform(0.0, TWO_PI)
            direct = sum(
                c.weight
                for c in inst.customers
                if (c.site.x - x.x) * math.cos(theta) + (c.site.y - x.y) * math.sin(theta)
                > inst.r + inst.eps
            )
            assert weight_at_angle(inst, x, theta) == direct

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [62, 63, 64, 65, 90])
    def test_vectorized_sweep_threshold_is_invisible(self, n):
        """A block of points gives, field for field, what one call per point
        gives, its losses alone equal theirs, and the losses of the
        independent oracle.  The block holds
        SWEEP_BLOCK // (2n) points (66, 66, 64, 63 and 45 here), so the
        points cross block boundaries; they include customer sites (a leader
        on a site, d = 0), and points of a second instance with R so large
        that nothing is capturable, block-wide or in single rows."""
        inst = generate_instance(n, seed=1234, r=2.0, coord_range=120)
        rng = random.Random(n)
        size = medianoid.SWEEP_BLOCK // (2 * n)
        points = [c.site for c in inst.customers[:10]]
        points += [Point(rng.uniform(-130, 130), rng.uniform(-130, 130))
                   for _ in range(2 * size + 7 - len(points))]
        block = support.sweep_results(inst, points)
        assert len(block) == len(points) > 2 * size
        for x, res in zip(points, block):
            assert res == solve_medianoid(inst, x), x
        assert losses_at(inst, points) == [res.weight_loss for res in block]
        for x, res in list(zip(points, block))[::7]:
            assert res.weight_loss == brute_medianoid(inst, x)[0], x

        # R = 400 covers the whole cloud from near its centre: those rows
        # capture nothing; the far points capture something.
        wide = Instance(inst.customers, 400.0)
        near = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(size + 2)]
        points = near[:size] + [Point(900.0 + k, -900.0) for k in range(3)] + near
        block = support.sweep_results(wide, points)
        assert sum(res.weight_loss == 0.0 and res.strong_centroid for res in block) == 2 * size + 2
        assert losses_at(wide, points) == [res.weight_loss for res in block]
        for x, res in zip(points, block):
            assert res == solve_medianoid(wide, x), x
            assert res.weight_loss == brute_medianoid(wide, x)[0], x

    def test_numpy_sweep_matches_the_full_gap_reference(self):
        # The block sweep re-sums only the gaps near the row maximum; its
        # maximizing gaps and loss must equal the reference's over all gaps
        # summed exactly, and so must every derived field.
        rng = random.Random(64)
        cases = 0
        multi = 0
        for n, seed in ((64, 3), (97, 4), (200, 5)):
            inst = generate_instance(n, seed=seed, r=4.0, coord_range=2 * n)
            # Sites, points inside the cloud (where the maximum is more
            # often attained on several gaps) and points around it.
            points = [c.site for c in inst.customers[:20]]
            for spread, count in ((0.2 * n, 100), (3.0 * n, 50)):
                points += [
                    Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
                    for _ in range(count)
                ]
            for x, res in zip(points, support.sweep_results(inst, points)):
                gaps, best = support.reference_sweep(inst, x)
                ma = [g for g, w in gaps if w == best]
                # Every field: weight, witness angle and wedge.
                assert res == scan_result(x, ma, best), x
                cases += 1
                multi += len(ma) > 1
        assert cases >= 500
        assert multi >= 20

    @pytest.mark.parametrize("n", [6, 7, 9, 12, 20, 33, 50, 90])
    def test_maximizing_set_is_exact_on_real_weights(self, n):
        """With real weights the running sums round, and gaps of equal exact
        weight can differ in their last bits: the maximizing arcs must be
        exactly the gaps whose ``math.fsum`` weight is the largest, so the
        result is the one built from those gaps."""
        rng = random.Random(1000 + n)
        base = generate_instance(n, seed=n, r=4.0, coord_range=2 * n)
        inst = Instance(
            [Customer(c.site, rng.choice((0.1, 0.2, 0.3, 0.7, 1.1))) for c in base.customers],
            4.0,
        )
        spread = 2.0 * n
        points = [c.site for c in inst.customers]
        points += [Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
                   for _ in range(250)]
        for x, res in zip(points, support.sweep_results(inst, points)):
            gaps, best = support.reference_sweep(inst, x)
            assert res.weight_loss == best, x
            assert res == scan_result(x, [g for g, w in gaps if w == best], best), x


class TestArraySweep:
    @staticmethod
    def _tied(arcs):
        """Whether the covering-gap scan over ``arcs`` meets two largest
        gaps between maximizing arcs within its 1e-12 tie band."""
        k = len(arcs)
        between = [
            max(arcs[(i + 1) % k][0] - arcs[i][1] + (TWO_PI if i == k - 1 else 0.0), 0.0)
            for i in range(k)
        ]
        return sum(max(between) - b <= 1e-12 for b in between) > 1

    @staticmethod
    def _cases():
        """Instances, each with leader points swept as one block: sites
        (a customer within r, a zero-width arc), points of symmetric
        configurations (tied gaps), points inside and around a cloud, and
        points where a wide separation leaves nothing capturable."""
        rng = random.Random(77)
        for k in (2, 3, 4, 6):
            ring = make_instance(
                [(8.0 * math.cos(TWO_PI * j / k), 8.0 * math.sin(TWO_PI * j / k), 1.0)
                 for j in range(k)], 2.0)
            yield ring, [Point(0.0, 0.0), Point(1e-13, 0.0), Point(0.5, -0.25)] + [
                c.site for c in ring.customers]
        for n, real in ((9, False), (9, True), (30, False), (30, True), (64, True)):
            inst = generate_instance(n, seed=n, r=4.0, coord_range=2 * n)
            if real:
                inst = Instance([Customer(c.site, rng.choice((0.1, 0.2, 0.3, 0.7, 1.1)))
                                 for c in inst.customers], 4.0)
            points = [c.site for c in inst.customers[:10]]
            for spread, count in ((0.2 * n, 60), (3.0 * n, 20)):
                points += [Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
                           for _ in range(count)]
            yield inst, points
            wide = Instance(inst.customers, 40.0 * n)
            yield wide, [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)] + [
                Point(100.0 * n, -100.0 * n)]

    def test_rows_match_the_oracle_and_the_scalar_scan(self):
        """Row by row, the block sweep's weight loss is the oracle's, and
        its witness angle and covering interval are what the scalar
        covering-gap scan gives on the reference's maximizing gaps; rows
        that capture nothing have loss and witness 0 and a span above pi.
        The rows include several maximizing gaps, ties within the scan's
        1e-12 band, zero-width arcs and nothing capturable."""
        seen = {"multi": 0, "tied": 0, "zero-width": 0, "nothing": 0, "one": 0}
        for inst, points in self._cases():
            xs = np.array([p.x for p in points])
            ys = np.array([p.y for p in points])
            rows = zip(*(col.tolist() for col in medianoid.sweep(inst, xs, ys)))
            for x, (loss, witness, theta_b, span) in zip(points, rows):
                assert loss == brute_medianoid(inst, x)[0], x
                d = np.hypot(inst.xs - x.x, inst.ys - x.y)
                seen["zero-width"] += bool(np.any(d <= inst.r + inst.eps))
                ref = support.reference_sweep(inst, x)
                if ref is None:
                    seen["nothing"] += 1
                    assert (loss, witness) == (0.0, 0.0) and span > math.pi, x
                    continue
                gaps, best = ref
                ma = [g for g, w in gaps if w == best]
                assert loss == best, x
                assert (witness, theta_b, span) == support.cover(ma), x
                seen["one" if len(ma) == 1 else "multi"] += 1
                seen["tied"] += self._tied(ma)
        assert all(count >= 5 for count in seen.values()), seen

    def test_array_covering_matches_the_sequential_scan(self, monkeypatch):
        """On 50,000 seeded leader points, on the integer lattice and off
        it, around instances of n 6-200 with R 1-20 and integer or real
        weights, and on the tied configurations of ``_cases``, the sweep of
        a block, and of single points from it, returns bitwise the four
        arrays it returns with ``_covering`` replaced by the sequential scan
        ``support.cover``."""
        rng = random.Random(2121)
        multi = 0

        def scan(rows, a, b, mid, k):
            nonlocal multi
            multi += int(np.count_nonzero(np.bincount(rows, minlength=k) > 1))
            return support.scan_covering(rows, a, b, mid, k)

        def compare(inst, xs, ys):
            # The block, and single points, where every row may have one gap.
            for sl in [slice(None)] + [slice(i, i + 1) for i in range(0, len(xs), 60)]:
                got = medianoid.sweep(inst, xs[sl], ys[sl])
                with monkeypatch.context() as m:
                    m.setattr(medianoid, "_covering", scan)
                    want = medianoid.sweep(inst, xs[sl], ys[sl])
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (inst.n, inst.R, sl)

        for inst, pts in self._cases():
            compare(inst, np.array([p.x for p in pts]), np.array([p.y for p in pts]))
        points = 0
        while points < 50_000:
            n = rng.randint(6, 200)
            R = rng.choice((1.0, 2.0, 3.0, 4.0, 7.5, 12.0, 20.0))
            c = rng.choice((1, 2, 4)) * n
            inst = generate_instance(n, seed=rng.randrange(1 << 20), r=R, coord_range=c)
            if rng.random() < 0.3:
                inst = Instance([Customer(v.site, rng.choice((0.1, 0.2, 0.3, 0.7, 1.1)))
                                 for v in inst.customers], R)
            xy = [(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(300)]
            xy += [(rng.uniform(-c, c), rng.uniform(-c, c)) for _ in range(300)]
            compare(inst, np.array([p[0] for p in xy], dtype=float),
                    np.array([p[1] for p in xy], dtype=float))
            points += len(xy)
        assert multi >= 1000, multi


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(-40, 40), st.floats(-40, 40))
def test_solver_equals_oracle_on_random_inputs(seed, px, py):
    rng = random.Random(seed)
    inst = generate_instance(rng.randint(1, 9), seed=seed, r=rng.choice([2.0, 4.0, 6.0]))
    res = solve_medianoid(inst, Point(px, py))
    loss, witness = brute_medianoid(inst, Point(px, py))
    assert res.weight_loss == loss
    assert weight_at_angle(inst, Point(px, py), witness) == loss


def test_arc_contains_handles_wraparound():
    arc = (5.5, 7.0)  # crosses zero: covers (5.5, 2*pi) and (0, 7.0 - 2*pi)
    assert arc_contains(arc, 6.0)
    assert arc_contains(arc, 0.5)
    assert not arc_contains(arc, 1.0)
    assert not arc_contains(arc, 5.5)


def test_least_loss_keeps_what_a_strict_scan_keeps():
    """On points with many repeated losses, repeated x, and -0.0 beside
    0.0, ``least_loss`` returns, bit for bit, the point and loss that a scan
    keeping each strictly smaller key (loss, x, y) keeps: the first of the
    least keys, where -0.0 and 0.0 compare equal."""
    rng = np.random.default_rng(23)
    values = np.array([-0.0, 0.0, -1.5, 1.5, 3.0])
    signed_ties = 0
    for trial in range(80):
        inst = generate_instance(int(rng.integers(3, 9)), seed=trial,
                                 r=float(rng.choice([2.0, 8.0, 40.0])), coord_range=6)
        xs = rng.choice(values, int(rng.integers(1, 40)))
        ys = rng.choice(values, len(xs))
        point, loss = least_loss(inst, xs, ys)
        keys = list(zip(sweep(inst, xs, ys, losses=True).tolist(), xs.tolist(), ys.tolist()))
        best = None
        for key in keys:
            if best is None or key < best:
                best = key
        assert (loss.hex(), point.x.hex(), point.y.hex()) == tuple(v.hex() for v in best), trial
        signed_ties += len({(math.copysign(1.0, x), math.copysign(1.0, y))
                            for x, y in (k[1:] for k in keys if k == best)}) > 1
    assert signed_ties >= 10, signed_ties
