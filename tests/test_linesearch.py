"""Tests for a line's breakpoint array and the prune search along a line."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import support
from rivalloc import linesearch
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    Customer,
    DegenerateInputError,
    DirectedLine,
    Instance,
    Point,
)
from rivalloc.linesearch import (
    PARALLEL_EPS,
    CertifiedOptimum,
    Telemetry,
    _explicit_crossings,
    build_angular_index,
    breakpoint_sequences,
    local_optimum_on_line,
    upward_line,
)
from rivalloc.medianoid import DOWNWARD, UPWARD, solve_medianoid

COVERAGE_TOL = 1e-6

t_along = support.t_along
expected_positions = support.expected_positions


def sorted_positions(P):
    return sorted(P.tolist())


class TestAngularIndex:
    def test_collinear_sites_share_a_polar_angle(self):
        inst = Instance(
            [Customer(Point(0, 0), 1.0), Customer(Point(1, 1), 1.0), Customer(Point(2, 2), 1.0)],
            2.0,
        )
        with pytest.raises(DegenerateInputError, match="share the polar angle"):
            build_angular_index(inst)

    @staticmethod
    def _near_duplicate_angle_case(seed):
        """Sites, some of them put on the line through two others and then
        turned about the first by an angle around ``ANGLE_DUP_EPS``; every
        fourth case stays on a small integer grid, where angles tie
        exactly."""
        rng = random.Random(seed)
        n = rng.randint(3, 16)
        if seed % 4 == 0:
            pts = rng.sample([(float(x), float(y)) for x in range(-6, 7) for y in range(-6, 7)], n)
        else:
            pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
            for _ in range(rng.randint(1, 2)):
                i, j, k = rng.sample(range(n), 3)
                (ax, ay), (bx, by) = pts[i], pts[j]
                t = rng.choice([-2.0, -0.5, 0.5, 1.5, 3.0])
                turn = rng.choice([0.0, 1.0, -1.0]) * rng.choice([0.3, 0.9, 1.1, 3.0, 30.0]) * 1e-12
                c, s = math.cos(turn), math.sin(turn)
                vx, vy = t * (bx - ax), t * (by - ay)
                pts[k] = (ax + c * vx - s * vy, ay + s * vx + c * vy)
        return Instance([Customer(Point(x, y), 1.0) for x, y in pts], 2.0)

    def test_duplicate_angle_scan_matches_the_loop_reference(self):
        raised = 0
        for seed in range(400):
            inst = self._near_duplicate_angle_case(seed)
            want = support.reference_duplicate_angle(inst)
            try:
                build_angular_index(inst)
                got = None
            except DegenerateInputError as err:
                got = str(err)
            assert got == want, seed
            raised += want is not None
        # Both outcomes are exercised in quantity.
        assert 100 < raised < 350

    def test_tangent_lines_touch_both_discs(self):
        inst = generate_instance(5, seed=77, r=4.0)
        idx = build_angular_index(inst)
        r = inst.r
        for i in range(inst.n):
            for j in range(inst.n):
                if i == j:
                    continue
                line = idx.tangent_line(i, j)
                for k in (i, j):
                    c = inst.customers[k].site
                    ux, uy = line.direction
                    d = abs(ux * (c.y - line.anchor.y) - uy * (c.x - line.anchor.x))
                    assert d == pytest.approx(r, abs=1e-7)


class TestBreakpointSequences:
    def test_single_pair_far_line(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(7.0, 3.0), 2.0)], 2.0
        )
        L = DirectedLine.vertical(-1000.0)
        idx = build_angular_index(inst)
        got = sorted_positions(breakpoint_sequences(idx, L))
        # two tangent lines cross L, each listed once; the discs are nowhere
        # near L
        assert len(got) == 2
        assert got[0] != got[1]
        want = expected_positions(inst, L)
        assert got == pytest.approx(want, abs=COVERAGE_TOL)

    def test_coverage_and_strict_order(self):
        """The array holds every brute-force crossing once, and the search
        evaluates positions in strictly shrinking open intervals: each
        evaluation lies strictly between the last upward and the last
        downward one, and once the search is exhausted no breakpoint lies
        strictly between them."""
        rng = random.Random(21)
        exhausted = 0
        for trial in range(40):
            inst = support.seeded_instance(
                3000 + trial, n_lo=2, n_hi=9, r_choices=(2.0, 4.0)
            )
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            P = breakpoint_sequences(idx, L)
            got = sorted_positions(P)
            want = expected_positions(inst, L)
            assert len(got) == len(want), (trial, len(got), len(want))
            scale = max(1.0, max(map(abs, want), default=1.0))
            for g, w in zip(got, want):
                assert abs(g - w) <= COVERAGE_TOL * scale, (trial, g, w)
            lo, hi = -np.inf, np.inf
            try:
                done = support.evaluations(inst, upward_line(L), P, Telemetry())
            except CertifiedOptimum:
                continue
            for t, _, _, d in done:
                assert lo < t < hi, (trial, lo, t, hi)
                if d == UPWARD:
                    lo = t
                elif d == DOWNWARD:
                    hi = t
                else:
                    break
            else:
                exhausted += 1
                assert not any(lo < t < hi for t in got), (trial, lo, hi)
        assert exhausted > 0

    def test_breakpoints_lie_on_the_line(self):
        inst = generate_instance(6, seed=99, r=2.0)
        L = DirectedLine(Point(3.0, -2.0), 1.1)
        idx = build_angular_index(inst)
        ux, uy = L.direction
        line = upward_line(L)
        for t in sorted_positions(breakpoint_sequences(idx, L)):
            p = line.point_at(t)
            off = ux * (p.y - L.anchor.y) - uy * (p.x - L.anchor.x)
            assert abs(off) <= 1e-6

    def test_horizontal_line_rejected(self):
        inst = generate_instance(3, seed=1, r=2.0)
        idx = build_angular_index(inst)
        with pytest.raises(ValueError, match="horizontal"):
            breakpoint_sequences(idx, DirectedLine.horizontal(5.0))


def _query_lines(idx, rng):
    """Tangent lines of the first few pairs (their own direction is among
    the stored tangent directions, so some must be dropped as parallel),
    vertical lines through sites, and random non-horizontal lines."""
    lines = []
    for i in range(min(idx.n, 4)):
        for j in range(min(idx.n, 4)):
            if i != j and abs(np.sin(idx.ang[i, j])) > PARALLEL_EPS:
                lines.append(idx.tangent_line(i, j))
    lines += [DirectedLine.vertical(float(x)) for x in idx.xs[:3]]
    spread = 2.0 * float(np.max(np.abs(idx.xs))) + 1.0
    lines += [support.non_horizontal_line(rng, spread) for _ in range(4)]
    return lines


def _bits(values):
    return np.sort(np.asarray(values, dtype=float)).tobytes()


class TestTangentSequences:
    def test_array_build_matches_the_loop_reference(self):
        """The tangent crossings at the head of a line's breakpoint array
        are, in order and bitwise, those of the per-pair loop, with the
        directions parallel to the line dropped, for discs apart, touching
        and overlapping."""
        rng = random.Random(4)
        regimes = {"apart": 0, "touching": 0, "overlapping": 0}
        lines_with_parallel = 0
        for n in list(range(1, 41)) + [200]:
            base = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            Rs = [2.0, 3.0 * (n + 10)]
            if n > 1:
                Rs.append(float(np.hypot(base.xs[1] - base.xs[0], base.ys[1] - base.ys[0])))
            # Discs mostly apart, mostly overlapping, and one pair at rho == 2r.
            for R in Rs:
                inst = Instance(base.customers, R)
                idx = build_angular_index(inst)
                for L in _query_lines(idx, rng):
                    line = upward_line(L)
                    got = breakpoint_sequences(idx, L)
                    head = len(got) - len(_explicit_crossings(idx, line))
                    want = support.reference_tangent_crossings(idx, line)
                    assert got.dtype == want.dtype, (n, R, L)
                    assert got[:head].tobytes() == want.tobytes(), (n, R, L)
                    par = np.abs(np.sin(idx.ang - line.angle)) <= PARALLEL_EPS
                    lines_with_parallel += bool(par.any())
                off = ~np.eye(n, dtype=bool)
                dist = np.hypot(idx.xs[None, :] - idx.xs[:, None],
                                idx.ys[None, :] - idx.ys[:, None])[off]
                regimes["apart"] += int(np.sum(dist > R))
                regimes["touching"] += int(np.sum(dist == R))
                regimes["overlapping"] += int(np.sum(dist < R))
        assert all(count > 0 for count in regimes.values()), regimes
        assert lines_with_parallel > 100


class TestPositionTable:
    def test_positions_cuts_and_explicit_crossings_match_the_per_step_reference(
        self, monkeypatch
    ):
        """The circle crossings are bitwise those of the per-customer loop, the whole array is, as a multiset, the per-pair
        and per-customer crossings, and the search's lower-median cuts
        evaluate bitwise the positions a per-step sorted-list reference
        picks under the same random series of leans."""
        rng = random.Random(5)
        leans = []

        def scripted_lean(result, up_angle):
            return leans.pop()

        # Results that certify nothing; the scripted leans steer the cuts.
        plain = SimpleNamespace(strong_centroid=False)
        monkeypatch.setattr(
            linesearch, "solve_medianoid_many", lambda inst, points: [plain] * len(points)
        )
        monkeypatch.setattr(linesearch, "lean", scripted_lean)
        cuts = tangencies = 0
        for n in list(range(1, 41)) + [200]:
            inst = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            idx = build_angular_index(inst)
            # A vertical line touching a disc adds a tangency.
            lines = _query_lines(idx, rng) + [
                DirectedLine.vertical(float(idx.xs[-1]) + inst.r)
            ]
            for L in lines:
                line = upward_line(L)
                tan = support.reference_tangent_crossings(idx, line)
                got = breakpoint_sequences(idx, L)
                exp = _explicit_crossings(idx, line)
                want = support.reference_explicit_crossings(idx, line)
                assert exp.dtype == want.dtype, (n, L)
                assert exp.tobytes() == want.tobytes(), (n, L)
                assert _bits(got) == _bits(np.concatenate([tan, want])), (n, L)
                tangencies += len(exp) % 2
                # Per step: the lower median of the sorted survivors, then
                # keep only those strictly beyond it on the lean's side.
                ref = sorted(got.tolist())
                leans[:] = [rng.choice((UPWARD, DOWNWARD))
                            for _ in range(len(got).bit_length())]
                script = leans[::-1]
                tel = Telemetry()
                steps = 0
                for t, point, _, d in support.evaluations(inst, line, got, tel):
                    m = ref[(len(ref) - 1) // 2]
                    assert np.float64(t).tobytes() == np.float64(m).tobytes(), (n, L)
                    assert point == line.point_at(m)
                    assert d == script[steps]
                    ref = [v for v in ref if (v > m if d == UPWARD else v < m)]
                    steps += 1
                assert not ref, (n, L)
                assert tel.prune_iterations == steps == tel.medianoid_calls
                cuts += steps
        assert cuts > 2000 and tangencies > 0, (cuts, tangencies)


class TestLocalOptimum:
    def test_no_breakpoints_falls_back_to_anchor(self):
        inst = Instance([Customer(Point(0.0, 0.0), 3.0)], 2.0)
        L = DirectedLine.vertical(50.0)
        idx = build_angular_index(inst)
        point, loss = local_optimum_on_line(inst, idx, L, Telemetry())
        assert loss == 3.0
        assert point.x == 50.0

    def test_matches_brute_minimum_over_breakpoints(self):
        rng = random.Random(33)
        for trial in range(40):
            inst = support.seeded_instance(
                4000 + trial, n_lo=2, n_hi=8, r_choices=(2.0, 4.0)
            )
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            try:
                point, loss = local_optimum_on_line(inst, idx, L, Telemetry())
            except CertifiedOptimum as cert:
                # A strong centroid met on the line is its minimum as well.
                point, loss = cert.point, cert.weight_loss
            values = [
                solve_medianoid(inst, p).weight_loss
                for p, _ in support.line_breakpoints(inst, L)
            ]
            values.append(solve_medianoid(inst, L.anchor).weight_loss)
            assert loss == min(values), trial
            # the returned point actually lies on L and attains the value
            assert abs(t_along(L, point)) < 1e7
            assert solve_medianoid(inst, point).weight_loss == loss

    def test_prune_progress_at_least_one_half(self):
        """Every cut discards at least half of the surviving breakpoints (the
        positions strictly between the last upward and the last downward
        evaluation), a search of m breakpoints evaluates at most
        floor(log2 m) + 1 of them, and telemetry records the cuts."""
        rng = random.Random(44)
        saw_iterations = 0
        for trial in range(15):
            inst = support.seeded_instance(5000 + trial, n_lo=6, n_hi=10)
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            P = breakpoint_sequences(idx, L)
            tel = Telemetry()
            lo, hi = -np.inf, np.inf
            masses = []
            evals = 0
            for t, _, _, d in support.evaluations(inst, upward_line(L), P, tel):
                evals += 1
                masses.append(int(np.sum((P > lo) & (P < hi))))
                if d == UPWARD:
                    lo = t
                elif d == DOWNWARD:
                    hi = t
                else:
                    break
            else:
                masses.append(int(np.sum((P > lo) & (P < hi))))
            fractions = []
            for mass, left in zip(masses, masses[1:]):
                pruned = mass - left
                assert pruned * 2 >= mass, (trial, mass, pruned)
                fractions.append(pruned / mass)
            assert evals <= len(P).bit_length(), (trial, masses)
            assert tel.prune_iterations == len(fractions)
            assert tel.prune_min_fraction == min(fractions, default=None)
            saw_iterations += len(fractions)
        assert saw_iterations > 0


class TestTelemetry:
    def test_undeclared_counter_raises(self):
        tel = Telemetry()
        tel.lm_rounds += 1
        with pytest.raises(AttributeError):
            tel.lm_round = 1
        with pytest.raises(AttributeError):
            tel.lm_round += 1
