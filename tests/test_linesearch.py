"""Tests for breakpoint sequences and the prune search along a line."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    Customer,
    DegenerateInputError,
    DirectedLine,
    Instance,
    Point,
)
from rivalloc.linesearch import (
    Telemetry,
    build_angular_index,
    breakpoint_sequences,
    local_optimum_on_line,
    weighted_median,
)
from rivalloc.medianoid import solve_medianoid

COVERAGE_TOL = 1e-6

t_along = support.t_along
sequence_positions = support.sequence_positions
expected_positions = support.expected_positions


def median_of(items):
    values = np.array([v for v, _ in items], dtype=float)
    weights = np.array([w for _, w in items], dtype=float)
    return weighted_median(values, weights)


class TestWeightedMedian:
    @pytest.mark.parametrize(
        "items,expected",
        [
            ([(5.0, 1.0)], 5.0),
            ([(1.0, 1.0), (2.0, 1.0)], 1.0),
            ([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], 2.0),
            ([(1.0, 1.0), (10.0, 9.0)], 10.0),
            ([(10.0, 9.0), (1.0, 1.0)], 10.0),
            ([(3.0, 2.0), (7.0, 1.0), (9.0, 1.0)], 3.0),
        ],
    )
    def test_fixed_tables(self, items, expected):
        assert median_of(items) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_of([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            median_of([(1.0, 1.0), (2.0, -1.0)])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(1, 9)),
            min_size=1,
            max_size=30,
        )
    )
    def test_matches_prefix_sum_definition(self, raw):
        items = [(float(v), float(w)) for v, w in raw]
        got = median_of(items)
        total = sum(w for _, w in items)
        acc = 0.0
        want = None
        for v, w in sorted(items):
            acc += w
            if acc >= total / 2.0:
                want = v
                break
        assert got == want


class TestAngularIndex:
    def test_collinear_sites_share_a_polar_angle(self):
        inst = Instance(
            [Customer(Point(0, 0), 1.0), Customer(Point(1, 1), 1.0), Customer(Point(2, 2), 1.0)],
            2.0,
        )
        with pytest.raises(DegenerateInputError, match="share the polar angle"):
            build_angular_index(inst)

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
        got = sequence_positions(breakpoint_sequences(idx, L))
        # two tangent lines cross L, each listed once per endpoint customer;
        # the discs are nowhere near L
        assert len(got) == 4
        assert got[0] == got[1] and got[2] == got[3]
        want = expected_positions(inst, L)
        assert got == pytest.approx(want, abs=COVERAGE_TOL)

    def test_coverage_and_strict_order(self):
        rng = random.Random(21)
        for trial in range(40):
            inst = support.seeded_instance(
                3000 + trial, n_lo=2, n_hi=9, r_choices=(2.0, 4.0)
            )
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            bundle = breakpoint_sequences(idx, L)
            got = sequence_positions(bundle)
            want = expected_positions(inst, L)
            assert len(got) == len(want), (trial, len(got), len(want))
            scale = max(1.0, max(map(abs, want), default=1.0))
            for g, w in zip(got, want):
                assert abs(g - w) <= COVERAGE_TOL * scale, (trial, g, w)
            for ts in support.bundle_sequences(bundle):
                assert all(a > b for a, b in zip(ts, ts[1:])), (trial, ts[:6])

    def test_breakpoints_lie_on_the_line(self):
        inst = generate_instance(6, seed=99, r=2.0)
        L = DirectedLine(Point(3.0, -2.0), 1.1)
        idx = build_angular_index(inst)
        ux, uy = L.direction
        bundle = breakpoint_sequences(idx, L)
        for t in sequence_positions(bundle):
            p = bundle.point_at(t)
            off = ux * (p.y - L.anchor.y) - uy * (p.x - L.anchor.x)
            assert abs(off) <= 1e-6

    def test_extra_lines_become_breakpoints(self):
        inst = generate_instance(4, seed=55, r=2.0)
        L = DirectedLine.vertical(0.0)
        extra = DirectedLine.horizontal(123.0)
        idx = build_angular_index(inst)
        base = sequence_positions(breakpoint_sequences(idx, L))
        plus = sequence_positions(breakpoint_sequences(idx, L, extra_lines=(extra,)))
        assert len(plus) == len(base) + 1
        assert 123.0 in plus

    def test_copy_is_cut_independently(self):
        inst = generate_instance(6, seed=99, r=2.0)
        bundle = breakpoint_sequences(build_angular_index(inst), DirectedLine.vertical(1.5))
        before = sequence_positions(bundle)
        cut = bundle.copy()
        cut.cut_keep_below(before[-2])
        cut.cut_keep_above(before[len(before) // 2])
        assert 0 < cut.total_mass() < len(before)
        assert sequence_positions(bundle) == before

    def test_horizontal_line_rejected(self):
        inst = generate_instance(3, seed=1, r=2.0)
        idx = build_angular_index(inst)
        with pytest.raises(ValueError, match="horizontal"):
            breakpoint_sequences(idx, DirectedLine.horizontal(5.0))


class TestLocalOptimum:
    def test_no_breakpoints_falls_back_to_anchor(self):
        inst = Instance([Customer(Point(0.0, 0.0), 3.0)], 2.0)
        L = DirectedLine.vertical(50.0)
        idx = build_angular_index(inst)
        opt = local_optimum_on_line(inst, idx, L)
        assert opt.weight_loss == 3.0
        assert opt.point.x == 50.0

    def test_matches_brute_minimum_over_breakpoints(self):
        rng = random.Random(33)
        for trial in range(40):
            inst = support.seeded_instance(
                4000 + trial, n_lo=2, n_hi=8, r_choices=(2.0, 4.0)
            )
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            opt = local_optimum_on_line(inst, idx, L)
            values = [
                solve_medianoid(inst, p).weight_loss
                for p, _ in support.line_breakpoints(inst, L)
            ]
            values.append(solve_medianoid(inst, L.anchor).weight_loss)
            assert opt.weight_loss == min(values), trial
            # the returned point actually lies on L and attains the value
            assert abs(t_along(L, opt.point)) < 1e7
            assert solve_medianoid(inst, opt.point).weight_loss == opt.weight_loss

    def test_prune_progress_at_least_one_eighth(self):
        rng = random.Random(44)
        saw_iterations = 0
        for trial in range(15):
            inst = support.seeded_instance(5000 + trial, n_lo=6, n_hi=10)
            L = support.non_horizontal_line(rng)
            idx = build_angular_index(inst)
            tel = Telemetry()
            local_optimum_on_line(inst, idx, L, telemetry=tel)
            for mass, pruned in tel.prune_log:
                assert pruned * 8 >= mass, (trial, mass, pruned)
                saw_iterations += 1
        assert saw_iterations > 0


class TestTelemetry:
    def test_undeclared_counter_raises(self):
        tel = Telemetry()
        tel.lm_rounds += 1
        with pytest.raises(AttributeError):
            tel.lm_round = 1
        with pytest.raises(AttributeError):
            tel.lm_round += 1
