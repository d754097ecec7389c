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
    PARALLEL_EPS,
    Telemetry,
    _LineFrame,
    _SequenceBundle,
    _explicit_sequence,
    _tangent_sequences,
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
        mid = before[len(before) // 2]
        # Either cut first, so that neither may write into shared arrays.
        for cuts in ([("cut_keep_below", before[-2]), ("cut_keep_above", mid)],
                     [("cut_keep_above", before[1]), ("cut_keep_below", mid)]):
            cut = bundle.copy()
            assert cut.T is bundle.T and not bundle.T.flags.writeable
            for name, y in cuts:
                getattr(cut, name)(y)
            assert 0 < cut.total_mass() < len(before)
            assert bundle.total_mass() == len(before)
            assert sequence_positions(bundle) == before

    def test_horizontal_line_rejected(self):
        inst = generate_instance(3, seed=1, r=2.0)
        idx = build_angular_index(inst)
        with pytest.raises(ValueError, match="horizontal"):
            breakpoint_sequences(idx, DirectedLine.horizontal(5.0))


def _query_lines(idx, rng):
    """Tangent lines of the first few pairs (their own direction appears in
    the neighbour orders, so windows get parallel entries to trim), vertical
    lines through sites, and random non-horizontal lines."""
    lines = []
    for i in range(min(idx.n, 4)):
        for j in range(min(idx.n, 4)):
            if i != j and abs(np.sin(idx.ang[i, j])) > PARALLEL_EPS:
                lines.append(idx.tangent_line(i, j))
    lines += [DirectedLine.vertical(float(x)) for x in idx.xs[:3]]
    spread = 2.0 * float(np.max(np.abs(idx.xs))) + 1.0
    lines += [support.non_horizontal_line(rng, spread) for _ in range(4)]
    return lines


class TestTangentSequences:
    def test_array_build_matches_the_loop_reference(self):
        rng = random.Random(4)
        regimes = {"apart": 0, "touching": 0, "overlapping": 0}
        lines_with_parallel = 0
        for n in list(range(1, 41)) + [200]:
            base = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            Rs = [2.0, 3.0 * (n + 10)]
            if n > 1:
                Rs.append(float(build_angular_index(base).dist[0, 1]))
            # Discs mostly apart, mostly overlapping, and one pair at rho == 2r.
            for R in Rs:
                inst = Instance(base.customers, R)
                idx = build_angular_index(inst)
                for L in _query_lines(idx, rng):
                    frame = _LineFrame(idx, L)
                    got = _tangent_sequences(frame)
                    want = support.reference_tangent_sequences(frame)
                    assert len(got) == len(want) == 5
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype, (n, R, L)
                        assert np.array_equal(g, w), (n, R, L)
                    par = np.abs(np.sin(idx.angles2 - frame.up_angle)) <= PARALLEL_EPS
                    lines_with_parallel += bool(par.any())
                off = ~np.eye(n, dtype=bool)
                regimes["apart"] += int(np.sum(idx.dist[off] > R))
                regimes["touching"] += int(np.sum(idx.dist[off] == R))
                regimes["overlapping"] += int(np.sum(idx.dist[off] < R))
        assert all(count > 0 for count in regimes.values()), regimes
        assert lines_with_parallel > 100


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestPositionTable:
    def test_positions_cuts_and_explicit_crossings_match_the_per_step_reference(self):
        """Positions read from a line's table, cut counts, middles, nearest
        breakpoints and the circle crossings are bitwise those of the
        per-step evaluation, fresh and after a random series of cuts."""
        rng = random.Random(5)
        cuts = tangencies = 0
        for n in list(range(1, 41)) + [200]:
            inst = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            idx = build_angular_index(inst)
            # A vertical line touching a disc adds a tangency to the
            # explicit sequence.
            lines = _query_lines(idx, rng) + [
                DirectedLine.vertical(float(idx.xs[-1]) + inst.r)
            ]
            extras = (DirectedLine.horizontal(float(idx.ys[0])),
                      DirectedLine(Point(0.5, -0.25), 0.7))
            for L in lines:
                frame = _LineFrame(idx, L)
                for extra_lines in ((), extras):
                    ets = _explicit_sequence(frame, extra_lines)
                    want = support.reference_explicit_sequence(frame, extra_lines)
                    assert ets.dtype == want.dtype and _bits(ets) == _bits(want), (n, L)
                tangencies += len(ets) % 2
                cols = _tangent_sequences(frame)
                got = _SequenceBundle(frame, cols, ets)
                ref = support.ReferenceBundle(frame, cols, ets)
                live = support.live_positions(got)
                assert _bits(live) == _bits(ref.live_positions()), (n, L)
                for _ in range(5):
                    assert got.total_mass() == ref.total_mass()
                    for g, w in zip(got.middles(), ref.middles()):
                        assert _bits(g) == _bits(w), (n, L)
                    pool = np.concatenate([live, got.ets[got.elo:got.ehi]])
                    if not len(pool):
                        break
                    y = float(rng.choice(pool))
                    if rng.random() < 0.3:
                        y += rng.uniform(-1.0, 1.0)
                    for strict in (True, False):
                        assert np.array_equal(got._count_view(y, strict),
                                              ref._count_view(y, strict)), (n, L, y)
                    near = got.closest_to(y)
                    assert near is not None and _bits(near) == _bits(ref.closest_to(y))
                    side = rng.choice(("cut_keep_above", "cut_keep_below"))
                    getattr(got, side)(y)
                    getattr(ref, side)(y)
                    cuts += 1
                    live = support.live_positions(got)
                assert _bits(live) == _bits(ref.live_positions()), (n, L)
        assert cuts > 2000 and tangencies > 0, (cuts, tangencies)


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
