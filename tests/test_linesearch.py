"""Tests for a line's breakpoint array and the prune search along a line."""

import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import support
import test_golden_reports as golden
from rivalloc import linesearch, vprune
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    ANGLE_TOL,
    Customer,
    Instance,
    Point,
    general_position_violation,
)
from rivalloc.linesearch import (
    CertifiedOptimum,
    Telemetry,
    _position_pass,
    build_angular_index,
    local_optima_on_lines,
    search_lines,
    vertical_breakpoints,
    vertical_lines,
)
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    SWEEP_BLOCK,
    UPWARD,
    as_result,
    solve_medianoid,
)
from rivalloc.vprune import find_xD_xU

COVERAGE_TOL = 1e-6

DirectedLine = support.DirectedLine
t_along = support.t_along
expected_positions = support.expected_positions
upward_line = support.upward_line
line_rows = support.line_rows


def sorted_positions(P):
    return sorted(P.tolist())


def line_optima(inst, idx, lines, telemetry):
    """``local_optima_on_lines`` on ``lines`` directed upward, with the
    breakpoint arrays the solvers build for them."""
    return local_optima_on_lines(
        inst, line_rows([upward_line(L) for L in lines]),
        [support.breakpoint_sequences(idx, L) for L in lines], telemetry)


def _real_instance(n, R, seed):
    """n customers at real coordinates with real weights, in general
    position."""
    rng = random.Random(seed)
    inst = Instance([
        Customer(Point(rng.uniform(-2 * n, 2 * n), rng.uniform(-2 * n, 2 * n)),
                 rng.uniform(0.5, 5.0))
        for _ in range(n)
    ], R)
    assert general_position_violation(inst) is None
    return inst


class TestAngularIndex:
    def test_tangent_lines_touch_both_discs(self):
        inst = generate_instance(5, seed=77, r=4.0)
        idx = build_angular_index(inst)
        r = inst.r
        rows = iter(idx.tangent_lines(0, idx.n).tolist())
        for i in range(inst.n):
            for j in range(inst.n):
                if i == j:
                    continue
                ax, ay, ux, uy, _ = next(rows)
                for k in (i, j):
                    c = inst.customers[k].site
                    d = abs(ux * (c.y - ay) - uy * (c.x - ax))
                    assert d == pytest.approx(r, abs=1e-7)

    def test_tangent_lines_point_upward(self):
        """Row by row and bitwise, ``tangent_lines`` is the scalar upward
        line of every pair (``support.reference_tangent_line``): the stored
        right tangent through its touching point on disc i, along the
        pair's direction or its opposite, on the grid and at real
        coordinates, at R = 1, 4 and 12; a block of customer rows is the
        slice of the whole array.  A row's crossing denominator with its
        own column and with its partner's is exactly 0."""
        for n, R, real in itertools.product((8, 24, 60), (1.0, 4.0, 12.0), (False, True)):
            inst = (_real_instance(n, R, seed=n) if real
                    else generate_instance(n, seed=n, r=R, coord_range=2 * n))
            idx = build_angular_index(inst)
            got = idx.tangent_lines(0, n)
            want = line_rows([support.reference_tangent_line(idx, i, j)
                              for i in range(n) for j in range(n) if j != i])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, R, real)
            downward = int(np.count_nonzero(got[:, 3] != idx.lines[0, :idx.tangents]))
            assert 0 < downward < idx.tangents, (n, R, real)
            i, j = np.divmod(np.arange(n * n), n)
            i, j = i[i != j], j[i != j]
            for col in (np.arange(idx.tangents), j * (n - 1) + i - (i > j)):
                den = got[:, 2] * idx.lines[0, col]
                den += got[:, 3] * idx.lines[1, col]
                assert not den.any(), (n, R, real)
            for s, e in ((0, 1), (3, 7), (n - 2, n)):
                block = idx.tangent_lines(s, e)
                assert block.tobytes() == got[s * (n - 1):e * (n - 1)].tobytes(), (n, R, s, e)

    def test_horizontal_tangent_line_rejected(self):
        inst = Instance([Customer(Point(0.0, 0.0), 1.0), Customer(Point(5.0, 0.0), 1.0)], 2.0)
        idx = build_angular_index(inst)
        with pytest.raises(ValueError, match="horizontal"):
            idx.tangent_lines(0, 1)
        with pytest.raises(ValueError, match="horizontal"):
            support.reference_tangent_line(idx, 0, 1)

    def test_vertical_rows_are_the_scalar_vertical_lines(self):
        """``vertical_lines`` gives ``DirectedLine.vertical``'s row, with
        the direction snapped to ``(0, 1)``, so its points keep their x."""
        xs = [-3.5, 0.0, 2.25, 1e6]
        got = vertical_lines(xs)
        assert got.tobytes() == line_rows(map(DirectedLine.vertical, xs)).tobytes()
        assert vertical_lines([]).shape == (0, 5)

    @pytest.mark.parametrize("n,real", [(100, False), (257, False), (150, True)])
    def test_table_equals_the_full_table_build(self, n, real):
        """The table, filled a row block at a time, equals the full-table
        build bitwise, at n whose rows span several blocks, on the grid and
        at real coordinates."""
        if real:
            inst = _real_instance(n, 3.5, seed=0x7AB1E)
        else:
            inst = generate_instance(n, seed=n, r=4.0, coord_range=2 * n)
        assert SWEEP_BLOCK // n < n
        idx = build_angular_index(inst)
        assert idx.lines.tobytes() == support.reference_angular_table(inst).tobytes()


class TestBreakpointSequences:
    def test_single_pair_far_line(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(7.0, 3.0), 2.0)], 2.0
        )
        L = DirectedLine.vertical(-1000.0)
        idx = build_angular_index(inst)
        got = sorted_positions(support.breakpoint_sequences(idx, L))
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
            P = support.breakpoint_sequences(idx, L)
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
        for t in sorted_positions(support.breakpoint_sequences(idx, L)):
            p = line.point_at(t)
            off = ux * (p.y - L.anchor.y) - uy * (p.x - L.anchor.x)
            assert abs(off) <= 1e-6

    def test_horizontal_line_rejected(self):
        inst = generate_instance(3, seed=1, r=2.0)
        idx = build_angular_index(inst)
        with pytest.raises(ValueError, match="horizontal"):
            support.breakpoint_sequences(idx, support.horizontal(5.0))


def _query_lines(idx, rng):
    """Tangent lines of the first few pairs (their own direction is among
    the stored tangent directions, so some must be dropped as parallel),
    vertical lines through sites, and random non-horizontal lines."""
    lines = []
    for i in range(min(idx.n, 4)):
        lines += support.upward_tangents(idx, i, range(min(idx.n, 4)))
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
                    got = support.breakpoint_sequences(idx, L)
                    want = support.reference_tangent_crossings(idx, line)
                    assert got.dtype == want.dtype, (n, R, L)
                    assert got[:len(want)].tobytes() == want.tobytes(), (n, R, L)
                    ux, uy = line.direction
                    par = np.abs(ux * idx.lines[0, :idx.tangents]
                                 + uy * idx.lines[1, :idx.tangents]) <= ANGLE_TOL
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
        """The circle crossings that close a line's array are bitwise those
        of the per-customer loop, the whole array is, as a multiset, the
        per-pair and per-customer crossings, and the reference search's
        lower-median cuts evaluate bitwise the positions a per-step
        sorted-list reference picks under the same random series of
        leans."""
        rng = random.Random(5)
        leans = []

        def scripted_lean(result, up_angle):
            return leans.pop()

        # Results that certify nothing; the scripted leans steer the cuts.
        plain = SimpleNamespace(strong_centroid=False)
        monkeypatch.setattr(
            support, "sweep_results", lambda inst, points: [plain] * len(points)
        )
        monkeypatch.setattr(support, "lean", scripted_lean)
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
                got = support.breakpoint_sequences(idx, L)
                exp = got[len(tan):]
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


class TestPositionPass:
    def test_lines_beyond_one_block_get_the_arrays_of_single_passes(self):
        """On more lines than one broadcast pass takes, ``_position_pass``
        gives each line, bitwise, the array a pass of that line alone
        gives it: tangent lines, some parallel to one another, random
        lines and vertical lines."""
        inst = generate_instance(30, seed=4, r=4.0, coord_range=60)
        idx = build_angular_index(inst)
        rng = random.Random(12)
        lines = [L for i in range(3) for L in support.upward_tangents(idx, i)]
        lines += [upward_line(support.non_horizontal_line(rng, 60.0)) for _ in range(20)]
        lines += [DirectedLine.vertical(float(x)) for x in idx.xs[:5]]
        assert len(lines) > 2 * (SWEEP_BLOCK // idx.n ** 2)
        got = _position_pass(idx, line_rows(lines))
        assert len(got) == len(lines)
        for L, P in zip(lines, got):
            [want] = _position_pass(idx, line_rows([L]))
            assert P.dtype == want.dtype and P.tobytes() == want.tobytes(), L


class TestVerticalBreakpoints:
    @staticmethod
    def instances():
        """The golden instances and a real-coordinate one with real
        weights."""
        for n, seed, coord_range, _mode in golden.CASES:
            yield golden.instance(n, seed, coord_range)
        for n, seed, coord_range, _mode in golden.REAL_CASES:
            yield golden.instance(n, seed, coord_range, real=True)
        rng = random.Random(8)
        base = generate_instance(30, 8, r=4.0, coord_range=60)
        yield Instance([Customer(Point(c.site.x + rng.uniform(-0.4, 0.4),
                                       c.site.y + rng.uniform(-0.4, 0.4)),
                                 rng.uniform(0.5, 9.0)) for c in base.customers], 3.0)

    def test_table_ordinates_equal_the_general_pass(self, monkeypatch):
        """On every line a parametric solve decides at, through every site
        and tangent to every disc, and at random abscissas in the frame,
        ``vertical_breakpoints`` is bitwise, in order, the general pass's
        array (``_position_pass``) with the reference frame's two ordinates
        after its tangent positions and the reference capture-circle
        crossings after its circle positions (``support.general_positions``);
        without the frame ordinates and the capture crossings it is the
        general pass's array.  The abscissas eps next to each disc's
        tangency put capture crossings on some of the lines."""
        rng = random.Random(9)
        lines = near = 0
        decided = []
        real = vprune.vertical_breakpoints

        def recorded(idx, x):
            decided.append(x)
            return real(idx, x)

        monkeypatch.setattr(vprune, "vertical_breakpoints", recorded)
        for k, inst in enumerate(self.instances()):
            decided.clear()
            solve_centroid(inst)
            idx = build_angular_index(inst)
            frame = support.bounding_frame(inst)
            r = inst.r
            xs = decided + [x + d for x in idx.xs.tolist() for d in (-r, 0.0, r)]
            xs += [x + d * (r + j * inst.eps) for x in idx.xs.tolist()
                   for d in (-1, 1) for j in (-1, 1)]
            xs += [rng.uniform(frame.xmin, frame.xmax) for _ in range(10)]
            m = idx.tangents
            for x in xs:
                L = DirectedLine.vertical(x)
                want = _position_pass(idx, line_rows([L]))[0]
                got = vertical_breakpoints(idx, x)
                assert got.dtype == want.dtype, (k, x)
                assert got.tobytes() == support.general_positions(idx, L, frame).tobytes(), (k, x)
                near += len(got) > len(want) + 2
                assert np.delete(got, (m, m + 1))[:len(want)].tobytes() == want.tobytes(), (k, x)
                lines += 1
        assert lines > 1000 and near > 50, (lines, near)


class TestLocalOptimum:
    def test_no_breakpoints_falls_back_to_anchor(self):
        inst = Instance([Customer(Point(0.0, 0.0), 3.0)], 2.0)
        L = DirectedLine.vertical(50.0)
        idx = build_angular_index(inst)
        point, loss = line_optima(inst, idx, [L], Telemetry())[0]
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
                point, loss = line_optima(inst, idx, [L], Telemetry())[0]
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
            P = support.breakpoint_sequences(idx, L)
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
            saw_iterations += len(fractions)
        assert saw_iterations > 0


def _outcome(search):
    """What ``search(telemetry)`` returns, or the certificate it raises,
    with the telemetry it leaves."""
    tel = Telemetry()
    try:
        got = search(tel)
    except CertifiedOptimum as cert:
        got = ("certified", cert.point, cert.weight_loss, cert.origin)
    return got, tel


def _reference_find(inst, idx, frame, L, tel):
    """``find_xD_xU``'s outcome read off the reference evaluations: a
    sideward end, as both anchors, and its lean, else the last downward
    and the last upward evaluation."""
    down = up = None
    for t, _, res, d in support.reference_anchors(inst, idx, frame, L, tel):
        if d == UPWARD:
            up = (t, res)
        elif d == DOWNWARD:
            down = (t, res)
        else:
            return (t, res), (t, res), d
    return down, up, None


def _as_results(found):
    """``find_xD_xU``'s rows as the reference gives them, ``(t, result)``
    with the follower's result at the row's point."""
    down, up, side = found
    return tuple((e[0], as_result(Point(e[1], e[2]), *e[3:])) for e in (down, up)) + (side,)


class TestEngineMatchesReference:
    def test_minima_anchors_certificates_and_telemetry(self):
        """On seeded lines, the array engine gives the per-step reference's
        line minima, certificates and telemetry, searching lines in
        lockstep (random lines, one customer's tangent lines, a line
        without breakpoints), and ``find_xD_xU`` gives its anchors, with
        their full follower results, or the lean that settles the line."""
        rng = random.Random(71)
        seen = {"minima": 0, "certified": 0, "anchors": 0, "pruned": 0}
        lone = Instance([Customer(Point(0.0, 0.0), 3.0)], 2.0)
        idx = build_angular_index(lone)
        lines = [DirectedLine.vertical(50.0), DirectedLine.vertical(0.5)]
        assert _outcome(lambda tel: line_optima(lone, idx, lines, tel)) == _outcome(
            lambda tel: support.reference_local_optima(lone, idx, lines, tel))
        for trial in range(60):
            # Odd trials: separations wide for the cloud, which certify often.
            inst = support.seeded_instance(
                6100 + trial, n_lo=2, n_hi=10, coord_range=(30, 12)[trial % 2],
                r_choices=((2.0, 4.0, 6.0), (6.0, 10.0, 20.0))[trial % 2])
            idx = build_angular_index(inst)
            frame = support.bounding_frame(inst)
            lines = ([support.non_horizontal_line(rng) for _ in range(3)]
                     + support.upward_tangents(idx, 0))
            got = _outcome(lambda tel: line_optima(inst, idx, lines, tel))
            want = _outcome(lambda tel: support.reference_local_optima(inst, idx, lines, tel))
            assert got == want, trial
            seen["certified" if want[0][0] == "certified" else "minima"] += 1
            for _ in range(3):
                L = support.vertical_through_box(rng, frame)
                got = _outcome(lambda tel: _as_results(find_xD_xU(inst, idx, L.anchor.x, tel)))
                want = _outcome(lambda tel: _reference_find(inst, idx, frame, L, tel))
                if got[0][0] == "certified":
                    seen["certified"] += 1
                elif got[0][2] is not None:
                    assert got[0][2] in (SIDEWARD_RIGHT, SIDEWARD_LEFT), (trial, L)
                    seen["pruned"] += 1
                else:
                    seen["anchors"] += 1
                assert got == want, (trial, L)
        assert all(count >= 5 for count in seen.values()), seen


def _hex(e):
    return None if e is None else tuple(float(v).hex() for v in e[:5])


def _recorded(monkeypatch, module, name, points_of, search):
    """Run ``search(telemetry)`` with ``module.name``, the block evaluation
    it calls once a round, recording the points of each call.  Returns the
    rounds, the outcome (per line ``(least, up, down, side)``, the
    certificate or the ``RuntimeError``), floats as hex, and the
    telemetry."""
    rounds = []
    evaluate = getattr(module, name)

    def recording(inst, *args):
        rounds.append([(float(x).hex(), float(y).hex()) for x, y in points_of(*args)])
        return evaluate(inst, *args)

    monkeypatch.setattr(module, name, recording)
    tel = Telemetry()
    try:
        got = [tuple(map(_hex, out[:3])) + (out[3],) for out in search(tel)]
    except CertifiedOptimum as cert:
        got = ("certified", _hex((cert.weight_loss, *cert.point)), cert.origin)
    except RuntimeError as err:
        got = ("raised", str(err))
    finally:
        monkeypatch.setattr(module, name, evaluate)
    return rounds, got, tel


def _engine_and_reference(monkeypatch, inst, lines, positions):
    """``search_lines`` and the per-step reference on copies of the same
    positions: the points of every round, the outcome and the telemetry."""
    def engine(tel):
        return search_lines(inst, line_rows(lines), [p.copy() for p in positions], tel,
                            "origin")

    def reference(tel):
        return support.reference_search_lines(
            inst, lines, [p.copy() for p in positions], tel, "origin")

    return (
        _recorded(monkeypatch, linesearch, "sweep",
                  lambda xs, ys: zip(xs.tolist(), ys.tolist()), engine),
        _recorded(monkeypatch, support, "sweep_results",
                  lambda points: ((p.x, p.y) for p in points), reference),
    )


# Scripted follower rows (theta_b, span) on a vertical line: a wedge leaning
# upward, downward, sideward, one that contains the whole line, and none.
ROW_UP = (math.pi - 0.7, 0.5)
ROW_DOWN = (2.0 * math.pi - 0.7, 0.5)
ROW_SIDE = (math.pi / 2.0 - 3.0, 3.0)
ROW_WHOLE = (math.pi, 0.0)
ROW_STRONG = (0.0, 4.0)


class TestIndexCuts:
    def test_duplicates_and_empty_lines_match_the_reference(self, monkeypatch):
        """``search_lines`` evaluates bitwise the points of the partition-based
        per-step reference, round by round, and returns, raises and counts
        what it does, on lines searched in lockstep whose positions repeat:
        the lower median three times, the frame ordinates, every position
        twice, some positions twice, beside a line without positions."""
        rng = random.Random(91)
        seen = {"certified": 0, "searched": 0, "sideward": 0}
        for trial in range(60):
            inst = support.seeded_instance(
                7100 + trial, n_lo=3, n_hi=10, coord_range=(30, 12)[trial % 2],
                r_choices=((2.0, 4.0, 6.0), (6.0, 10.0, 20.0))[trial % 2])
            idx = build_angular_index(inst)
            frame = support.bounding_frame(inst)
            lines = [support.vertical_through_box(rng, frame) for _ in range(2)]
            lines += [upward_line(support.non_horizontal_line(rng)) for _ in range(2)]
            positions = []
            for k, L in enumerate(lines):
                P = np.append(support.breakpoint_sequences(idx, L),
                              (frame.y_top - L.anchor.y, frame.y_btm - L.anchor.y))
                if k == 0:
                    P = np.append(P, P[-2:])
                    median = np.sort(P)[(len(P) - 1) // 2]
                    P = np.append(P, (median, median))
                elif k == 1:
                    P = np.append(P, P)
                else:
                    P = np.append(P, rng.sample(P.tolist(), len(P) // 3))
                positions.append(P[np.random.default_rng(trial).permutation(len(P))])
            lines.append(upward_line(support.non_horizontal_line(rng)))
            positions.append(np.empty(0))
            engine, reference = _engine_and_reference(monkeypatch, inst, lines, positions)
            assert engine == reference, trial
            got = reference[1]
            if got[0] == "certified":
                seen["certified"] += 1
            else:
                seen["searched"] += 1
                seen["sideward"] += sum(side is not None for *_, side in got)
        assert all(count >= 5 for count in seen.values()), seen

    @staticmethod
    def _scripted(monkeypatch, script):
        """Follower rows on the vertical lines x = 0, 1, ...: on line x at
        height y, ``script[x]`` gives the target (lean upward below it,
        downward above it, sideward at it), the heights that certify and
        those whose wedge contains the line; the loss is a step function of
        the distance to the target, so that losses tie."""
        def row(x, y):
            target, strong, whole = script[int(x)]
            turn = (ROW_STRONG if y in strong else ROW_WHOLE if y in whole
                    else ROW_UP if y < target else ROW_DOWN if y > target else ROW_SIDE)
            return (float(abs(y - target) // 4), 0.25 * y) + turn

        def sweep(inst, xs, ys):
            rows = [row(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            return tuple(np.array(col, dtype=float) for col in zip(*rows))

        monkeypatch.setattr(linesearch, "sweep", sweep)
        monkeypatch.setattr(support, "sweep_results", lambda inst, points: [
            as_result(p, *row(p.x, p.y)) for p in points])

    def test_rounds_that_certify_or_raise_match_the_reference(self, monkeypatch):
        """On scripted follower rows: two lines certify in the same round
        (the first in input order raises); one line certifies and a later
        one raises in the same round (the ``RuntimeError`` wins); and lines
        of duplicate positions that end exhausted or sideward on a repeated
        value.  Points, outcome and telemetry match the reference."""
        inst = Instance([Customer(Point(0.0, 0.0), 1.0)], 2.0)
        rng = np.random.default_rng(5)
        ramp = rng.permutation(np.arange(16.0))
        doubled = rng.permutation(np.repeat(np.arange(9.0), 2))
        cases = [
            # Line 0 certifies at y = 11 and line 1 at y = 3, both in
            # round two; line 2 would go on; line 3 has no positions.
            ({0: (100.0, {11.0}, ()), 1: (-100.0, {3.0}, ()),
              2: (100.0, (), ()), 3: (0.0, (), ())},
             [ramp, ramp, ramp, np.empty(0)], ("certified", _hex((22.0, 0.0, 11.0)))),
            # Line 0 certifies at y = 11 in round two, then line 2, last in
            # that round, meets a wedge that contains the line.
            ({0: (100.0, {11.0}, ()), 1: (100.0, (), ()), 2: (-100.0, (), {3.0})},
             [ramp, ramp, ramp], ("raised",)),
            # Exhausted upward and downward, and sideward on a repeated value.
            ({0: (100.0, (), ()), 1: (-100.0, (), ()), 2: (5.0, (), ()),
              3: (2.5, (), ())},
             [doubled, doubled, doubled, doubled], ("searched",)),
        ]
        for script, positions, want in cases:
            self._scripted(monkeypatch, script)
            lines = [DirectedLine.vertical(float(x)) for x in range(len(positions))]
            engine, reference = _engine_and_reference(monkeypatch, inst, lines, positions)
            assert engine == reference, script
            got = reference[1]
            if want[0] == "certified":
                assert got == want + ("origin",)
            elif want[0] == "raised":
                assert got == ("raised", "wedge degenerately contains the query line")
            else:
                assert [side for *_, side in got] == [None, None, SIDEWARD_RIGHT, None]


class TestTelemetry:
    def test_undeclared_counter_raises(self):
        tel = Telemetry()
        tel.lm_rounds += 1
        with pytest.raises(AttributeError):
            tel.lm_round = 1
        with pytest.raises(AttributeError):
            tel.lm_round += 1
