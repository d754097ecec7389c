"""Tests for the bounding frame and the vertical-line pruning decision."""

import math
import random

import pytest

import support
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, DirectedLine, Instance, Point
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    solve_medianoid,
)
from rivalloc.vprune import (
    PRUNE_LEFT,
    PRUNE_RIGHT,
    PW_NULL,
    PruneDecision,
    build_frame,
    decide,
    find_xD_xU,
    pseudo_wedge,
)
from rivalloc.linesearch import (
    CertifiedOptimum,
    Telemetry,
    breakpoint_sequences,
    build_angular_index,
)


classify_wedge_on_vertical = support.classify_wedge_on_vertical
scan_line = support.scan_vertical_line
brute_anchors = support.vertical_anchors


def assert_nothing_between(idx, frame, L, got):
    """No breakpoint of a fresh array for ``L`` lies strictly between the
    anchors ``find_xD_xU`` returned, and both anchors are breakpoints."""
    (t_D, _, _), (t_U, _, _) = got
    pos = breakpoint_sequences(idx, L).tolist()
    pos += [frame.y_top - L.anchor.y, frame.y_btm - L.anchor.y]
    assert t_U in pos and t_D in pos, (L, t_U, t_D)
    assert [t for t in pos if t_U < t < t_D] == [], (L, t_U, t_D)


def assert_kept_side_holds_an_optimum(inst, dec, X, trial):
    """The closed side of the vertical line at ``X`` that ``dec`` keeps
    attains the brute-force minimum."""
    values = support.brute_values(inst)
    if dec.kind == PRUNE_LEFT:
        kept = support.brute_minimum(inst, keep=lambda p: p.x >= X, values=values)
    else:
        assert dec.kind == PRUNE_RIGHT, (trial, dec.kind)
        kept = support.brute_minimum(inst, keep=lambda p: p.x <= X, values=values)
    best = support.brute_minimum(inst, values=values)
    assert kept == best, (trial, kept, best)


class TestBuildFrame:
    def test_single_disc(self):
        inst = Instance([Customer(Point(0.0, 0.0), 1.0)], 2.0)
        f = build_frame(inst)
        assert (f.xmin, f.xmax, f.y_top, f.y_btm) == (-1.0, 1.0, 3.0, -3.0)

    def test_two_discs(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(10.0, 0.0), 2.0)], 2.0
        )
        f = build_frame(inst)
        assert (f.xmin, f.xmax, f.y_top, f.y_btm) == (-1.0, 11.0, 3.0, -3.0)

    def test_box_covers_every_disc(self):
        inst = generate_instance(8, seed=5, r=4.0)
        f = build_frame(inst)
        for c in inst.customers:
            assert f.xmin <= c.site.x - inst.r
            assert f.xmax >= c.site.x + inst.r
            assert f.y_btm < c.site.y - inst.r
            assert f.y_top > c.site.y + inst.r


class TestFrameAnchorDirections:
    def test_auxiliary_crossings_point_into_the_box(self):
        rng = random.Random(7)
        for trial in range(20):
            inst = support.seeded_instance(6000 + trial)
            frame = build_frame(inst)
            L = support.vertical_through_box(rng, frame)
            X = L.anchor.x
            top = Point(X, frame.y_top)
            btm = Point(X, frame.y_btm)
            res_top = solve_medianoid(inst, top)
            res_btm = solve_medianoid(inst, btm)
            assert classify_wedge_on_vertical(res_top.wedge, X) == DOWNWARD, trial
            assert classify_wedge_on_vertical(res_btm.wedge, X) == UPWARD, trial


class TestFindAnchors:
    def test_anchors_are_the_extreme_breakpoints(self):
        rng = random.Random(11)
        anchors_seen = 0
        decisions_seen = 0
        for trial in range(30):
            inst = support.seeded_instance(7000 + trial, n_lo=3, n_hi=8)
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            L = support.vertical_through_box(rng, frame)
            rows = scan_line(inst, frame, L)
            scale = max(1.0, max(abs(r[0]) for r in rows))
            tol = 1e-6 * scale
            try:
                got = find_xD_xU(inst, idx, frame, L, Telemetry())
            except CertifiedOptimum as cert:
                decisions_seen += 1
                # a covering interval wider than a half turn certifies a
                # global optimum, whatever its value
                assert cert.origin == support.STRONG_ORIGINS[0], trial
                assert cert.weight_loss == support.brute_minimum(inst)
                continue
            if isinstance(got, PruneDecision):
                decisions_seen += 1
                assert got.evidence == "sideward wedge at a breakpoint of the query line"
                assert_kept_side_holds_an_optimum(inst, got, L.anchor.x, trial)
                continue
            anchors_seen += 1
            (t_D, p_D, r_D), (t_U, p_U, r_U) = got
            assert_nothing_between(idx, frame, L, got)
            assert p_D.y > p_U.y, trial
            (bt_D, bp_D, br_D, _), (bt_U, bp_U, br_U, _) = brute_anchors(rows)
            assert abs(t_D - bt_D) <= tol, (trial, t_D, bt_D)
            assert abs(t_U - bt_U) <= tol, (trial, t_U, bt_U)
            assert r_D.weight_loss == br_D.weight_loss, trial
            assert r_U.weight_loss == br_U.weight_loss, trial
            # exhaustive pruning leaves nothing strictly between the anchors
            between = [r for r in rows if bt_U + tol < r[0] < bt_D - tol]
            assert between == [], (trial, [r[3] for r in between])
        assert anchors_seen > 0

    def test_nothing_between_the_anchors_at_larger_n(self):
        """The exhaustion invariant on lines whose breakpoints are too many
        for the brute scan."""
        rng = random.Random(23)
        anchors_seen = 0
        for n in (40, 80, 120, 200):
            for seed in (1, 2):
                inst = generate_instance(n, seed, r=4.0, coord_range=2 * n)
                idx = build_angular_index(inst)
                frame = build_frame(inst)
                for _ in range(6):
                    L = support.vertical_through_box(rng, frame)
                    try:
                        got = find_xD_xU(inst, idx, frame, L, Telemetry())
                    except CertifiedOptimum:
                        continue
                    if not isinstance(got, PruneDecision):
                        anchors_seen += 1
                        assert_nothing_between(idx, frame, L, got)
        assert anchors_seen >= 20, anchors_seen

    def test_rejects_non_vertical_line(self):
        inst = generate_instance(4, seed=3, r=2.0)
        idx = build_angular_index(inst)
        frame = build_frame(inst)
        L = DirectedLine(Point(0.0, 0.0), 0.3)
        with pytest.raises(ValueError, match="vertical"):
            decide(inst, idx, frame, L, Telemetry())


class TestPhaseStructure:
    """Breakpoints on a vertical line come in bands: upward at the bottom,
    downward at the top, and only sideward wedges or strong centroids
    between the two anchors; sideward ones all lean the same way."""

    def test_band_order_and_middle_band(self):
        rng = random.Random(13)
        middles = 0
        for trial in range(40):
            inst = support.seeded_instance(8000 + trial, n_lo=3, n_hi=8)
            frame = build_frame(inst)
            L = support.vertical_through_box(rng, frame)
            rows = scan_line(inst, frame, L)
            (t_D, p_D, r_D, _), (t_U, p_U, r_U, _) = brute_anchors(rows)
            assert t_D > t_U, trial
            scale = max(1.0, max(abs(r[0]) for r in rows))
            tol = 1e-6 * scale
            for t, p, res, kind in rows:
                if kind == UPWARD:
                    assert t <= t_U + tol, (trial, t, t_U)
                elif kind == DOWNWARD:
                    assert t >= t_D - tol, (trial, t, t_D)
            between = [r for r in rows if t_U + tol < r[0] < t_D - tol]
            sideward = set()
            for t, p, res, kind in between:
                assert kind in ("strong", SIDEWARD_RIGHT, SIDEWARD_LEFT), (trial, kind)
                if kind != "strong":
                    sideward.add(kind)
            # every sideward wedge in the middle band leans the same way,
            # so pruning on whichever one the search meets first is safe
            assert len(sideward) <= 1, (trial, sideward)
            if between:
                middles += 1
            else:
                # empty middle band: the open segment is a plateau at the
                # worse anchor's value
                plateau = max(r_D.weight_loss, r_U.weight_loss)
                X = L.anchor.x
                y_U = p_U.y
                y_D = p_D.y
                for frac in (0.25, 0.5, 0.75):
                    z = Point(X, y_U + frac * (y_D - y_U))
                    assert solve_medianoid(inst, z).weight_loss == plateau, trial


class TestPseudoWedge:
    def test_anchor_properties(self):
        rng = random.Random(17)
        built = 0
        for trial in range(30):
            inst = support.seeded_instance(9000 + trial, n_lo=3, n_hi=8)
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            L = support.vertical_through_box(rng, frame)
            try:
                got = find_xD_xU(inst, idx, frame, L, Telemetry())
            except CertifiedOptimum:
                continue
            if isinstance(got, PruneDecision):
                continue
            (t_D, p_D, r_D), (t_U, p_U, r_U) = got
            for apex_p, apex_r, other, lo, hi in (
                (p_D, r_D, r_U.weight_loss, 0.0, math.pi),
                (p_U, r_U, r_D.weight_loss, math.pi, 2.0 * math.pi),
            ):
                pw = pseudo_wedge(inst, apex_p, other, result=apex_r)
                built += 1
                assert lo <= pw.theta_star <= hi, trial
                assert pw.max_capture >= other - 1e-9 * inst.total_weight()
                assert pw.classification in (SIDEWARD_RIGHT, SIDEWARD_LEFT, PW_NULL)
        assert built > 0

    def test_sideward_apex_rejected(self):
        inst = Instance([Customer(Point(0.0, 0.0), 2.0)], 2.0)
        apex = Point(-10.0, 0.0)
        with pytest.raises(ValueError, match="upward or downward"):
            pseudo_wedge(inst, apex, 1.0, solve_medianoid(inst, apex))


class TestDecide:
    def test_lines_outside_the_box(self):
        inst = generate_instance(5, seed=9, r=2.0)
        idx = build_angular_index(inst)
        frame = build_frame(inst)
        far_left = decide(inst, idx, frame,
                          DirectedLine.vertical(frame.xmin - 5.0), Telemetry())
        far_right = decide(inst, idx, frame,
                           DirectedLine.vertical(frame.xmax + 5.0), Telemetry())
        assert far_left.kind == PRUNE_LEFT
        assert far_right.kind == PRUNE_RIGHT
        assert "bounding box" in far_left.evidence

    def test_kept_side_retains_a_global_optimum(self):
        rng = random.Random(19)
        kinds = set()
        for trial in range(30):
            inst = support.seeded_instance(10_000 + trial, n_lo=3, n_hi=7)
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            L = support.vertical_through_box(rng, frame)
            X = L.anchor.x
            try:
                dec = decide(inst, idx, frame, L, Telemetry())
            except CertifiedOptimum as cert:
                kinds.add(cert.origin)
                best = support.brute_minimum(inst)
                if cert.origin in support.STRONG_ORIGINS:
                    assert cert.weight_loss == best
                    continue
                assert cert.origin == support.CONDITIONAL_ORIGIN
                res = solve_medianoid(inst, cert.point)
                assert res.weight_loss == cert.weight_loss
                # a null pseudo-wedge certifies a global optimum
                assert cert.weight_loss == best
                for p, _label in support.line_breakpoints(
                    inst, L, extra_lines=support.frame_lines(frame)
                ):
                    w = solve_medianoid(inst, p).weight_loss
                    assert w >= cert.weight_loss, trial
                continue
            kinds.add(dec.kind)
            assert_kept_side_holds_an_optimum(inst, dec, X, trial)
        assert PRUNE_LEFT in kinds or PRUNE_RIGHT in kinds
