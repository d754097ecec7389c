"""Tests for the bounding frame rows and the vertical-line pruning decision."""

import math
import random

import numpy as np
import pytest

import support
from rivalloc.cli import generate_instance
from rivalloc.geom import DBL_EPS, Customer, Instance, Point, normalize_angle
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    solve_medianoid,
)
from rivalloc import medianoid, vprune
from rivalloc import centroid
from rivalloc.centroid import solve_centroid
from rivalloc.vprune import (
    AT_BREAKPOINT,
    AT_MIDPOINT,
    BY_PSEUDO_WEDGE,
    Decision,
    decide,
    find_xD_xU,
    pseudo_wedge,
)
from rivalloc.linesearch import (
    CertifiedOptimum,
    Telemetry,
    build_angular_index,
    local_optima_on_lines,
    vertical_breakpoints,
    vertical_lines,
)


classify_wedge_on_vertical = support.classify_wedge_on_vertical
scan_line = support.scan_vertical_line
brute_anchors = support.vertical_anchors


def assert_nothing_between(idx, frame, L, got):
    """No breakpoint of a fresh array for ``L`` lies strictly between the
    anchors ``find_xD_xU`` returned, and both anchors are breakpoints."""
    t_D, t_U = got[0][0], got[1][0]
    pos = support.general_positions(idx, L, frame).tolist()
    assert t_U in pos and t_D in pos, (L, t_U, t_D)
    assert [t for t in pos if t_U < t < t_D] == [], (L, t_U, t_D)


def vertical_lean(row):
    """The lean ``search_lines`` reads from the evaluation ``row`` on a
    vertical line, whose upward direction is pi/2."""
    theta_b, span = row[5:]
    up = math.pi / 2.0
    return medianoid.lean_code(theta_b + span, math.pi - span, up, normalize_angle(up + math.pi))


def assert_kept_side_holds_an_optimum(inst, keep, X, trial):
    """The closed side of the vertical line at ``X`` that the lean
    ``keep`` keeps attains the brute-force minimum."""
    values = support.brute_values(inst)
    if keep == SIDEWARD_RIGHT:
        kept = support.brute_minimum(inst, keep=lambda p: p.x >= X, values=values)
    else:
        assert keep == SIDEWARD_LEFT, (trial, keep)
        kept = support.brute_minimum(inst, keep=lambda p: p.x <= X, values=values)
    best = support.brute_minimum(inst, values=values)
    assert kept == best, (trial, kept, best)


def assert_rejected(inst, idx, x):
    """``decide`` raises ``ValueError`` at ``x``, outside the open box,
    before it counts a decision or evaluates anything."""
    tel = Telemetry()
    with pytest.raises(ValueError, match="is not strictly inside the discs' box"):
        decide(inst, idx, x, tel)
    assert tel.decide_calls == tel.medianoid_calls == 0, x


def assert_frame_rows(inst):
    """The index's last two rows are the reference frame's lines, bitwise,
    with normal (0, 1), its ``box`` is the reference box, and ``decide``
    rejects a line on the box's edges and just outside them."""
    f = support.bounding_frame(inst)
    idx = build_angular_index(inst)
    want = np.array([(0.0, 0.0), (1.0, 1.0), (f.y_top, f.y_btm)])
    assert idx.lines[:, -2:].tobytes() == want.tobytes()
    assert idx.box == (f.xmin, f.xmax)
    for x in (f.xmin, f.xmax, math.nextafter(f.xmin, -math.inf), math.nextafter(f.xmax, math.inf)):
        assert_rejected(inst, idx, x)
    return f


class TestBuildFrame:
    def test_single_disc(self):
        inst = Instance([Customer(Point(0.0, 0.0), 1.0)], 2.0)
        f = assert_frame_rows(inst)
        assert (f.xmin, f.xmax, f.y_top, f.y_btm) == (-1.0, 1.0, 3.0, -3.0)

    def test_two_discs(self):
        inst = Instance(
            [Customer(Point(0.0, 0.0), 1.0), Customer(Point(10.0, 0.0), 2.0)], 2.0
        )
        f = assert_frame_rows(inst)
        assert (f.xmin, f.xmax, f.y_top, f.y_btm) == (-1.0, 11.0, 3.0, -3.0)

    def test_box_covers_every_disc(self):
        for inst in (generate_instance(8, seed=5, r=4.0),
                     generate_instance(12, seed=3, r=0.5, coord_range=12)):
            f = assert_frame_rows(inst)
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
            frame = support.bounding_frame(inst)
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
            frame = support.bounding_frame(inst)
            L = support.vertical_through_box(rng, frame)
            rows = scan_line(inst, frame, L)
            scale = max(1.0, max(abs(r[0]) for r in rows))
            tol = 1e-6 * scale
            try:
                got = find_xD_xU(inst, idx, L.anchor.x, Telemetry())
            except CertifiedOptimum as cert:
                decisions_seen += 1
                # a covering interval wider than a half turn certifies a
                # global optimum, whatever its value
                assert cert.origin == support.STRONG_ORIGINS[0], trial
                assert cert.weight_loss == support.brute_minimum(inst)
                continue
            down, up, side = got
            if side is not None:
                decisions_seen += 1
                # a sideward apex is given as both anchors
                assert down is up and Point(*down[1:3]) == Point(L.anchor.x, down[0]), trial
                dec = decide(inst, idx, L.anchor.x, Telemetry())
                assert (dec.x, dec.keep, dec.rule, dec.least, dec.anchors) == (
                    L.anchor.x, side, AT_BREAKPOINT,
                    (Point(*down[1:3]), down[3]), (down[0], down[0])), trial
                assert_kept_side_holds_an_optimum(inst, side, L.anchor.x, trial)
                continue
            anchors_seen += 1
            t_D, x_D, y_D, W_D = down[:4]
            t_U, x_U, y_U, W_U = up[:4]
            assert_nothing_between(idx, frame, L, got)
            assert Point(x_D, y_D) == Point(L.anchor.x, t_D), trial
            assert Point(x_U, y_U) == Point(L.anchor.x, t_U), trial
            assert t_D > t_U, trial
            # each anchor is a row the search read as downward or upward,
            # with or without a hint, the lean the pseudo-wedge is given
            hints = support.anchor_hints(random.Random(trial), idx, L.anchor.x, (t_U, t_D))
            for hint in [None] + hints:
                h_down, h_up, h_side = find_xD_xU(inst, idx, L.anchor.x, Telemetry(), hint)
                if h_side is None:
                    assert (vertical_lean(h_down), vertical_lean(h_up)) == (DOWNWARD, UPWARD), (trial, hint)
            (bt_D, bp_D, br_D, _), (bt_U, bp_U, br_U, _) = brute_anchors(rows)
            assert abs(t_D - bt_D) <= tol, (trial, t_D, bt_D)
            assert abs(t_U - bt_U) <= tol, (trial, t_U, bt_U)
            assert W_D == br_D.weight_loss, trial
            assert W_U == br_U.weight_loss, trial
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
                frame = support.bounding_frame(inst)
                for _ in range(6):
                    L = support.vertical_through_box(rng, frame)
                    try:
                        got = find_xD_xU(inst, idx, L.anchor.x, Telemetry())
                    except CertifiedOptimum:
                        continue
                    if got[2] is None:
                        anchors_seen += 1
                        assert_nothing_between(idx, frame, L, got)
        assert anchors_seen >= 20, anchors_seen


class TestPhaseStructure:
    """Breakpoints on a vertical line come in bands: upward at the bottom,
    downward at the top, and only sideward wedges or strong centroids
    between the two anchors; sideward ones all lean the same way."""

    def test_band_order_and_middle_band(self):
        rng = random.Random(13)
        middles = 0
        for trial in range(40):
            inst = support.seeded_instance(8000 + trial, n_lo=3, n_hi=8)
            frame = support.bounding_frame(inst)
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
            frame = support.bounding_frame(inst)
            L = support.vertical_through_box(rng, frame)
            try:
                got = find_xD_xU(inst, idx, L.anchor.x, Telemetry())
            except CertifiedOptimum:
                continue
            down, up, side = got
            if side is not None:
                continue
            for apex, lean, other, lo, hi in (
                (down, DOWNWARD, up[3], 0.0, math.pi),
                (up, UPWARD, down[3], math.pi, 2.0 * math.pi),
            ):
                side, theta_star, max_capture = pseudo_wedge(inst, apex, lean, other)
                built += 1
                assert lo <= theta_star <= hi, trial
                assert max_capture >= other - 1e-9 * sum(c.weight for c in inst.customers)
                assert side in (SIDEWARD_RIGHT, SIDEWARD_LEFT, None)
        assert built > 0


class TestCaptureTable:
    """The pseudo-wedge's capture table, built a block of rows at a time,
    against the whole table, ``support.table_first_max_capture``."""

    @staticmethod
    def instances():
        """Integer weights, real weights and coordinates, and equal
        weights, where captures tie; separations from apart to overlapping
        discs."""
        for seed in range(12):
            n = 6 + 4 * seed
            R = (2.0, 4.0, 10.0, 30.0)[seed % 4]
            base = generate_instance(n, seed, r=R, coord_range=2 * n)
            rng = random.Random(seed)
            yield base
            yield Instance([Customer(Point(c.site.x + rng.uniform(-0.3, 0.3),
                                           c.site.y + rng.uniform(-0.3, 0.3)),
                                     rng.uniform(0.2, 7.0)) for c in base.customers], R)
            yield Instance([Customer(c.site, 1.0) for c in base.customers], R)
        # Wide separations, where a decision's pseudo-wedge cone is empty.
        for n, seed in ((8, 1), (10, 2), (12, 1)):
            yield generate_instance(n, seed, r=60.0, coord_range=30)

    @staticmethod
    def apexes(inst, rng):
        """Random points in the frame, and points on customer circles, at
        distance r from a site up to rounding."""
        frame = support.bounding_frame(inst)
        for _ in range(15):
            yield Point(rng.uniform(frame.xmin, frame.xmax), rng.uniform(frame.y_btm, frame.y_top))
        for i in rng.sample(range(inst.n), min(inst.n, 10)):
            a = rng.uniform(0.0, 2.0 * math.pi)
            yield Point(float(inst.xs[i]) + inst.r * math.cos(a),
                        float(inst.ys[i]) + inst.r * math.sin(a))

    @pytest.mark.parametrize("block", [1, 64])
    def test_blocks_match_the_whole_table_bitwise(self, monkeypatch, block):
        """At seeded apexes with an upward or downward wedge, and at every
        apex the decisions of parametric solves of these instances build a
        pseudo-wedge at, the side, ``theta_star`` and ``max_capture`` are
        bitwise those of the whole table, whose first
        maximum in sorted-theta order wins a tie.  Blocks of one row, or of
        a few, split every table, and ties cross block boundaries."""
        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", block)
        rng = random.Random(23)
        seen = {"apexes": 0, "on_circle": 0, "ties": 0, "real": 0, "null": 0, "decided": 0}
        calls = []
        real_pw = vprune.pseudo_wedge

        def recorded(inst, apex, lean, W1):
            calls.append((apex, lean, W1))
            return real_pw(inst, apex, lean, W1)

        def table(inst, vx, vy, thetas):
            k, capture = support.table_first_max_capture(inst, vx, vy, thetas)
            # A later row reaching the same capture is a tie the first won.
            if k + 1 < len(thetas):
                seen["ties"] += support.table_first_max_capture(
                    inst, vx, vy, thetas[k + 1:])[1] == capture
            return k, capture

        for inst in self.instances():
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(vprune, "pseudo_wedge", recorded)
                solve_centroid(inst)
            seen["decided"] += len(calls)
            for apex in self.apexes(inst, rng):
                row = (apex.y, apex.x, apex.y) + tuple(
                    col.item() for col in medianoid.sweep(inst, np.array([apex.x]), np.array([apex.y])))
                lean = vertical_lean(row)
                if row[6] <= math.pi and lean in (UPWARD, DOWNWARD):
                    calls.append((row, lean, 0.0))
            for apex, lean, W1 in calls:
                got = pseudo_wedge(inst, apex, lean, W1)
                with monkeypatch.context() as m:
                    m.setattr(vprune, "_first_max_capture", table)
                    want = pseudo_wedge(inst, apex, lean, W1)
                assert (got[0], got[1].hex(), got[2].hex()) == (
                    want[0], want[1].hex(), want[2].hex()), apex
                seen["apexes"] += 1
                d = np.hypot(inst.xs - apex[1], inst.ys - apex[2])
                seen["on_circle"] += bool(np.any(np.abs(d - inst.r) <= 4 * DBL_EPS * inst.r))
                seen["real"] += not inst.exact_sums
                seen["null"] += got[0] is None
        assert seen["apexes"] > 1000 and all(seen.values()), seen

    def test_directions_at_arc_ends_match_the_table(self, monkeypatch):
        """Directions at the ends of the customers' closed capture arcs and
        a few ulps to 2e-6 to either side, where the rounded test decides:
        the blocked table's first maximum and its capture are bitwise the
        whole table's, with integer, equal and real weights, and every
        fourth apex on a site.  Blocks of one row split every table."""
        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", 1)
        rng = random.Random(29)
        beside = [0.0, 1e-15, -1e-15, 4e-15, -4e-15, 1e-10, -1e-10, 1e-7, -1e-7,
                  9e-7, -9e-7, 1.5e-6, -1.5e-6]
        for trial in range(400):
            n = rng.randint(2, 12)
            r = rng.choice((0.5, 1.0, 2.0, 30.0))
            weight = (lambda: float(rng.randint(1, 4)), lambda: 1.0,
                      lambda: rng.uniform(0.5, 5.0))[trial % 3]
            inst = Instance([Customer(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)), weight())
                             for _ in range(n)], 2.0 * r)
            apex = (Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) if trial % 4
                    else inst.customers[0].site)
            vx = inst.xs - apex.x
            vy = inst.ys - apex.y
            d = np.hypot(vx, vy)
            with np.errstate(divide="ignore"):
                psi = np.arccos(np.clip((r - inst.closed_tol) / d, -1.0, 1.0))
            theta = np.arctan2(vy, vx)
            ends = np.concatenate([theta - psi, theta + psi]) % (2.0 * math.pi)
            thetas = np.sort(np.concatenate([ends + e for e in rng.sample(beside, 5)]))
            thetas = thetas[(thetas >= 0.0) & (thetas <= 2.0 * math.pi)]
            got = vprune._first_max_capture(inst, vx, vy, thetas)
            want = support.table_first_max_capture(inst, vx, vy, thetas)
            assert (got[0], got[1].hex()) == (want[0], want[1].hex()), trial


class TestDecide:
    def test_lines_outside_the_box(self):
        """The plane search never decides outside the open box it starts
        its slab from, and ``decide`` rejects a line there."""
        inst = generate_instance(5, seed=9, r=2.0)
        idx = build_angular_index(inst)
        frame = support.bounding_frame(inst)
        for x in (frame.xmin - 5.0, frame.xmin, frame.xmax, frame.xmax + 5.0):
            assert_rejected(inst, idx, x)

    def test_a_non_finite_abscissa_raises(self):
        """NaN and infinite abscissas fail the box's guard, which would
        otherwise pass NaN to the search."""
        inst = generate_instance(8, 1, r=4.0, coord_range=16)
        idx = build_angular_index(inst)
        for x in (math.nan, math.inf, -math.inf):
            assert_rejected(inst, idx, x)

    def test_rules_and_origins_keep_their_strings(self):
        assert (vprune.AT_BREAKPOINT, vprune.AT_MIDPOINT,
                vprune.BY_PSEUDO_WEDGE) == support.DECISION_RULES
        assert (vprune.STRONG_AT_BREAKPOINT, vprune.STRONG_AT_MIDPOINT) == support.STRONG_ORIGINS
        assert vprune.EMPTY_PSEUDO_WEDGE == support.CONDITIONAL_ORIGIN

    def test_kept_side_retains_a_global_optimum(self):
        rng = random.Random(19)
        kinds = set()
        for trial in range(30):
            inst = support.seeded_instance(10_000 + trial, n_lo=3, n_hi=7)
            idx = build_angular_index(inst)
            frame = support.bounding_frame(inst)
            L = support.vertical_through_box(rng, frame)
            X = L.anchor.x
            try:
                dec = decide(inst, idx, X, Telemetry())
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
            kinds.add(dec.keep)
            assert dec.x == X and dec.rule in support.DECISION_RULES, (trial, dec)
            assert_kept_side_holds_an_optimum(inst, dec.keep, X, trial)
        assert SIDEWARD_RIGHT in kinds or SIDEWARD_LEFT in kinds


def near_tangency_instance(seed):
    """3-7 real sites in [-20, 20]^2 with integer weights 1-5, R in
    {1, 2, 4}, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    R = rng.choice((1.0, 2.0, 4.0))
    return Instance([Customer(Point(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                              float(rng.randint(1, 5))) for _ in range(n)], R)


NO_CAPTURE = support.NO_CAPTURE
# The (seed, disc, end, k) lines of the campaign below on which a decision
# raises NO_CAPTURE.  None does since a decision's array holds the capture
# circle's crossings next to a tangency (``vertical_breakpoints``); before,
# 42 lines at a disc's leftmost x + 1 eps raised.
NEAR_TANGENCY_RAISES = frozenset()


def test_decisions_near_a_tangency_keep_an_optimum():
    """On 300 seeded instances (``near_tangency_instance``), decisions at
    each disc's leftmost and rightmost x + k eps, k in {-20, 1, 20}, inside
    the open box (three lines an instance lie outside it): every
    certificate is the brute minimum, and every decision keeps one, at a
    brute candidate or site on its kept closed side, at a breakpoint of its
    line or a midpoint between two, or at its ``least``.  The lines that
    raise NO_CAPTURE are exactly NEAR_TANGENCY_RAISES, so a new raise and a
    mend both fail here.  Each line is decided again with the anchors of
    its neighbour's decision (k = 1 for k = -20, else the k before) as its
    hint, and that warm decision passes the same checks: the lean is not
    monotone next to a tangency, so it may settle at a breakpoint the cold
    search cut away, but it raises on the same lines.  8,088 lines, each
    twice, about 15 s on a 2-core x86 host."""
    seen = {"lines": 0, "certified": 0, "hinted": 0, SIDEWARD_RIGHT: 0, SIDEWARD_LEFT: 0}
    ks = (-20, 1, 20)
    rules = set()
    raised = {"cold": set(), "warm": set()}
    for seed in range(300):
        inst = near_tangency_instance(seed)
        pts = support.brute_candidate_points(inst)
        cx = np.array([p.x for p in pts])
        values = medianoid.sweep(inst, cx, np.array([p.y for p in pts]), losses=True)
        best = values.min()
        idx = build_angular_index(inst)
        lo, hi = idx.box
        for disc in range(inst.n):
            for end in (-1, 1):
                xs = [float(inst.xs[disc]) + end * inst.r + k * inst.eps for k in ks]
                cold = [support.decision_outcome(inst, idx, x) if lo < x < hi else None
                        for x in xs]
                for i, (k, x) in enumerate(zip(ks, xs)):
                    if cold[i] is None:
                        continue
                    seen["lines"] += 1
                    key = (seed, disc, end, k)
                    hint = getattr(cold[1 if i == 0 else i - 1], "anchors", None)
                    seen["hinted"] += hint is not None
                    warm = support.decision_outcome(inst, idx, x, hint)
                    for path, dec in (("cold", cold[i]), ("warm", warm)):
                        if dec == ("raised", NO_CAPTURE):
                            raised[path].add(key)
                            continue
                        if not isinstance(dec, Decision):
                            seen["certified"] += 1
                            assert dec[1] == best, (key, path)
                            continue
                        assert dec.x == x, (key, path)
                        seen[dec.keep] += 1
                        rules.add(dec.rule)
                        side = cx >= x if dec.keep == SIDEWARD_RIGHT else cx <= x
                        kept = [values[side].min()] if side.any() else []
                        P = np.unique(vertical_breakpoints(idx, x))
                        ys = np.concatenate([P, (P[1:] + P[:-1]) / 2.0])
                        if len(ys):
                            kept.append(medianoid.sweep(inst, np.full(len(ys), x), ys,
                                                        losses=True).min())
                        kept.append(dec.least[1])
                        assert min(kept) == best, (key, path, dec, min(kept), best)
    for path in ("cold", "warm"):
        assert raised[path] == NEAR_TANGENCY_RAISES, (path, sorted(raised[path] ^ NEAR_TANGENCY_RAISES))
    assert seen["lines"] == 8088 and min(seen.values()) > 0, seen
    assert rules == set(support.DECISION_RULES), rules


def test_a_hint_keeps_every_decision():
    """On 64 seeded instances (n = 6-80, R = 1, 4 or 12, range 2n) at 7
    random abscissas in the box each, ``decide`` with each of
    ``support.anchor_hints``'s eight ordinate intervals returns the record
    it returns without one, or certifies the same loss as it does: 3,584
    hinted decisions.  Every record carries the same ``least`` loss, which
    records do not compare.  Every record that its anchors settled, not a
    sideward breakpoint, carries the same anchors; so the midpoint and the
    pseudo-wedge are those of the unhinted search, and the anchors
    themselves, or an interval strictly between them, cost one two-row
    sweep and the midpoint: no position lies between the anchors, so
    nothing is left to search."""
    rng = random.Random(43)
    seen = {"decisions": 0, "certified": 0, "anchored": 0, AT_BREAKPOINT: 0}
    for trial in range(64):
        n = rng.randint(6, 80)
        R = rng.choice((1.0, 4.0, 12.0))
        inst = support.accepted_instance(rng, n, R)
        idx = build_angular_index(inst)
        frame = support.bounding_frame(inst)
        for _ in range(7):
            x = rng.uniform(frame.xmin, frame.xmax)
            cold = support.decision_outcome(inst, idx, x)
            for hint in support.anchor_hints(rng, idx, x, getattr(cold, "anchors", None)):
                warm = support.decision_outcome(inst, idx, x, hint)
                assert warm == cold, (trial, x, hint, warm, cold)
                seen["decisions"] += 1
                if not isinstance(cold, Decision):
                    seen["certified"] += 1
                    continue
                assert warm.least[1] == cold.least[1], (trial, x, hint, warm, cold)
                if cold.rule == AT_BREAKPOINT:
                    seen[AT_BREAKPOINT] += 1
                else:
                    seen["anchored"] += 1
                    assert warm.anchors == cold.anchors, (trial, x, hint)
            if isinstance(cold, Decision) and cold.rule != AT_BREAKPOINT:
                t_up, t_down = cold.anchors
                for hint in (cold.anchors, ((2 * t_up + t_down) / 3, (t_up + 2 * t_down) / 3)):
                    tel = Telemetry()
                    assert decide(inst, idx, x, tel, hint) == cold, (trial, x, hint)
                    assert tel.medianoid_calls == 3, (trial, x, hint, tel)
    assert seen["decisions"] == 3584 and min(seen.values()) > 0, seen


def test_a_decisions_least_is_its_lines_minimum(monkeypatch):
    """On the 704 decisions of 45 seeded parametric solves (n = 8-80,
    R = 1, 4 or 12, seeds 1-3, range 2n), the loss of a decision's
    ``least`` equals the minimum that the line search
    (``local_optima_on_lines``) finds on the decision's array; where
    either certifies, the two certificates' losses are equal.  The plane
    search no longer searches its boundary lines: that search is the
    reference for the evaluation that replaced it.  A decision that did
    not settle at a breakpoint read its midpoint off a sweep row: the
    public ``solve_medianoid`` wedge at that midpoint must lean the same
    way on the line, to the kept side (``AT_MIDPOINT``, 19 decisions) or
    along the line (``BY_PSEUDO_WEDGE``, 512)."""
    decisions = []

    def recorded(inst, idx, x, telemetry, hint=None):
        try:
            dec = decide(inst, idx, x, telemetry, hint)
        except CertifiedOptimum as cert:
            decisions.append((x, cert.weight_loss, None))
            raise
        decisions.append((x, dec.least[1], dec))
        return dec

    monkeypatch.setattr(centroid, "decide", recorded)
    seen = 0
    rules = {AT_MIDPOINT: 0, BY_PSEUDO_WEDGE: 0}
    for n in (8, 12, 20, 40, 80):
        for R in (1.0, 4.0, 12.0):
            for seed in (1, 2, 3):
                inst = generate_instance(n, seed, r=R, coord_range=2 * n)
                decisions.clear()
                solve_centroid(inst)
                idx = build_angular_index(inst)
                for x, loss, dec in decisions:
                    try:
                        [(_, want)] = local_optima_on_lines(
                            inst, vertical_lines([x]), [vertical_breakpoints(idx, x)], Telemetry())
                    except CertifiedOptimum as cert:
                        want = cert.weight_loss
                    assert loss == want, (n, R, seed, x, loss, want)
                    seen += 1
                    if dec is None or dec.rule == AT_BREAKPOINT:
                        continue
                    t_up, t_down = dec.anchors
                    m = (t_up + t_down) / 2.0
                    x_B = Point(x + m * 0.0, 0.0 + m * 1.0)
                    wedge = solve_medianoid(inst, x_B).wedge
                    lean = support.classify_wedge_on_line(wedge, math.pi / 2.0)
                    if dec.rule == AT_MIDPOINT:
                        assert lean == dec.keep, (n, R, seed, x, lean, dec)
                    else:
                        assert dec.rule == BY_PSEUDO_WEDGE
                        assert lean not in (SIDEWARD_LEFT, SIDEWARD_RIGHT), (n, R, seed, x, lean)
                    rules[dec.rule] += 1
    assert seen == 704, seen
    assert min(rules.values()) > 0, rules
