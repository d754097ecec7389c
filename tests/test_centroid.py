"""End-to-end tests for the plane solver in its three modes."""

import math
import random

import numpy as np
import pytest

import support
from rivalloc import centroid
from rivalloc.centroid import (
    VERTICAL_EPS,
    CertifiedOptimum,
    _Slab,
    _circle_crossings,
    _disc_crossings,
    _exhaust,
    _inverted_pairs,
    _lt_lines,
    local_optimal_line_LC,
    local_optimal_line_LM,
    local_optimal_line_LT,
    solve_centroid,
)
from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point, general_position_violation
from rivalloc.linesearch import (
    Telemetry,
    build_angular_index,
    local_optima_on_lines,
    local_optimum_on_line,
)
from rivalloc.medianoid import solve_medianoid
from rivalloc.oracle import (
    CIRCLE_CIRCLE,
    TANGENT_CIRCLE,
    TANGENT_TANGENT,
    enumerate_candidates,
)
from rivalloc.vprune import build_frame


def slab_of(lo, hi):
    slab = _Slab()
    slab.lo, slab.hi = lo, hi
    return slab


class TestThreeModeAgreement:
    def test_modes_agree_on_the_follower_value(self):
        for trial in range(40):
            inst = support.seeded_instance(20_000 + trial, n_lo=3, n_hi=9)
            reports = {m: solve_centroid(inst, mode=m) for m in
                       ("parametric", "intermediate", "brute")}
            values = {m: r.weight_loss for m, r in reports.items()}
            assert len(set(values.values())) == 1, (trial, values)
            for m, rep in reports.items():
                check = solve_medianoid(inst, rep.centroid)
                assert check.weight_loss == rep.weight_loss, (trial, m)
                fields = (rep.centroid.x, rep.centroid.y, rep.weight_loss,
                          rep.witness_angle)
                assert all(type(f) is float for f in fields), (trial, m, fields)
                assert support.weight_at_angle(
                    inst, rep.centroid, rep.witness_angle
                ) == rep.weight_loss, (trial, m)

    def test_real_weights_give_bitwise_equal_losses(self):
        """Each mode sums the weight of its capture set exactly, so the
        same capture set reached at different points gives the same loss
        (seeds 3 and 12 differed by 1-2 ulp with running sums)."""
        for seed in range(16):
            base = generate_instance(8, seed, r=4.0, coord_range=8)
            rng = random.Random(seed)
            inst = Instance([Customer(c.site, rng.uniform(0.1, 3.0))
                             for c in base.customers], base.R)
            losses = {m: solve_centroid(inst, mode=m).weight_loss.hex()
                      for m in ("parametric", "intermediate", "brute")}
            assert len(set(losses.values())) == 1, (seed, losses)

    def test_unknown_mode_rejected(self):
        inst = support.seeded_instance(1)
        with pytest.raises(ValueError, match="unknown solver mode"):
            solve_centroid(inst, mode="fast")

    @pytest.mark.parametrize("sites", [[(0.0, 0.0, 3.0)],
                                       [(0.0, 0.0, 3.0), (5.0, 2.0, 2.0)],
                                       [(0.0, 0.0, 3.0), (1.0, 2.0, 2.0)]])
    def test_one_and_two_customers_solve_in_every_mode(self, sites):
        inst = Instance([Customer(Point(x, y), w) for x, y, w in sites], 4.0)
        losses = {m: solve_centroid(inst, mode=m).weight_loss
                  for m in ("parametric", "intermediate", "brute")}
        assert len(set(losses.values())) == 1, losses


class TestLineGroups:
    def test_certifying_intermediate_group_resolves_to_the_earliest_line(self):
        """Intermediate searches one customer's tangent lines in lockstep,
        finishes the first round in which some of them certify and raises
        the first of those in input order.  Here three lines of the first
        group certify, two of them in the fewest rounds, and the first
        certifying line is not among those two: the group raises the
        earlier of the two, after the round that finishes both."""
        inst = support.seeded_instance(
            56, n_lo=4, n_hi=9, coord_range=10, r_choices=(6.0, 10.0, 20.0)
        )
        idx = build_angular_index(inst)
        lines = [
            idx.tangent_line(0, j) for j in range(1, idx.n)
            if abs(math.sin(idx.ang[0, j])) > VERTICAL_EPS
        ]
        alone = {}
        rounds = []
        for k, L in enumerate(lines):
            tel = Telemetry()
            try:
                local_optimum_on_line(inst, idx, L, tel)
                rounds.append(None)
            except CertifiedOptimum as cert:
                assert cert.origin == "strong centroid on a searched line"
                alone[k] = cert
                rounds.append(tel.medianoid_calls)
        certifying = sorted(alone)
        fastest = min(rounds[k] for k in certifying)
        first, second = [k for k in certifying if rounds[k] == fastest][:2]
        assert certifying[0] < first < second

        tel = Telemetry()
        with pytest.raises(CertifiedOptimum) as got:
            local_optima_on_lines(inst, idx, lines, tel)
        assert got.value.point == alone[first].point
        assert got.value.weight_loss == alone[first].weight_loss
        # Every search counts the round in which the group stops: one
        # evaluation each, five of which cut.
        assert tel == Telemetry(medianoid_calls=7, lines_searched=7,
                                prune_iterations=5, prune_min_fraction=0.5)
        rep = solve_centroid(inst, "intermediate")
        assert rep.telemetry["certified"] == "strong centroid on a searched line"
        assert rep.centroid == alone[first].point


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["parametric", "intermediate", "brute"])
    def test_repeat_solves_return_the_same_point(self, mode):
        for trial in range(8):
            inst = support.seeded_instance(21_000 + trial, n_lo=4, n_hi=9)
            a = solve_centroid(inst, mode=mode)
            b = solve_centroid(inst, mode=mode)
            assert (a.centroid.x, a.centroid.y) == (b.centroid.x, b.centroid.y)
            assert a.weight_loss == b.weight_loss
            assert a.witness_angle == b.witness_angle


class TestCertificates:
    def test_strong_centroid_short_circuit(self):
        inst = support.seeded_instance(3)
        rep = solve_centroid(inst, mode="parametric")
        assert rep.telemetry["certified"] == (
            "strong centroid at a breakpoint of the query line"
        )
        assert rep.weight_loss == solve_centroid(inst, mode="brute").weight_loss

    def test_conditional_centroid_short_circuit(self):
        inst = support.seeded_instance(15)
        rep = solve_centroid(inst, mode="parametric")
        assert rep.telemetry["certified"] == (
            "empty pseudo-wedge cone at the better anchor"
        )
        assert rep.weight_loss == solve_centroid(inst, mode="brute").weight_loss

    def test_zero_loss_cluster(self):
        # every customer within half the separation of one point: the
        # follower can never win anything there
        inst = Instance(
            [
                Customer(Point(0.0, 0.0), 3.0),
                Customer(Point(2.0, 1.0), 1.0),
                Customer(Point(1.0, 3.0), 2.0),
            ],
            8.0,
        )
        for mode in ("parametric", "intermediate", "brute"):
            rep = solve_centroid(inst, mode=mode)
            assert rep.weight_loss == 0.0, mode


class TestTelemetryBudgets:
    def test_round_counts_stay_within_their_bounds(self):
        lt_seen = lm_seen = 0
        for trial in range(20):
            inst = support.seeded_instance(22_000 + trial, n_lo=8, n_hi=14)
            tel = solve_centroid(inst, mode="parametric").telemetry
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
            frac = tel["prune_min_fraction"]
            if frac is not None:
                assert frac >= 1.0 / 2.0, (trial, frac)
        assert lt_seen > 0
        assert lm_seen > 0

    def test_wall_time_recorded(self):
        inst = support.seeded_instance(42, n_lo=5, n_hi=9)
        tel = solve_centroid(inst, mode="parametric").telemetry
        assert tel["wall_time_s"] > 0.0
        assert tel["medianoid_calls"] > 0


class TestCrossingSelection:
    @staticmethod
    def enumerated(lnx, lny, loff, lo, hi):
        got = []
        for a, b in _inverted_pairs(lnx, lny, loff, lo, hi):
            got += [(min(i, j), max(i, j)) for i, j in zip(a.tolist(), b.tolist())]
        assert len(got) == len(set(got)), "a pair was listed twice"
        return set(got)

    @staticmethod
    def random_lines(rng, m):
        """Integer lines through a few integer points (so y ties exactly at
        those abscissas), real lines, and near-parallel twins."""
        anchors = [(rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(3)]
        lines = []
        while len(lines) < m:
            kind = rng.random()
            if kind < 0.5:
                x0, y0 = rng.choice(anchors)
                s = float(rng.randint(-3, 3))
                lines.append((-s, 1.0, y0 - s * x0))
            elif kind < 0.8 or not lines:
                th = rng.uniform(0.1, math.pi - 0.1)
                lines.append((math.cos(th), math.sin(th), rng.uniform(-5, 5)))
            else:
                nx, ny, off = rng.choice(lines)
                lines.append((nx + 1e-13, ny, off + rng.uniform(-1, 1)))
        lines = np.array(lines).reshape(-1, 3)
        return lines[:, 0].copy(), lines[:, 1].copy(), lines[:, 2].copy(), anchors

    def test_inverted_pairs_equal_the_pairwise_reference(self):
        rng = random.Random(0x1A7)
        for m in (0, 1, 2, 3, 5, 6, 7, 12, 17, 31, 33, 64, 90):
            for _ in range(3):
                lnx, lny, loff, anchors = self.random_lines(rng, m)
                ends = [float(x0) for x0, _ in anchors]
                if m >= 2:
                    i, j = rng.sample(range(m), 2)
                    den = lnx[j] * lny[i] - lnx[i] * lny[j]
                    if abs(den) > VERTICAL_EPS:
                        ends.append((loff[j] * lny[i] - loff[i] * lny[j]) / den)
                ends += [np.nextafter(x, d) for x in list(ends) for d in (-math.inf, math.inf)]
                slabs = [(-math.inf, math.inf)]
                slabs += [(-math.inf, x) for x in ends] + [(x, math.inf) for x in ends]
                slabs += [(lo, hi) for lo in ends for hi in ends if lo < hi]
                for lo, hi in rng.sample(slabs, min(12, len(slabs))):
                    want = support.reference_inverted_pairs(lnx, lny, loff, lo, hi)
                    assert self.enumerated(lnx, lny, loff, lo, hi) == want, (m, lo, hi)

    def test_each_decision_prunes_at_least_half_of_the_batch(self):
        """Against a decision that always keeps the fuller side, a batch of
        C abscissas (duplicates included) ends within floor(log2 C) + 1
        decisions and leaves none of them inside the slab."""
        rng = random.Random(0xBA7)
        for C in range(1, 130):
            xs = np.array([
                float(rng.randint(-3, 3)) if rng.random() < 0.3 else rng.uniform(-5, 5)
                for _ in range(C)
            ])
            slab = _Slab()
            calls = []

            def keep_fuller_side(x):
                calls.append(x)
                left = np.sum((xs > slab.lo) & (xs < x))
                right = np.sum((xs > x) & (xs < slab.hi))
                if right >= left:
                    slab.lo = x
                else:
                    slab.hi = x

            _exhaust(xs, slab, keep_fuller_side)
            assert len(calls) <= math.floor(math.log2(C)) + 1, (C, len(calls))
            assert not ((xs > slab.lo) & (xs < slab.hi)).any()

    @staticmethod
    def real_instance(n, seed):
        rng = random.Random(seed)
        customers = [
            Customer(Point(rng.uniform(-2 * n, 2 * n), rng.uniform(-2 * n, 2 * n)),
                     float(rng.randint(1, 10)))
            for _ in range(n)
        ]
        return Instance(customers, rng.choice((2.0, 4.0)))

    @pytest.mark.parametrize("cap", [None, 0.05])
    def test_no_tangent_crossing_strictly_inside_the_final_slab(self, monkeypatch, cap):
        """Every pair of LT's lines, scanned with LT's own crossing
        expression and no tolerance, crosses outside the open slab LT
        leaves.  A tiny cap forces thinned batches and repeated steps."""
        if cap is not None:
            monkeypatch.setattr(centroid, "LT_CAP", cap)
        searched = thinned = 0
        for trial in range(17):
            n = 8 + 2 * trial
            if trial % 3 == 2:
                inst = self.real_instance(n, 24_000 + trial)
                assert general_position_violation(inst) is None
            else:
                inst = generate_instance(n, 24_000 + trial, r=(2.0, 4.0)[trial % 2],
                                         coord_range=(n, 3 * n)[trial % 3 == 1])
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            slab = _Slab()
            tel = Telemetry()
            try:
                local_optimal_line_LT(inst, idx, frame, slab, tel)
            except CertifiedOptimum:
                continue
            searched += 1
            thinned += tel.lt_rounds > 2
            lnx, lny, loff, _ = _lt_lines(idx, frame)
            for i in range(len(lnx) - 1):
                j = slice(i + 1, None)
                with np.errstate(divide="ignore", invalid="ignore"):
                    den = lnx[j] * lny[i] - lnx[i] * lny[j]
                    x = (loff[j] * lny[i] - loff[i] * lny[j]) / den
                    inside = (np.abs(den) > VERTICAL_EPS) & (x > slab.lo) & (x < slab.hi)
                assert not inside.any(), (trial, i, slab.lo, slab.hi, x[inside])
        assert searched >= 12
        assert thinned >= (searched if cap is not None else 0)


class TestSharedSlab:
    FAMILIES = {
        TANGENT_TANGENT: local_optimal_line_LT,
        TANGENT_CIRCLE: local_optimal_line_LM,
        CIRCLE_CIRCLE: local_optimal_line_LC,
    }

    def test_no_candidate_lies_strictly_inside_the_slab(self):
        """The tangent-tangent and circle-circle families each alone on a
        fresh slab leave none of their candidates strictly inside; the
        three in turn on one slab leave none of any family.  Candidates on
        a vertical tangent line, which is searched directly, do not count.
        The tangent-circle family needs LT's slab (``TestTangentCircleGaps``
        runs it alone)."""
        runs = [{TANGENT_TANGENT}, {CIRCLE_CIRCLE}, set(self.FAMILIES)]
        seen = {"candidates": 0, "lc_steps": 0}
        for trial in range(40):
            inst = support.seeded_instance(23_000 + trial, n_lo=6, n_hi=10)
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            found = enumerate_candidates(inst)
            cands = list(zip(found.points, found.provenance))
            for tags in runs:
                slab = _Slab()
                tel = Telemetry()
                xs = []
                try:
                    for tag, family in self.FAMILIES.items():
                        if tag in tags:
                            # Only LT returns lines: the vertical tangents.
                            xs += family(inst, idx, frame, slab, tel) or []
                except CertifiedOptimum:
                    continue
                inside = support.candidates_inside(inst, cands, tags, slab, xs)
                assert not inside, (trial, sorted(tags), slab.lo, slab.hi, inside)
                seen["candidates"] += sum(tag in tags for _, tag in cands)
                seen["lc_steps"] += tel.lc_steps
        assert all(seen.values()), seen


class TestTangentCircleGaps:
    """LM on the gaps between consecutive crossings of LT's lines, where
    LT's contract holds by construction: no two of the lines cross
    strictly inside."""

    @staticmethod
    def instances():
        """Discs apart, overlapping, and touching (R equal to the distance
        of the first two sites), on the integer grid and off it."""
        for trial in range(12):
            base = support.seeded_instance(25_000 + trial, n_lo=5, n_hi=8,
                                           coord_range=12)
            touching = float(np.hypot(base.xs[1] - base.xs[0], base.ys[1] - base.ys[0]))
            yield Instance(base.customers, (2.0, 4.0 * base.n, touching)[trial % 3])
        for trial in range(3):
            yield TestCrossingSelection.real_instance(6, 25_100 + trial)

    def test_blocks_find_every_crossing_and_lm_clears_the_gap(self):
        rng = random.Random(0x6A9)
        seen = {"gaps": 0, "lm_rounds": 0}
        for k, inst in enumerate(self.instances()):
            idx = build_angular_index(inst)
            frame = build_frame(inst)
            lnx, lny, loff, direct_xs = _lt_lines(idx, frame)
            ends = sorted(set(support.line_crossing_xs(lnx, lny, loff)))
            found = enumerate_candidates(inst)
            cands = list(zip(found.points, found.provenance))
            gaps = [
                (lo, hi) for lo, hi in zip([-math.inf] + ends, ends + [math.inf])
                if support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, slab_of(lo, hi), direct_xs)
            ]
            # Each gap, and a slab 1e-7 wide about one of its candidates: LT's
            # final slabs are that narrow, and a line within tol of tangency
            # may then pass wholly inside the circle widened by tol.
            slabs = []
            for lo, hi in rng.sample(gaps, min(8, len(gaps))):
                x = support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, slab_of(lo, hi), direct_xs)[0][0]
                slabs += [(lo, hi), (max(lo, x - 5e-8), min(hi, x + 5e-8))]
            for lo, hi in slabs:
                slab = slab_of(lo, hi)
                got = set(zip(*(a.tolist() for a in
                                _circle_crossings(lnx, lny, loff, inst, slab))))
                want = support.reference_circle_crossings(lnx, lny, loff, inst, lo, hi)
                assert got == want, (k, lo, hi, got ^ want)
                tel = Telemetry()
                try:
                    local_optimal_line_LM(inst, idx, frame, slab, tel)
                except CertifiedOptimum:
                    continue
                inside = support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, slab, direct_xs)
                assert not inside, (k, lo, hi, slab.lo, slab.hi, inside)
                assert tel.lm_mass0 == len(want)
                assert tel.lm_rounds <= math.floor(math.log2(tel.lm_mass0)) + 1
                seen["gaps"] += 1
                seen["lm_rounds"] += tel.lm_rounds
        assert seen["gaps"] >= 40 and seen["lm_rounds"] > 0, seen


class TestSolvesRunningLM:
    """Pinned losses of solves whose slab, after LT, still holds
    tangent-circle crossings, and of two in which many discs (48 and 99 of
    100) reach that slab."""

    @pytest.mark.parametrize("n,seed,R,coord_range,loss,runs_lm", [
        (30, 3, 80.0, 60, 43.0, True),
        (100, 4, 20.0, 200, 281.0, True),
        (100, 1, 200.0, 200, 161.0, False),
        (100, 1, 400.0, 200, 24.0, False),
    ])
    def test_loss_is_pinned(self, n, seed, R, coord_range, loss, runs_lm):
        rep = solve_centroid(generate_instance(n, seed, r=R, coord_range=coord_range))
        assert rep.weight_loss == loss
        if runs_lm:
            assert rep.telemetry["lm_rounds"] >= 1, rep.telemetry


class TestDiscCrossings:
    def test_prefilter_keeps_every_crossing_in_pair_order(self):
        """The prefiltered pairs give exactly the double loop's points,
        including discs that touch (rho == 2r) or miss by a hair."""
        rng = np.random.default_rng(8)
        instances = []
        for n in (1, 2, 5, 12, 30, 70):
            base = generate_instance(n, seed=n, r=4.0, coord_range=n + 10)
            for R in (0.0, 4.0, 3.0 * (n + 10)):
                instances.append(Instance(base.customers, R))
            xy = rng.uniform(-n, n, size=(n, 2))
            instances.append(Instance(
                [Customer(Point(x, y), 1.0) for x, y in xy.tolist()], 5.0))
        for gap in (4.0, 4.0 + 1e-13, 4.0 + 1e-9, 4.0 - 1e-13):
            instances.append(Instance(
                [Customer(Point(0.0, 0.0), 1.0), Customer(Point(gap, 0.0), 1.0),
                 Customer(Point(0.0, gap), 1.0)], 4.0))
        counts = set()
        for inst in instances:
            got = [(p.x, p.y) for p in _disc_crossings(inst)]
            want = [(p.x, p.y) for p in support.reference_disc_crossings(inst)]
            assert np.array(got).tobytes() == np.array(want).tobytes(), inst.n
            counts.add(len(got))
        assert 0 in counts and len(counts) > 5
