"""End-to-end tests for the plane solver in its three modes."""

import copy
import math
import random

import numpy as np
import pytest

import support
from rivalloc import centroid
from rivalloc.centroid import (
    VERTICAL_EPS,
    CertifiedOptimum,
    _LM_COLUMNS,
    _LMDescriptors,
    _Slab,
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
from rivalloc.linesearch import Telemetry, build_angular_index
from rivalloc.medianoid import solve_medianoid
from rivalloc.oracle import (
    CIRCLE_CIRCLE,
    TANGENT_CIRCLE,
    TANGENT_TANGENT,
    enumerate_candidates,
)
from rivalloc.vprune import build_frame


def log_ratio(x, base):
    return math.log(x) / math.log(base)


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
                bound = 2.0 * (log_ratio(max(mass0, 2), 8.0 / 7.0) + 8.0)
                assert tel["lm_rounds"] <= bound, (trial, mass0, tel["lm_rounds"])
            frac = tel["prune_min_fraction"]
            if frac is not None:
                assert frac >= 1.0 / 2.0, (trial, frac)
        assert lt_seen > 0
        assert lm_seen > 0

    def test_lm_rounds_stay_within_their_budget_on_a_fresh_slab(self):
        """LT's slab rarely leaves LM any crossing, so run LM alone on the
        unbounded slab to keep its round budget exercised."""
        lm_seen = 0
        for trial in range(20):
            inst = support.seeded_instance(22_000 + trial, n_lo=8, n_hi=14)
            tel = Telemetry()
            idx = build_angular_index(inst)
            try:
                local_optimal_line_LM(inst, idx, build_frame(inst), _Slab(), tel)
            except CertifiedOptimum:
                continue
            if tel.lm_mass0:
                lm_seen += 1
                bound = 2.0 * (log_ratio(max(tel.lm_mass0, 2), 8.0 / 7.0) + 8.0)
                assert tel.lm_rounds <= bound, (trial, tel.lm_mass0, tel.lm_rounds)
        assert lm_seen >= 15

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
        """Each family alone on a fresh slab leaves none of its candidates
        strictly inside; the three in turn on one slab leave none of any
        family.  Candidates on a vertical tangent line, which is searched
        directly, do not count."""
        runs = [{tag} for tag in self.FAMILIES] + [set(self.FAMILIES)]
        seen = {"candidates": 0, "lm_rounds": 0, "lc_steps": 0}
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
                eps = inst.eps
                inside = [
                    (p.x, p.y, tag) for p, tag in cands
                    if tag in tags and slab.lo + eps < p.x < slab.hi - eps
                    and all(abs(p.x - x) > eps for x in xs)
                ]
                assert not inside, (trial, sorted(tags), slab.lo, slab.hi, inside)
                seen["candidates"] += sum(tag in tags for _, tag in cands)
                seen["lm_rounds"] += tel.lm_rounds
                seen["lc_steps"] += tel.lc_steps
        assert all(seen.values()), seen


def _descriptor_multiset(rows):
    return sorted(
        (int(v), int(u), int(br), int(lo), int(hi), bool(incr), float(x3), float(th0), float(rho))
        for v, u, br, lo, hi, incr, x3, th0, rho in rows
    )


class TestLMDescriptors:
    def test_vectorised_build_matches_the_loop_reference(self):
        regimes = {"apart": 0, "touching": 0, "overlapping": 0}
        for n in range(2, 31):
            base = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            touching = float(build_angular_index(base).dist[0, 1])
            # Discs mostly apart, mostly overlapping, and one pair at rho == 2r.
            for R in (2.0, 3.0 * (n + 10), touching):
                inst = Instance(base.customers, R)
                idx = build_angular_index(inst)
                descs = _LMDescriptors(idx, _Slab())
                got = zip(descs.dv, descs.du, descs.dbr, descs.dlo, descs.dhi,
                          descs.dincr, descs.dx3, descs.dth0, descs.drho)
                want = support.reference_lm_descriptors(idx)
                assert _descriptor_multiset(got) == _descriptor_multiset(want), (n, R)
                off = ~np.eye(n, dtype=bool)
                regimes["apart"] += int(np.sum(idx.dist[off] > R))
                regimes["touching"] += int(np.sum(idx.dist[off] == R))
                regimes["overlapping"] += int(np.sum(idx.dist[off] < R))
        assert all(count > 0 for count in regimes.values()), regimes

    def test_slab_build_equals_the_full_build_cut_to_the_slab(self):
        """Only partners whose disc reaches the open slab get windows; the
        rest hold no crossing a cut would keep.  Slab ends sit on the
        rounded disc edges fl(xs[u] - r), fl(xs[u] + r) and one ulp either
        side of them.  Discs are apart, touch at the closest pair, or
        overlap (all of them up to n=40, near neighbours at n=200)."""
        seen = {"kept": 0, "dropped": 0}
        for n in list(range(1, 41)) + [200]:
            base = generate_instance(n, seed=n, r=2.0, coord_range=n + 10)
            radii = [2.0, 3.0 * (n + 10) if n <= 40 else 20.0]
            if n > 1:
                dist = build_angular_index(base).dist
                radii.append(float(dist[~np.eye(n, dtype=bool)].min()))
            for R in radii:
                inst = Instance(base.customers, R)
                idx = build_angular_index(inst)
                full = _LMDescriptors(idx, _Slab())
                order = np.argsort(idx.xs, kind="stable")
                u, w = order[n // 2], order[(3 * n) // 4]
                ends = []
                for e in (idx.xs[u] - inst.r, idx.xs[u] + inst.r,
                          idx.xs[w] + inst.r):
                    ends.append([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)])
                # The ends that decide whether u's own windows are built.
                slabs = [(-math.inf, math.inf)]
                slabs += [(-math.inf, e) for e in ends[0]]
                slabs += [(e, math.inf) for e in ends[1]]
                slabs += list(zip(ends[1], ends[2]))
                for lo, hi in slabs:
                    slab = _Slab()
                    slab.lo, slab.hi = float(lo), float(hi)
                    want = copy.copy(full)
                    if math.isfinite(slab.lo):
                        want.cut_keep_gt(slab.lo)
                    if math.isfinite(slab.hi):
                        want.cut_keep_lt(slab.hi)
                    got = _LMDescriptors(idx, slab)
                    for name in _LM_COLUMNS:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype, (n, R, lo, hi, name)
                        assert a.tobytes() == b.tobytes(), (n, R, lo, hi, name)
                    seen["kept"] += want.total_mass()
                    seen["dropped"] += full.total_mass() - want.total_mass()
        assert all(seen.values()), seen

    def test_cuts_keep_exactly_the_survivors_and_drop_emptied_windows(self):
        rng = np.random.default_rng(5)
        cuts = 0
        for n, seed in ((12, 1), (30, 2), (60, 3)):
            inst = generate_instance(n, seed=seed, r=4.0, coord_range=2 * n)
            descs = _LMDescriptors(build_angular_index(inst), _Slab())
            while descs.total_mass() > 0:
                before = support.remaining_xs(descs)
                X = float(rng.choice(before))
                if rng.random() < 0.5:
                    descs.cut_keep_gt(X)
                    want = sorted(x for x in before if x > X)
                else:
                    descs.cut_keep_lt(X)
                    want = sorted(x for x in before if x < X)
                assert sorted(support.remaining_xs(descs)) == want, (n, X)
                assert np.all(descs.dhi > descs.dlo)
                cuts += 1
        assert cuts > 20


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
