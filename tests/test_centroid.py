"""End-to-end tests for the plane solver in its three modes."""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import support
from support import CIRCLE_CIRCLE, TANGENT_CIRCLE, TANGENT_TANGENT
from rivalloc import centroid, linesearch, medianoid, oracle
from rivalloc.centroid import (
    CertifiedOptimum,
    _Slab,
    _circle_crossings,
    _end_order,
    _exhaust,
    _inverted_pairs,
    _sorted_unique,
    local_optimal_line_LC,
    local_optimal_line_LM,
    local_optimal_line_LT,
    solve_centroid,
)
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    ANGLE_TOL,
    Customer,
    DegenerateInputError,
    Instance,
    Point,
    disc_crossings,
    general_position_violation,
)
from rivalloc.linesearch import (
    Telemetry,
    _position_pass,
    build_angular_index,
    local_optima_on_lines,
)
from rivalloc.medianoid import SIDEWARD_LEFT, SIDEWARD_RIGHT, solve_medianoid
from rivalloc.vprune import AT_BREAKPOINT, Decision

# A finite box about the synthetic lines and batches below: their anchors,
# values, random ends and the crossings of the windows' extremes lie in
# [-6, 6].
BOX = (-8.0, 8.0)


def decision(x, keep):
    """A stand-in ``decide`` record at ``x`` that keeps ``keep``."""
    return Decision(x, keep, AT_BREAKPOINT, (Point(x, 0.0), 0.0), (0.0, 0.0))


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


def intermediate_groups(idx):
    """Intermediate mode's line groups: each customer's tangent lines, as
    the rows of the scalar upward lines."""
    return [support.line_rows(support.upward_tangents(idx, i)) for i in range(idx.n)]


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
        lines = intermediate_groups(idx)[0]
        alone = {}
        rounds = []
        for k, L in enumerate(lines):
            tel = Telemetry()
            try:
                local_optima_on_lines(inst, L[None], _position_pass(idx, L[None]), tel)
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
            local_optima_on_lines(inst, lines, _position_pass(idx, lines), tel)
        assert got.value.point == alone[first].point
        assert got.value.weight_loss == alone[first].weight_loss
        # Every search counts the round in which the group stops: one
        # evaluation each, five of which cut.
        assert tel == Telemetry(medianoid_calls=7, lines_searched=7,
                                prune_iterations=5, prune_min_fraction=0.5)
        rep = solve_centroid(inst, "intermediate")
        assert rep.telemetry["certified"] == "strong centroid on a searched line"
        assert rep.centroid == alone[first].point


def exact_telemetry(telemetry):
    """A report's telemetry less its wall time."""
    return {k: v for k, v in telemetry.items() if k != "wall_time_s"}


def exact_report(inst, mode):
    rep = solve_centroid(inst, mode)
    return rep.centroid, rep.weight_loss, rep.witness_angle, exact_telemetry(rep.telemetry)


class TestIntermediateChunks:
    # Seeded instance 7 certifies in two groups, the later in fewer rounds.
    SEVEN = dict(n_lo=4, n_hi=12, coord_range=12, r_choices=(6.0, 10.0, 20.0))

    # The crosscheck instances up to n=16 and seeded instances, among them
    # the certifying ones that the certificate tests pin.
    CASES = (
        [(generate_instance, (n, seed), dict(r=4.0, coord_range=50))
         for n in (8, 10, 12, 16) for seed in (1, 2)]
        + [(support.seeded_instance, (56,),
            dict(n_lo=4, n_hi=9, coord_range=10, r_choices=(6.0, 10.0, 20.0)))]
        + [(support.seeded_instance, (seed,), {}) for seed in (3, 15)]
        + [(support.seeded_instance, (seed,), dict(n_lo=3, n_hi=9))
           for seed in range(20_000, 20_060)]
    )

    @pytest.mark.parametrize("block", [1 << 6, 1 << 16])
    def test_sweep_block_changes_no_report(self, monkeypatch, block):
        """Groups share a lockstep while they fit one sweep block; with
        blocks that hold one group at a time or all of them, every
        intermediate report, telemetry and certificate included, is the
        same."""
        instances = [make(*args, **kw) for make, args, kw in self.CASES]
        want = [exact_report(inst, "intermediate") for inst in instances]
        assert sum(w[3]["certified"] is not None for w in want) >= 10
        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", block)
        for inst, w in zip(instances, want):
            assert exact_report(inst, "intermediate") == w, inst

    def test_earlier_group_wins_over_a_faster_later_one(self, monkeypatch):
        """Two groups of one lockstep certify, the later one in fewer
        rounds: the certificate is the earlier group's, and the telemetry
        is that of searching the groups one after another."""
        inst = support.seeded_instance(7, **self.SEVEN)
        idx = build_angular_index(inst)
        groups = intermediate_groups(idx)
        assert sum(map(len, groups)) <= medianoid.block_size(inst.n)
        rounds = [0]
        sweep = linesearch.sweep

        def counted(*args):
            rounds[0] += 1
            return sweep(*args)

        monkeypatch.setattr(linesearch, "sweep", counted)
        alone = {}
        one_by_one = Telemetry()
        for g, lines in enumerate(groups):
            # One after another, the groups up to the first that certifies
            # count in ``one_by_one``.
            rounds[0] = 0
            try:
                local_optima_on_lines(inst, lines, _position_pass(idx, lines),
                                      Telemetry() if alone else one_by_one)
            except CertifiedOptimum as cert:
                alone[g] = (cert, rounds[0])
        first = min(alone)
        assert any(g > first and r < alone[first][1] for g, (_, r) in alone.items())

        rep = solve_centroid(inst, "intermediate")
        assert rep.centroid == alone[first][0].point
        # The report adds the final re-evaluation and the certificate.
        one_by_one.medianoid_calls += 1
        one_by_one.certified = "strong centroid on a searched line"
        assert exact_telemetry(rep.telemetry) == exact_telemetry(one_by_one.to_dict())

    @pytest.mark.parametrize("block", [medianoid.SWEEP_BLOCK, 1 << 6])
    def test_certifying_chunk_is_searched_again_group_by_group(self, monkeypatch, block):
        """A chunk of several groups that certifies is searched again, one
        group after another up to the first that certifies; a chunk of one
        group raises its own certificate."""
        inst = support.seeded_instance(7, **self.SEVEN)
        idx = build_angular_index(inst)
        groups = intermediate_groups(idx)
        first = 0
        while True:
            try:
                local_optima_on_lines(inst, groups[first], _position_pass(idx, groups[first]),
                                      Telemetry())
            except CertifiedOptimum:
                break
            first += 1
        one_by_one = [len(lines) for lines in groups[:first + 1]]

        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", block)
        size = medianoid.block_size(inst.n)
        if size >= sum(map(len, groups)):
            want = [sum(map(len, groups))] + one_by_one  # one chunk
        else:
            assert size < min(map(len, groups))  # one group per chunk
            want = one_by_one
        calls = []
        search = centroid.local_optima_on_lines

        def counted(inst, lines, positions, tel):
            calls.append(len(lines))
            return search(inst, lines, positions, tel)

        monkeypatch.setattr(centroid, "local_optima_on_lines", counted)
        rep = solve_centroid(inst, "intermediate")
        assert rep.telemetry["certified"] == "strong centroid on a searched line"
        assert calls == want

    @pytest.mark.parametrize("n, seed", [(25, 2), (16, 3)])
    def test_certifying_chunk_builds_its_breakpoints_once(self, monkeypatch, n, seed):
        """The group-by-group search of a certifying chunk reads the
        chunk's own breakpoint arrays: no tangent line's are built twice."""
        inst = generate_instance(n, seed, r=12.0, coord_range=n)
        built = []
        general = centroid._position_pass

        def recorded(idx, lines):
            built.extend(L.tobytes() for L in lines)
            return general(idx, lines)

        monkeypatch.setattr(centroid, "_position_pass", recorded)
        rep = solve_centroid(inst, "intermediate")
        assert rep.telemetry["certified"] == "strong centroid on a searched line"
        assert len(built) > n - 1 and len(set(built)) == len(built)


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
            wires = inst.n * (inst.n - 1) + 2  # the tangent lines and two frame lines
            if tel["lt_oracle"]:
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


class TestLTLines:
    def test_the_table_is_read_in_place_without_a_vertical_tangent(self, monkeypatch):
        """On CLI-valid instances the lines LT and LM first cross are the
        rows of the index's table themselves, frame lines last."""

        class Seen(Exception):
            pass

        def seen(lnx, lny, loff, *rest):
            raise Seen(lnx, lny, loff)

        monkeypatch.setattr(centroid, "_crossing_xs", seen)
        monkeypatch.setattr(centroid, "_circle_crossings", seen)
        for n in (2, 3, 12, 40):
            inst = generate_instance(n, n, r=4.0, coord_range=2 * n)
            idx = build_angular_index(inst)
            for family in (local_optimal_line_LT, local_optimal_line_LM):
                with pytest.raises(Seen) as rows:
                    family(inst, idx, _Slab(idx.box), Telemetry())
                for row, table in zip(rows.value.args, idx.lines, strict=True):
                    assert np.shares_memory(row, idx.lines) and row.tobytes() == table.tobytes()


class TestOneCheck:
    """``solve_centroid`` checks general position in every mode, and
    nothing behind it handles a degenerate instance in part."""

    @pytest.mark.parametrize("mode", ["parametric", "intermediate", "brute"])
    @pytest.mark.parametrize("make", [support.shared_x_instance, support.shared_y_instance])
    def test_every_mode_raises_the_checks_message(self, mode, make):
        inst = make()
        violation = general_position_violation(inst)
        assert violation is not None
        with pytest.raises(DegenerateInputError) as err:
            solve_centroid(inst, mode)
        assert str(err.value) == violation

    def test_the_check_rejects_what_the_deleted_paths_handled(self):
        """Wherever a condition that a solver once handled in part holds
        (``support.partial_degenerate_paths``), ``general_position_violation``
        rejects the instance, and every mode raises: on near-duplicate
        polar angles, on pairs sharing x or y up to 1e-13 to 1e-10 of their
        distance, and on copies of them moved by 1e6 or scaled by 1e-3 and
        1e4."""
        fired = {"shared polar angle": 0, "vertical tangent": 0, "horizontal tangent": 0}
        clean = 0
        cases = [support.near_duplicate_angle_case(seed) for seed in range(400)]
        cases += [support.near_shared_coordinate_case(seed) for seed in range(400)]
        for k, base in enumerate(cases):
            for inst in (base, support.moved_copy(base, shift=1e6),
                         support.moved_copy(base, scale=1e-3), support.moved_copy(base, scale=1e4)):
                held = support.partial_degenerate_paths(inst)
                violation = general_position_violation(inst)
                clean += not held
                if not held:
                    continue
                assert violation is not None, (k, held)
                for name in held:
                    fired[name] += 1
                for mode in ("parametric", "intermediate", "brute"):
                    with pytest.raises(DegenerateInputError) as err:
                        solve_centroid(inst, mode)
                    assert str(err.value) == violation
        # Every condition, and none of them, occurs in quantity.
        assert min(fired.values()) > 50 and clean > 200, (fired, clean)


def test_near_shared_x_reproducer_matches_brute():
    """ROADMAP item 1's reproducer: sites 2 and 3 differ in x by 1.5 eps,
    which the check accepts.  Intermediate and brute report the loss
    below.  Parametric raised in a decision at x = -5.659119698249414,
    where the capture circle crosses the line strictly between the anchors
    its array of r-circles gave, until that array held the crossings."""
    sites = [(31.906575751618064, -26.30312646793982, 2.9162591028207365),
             (40.62615388327485, -15.956194829733917, 0.6963270353106157),
             (-5.159119764602217, 21.992169882910872, 3.332589018540827),
             (-5.159119703662986, 38.87730063443378, 3.986003644124625)]
    inst = Instance([Customer(Point(x, y), w) for x, y, w in sites], 1.0)
    assert general_position_violation(inst) is None
    assert solve_centroid(inst, "parametric").weight_loss == 6.945175156672179


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

    @staticmethod
    def window_extremes(rng, m):
        """Two line sets whose order over (0, 1) moves as far as it can:
        the tangents ``y = 2a x - a^2`` of ``y = x^2`` at shuffled a in
        [0.1, 0.9], of which each pair crosses at (a + a')/2, so their
        order reverses; and shallow lines near y = 0 with one steep line,
        at a random index, that crosses them all (|d| = m - 1)."""
        a = [0.1 + 0.8 * i / max(m - 1, 1) for i in range(m)]
        rng.shuffle(a)
        tangents = [(-2 * t, 1.0, -t * t) for t in a]
        lines = [(-rng.uniform(-1, 1), 1.0, rng.uniform(-5, 5)) for _ in range(m - 1)]
        lines.insert(rng.randrange(m), (-100.0, 1.0, -50.0))
        for rows in (tangents, lines):
            rows = np.array(rows).reshape(-1, 3)
            yield rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy()

    def test_inverted_pairs_equal_the_pairwise_reference(self, monkeypatch):
        """On random lines, on the windows' extremes (every pair inverted;
        one line inverted with every other), also in chunks of 7 candidates
        that cut most windows, and at m = 200."""
        rng = random.Random(0x1A7)
        chunks = (medianoid.SWEEP_BLOCK, 7)
        for m in (2, 3, 17, 64, 200):
            reversed_order, steep = self.window_extremes(rng, m)
            everything = support.reference_inverted_pairs(*reversed_order, 0.0, 1.0)
            assert len(everything) == m * (m - 1) // 2
            for lines in (reversed_order, steep):
                for lo, hi in ((0.0, 1.0), BOX, (0.25, 1.0), (BOX[0], 0.5)):
                    want = support.reference_inverted_pairs(*lines, lo, hi)
                    for chunk in chunks:
                        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", chunk)
                        assert self.enumerated(*lines, lo, hi) == want, (m, lo, hi, chunk)
        monkeypatch.undo()
        for m in (0, 1, 2, 3, 5, 6, 7, 12, 17, 31, 33, 64, 90, 200):
            for _ in range(3 if m < 200 else 1):
                lnx, lny, loff, anchors = self.random_lines(rng, m)
                ends = [float(x0) for x0, _ in anchors]
                if m >= 2:
                    i, j = rng.sample(range(m), 2)
                    den = lnx[j] * lny[i] - lnx[i] * lny[j]
                    if abs(den) > ANGLE_TOL:
                        ends.append((loff[j] * lny[i] - loff[i] * lny[j]) / den)
                ends += [np.nextafter(x, d) for x in list(ends) for d in (-math.inf, math.inf)]
                slabs = [BOX]
                slabs += [(BOX[0], x) for x in ends if x > BOX[0]]
                slabs += [(x, BOX[1]) for x in ends if x < BOX[1]]
                slabs += [(lo, hi) for lo in ends for hi in ends if lo < hi]
                for lo, hi in rng.sample(slabs, min(12, len(slabs))):
                    want = support.reference_inverted_pairs(lnx, lny, loff, lo, hi)
                    assert self.enumerated(lnx, lny, loff, lo, hi) == want, (m, lo, hi)

    def test_one_enumeration_peaks_at_its_orders(self):
        """One ``_inverted_pairs`` pass over the slab that the hashed batch
        leaves at n = 400 (seed 1, R = 4, range 800; 0.72 inverted pairs
        per line) peaks at 3.55 x 8m traced bytes for its m lines (3.554
        measured): ``_end_order``'s key and argsort set the peak, not the
        windows or a chunk.  The bound adds ``traced_peak``'s 0.3% margin."""
        inst = generate_instance(400, 1, r=4.0, coord_range=800)
        idx = build_angular_index(inst)
        lnx, lny, loff = idx.lines
        slab = _Slab(idx.box)
        _exhaust(centroid._hashed_batch(lnx, lny, loff, slab), inst, idx, slab, Telemetry(),
                 "lt_oracle")

        def enumerate_pairs():
            return sum(len(a) for a, _ in _inverted_pairs(lnx, lny, loff, slab.lo, slab.hi))

        pairs, peak = support.traced_peak(enumerate_pairs)
        assert pairs == 115_543
        assert peak <= 3.55 * 1.003 * 8 * len(lnx), peak / (8 * len(lnx))

    def test_end_order_equals_the_int64_build(self):
        """The int32 order, its key built in place and its ties found by
        comparing neighbours, equals the int64 build's, lines tying at an
        end included, the box's integer ends among them."""
        rng = random.Random(0xE2D)
        tied = 0
        for m in (0, 1, 2, 3, 7, 12, 31, 64, 90):
            for _ in range(4):
                lnx, lny, loff, anchors = self.random_lines(rng, m)
                ends = [float(x0) for x0, _ in anchors] + [*BOX, rng.uniform(-3, 3)]
                for x in ends:
                    key = (loff - lnx * x) / lny
                    tied += len(np.unique(key)) < m
                    for right in (True, False):
                        got = _end_order(lnx, lny, loff, x, right)
                        assert got.dtype == np.int32, got.dtype
                        want = support.reference_end_order(lnx, lny, loff, x, right)
                        assert np.array_equal(got, want), (m, x, right)
        assert tied > 50, tied

    @staticmethod
    def exhaust_by(monkeypatch, xs, slab, keep):
        """``_exhaust`` on ``xs`` with ``decide`` replaced by a decision
        at x that keeps the side ``keep(x)`` names; returns its count."""
        monkeypatch.setattr(centroid, "decide", lambda inst, idx, x, telemetry, hint:
                            decision(x, keep(x)))
        tel = Telemetry()
        _exhaust(xs, None, None, slab, tel, "lc_steps")
        return tel.lc_steps

    def test_exhaust_decides_as_the_copy_and_mask_build(self, monkeypatch):
        """On seeded batches with repeated values, ``_exhaust``, which
        partitions in place and keeps one side, decides at the same
        abscissas, in the same order, as the copy-and-mask build, and
        counts each decision."""
        for seed in range(60):
            rng = random.Random(seed)
            C = rng.randint(1, 300)
            values = [float(rng.randint(-5, 5)) for _ in range(4)]
            xs = np.array([rng.choice(values) if rng.random() < 0.4 else rng.uniform(-6, 6)
                           for _ in range(C)])
            runs = []
            for reference in (False, True):
                slab, calls, sides = _Slab(BOX), [], random.Random(seed)

                def keep(x):
                    calls.append(x)
                    return SIDEWARD_RIGHT if sides.random() < 0.5 else SIDEWARD_LEFT

                if reference:
                    support.reference_exhaust(
                        xs.copy(), slab, lambda x: slab.apply(decision(x, keep(x))))
                else:
                    assert self.exhaust_by(monkeypatch, xs.copy(), slab, keep) == len(calls)
                runs.append((calls, slab.lo, slab.hi))
            assert runs[0] == runs[1], seed

    def test_sorted_unique_equals_np_unique(self):
        rng = np.random.default_rng(0x5EED)
        for size in (0, 1, 2, 5, 100, 5000):
            for high in (3, 50, 1 << 40):
                v = rng.integers(0, high, size=size)
                want = np.unique(v)
                got = _sorted_unique(v.copy())
                assert got.dtype == want.dtype and np.array_equal(got, want), (size, high)

    def test_each_decision_prunes_at_least_half_of_the_batch(self, monkeypatch):
        """Against a decision that always keeps the fuller side, a batch of
        C abscissas (duplicates included) ends within floor(log2 C) + 1
        decisions and leaves none of them inside the slab."""
        rng = random.Random(0xBA7)
        for C in range(1, 130):
            xs = np.array([
                float(rng.randint(-3, 3)) if rng.random() < 0.3 else rng.uniform(-5, 5)
                for _ in range(C)
            ])
            slab = _Slab(BOX)
            calls = []

            def keep_fuller_side(x):
                calls.append(x)
                left = np.sum((xs > slab.lo) & (xs < x))
                right = np.sum((xs > x) & (xs < slab.hi))
                return SIDEWARD_RIGHT if right >= left else SIDEWARD_LEFT

            self.exhaust_by(monkeypatch, xs, slab, keep_fuller_side)
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
            slab = _Slab(idx.box)
            tel = Telemetry()
            try:
                local_optimal_line_LT(inst, idx, slab, tel)
            except CertifiedOptimum:
                continue
            searched += 1
            thinned += tel.lt_rounds > 2
            lnx, lny, loff = idx.lines
            for i in range(len(lnx) - 1):
                j = slice(i + 1, None)
                with np.errstate(divide="ignore", invalid="ignore"):
                    den = lnx[j] * lny[i] - lnx[i] * lny[j]
                    x = (loff[j] * lny[i] - loff[i] * lny[j]) / den
                    inside = (np.abs(den) > ANGLE_TOL) & (x > slab.lo) & (x < slab.hi)
                assert not inside.any(), (trial, i, slab.lo, slab.hi, x[inside])
        assert searched >= 12
        assert thinned >= (searched if cap is not None else 0)

    def test_a_thinned_batch_ignores_the_order_of_its_pairs(self, monkeypatch):
        """With ``LT_CAP`` patched as above and chunks of 128 candidates,
        ``_exact_batch`` returns the same sorted abscissas, line mask and
        thinned flag when ``_inverted_pairs`` yields its chunks in
        reverse: each chunk is filtered by the bound in force."""
        indexes = [build_angular_index(generate_instance(
            6 + trial, 25_000 + trial, r=(2.0, 4.0)[trial % 2])) for trial in range(12)]
        monkeypatch.setattr(centroid, "LT_CAP", 0.05)
        monkeypatch.setattr(medianoid, "SWEEP_BLOCK", 128)
        pairs = centroid._inverted_pairs
        thinned = 0
        for trial, idx in enumerate(indexes):
            lnx, lny, loff = idx.lines
            cap = centroid.LT_CAP * len(lnx)
            runs = []
            for order in (list, lambda chunks: list(chunks)[::-1]):
                monkeypatch.setattr(centroid, "_inverted_pairs",
                                    lambda *args: order(pairs(*args)))
                xs, used, was_thinned = centroid._exact_batch(lnx, lny, loff, _Slab(idx.box), cap)
                runs.append((np.sort(xs).tobytes(), used.tobytes(), was_thinned))
            assert runs[0] == runs[1], trial
            thinned += runs[0][2]
        assert thinned == 12


class TestSharedSlab:
    FAMILIES = {
        TANGENT_TANGENT: local_optimal_line_LT,
        TANGENT_CIRCLE: local_optimal_line_LM,
        CIRCLE_CIRCLE: local_optimal_line_LC,
    }

    def test_no_candidate_lies_strictly_inside_the_slab(self):
        """The tangent-tangent and circle-circle families each alone on a
        fresh slab leave none of their candidates strictly inside; the
        three in turn on one slab leave none of any family.
        The tangent-circle family needs LT's slab (``TestTangentCircleGaps``
        runs it alone)."""
        runs = [{TANGENT_TANGENT}, {CIRCLE_CIRCLE}, set(self.FAMILIES)]
        seen = {"candidates": 0, "lc_steps": 0}
        for trial in range(40):
            inst = support.seeded_instance(23_000 + trial, n_lo=6, n_hi=10)
            idx = build_angular_index(inst)
            cands = support.reference_candidates(inst)
            for tags in runs:
                slab = _Slab(idx.box)
                tel = Telemetry()
                try:
                    for tag, family in self.FAMILIES.items():
                        if tag in tags:
                            family(inst, idx, slab, tel)
                except CertifiedOptimum:
                    continue
                inside = support.candidates_inside(inst, cands, tags, slab)
                assert not inside, (trial, sorted(tags), slab.lo, slab.hi, inside)
                seen["candidates"] += sum(tag in tags for _, tag in cands)
                seen["lc_steps"] += tel.lc_steps
        assert all(seen.values()), seen

    def test_nothing_outside_the_box_beats_an_extreme_site(self):
        """The premise of the slab's start (``centroid``'s docstring): at
        x = min x - r - k eps, and at max x + r + k eps, for k in {0, 1, 20,
        10^6} and eight ordinates, the extreme site's among them, the
        follower wins at least what it wins at the leftmost (rightmost)
        site, by ``oracle.brute_medianoid``.  120 instances accepted by the
        general-position check, n = 4-12, R = 1, 4 or 12, with integer and
        real weights: 7,680 points."""
        rng = random.Random(0xB0C5)
        seen = 0
        for trial in range(60):
            R = (1.0, 4.0, 12.0)[trial % 3]
            base = support.accepted_instance(rng, 4 + trial % 9, R)
            real = [Customer(c.site, rng.uniform(0.5, 10.0)) for c in base.customers]
            for inst in (base, Instance(real, R)):
                for e, side in ((int(np.argmin(inst.xs)), -1), (int(np.argmax(inst.xs)), 1)):
                    site = inst.customers[e].site
                    at_site = oracle.brute_medianoid(inst, site)[0]
                    lo, hi = float(inst.ys.min()), float(inst.ys.max())
                    ys = (site.y, site.y - inst.r, site.y + inst.r, lo, hi,
                          lo - 3 * R, hi + 3 * R, rng.uniform(lo, hi))
                    for k in (0, 1, 20, 10 ** 6):
                        x = site.x + side * (inst.r + k * inst.eps)
                        for y in ys:
                            won = oracle.brute_medianoid(inst, Point(x, y))[0]
                            assert won >= at_site, (trial, side, k, y, won, at_site)
                            seen += 1
        assert seen == 7680, seen


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
            lnx, lny, loff = idx.lines
            left, right = idx.box
            ends = sorted(x for x in set(support.line_crossing_xs(lnx, lny, loff))
                          if left < x < right)
            cands = support.reference_candidates(inst)
            gaps = [
                (lo, hi) for lo, hi in zip([left] + ends, ends + [right])
                if support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, _Slab((lo, hi)))
            ]
            # Each gap, and a slab 1e-7 wide about one of its candidates: LT's
            # final slabs are that narrow, and a line within tol of tangency
            # may then pass wholly inside the circle widened by tol.
            slabs = []
            for lo, hi in rng.sample(gaps, min(8, len(gaps))):
                x = support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, _Slab((lo, hi)))[0][0]
                slabs += [(lo, hi), (max(lo, x - 5e-8), min(hi, x + 5e-8))]
            for lo, hi in slabs:
                slab = _Slab((lo, hi))
                got = set(zip(*(a.tolist() for a in
                                _circle_crossings(lnx, lny, loff, inst, slab))))
                want = support.reference_circle_crossings(lnx, lny, loff, inst, lo, hi)
                assert got == want, (k, lo, hi, got ^ want)
                tel = Telemetry()
                try:
                    local_optimal_line_LM(inst, idx, slab, tel)
                except CertifiedOptimum:
                    continue
                inside = support.candidates_inside(
                    inst, cands, {TANGENT_CIRCLE}, slab)
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


def test_no_solve_imports_numpy_ma():
    """A parametric solve that runs LM and an intermediate solve, in a
    fresh interpreter, leave ``numpy.ma`` unimported: ``np.unique`` would
    import it, at about 1.2 MB of RSS."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from rivalloc.centroid import solve_centroid\n"
        "from rivalloc.cli import generate_instance\n"
        "tel = solve_centroid(generate_instance(30, 3, r=80.0, coord_range=60)).telemetry\n"
        "assert tel['lm_mass0'] > 0, tel\n"
        "solve_centroid(generate_instance(10, 1, r=4.0, coord_range=20), 'intermediate')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(centroid.__file__).resolve().parents[1])
    got = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "False"


class TestDiscCrossings:
    @staticmethod
    def instances():
        """Seeded grids at several R; real coordinates as drawn, shifted by
        1e6 and scaled by 1e-3 and 1e4; and three discs of radius 2 whose
        centre gaps sit on the kernel's thresholds: 2r plus or minus a few
        ulps and ``cross_tol``, the gap 2r - ``cross_tol``/2 where the
        discriminant meets ``cross_tol``, and a gap about ``cross_tol``.
        Two discs, and a far site that fixes the scale, so the gaps do not
        move ``cross_tol``: one point means the two touch."""
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 12, 30, 70):
            base = generate_instance(n, seed=n, r=4.0, coord_range=n + 10)
            for R in (4.0, 3.0 * (n + 10)):
                yield Instance(base.customers, R)
            xy = rng.uniform(-n, n, size=(n, 2))
            for shift, scale in ((0.0, 1.0), (1e6, 1.0), (0.0, 1e-3), (0.0, 1e4)):
                yield Instance([Customer(Point(shift + scale * x, shift + scale * y), 1.0)
                                for x, y in xy.tolist()], 5.0 * scale)
        far = Customer(Point(-10.0, 10.0), 1.0)
        tol = Instance([far], 4.0).cross_tol
        gaps = [tol, 4.0 - tol / 2.0, 4.0 - tol, 4.0, 4.0 + tol,
                4.0 + 1e-13, 4.0 + 1e-9, 4.0 - 1e-13]
        for gap in gaps:
            for ulps in range(-3, 4):
                g = gap
                for _ in range(abs(ulps)):
                    g = np.nextafter(g, math.copysign(math.inf, ulps))
                yield Instance([Customer(Point(0.0, 0.0), 1.0), Customer(Point(g, 0.0), 1.0),
                                far], 4.0)

    def test_prefilter_keeps_every_crossing_in_pair_order(self):
        """``disc_crossings`` gives exactly the scalar double loop's points,
        in its order, including discs that touch, miss by an ulp, or
        nearly coincide."""
        counts = set()
        # Beside the seeded instances, one where every pair is near: each
        # sorted-x window holds all later sites.
        dense = generate_instance(150, seed=1, r=1600.0, coord_range=300)
        for k, inst in enumerate([*self.instances(), dense]):
            xs, ys = disc_crossings(inst)
            got = np.stack((xs, ys), axis=1)
            want = np.array([(p.x, p.y) for p in support.reference_disc_crossings(inst)])
            assert got.tobytes() == want.tobytes(), k
            counts.add(len(xs))
        # No crossing, one touching pair, and many crossings.
        assert {0, 1, 2} <= counts and len(counts) > 5
        assert len(xs) > 150 * 149 // 2

    def test_windows_hold_no_pair_table(self):
        """At n = 800 (R = 4, range 1600, seeds 1-3) the windows hold a
        few pairs per site: the call's traced peak stays below 0.05 x 8n^2
        bytes (0.017-0.018 measured), where testing every pair of
        ``np.triu_indices`` took 3.0 x 8n^2."""
        n = 800
        for seed in (1, 2, 3):
            inst = generate_instance(n, seed, r=4.0, coord_range=2 * n)
            _, peak = support.traced_peak(disc_crossings, inst)
            assert peak <= 0.05 * 8 * n * n, (seed, peak / (8 * n * n))
