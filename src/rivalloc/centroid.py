"""Plane-level minimisation of the follower value.

Every unrestricted minimiser lies on a vertical line through a candidate
point: a crossing of two disc tangent lines, of a tangent line and a disc
boundary, or of two disc boundaries.  Each family is searched without
materialising it, using the vertical-line decision oracle to discard
half-planes: the tangent-tangent family through a comparator network whose
unresolved comparisons are settled by shrinking one global slab, the
tangent-circle family through descriptor windows over the angular neighbour
orders, and the circle-circle family through plain binary search over its
points.  A certified optimum found anywhere stops everything early.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    DirectedLine,
    Instance,
    Point,
    circle_circle_intersections,
    Circle,
)
from .medianoid import solve_medianoid
from .linesearch import (
    STRONG,
    AngularIndex,
    Telemetry,
    build_angular_index,
    local_optimum_on_line,
    weighted_median,
)
from .vprune import (
    CONDITIONAL_CENTROID,
    PRUNE_LEFT,
    PRUNE_RIGHT,
    STRONG_CENTROID,
    BoundingFrame,
    PruneDecision,
    build_frame,
    decide,
)

PARAMETRIC = "parametric"
INTERMEDIATE = "intermediate"
BRUTE = "brute"
MODES = (PARAMETRIC, INTERMEDIATE, BRUTE)

# A line direction whose |ny| falls below this is treated as vertical in the
# comparator network (it has no y-order) and is searched directly instead.
VERTICAL_EPS = 1e-12

# Remaining tangent-circle elements at or below this count are evaluated
# directly instead of pruned further.
LM_REMNANT = 32


@dataclass(frozen=True)
class SolveReport:
    """Final answer of one solve: the chosen leader point, its follower
    value, one angle at which the follower attains it, the solver mode, and
    a telemetry dictionary."""

    centroid: Point
    weight_loss: float
    witness_angle: float
    solver: str
    telemetry: Dict[str, object]


class CertifiedOptimum(Exception):
    """Raised internally when an evaluation certifies a global optimum."""

    def __init__(self, point: Point, weight_loss: float, origin: str) -> None:
        super().__init__(origin)
        self.point = point
        self.weight_loss = weight_loss
        self.origin = origin


def _decision_to_certificate(dec: PruneDecision) -> None:
    if dec.kind in (STRONG_CENTROID, CONDITIONAL_CENTROID):
        raise CertifiedOptimum(dec.point, dec.weight_loss, dec.evidence)


def _batcher_rounds(m: int):
    """Comparator rounds of odd-even mergesort on ``m`` wires.

    Yields ``(a, b)`` index arrays with ``a < b`` positionwise; each round's
    pairs are disjoint, and the total number of rounds is at most
    ``k*(k+1)/2`` for ``k = ceil(log2 m)``.
    """
    p = 1
    while p < m:
        k = p
        while k >= 1:
            js = np.arange(k % p, m - k, 2 * k, dtype=np.int64)
            if len(js):
                iv = np.arange(0, k, dtype=np.int64)
                a = js[:, None] + iv[None, :]
                ok = iv[None, :] < np.minimum(k, m - js[:, None] - k)
                ok &= (a // (2 * p)) == ((a + k) // (2 * p))
                a = a[ok]
                if len(a):
                    yield a, a + k
            k //= 2
        p *= 2


class _Slab:
    """Open vertical slab that shrinks as decisions accumulate."""

    def __init__(self) -> None:
        self.lo = -math.inf
        self.hi = math.inf

    def apply(self, dec: PruneDecision, x: float) -> None:
        _decision_to_certificate(dec)
        if dec.kind == PRUNE_LEFT:
            self.lo = x
        elif dec.kind == PRUNE_RIGHT:
            self.hi = x
        else:
            raise RuntimeError("unexpected decision kind %r" % (dec.kind,))

    def test_x(self) -> float:
        if math.isinf(self.lo) and math.isinf(self.hi):
            return 0.0
        if math.isinf(self.lo):
            return self.hi - 1.0
        if math.isinf(self.hi):
            return self.lo + 1.0
        return (self.lo + self.hi) / 2.0

    def boundary_xs(self) -> List[float]:
        out = []
        if math.isfinite(self.lo):
            out.append(self.lo)
        if math.isfinite(self.hi):
            out.append(self.hi)
        return out


def _best_vertical_line(
    inst: Instance,
    idx: AngularIndex,
    xs: List[float],
    telemetry: Telemetry,
) -> Optional[DirectedLine]:
    """Among vertical lines at the given positions, the one with the lowest
    line-restricted follower value (certified optima short-circuit)."""
    best: Optional[Tuple[float, float]] = None
    best_line: Optional[DirectedLine] = None
    for x in sorted(set(xs)):
        line = DirectedLine.vertical(x)
        opt = local_optimum_on_line(inst, idx, line, telemetry=telemetry)
        if opt.status == STRONG:
            raise CertifiedOptimum(
                opt.point, opt.weight_loss, "strong centroid on a candidate line"
            )
        key = (opt.weight_loss, x)
        if best is None or key < best:
            best = key
            best_line = line
    return best_line


def local_optimal_line_LT(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    telemetry: Optional[Telemetry] = None,
) -> Optional[DirectedLine]:
    """Vertical line through the best tangent-tangent crossing.

    The tangent lines plus the two frame lines are pushed through an
    odd-even mergesort comparator network keyed by their y-order at a point
    of the current slab.  A comparison whose crossing falls inside the open
    slab is resolved by shrinking the slab at the median unresolved
    crossing.  No two remaining lines cross strictly inside the final slab,
    so the minimum over its (at most two) boundary lines dominates every
    discarded crossing.  Returns ``None`` when the family is empty.
    """
    if telemetry is None:
        telemetry = Telemetry()
    n = idx.n
    flat = np.arange(n * n)
    offdiag = (flat // n) != (flat % n)
    lnx = idx.tan_nx[offdiag]
    lny = idx.tan_ny[offdiag]
    loff = idx.tan_off[offdiag]
    # Frame lines: y = c is nx*x + ny*y = off with normal (0, 1).
    lnx = np.append(lnx, (0.0, 0.0))
    lny = np.append(lny, (1.0, 1.0))
    loff = np.append(loff, (frame.t_top.anchor.y, frame.t_btm.anchor.y))

    vertical = np.abs(lny) <= VERTICAL_EPS
    direct_xs = (loff[vertical] / lnx[vertical]).tolist()
    lnx, lny, loff = lnx[~vertical], lny[~vertical], loff[~vertical]
    m = len(lnx)
    telemetry.lt_wires = m
    if m < 2:
        return _best_vertical_line(inst, idx, direct_xs, telemetry)

    wires = np.arange(m, dtype=np.int64)
    slab = _Slab()
    for a_pos, b_pos in _batcher_rounds(m):
        telemetry.lt_rounds += 1
        telemetry.lt_comparators += len(a_pos)
        la = wires[a_pos]
        lb = wires[b_pos]
        with np.errstate(divide="ignore", invalid="ignore"):
            den = lnx[lb] * lny[la] - lnx[la] * lny[lb]
            x_ab = (loff[lb] * lny[la] - loff[la] * lny[lb]) / den
        parallel = np.abs(den) <= VERTICAL_EPS
        with np.errstate(invalid="ignore"):
            unresolved = ~parallel & (x_ab > slab.lo) & (x_ab < slab.hi)
        while unresolved.any():
            xs_un = x_ab[unresolved]
            k = (len(xs_un) - 1) // 2
            x_med = float(np.partition(xs_un, k)[k])
            dec = decide(
                inst, idx, frame, DirectedLine.vertical(x_med), telemetry
            )
            telemetry.lt_oracle += 1
            slab.apply(dec, x_med)
            unresolved &= (x_ab > slab.lo) & (x_ab < slab.hi)
        tx = slab.test_x()
        ya = (loff[la] - lnx[la] * tx) / lny[la]
        yb = (loff[lb] - lnx[lb] * tx) / lny[lb]
        swap = (ya > yb) | ((ya == yb) & (la > lb))
        if swap.any():
            wires[a_pos[swap]] = lb[swap]
            wires[b_pos[swap]] = la[swap]
    xs = slab.boundary_xs() + direct_xs
    if not xs:
        return None
    return _best_vertical_line(inst, idx, xs, telemetry)


# Customers whose descriptors are built together, against all partners.
LM_BLOCK = 32

_LM_DTYPES = (np.int64,) * 5 + (bool,) + (float,) * 3

_HALF_PI = math.pi / 2.0
_OWN_BOUNDS = np.array([_HALF_PI, 3.0 * _HALF_PI, 5.0 * _HALF_PI])


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` from the math module applied elementwise to 1-D arrays.

    numpy's vectorised transcendental functions may differ from the C
    library in the last bit; window bounds and branch directions are
    computed with the scalar functions so that they never depend on which
    implementation ran.
    """
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


def _columns(*cols) -> List[np.ndarray]:
    """Descriptor columns ``(v, u, branch, lo, hi, increasing, x3, th0,
    rho)``, with scalars broadcast to the length of ``v``."""
    m = len(cols[0])
    return [np.broadcast_to(c, m) for c in cols]


class _LMDescriptors:
    """Index windows over tangent-circle crossing abscissas.

    Each descriptor is a contiguous window of one customer's angular
    neighbour order, on one intersection branch with one disc boundary, cut
    so that the crossing x-coordinate is strictly monotone in the index.
    """

    def __init__(self, idx: AngularIndex) -> None:
        self.idx = idx
        self.r = idx.inst.r
        groups = []
        if idx.order2.shape[1]:
            for v0 in range(0, idx.n, LM_BLOCK):
                groups += self._block(np.arange(v0, min(v0 + LM_BLOCK, idx.n)))
        cols = [np.concatenate(c) for c in zip(*groups)] or [np.empty(0)] * 9
        (
            self.dv, self.du, self.dbr, self.dlo, self.dhi,
            self.dincr, self.dx3, self.dth0, self.drho,
        ) = [c.astype(t, copy=False) for c, t in zip(cols, _LM_DTYPES)]

    def _block(self, vs: np.ndarray) -> List[List[np.ndarray]]:
        """Descriptor column groups of customers ``vs`` against every
        partner: own-disc windows, single crossings toward each partner,
        and the windows of every monotone piece."""
        idx = self.idx
        r = self.r
        n = idx.n
        pi = math.pi
        # Every ordered pair (v, u) with u != v, v-major.
        V = np.repeat(vs, n - 1)
        U = np.tile(np.arange(n - 1), len(vs))
        U += U >= V
        th0 = idx.ang[V, U]
        rho = idx.dist[V, U]
        xu = idx.xs[U]

        # The tangent toward u touches u's disc boundary.
        x3 = xu + r * _libm(math.sin, th0)

        # Tangent directions of v whose line meets u's disc: two intervals
        # when the discs are apart, one half-turn otherwise (slot 1 unused).
        far = rho > 2.0 * r
        near = ~far
        elo = np.full((len(V), 2), np.inf)
        ehi = np.full((len(V), 2), np.inf)
        half = _libm(math.asin, 2.0 * r / rho[far])
        elo[:, 0] = th0
        ehi[far, 0] = th0[far] + half
        elo[far, 1] = th0[far] + pi - half
        ehi[far, 1] = th0[far] + pi
        ehi[near, 0] = th0[near] + pi

        # Split directions (NaN when absent): where overlapping discs flip
        # the branch order, and where the crossing passes u's extreme x.
        splits = np.full((len(V), 6), np.nan)
        psa = _libm(math.asin, np.minimum(1.0, rho[near] / (2.0 * r)))
        splits[near, 0] = th0[near] + psa
        splits[near, 1] = th0[near] + pi - psa
        b = idx.ys[U] - idx.ys[V]
        col = 2
        for px in (xu + r, xu - r):
            a = px - idx.xs[V]
            rab = _libm(math.hypot, a, b)
            ok = np.flatnonzero(rab > r)
            dw = _libm(math.asin, r / rab[ok])
            w0 = _libm(math.atan2, b[ok], a[ok])
            t0 = th0[ok]
            for c in (w0 + dw, w0 + pi - dw):
                cc = t0 + ((c - t0) % TWO_PI)
                inside = (t0 < cc) & (cc < t0 + pi)
                splits[ok[inside], col] = cc[inside]
                col += 1

        # Sorted piece boundaries per interval, padded with +inf.
        bounds = np.empty((len(V), 2, 8))
        bounds[:, :, 0] = elo
        bounds[:, :, 1] = ehi
        with np.errstate(invalid="ignore"):
            inner = (elo[:, :, None] < splits[:, None, :]) & (
                splits[:, None, :] < ehi[:, :, None]
            )
        bounds[:, :, 2:] = np.where(inner, splits[:, None, :], np.inf)
        bounds.sort(axis=2)

        # Neighbour-order positions of every boundary, one search per row.
        pos = np.empty(bounds.shape, dtype=np.int64)
        own = np.empty((len(vs), 3), dtype=np.int64)
        for k, v in enumerate(vs):
            rows = slice(k * (n - 1), (k + 1) * (n - 1))
            hits = np.searchsorted(
                idx.angles2[v],
                np.concatenate([_OWN_BOUNDS, bounds[rows].ravel()]),
                side="right",
            )
            own[k] = hits[:3]
            pos[rows] = hits[3:].reshape(n - 1, 2, 8)

        blo, bhi = bounds[:, :, :-1], bounds[:, :, 1:]
        lo, hi = pos[:, :, :-1], pos[:, :, 1:]
        with np.errstate(invalid="ignore"):
            keep = np.isfinite(bhi) & (bhi - blo > 1e-12) & (hi > lo)
        p = np.nonzero(keep)[0]
        amid = (blo[keep] + bhi[keep]) / 2.0
        pt = th0[p]
        pr = rho[p]
        h = pr * _libm(math.sin, amid - pt) - r
        s = np.sqrt(np.maximum(r * r - h * h, 1e-300))
        hp = pr * _libm(math.cos, amid - pt)
        delta = _libm(math.asin, np.maximum(-1.0, np.minimum(1.0, h / r)))
        # Sign of dx/dalpha on each intersection branch.
        incr = np.stack([
            -r * _libm(math.sin, amid + pi - delta) * (1.0 - hp / s) > 0.0,
            -r * _libm(math.sin, amid + delta) * (1.0 + hp / s) > 0.0,
        ], axis=1).ravel()

        # Touch points of v's own tangent family on its own disc boundary,
        # x = site_x + r sin(alpha): decreasing, then increasing.
        own_v = np.concatenate([vs, vs])
        own_lo = own[:, :2].T.ravel()
        own_hi = own[:, 1:].T.ravel()
        own_incr = np.repeat([False, True], len(vs))
        live = own_hi > own_lo
        p2 = np.repeat(p, 2)
        return [
            _columns(own_v[live], own_v[live], 0, own_lo[live], own_hi[live],
                     own_incr[live], 0.0, 0.0, 1.0),
            _columns(V, U, 3, 0, 1, True, x3, 0.0, 1.0),
            _columns(V[p2], U[p2], np.tile([1, 2], len(p)), np.repeat(lo[keep], 2),
                     np.repeat(hi[keep], 2), incr, 0.0, th0[p2], rho[p2]),
        ]

    def total_mass(self) -> int:
        if len(self.dlo) == 0:
            return 0
        return int(np.sum(self.dhi - self.dlo))

    def _x_at(self, pos: np.ndarray, d=slice(None)) -> np.ndarray:
        """Crossing abscissas at window offsets ``pos`` of descriptors
        ``d`` (all of them by default)."""
        idx = self.idx
        r = self.r
        if idx.order2.shape[1] == 0:
            return self.dx3[d].copy()
        ip = np.clip(self.dlo[d] + pos, 0, idx.order2.shape[1] - 1)
        alpha = idx.angles2[self.dv[d], ip]
        br = self.dbr[d]
        with np.errstate(invalid="ignore"):
            h = self.drho[d] * np.sin(alpha - self.dth0[d]) - r
            delta = np.arcsin(np.clip(h / r, -1.0, 1.0))
            gamma = np.where(br == 1, alpha + math.pi - delta, alpha + delta)
            x = idx.xs[self.du[d]] + r * np.cos(gamma)
            x = np.where(br == 0, idx.xs[self.dv[d]] + r * np.sin(alpha), x)
        return np.where(br == 3, self.dx3[d], x)

    def middles(self) -> Tuple[np.ndarray, np.ndarray]:
        lens = self.dhi - self.dlo
        act = lens > 0
        pos = np.maximum(lens - 1, 0) // 2
        x = self._x_at(pos)
        return x[act], lens[act]

    def _count_leading(self, X: float, keep_gt: bool) -> np.ndarray:
        """Per descriptor: length of the maximal leading run that will be
        dropped (keep_gt) or kept (not keep_gt) under the cut at X."""
        lens = self.dhi - self.dlo
        lo = np.zeros_like(lens)
        hi = lens.copy()
        while True:
            searching = lo < hi
            if not searching.any():
                break
            mid = (lo + hi) >> 1
            x = self._x_at(mid)
            if keep_gt:
                cond = np.where(self.dincr, x <= X, x > X)
            else:
                cond = np.where(self.dincr, x < X, x >= X)
            lo = np.where(searching & cond, mid + 1, lo)
            hi = np.where(searching & ~cond, mid, hi)
        return lo

    def cut_keep_gt(self, X: float) -> None:
        c = self._count_leading(X, keep_gt=True)
        self.dlo = np.where(self.dincr, self.dlo + c, self.dlo)
        self.dhi = np.where(self.dincr, self.dhi, np.minimum(self.dhi, self.dlo + c))

    def cut_keep_lt(self, X: float) -> None:
        c = self._count_leading(X, keep_gt=False)
        self.dhi = np.where(self.dincr, np.minimum(self.dhi, self.dlo + c), self.dhi)
        self.dlo = np.where(self.dincr, self.dlo, self.dlo + c)

    def remaining_xs(self) -> List[float]:
        """Abscissas of every surviving crossing, descriptor by descriptor."""
        lens = self.dhi - self.dlo
        d = np.repeat(np.arange(len(lens)), lens)
        k = np.arange(len(d)) - np.repeat(np.cumsum(lens) - lens, lens)
        return self._x_at(k, d).tolist()


def local_optimal_line_LM(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    telemetry: Optional[Telemetry] = None,
) -> Optional[DirectedLine]:
    """Vertical line through the best tangent-circle crossing.

    Rounds of weighted-median pruning over the descriptor windows discard a
    constant fraction of the crossings per decision; the few survivors and
    the last cut line on each side are then searched directly.
    """
    if telemetry is None:
        telemetry = Telemetry()
    descs = _LMDescriptors(idx)
    mass0 = descs.total_mass()
    telemetry.lm_mass0 = mass0
    if mass0 == 0:
        return None
    slab = _Slab()
    budget = 2.0 * (math.log(max(mass0, 2)) / math.log(8.0 / 7.0) + 8)
    rounds = 0
    while descs.total_mass() > LM_REMNANT:
        mass = descs.total_mass()
        vals, lens = descs.middles()
        x_med = weighted_median(vals, lens.astype(float))
        dec = decide(inst, idx, frame, DirectedLine.vertical(x_med), telemetry)
        rounds += 1
        telemetry.lm_rounds += 1
        slab.apply(dec, x_med)
        if dec.kind == PRUNE_LEFT:
            descs.cut_keep_gt(x_med)
        else:
            descs.cut_keep_lt(x_med)
        pruned = mass - descs.total_mass()
        if pruned * 8 < mass:
            raise RuntimeError(
                "tangent-circle pruning fell below the guaranteed fraction"
            )
        if rounds > budget:
            raise RuntimeError("tangent-circle pruning exceeded its round budget")
    xs = descs.remaining_xs() + slab.boundary_xs()
    if not xs:
        return None
    return _best_vertical_line(inst, idx, xs, telemetry)


def local_optimal_line_LC(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    telemetry: Optional[Telemetry] = None,
) -> Optional[DirectedLine]:
    """Vertical line through the best disc-boundary crossing, by binary
    search over the sorted crossing abscissas."""
    if telemetry is None:
        telemetry = Telemetry()
    r = inst.r
    pts: List[float] = []
    for i in range(idx.n):
        ci = Circle(inst.customers[i].site, r)
        for j in range(i + 1, idx.n):
            cj = Circle(inst.customers[j].site, r)
            for p in circle_circle_intersections(ci, cj, eps=inst.eps):
                pts.append(p.x)
    telemetry.lc_points = len(pts)
    if not pts:
        return None
    xs = np.sort(np.array(pts))
    lo, hi = 0, len(xs)
    slab = _Slab()
    while hi > lo:
        mid = (lo + hi) // 2
        X = float(xs[mid])
        dec = decide(inst, idx, frame, DirectedLine.vertical(X), telemetry)
        telemetry.lc_steps += 1
        slab.apply(dec, X)
        if dec.kind == PRUNE_LEFT:
            lo = int(np.searchsorted(xs, X, side="right"))
        else:
            hi = int(np.searchsorted(xs, X, side="left"))
    bounds = slab.boundary_xs()
    if not bounds:
        return None
    return _best_vertical_line(inst, idx, bounds, telemetry)


def solve_centroid(inst: Instance, mode: str = PARAMETRIC) -> SolveReport:
    """Minimise the follower value over the whole plane.

    ``mode`` selects the solver: ``"parametric"`` prunes the three candidate
    families with the vertical-line decision oracle, ``"intermediate"`` runs
    the line search on every tangent line, and ``"brute"`` evaluates every
    candidate point.  All return the same follower value; ties between
    optimal points are broken lexicographically by (x, y).
    """
    if mode not in MODES:
        raise ValueError("unknown solver mode %r" % (mode,))
    if mode == BRUTE:
        from .oracle import brute_centroid

        return brute_centroid(inst)

    t0 = time.perf_counter()
    tel = Telemetry()
    idx = build_angular_index(inst)
    frame = build_frame(inst)

    best: Optional[Tuple[float, float, float]] = None
    best_point: Optional[Point] = None

    def consider(point: Point, weight_loss: float) -> None:
        nonlocal best, best_point
        key = (weight_loss, point.x, point.y)
        if best is None or key < best:
            best = key
            best_point = point

    def run_line(line: DirectedLine) -> None:
        opt = local_optimum_on_line(inst, idx, line, telemetry=tel)
        if opt.status == STRONG:
            raise CertifiedOptimum(
                opt.point, opt.weight_loss, "strong centroid on a searched line"
            )
        consider(opt.point, opt.weight_loss)

    try:
        if mode == INTERMEDIATE:
            for i in range(idx.n):
                for j in range(idx.n):
                    if i == j:
                        continue
                    if abs(math.sin(idx.ang[i, j])) <= VERTICAL_EPS:
                        continue
                    run_line(idx.tangent_line(i, j))
            r = inst.r
            for i in range(idx.n):
                ci = Circle(inst.customers[i].site, r)
                for j in range(i + 1, idx.n):
                    cj = Circle(inst.customers[j].site, r)
                    for p in circle_circle_intersections(ci, cj, eps=inst.eps):
                        res = solve_medianoid(inst, p)
                        tel.medianoid_calls += 1
                        consider(p, res.weight_loss)
        else:
            for family in (
                local_optimal_line_LT,
                local_optimal_line_LM,
                local_optimal_line_LC,
            ):
                line = family(inst, idx, frame, tel)
                if line is not None:
                    run_line(line)
        for c in inst.customers:
            res = solve_medianoid(inst, c.site)
            tel.medianoid_calls += 1
            consider(c.site, res.weight_loss)
    except CertifiedOptimum as cert:
        tel.certified = cert.origin
        best_point = cert.point

    if best_point is None:
        raise RuntimeError("no candidate point was evaluated")
    final = solve_medianoid(inst, best_point)
    tel.medianoid_calls += 1
    tel.wall_time_s = time.perf_counter() - t0
    return SolveReport(
        centroid=best_point,
        weight_loss=final.weight_loss,
        witness_angle=final.witness_angle,
        solver=mode,
        telemetry=tel.to_dict(),
    )
