"""Plane-level minimisation of the follower value.

The minimum is attained at a customer site or at a candidate point: a
crossing of two disc tangent lines, of a tangent line and a disc boundary,
or of two disc boundaries.  The parametric search never materialises the
candidates.  It keeps one open vertical slab that only shrinks.  Each
vertical-line decision keeps the closed side of its line, and everything it
discards is no better than a point on that line, which becomes a boundary
of the slab; so everything outside the final slab is dominated by a point
on one of its (at most two) boundary lines.  The three families shrink the
same slab in turn, each until none of its candidates lies strictly inside:
the tangent-tangent family by selecting crossings in batches, each exhausted
by decisions at its median (a hashed sample of line pairs, then the pairs
whose order by y differs between the two slab ends), the
tangent-circle family by weighted-median pruning of descriptor windows over
the angular neighbour orders (built only for the discs that reach the slab,
since each crossing lies on a disc boundary), and the circle-circle family
by binary search over its sorted points.  Vertical tangent lines have no
y-order and are set aside.  The optimum is therefore matched by one line
search on each boundary line and each vertical tangent line, or at a
customer site.  A certified optimum found anywhere stops everything early.
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
    _libm,
    circle_circle_intersections,
    Circle,
)
from .medianoid import solve_medianoid, solve_medianoid_many
from .linesearch import (
    STRONG,
    AngularIndex,
    Telemetry,
    build_angular_index,
    local_optima_on_lines,
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

# A line direction whose |ny| falls below this is treated as vertical by LT
# (it has no y-order) and is searched directly instead; two lines whose
# crossing denominator falls below it are parallel there.
VERTICAL_EPS = 1e-12


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


class _Slab:
    """Open vertical slab (lo, hi) that shrinks as decisions accumulate.

    Every point outside it is no better than a point on a boundary line.
    """

    def __init__(self) -> None:
        self.lo = -math.inf
        self.hi = math.inf

    def apply(self, dec: PruneDecision, x: float) -> None:
        """Move a boundary to ``x``, the line of ``dec``, keeping its closed
        side; a certified optimum ends the solve."""
        if dec.kind in (STRONG_CENTROID, CONDITIONAL_CENTROID):
            raise CertifiedOptimum(dec.point, dec.weight_loss, dec.evidence)
        if dec.kind == PRUNE_LEFT:
            self.lo = x
        elif dec.kind == PRUNE_RIGHT:
            self.hi = x
        else:
            raise RuntimeError("unexpected decision kind %r" % (dec.kind,))

    def boundary_xs(self) -> List[float]:
        out = []
        if math.isfinite(self.lo):
            out.append(self.lo)
        if math.isfinite(self.hi):
            out.append(self.hi)
        return out


# Crossings per line an exact LT batch holds before it is thinned, and line
# pairs handled at a time, which bounds LT's temporary arrays.
LT_CAP = 4
LT_CHUNK = 1 << 13


def _mix(v: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, a fixed bijection, on the 64-bit words of v."""
    v = v.view(np.uint64) ^ (v.view(np.uint64) >> 30)
    v *= 0xBF58476D1CE4E5B9
    v ^= v >> 27
    v *= 0x94D049BB133111EB
    return v ^ (v >> 31)


def _crossing_xs(lnx, lny, loff, a, b, slab: _Slab) -> np.ndarray:
    """Abscissas of the crossings of lines ``a[i]`` and ``b[i]`` that lie
    strictly inside ``slab``; a pair with ``|den| <= VERTICAL_EPS`` is
    parallel and never crosses."""
    with np.errstate(divide="ignore", invalid="ignore"):
        den = lnx[b] * lny[a] - lnx[a] * lny[b]
        x_ab = (loff[b] * lny[a] - loff[a] * lny[b]) / den
        inside = (np.abs(den) > VERTICAL_EPS) & (x_ab > slab.lo) & (x_ab < slab.hi)
    return x_ab[inside]


def _end_order(lnx, lny, loff, x: float, right: bool) -> np.ndarray:
    """Line indices in order of y just right (``right``) or just left of
    ``x``: by y at ``x``, then by slope ``-nx/ny`` (descending on the left),
    then by index.  At an infinite ``x``, by y far out on that side: by
    slope (descending on the left), then by y at 0, then by index."""
    far = math.isinf(x)
    key = (-lnx if x > 0 else lnx) / lny if far else (loff - lnx * x) / lny
    order = np.argsort(key)
    eq = np.diff(key[order]) == 0.0
    if eq.any():
        # Equal keys form contiguous runs; re-sort only their members.
        tied = np.append(eq, False) | np.insert(eq, 0, False)
        sub = order[tied]
        tie = (loff[sub] if far else -lnx[sub] if right else lnx[sub]) / lny[sub]
        order[tied] = sub[np.lexsort((sub, tie, key[sub]))]
    return order


def _inverted_pairs(lnx, lny, loff, lo: float, hi: float):
    """Yield ``(a, b)`` index arrays, about ``LT_CHUNK`` pairs at a time,
    covering once each pair of lines ordered differently by y just right of
    ``lo`` and just left of ``hi``: in exact arithmetic, the pairs crossing
    strictly inside.  They are the inversions between the two orders, met
    top-down as a merge sort meets them but without comparisons: ``pos``
    holds the ``lo`` positions in ``hi`` order within blocks of 2w, so a
    second-half position inverts the first-half positions after it."""
    m = len(lnx)
    by_lo = _end_order(lnx, lny, loff, lo, True)
    pos = np.empty(m, dtype=np.int32)
    pos[by_lo] = ar = np.arange(m, dtype=np.int32)
    pos = pos[_end_order(lnx, lny, loff, hi, False)]
    w = 1 << max(m - 1, 0).bit_length()
    while w > 1:
        w >>= 1
        first = (pos & w) == 0
        before = np.cumsum(first, dtype=np.int32) - first
        block = pos // (2 * w) * w
        firsts, seconds, start = pos[first], pos[~first], before[~first]
        cnt = block[~first] + w - start
        has = np.flatnonzero(cnt)
        done = np.cumsum(cnt[has])
        cuts = np.searchsorted(done, np.arange(LT_CHUNK, done[-1] if len(has) else 0, LT_CHUNK))
        for chunk in np.split(has, cuts):
            c = cnt[chunk]
            owner = np.repeat(chunk, c)
            off = np.arange(len(owner)) - np.repeat(np.cumsum(c) - c, c)
            yield by_lo[firsts[start[owner] + off]], by_lo[seconds[owner]]
        new = np.empty_like(pos)
        new[block + np.where(first, before, w + ar - before)] = pos
        pos = new


def _exact_batch(lnx, lny, loff, slab: _Slab, cap: int):
    """The abscissas strictly inside ``slab`` of the crossings of the pairs
    ``_inverted_pairs`` lists, the mask of the lines in some pair, and
    whether the abscissas were thinned, by a hash, to at most ``cap``."""
    used = np.zeros(len(lnx), dtype=bool)
    batch, level = [], 0
    for a, b in _inverted_pairs(lnx, lny, loff, slab.lo, slab.hi):
        used[a] = used[b] = True
        batch.append(_crossing_xs(lnx, lny, loff, a, b, slab))
        while sum(map(len, batch)) > cap:
            # Keep the abscissas whose hash falls below a halved bound;
            # never thin a batch to nothing.
            bound = np.uint64(((1 << 64) - 1) >> (level + 1))
            thinned = [x[_mix(x) <= bound] for x in batch]
            if not any(map(len, thinned)):
                break
            batch, level = thinned, level + 1
    return np.concatenate(batch + [np.empty(0)]), used, level > 0


def _exhaust(xs: np.ndarray, slab: _Slab, decide_at) -> None:
    """Call ``decide_at`` at the lower median of the ``xs`` strictly inside
    ``slab`` until none is: either side pruned holds at least half of them,
    so a batch of C costs at most floor(log2 C) + 1 calls."""
    while len(xs):
        k = (len(xs) - 1) // 2
        decide_at(float(np.partition(xs, k)[k]))
        xs = xs[(xs > slab.lo) & (xs < slab.hi)]


def _lt_lines(idx: AngularIndex, frame: BoundingFrame):
    """LT's lines ``nx*x + ny*y = off`` as arrays ``(nx, ny, off)``: every
    tangent line and the two frame lines, less the vertical ones, whose
    abscissas come fourth."""
    tangent = ~np.eye(idx.n, dtype=bool).ravel()
    vertical = tangent & (np.abs(idx.tan_ny) <= VERTICAL_EPS)
    direct_xs = (idx.tan_off[vertical] / idx.tan_nx[vertical]).tolist()
    keep = tangent & ~vertical
    # Frame lines: y = c is nx*x + ny*y = off with normal (0, 1).
    lnx = np.append(idx.tan_nx[keep], (0.0, 0.0))
    lny = np.append(idx.tan_ny[keep], (1.0, 1.0))
    loff = np.append(idx.tan_off[keep], (frame.t_top.anchor.y, frame.t_btm.anchor.y))
    return lnx, lny, loff, direct_xs


def local_optimal_line_LT(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    slab: _Slab,
    telemetry: Telemetry,
) -> List[float]:
    """Shrink ``slab`` until no two tangent lines cross strictly inside it;
    return the abscissas of the vertical tangent lines, which have no
    y-order and must be searched directly.

    The other tangent lines plus the two frame lines are m lines.  Batches
    of their crossing abscissas strictly inside the slab are exhausted by
    decisions at the median (``_exhaust``): first one hashed partner per
    line, then the exact batch (``_exact_batch``), repeated on the new slab
    without the lines that crossed no other while it was thinned.
    """
    lnx, lny, loff, direct_xs = _lt_lines(idx, frame)
    m = telemetry.lt_wires = len(lnx)

    def decide_at(x: float) -> None:
        telemetry.lt_oracle += 1
        slab.apply(decide(inst, idx, frame, DirectedLine.vertical(x), telemetry), x)

    # A line drawn as its own partner has den == 0 and drops out.
    telemetry.lt_rounds += 1
    _exhaust(np.concatenate([
        _crossing_xs(lnx, lny, loff, a, _mix(a + m) % m, slab)
        for a in (np.arange(s, min(s + LT_CHUNK, m)) for s in range(0, m, LT_CHUNK))
    ] + [np.empty(0)]), slab, decide_at)
    while len(lnx) > 1:
        xs, used, thinned = _exact_batch(lnx, lny, loff, slab, LT_CAP * m)
        telemetry.lt_rounds += 1
        _exhaust(xs, slab, decide_at)
        if not thinned:
            break
        lnx, lny, loff = lnx[used], lny[used], loff[used]
    return direct_xs


# Customers whose descriptors are built together, against all partners.
LM_BLOCK = 32

_LM_COLUMNS = ("dv", "du", "dbr", "dlo", "dhi", "dincr", "dx3", "dth0", "drho")
_LM_DTYPES = (np.int64,) * 5 + (bool,) + (float,) * 3

_HALF_PI = math.pi / 2.0
_OWN_BOUNDS = np.array([_HALF_PI, 3.0 * _HALF_PI, 5.0 * _HALF_PI])


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
    Every stored window is non-empty: a cut drops the descriptors it
    empties and keeps the order of the rest, so a round's work shrinks with
    the surviving crossings.

    Only the crossings inside ``slab`` are stored.  A window of (v, u)
    (u = v for own-disc windows) crosses at ``xs[u] + r*c`` with |c| <= 1,
    and rounding is monotone, so all of them lie in [fl(xs[u] - r),
    fl(xs[u] + r)]; a partner whose disc misses the open slab gets no row,
    and the slab cuts remove the rest.  The result equals the full build cut
    to the slab, in the same order.
    """

    def __init__(self, idx: AngularIndex, slab: _Slab) -> None:
        self.idx = idx
        self.r = r = idx.inst.r
        reach = (idx.xs + r > slab.lo) & (idx.xs - r < slab.hi)
        groups = []
        if idx.angles2.shape[1]:
            for v0 in range(0, idx.n, LM_BLOCK):
                groups += self._block(np.arange(v0, min(v0 + LM_BLOCK, idx.n)), reach)
        cols = [np.concatenate(c) for c in zip(*groups)] or [np.empty(0)] * 9
        for name, c, t in zip(_LM_COLUMNS, cols, _LM_DTYPES):
            setattr(self, name, c.astype(t, copy=False))
        if math.isfinite(slab.lo):
            self.cut_keep_gt(slab.lo)
        if math.isfinite(slab.hi):
            self.cut_keep_lt(slab.hi)

    def _block(self, vs: np.ndarray, reach: np.ndarray) -> List[List[np.ndarray]]:
        """Descriptor column groups of customers ``vs`` against every
        partner whose disc reaches the slab (``reach``): own-disc windows,
        single crossings toward each partner, and the windows of every
        monotone piece."""
        idx = self.idx
        r = self.r
        n = idx.n
        pi = math.pi
        # Every ordered pair (v, u) with u != v and reach[u], v-major.
        V = np.repeat(vs, n - 1)
        U = np.tile(np.arange(n - 1), len(vs))
        U += U >= V
        V, U = V[reach[U]], U[reach[U]]
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
        starts = np.searchsorted(V, vs).tolist() + [len(V)]
        for k, v in enumerate(vs):
            rows = slice(starts[k], starts[k + 1])
            hits = np.searchsorted(
                idx.angles2[v],
                np.concatenate([_OWN_BOUNDS, bounds[rows].ravel()]),
                side="right",
            )
            own[k] = hits[:3]
            pos[rows] = hits[3:].reshape(-1, 2, 8)

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
        live = (own_hi > own_lo) & reach[own_v]
        p2 = np.repeat(p, 2)
        return [
            _columns(own_v[live], own_v[live], 0, own_lo[live], own_hi[live],
                     own_incr[live], 0.0, 0.0, 1.0),
            _columns(V, U, 3, 0, 1, True, x3, 0.0, 1.0),
            _columns(V[p2], U[p2], np.tile([1, 2], len(p)), np.repeat(lo[keep], 2),
                     np.repeat(hi[keep], 2), incr, 0.0, th0[p2], rho[p2]),
        ]

    def total_mass(self) -> int:
        return int(np.sum(self.dhi - self.dlo))

    def _x_at(self, pos: np.ndarray, d=slice(None)) -> np.ndarray:
        """Crossing abscissas at window offsets ``pos`` of descriptors
        ``d`` (all of them by default)."""
        idx = self.idx
        r = self.r
        ip = np.clip(self.dlo[d] + pos, 0, idx.angles2.shape[1] - 1)
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
        return self._x_at((lens - 1) // 2), lens

    def _count_leading(self, X: float, keep_gt: bool) -> np.ndarray:
        """Per descriptor: length of the maximal leading run that will be
        dropped (keep_gt) or kept (not keep_gt) under the cut at X.  Each
        step evaluates only the descriptors still searching."""
        lo = np.zeros_like(self.dlo)
        hi = self.dhi - self.dlo
        s = np.arange(len(lo))
        while len(s):
            mid = (lo[s] + hi[s]) >> 1
            x = self._x_at(mid, s)
            if keep_gt:
                cond = np.where(self.dincr[s], x <= X, x > X)
            else:
                cond = np.where(self.dincr[s], x < X, x >= X)
            lo[s] = np.where(cond, mid + 1, lo[s])
            hi[s] = np.where(cond, hi[s], mid)
            s = s[lo[s] < hi[s]]
        return lo

    def _compact(self) -> None:
        """Drop the emptied descriptors from every column, keeping the
        order of the survivors."""
        live = self.dhi > self.dlo
        if not live.all():
            for name in _LM_COLUMNS:
                setattr(self, name, getattr(self, name)[live])

    def cut_keep_gt(self, X: float) -> None:
        c = self._count_leading(X, keep_gt=True)
        self.dlo = np.where(self.dincr, self.dlo + c, self.dlo)
        self.dhi = np.where(self.dincr, self.dhi, np.minimum(self.dhi, self.dlo + c))
        self._compact()

    def cut_keep_lt(self, X: float) -> None:
        c = self._count_leading(X, keep_gt=False)
        self.dhi = np.where(self.dincr, np.minimum(self.dhi, self.dlo + c), self.dhi)
        self.dlo = np.where(self.dincr, self.dlo, self.dlo + c)
        self._compact()


def local_optimal_line_LM(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no tangent-circle crossing lies strictly
    inside it.

    The descriptor windows are built only for partners whose discs reach
    the slab, and cut to it (see ``_LMDescriptors``): the window work is
    O(n) per such partner, and none when LT left no disc in the slab.  Each
    round then decides at the weighted median of the window middles and
    cuts the windows to the kept side, which discards at least an eighth of
    the crossings still inside, until none is left.
    """
    descs = _LMDescriptors(idx, slab)
    mass0 = descs.total_mass()
    telemetry.lm_mass0 = mass0
    budget = 2.0 * (math.log(max(mass0, 2)) / math.log(8.0 / 7.0) + 8)
    while descs.total_mass():
        mass = descs.total_mass()
        vals, lens = descs.middles()
        x_med = weighted_median(vals, lens.astype(float))
        dec = decide(inst, idx, frame, DirectedLine.vertical(x_med), telemetry)
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
        if telemetry.lm_rounds > budget:
            raise RuntimeError("tangent-circle pruning exceeded its round budget")


def _disc_crossings(inst: Instance) -> List[Point]:
    """Every crossing point of two disc boundaries, pair by pair in (i, j)
    order.  One array pass keeps the pairs whose centres are near enough to
    meet, with a margin that makes them a superset of the pairs
    ``circle_circle_intersections`` finds crossings for; only those pairs
    are solved."""
    r = inst.r
    eps = inst.eps
    reach = (r + r + eps * max(1.0, r)) * (1.0 + 1e-9)
    i, j = np.triu_indices(inst.n, 1)
    dx = inst.xs[j] - inst.xs[i]
    dy = inst.ys[j] - inst.ys[i]
    near = np.flatnonzero(dx * dx + dy * dy <= reach * reach)
    pts: List[Point] = []
    for a, b in zip(i[near].tolist(), j[near].tolist()):
        pts += circle_circle_intersections(
            Circle(inst.customers[a].site, r), Circle(inst.customers[b].site, r),
            eps=eps,
        )
    return pts


def local_optimal_line_LC(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no disc-boundary crossing lies strictly inside
    it, by binary search over the sorted crossing abscissas inside it."""
    xs = np.sort(np.array([p.x for p in _disc_crossings(inst)], dtype=float))
    telemetry.lc_points = len(xs)
    lo = int(np.searchsorted(xs, slab.lo, side="right"))
    hi = int(np.searchsorted(xs, slab.hi, side="left"))
    while hi > lo:
        X = float(xs[(lo + hi) // 2])
        dec = decide(inst, idx, frame, DirectedLine.vertical(X), telemetry)
        telemetry.lc_steps += 1
        slab.apply(dec, X)
        if dec.kind == PRUNE_LEFT:
            lo = int(np.searchsorted(xs, X, side="right"))
        else:
            hi = int(np.searchsorted(xs, X, side="left"))


def solve_centroid(inst: Instance, mode: str = PARAMETRIC) -> SolveReport:
    """Minimise the follower value over the whole plane.

    ``mode`` selects the solver: ``"parametric"`` shrinks one slab over the
    three candidate families with the vertical-line decision oracle and
    searches its boundary lines, ``"intermediate"`` runs
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

    def run_lines(lines: List[DirectedLine]) -> None:
        for opt in local_optima_on_lines(inst, idx, lines, tel):
            if opt is None:
                continue
            if opt.status == STRONG:
                raise CertifiedOptimum(
                    opt.point, opt.weight_loss, "strong centroid on a searched line"
                )
            consider(opt.point, opt.weight_loss)

    def run_points(points: List[Point]) -> None:
        for p, loss in zip(points, solve_medianoid_many(inst, points, losses=True)):
            tel.medianoid_calls += 1
            consider(p, loss)

    try:
        if mode == INTERMEDIATE:
            # One group per customer: its tangent lines, less the vertical.
            for i in range(idx.n):
                run_lines([
                    idx.tangent_line(i, j) for j in range(idx.n)
                    if j != i and abs(math.sin(idx.ang[i, j])) > VERTICAL_EPS
                ])
            run_points(_disc_crossings(inst))
        else:
            slab = _Slab()
            xs = local_optimal_line_LT(inst, idx, frame, slab, tel)
            local_optimal_line_LM(inst, idx, frame, slab, tel)
            local_optimal_line_LC(inst, idx, frame, slab, tel)
            run_lines([DirectedLine.vertical(x) for x in sorted(set(slab.boundary_xs() + xs))])
        run_points([c.site for c in inst.customers])
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
