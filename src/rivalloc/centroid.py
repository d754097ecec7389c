"""Plane-level minimisation of the follower value.

The minimum is attained at a customer site or at a candidate point: a
crossing of two disc tangent lines, of a tangent line and a disc boundary,
or of two disc boundaries.  The parametric search never materialises the
candidates.  It keeps one open vertical slab that only shrinks.  Each
vertical-line decision keeps the closed side of its line, and everything it
discards is no better than a point on that line, which becomes a boundary
of the slab; so everything outside the final slab is dominated by a point
on one of its (at most two) boundary lines.  The three families shrink the
same slab in turn, each until none of its candidates lies strictly inside,
and each exhausts batches of crossing abscissas by decisions at their
median: the tangent-tangent family selects its crossings in batches (a
hashed sample of line pairs, then the pairs whose order by y differs between
the two slab ends); the tangent-circle family then takes, for each half of
each disc boundary, the block of tangent lines that meets it in the y-order
they now share across the slab; the circle-circle family takes its crossing
points.  Vertical tangent lines have no y-order and are set aside.  The
optimum is therefore matched by one line search on each boundary line and
each vertical tangent line, or at a customer site.  A certified optimum
found anywhere, by a decision or a line search, is raised there as
``CertifiedOptimum`` and stops everything early; its ``origin`` is reported
as ``telemetry["certified"]``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geom import (
    DirectedLine,
    Instance,
    Point,
    circle_circle_intersections,
    Circle,
)
from .medianoid import solve_medianoid, solve_medianoid_many
from .linesearch import (
    AngularIndex,
    CertifiedOptimum,
    Telemetry,
    build_angular_index,
    local_optima_on_lines,
)
from .vprune import (
    PRUNE_LEFT,
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


class _Slab:
    """Open vertical slab (lo, hi) that shrinks as decisions accumulate.

    Every point outside it is no better than a point on a boundary line.
    """

    def __init__(self) -> None:
        self.lo = -math.inf
        self.hi = math.inf

    def apply(self, dec: PruneDecision, x: float) -> None:
        """Move a boundary to ``x``, the line of ``dec``, keeping its closed
        side."""
        if dec.kind == PRUNE_LEFT:
            self.lo = x
        else:
            self.hi = x

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


def _decider(inst, idx, frame, slab: _Slab, telemetry: Telemetry, counter: str):
    """The vertical-line decision at ``x`` applied to ``slab``, one call
    counted in the ``telemetry`` field ``counter``."""

    def decide_at(x: float) -> None:
        setattr(telemetry, counter, getattr(telemetry, counter) + 1)
        slab.apply(decide(inst, idx, frame, DirectedLine.vertical(x), telemetry), x)

    return decide_at


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
    loff = np.append(idx.tan_off[keep], (frame.y_top, frame.y_btm))
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
    decide_at = _decider(inst, idx, frame, slab, telemetry, "lt_oracle")
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


def _circle_crossings(lnx, lny, loff, inst: Instance, slab: _Slab):
    """``(line, disc, x)`` for every crossing abscissa x strictly inside
    ``slab`` of a line and a disc boundary, counted as
    ``line_circle_intersections`` counts them: two points, or the foot
    point within ``tol`` of tangency.  The lines' y-order must hold across
    the slab (see ``local_optimal_line_LM``).

    Arcs are the upper and lower halves of each circle of radius
    ``sqrt(r*r + 2*tol)`` whose span meets the slab.  Every crossing lies
    inside that circle, within ``sqrt(3*tol)`` in y of one of its arcs, so
    it belongs to a line of that arc's block: the lines that come within
    ``2*sqrt(tol)`` in y of the arc over the part ``[a, b]`` of the closed
    slab that the arc spans.
    """
    r = inst.r
    tol = inst.eps * max(1.0, r)
    rho2 = r * r + 2.0 * tol
    rho = math.sqrt(rho2)
    margin = 2.0 * math.sqrt(tol)
    a = np.maximum(inst.xs - rho, slab.lo)
    b = np.minimum(inst.xs + rho, slab.hi)
    disc = np.tile(np.flatnonzero(a < b), 2)
    if not len(disc):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    # Order by y strictly inside the slab when an arc reaches it: at a
    # slab end, lines crossing there would be ordered by rounding.
    xm = 0.5 * (a.min() + b.max())
    order = np.argsort((loff - lnx * xm) / lny)
    m = len(order)
    up = np.repeat([True, False], len(disc) // 2)
    sg = np.where(up, 1.0, -1.0)
    cx, cy, a, b = inst.xs[disc], inst.ys[disc], a[disc], b[disc]

    def gap(k, s, x):
        """``sg*(line y - arc y)`` at ``x``: positive beyond the arc, away
        from the centre; convex in ``x``, as the arc bulges away."""
        y = (loff[k] - lnx[k] * x) / lny[k]
        return sg[s] * (y - cy[s]) - np.sqrt(np.maximum(rho2 - (x - cx[s]) ** 2, 0.0))

    def first(pred):
        """Per arc, the least position, counted from the arc's centre
        side (the lower arc walks the y-order backwards), whose line
        satisfies ``pred``, which holds on a suffix of that walk."""
        lo = np.zeros(len(disc), dtype=np.int64)
        hi = np.full(len(disc), m, dtype=np.int64)
        s = np.arange(len(disc))
        while len(s):
            mid = (lo[s] + hi[s]) >> 1
            hit = pred(order[np.where(up[s], mid, m - 1 - mid)], s)
            hi[s] = np.where(hit, mid, hi[s])
            lo[s] = np.where(hit, lo[s], mid + 1)
            s = s[lo[s] < hi[s]]
        return lo

    # The convex gap peaks at an end of [a, b] and bottoms out where the
    # line's slope meets the arc's, clipped to [a, b].
    p0 = first(lambda k, s: np.maximum(gap(k, s, a[s]), gap(k, s, b[s])) >= -margin)
    p1 = first(lambda k, s: gap(k, s, np.clip(
        cx[s] + sg[s] * rho * lnx[k] * np.sign(lny[k]), a[s], b[s])) > margin)
    start = np.where(up, p0, m - p1)
    cnt = np.maximum(np.where(up, p1, m - p0) - start, 0)
    owner = np.repeat(np.arange(len(cnt)), cnt)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(cnt) - cnt, cnt) + start[owner]

    # Both arcs may hold a line; take each (line, disc) pair once.
    n = inst.n
    key = np.unique(order[pos] * n + disc[owner])
    k, u = np.divmod(key, n)
    s = loff[k] - lnx[k] * inst.xs[u] - lny[k] * inst.ys[u]
    d = r * r - s * s
    meet = d >= -tol
    k, u, s, d = k[meet], u[meet], s[meet], d[meet]
    foot = inst.xs[u] + s * lnx[k]
    two = d > tol
    h = np.sqrt(np.where(two, d, 0.0)) * lny[k]
    k = np.concatenate([k, k[two]])
    u = np.concatenate([u, u[two]])
    x = np.concatenate([foot - h, foot[two] + h[two]])
    inside = (x > slab.lo) & (x < slab.hi)
    return k[inside], u[inside], x[inside]


def local_optimal_line_LM(
    inst: Instance,
    idx: AngularIndex,
    frame: BoundingFrame,
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no tangent-circle crossing lies strictly
    inside it; LT must have run on it first.

    LT leaves no two of its lines (``_lt_lines``) crossing strictly inside
    the slab, so one y-order holds across it.  It is taken at an interior
    point, since two lines crossing at a slab end would be ordered there
    by rounding.  Over the part of the slab spanned by one half, upper or
    lower, of a disc boundary, the lines wholly on the centre side of that
    arc come first (seen from the arc), then the lines that touch or cross
    it, then the lines wholly beyond it.  So the lines meeting the arc form
    one block, found by two binary searches with an O(1) test per probe
    (``_circle_crossings``).  Blocks are per arc, not per disc: a line may
    pass through a disc inside the slab and cross its boundary only
    outside.  The test keeps a margin, so a line within ``tol`` of
    tangency, whose crossing is its foot point, falls in a block: its own
    two discs, and a third disc exactly 2r away, as on the integer grid.
    Each line in a block gives at most two crossing abscissas; the C
    strictly inside the slab are exhausted (``_exhaust``) in at most
    floor(log2 C) + 1 decisions, and a decision only shrinks the slab, so
    the order stays valid.  Vertical tangent lines have no y-order; LT sets
    them aside to be searched directly.  The frame lines never meet a disc.
    """
    lnx, lny, loff, _ = _lt_lines(idx, frame)
    xs = _circle_crossings(lnx, lny, loff, inst, slab)[2]
    telemetry.lm_mass0 = len(xs)
    _exhaust(xs, slab, _decider(inst, idx, frame, slab, telemetry, "lm_rounds"))


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
    it, by exhausting their abscissas (``_exhaust``)."""
    xs = np.array([p.x for p in _disc_crossings(inst)], dtype=float)
    telemetry.lc_points = len(xs)
    _exhaust(xs[(xs > slab.lo) & (xs < slab.hi)], slab,
             _decider(inst, idx, frame, slab, telemetry, "lc_steps"))


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
        for point, loss in local_optima_on_lines(inst, idx, lines, tel):
            consider(point, loss)

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
