"""Plane-level minimisation of the follower value.

The minimum is attained at a customer site or at a candidate point: a
crossing of two disc tangent lines, of a tangent line and a disc boundary,
or of two disc boundaries.  The parametric search never materialises the
candidates.  It keeps one open vertical slab that only shrinks.  Each
vertical-line decision keeps the closed side of its line, which becomes a
boundary of the slab, and carries its line's least evaluation,
``Decision.least``: whatever the decision discards, and every point of its
line, is no better.  So everything outside the final slab is no better
than the ``least`` of a decision that set one of its (at most two)
boundaries.  A boundary set by a box rule carries none and needs none: the
rule holds at every abscissa beyond the box, so an optimum lies strictly
inside the slab or on the other boundary.  The three families shrink the
same slab in turn, each until none of its candidates lies strictly inside,
and each exhausts batches of crossing abscissas by decisions at their
median: the tangent-tangent family selects its crossings in batches (a
hashed sample of line pairs, then the pairs whose order by y differs between
the two slab ends); the tangent-circle family then takes, for each half of
each disc boundary, the block of tangent lines that meets it in the y-order
they now share across the slab; the circle-circle family takes the
abscissas of ``geom.disc_crossings``.  The tangent-tangent and
tangent-circle families read their lines, the tangent lines and the two
frame lines, in place from the angular index's table (``idx.lines``).
Beside that table (3 x 8m bytes for its m lines) a solve holds LT's batch
and one decision's breakpoints.  LT holds each batch once, in one array
that ``_exhaust`` consumes in place, and meets an exact batch's pairs
``SWEEP_BLOCK`` (``medianoid``) candidates at a time.  Unthinned, that
batch holds one abscissa per inverted pair (at most 2.77 per line
measured); thinned, the abscissas whose hash falls below a bound, at most
``LT_CAP`` per line, so in the worst case LT's batch reaches ``LT_CAP`` x
8m bytes.
``solve_centroid`` accepts only instances in general position, so no
tangent line is vertical and every line has a y-order.  No candidate lies
strictly inside the final slab, so the optimum is matched by the ``least``
of a decision that set a boundary, or at a customer site: parametric mode
searches no line of its own.  All three modes share one solve
(``_solve``): beside the sites, intermediate mode ranks the disc-boundary
crossings and brute mode each block of ``oracle.enumerate_candidates``, as
coordinate arrays, by ``medianoid.least_loss``.  A certified optimum found
anywhere, by a decision or, in intermediate mode, a line search, is raised
there as ``CertifiedOptimum`` and stops everything early; its ``origin``
is reported as ``telemetry["certified"]``.  Tolerances: the table in
``geom``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    DegenerateInputError,
    Instance,
    Point,
    disc_crossings,
    general_position_violation,
)
from . import medianoid, oracle
from .medianoid import SIDEWARD_RIGHT, block_size, least_loss, solve_medianoid
from .linesearch import (
    AngularIndex,
    CertifiedOptimum,
    Telemetry,
    _position_pass,
    build_angular_index,
    local_optima_on_lines,
)
from .vprune import Decision, decide

PARAMETRIC = "parametric"
INTERMEDIATE = "intermediate"
BRUTE = "brute"
MODES = (PARAMETRIC, INTERMEDIATE, BRUTE)


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

    ``set_by`` holds the decisions that set the two boundaries, left first.
    Whatever a decision discards is no better than its own ``least``; a
    later decision that discards that ``least`` discards nothing better
    than its own.  So every point outside the open slab is no better than
    the ``least`` of a decision in ``set_by``, or lies on a boundary set by
    a box rule, which carries none and needs none (see the module
    docstring).
    """

    def __init__(self) -> None:
        self.lo = -math.inf
        self.hi = math.inf
        self.set_by: List[Optional[Decision]] = [None, None]

    def apply(self, dec: Decision) -> None:
        """Move a boundary to ``dec.x``, keeping the closed side ``dec``
        keeps."""
        if dec.keep == SIDEWARD_RIGHT:
            self.lo = dec.x
            self.set_by[0] = dec
        else:
            self.hi = dec.x
            self.set_by[1] = dec

    def anchor_hint(self) -> Optional[Tuple[float, float]]:
        """The ordinate interval of the anchors of the decisions that set
        the boundaries: their least ``t_up`` and greatest ``t_down``, or
        None when neither carries anchors."""
        spans = [d.anchors for d in self.set_by if d is not None and d.anchors is not None]
        if not spans:
            return None
        return min(t for t, _ in spans), max(t for _, t in spans)


# Crossings per line an exact LT batch holds before it is thinned.
LT_CAP = 4


def _mix(v: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, a fixed bijection, on the 64-bit words of v."""
    v = v.view(np.uint64) ^ (v.view(np.uint64) >> 30)
    v *= 0xBF58476D1CE4E5B9
    v ^= v >> 27
    v *= 0x94D049BB133111EB
    return v ^ (v >> 31)


def _crossing_xs(lnx, lny, loff, a, b, slab: _Slab) -> np.ndarray:
    """Abscissas of the crossings of lines ``a[i]`` and ``b[i]`` that lie
    strictly inside ``slab``; a pair with ``|den| <= ANGLE_TOL`` is
    parallel and never crosses."""
    with np.errstate(divide="ignore", invalid="ignore"):
        den = lnx[b] * lny[a] - lnx[a] * lny[b]
        x_ab = (loff[b] * lny[a] - loff[a] * lny[b]) / den
        inside = (np.abs(den) > ANGLE_TOL) & (x_ab > slab.lo) & (x_ab < slab.hi)
    return x_ab[inside]


def _end_order(lnx, lny, loff, x: float, right: bool) -> np.ndarray:
    """Line indices, as int32, in order of y just right (``right``) or
    just left of ``x``: by y at ``x``, then by slope ``-nx/ny``
    (descending on the left), then by index.  At an infinite ``x``, by y
    far out on that side: by slope (descending on the left), then by y at
    0, then by index.  The key is built in place, and at most two keys or
    one key and its int64 argsort are live beside the int32 order."""
    far = math.isinf(x)
    if far:
        key = np.divide(lnx, lny)
        if x > 0:
            np.negative(key, out=key)
    else:
        key = np.multiply(lnx, x)
        np.subtract(loff, key, out=key)
        key /= lny
    order = np.argsort(key).astype(np.int32)
    key = key[order]
    tied = key[1:] == key[:-1]
    if tied.any():
        # Equal keys form contiguous runs; re-sort only their members.
        tied = np.append(tied, False) | np.insert(tied, 0, False)
        sub = order[tied]
        tie = (loff[sub] if far else -lnx[sub] if right else lnx[sub]) / lny[sub]
        order[tied] = sub[np.lexsort((sub, tie, key[tied]))]
    return order


def _inverted_pairs(lnx, lny, loff, lo: float, hi: float):
    """Yield ``(a, b)`` index arrays, a chunk of at most ``SWEEP_BLOCK``
    candidates at a time, covering once each pair of lines ordered
    differently by y just right of ``lo`` and just left of ``hi``: in exact
    arithmetic, the pairs crossing strictly inside.

    Line k of the ``lo`` order has rank ``k + d[k]`` at ``hi``.  Ranks
    k < l invert when ``d[k] - d[l] > l - k``, so l lies in k's window, the
    ``2 d[k] - 1`` ranks after k, or k in l's, the ``-2 d[l] - 1`` ranks
    before l; a pair in both is taken from k's.  A line's |d| is at most
    the number of pairs it is in, so for K inverted pairs the windows hold
    at most 4K candidates: O(m + K) beside the two orders.  One
    ``_end_order`` key is live at a time, and between chunks the generator
    holds two int32 and one int64 array of length m."""
    m = len(lnx)
    d = np.empty(m, dtype=np.int32)
    d[_end_order(lnx, lny, loff, hi, False)] = np.arange(m, dtype=np.int32)
    by_lo = _end_order(lnx, lny, loff, lo, True)
    d = d[by_lo]
    rank = np.arange(m, dtype=np.int32)
    d -= rank
    # Rank k's window, cut to the ranks there are, is the candidates
    # [ends[k], ends[k + 1]); its width is built in place, in int32.
    w = np.where(d > 0, m - 1 - rank, rank)
    del rank
    np.minimum(w, 2 * np.abs(d) - 1, out=w)
    ends = np.zeros(m + 1, dtype=np.int64)
    ends[1:] = np.maximum(w, 0, out=w)
    del w
    np.cumsum(ends, out=ends)
    # A chunk spans at most `chunk` candidates and `chunk` windows.
    chunk, c0 = medianoid.SWEEP_BLOCK, 0
    while c0 < ends[m]:
        o = np.searchsorted(ends, c0, "right") - 1
        o = np.arange(o, min(o + chunk, m))
        c1 = min(c0 + chunk, ends[o[-1] + 1])
        k = np.repeat(o, np.clip(ends[o + 1], c0, c1) - np.clip(ends[o], c0, c1))
        del o
        # Each candidate pairs its window's owner with the rank gap after
        # it (up) or before it; k becomes the lower rank, in place.
        gap = np.arange(c0 + 1, c1 + 1) - ends[k]
        up = d[k] > 0
        np.subtract(k, gap, out=k, where=~up)
        l = k + gap
        keep = (d[k] - d[l] > gap) & (up | (gap >= 2 * d[k]))
        yield by_lo[k[keep]], by_lo[l[keep]]
        c0 = c1


def _append(xs: np.ndarray, x: np.ndarray) -> None:
    """Grow ``xs``, which no view shares, by ``x`` in place (``realloc``,
    which moves a large array by remapping its pages, not by copying)."""
    k = len(xs)
    xs.resize(k + len(x), refcheck=False)
    xs[k:] = x


def _hashed_batch(lnx, lny, loff, slab: _Slab) -> np.ndarray:
    """The abscissas strictly inside ``slab`` of the crossings of each line
    ``a`` with one hashed partner, ``SWEEP_BLOCK`` lines at a time: at most m,
    held in one array.  A line drawn as its own partner has ``den == 0``
    and drops out."""
    m, chunk = len(lnx), medianoid.SWEEP_BLOCK
    xs = np.empty(0)
    for s in range(0, m, chunk):
        a = np.arange(s, min(s + chunk, m))
        _append(xs, _crossing_xs(lnx, lny, loff, a, _mix(a + m) % m, slab))
    return xs


def _exact_batch(lnx, lny, loff, slab: _Slab, cap: int):
    """The abscissas strictly inside ``slab`` of the crossings of the pairs
    ``_inverted_pairs`` lists, the mask of the lines in some pair, and
    whether the abscissas were thinned, by a hash, to at most ``cap``.

    The abscissas are held once, in one array that grows in place; beside
    it, a chunk's pairs and abscissas, at most ``SWEEP_BLOCK`` of each.
    Unthinned it holds one abscissa per inverted pair, 0.17-2.77 per line
    on generated non-certifying solves at n = 100-1600.  Thinned, it holds
    exactly the abscissas x with ``_mix(x)`` at most a bound, whatever order
    the pairs arrive in: each arriving chunk is filtered by the current
    bound, which is halved while the batch exceeds ``cap`` (``LT_CAP`` per
    line, 4 x 8m bytes) unless that would empty it."""
    used = np.zeros(len(lnx), dtype=bool)
    xs = np.empty(0)
    full = bound = np.uint64((1 << 64) - 1)
    for a, b in _inverted_pairs(lnx, lny, loff, slab.lo, slab.hi):
        used[a] = used[b] = True
        x = _crossing_xs(lnx, lny, loff, a, b, slab)
        _append(xs, x[_mix(x) <= bound])
        while len(xs) > cap:
            # Halve the bound, unless that would thin the batch to nothing.
            keep = _mix(xs) <= bound >> np.uint64(1)
            kept = int(np.count_nonzero(keep))
            if not kept:
                break
            xs[:kept] = xs[keep]
            xs.resize(kept, refcheck=False)
            bound >>= np.uint64(1)
    return xs, used, bound < full


def _exhaust(xs: np.ndarray, inst: Instance, idx: AngularIndex, slab: _Slab,
             telemetry: Telemetry, counter: str) -> None:
    """Apply to ``slab`` the decision (``decide``) at the lower median of
    the ``xs``, all strictly inside ``slab``, until none is left inside:
    either side pruned holds at least half of them, so a batch of C costs
    at most floor(log2 C) + 1 decisions.  Each counts in the ``telemetry``
    field ``counter`` before it is made, so one that raises counts too,
    and its anchors' search starts from the slab's (``_Slab.anchor_hint``).
    ``xs`` is consumed: it is partitioned in place, and after each decision
    only the side of the median that the slab kept is searched on, as a
    view (a copy only when the median's value repeats there)."""
    while len(xs):
        k = (len(xs) - 1) // 2
        xs.partition(k)
        t = float(xs[k])
        setattr(telemetry, counter, getattr(telemetry, counter) + 1)
        slab.apply(decide(inst, idx, t, telemetry, slab.anchor_hint()))
        if slab.lo == t:
            xs = xs[k + 1:]
            if len(xs) and xs.min() == t:
                xs = xs[xs > t]
        else:
            xs = xs[:k]
            if len(xs) and xs.max() == t:
                xs = xs[xs < t]


def local_optimal_line_LT(
    inst: Instance,
    idx: AngularIndex,
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no two tangent lines cross strictly inside it.

    The tangent lines plus the two frame lines are the m lines of the
    index's table, read in place.  Batches of their crossing abscissas
    strictly inside the slab are exhausted by decisions at the median
    (``_exhaust``): first one hashed partner per line (``_hashed_batch``,
    at most m abscissas), then the exact batch (``_exact_batch``), repeated
    on the new slab without the lines that crossed no other while it was
    thinned.  A batch is held once, and its pairs arrive a chunk of at most
    ``SWEEP_BLOCK`` candidates at a time; a thinned batch keeps the abscissas
    whose hash falls below a bound, at most ``LT_CAP`` * m of them, the
    most LT holds beside the table.
    """
    lnx, lny, loff = idx.lines
    m = len(lnx)
    telemetry.lt_rounds += 1
    _exhaust(_hashed_batch(lnx, lny, loff, slab), inst, idx, slab, telemetry, "lt_oracle")
    while len(lnx) > 1:
        xs, used, thinned = _exact_batch(lnx, lny, loff, slab, LT_CAP * m)
        telemetry.lt_rounds += 1
        _exhaust(xs, inst, idx, slab, telemetry, "lt_oracle")
        if not thinned:
            break
        lnx, lny, loff = lnx[used], lny[used], loff[used]


def _sorted_unique(v: np.ndarray) -> np.ndarray:
    """``np.unique(v)`` by a sort in place and a neighbour mask, which,
    unlike ``np.unique``, does not import ``numpy.ma``."""
    v.sort()
    keep = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


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
    tol = inst.cross_tol
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
    key = _sorted_unique(order[pos] * n + disc[owner])
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
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no tangent-circle crossing lies strictly
    inside it; LT must have run on it first.

    LT leaves no two of its lines (``idx.lines``) crossing strictly inside
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
    the order stays valid.  The frame lines never meet a disc.
    """
    lnx, lny, loff = idx.lines
    xs = _circle_crossings(lnx, lny, loff, inst, slab)[2]
    telemetry.lm_mass0 = len(xs)
    _exhaust(xs, inst, idx, slab, telemetry, "lm_rounds")


def local_optimal_line_LC(
    inst: Instance,
    idx: AngularIndex,
    slab: _Slab,
    telemetry: Telemetry,
) -> None:
    """Shrink ``slab`` until no disc-boundary crossing lies strictly inside
    it, by exhausting their abscissas (``_exhaust``)."""
    xs = disc_crossings(inst)[0]
    telemetry.lc_points = len(xs)
    _exhaust(xs[(xs > slab.lo) & (xs < slab.hi)], inst, idx, slab, telemetry, "lc_steps")


def solve_centroid(inst: Instance, mode: str = PARAMETRIC) -> SolveReport:
    """Minimise the follower value over the whole plane.

    ``mode`` selects the solver: ``"parametric"`` shrinks one slab over the
    three candidate families with the vertical-line decision oracle and
    keeps, as candidates, the least evaluations of the decisions that set
    its boundaries; ``"intermediate"`` runs the line search on every
    tangent line, customer group by group; and ``"brute"`` evaluates every
    candidate point.  All return the same follower value.  Each returns
    the least optimal point by (x, y) among the points it evaluates, and
    the modes evaluate different points, so two modes may return different
    optimal points.

    Every mode assumes customers in general position and first checks it:
    an instance that ``general_position_violation`` rejects raises
    ``DegenerateInputError`` with its message.  Nothing behind this
    check handles a degenerate instance, in whole or in part.
    """
    if mode not in MODES:
        raise ValueError("unknown solver mode %r" % (mode,))
    violation = general_position_violation(inst)
    if violation is not None:
        raise DegenerateInputError(violation)
    return _solve(inst, mode)


def brute_centroid(inst: Instance) -> SolveReport:
    """``solve_centroid`` in brute mode, without the general-position check."""
    return _solve(inst, BRUTE)


def _solve(inst: Instance, mode: str) -> SolveReport:
    """The solve of every mode, past its general-position check if any."""
    t0 = time.perf_counter()
    tel = Telemetry()
    best: Optional[Tuple[float, float, float]] = None
    best_point: Optional[Point] = None

    def consider(point: Point, weight_loss: float) -> None:
        nonlocal best, best_point
        key = (weight_loss, point.x, point.y)
        if best is None or key < best:
            best = key
            best_point = point

    def run_lines(lines: np.ndarray, positions: List[np.ndarray]) -> None:
        for point, loss in local_optima_on_lines(inst, lines, positions, tel):
            consider(point, loss)

    try:
        if mode == BRUTE:
            for xs, ys in oracle.enumerate_candidates(inst):
                if len(xs):
                    tel.medianoid_calls += len(xs)
                    consider(*least_loss(inst, xs, ys))
            xs = ys = np.empty(0)
        elif mode == INTERMEDIATE:
            # One group per customer: its n - 1 tangent lines.  Consecutive
            # groups share one lockstep while their lines fit one sweep block;
            # a line's evaluations do not depend on its partners, so a
            # certifying chunk is searched again group by group, on slices of
            # its line rows and breakpoint arrays, which the search only
            # reorders.
            idx = build_angular_index(inst)
            n = idx.n
            k = max(1, block_size(n) // max(1, n - 1))
            for s in range(0, n, k):
                lines = idx.tangent_lines(s, min(s + k, n))
                positions = _position_pass(idx, lines)
                before = replace(tel)
                try:
                    run_lines(lines, positions)
                except CertifiedOptimum:
                    if len(lines) == n - 1:
                        raise
                    tel = before
                    for g in range(0, len(lines), n - 1):
                        run_lines(lines[g:g + n - 1], positions[g:g + n - 1])
                    raise RuntimeError("a certifying chunk has no certifying group")
                # Freed before the next chunk's pass builds its own.
                del positions
            xs, ys = disc_crossings(inst)
        else:
            idx = build_angular_index(inst)
            slab = _Slab()
            local_optimal_line_LT(inst, idx, slab, tel)
            local_optimal_line_LM(inst, idx, slab, tel)
            local_optimal_line_LC(inst, idx, slab, tel)
            for dec in slab.set_by:
                if dec is not None and dec.least is not None:
                    consider(*dec.least)
            xs = ys = np.empty(0)
        xs, ys = np.concatenate([xs, inst.xs]), np.concatenate([ys, inst.ys])
        tel.medianoid_calls += len(xs)
        consider(*least_loss(inst, xs, ys))
    except CertifiedOptimum as cert:
        tel.certified = cert.origin
        best_point = cert.point

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
