"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  A
breakpoint is its position ``t`` along the line directed upward.  A line's
breakpoints are one flat array: the crossing position of every canonical
tangent line of the angular index that is not parallel to the line, once
each, then the circle crossings.  The crossing points themselves are never
built.  A query line is a row ``ax, ay, ux, uy, angle`` of a float array:
its anchor, its unit direction upward and that direction's angle, in
(0, pi).

``AngularIndex`` owns the one table of the lines the searches cross,
``lines``, rows ``nx``, ``ny``, ``off`` of ``nx*x + ny*y = off``: the n(n - 1)
canonical tangent lines, pairs in row-major order, then the bounding
frame's two horizontal lines, the frame's only copy.  It is built from the
sites' coordinate differences, without trigonometry, a block of rows at a
time, and is the index's only n^2-sized array.  LT, LM, every decision and
intermediate mode's tangent lines read it in place.
The customers are in general position (``solve_centroid`` checks), so no
tangent line is vertical.  Each caller builds the breakpoints of its own
lines.  A decision's vertical line's are the table's ordinates at its x,
``(off - x*nx)/ny``, one per row, then its circle crossings and, next to a
tangency, its capture-circle crossings, in one preallocated array
(``vertical_breakpoints``); intermediate mode's tangent lines, the table's rows
directed upward a block of customers at a time (``tangent_lines``), cross
the tangent columns in broadcast passes (``_position_pass``), which drop a
column parallel to the line by LT's rule, ``|den| <= ANGLE_TOL``.  Both
give the same tangent and circle positions, bitwise.

``search_lines`` is the one search over breakpoints, an array engine that
advances many lines in lockstep (Megiddo's batching of independent oracle
calls).  Each round it reads the lower median of each line's surviving
positions (the first by ``np.partition``, later ones off the sorted half
the first cut kept, whose survivors are an index range), sweeps all their
points as one block (``medianoid.sweep``, whose rows are plain floats) and
reads each lean with ``medianoid.lean_code``: an upward wedge keeps the
positions strictly above, a downward one those strictly below, and a
sideward wedge ends the line.  A strong centroid is a certified global
optimum, raised as ``CertifiedOptimum`` with an ``origin`` string naming
where it was found, once the round is finished.  Each cut discards at
least half of the survivors, so one line costs time linear in its
breakpoint count.  A line keeps only its first least-loss evaluation, its
last upward and last downward one and a sideward end, as rows
(``Evaluation``).  The vertical-line decision (``vprune``) searches its
single line, for its anchors, and intermediate mode every tangent line,
many at a time (``local_optima_on_lines``, which builds a ``Point`` from
each line's least).  Tolerances: the table in ``geom``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    Instance,
    Point,
    _libm,
    normalize_angle,
)
from . import medianoid
from .medianoid import (
    DOWNWARD,
    UPWARD,
    WHOLE_LINE,
    lean_code,
    sweep,
)

# Origin of a certificate that a line minimum search finds.
SEARCHED_LINE = "strong centroid on a searched line"

@dataclass(slots=True)
class Telemetry:
    """Counters shared by all stages of one solve.  A guarantee is enforced,
    not counted: ``search_lines`` raises on a cut that drops less than half.
    The fields are slots, so updating a counter that is not declared here
    raises ``AttributeError``.
    """

    medianoid_calls: int = 0  # follower evaluations, one per point swept
    decide_calls: int = 0  # vertical-line decisions (vprune.decide), all families
    lines_searched: int = 0  # intermediate mode's tangent lines searched; 0 otherwise
    prune_iterations: int = 0  # cuts of the line searches, one per leaning evaluation
    lt_rounds: int = 0  # crossing batches LT exhausted
    lt_oracle: int = 0  # LT's decisions
    lm_mass0: int = 0  # tangent-circle crossings left inside LT's slab
    lm_rounds: int = 0  # LM's decisions, at most floor(log2 lm_mass0) + 1
    lc_points: int = 0  # disc-boundary crossings, inside LM's slab or not
    lc_steps: int = 0  # LC's decisions
    wall_time_s: float = 0.0
    certified: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class CertifiedOptimum(Exception):
    """Raised where an evaluation certifies a global optimum; ``origin``
    names the certificate and is reported as ``Telemetry.certified``."""

    def __init__(self, point: Point, weight_loss: float, origin: str) -> None:
        super().__init__(origin)
        self.point = point
        self.weight_loss = weight_loss
        self.origin = origin


class AngularIndex:
    """The table of the lines the search crosses.

    For every ordered pair ``(i, j)``, ``i != j``, with offset
    ``(dx, dy) = site_j - site_i`` and ``d = sqrt(dx*dx + dy*dy)``, the
    tangent line lying at distance ``r`` to the right of ``(dx, dy)`` is
    stored once as ``nx*x + ny*y = off``, with unit normal
    ``(nx, ny) = (dy/d, -dx/d)`` and offset ``off = site_i . n + r``.  Only
    correctly rounded operations build it, so it does not depend on which
    of numpy's SIMD kernels run, and ``MAX_SCALE`` keeps the squares
    finite.  The differences of ``(j, i)`` are the exact negations of those
    of ``(i, j)``, so its normal is exactly ``-n``.  The left tangent of
    ``(i, j)`` is the same line as the stored right tangent of ``(j, i)``,
    so every evaluation of a tangent crossing goes through exactly one
    canonical parameter triple and repeated evaluations agree bitwise.

    ``lines`` is the one read-only table, rows ``nx``, ``ny`` and ``off``:
    column ``i*(n - 1) + j - (j > i)`` holds the tangent of ``(i, j)``,
    pairs in row-major order without the diagonal (``tangents`` = n(n - 1)
    columns), and the last two columns hold the bounding frame's top and
    bottom lines ``y = c``, normal ``(0, 1)``, ``r + max(R, 1)`` beyond
    the highest and the lowest site.  It is the index's only n^2-sized
    array: it is filled ``SWEEP_BLOCK // n`` rows at a time, in place, with
    one scratch block.  ``box``, ``(min x - r, max x + r)``, is the discs'
    open x-range, where the plane search's slab starts.  The index does not
    check its input: on an instance that ``general_position_violation``
    accepts, no tangent line is vertical or horizontal and no two customers
    share a polar angle around a third (``solve_centroid`` checks first).
    """

    def __init__(self, inst: Instance) -> None:
        n = inst.n
        self.inst = inst
        self.n = n
        xs = self.xs = inst.xs
        ys = self.ys = inst.ys
        m = self.tangents = n * (n - 1)
        lines = self.lines = np.empty((3, m + 2))
        nx, ny, off = (row[:m].reshape(n, n - 1) for row in lines)
        size = max(1, medianoid.SWEEP_BLOCK // n)
        scratch = np.empty((min(size, n), n - 1))
        for s in range(0, n, size):
            e = min(s + size, n)
            a, b, c, d = nx[s:e], ny[s:e], off[s:e], scratch[:e - s]
            # Row i's column k is the pair (i, j), j = k + (k >= i).
            later = np.arange(n - 1) >= np.arange(s, e)[:, None]
            # b = -dx = x_i - x_j and c = dy = y_j - y_i, then d.
            np.subtract(xs[s:e, None], xs[:-1], out=b)
            np.subtract(xs[s:e, None], xs[1:], out=b, where=later)
            np.subtract(ys[:-1], ys[s:e, None], out=c)
            np.subtract(ys[1:], ys[s:e, None], out=c, where=later)
            np.multiply(b, b, out=d)
            d += np.multiply(c, c, out=a)
            np.sqrt(d, out=d)
            # a = nx, b = ny and c = x_i*nx + y_i*ny, d spent.
            np.divide(c, d, out=a)
            np.divide(b, d, out=b)
            np.multiply(xs[s:e, None], a, out=c)
            c += np.multiply(ys[s:e, None], b, out=d)
        off += inst.r
        r, pad = inst.r, max(inst.R, 1.0)
        lines[:, m:] = ((0.0, 0.0), (1.0, 1.0),
                        (float(ys.max()) + r + pad, float(ys.min()) - r - pad))
        lines.flags.writeable = False
        self.box = (float(xs.min()) - r, float(xs.max()) + r)

    def tangent_lines(self, s: int, e: int) -> np.ndarray:
        """The stored right tangents of customer rows ``s`` to ``e``, in
        table order, as upward line rows: each anchored at its touching
        point ``site_i + r*(nx, ny)`` on disc i, along the pair's direction
        ``(-ny, nx)`` or, where ``nx < 0``, its opposite, at the C library's
        ``atan2`` of that direction.  A horizontal tangent,
        ``|nx| <= ANGLE_TOL``, has no upward direction and raises
        ``ValueError``."""
        nx, ny, _ = self.lines[:, s * (self.n - 1):e * (self.n - 1)]
        if (np.abs(nx) <= ANGLE_TOL).any():
            raise ValueError("horizontal query line has no breakpoint order")
        i = np.repeat(np.arange(s, e), self.n - 1)
        r = self.inst.r
        ux, uy = np.where(nx < 0.0, ny, -ny), np.abs(nx)
        return np.stack((self.xs[i] + r * nx, self.ys[i] + r * ny, ux, uy,
                         _libm(math.atan2, uy, ux)), axis=1)


def build_angular_index(inst: Instance) -> AngularIndex:
    return AngularIndex(inst)


def _circle_positions(idx: AngularIndex, ax, ay, ux, uy, vals: np.ndarray, used: np.ndarray) -> None:
    """Write the circle crossings of the lines through ``(ax, ay)`` with
    direction ``(ux, uy)`` into ``vals`` and mark the real ones in
    ``used``: customer u's entries ``2u`` and ``2u + 1`` are no crossing,
    the tangency t0, or the two crossings t0 - s and t0 + s."""
    r = idx.inst.r
    tol = idx.inst.cross_tol
    cx = idx.xs - ax
    cy = idx.ys - ay
    t0 = cx * ux + cy * uy
    perp = ux * cy - uy * cx
    disc = r * r - perp * perp
    crossing = disc > tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    vals[..., ::2] = np.where(crossing, t0 - s, t0)
    vals[..., 1::2] = t0 + s
    used[..., ::2] = crossing | (disc >= -tol)
    used[..., 1::2] = crossing


def vertical_lines(xs: Sequence[float]) -> np.ndarray:
    """The upward vertical lines at abscissas ``xs``, as line rows
    ``(x, 0, 0, 1, pi/2)``."""
    return np.array([(x, 0.0, 0.0, 1.0, math.pi / 2.0) for x in xs]).reshape(-1, 5)


def _position_pass(idx: AngularIndex, lines: np.ndarray) -> List[np.ndarray]:
    """The breakpoint array of each upward line row of ``lines``: every
    canonical tangent line that crosses the line once, in canonical order,
    then circle crossings once per intersection point, in customer order
    (a tangency contributes a single entry).  A tangent column is parallel
    to the line, and dropped, when the crossing's denominator
    ``den = ux*nx + uy*ny`` has ``|den| <= ANGLE_TOL``, the rule of LT's
    crossing batches; on a row of ``tangent_lines``, ``den`` is exactly 0
    for its own column and its partner's.  Each broadcast pass fills a lines x
    (n(n - 1) + 2n) table for ``SWEEP_BLOCK // n^2`` lines (at least one),
    so its temporaries stay one block, and a mask keeps the real entries;
    each entry is computed on its own, whatever lines share its pass."""
    m = idx.tangents
    nx, ny, off = idx.lines[:, :m]
    size = max(1, medianoid.SWEEP_BLOCK // (idx.n * idx.n))
    out: List[np.ndarray] = []
    for s in range(0, len(lines), size):
        block = lines[s:s + size]
        ax, ay, ux, uy = (v[:, None] for v in block.T[:4])
        vals = np.empty((len(block), m + 2 * idx.n))
        used = np.empty((len(block), m + 2 * idx.n), dtype=bool)
        # Tangent crossings.  Each step rounds as (off - (ax*nx + ay*ny)) /
        # (ux*nx + uy*ny) does.
        den = ux * nx
        den += uy * ny
        T = vals[:, :m]
        np.abs(den, out=T)
        np.greater(T, ANGLE_TOL, out=used[:, :m])
        np.multiply(ax, nx, out=T)
        T += ay * ny
        np.subtract(off, T, out=T)
        with np.errstate(divide="ignore", invalid="ignore"):
            T /= den

        _circle_positions(idx, ax, ay, ux, uy, vals[:, m:], used[:, m:])
        flat = vals[used]
        ends = np.cumsum(np.count_nonzero(used, axis=1)).tolist()
        out += [flat[a:b] for a, b in zip([0] + ends, ends)]
    return out


def vertical_breakpoints(idx: AngularIndex, x: float) -> np.ndarray:
    """The breakpoint array a decision searches on the vertical line at
    ``x``: the ordinates of every row of the index's table, frame rows
    last, then the circle crossings, then the capture-circle crossings
    next to a tangency.  Without the frame and capture entries it is
    bitwise, in order, ``_position_pass``'s array of ``vertical_lines([x])``:
    there the denominator is ``ny`` and ``ax*nx + ay*ny`` is ``x*nx`` up to
    the sign of a zero, which subtracting it from a nonzero or positive-zero
    offset does not see.  No tangent line is vertical, as two customers
    would share x, so every column gives a position; a frame row, normal
    ``(0, 1)``, gives exactly its offset.  The sweep captures at
    ``capture_r`` = r + eps, so a disc whose discriminant
    ``r^2 - (x - x_u)^2`` is at most ``cross_tol`` while its capture
    discriminant is positive also gives its two capture-circle crossings,
    up to about sqrt(2 r eps) from its r-circle's.
    """
    inst, (nx, ny, off), m = idx.inst, idx.lines, idx.lines.shape[1]
    vals, used = np.empty(2 * idx.n), np.empty(2 * idx.n, dtype=bool)
    _circle_positions(idx, x, 0.0, 0.0, 1.0, vals, used)
    d2 = np.square(idx.xs - x)
    cap = inst.capture_r * inst.capture_r - d2
    near = (inst.r * inst.r - d2 <= inst.cross_tol) & (cap > 0.0)
    k = m + np.count_nonzero(used)
    out = np.empty(k + 2 * np.count_nonzero(near))
    T = out[:m]
    np.multiply(x, nx, out=T)
    np.subtract(off, T, out=T)
    np.divide(T, ny, out=T)
    out[m:k] = vals[used]
    s = np.sqrt(cap[near])
    out[k::2], out[k + 1::2] = idx.ys[near] - s, idx.ys[near] + s
    return out


# One evaluation of a line search: its position t along the line, the
# point (x, y), and the follower's weight loss, witness angle and covering
# interval (theta_b, span) there.
Evaluation = Tuple[float, float, float, float, float, float, float]


def search_lines(
    inst: Instance,
    lines: np.ndarray,
    positions: List[np.ndarray],
    telemetry: Telemetry,
    origin: str,
) -> List[Tuple[Evaluation, Optional[Evaluation], Optional[Evaluation], Optional[str]]]:
    """Search the breakpoint positions of each upward line row of
    ``lines`` by exact-median selection, all lines in lockstep, until none
    is left.

    Each round takes the lower median of each line's surviving positions
    and sweeps all their points as one block.  A strong centroid certifies
    a global optimum; otherwise the wedge's lean cuts: upward keeps only
    the positions strictly above t, downward only those strictly below,
    and a sideward lean ends the line.  The first median is selected in
    place (``np.partition``) and the half its cut keeps is sorted once;
    the survivors are then an index range of it, and an upward (downward)
    cut moves the range's start past (its end to the start of) the run of
    positions equal to t.  A cut drops the
    median and every position behind it, at least half of the survivors,
    so a line of m positions costs at most ``floor(log2 m) + 1``
    evaluations.  A line without positions is evaluated at its anchor.
    Every evaluation and every cut counts in ``telemetry``; a cut that
    drops less than half raises ``RuntimeError``.  The round in which some
    line certifies is finished, and the first certifying line in input
    order raises ``CertifiedOptimum`` with ``origin``: it certified in the
    fewest rounds, and came first among those that did.

    Returns per line ``(least, up, down, side)``: its first evaluation of
    least weight loss (or, when it ended sideward, that evaluation), its
    last upward and last downward evaluation, and the sideward lean it
    ended with, if any.  Each cut keeps only positions beyond the
    evaluation that made it, so the last upward (downward) evaluation is the
    highest (lowest).  The position arrays are reordered in place.
    """
    count = len(lines)
    if not count:
        return []
    ax, ay, ux, uy, up = lines.T.tolist()
    down = [normalize_angle(a + math.pi) for a in up]
    # Line i's survivors: P[i][lo[i]:hi[i]], P[i] sorted after a cut.
    P = list(positions)
    lo = [0] * count
    hi = [len(p) for p in P]
    budget = [m.bit_length() for m in hi]
    least: List[Optional[Evaluation]] = [None] * count
    ups: List[Optional[Evaluation]] = [None] * count
    downs: List[Optional[Evaluation]] = [None] * count
    sides: List[Optional[str]] = [None] * count
    live = list(range(count))
    first = True
    while live:
        ts, xs, ys = [], [], []
        for i in live:
            t = 0.0
            if hi[i] > lo[i]:
                k = (lo[i] + hi[i] - 1) // 2
                if first:
                    P[i].partition(k)
                t = float(P[i][k])
            ts.append(t)
            xs.append(ax[i] + t * ux[i])
            ys.append(ay[i] + t * uy[i])
        loss, witness, theta_b, span = sweep(inst, np.array(xs), np.array(ys))
        telemetry.medianoid_calls += len(live)
        evaluations = zip(ts, xs, ys, loss.tolist(), witness.tolist(),
                          theta_b.tolist(), span.tolist())
        cert, kept = None, []
        for i, e in zip(live, evaluations):
            if e[6] > math.pi:
                cert = cert or e
                continue
            mass = hi[i] - lo[i]
            if not mass:
                least[i] = e
                continue
            lean = lean_code(e[5] + e[6], math.pi - e[6], up[i], down[i])
            if lean == WHOLE_LINE:
                raise RuntimeError("wedge degenerately contains the query line")
            if least[i] is None or e[3] < least[i][3]:
                least[i] = e
            if lean not in (UPWARD, DOWNWARD):
                least[i] = e
                sides[i] = lean
                continue
            p, t, k = P[i], e[0], (lo[i] + hi[i] - 1) // 2
            if first:
                # The partition put the lean's side past k.  Sorting whole
                # arrays costs a third more on n=400 vertical lines.
                p = P[i] = p[k + 1:] if lean == UPWARD else p[:k]
                p.sort()
                lo[i], hi[i] = 0, len(p)
                k = -1 if lean == UPWARD else len(p)  # t just outside the half
            # Cut past the run equal to t, binary search only if t repeats.
            if lean == UPWARD:
                ups[i] = e
                k += 1
                lo[i] = k if k == hi[i] or p[k] > t else int(p.searchsorted(t, "right"))
            else:
                downs[i] = e
                hi[i] = k if k == lo[i] or p[k - 1] < t else int(p.searchsorted(t, "left"))
            pruned = mass - (hi[i] - lo[i])
            telemetry.prune_iterations += 1
            if pruned * 2 < mass:
                raise RuntimeError(
                    "prune progress fell below the guaranteed fraction "
                    "(%d of %d)" % (pruned, mass)
                )
            budget[i] -= 1
            if budget[i] < 0:
                raise RuntimeError("prune search failed to terminate")
            if hi[i] > lo[i]:
                kept.append(i)
        if cert is not None:
            raise CertifiedOptimum(Point(cert[1], cert[2]), cert[3], origin)
        live = kept
        first = False
    return list(zip(least, ups, downs, sides))


def local_optima_on_lines(
    inst: Instance,
    lines: np.ndarray,
    positions: List[np.ndarray],
    telemetry: Telemetry,
) -> List[Tuple[Point, float]]:
    """The point and weight loss minimising the follower value over each
    upward line row of ``lines``, with its breakpoint array in ``positions``,
    searched in lockstep (``search_lines``); each line counts in
    ``lines_searched``.

    A sideward wedge ends a line at its apex, the line minimum; otherwise
    the first evaluation of least weight loss is.  A line without
    breakpoints is evaluated at its anchor.  A line that certifies a
    global optimum raises ``CertifiedOptimum`` as ``search_lines`` does.
    """
    telemetry.lines_searched += len(lines)
    found = search_lines(inst, lines, positions, telemetry, SEARCHED_LINE)
    return [(Point(e[1], e[2]), e[3]) for e, _, _, _ in found]
