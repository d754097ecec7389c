"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  A
breakpoint is its position ``t`` along the line directed upward.  A line's
breakpoints are one flat array: the crossing position of every canonical
tangent line of the angular index that is not parallel to the line, once
each, then the circle crossings.  The crossing points themselves are never
built.

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
last upward and last downward one and a sideward end; a ``Point`` or a
``MedianoidResult`` is built only from those.  Parametric mode searches the
slab's boundary lines, the vertical-line decision (``vprune``) its single
line, for its anchors, and intermediate mode every tangent line, many at a
time.  The lines of one block get their breakpoint arrays from one
broadcast pass.  Tolerances: the table in ``geom``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    TWO_PI,
    DegenerateInputError,
    DirectedLine,
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
    """Counters shared by all stages of one solve.

    The fields are slots, so updating a counter that is not declared here
    raises ``AttributeError``.
    """

    medianoid_calls: int = 0
    decide_calls: int = 0
    lines_searched: int = 0
    prune_iterations: int = 0
    prune_min_fraction: Optional[float] = None  # least share a cut discarded
    lt_rounds: int = 0  # crossing batches LT exhausted
    lt_oracle: int = 0
    lm_mass0: int = 0  # tangent-circle crossings left inside LT's slab
    lm_rounds: int = 0  # LM's decisions, at most floor(log2 lm_mass0) + 1
    lc_points: int = 0
    lc_steps: int = 0
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
    """Polar angles between customers plus canonical tangent storage.

    For every ordered pair ``(i, j)`` the tangent line lying at distance
    ``r`` to the right of the direction from ``i`` to ``j`` is stored once as
    ``(nx, ny, off)`` with unit normal ``n = (sin a, -cos a)`` and offset
    ``off = site_i . n + r``.  The left tangent of ``(i, j)`` is the same
    line as the stored right tangent of ``(j, i)``, so every evaluation of a
    tangent crossing goes through exactly one canonical parameter triple and
    repeated evaluations agree bitwise.
    """

    def __init__(self, inst: Instance) -> None:
        n = inst.n
        self.inst = inst
        self.n = n
        xs = self.xs = inst.xs
        ys = self.ys = inst.ys

        dx = xs[None, :] - xs[:, None]
        dy = ys[None, :] - ys[:, None]
        ang = np.arctan2(dy, dx) % TWO_PI
        del dx, dy
        ang[ang >= TWO_PI] = 0.0
        np.fill_diagonal(ang, np.nan)
        self.ang = ang

        if n > 2:  # a lone neighbour shares no angle
            # The NaN diagonal sorts last, so each row's first n - 1 sorted
            # columns are its neighbours' angles in order.
            least = np.diff(np.sort(ang, axis=1)[:, : n - 1], axis=1).min(axis=1)
            dup = np.flatnonzero(least < ANGLE_TOL)
            if len(dup):
                i = int(dup[0])
                srt = np.argsort(ang[i], kind="stable")[: n - 1]
                k = int(np.argmin(np.diff(ang[i, srt])))
                raise DegenerateInputError(
                    "customers %d and %d share the polar angle around "
                    "customer %d" % (int(srt[k]), int(srt[k + 1]), i)
                )

        nx = np.sin(ang)
        ny = -np.cos(ang)
        off = xs[:, None] * nx + ys[:, None] * ny + inst.r
        self.tan_nx = nx.ravel()
        self.tan_ny = ny.ravel()
        self.tan_off = off.ravel()

    def tangent_line(self, i: int, j: int) -> DirectedLine:
        """The stored right tangent of the ordered pair as a directed line."""
        a = float(self.ang[i, j])
        anchor = Point(
            float(self.xs[i]) + self.inst.r * math.sin(a),
            float(self.ys[i]) - self.inst.r * math.cos(a),
        )
        return DirectedLine(anchor, a)


def build_angular_index(inst: Instance) -> AngularIndex:
    return AngularIndex(inst)


def upward_line(L: DirectedLine) -> DirectedLine:
    """The non-horizontal line ``L`` directed upward; breakpoint positions
    ``t`` are measured along it from ``L``'s anchor."""
    theta = normalize_angle(L.angle)
    if abs(math.sin(theta)) <= ANGLE_TOL:
        raise ValueError("horizontal query line has no breakpoint order")
    up = theta if math.sin(theta) > 0.0 else normalize_angle(theta - math.pi)
    return DirectedLine(L.anchor, up)


def _position_pass(idx: AngularIndex, lines: Sequence[DirectedLine]) -> List[np.ndarray]:
    """``_positions`` for lines that fit one block, as one broadcast pass:
    row i of a lines x (n^2 + 2n) table holds line i's tangent crossings,
    then its circle crossings, and a mask keeps the real ones."""
    inst = idx.inst
    k, n = len(lines), idx.n
    m = n * n
    ax, ay, ux, uy = (np.array(v, dtype=float)[:, None] for v in zip(
        *((L.anchor.x, L.anchor.y) + L.direction for L in lines)))
    nx, ny = idx.tan_nx, idx.tan_ny
    vals = np.empty((k, m + 2 * n))
    used = np.empty((k, m + 2 * n), dtype=bool)

    # Tangent crossings.  Each step rounds as (off - (ax*nx + ay*ny)) /
    # (ux*nx + uy*ny) does.  NaN on the diagonal (a customer has no tangent
    # with itself), which neither comparison keeps.
    den = ux * nx
    den += uy * ny
    T = vals[:, :m]
    np.abs(den, out=T)
    np.greater(T, 2.0 * ANGLE_TOL, out=used[:, :m])
    rows, cols = np.divmod(np.flatnonzero(T <= 2.0 * ANGLE_TOL), m)
    if len(rows):
        angle = np.array([L.angle for L in lines])
        sin_d = _libm(math.sin, idx.ang.ravel()[cols] - angle[rows])
        used[rows, cols] = np.abs(sin_d) > ANGLE_TOL
    np.multiply(ax, nx, out=T)
    T += ay * ny
    np.subtract(idx.tan_off, T, out=T)
    with np.errstate(divide="ignore", invalid="ignore"):
        T /= den

    # Circle crossings, per customer: no entry, the tangency t0, or the two
    # crossings t0 - s and t0 + s.
    r = inst.r
    tol = inst.cross_tol
    cx = idx.xs - ax
    cy = idx.ys - ay
    t0 = cx * ux + cy * uy
    perp = ux * cy - uy * cx
    disc = r * r - perp * perp
    crossing = disc > tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    vals[:, m::2] = np.where(crossing, t0 - s, t0)
    vals[:, m + 1::2] = t0 + s
    used[:, m::2] = crossing | (disc >= -tol)
    used[:, m + 1::2] = crossing
    flat = vals[used]
    ends = np.cumsum(np.count_nonzero(used, axis=1)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _positions(idx: AngularIndex, lines: Sequence[DirectedLine]) -> List[np.ndarray]:
    """The breakpoint array of each upward line of ``lines`` (see
    ``breakpoint_sequences``), built ``SWEEP_BLOCK // n^2`` lines (at least
    one) at a time, so that the lines x n^2 temporaries stay one block."""
    size = max(1, medianoid.SWEEP_BLOCK // (idx.n * idx.n))
    out: List[np.ndarray] = []
    for start in range(0, len(lines), size):
        out += _position_pass(idx, lines[start:start + size])
    return out


def breakpoint_sequences(idx: AngularIndex, L: DirectedLine) -> np.ndarray:
    """All follower-value breakpoints on ``L`` as one unordered array of
    positions along ``upward_line(L)``.

    Every canonical tangent line of ``idx`` that crosses ``L`` contributes
    its crossing once, in canonical order, and then circle crossings appear
    once per intersection point, in customer order (a tangency contributes
    a single entry).  A tangent direction ``a`` is parallel to ``L``, and
    dropped, when the C library's ``|sin(a - up)|`` is at most
    ``ANGLE_TOL``; the crossing's own denominator equals that sine up
    to rounding, so it preselects the few directions the C library decides.
    """
    return _positions(idx, [upward_line(L)])[0]


# One evaluation of a line search: its position t along the line, the
# point (x, y), and the follower's weight loss, witness angle and covering
# interval (theta_b, span) there.
Evaluation = Tuple[float, float, float, float, float, float, float]


def search_lines(
    inst: Instance,
    lines: Sequence[DirectedLine],
    positions: List[np.ndarray],
    telemetry: Telemetry,
    origin: str,
) -> List[Tuple[Evaluation, Optional[Evaluation], Optional[Evaluation], Optional[str]]]:
    """Search the breakpoint positions of each upward line of ``lines`` by
    exact-median selection, all lines in lockstep, until none is left.

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
    Every evaluation counts in ``telemetry``, and every cut with the share
    it discarded.  The round in which some line certifies is finished, and
    the first certifying line in input order raises ``CertifiedOptimum``
    with ``origin``: it certified in the fewest rounds, and came first
    among those that did.

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
    ax = [L.anchor.x for L in lines]
    ay = [L.anchor.y for L in lines]
    ux, uy = (list(u) for u in zip(*(L.direction for L in lines)))
    up = [normalize_angle(L.angle) for L in lines]
    down = [normalize_angle(L.angle + math.pi) for L in lines]
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
            frac = pruned / mass
            if telemetry.prune_min_fraction is None or frac < telemetry.prune_min_fraction:
                telemetry.prune_min_fraction = frac
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
    idx: AngularIndex,
    lines: Sequence[DirectedLine],
    telemetry: Telemetry,
) -> List[Tuple[Point, float]]:
    """The point and weight loss minimising the follower value over each
    non-horizontal line of ``lines``, searched in lockstep
    (``search_lines``); each line counts in ``lines_searched``.

    A sideward wedge ends a line at its apex, the line minimum; otherwise
    the first evaluation of least weight loss is.  A line without
    breakpoints is evaluated at its anchor.  A line that certifies a
    global optimum raises ``CertifiedOptimum`` as ``search_lines`` does.
    """
    telemetry.lines_searched += len(lines)
    up = [upward_line(L) for L in lines]
    found = search_lines(inst, up, _positions(idx, up), telemetry, SEARCHED_LINE)
    return [(Point(e[1], e[2]), e[3]) for e, _, _, _ in found]
