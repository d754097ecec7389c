"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  A
breakpoint is its position ``t`` along the line directed upward.  A line's
breakpoints are one flat array: the crossing position of every canonical
tangent line of the angular index that is not parallel to the line, once
each, then the circle crossings and any injected extra lines.  The crossing
points themselves are never built.

``_evaluations`` is the one search over a line's breakpoints, a coroutine.
Each round it selects the lower median of the surviving positions (Hoare's
FIND, as ``np.partition`` runs it), yields that point, is sent the
follower's result there and applies the cut itself: an upward wedge keeps
the positions strictly above, a downward one those strictly below, and a
strong centroid or a sideward wedge ends the search.  Each cut discards at
least half of the survivors, so one line costs time linear in its
breakpoint count.  ``_lockstep`` advances independent searches together,
with one block sweep of their points per round (Megiddo's batching of
independent oracle calls): intermediate mode groups one customer's tangent
lines, parametric mode the slab's boundary lines, and the vertical-line
decision (``vprune``) runs its single line and takes its anchors from the
evaluations.  ``local_optima_on_lines`` takes each line minimum from them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    DegenerateInputError,
    DirectedLine,
    Instance,
    Point,
    _libm,
    normalize_angle,
)
from .medianoid import (
    DOWNWARD,
    UPWARD,
    WHOLE_LINE,
    MedianoidResult,
    classify_wedge_on_line,
    solve_medianoid_many,
)

# Angular separation below which a tangent direction is treated as parallel
# to the query line (its crossing is at infinity and carries no breakpoint).
PARALLEL_EPS = 1e-12

# Two neighbours closer than this in polar angle around a common customer
# are collinear with it, and its tangent lines toward them coincide.
ANGLE_DUP_EPS = 1e-12

ORDINARY = "ordinary"
STRONG = "strong_centroid"

# One evaluation of a line search: (t, point, result, lean).
Evaluation = Tuple[float, Point, MedianoidResult, str]


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
    lt_wires: int = 0
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
            dup = np.flatnonzero(least < ANGLE_DUP_EPS)
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
    if abs(math.sin(theta)) <= PARALLEL_EPS:
        raise ValueError("horizontal query line has no breakpoint order")
    up = theta if math.sin(theta) > 0.0 else normalize_angle(theta - math.pi)
    return DirectedLine(L.anchor, up)


def _explicit_crossings(
    idx: AngularIndex, line: DirectedLine, extra_lines: Sequence[DirectedLine]
) -> np.ndarray:
    """Circle and extra-line crossing positions along the upward ``line``."""
    inst = idx.inst
    r = inst.r
    tol = inst.eps * max(1.0, r)
    ux, uy = line.direction
    ax, ay = line.anchor
    cx = idx.xs - ax
    cy = idx.ys - ay
    t0 = cx * ux + cy * uy
    perp = ux * cy - uy * cx
    disc = r * r - perp * perp
    # Per customer, in customer order: no entry, the tangency t0, or the two
    # crossings t0 - s and t0 + s.
    crossing = disc > tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    pair = np.stack([np.where(crossing, t0 - s, t0), t0 + s], axis=1)
    used = np.stack([crossing | (disc >= -tol), crossing], axis=1)
    ts = pair[used].tolist()
    for extra in extra_lines:
        evx, evy = extra.direction
        cross = ux * evy - uy * evx
        if abs(cross) <= PARALLEL_EPS:
            continue
        dx = extra.anchor.x - ax
        dy = extra.anchor.y - ay
        ts.append((dx * evy - dy * evx) / cross)
    return np.array(ts, dtype=float)


def breakpoint_sequences(
    idx: AngularIndex,
    L: DirectedLine,
    extra_lines: Sequence[DirectedLine] = (),
) -> np.ndarray:
    """All follower-value breakpoints on ``L`` as one unordered array of
    positions along ``upward_line(L)``.

    Every canonical tangent line of ``idx`` that crosses ``L`` contributes
    its crossing once, circle crossings appear once per intersection point
    (a tangency contributes a single entry), and each non-parallel line
    from ``extra_lines`` contributes its crossing as well.  A tangent
    direction ``a`` is parallel to ``L``, and dropped, when the C library's
    ``|sin(a - up)|`` is at most ``PARALLEL_EPS``; the crossing's own
    denominator equals that sine up to rounding, so it preselects the few
    directions the C library decides.
    """
    line = upward_line(L)
    ux, uy = line.direction
    ax, ay = line.anchor
    nx, ny = idx.tan_nx, idx.tan_ny
    # Each step rounds as (off - (ax*nx + ay*ny)) / (ux*nx + uy*ny) does,
    # in place, so that few n^2-sized arrays are alive at once.
    den = ux * nx
    den += uy * ny
    # NaN on the diagonal (a customer has no tangent with itself), which
    # neither comparison keeps.
    keep = np.abs(den) > 2.0 * PARALLEL_EPS
    near = np.flatnonzero(np.abs(den) <= 2.0 * PARALLEL_EPS)
    if len(near):
        sin_d = _libm(math.sin, idx.ang.ravel()[near] - line.angle)
        keep[near] = np.abs(sin_d) > PARALLEL_EPS
    den = den[keep]
    T = ax * nx[keep]
    T += ay * ny[keep]
    np.subtract(idx.tan_off[keep], T, out=T)
    T /= den
    return np.concatenate([T, _explicit_crossings(idx, line, extra_lines)])


def lean(result: MedianoidResult, up_angle: float) -> str:
    """Where an evaluation sends the search along the line with upward
    direction ``up_angle``: ``STRONG`` for a certified global optimum,
    otherwise the wedge's direction (upward, downward or a sideward side)."""
    if result.strong_centroid:
        return STRONG
    cls = classify_wedge_on_line(result.wedge, up_angle)
    if cls == WHOLE_LINE:
        raise RuntimeError("wedge degenerately contains the query line")
    return cls


def _evaluations(
    line: DirectedLine, P: np.ndarray, telemetry: Telemetry
) -> Generator[Tuple[float, Point], MedianoidResult, List[Evaluation]]:
    """Search the breakpoint positions ``P`` along the upward ``line`` by
    exact-median selection until no breakpoint is left.

    A coroutine: each round yields ``(t, point)`` for the lower median of
    the surviving positions and is sent the follower's result there, then
    cuts: an upward lean keeps only positions strictly above ``t``, a
    downward one only those strictly below, and a strong or sideward lean
    ends the search.  A cut drops the median and every position behind it,
    at least half of the survivors, so a search of m positions evaluates at
    most ``floor(log2 m) + 1`` of them.  It returns its evaluations
    ``(t, point, result, lean)`` in order, and reorders ``P`` in place.
    """
    up_angle = line.angle
    budget = len(P).bit_length()
    done: List[Evaluation] = []
    while len(P):
        mass = len(P)
        k = (mass - 1) // 2
        P.partition(k)
        t = float(P[k])
        point = line.point_at(t)
        res = yield t, point
        telemetry.medianoid_calls += 1
        d = lean(res, up_angle)
        done.append((t, point, res, d))
        # After the partition nothing before k exceeds t, nothing after
        # k falls below it.
        if d == UPWARD:
            P = P[k + 1:][P[k + 1:] > t]
        elif d == DOWNWARD:
            P = P[:k][P[:k] < t]
        else:
            return done
        pruned = mass - len(P)
        telemetry.prune_iterations += 1
        frac = pruned / mass
        least = telemetry.prune_min_fraction
        if least is None or frac < least:
            telemetry.prune_min_fraction = frac
        if pruned * 2 < mass:
            raise RuntimeError(
                "prune progress fell below the guaranteed fraction "
                "(%d of %d)" % (pruned, mass)
            )
        budget -= 1
        if budget < 0:
            raise RuntimeError("prune search failed to terminate")
    return done


def _lockstep(
    inst: Instance,
    searches: Sequence[Generator],
    settles: Callable[[object], bool] = lambda value: False,
) -> List[object]:
    """Run the coroutines ``searches`` side by side, each round sweeping the
    points they all yield as one block, and return what each returned, in
    input order.  The run ends after the first round in which a search
    returns a value that ``settles``; the searches still open then read
    ``None``."""
    out: List[object] = [None] * len(searches)
    live = []
    for i, search in enumerate(searches):
        try:
            live.append((i, search, search.send(None)))
        except StopIteration as stop:
            out[i] = stop.value
    while live:
        results = solve_medianoid_many(inst, [point for _, _, (_, point) in live])
        pending, settled = [], False
        for (i, search, _), res in zip(live, results):
            try:
                pending.append((i, search, search.send(res)))
            except StopIteration as stop:
                out[i] = stop.value
                settled = settled or settles(stop.value)
        if settled:
            break
        live = pending
    return out


@dataclass(frozen=True)
class LineLocalOptimum:
    """Minimum follower value over one query line.

    ``status`` is ``"ordinary"`` for a plain line minimum and
    ``"strong_centroid"`` when the point is a certified global optimum.
    """

    point: Point
    weight_loss: float
    status: str


def _line_minimum(
    idx: AngularIndex, L: DirectedLine, telemetry: Telemetry
) -> Generator[Tuple[float, Point], MedianoidResult, LineLocalOptimum]:
    """Minimise the follower value over the non-horizontal line ``L``, as a
    coroutine of ``_lockstep``.

    Breakpoints chosen by exact-median selection are evaluated; the search
    stops early when an evaluation certifies a global optimum or a sideward
    wedge (whose apex is then the line minimum), and otherwise keeps the
    side of the line that the wedge points along.  The first evaluation of
    the least weight loss is the line minimum; a line without breakpoints
    is evaluated at its anchor.
    """
    line = upward_line(L)
    telemetry.lines_searched += 1
    done = yield from _evaluations(line, breakpoint_sequences(idx, L), telemetry)
    if not done:
        point = line.point_at(0.0)
        res = yield 0.0, point
        telemetry.medianoid_calls += 1
        done = [(0.0, point, res, STRONG if res.strong_centroid else ORDINARY)]
    _t, point, res, d = done[-1]
    if d not in (UPWARD, DOWNWARD):
        return LineLocalOptimum(point, res.weight_loss, STRONG if d == STRONG else ORDINARY)
    _t, point, res, _d = min(done, key=lambda e: e[2].weight_loss)
    return LineLocalOptimum(point, res.weight_loss, ORDINARY)


def local_optima_on_lines(
    inst: Instance,
    idx: AngularIndex,
    lines: Sequence[DirectedLine],
    telemetry: Telemetry,
) -> List[Optional[LineLocalOptimum]]:
    """``local_optimum_on_line`` for each of ``lines``, searched in lockstep.

    The searches stop after the first round in which one of them certifies
    a global optimum, and the lines still open then read ``None``: the
    first certified line in input order certified in the fewest rounds,
    and came first among those that did.
    """
    return _lockstep(
        inst,
        [_line_minimum(idx, L, telemetry) for L in lines],
        lambda opt: opt.status == STRONG,
    )


def local_optimum_on_line(
    inst: Instance,
    idx: AngularIndex,
    L: DirectedLine,
    telemetry: Telemetry,
) -> LineLocalOptimum:
    """Minimise the follower value over the non-horizontal line ``L``."""
    return local_optima_on_lines(inst, idx, [L], telemetry)[0]
