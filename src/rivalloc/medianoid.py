"""Follower best response against a fixed leader location.

The follower's candidate locations reduce to the circle of radius R around
the leader x, parameterized by the angle theta.  A customer v is won by the
follower at angle theta exactly when (v - x) . u(theta) > R/2, a strict
inequality: a customer on the boundary stays with the leader.  That makes
the winning angles of each customer an open arc, and the best response a
maximum over the circular arrangement of all arc endpoints.

Outputs: the weight loss W*(x), an angle attaining it, and the wedge of x.
The wedge is built from the set MA(x) of maximizing angles (a union of open
arcs) and their minimal covering interval CA(x); both are computed, but only
the wedge is returned.  Every point outside the wedge has weight loss at
least W*(x), which is the pruning tool used by the line searches.  When the
covering interval spans more than pi radians no wedge exists and x is a
certified global optimum (a strong centroid).

One sweep serves every caller: ``sweep`` takes a block of leader points as
k x 2n arrays of arc endpoints, one sort and one running sum per row, and
returns four float arrays: the weight loss, a witness angle, and the begin
and span of the covering interval, whose span above pi marks a strong
centroid.  The running sums only preselect the gaps that may attain the
maximum; the loss and the maximizing arcs come from exact sums of their
weights (``math.fsum``, or numpy's sum when all weights are integers).
Array expressions over every row's maximizing gaps give its witness and
covering interval (``_covering``).  ``solve_medianoid`` wraps the one row
of a single point in ``MedianoidResult``, for the public API and a solve's
final report; ``least_loss`` ranks candidate points by their losses alone;
the line searches and the vertical-line decision read the arrays, and
``lean_code`` reads a wedge's direction along a line from them.
Tolerances: the table in ``geom``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    TWO_PI,
    Instance,
    Point,
    normalize_angle,
)

# Capture-arc endpoints swept together: a block holds 2n of them per point.
SWEEP_BLOCK = 1 << 13

UPWARD = "upward"
DOWNWARD = "downward"
SIDEWARD_RIGHT = "sideward-right"
SIDEWARD_LEFT = "sideward-left"
WHOLE_LINE = "whole-line-degenerate"


@dataclass(frozen=True)
class Wedge:
    """Intersection of the two closed half-planes through the apex whose
    inner normals point along the end angles of the covering interval.

    A point p belongs to the wedge iff (p - apex) . u(theta_b) >= 0 and
    (p - apex) . u(theta_e) >= 0.  Every point outside has weight loss at
    least the apex's.  ``ccw_span`` is the angular opening of the wedge,
    pi minus the covering interval span.
    """

    apex: Point
    theta_b: float
    theta_e: float
    ccw_span: float

    @property
    def cone(self) -> Tuple[float, float]:
        """The ray directions in the wedge: the closed CCW interval
        ``(lo, span)``, from lo to lo + span."""
        return normalize_angle(self.theta_e - math.pi / 2.0), self.ccw_span


@dataclass(frozen=True)
class MedianoidResult:
    weight_loss: float
    witness_angle: float
    wedge: Optional[Wedge]

    @property
    def strong_centroid(self) -> bool:
        """Whether x is a certified global optimum: it has no wedge."""
        return self.wedge is None


def block_size(n: int) -> int:
    """Leader points swept together at n customers: ``SWEEP_BLOCK // (2n)``,
    at least one."""
    return max(1, SWEEP_BLOCK // (2 * n))


def _normalized(theta: np.ndarray) -> np.ndarray:
    """``normalize_angle`` elementwise, by the same float operations."""
    theta = np.fmod(theta, TWO_PI)
    neg = theta < 0.0
    if neg.any():
        # fmod lies within 2 pi of zero, so only a shifted angle can round
        # up to 2 pi.
        theta[neg] += TWO_PI
        theta[theta >= TWO_PI] = 0.0
    return theta


def _covering(rows: np.ndarray, a: np.ndarray, b: np.ndarray, mid: np.ndarray, k: int):
    """Per row of ``k``: the witness angle, and the begin and span of the
    covering interval, from the maximizing gaps ``(a, b)``, with midpoints
    ``mid``, of rows ``rows`` (ascending; a row's gaps in angular order).
    The witness is a row's first midpoint.  The covering interval is the
    complement of the first gap between consecutive arcs within
    ``ANGLE_TOL`` of the largest, and begins at the least next-arc begin of
    the gaps within ``ANGLE_TOL`` of that one (a sequential scan's rule
    unless near-equal gaps chain across more than ``ANGLE_TOL``)."""
    m = len(rows)
    bounds = np.searchsorted(rows, np.arange(k + 1))
    first, last = bounds[:-1], bounds[1:] - 1
    nxt = np.arange(1, m + 1)
    nxt[last] = first
    begin = a[nxt]
    between = begin - b
    between[last] += TWO_PI
    np.maximum(between, 0.0, out=between)
    gap, theta_b = between, begin
    if m > k:
        # Some row has several gaps; on one-gap rows these are identities.
        near = between >= np.maximum.reduceat(between, first)[rows] - ANGLE_TOL
        gap = between[np.minimum.reduceat(np.where(near, np.arange(m), m), first)]
        ties = np.abs(between - gap[rows]) <= ANGLE_TOL
        theta_b = np.minimum.reduceat(np.where(ties, begin, math.inf), first)
    return _normalized(mid[first]), theta_b, TWO_PI - gap


def as_result(x: Point, loss: float, witness: float, theta_b: float, span: float) -> MedianoidResult:
    """The result at x of one row of ``sweep``: a covering interval
    spanning more than pi leaves no wedge."""
    if span > math.pi:
        return MedianoidResult(loss, witness, None)
    return MedianoidResult(loss, witness, Wedge(x, theta_b, theta_b + span, math.pi - span))


def _sweep(inst: Instance, xs: np.ndarray, ys: np.ndarray, losses: bool = False):
    """One angle sweep over the k x n block of capture arcs of the leader
    points ``(xs, ys)``: per point the weight loss, witness angle, covering
    interval begin ``theta_b`` and ``span`` (see ``sweep``), or the weight
    loss alone (``losses``).

    Customer v is won at the angles within phi = arccos(r/d) of its
    direction, d its distance from the leader and r the open-capture
    radius ``inst.capture_r``.  A customer within r gets a zero-width arc,
    which sits on a real endpoint of its row, so it splits no gap.  Each
    row sorts its 2n endpoints once; the weight of gap i, from the i-th
    endpoint to the next, is a running sum started at the weight of the
    arcs whose end wraps past 2 pi.  The running sums are rounded, so
    every gap within their rounding bound of the row maximum is re-summed
    exactly at its midpoint, and the maximizing gaps are those whose sum
    is the largest; that sum is the weight loss, and ``_covering`` reads
    the witness and the covering interval from them.
    """
    k = len(xs)
    n = inst.n
    ws = inst.ws
    r = inst.capture_r
    dx = inst.xs - xs[:, None]
    dy = inst.ys - ys[:, None]
    phi = np.arccos(r / np.maximum(np.hypot(dx, dy), r))
    width = 2.0 * phi
    # Row i: the begins of its arcs, then their ends.
    ang = np.empty((k, 2 * n))
    begin = ang[:, :n]
    end = ang[:, n:]
    np.subtract(np.arctan2(dy, dx), phi, out=begin)
    np.mod(begin, TWO_PI, out=begin)
    np.add(begin, width, out=end)
    np.mod(end, TWO_PI, out=end)
    each = np.arange(k)
    zero = phi == 0.0
    dead = None
    if zero.any():
        # A customer within r: its zero-width arc moves onto the begin of
        # its row's widest arc, where its two weights cancel.
        widest = np.argmax(phi, axis=1)
        dead = phi[each, widest] == 0.0
        pin = begin[each, widest][:, None]
        np.copyto(begin, pin, where=zero)
        np.copyto(end, pin, where=zero)
    order = np.argsort(ang, axis=1)
    run = np.cumsum(inst.signed_ws[order], axis=1)
    run += ((end < begin) @ ws)[:, None]
    # Sorted endpoints, closed by the first one plus 2 pi: gap i runs from
    # column i to column i + 1.
    srt = np.empty((k, 2 * n + 1))
    srt[:, :-1] = ang[each[:, None], order]
    srt[:, -1] = srt[:, 0] + TWO_PI
    run[srt[:, 1:] <= srt[:, :-1]] = -math.inf
    # A running sum adds at most 3n + 1 weights of total magnitude at most
    # 3W, W the total weight, so it lies within (5n + 3) u W of its gap's
    # exact weight, u = DBL_EPS / 2; a maximizing gap's sum lies within
    # twice that of the row maximum: ``inst.sweep_slack``.
    rows, cols = np.nonzero(run >= run.max(axis=1, keepdims=True) - inst.sweep_slack)
    ga = srt[rows, cols]
    gb = srt[rows, cols + 1]
    mid = ga + (gb - ga) / 2.0
    off = np.mod(mid[:, None] - begin[rows], TWO_PI)
    won = np.where((off > 0.0) & (off < width[rows]), ws, 0.0)
    if inst.exact_sums:
        # Integer weights: numpy's sum is exact, as fsum is.
        sums = won.sum(axis=1)
    else:
        sums = np.array(list(map(math.fsum, won.tolist())))

    # With one candidate gap per row, each is its row's maximizing gap.
    several = len(sums) > k
    loss = np.maximum.reduceat(sums, np.searchsorted(rows, each)) if several else sums
    if dead is not None:
        loss = np.where(dead, 0.0, loss)
    if losses:
        return loss
    if several:
        top = np.flatnonzero(sums == loss[rows])
        rows, ga, gb, mid = rows[top], ga[top], gb[top], mid[top]
    witness, theta_b, span = _covering(rows, ga, gb, mid, k)
    if dead is not None:
        # Nothing capturable: every angle maximizes, there is no covering
        # interval and no wedge, and the premise of the strong-centroid
        # certificate holds vacuously.
        witness[dead] = 0.0
        span[dead] = TWO_PI
    return loss, witness, theta_b, span


def sweep(inst: Instance, xs: np.ndarray, ys: np.ndarray, losses: bool = False):
    """Per leader point ``(xs[i], ys[i])``: the weight loss W*, a witness
    angle attaining it, and the begin ``theta_b`` and ``span`` of the
    covering interval of the maximizing angles, as four float arrays (a
    span above pi marks a strong centroid), or the weight losses alone
    (``losses``).  Swept ``block_size(n)`` points at a time."""
    size = block_size(inst.n)
    if len(xs) <= size:
        return _sweep(inst, xs, ys, losses)
    parts = [_sweep(inst, xs[s:s + size], ys[s:s + size], losses)
             for s in range(0, len(xs), size)]
    if losses:
        return np.concatenate(parts)
    return tuple(np.concatenate(col) for col in zip(*parts))


def solve_medianoid(inst: Instance, x: Point) -> MedianoidResult:
    """Weight loss, witness angle and wedge at x.

    Runs the angle sweep over the 2n capture-arc endpoints in O(n log n).
    A leader that is not finite raises ``ValueError``.
    """
    if not (math.isfinite(x.x) and math.isfinite(x.y)):
        raise ValueError(f"leader point must be finite, got {x}")
    row = sweep(inst, np.array([x.x], dtype=float), np.array([x.y], dtype=float))
    return as_result(x, *(col.item() for col in row))


def least_loss(inst: Instance, xs: np.ndarray, ys: np.ndarray) -> Tuple[Point, float]:
    """The first of the points ``(xs, ys)`` (at least one) of least key
    (weight loss, x, y), and its weight loss: the point a scan that keeps a
    strictly smaller key keeps.  The sort is stable and ranks -0.0 with
    0.0, as the scan's comparisons do."""
    loss = sweep(inst, xs, ys, losses=True)
    i = np.lexsort((ys, xs, loss))[0]
    return Point(xs[i].item(), ys[i].item()), loss[i].item()


def lean_code(theta_e: float, ccw_span: float, up: float, down: float) -> str:
    """The direction of the wedge with end angle ``theta_e`` and opening
    ``ccw_span`` relative to a line whose upward and downward directions,
    in [0, 2 pi), are ``up`` and ``down``: ``UPWARD``, ``DOWNWARD``,
    ``SIDEWARD_RIGHT``, ``SIDEWARD_LEFT`` or ``WHOLE_LINE``.

    Upward means the wedge meets the line in the ray above the apex,
    downward the ray below; sideward means the apex alone, with the side
    naming where the wedge body lies.  A ray is in the wedge when its
    direction lies in the closed cone from ``theta_e - pi/2`` over
    ``ccw_span``, up to ``ANGLE_TOL``.
    """
    lo = normalize_angle(theta_e - math.pi / 2.0)
    reach = ccw_span + ANGLE_TOL
    upward = (up - lo) % TWO_PI <= reach
    downward = (down - lo) % TWO_PI <= reach
    if upward:
        return WHOLE_LINE if downward else UPWARD
    if downward:
        return DOWNWARD
    # Sideward: the side of the cone's middle direction.
    mid = lo + ccw_span / 2.0
    if math.cos(up) * math.sin(mid) - math.sin(up) * math.cos(mid) > 0.0:
        return SIDEWARD_LEFT
    return SIDEWARD_RIGHT
