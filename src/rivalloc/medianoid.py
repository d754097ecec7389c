"""Follower best response against a fixed leader location.

The follower's candidate locations reduce to the circle of radius R around
the leader x, parameterized by the angle theta.  A customer v is won by the
follower at angle theta exactly when (v - x) . u(theta) > R/2, a strict
inequality: a customer on the boundary stays with the leader.  That makes
the winning angles of each customer an open arc, and the best response a
maximum over the circular arrangement of all arc endpoints.

Outputs: the weight loss W*(x), the set MA(x) of maximizing angles (a union
of open arcs), the minimal covering interval CA(x), and the wedge of x.
Every point outside the wedge has weight loss at least W*(x), which is the
pruning tool used by the line searches.  When the covering interval spans
more than pi radians no wedge exists and x is a certified global optimum
(a strong centroid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    Customer,
    Instance,
    Point,
    normalize_angle,
    unit_vector,
)

# Instances at least this large use the vectorized sweep.
NUMPY_SWEEP_MIN_N = 64

UPWARD = "upward"
DOWNWARD = "downward"
SIDEWARD_RIGHT = "sideward-right"
SIDEWARD_LEFT = "sideward-left"
WHOLE_LINE = "whole-line-degenerate"

Arc = Tuple[float, float]


def arc_contains(arc: Arc, theta: float) -> bool:
    """Strict containment of an angle in an open arc (begin, end).

    Arcs are stored with begin in [0, 2*pi) and end = begin + width, so the
    end may exceed 2*pi for arcs crossing zero.
    """
    begin, end = arc
    t = normalize_angle(theta)
    if begin < t < end:
        return True
    t += TWO_PI
    return begin < t < end


@dataclass(frozen=True)
class ArcSet:
    """Disjoint open angular arcs in CCW order plus the weight they attain."""

    arcs: Tuple[Arc, ...]
    attained_weight: float

    def contains(self, theta: float) -> bool:
        return any(arc_contains(a, theta) for a in self.arcs)


@dataclass(frozen=True)
class CoveringInterval:
    """Minimal closed interval [begin, end] covering all maximizing angles."""

    begin: float
    end: float
    span: float

    def contains(self, theta: float, tol: float = 1e-12) -> bool:
        t = normalize_angle(theta)
        if self.begin - tol <= t <= self.end + tol:
            return True
        t += TWO_PI
        return self.begin - tol <= t <= self.end + tol


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
    def boundary_directions(self) -> Tuple[float, float]:
        """CCW interval [lo, hi] of ray directions contained in the wedge."""
        lo = normalize_angle(self.theta_e - math.pi / 2.0)
        return lo, lo + self.ccw_span

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        dx = p.x - self.apex.x
        dy = p.y - self.apex.y
        ub = unit_vector(self.theta_b)
        ue = unit_vector(self.theta_e)
        return (dx * ub[0] + dy * ub[1] >= -tol) and (dx * ue[0] + dy * ue[1] >= -tol)


@dataclass(frozen=True)
class MedianoidResult:
    weight_loss: float
    witness_angle: float
    ma: ArcSet
    ca: Optional[CoveringInterval]
    wedge: Optional[Wedge]
    strong_centroid: bool


def capture_arc(v: Customer, x: Point, R: float, eps: float = 0.0) -> Optional[Arc]:
    """Open arc of follower angles that win customer v, or None.

    The arc is (theta_v - phi, theta_v + phi) with phi = arccos(R/(2 d)),
    where d is the leader-customer distance; it vanishes when d <= R/2,
    boundary ties included (they go to the leader).  A positive eps widens
    the tie band: the customer counts as won only when its projection
    clears R/2 by more than eps.  Solvers pass the instance tolerance here
    so that evaluating at a point known only up to rounding error still
    reproduces the capture set of the exact location.
    """
    if R <= 0.0:
        raise ValueError("unsupported configuration: R must be positive")
    r = R / 2.0 + eps
    dx = v.site.x - x.x
    dy = v.site.y - x.y
    d = math.hypot(dx, dy)
    if d <= r:
        return None
    theta_v = math.atan2(dy, dx)
    phi = math.acos(r / d)
    begin = normalize_angle(theta_v - phi)
    return (begin, begin + 2.0 * phi)


def weight_at_angle(inst: Instance, x: Point, theta: float) -> float:
    """Total weight won by the follower at angle theta."""
    total = 0.0
    for c in inst.customers:
        arc = capture_arc(c, x, inst.R, eps=inst.eps)
        if arc is not None and arc_contains(arc, theta):
            total += c.weight
    return total


def _full_circle_result(x: Point, weight: float) -> MedianoidResult:
    # No customer is capturable (or every angle ties): every angle maximizes,
    # there is no covering interval and no wedge, and the premise of the
    # strong-centroid certificate holds vacuously.
    ma = ArcSet(arcs=((0.0, TWO_PI),), attained_weight=weight)
    return MedianoidResult(
        weight_loss=weight,
        witness_angle=0.0,
        ma=ma,
        ca=None,
        wedge=None,
        strong_centroid=True,
    )


def _sweep_pure(arcs: List[Tuple[float, float, float]]) -> Tuple[List[Tuple[Arc, float]], float]:
    """All gaps of the endpoint arrangement with their follower weights.

    Returns (gaps, weight_loss) where each gap is ((begin, end), weight)
    and consecutive gaps share endpoint angles.
    """
    deltas: dict = {}
    for begin, end, w in arcs:
        e = normalize_angle(end)
        deltas[begin] = deltas.get(begin, 0.0) + w
        deltas[e] = deltas.get(e, 0.0) - w
    angles = sorted(deltas)
    m = len(angles)
    # Weight on the first gap, evaluated directly at its midpoint.
    mid0 = angles[0] + (angles[1] - angles[0]) / 2.0 if m > 1 else angles[0] + math.pi
    w0 = 0.0
    for begin, end, w in arcs:
        off = (mid0 - begin) % TWO_PI
        if 0.0 < off < end - begin:
            w0 += w
    gaps: List[Tuple[Arc, float]] = []
    cur = w0
    best = w0
    for i in range(m):
        if i > 0:
            cur += deltas[angles[i]]
            if cur > best:
                best = cur
        end = angles[i + 1] if i + 1 < m else angles[0] + TWO_PI
        gaps.append(((angles[i], end), cur))
    return gaps, best


def _sweep_np(inst: Instance, x: Point) -> Optional[Tuple[List[Tuple[Arc, float]], float]]:
    r = inst.R / 2.0 + inst.eps
    ws = inst.ws
    dx = inst.xs - x.x
    dy = inst.ys - x.y
    d = np.hypot(dx, dy)
    mask = d > r
    if not mask.any():
        return None
    dxm = dx[mask]
    dym = dy[mask]
    dm = d[mask]
    wm = ws[mask]
    theta_v = np.arctan2(dym, dxm)
    phi = np.arccos(r / dm)
    width = 2.0 * phi
    begin = np.mod(theta_v - phi, TWO_PI)
    endn = np.mod(begin + width, TWO_PI)
    angles = np.concatenate([begin, endn])
    deltas = np.concatenate([wm, -wm])
    order = np.argsort(angles, kind="stable")
    a_s = angles[order]
    d_s = deltas[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(a_s) != 0.0]))
    uniq = a_s[starts]
    gd = np.add.reduceat(d_s, starts)
    m = len(uniq)
    mid0 = uniq[0] + (uniq[1] - uniq[0]) / 2.0 if m > 1 else uniq[0] + math.pi
    off = np.mod(mid0 - begin, TWO_PI)
    w0 = float(wm[(off > 0.0) & (off < width)].sum())
    weights = np.empty(m)
    weights[0] = w0
    if m > 1:
        weights[1:] = w0 + np.cumsum(gd[1:])
    best = float(weights.max())
    gaps: List[Tuple[Arc, float]] = []
    for i in range(m):
        end = uniq[i + 1] if i + 1 < m else uniq[0] + TWO_PI
        gaps.append(((float(uniq[i]), float(end)), float(weights[i])))
    return gaps, best


def solve_medianoid(inst: Instance, x: Point) -> MedianoidResult:
    """Weight loss, maximizing arcs, covering interval and wedge at x.

    Runs the angle sweep over the 2n capture-arc endpoints in O(n log n).
    """
    if inst.R <= 0.0:
        raise ValueError("unsupported configuration: R must be positive")
    if inst.n >= NUMPY_SWEEP_MIN_N:
        swept = _sweep_np(inst, x)
        if swept is None:
            return _full_circle_result(x, 0.0)
        gaps, best = swept
    else:
        arcs = []
        for c in inst.customers:
            a = capture_arc(c, x, inst.R, eps=inst.eps)
            if a is not None:
                arcs.append((a[0], a[1], c.weight))
        if not arcs:
            return _full_circle_result(x, 0.0)
        gaps, best = _sweep_pure(arcs)

    ma_arcs: List[Arc] = [g for g, w in gaps if w == best]
    witness = normalize_angle(ma_arcs[0][0] + (ma_arcs[0][1] - ma_arcs[0][0]) / 2.0)
    ma = ArcSet(arcs=tuple(ma_arcs), attained_weight=best)

    # The covering interval is the complement of the largest gap between
    # consecutive maximizing arcs; ties pick the smallest resulting begin.
    k = len(ma_arcs)
    if k == 1:
        between = [TWO_PI - (ma_arcs[0][1] - ma_arcs[0][0])]
    else:
        between = []
        for i in range(k):
            nxt = (i + 1) % k
            g = ma_arcs[nxt][0] - ma_arcs[i][1]
            if nxt == 0:
                g += TWO_PI
            between.append(max(g, 0.0))
    best_gap = -1.0
    best_begin = TWO_PI
    for i in range(k):
        nb = ma_arcs[(i + 1) % k][0]
        if between[i] > best_gap + 1e-12:
            best_gap = between[i]
            best_begin = nb
        elif abs(between[i] - best_gap) <= 1e-12 and nb < best_begin:
            best_begin = nb
    span = TWO_PI - best_gap
    theta_b = best_begin
    ca = CoveringInterval(begin=theta_b, end=theta_b + span, span=span)

    strong = span > math.pi
    wedge = None
    if not strong:
        theta_e = theta_b + span
        wedge = Wedge(
            apex=x,
            theta_b=theta_b,
            theta_e=theta_e,
            ccw_span=math.pi - span,
        )
    return MedianoidResult(
        weight_loss=best,
        witness_angle=witness,
        ma=ma,
        ca=ca,
        wedge=wedge,
        strong_centroid=strong,
    )


def _classify_from_ca(ca: CoveringInterval) -> str:
    """Direction of the wedge relative to the vertical line through its apex.

    The covering interval position decides it: wrapping angle 0 means the
    wedge opens rightward, containing pi means leftward, otherwise the
    interval sits in the upper or lower half circle and the wedge opens
    upward or downward.
    """
    if ca.contains(0.0):
        return SIDEWARD_RIGHT
    if ca.contains(math.pi):
        return SIDEWARD_LEFT
    mid = normalize_angle(ca.begin + ca.span / 2.0)
    return UPWARD if 0.0 < mid < math.pi else DOWNWARD


def classify_wedge_on_vertical(w: Wedge, line_x: float, tol: float = 1e-9) -> str:
    """Wedge direction on the vertical line through the apex."""
    if abs(w.apex.x - line_x) > tol * max(1.0, abs(w.apex.x)):
        raise ValueError("wedge apex does not lie on the line")
    ca = CoveringInterval(begin=w.theta_b, end=w.theta_e, span=w.theta_e - w.theta_b)
    return _classify_from_ca(ca)


def classify_wedge_on_line(w: Wedge, up_angle: float) -> str:
    """Wedge direction relative to a line with upward direction ``up_angle``.

    Upward means the wedge meets the line in the ray above the apex,
    downward the ray below; sideward means the apex alone, with the side
    naming where the wedge body lies.
    """
    lo = normalize_angle(w.theta_e - math.pi / 2.0)
    span = w.ccw_span

    def in_cone(d: float) -> bool:
        off = (normalize_angle(d) - lo) % TWO_PI
        return off <= span + 1e-12

    up_in = in_cone(up_angle)
    down_in = in_cone(up_angle + math.pi)
    if up_in and down_in:
        return WHOLE_LINE
    if up_in:
        return UPWARD
    if down_in:
        return DOWNWARD
    mid = lo + span / 2.0
    ux, uy = unit_vector(up_angle)
    mx, my = unit_vector(mid)
    cross = ux * my - uy * mx
    return SIDEWARD_LEFT if cross > 0.0 else SIDEWARD_RIGHT
