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


@dataclass(frozen=True)
class ArcSet:
    """Disjoint open angular arcs in CCW order plus the weight they attain."""

    arcs: Tuple[Arc, ...]
    attained_weight: float


@dataclass(frozen=True)
class CoveringInterval:
    """Minimal closed interval [begin, end] covering all maximizing angles."""

    begin: float
    end: float
    span: float


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


def _captured(arcs: List[Tuple[float, float, float]], theta: float) -> List[float]:
    """Weights of the arcs that contain the angle ``theta``."""
    return [w for begin, end, w in arcs
            if 0.0 < (theta - begin) % TWO_PI < end - begin]


def _sweep_pure(arcs: List[Tuple[float, float, float]]) -> Tuple[List[Arc], float]:
    """The maximizing gaps of the endpoint arrangement.

    Returns (max_arcs, weight_loss): the gaps (begin, end) whose follower
    weight equals the maximum, in angular order, and the correctly rounded
    sum of the weights captured at the midpoint of the first of them, so
    equal capture sets give bitwise-equal losses.
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
    w0 = sum(_captured(arcs, mid0))
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
    ma = [g for g, w in gaps if w == best]
    a, b = ma[0]
    return ma, math.fsum(_captured(arcs, a + (b - a) / 2.0))


def _sweep_np(inst: Instance, x: Point) -> Optional[Tuple[List[Arc], float]]:
    """``_sweep_pure`` on arrays; ``None`` when no customer is capturable."""
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

    def captured(theta: float) -> np.ndarray:
        off = np.mod(theta - begin, TWO_PI)
        return wm[(off > 0.0) & (off < width)]

    mid0 = uniq[0] + (uniq[1] - uniq[0]) / 2.0 if m > 1 else uniq[0] + math.pi
    w0 = float(captured(mid0).sum())
    weights = np.empty(m)
    weights[0] = w0
    if m > 1:
        weights[1:] = w0 + np.cumsum(gd[1:])
    best = float(weights.max())
    sel = np.flatnonzero(weights == best)
    ends = np.append(uniq[1:], uniq[0] + TWO_PI)
    ma = list(zip(uniq[sel].tolist(), ends[sel].tolist()))
    a, b = ma[0]
    return ma, math.fsum(captured(a + (b - a) / 2.0).tolist())


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
        ma_arcs, best = swept
    else:
        arcs = []
        for c in inst.customers:
            a = capture_arc(c, x, inst.R, eps=inst.eps)
            if a is not None:
                arcs.append((a[0], a[1], c.weight))
        if not arcs:
            return _full_circle_result(x, 0.0)
        ma_arcs, best = _sweep_pure(arcs)

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
