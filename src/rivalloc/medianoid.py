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

One sweep serves every caller: ``solve_medianoid_many`` sweeps a block of
leader points as k x 2n arrays of arc endpoints, one sort and one running
sum per row, and ``solve_medianoid`` is its single-point case.  The running
sums only preselect the gaps that may attain the maximum; the loss and the
maximizing arcs come from their ``math.fsum`` weights, so both are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    Instance,
    Point,
    normalize_angle,
    unit_vector,
)

# Capture-arc endpoints swept together: a block holds 2n of them per point.
SWEEP_BLOCK = 1 << 13

DBL_EPS = float(np.finfo(float).eps)

UPWARD = "upward"
DOWNWARD = "downward"
SIDEWARD_RIGHT = "sideward-right"
SIDEWARD_LEFT = "sideward-left"
WHOLE_LINE = "whole-line-degenerate"

Arc = Tuple[float, float]


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


# No customer is capturable: every angle maximizes, there is no covering
# interval and no wedge, and the premise of the strong-centroid certificate
# holds vacuously.
_NOTHING_CAPTURABLE = MedianoidResult(0.0, 0.0, None)


def _result(x: Point, ma_arcs: List[Arc], best: float) -> MedianoidResult:
    """The result at x whose maximizing gaps, in angular order, are
    ``ma_arcs`` and whose weight loss is ``best``."""
    witness = normalize_angle(ma_arcs[0][0] + (ma_arcs[0][1] - ma_arcs[0][0]) / 2.0)

    # The covering interval is the complement of the largest gap between
    # consecutive maximizing arcs; ties pick the smallest resulting begin.
    k = len(ma_arcs)
    between = [
        max(ma_arcs[(i + 1) % k][0] - ma_arcs[i][1] + (TWO_PI if i == k - 1 else 0.0), 0.0)
        for i in range(k)
    ]
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
    if span > math.pi:
        return MedianoidResult(best, witness, None)
    return MedianoidResult(best, witness, Wedge(x, best_begin, best_begin + span, math.pi - span))


def _sweep(inst: Instance, points: Sequence[Point], losses: bool = False) -> list:
    """One angle sweep over the k x n block of capture arcs of ``points``:
    a ``MedianoidResult`` per point, or its weight loss alone (``losses``).

    Customer v is won at the angles within phi = arccos(r/d) of its
    direction, where d is its distance from the leader and r is R/2 widened
    by the instance tolerance, so that evaluating at a point known only up
    to rounding reproduces the capture set of the exact location.  A
    customer within r gets a zero-width arc, which sits on a real endpoint
    of its row, so it splits no gap.  Each row sorts its 2n endpoints once;
    the weight of gap i, from the i-th endpoint to the next, is a running
    sum started at the weight of the arcs whose end wraps past 2 pi.  The
    running sums are rounded, so every gap within their rounding bound of
    the row maximum is re-summed with ``math.fsum`` at its midpoint, and the
    maximizing gaps are those whose sum is the largest; that sum is the
    weight loss.
    """
    if inst.R <= 0.0:
        raise ValueError("unsupported configuration: R must be positive")
    k = len(points)
    n = inst.n
    ws = inst.ws
    r = inst.r + inst.eps
    pts = np.array([(p.x, p.y) for p in points])
    dx = inst.xs - pts[:, :1]
    dy = inst.ys - pts[:, 1:]
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
    live = [True] * k
    if zero.any():
        # A customer within r: its zero-width arc moves onto the begin of
        # its row's widest arc, where its two weights cancel.
        widest = np.argmax(phi, axis=1)
        live = (phi[each, widest] > 0.0).tolist()
        pin = begin[each, widest][:, None]
        np.copyto(begin, pin, where=zero)
        np.copyto(end, pin, where=zero)
    order = np.argsort(ang, axis=1)
    run = np.cumsum(np.concatenate([ws, -ws])[order], axis=1)
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
    # twice that of the row maximum.
    slack = 8.0 * (n + 1) * DBL_EPS * float(ws.sum())
    rows, cols = np.nonzero(run >= run.max(axis=1, keepdims=True) - slack)
    a = srt[rows, cols]
    b = srt[rows, cols + 1]
    mid = a + (b - a) / 2.0
    off = np.mod(mid[:, None] - begin[rows], TWO_PI)
    sums = list(map(math.fsum, np.where((off > 0.0) & (off < width[rows]), ws, 0.0).tolist()))

    bounds = np.searchsorted(rows, np.arange(k + 1)).tolist()
    if losses:
        return [max(sums[bounds[i]:bounds[i + 1]]) if live[i] else 0.0 for i in range(k)]
    out: List[MedianoidResult] = []
    a, b = a.tolist(), b.tolist()
    for i, x in enumerate(points):
        if not live[i]:
            out.append(_NOTHING_CAPTURABLE)
            continue
        lo, hi = bounds[i], bounds[i + 1]
        best = max(sums[lo:hi])
        out.append(_result(x, [(a[j], b[j]) for j in range(lo, hi) if sums[j] == best], best))
    return out


def solve_medianoid_many(inst: Instance, points: Sequence[Point], losses: bool = False) -> Iterator:
    """``solve_medianoid`` at each of ``points``, in order, or only its
    weight loss (``losses``), swept ``SWEEP_BLOCK // (2n)`` points (at
    least one) at a time."""
    size = max(1, SWEEP_BLOCK // (2 * inst.n))
    for start in range(0, len(points), size):
        yield from _sweep(inst, points[start:start + size], losses)


def solve_medianoid(inst: Instance, x: Point) -> MedianoidResult:
    """Weight loss, witness angle and wedge at x.

    Runs the angle sweep over the 2n capture-arc endpoints in O(n log n).
    """
    return _sweep(inst, (x,))[0]


def classify_wedge_on_line(w: Wedge, up_angle: float) -> str:
    """Wedge direction relative to a line with upward direction ``up_angle``.

    Upward means the wedge meets the line in the ray above the apex,
    downward the ray below; sideward means the apex alone, with the side
    naming where the wedge body lies.
    """
    lo, span = w.cone

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
