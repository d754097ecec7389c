"""Exhaustive references: the follower oracle and the candidate points.

Everything here trades speed for directness: the follower oracle counts
captured weight by evaluating the strict half-plane predicate itself, and
the enumeration materialises every candidate point, which brute mode
(``centroid.brute_centroid``) ranks with the customer sites.  It builds the
O(n^4) candidates as coordinate arrays, bitwise those of the scalar
per-pair formulas, which the test suite keeps as the reference.  The fast
solvers are validated against these.  Tolerances: ``geom``'s table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    SNAP_TOL,
    TWO_PI,
    Instance,
    Point,
    _libm,
    disc_crossings,
)
from .medianoid import _normalized


def brute_medianoid(inst: Instance, x: Point) -> Tuple[float, float]:
    """Best capturable weight at distance >= R from the leader at ``x``.

    Counts the strictly captured weight directly at the midpoint of every
    cell of the circular arrangement of capture-arc endpoints, so the answer
    does not depend on any sweep bookkeeping.
    """
    r = inst.capture_r
    reachable = []
    events: List[float] = []
    for c in inst.customers:
        dx = c.site.x - x.x
        dy = c.site.y - x.y
        d = math.hypot(dx, dy)
        reachable.append((dx, dy, c.weight))
        if d > r:
            theta = math.atan2(dy, dx)
            phi = math.acos(r / d)
            events.append((theta - phi) % TWO_PI)
            events.append((theta + phi) % TWO_PI)

    def captured(theta: float) -> float:
        ux = math.cos(theta)
        uy = math.sin(theta)
        return math.fsum(w for dx, dy, w in reachable if dx * ux + dy * uy > r)

    if not events:
        return 0.0, 0.0
    events.sort()
    best = -1.0
    witness = 0.0
    k = len(events)
    for i in range(k):
        a = events[i]
        b = events[(i + 1) % k]
        if i + 1 == k:
            b += TWO_PI
        mid = (a + b) / 2.0 % TWO_PI
        w = captured(mid)
        if w > best:
            best = w
            witness = mid
    return best, witness


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated candidate points, as read-only coordinate arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    def __len__(self) -> int:
        return len(self.xs)


def _tangent_lines(inst: Instance) -> Tuple[np.ndarray, ...]:
    """Anchors ``(ax, ay)`` and unit directions ``(ux, uy)`` of each pair's
    right, then left, outer tangent, pairs in ``np.triu_indices`` order, by
    the scalar construction's C-library operations: delta the normalized
    ``atan2`` from site i to site j, the anchor site i + r (cos, sin)(delta
    -/+ pi/2), the direction (cos, sin)(delta).  They snap a component
    below ``SNAP_TOL`` to an axis, as the scalar construction does, which
    never happens on an instance the general-position check accepts: its
    |dx| and |dy| exceed ``eps``."""
    r = inst.r
    i, j = np.triu_indices(inst.n, 1)
    delta = _normalized(_libm(math.atan2, inst.ys[j] - inst.ys[i], inst.xs[j] - inst.xs[i]))
    side = np.stack((delta - math.pi / 2.0, delta + math.pi / 2.0), axis=1).ravel()
    i, delta = np.repeat(i, 2), np.repeat(delta, 2)
    ax = inst.xs[i] + r * _libm(math.cos, side)
    ay = inst.ys[i] + r * _libm(math.sin, side)
    ux, uy = _libm(math.cos, delta), _libm(math.sin, delta)
    for u, v in ((ux, uy), (uy, ux)):
        snap = np.abs(u) < SNAP_TOL
        u[snap], v[snap] = 0.0, np.where(v[snap] > 0.0, 1.0, -1.0)
    return ax, ay, ux, uy


def enumerate_candidates(inst: Instance) -> CandidateSet:
    """Every crossing of two tangent lines (``_tangent_lines``), a tangent
    line and a disc boundary, or two disc boundaries, deduplicated within
    the instance tolerance.

    The first two families are array expressions that round as the scalar
    formulas do: lines cross when ``|sin| > ANGLE_TOL`` between them, and
    a disc's discriminant gives two points above ``cross_tol``, one within
    it; the third is ``geom.disc_crossings``.  In family order, sorted
    stably by (x, y), a point is dropped when a kept point before it lies
    within ``eps`` in x and in y.
    """
    r = inst.r
    ax, ay, ux, uy = _tangent_lines(inst)
    a, b = np.triu_indices(len(ax), 1)
    cross = ux[a] * uy[b] - uy[a] * ux[b]
    ok = np.abs(cross) > ANGLE_TOL
    a, b, cross = a[ok], b[ok], cross[ok]
    t = ((ax[b] - ax[a]) * uy[b] - (ay[b] - ay[a]) * ux[b]) / cross
    xs = [ax[a] + t * ux[a]]
    ys = [ay[a] + t * uy[a]]

    cx = inst.xs - ax[:, None]
    cy = inst.ys - ay[:, None]
    t0 = cx * ux[:, None] + cy * uy[:, None]
    perp = cx * uy[:, None] - cy * ux[:, None]
    disc = r * r - perp * perp
    crossing = disc > inst.cross_tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    used = np.stack((disc >= -inst.cross_tol, crossing), axis=2)
    t = np.stack((np.where(crossing, t0 - s, t0), t0 + s), axis=2)[used]
    a = np.broadcast_to(np.arange(len(ax))[:, None, None], used.shape)[used]
    xs.append(ax[a] + t * ux[a])
    ys.append(ay[a] + t * uy[a])

    cc = disc_crossings(inst)
    xs.append(cc[0])
    ys.append(cc[1])

    X, Y = np.concatenate(xs), np.concatenate(ys)
    order = np.lexsort((Y, X))
    X, Y = X[order], Y[order]
    px, py = X.tolist(), Y.tolist()
    keep = np.ones(len(px), dtype=bool)
    # Beyond its predecessor by more than eps in x, a point is kept.
    for i in (np.flatnonzero(X[1:] - X[:-1] <= inst.eps) + 1).tolist():
        for k in range(i - 1, -1, -1):
            if not keep[k]:
                continue
            if px[i] - px[k] > inst.eps:
                break
            if abs(py[i] - py[k]) <= inst.eps:
                keep[i] = False
                break
    return CandidateSet(X[keep], Y[keep])

