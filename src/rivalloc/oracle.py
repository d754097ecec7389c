"""Exhaustive references: the follower oracle and the candidate points.

Everything here trades speed for directness: the follower oracle counts
captured weight by evaluating the strict half-plane predicate itself, and
the enumeration yields every candidate point, duplicates included, which
brute mode (``centroid.brute_centroid``) ranks block by block with the
customer sites.  It builds the O(n^4) candidates as coordinate arrays,
bitwise those of the scalar per-pair formulas, which the test suite keeps
as the reference, but holds only one block at a time: at most
``SWEEP_BLOCK`` tangent-line pairs, or one of the O(n^3) tangent-circle
and O(n^2) circle-circle families.  The fast solvers are validated against
these.  Tolerances: ``geom``'s table.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

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
from .medianoid import SWEEP_BLOCK, _normalized


def brute_medianoid(inst: Instance, x: Point) -> Tuple[float, float]:
    """Best capturable weight at distance >= R from the leader at ``x``.

    Counts the strictly captured weight directly at the midpoint of every
    cell of the circular arrangement of capture-arc endpoints, so the answer
    does not depend on any sweep bookkeeping.  A leader that is not finite
    raises ``ValueError``.
    """
    if not (math.isfinite(x.x) and math.isfinite(x.y)):
        raise ValueError(f"leader point must be finite, got {x}")
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


def enumerate_candidates(inst: Instance) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every crossing of two tangent lines (``_tangent_lines``), a tangent
    line and a disc boundary, or two disc boundaries, as coordinate blocks
    ``(xs, ys)`` in family order, some possibly empty.

    The first two families are array expressions that round as the scalar
    formulas do: lines cross when ``|sin| > ANGLE_TOL`` between them, and
    a disc's discriminant gives two points above ``cross_tol``, one within
    it; the third is ``geom.disc_crossings``.  The tangent-tangent family
    comes ``SWEEP_BLOCK`` line pairs at a time, in ``np.triu_indices``
    order; each other family is one block.
    """
    r = inst.r
    ax, ay, ux, uy = _tangent_lines(inst)
    m = len(ax)
    # Row a of the pair order holds the m - 1 - a pairs (a, b), b > a;
    # ``first[a]`` is the flat index of its first pair.
    row = np.arange(m - 1, -1, -1)
    first = np.cumsum(row) - row
    pairs = m * (m - 1) // 2
    for lo in range(0, pairs, SWEEP_BLOCK):
        k = np.arange(lo, min(lo + SWEEP_BLOCK, pairs))
        a = np.searchsorted(first, k, side="right") - 1
        b = k - first[a] + a + 1
        cross = ux[a] * uy[b] - uy[a] * ux[b]
        ok = np.abs(cross) > ANGLE_TOL
        a, b, cross = a[ok], b[ok], cross[ok]
        t = ((ax[b] - ax[a]) * uy[b] - (ay[b] - ay[a]) * ux[b]) / cross
        yield ax[a] + t * ux[a], ay[a] + t * uy[a]

    cx = inst.xs - ax[:, None]
    cy = inst.ys - ay[:, None]
    t0 = cx * ux[:, None] + cy * uy[:, None]
    perp = cx * uy[:, None] - cy * ux[:, None]
    disc = r * r - perp * perp
    crossing = disc > inst.cross_tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    used = np.stack((disc >= -inst.cross_tol, crossing), axis=2)
    t = np.stack((np.where(crossing, t0 - s, t0), t0 + s), axis=2)[used]
    a = np.broadcast_to(np.arange(m)[:, None, None], used.shape)[used]
    yield ax[a] + t * ux[a], ay[a] + t * uy[a]

    yield disc_crossings(inst)
