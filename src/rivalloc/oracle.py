"""Exhaustive reference solvers.

Everything here trades speed for directness: the follower oracle counts
captured weight by evaluating the strict half-plane predicate itself, and
the plane oracle materialises every candidate point and takes the minimum.
The fast solvers are validated against these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .geom import (
    TWO_PI,
    Circle,
    DirectedLine,
    Instance,
    Point,
    circle_circle_intersections,
    line_circle_intersections,
    line_line_intersection,
    outer_tangents,
)
from .centroid import SolveReport
from .medianoid import solve_medianoid, solve_medianoid_many

TANGENT_TANGENT = "TxT"
TANGENT_CIRCLE = "TxC"
CIRCLE_CIRCLE = "CxC"


def brute_medianoid(inst: Instance, x: Point) -> Tuple[float, float]:
    """Best capturable weight at distance >= R from the leader at ``x``.

    Counts the strictly captured weight directly at the midpoint of every
    cell of the circular arrangement of capture-arc endpoints, so the answer
    does not depend on any sweep bookkeeping.
    """
    if not inst.R > 0.0:
        raise ValueError("unsupported configuration: R must be positive")
    r = inst.r + inst.eps
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
    """Deduplicated candidate points with the family that produced each."""

    points: Tuple[Point, ...]
    provenance: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.points)


def _tangent_lines(inst: Instance) -> List[DirectedLine]:
    r = inst.r
    lines: List[DirectedLine] = []
    for i in range(inst.n):
        ci = Circle(inst.customers[i].site, r)
        for j in range(i + 1, inst.n):
            cj = Circle(inst.customers[j].site, r)
            right, left = outer_tangents(ci, cj, eps=inst.eps)
            lines.append(right)
            lines.append(left)
    return lines


def enumerate_candidates(inst: Instance) -> CandidateSet:
    """Every crossing of two tangent lines, a tangent line and a disc
    boundary, or two disc boundaries, deduplicated within the instance
    tolerance."""
    r = inst.r
    lines = _tangent_lines(inst)
    circles = [Circle(c.site, r) for c in inst.customers]
    raw: List[Tuple[Point, str]] = []
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            p = line_line_intersection(lines[a], lines[b])
            if p is not None:
                raw.append((p, TANGENT_TANGENT))
    for line in lines:
        for c in circles:
            for p in line_circle_intersections(line, c, eps=inst.eps):
                raw.append((p, TANGENT_CIRCLE))
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            for p in circle_circle_intersections(
                circles[a], circles[b], eps=inst.eps
            ):
                raw.append((p, CIRCLE_CIRCLE))
    raw.sort(key=lambda e: (e[0].x, e[0].y))
    tol = inst.eps
    points: List[Point] = []
    provenance: List[str] = []
    for p, tag in raw:
        merged = False
        for k in range(len(points) - 1, -1, -1):
            q = points[k]
            if p.x - q.x > tol:
                break
            if abs(p.y - q.y) <= tol:
                merged = True
                break
        if not merged:
            points.append(p)
            provenance.append(tag)
    return CandidateSet(tuple(points), tuple(provenance))


def brute_centroid(inst: Instance) -> SolveReport:
    """Minimum follower value over every candidate point and customer site,
    ties broken lexicographically by (x, y)."""
    t0 = time.perf_counter()
    cands = enumerate_candidates(inst)
    best_key: Optional[Tuple[float, float, float]] = None
    best_point: Optional[Point] = None
    calls = 0
    points = list(cands.points) + [c.site for c in inst.customers]
    for p, loss in zip(points, solve_medianoid_many(inst, points, losses=True)):
        calls += 1
        key = (loss, p.x, p.y)
        if best_key is None or key < best_key:
            best_key = key
            best_point = p
    final = solve_medianoid(inst, best_point)
    return SolveReport(
        centroid=best_point,
        weight_loss=final.weight_loss,
        witness_angle=final.witness_angle,
        solver="brute",
        telemetry={
            "candidates": len(cands),
            "medianoid_calls": calls + 1,
            "wall_time_s": time.perf_counter() - t0,
        },
    )
