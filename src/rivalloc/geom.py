"""Planar primitives: points, weighted customers, directed lines, circles.

All arithmetic is double precision.  Incidence predicates use an absolute
tolerance EPS that callers may scale by the coordinate magnitude of their
data (see ``Instance.eps``).  The environment variable ``RIVALLOC_EPS``
overrides the base tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

EPS_BASE = float(os.environ.get("RIVALLOC_EPS", "1e-9"))

# Angular tolerance for "parallel" / "degenerate direction" decisions.
ANGLE_EPS = 1e-12


class DegenerateInputError(ValueError):
    """Raised when an input violates the position assumptions of a solver."""


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:
        theta = 0.0
    return theta


def unit_vector(theta: float) -> Tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` from the math module applied elementwise to 1-D arrays.

    numpy's vectorised transcendental functions may differ from the C
    library in the last bit; window bounds and branch directions are
    computed with the scalar functions so that they never depend on which
    implementation ran.
    """
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True, slots=True)
class Customer:
    site: Point
    weight: float

    def __post_init__(self) -> None:
        if not self.weight > 0.0:
            raise ValueError(f"customer weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class Instance:
    """The problem universe: weighted customer sites and the separation R.

    ``r`` is the derived half separation; the follower must keep distance
    at least R from the leader, and a customer is captured exactly when its
    projection on the follower direction exceeds r.

    The tolerance ``eps`` and the read-only coordinate and weight arrays
    ``xs``, ``ys`` and ``ws`` are computed once, at construction.  They are
    not dataclass fields, so equality and hashing use only the customers
    and R.
    """

    customers: Tuple[Customer, ...]
    R: float

    def __init__(self, customers: Sequence[Customer], R: float) -> None:
        if len(customers) < 1:
            raise ValueError("instance needs at least one customer")
        if R < 0.0:
            raise ValueError("separation distance R must be nonnegative")
        object.__setattr__(self, "customers", tuple(customers))
        object.__setattr__(self, "R", float(R))
        scale = max(
            [1.0, self.R]
            + [max(abs(c.site.x), abs(c.site.y)) for c in self.customers]
        )
        object.__setattr__(self, "_eps", EPS_BASE * scale)
        for name, values in (
            ("xs", [c.site.x for c in self.customers]),
            ("ys", [c.site.y for c in self.customers]),
            ("ws", [c.weight for c in self.customers]),
        ):
            arr = np.array(values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.customers)

    @property
    def r(self) -> float:
        return self.R / 2.0

    @property
    def eps(self) -> float:
        """Absolute tolerance scaled to this instance's coordinate magnitude."""
        return self._eps

    def total_weight(self) -> float:
        return sum(c.weight for c in self.customers)


@dataclass(frozen=True, slots=True)
class DirectedLine:
    """Line through ``anchor`` with direction ``angle`` (normalized)."""

    anchor: Point
    angle: float

    @staticmethod
    def vertical(x: float) -> "DirectedLine":
        return DirectedLine(Point(x, 0.0), math.pi / 2.0)

    @staticmethod
    def horizontal(y: float) -> "DirectedLine":
        return DirectedLine(Point(0.0, y), 0.0)

    @property
    def direction(self) -> Tuple[float, float]:
        ux = math.cos(self.angle)
        uy = math.sin(self.angle)
        # Snap axis-aligned directions exactly so that points generated on a
        # vertical (horizontal) line keep a bitwise-constant x (y).
        if abs(ux) < 1e-15:
            ux = 0.0
            uy = 1.0 if uy > 0.0 else -1.0
        elif abs(uy) < 1e-15:
            uy = 0.0
            ux = 1.0 if ux > 0.0 else -1.0
        return (ux, uy)

    def point_at(self, t: float) -> Point:
        ux, uy = self.direction
        return Point(self.anchor.x + t * ux, self.anchor.y + t * uy)

    def is_vertical(self, tol: float = ANGLE_EPS) -> bool:
        return abs(math.cos(self.angle)) <= tol

    def is_horizontal(self, tol: float = ANGLE_EPS) -> bool:
        return abs(math.sin(self.angle)) <= tol

    def side_of(self, p: Point) -> float:
        """Cross product sign: positive if p is left of the directed line."""
        ux, uy = self.direction
        return ux * (p.y - self.anchor.y) - uy * (p.x - self.anchor.x)


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("circle radius must be nonnegative")


def polar_angle(p: Point, origin: Point) -> float:
    """Angle of the vector p - origin, counterclockwise from +x, in [0, 2*pi)."""
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: coincident points")
    return normalize_angle(math.atan2(dy, dx))


def outer_tangents(c1: Circle, c2: Circle, eps: float = EPS_BASE) -> Tuple[DirectedLine, DirectedLine]:
    """Both outer tangent lines of two equal-radius circles.

    The returned lines are parallel to the center line, oriented along
    c1 -> c2.  The first lies to the right of that direction, the second to
    the left.
    """
    if abs(c1.radius - c2.radius) > eps:
        raise ValueError("outer tangents are only supported for equal radii")
    if c1.radius <= 0.0:
        raise ValueError("outer tangents need a positive radius")
    delta = polar_angle(c2.center, c1.center)
    r = c1.radius
    rx, ry = unit_vector(delta - math.pi / 2.0)
    lx, ly = unit_vector(delta + math.pi / 2.0)
    right = DirectedLine(Point(c1.center.x + r * rx, c1.center.y + r * ry), delta)
    left = DirectedLine(Point(c1.center.x + r * lx, c1.center.y + r * ly), delta)
    return right, left


def line_line_intersection(a: DirectedLine, b: DirectedLine, tol: float = ANGLE_EPS) -> Optional[Point]:
    """Intersection point of two lines, or None when (near) parallel."""
    ax, ay = a.direction
    bx, by = b.direction
    cross = ax * by - ay * bx
    if abs(cross) <= tol:
        return None
    dx = b.anchor.x - a.anchor.x
    dy = b.anchor.y - a.anchor.y
    t = (dx * by - dy * bx) / cross
    return a.point_at(t)


def line_circle_intersections(l: DirectedLine, c: Circle, eps: float = EPS_BASE) -> List[Point]:
    """Intersections of a line and a circle, sorted along the line direction.

    A tangency is reported once.
    """
    ux, uy = l.direction
    cx = c.center.x - l.anchor.x
    cy = c.center.y - l.anchor.y
    t0 = cx * ux + cy * uy
    # squared distance from the center to the line
    perp = cx * uy - cy * ux
    disc = c.radius * c.radius - perp * perp
    if disc <= eps * max(1.0, c.radius):
        if disc < -eps * max(1.0, c.radius):
            return []
        return [l.point_at(t0)]
    s = math.sqrt(disc)
    return [l.point_at(t0 - s), l.point_at(t0 + s)]


def circle_circle_intersections(c1: Circle, c2: Circle, eps: float = EPS_BASE) -> List[Point]:
    """0, 1, or 2 intersection points of two circles, sorted by (x, y)."""
    dx = c2.center.x - c1.center.x
    dy = c2.center.y - c1.center.y
    d = math.hypot(dx, dy)
    scale = max(1.0, c1.radius, c2.radius)
    if d <= eps * scale:
        return []
    if d > c1.radius + c2.radius + eps * scale:
        return []
    if d < abs(c1.radius - c2.radius) - eps * scale:
        return []
    a = (d * d + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * d)
    disc = c1.radius * c1.radius - a * a
    mx = c1.center.x + a * dx / d
    my = c1.center.y + a * dy / d
    if disc <= eps * scale:
        return [Point(mx, my)]
    h = math.sqrt(disc)
    px = -dy / d * h
    py = dx / d * h
    pts = [Point(mx + px, my + py), Point(mx - px, my - py)]
    pts.sort(key=lambda p: (p.x, p.y))
    return pts


def collinear(a: Point, b: Point, c: Point, eps: float = EPS_BASE) -> bool:
    """True when the oriented area of the triangle abc is (near) zero.

    The tolerance is applied to the raw cross product, so for integer
    coordinates the test is exact.
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    span = max(abs(b.x - a.x), abs(b.y - a.y), abs(c.x - a.x), abs(c.y - a.y), 1.0)
    return abs(cross) <= eps * span


# Rows of the pair matrix examined at once by the collinearity check; bounds
# its temporaries to _GP_ROWS x n entries whatever the instance size.
_GP_ROWS = 64


def general_position_violation(inst: Instance) -> Optional[str]:
    """Check the input assumptions of the fast solvers.

    Returns a message naming an offending pair (shared x or y coordinate)
    or triple (collinear sites), or None when the instance is valid.  Pairs
    are checked before triples, each in lexicographic index order, x before
    y, and a triple is collinear under the same test as ``collinear``: the
    cross product against ``eps`` times the largest coordinate offset.
    """
    eps = inst.eps
    sites = [c.site for c in inst.customers]
    xs, ys = inst.xs, inst.ys
    n = inst.n
    for i in range(n - 1):
        shared_x = np.abs(xs[i + 1:] - xs[i]) <= eps
        shared = shared_x | (np.abs(ys[i + 1:] - ys[i]) <= eps)
        if shared.any():
            k = int(np.argmax(shared))
            j = i + 1 + k
            if shared_x[k]:
                return (
                    f"customers {i} and {j} share x coordinate "
                    f"({sites[i].x} vs {sites[j].x})"
                )
            return (
                f"customers {i} and {j} share y coordinate "
                f"({sites[i].y} vs {sites[j].y})"
            )
    for i in range(n - 2):
        # Offsets of the later sites from site i; entry [a, b] of a block
        # pairs site i+1+j0+a with site i+2+j0+b, so b >= a keeps k > j.
        dx = xs[i + 1:] - xs[i]
        dy = ys[i + 1:] - ys[i]
        reach = np.maximum(np.abs(dx), np.abs(dy))
        m = len(dx)
        for j0 in range(0, m - 1, _GP_ROWS):
            j1 = min(j0 + _GP_ROWS, m - 1)
            cross = np.multiply.outer(dx[j0:j1], dy[j0 + 1:])
            cross -= np.multiply.outer(dy[j0:j1], dx[j0 + 1:])
            span = np.maximum(np.maximum.outer(reach[j0:j1], reach[j0 + 1:]), 1.0)
            bad = np.triu(np.abs(cross) <= eps * span)
            if bad.any():
                a, b = divmod(int(np.argmax(bad)), bad.shape[1])
                return f"customers {i}, {i + 1 + j0 + a}, {i + 2 + j0 + b} are collinear"
    return None
