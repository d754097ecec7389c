"""Planar primitives: points, weighted customers, directed lines, circles.

All arithmetic is double precision.  Incidence predicates use an absolute
tolerance, ``EPS_BASE`` = 1e-9, that callers may scale by the coordinate
magnitude of their data (see ``Instance.eps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

EPS_BASE = 1e-9

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
    library in the last bit; decisions that must match a scalar
    computation (such as which tangent directions are parallel to a query
    line) use the scalar functions so that they never depend on which
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
        if not (math.isfinite(self.site.x) and math.isfinite(self.site.y)):
            raise ValueError(f"customer site must be finite, got {self.site}")
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"customer weight must be positive and finite, got {self.weight}")


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
        if not 0.0 <= R < math.inf:
            raise ValueError(f"separation distance R must be nonnegative and finite, got {R}")
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


def _first_close_pair(v: np.ndarray, eps: float) -> int:
    """Key ``i * n + j`` of the least index pair ``i < j`` with
    ``|v[j] - v[i]| <= eps``, or ``n * n`` when there is none.

    The rounded difference is monotone in each operand, so in sorted order
    the values within ``eps`` of one value form a run around it: only
    neighbours up to the widest such run are compared.
    """
    n = len(v)
    order = np.argsort(v, kind="stable")
    s = v[order]
    best = n * n
    for w in range(1, n):
        close = s[w:] - s[:-w] <= eps
        if not close.any():
            break
        a, b = order[:-w][close], order[w:][close]
        best = min(best, int((np.minimum(a, b) * n + np.maximum(a, b)).min()))
    return best


def _first_collinear_triple(xs: np.ndarray, ys: np.ndarray, eps: float) -> Optional[Tuple[int, int, int]]:
    """The least index triple that ``collinear`` accepts, found through the
    angular prefilter of ``general_position_violation``; the sites must not
    share a coordinate."""
    n = len(xs)
    if n < 3:
        return None
    u = np.finfo(float).eps / 2.0
    earlier = np.tri(n, dtype=bool)  # [i, j] is True for j <= i
    dx = xs - xs[:, None]  # [i, j] is the offset of site j from site i
    dy = ys - ys[:, None]
    dist = np.hypot(dx, dy)
    dist[earlier] = np.inf
    dmin = dist.min(axis=1)
    del dist
    ang = np.arctan2(dy, dx, out=dx)
    del dy
    np.mod(ang, math.pi, out=ang)
    ang[earlier] = np.nan
    ang.sort(axis=1)  # row i: its n - 1 - i angles, then NaN
    s = eps / np.minimum(dmin, dmin * dmin) + 8.0 * u
    delta = np.arcsin(np.minimum(s, 1.0)) + 32.0 * np.spacing(math.pi)

    rows = np.arange(n - 2)
    last = ang[rows, n - 2 - rows]
    near = (ang[:, 1:] <= ang[:, :-1] + delta[:, None]).any(axis=1)[: n - 2]
    near |= ang[rows, 0] + math.pi <= last + delta[: n - 2]
    for i in np.flatnonzero(near).tolist():
        dxi = xs[i + 1:] - xs[i]
        dyi = ys[i + 1:] - ys[i]
        reach = np.maximum(np.abs(dxi), np.abs(dyi))
        m = len(dxi)
        a = np.arctan2(dyi, dxi) % math.pi
        order = np.argsort(a, kind="stable")
        t = a[order]
        # Each position pairs with the later ones, across the wrap at pi
        # too, whose angle is within delta of its own.
        pos = np.arange(m)
        ext = np.concatenate([t, t + math.pi])
        hi = np.minimum(np.searchsorted(ext, t + delta[i], side="right"), pos + m)
        count = hi - pos - 1
        p = np.repeat(pos, count)
        q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
        j = order[p]
        k = order[q % m]
        j, k = np.minimum(j, k), np.maximum(j, k)
        cross = dxi[j] * dyi[k] - dyi[j] * dxi[k]
        span = np.maximum(np.maximum(reach[j], reach[k]), 1.0)
        bad = np.abs(cross) <= eps * span
        if bad.any():
            jk = int((j * m + k)[bad].min())
            return i, i + 1 + jk // m, i + 1 + jk % m
    return None


def general_position_violation(inst: Instance) -> Optional[str]:
    """Check the input assumptions of the fast solvers.

    Returns a message naming an offending pair (shared x or y coordinate)
    or triple (collinear sites), or None when the instance is valid.  Pairs
    are checked before triples, each in lexicographic index order, x before
    y, and a triple is collinear under the same test as ``collinear``: the
    cross product against ``eps`` times the largest coordinate offset.

    The check takes O(n^2 log n) time, not the O(n^3) of trying every
    triple.  Pairs come from the sorted x's and y's.  For triples, take row
    i: the offsets d_j = (dx_j, dy_j) of the later sites j > i from site i.
    A pair j < k is collinear with i when, in floating point,

        |dx_j dy_k - dy_j dx_k| <= eps * max(reach_j, reach_k, 1),

    where reach is the larger absolute component of an offset, so
    reach <= |d|.  The rounded cross product is within 2.0001 u |d_j| |d_k|
    of the exact |d_j| |d_k| sin(Delta), with u the unit roundoff and Delta
    the angle between the two offsets modulo pi.  Dividing by |d_j| |d_k|,
    a collinear pair has

        |sin(Delta)| <= eps / min(dmin_i, dmin_i^2) + 8 u =: s_i,

    dmin_i being the least distance from site i to a later site; the
    slack over 2.0001 u covers the rounding of s_i itself while s_i < 1.
    dmin_i > eps because no two sites share a coordinate once the pairs
    pass.  So Delta <= arcsin(min(s_i, 1)).  Each row's angles arctan2(dy,
    dx) modulo pi are sorted, and delta_i is arcsin(min(s_i, 1)) plus 32
    ulps of pi, which covers the rounding of arctan2, of the reduction
    modulo pi (and its pi against the true one), of arcsin and of the
    sums below, a few ulps each.  A collinear pair then lies within delta_i
    in the sorted order, directly or across the wrap from pi to 0.  A row
    none of whose adjacent angles, the wrap included, lie within delta_i
    of each other holds no collinear pair; on a valid instance that is
    every row.  The pairs within delta_i in the other rows go through the
    test above, with the same operations in the same order, so the message
    is the one the loop over all triples gives.
    """
    eps = inst.eps
    sites = [c.site for c in inst.customers]
    n = inst.n
    first_x = _first_close_pair(inst.xs, eps)
    first_y = _first_close_pair(inst.ys, eps)
    if min(first_x, first_y) < n * n:
        if first_x <= first_y:
            i, j = divmod(first_x, n)
            return (
                f"customers {i} and {j} share x coordinate "
                f"({sites[i].x} vs {sites[j].x})"
            )
        i, j = divmod(first_y, n)
        return (
            f"customers {i} and {j} share y coordinate "
            f"({sites[i].y} vs {sites[j].y})"
        )
    triple = _first_collinear_triple(inst.xs, inst.ys, eps)
    if triple is not None:
        return "customers %d, %d, %d are collinear" % triple
    return None
