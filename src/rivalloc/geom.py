"""Planar primitives: points, weighted customers, disc crossings.

All arithmetic is double precision.  Every tolerance of the solvers is
named once, in the table below, with its unit; ``Instance`` scales the
per-instance ones to its data when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerances: every one the solver modules use, named once (a guard test
# fails on a bare one elsewhere), with its unit and derivation.
# ratio: about 9e6 roundoffs, far above the rounding of the few operations
# between a quantity and its test.  Also the relative margin of the
# prefilter of ``disc_crossings``.
EPS_BASE = 1e-9
# angle, or the sine or cosine measuring one: directions this close are one.
# 2,250 ulps of pi, above the few ulps of a unit normal, a cross product or
# arctan2; below 1/(2c^2), the least sine of two non-parallel integer
# vectors of entries up to c < 7e5.
ANGLE_TOL = 1e-12
# angle: a unit vector's component below it snaps to 0.  Above cos(3pi/2),
# -1.8e-16 in doubles, and below ANGLE_TOL: only the axes snap.
SNAP_TOL = 1e-15
# ratio: 2^-52, whence the rounding bounds of the sweep and the prefilter.
DBL_EPS = float(np.finfo(float).eps)
# length: the bound on an instance's scale, max(1, R, |coordinates|).  A
# crossing abscissa can lie about scale / ANGLE_TOL out, and the solvers square
# such lengths: (2 * 1e140 / ANGLE_TOL)^2 = 4e304 < 1.8e308, the float maximum.
MAX_SCALE = 1e140
# Per instance, computed once by ``Instance``:
# - eps = EPS_BASE * max(1, R, |coordinates|), length: EPS_BASE at scale.
# - capture_r = r + eps, length: the open-capture radius.  A point known up
#   to rounding captures what its exact location does; r breaks every solve.
# - cross_tol = eps * max(1, r), length^2: a tangency discriminant r^2 - p^2
#   within it touches once; near p = r a shift of eps/2 in p moves it so far.
#   ``disc_crossings`` below applies it to two discs of radius r.
# - closed_tol = EPS_BASE * max(1, r), length: ``vprune.pseudo_wedge``'s
#   closed-capture slack.  Scaled like cross_tol, it moved the reported
#   point of an n=400 solve (R=2, range 400, seed 2), so it is not.
# - weight_tol = EPS_BASE * max(1, W), weight, W the total weight: how far
#   a pseudo-wedge direction may fall short of the worse anchor's value.


class DegenerateInputError(ValueError):
    """Raised by ``centroid.solve_centroid``, in every mode, on an instance
    that ``general_position_violation`` rejects."""


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:
        theta = 0.0
    return theta


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` from the math module applied elementwise to 1-D arrays.

    numpy's vectorised transcendental functions may differ from the C
    library in the last bit; values that must match a scalar computation
    (such as the angle of an intermediate-mode tangent line) use the
    scalar functions so that they never depend on which implementation
    ran.
    """
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


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

    R is positive and finite, and so is 3W, W the total weight, which the
    follower sweep's running sums reach, and the scale is below ``MAX_SCALE``;
    otherwise construction raises ``ValueError``, and no solver checks
    again.  ``r`` is the derived half separation; the follower must keep
    distance at least R from the leader, and a customer is captured exactly
    when its projection on the follower direction exceeds r.

    The tolerances ``eps``, ``capture_r``, ``cross_tol``, ``closed_tol``
    and ``weight_tol`` (see the table at the top of this module), the
    read-only coordinate and weight arrays ``xs``, ``ys`` and ``ws``,
    ``exact_sums``, whether every sum of weights is exact in floating
    point, and the follower sweep's constants, the signed weights
    ``signed_ws`` = ``[ws, -ws]`` and its running sums' rounding bound
    ``sweep_slack`` = 8(n + 1) ``DBL_EPS`` W, are computed once, at
    construction.  They are not dataclass fields, so equality and hashing
    use only the customers and R.
    """

    customers: Tuple[Customer, ...]
    R: float

    def __init__(self, customers: Sequence[Customer], R: float) -> None:
        if len(customers) < 1:
            raise ValueError("instance needs at least one customer")
        if not 0.0 < R < math.inf:
            raise ValueError(f"separation distance R must be positive and finite, got {R}")
        W = sum(c.weight for c in customers)
        if not math.isfinite(3.0 * W):
            raise ValueError(f"total weight must be below a third of the float range, got {W}")
        object.__setattr__(self, "customers", tuple(customers))
        object.__setattr__(self, "R", float(R))
        scale = max(
            [1.0, self.R]
            + [max(abs(c.site.x), abs(c.site.y)) for c in self.customers]
        )
        if not scale < MAX_SCALE:
            raise ValueError(f"R and |coordinates| must be below {MAX_SCALE:g}, got {scale:g}")
        object.__setattr__(self, "_eps", EPS_BASE * scale)
        object.__setattr__(self, "capture_r", self.r + self._eps)
        object.__setattr__(self, "cross_tol", self._eps * max(1.0, self.r))
        object.__setattr__(self, "closed_tol", EPS_BASE * max(1.0, self.r))
        object.__setattr__(self, "weight_tol", EPS_BASE * max(1.0, W))
        ws = [c.weight for c in self.customers]
        for name, values in (
            ("xs", [c.site.x for c in self.customers]),
            ("ys", [c.site.y for c in self.customers]),
            ("ws", ws),
            ("signed_ws", ws + [-w for w in ws]),
        ):
            arr = np.array(values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sweep_slack",
                           8.0 * (self.n + 1) * DBL_EPS * float(self.ws.sum()))
        # Integer weights of total at most 2^53: every partial sum of them is
        # an integer of at most 2^53, so any summation order is exact.
        object.__setattr__(self, "exact_sums", bool(
            np.all(self.ws == np.floor(self.ws)) and self.ws.sum() <= 2.0 ** 53
        ))

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


def disc_crossings(inst: Instance) -> Tuple[np.ndarray, np.ndarray]:
    """Every crossing point of two disc boundaries of radius r, as arrays
    ``(xs, ys)``: pair by pair in ``np.triu_indices`` order, a pair's two
    points by (x, y), or its one point when it touches within ``cross_tol``.
    Only the pairs an array pass finds near enough to meet are solved, each
    by the scalar per-pair formula's operations in its order, the distance
    as ``sqrt(dx*dx + dy*dy)``, so the points are bitwise the scalar ones.

    The pass tests only the pairs of sorted-x windows.  A pair passing its
    squared-distance test has a rounded |dx| of at most reach (1 + 2u), so
    its sites lie at most reach (1 + 4u) apart in x, u = ``DBL_EPS`` / 2:
    within reach (1 + ``EPS_BASE``) of the left one, rounding included."""
    r = inst.r
    tol = inst.cross_tol
    n = inst.n
    reach = (r + r + tol) * (1.0 + EPS_BASE)
    order = np.argsort(inst.xs)
    sx = inst.xs[order]
    count = np.searchsorted(sx, sx + reach * (1.0 + EPS_BASE), side="right")
    count -= np.arange(1, n + 1)
    p = np.repeat(np.arange(n), count)
    q = order[p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)]
    p = order[p]
    i, j = np.divmod(np.sort(np.minimum(p, q) * n + np.maximum(p, q)), n)
    del p, q  # freed before the per-pair distances, which set the peak
    dx = inst.xs[j] - inst.xs[i]
    dy = inst.ys[j] - inst.ys[i]
    d = dx * dx + dy * dy
    near = d <= reach * reach
    i, dx, dy, d = i[near], dx[near], dy[near], np.sqrt(d[near])
    meet = (d > tol) & (d <= r + r + tol)
    i, dx, dy, d = i[meet], dx[meet], dy[meet], d[meet]
    a = (d * d + r * r - r * r) / (2.0 * d)
    disc = r * r - a * a
    mx = inst.xs[i] + a * dx / d
    my = inst.ys[i] + a * dy / d
    two = disc > tol
    h = np.sqrt(np.where(two, disc, 0.0))
    px = -dy / d * h
    py = dx / d * h
    x = np.stack((mx + px, mx - px), axis=1)
    y = np.stack((my + py, my - py), axis=1)
    flip = two & ((x[:, 1] < x[:, 0]) | (x[:, 1] == x[:, 0]) & (y[:, 1] < y[:, 0]))
    x[flip], y[flip] = x[flip, ::-1], y[flip, ::-1]
    # A touching pair's point is the midpoint: mx + 0.0 may turn -0.0 to 0.0.
    x[~two, 0], y[~two, 0] = mx[~two], my[~two]
    used = np.stack((np.ones_like(two), two), axis=1)
    return x[used], y[used]


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
    """The least index triple that the scaled cross-product test of
    ``general_position_violation`` accepts, found through the
    angular prefilter of ``general_position_violation``; the sites must not
    share a coordinate."""
    n = len(xs)
    if n < 3:
        return None
    u = DBL_EPS / 2.0
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
    """Check the input assumptions of ``centroid.solve_centroid``, which
    calls it in every mode.

    Returns a message naming an offending pair (shared x or y coordinate)
    or triple (collinear sites), or None when the instance is valid.  Pairs
    are checked before triples, each in lexicographic index order, x before
    y, and a triple is collinear when its cross product is at most ``eps``
    times its largest coordinate offset (at least 1).

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
