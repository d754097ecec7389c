"""Shared brute-force helpers for the test suite.

Everything here recomputes geometry from first principles (tangent lines,
circle crossings, dense direction scans) so the tests compare the library
against independently derived answers rather than against itself.
"""

import math
import random
import tracemalloc
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from rivalloc.cli import generate_instance
from rivalloc.geom import (
    ANGLE_TOL,
    EPS_BASE,
    SNAP_TOL,
    TWO_PI,
    Customer,
    Instance,
    Point,
    general_position_violation,
    normalize_angle,
)
from rivalloc.linesearch import (
    SEARCHED_LINE,
    CertifiedOptimum,
    Telemetry,
    _position_pass,
    build_angular_index,
    vertical_breakpoints,
)
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    WHOLE_LINE,
    as_result,
    lean_code,
    solve_medianoid,
    sweep,
)
from rivalloc.vprune import decide

# The candidate families, as ``reference_candidates`` tags its points.
TANGENT_TANGENT, TANGENT_CIRCLE, CIRCLE_CIRCLE = "TxT", "TxC", "CxC"


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def collinear(a: Point, b: Point, c: Point, eps: float = EPS_BASE) -> bool:
    """True when the oriented area of the triangle abc is (near) zero: the
    scalar form of ``general_position_violation``'s triple test.

    The tolerance is applied to the raw cross product, so for integer
    coordinates the test is exact.
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    span = max(abs(b.x - a.x), abs(b.y - a.y), abs(c.x - a.x), abs(c.y - a.y), 1.0)
    return abs(cross) <= eps * span


def unit_vector(theta: float) -> Tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("circle radius must be nonnegative")


@dataclass(frozen=True, slots=True)
class DirectedLine:
    """Line through ``anchor`` with direction ``angle`` (normalized): the
    scalar form of the solvers' query-line rows (``line_rows``).  ``unit``
    is the unit direction when it is given, as a tangent line built from
    coordinate differences carries it, and ``angle``'s cosine and sine
    otherwise."""

    anchor: Point
    angle: float
    unit: Optional[Tuple[float, float]] = None

    @staticmethod
    def vertical(x: float) -> "DirectedLine":
        return DirectedLine(Point(x, 0.0), math.pi / 2.0)

    @property
    def direction(self) -> Tuple[float, float]:
        if self.unit is not None:
            return self.unit
        ux = math.cos(self.angle)
        uy = math.sin(self.angle)
        # Snap axis-aligned directions exactly so that points generated on a
        # vertical (horizontal) line keep a bitwise-constant x (y).
        if abs(ux) < SNAP_TOL:
            ux = 0.0
            uy = 1.0 if uy > 0.0 else -1.0
        elif abs(uy) < SNAP_TOL:
            uy = 0.0
            ux = 1.0 if ux > 0.0 else -1.0
        return (ux, uy)

    def point_at(self, t: float) -> Point:
        ux, uy = self.direction
        return Point(self.anchor.x + t * ux, self.anchor.y + t * uy)


def line_rows(lines) -> np.ndarray:
    """The rows ``ax, ay, ux, uy, angle`` that the line searches read, of
    the upward ``lines``."""
    return np.array([(L.anchor.x, L.anchor.y) + L.direction + (L.angle,) for L in lines],
                    dtype=float).reshape(-1, 5)


def table_column(idx, i: int, j: int) -> int:
    """The angular index's table column of the tangent of the ordered pair
    ``(i, j)``."""
    return i * (idx.n - 1) + j - (j > i)


def reference_tangent_line(idx, i: int, j: int) -> DirectedLine:
    """The scalar line whose row ``AngularIndex.tangent_lines`` builds for
    the ordered pair: the right tangent of the offset ``(dx, dy)`` from
    site i to site j, unit normal ``(dy, -dx)/d``, anchored at its touching
    point on disc i, directed upward along ``(dx, dy)/d`` or its opposite.
    A horizontal one raises ``ValueError``."""
    xi, yi = float(idx.xs[i]), float(idx.ys[i])
    dx, dy = float(idx.xs[j]) - xi, float(idx.ys[j]) - yi
    d = math.sqrt(dx * dx + dy * dy)
    nx, ny = dy / d, -dx / d
    if abs(nx) <= ANGLE_TOL:
        raise ValueError("horizontal query line has no breakpoint order")
    ux, uy = (-ny, nx) if nx > 0.0 else (ny, -nx)
    r = idx.inst.r
    return DirectedLine(Point(xi + r * nx, yi + r * ny), math.atan2(uy, ux), (ux, uy))


def upward_tangents(idx, i: int, js=None) -> List[DirectedLine]:
    """``reference_tangent_line`` of customer i and each of ``js`` (every
    other customer by default), horizontal tangents left out."""
    js = range(idx.n) if js is None else js
    return [reference_tangent_line(idx, i, j) for j in js
            if j != i and abs(idx.lines[0, table_column(idx, i, j)]) > ANGLE_TOL]


def polar_angle(p: Point, origin: Point) -> float:
    """Angle of the vector p - origin, counterclockwise from +x, in [0, 2*pi)."""
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: coincident points")
    return normalize_angle(math.atan2(dy, dx))


def outer_tangents(c1: Circle, c2: Circle, eps: float = EPS_BASE) -> Tuple[DirectedLine, DirectedLine]:
    """Both outer tangent lines of two equal-radius circles: the scalar
    construction ``oracle.enumerate_candidates`` evaluates over arrays.

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


def horizontal(y: float) -> DirectedLine:
    """The line ``y = const`` directed along +x."""
    return DirectedLine(Point(0.0, y), 0.0)


def upward_line(L: DirectedLine) -> DirectedLine:
    """The non-horizontal line ``L`` directed upward; breakpoint positions
    ``t`` are measured along it from ``L``'s anchor."""
    theta = normalize_angle(L.angle)
    if abs(math.sin(theta)) <= ANGLE_TOL:
        raise ValueError("horizontal query line has no breakpoint order")
    up = theta if math.sin(theta) > 0.0 else normalize_angle(theta - math.pi)
    return L if up == L.angle else DirectedLine(L.anchor, up)


def breakpoint_sequences(idx, L: DirectedLine) -> np.ndarray:
    """All follower-value breakpoints on ``L`` as one unordered array of
    positions along ``upward_line(L)``, by the general pass."""
    return _position_pass(idx, line_rows([upward_line(L)]))[0]


def is_vertical(L, tol=ANGLE_TOL):
    return abs(math.cos(L.angle)) <= tol


def is_horizontal(L, tol=ANGLE_TOL):
    return abs(math.sin(L.angle)) <= tol


def side_of(L, p):
    """Cross product sign: positive if p is left of the directed line."""
    ux, uy = L.direction
    return ux * (p.y - L.anchor.y) - uy * (p.x - L.anchor.x)


def arc_contains(arc, theta):
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


def wedge_contains(w, p, tol=0.0):
    """Whether the point lies in the closed ``Wedge``, up to ``tol``."""
    dx = p.x - w.apex.x
    dy = p.y - w.apex.y
    ub = unit_vector(w.theta_b)
    ue = unit_vector(w.theta_e)
    return (dx * ub[0] + dy * ub[1] >= -tol) and (dx * ue[0] + dy * ue[1] >= -tol)


def capture_arc(v, x, R, eps=0.0):
    """Open arc of follower angles that win customer v, or None.

    The arc is (theta_v - phi, theta_v + phi) with phi = arccos(R/(2 d)),
    where d is the leader-customer distance; it vanishes when d <= R/2,
    boundary ties included (they go to the leader).  A positive eps widens
    the tie band: the customer counts as won only when its projection
    clears R/2 by more than eps.  Computed with the C library, one customer
    at a time, independently of the block sweep.
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


def weight_at_angle(inst, x, theta):
    """Total weight won by the follower at angle theta."""
    total = 0.0
    for c in inst.customers:
        arc = capture_arc(c, x, inst.R, eps=inst.eps)
        if arc is not None and arc_contains(arc, theta):
            total += c.weight
    return total


def _classify_from_ca(begin, end, tol=1e-12):
    """Direction of the wedge relative to the vertical line through its apex.

    The position of the covering interval [begin, end] decides it: wrapping
    angle 0 means the wedge opens rightward, containing pi means leftward,
    otherwise the interval sits in the upper or lower half circle and the
    wedge opens upward or downward.
    """

    def covers(theta):
        t = normalize_angle(theta)
        return begin - tol <= t <= end + tol or begin - tol <= t + TWO_PI <= end + tol

    if covers(0.0):
        return SIDEWARD_RIGHT
    if covers(math.pi):
        return SIDEWARD_LEFT
    mid = normalize_angle(begin + (end - begin) / 2.0)
    return UPWARD if 0.0 < mid < math.pi else DOWNWARD


def classify_wedge_on_line(w, up_angle):
    """Wedge direction relative to a line with upward direction
    ``up_angle``, by ``lean_code`` on the wedge's end angle and opening."""
    up = normalize_angle(up_angle)
    return lean_code(w.theta_e, w.ccw_span, up, normalize_angle(up + math.pi))


def reference_classify(w, up_angle):
    """``classify_wedge_on_line`` as a per-call loop over the wedge's cone:
    the upward and downward rays are in the wedge when their direction
    lies in the closed cone up to 1e-12; neither makes a sideward lean,
    whose side the cone's middle direction gives."""
    lo, span = w.cone

    def in_cone(d):
        return (normalize_angle(d) - lo) % TWO_PI <= span + 1e-12

    up_in = in_cone(up_angle)
    down_in = in_cone(up_angle + math.pi)
    if up_in and down_in:
        return WHOLE_LINE
    if up_in or down_in:
        return UPWARD if up_in else DOWNWARD
    ux, uy = unit_vector(up_angle)
    mx, my = unit_vector(lo + span / 2.0)
    return SIDEWARD_LEFT if ux * my - uy * mx > 0.0 else SIDEWARD_RIGHT


def classify_wedge_on_vertical(w, line_x, tol=1e-9):
    """Wedge direction on the vertical line through the apex, read off its
    covering interval; ``classify_wedge_on_line`` must agree."""
    if abs(w.apex.x - line_x) > tol * max(1.0, abs(w.apex.x)):
        raise ValueError("wedge apex does not lie on the line")
    return _classify_from_ca(w.theta_b, w.theta_e)


# Origins of the certificates a vertical-line decision raises: a strong
# centroid, and the conditional centroid an empty pseudo-wedge certifies.
STRONG_ORIGINS = (
    "strong centroid at a breakpoint of the query line",
    "strong centroid at the anchor-segment midpoint",
)
CONDITIONAL_ORIGIN = "empty pseudo-wedge cone at the better anchor"
# The rules by which a decision settles its line, in ``vprune``'s order.
DECISION_RULES = (
    "sideward wedge at a breakpoint of the query line",
    "sideward wedge at the anchor-segment midpoint",
    "pseudo-wedge cone at the better anchor points to one side",
)


# The per-step reference of the line search: one coroutine per line,
# advanced in lockstep, with one block sweep of their points per round and
# the follower's full result at every evaluation.  ``linesearch``'s array
# engine must reproduce it evaluation for evaluation.


def lean(result, up_angle):
    """Where an evaluation that certifies nothing sends the search along the
    line with upward direction ``up_angle``: the wedge's direction (upward,
    downward or a sideward side)."""
    cls = classify_wedge_on_line(result.wedge, up_angle)
    if cls == WHOLE_LINE:
        raise RuntimeError("wedge degenerately contains the query line")
    return cls


def reference_evaluations(line, P, telemetry, origin) -> Generator:
    """Search the breakpoint positions ``P`` along the upward ``line`` by
    exact-median selection until no breakpoint is left.

    A coroutine: each round yields ``(t, point)`` for the lower median of
    the surviving positions and is sent the follower's result there.  A
    strong centroid raises ``CertifiedOptimum`` with ``origin``; otherwise
    the search cuts: an upward lean keeps only positions strictly above
    ``t``, a downward one only those strictly below, and a sideward lean
    ends the search.  It returns its evaluations ``(t, point, result,
    lean)`` in order.
    """
    up_angle = line.angle
    budget = len(P).bit_length()
    done = []
    while len(P):
        mass = len(P)
        k = (mass - 1) // 2
        P.partition(k)
        t = float(P[k])
        point = line.point_at(t)
        res = yield t, point
        telemetry.medianoid_calls += 1
        if res.strong_centroid:
            raise CertifiedOptimum(point, res.weight_loss, origin)
        d = lean(res, up_angle)
        done.append((t, point, res, d))
        if d == UPWARD:
            P = P[k + 1:][P[k + 1:] > t]
        elif d == DOWNWARD:
            P = P[:k][P[:k] < t]
        else:
            return done
        pruned = mass - len(P)
        telemetry.prune_iterations += 1
        if pruned * 2 < mass:
            raise RuntimeError("prune progress fell below the guaranteed fraction")
        budget -= 1
        if budget < 0:
            raise RuntimeError("prune search failed to terminate")
    return done


def sweep_results(inst, points):
    """The ``MedianoidResult`` at each of ``points``, in order, from one
    ``medianoid.sweep`` of the block."""
    xs = np.array([p.x for p in points], dtype=float)
    ys = np.array([p.y for p in points], dtype=float)
    rows = zip(*(col.tolist() for col in sweep(inst, xs, ys)))
    return [as_result(p, *row) for p, row in zip(points, rows)]


def reference_lockstep(inst, searches):
    """Run the coroutines ``searches`` side by side, each round sweeping the
    points they all yield as one block, and return what each returned, in
    input order.  A round in which searches raise ``CertifiedOptimum`` is
    finished, then the first of them in input order is raised."""
    out = [None] * len(searches)
    live = []
    for i, search in enumerate(searches):
        try:
            live.append((i, search, search.send(None)))
        except StopIteration as stop:
            out[i] = stop.value
    while live:
        results = sweep_results(inst, [point for _, _, (_, point) in live])
        pending, certified = [], []
        for (i, search, _), res in zip(live, results):
            try:
                pending.append((i, search, search.send(res)))
            except StopIteration as stop:
                out[i] = stop.value
            except CertifiedOptimum as cert:
                certified.append(cert)
        if certified:
            raise certified[0]
        live = pending
    return out


def reference_search_lines(inst, lines, positions, telemetry, origin):
    """``linesearch.search_lines`` by the per-step reference, in lockstep:
    per line ``(least, up, down, side)`` with each evaluation as ``(t, x,
    y, weight_loss, witness_angle)``.  A line without positions is
    evaluated at its anchor.  The position arrays are reordered in place."""
    def search(line, P):
        if len(P):
            return (yield from reference_evaluations(line, P, telemetry, origin))
        point = line.point_at(0.0)
        res = yield 0.0, point
        telemetry.medianoid_calls += 1
        if res.strong_centroid:
            raise CertifiedOptimum(point, res.weight_loss, origin)
        return [(0.0, point, res, None)]

    out = []
    searches = [search(L, P) for L, P in zip(lines, positions)]
    for done in reference_lockstep(inst, searches):
        ev = [(t, p.x, p.y, res.weight_loss, res.witness_angle) for t, p, res, _ in done]
        leans = [d for *_, d in done]
        up = [e for e, d in zip(ev, leans) if d == UPWARD]
        down = [e for e, d in zip(ev, leans) if d == DOWNWARD]
        side = leans[-1] if leans[-1] not in (UPWARD, DOWNWARD, None) else None
        least = ev[-1] if side else min(ev, key=lambda e: e[3])
        out.append((least, up[-1] if up else None, down[-1] if down else None, side))
    return out


def reference_line_minimum(idx, L, telemetry):
    """The coroutine minimising the follower value over ``L``: the first
    evaluation of least weight loss, or the apex of a sideward end; a line
    without breakpoints is evaluated at its anchor."""
    line = upward_line(L)
    telemetry.lines_searched += 1
    done = yield from reference_evaluations(
        line, breakpoint_sequences(idx, L), telemetry, SEARCHED_LINE
    )
    if not done:
        point = line.point_at(0.0)
        res = yield 0.0, point
        telemetry.medianoid_calls += 1
        if res.strong_centroid:
            raise CertifiedOptimum(point, res.weight_loss, SEARCHED_LINE)
        return point, res.weight_loss
    if done[-1][3] in (UPWARD, DOWNWARD):
        _t, point, res, _d = min(done, key=lambda e: e[2].weight_loss)
    else:
        _t, point, res, _d = done[-1]
    return point, res.weight_loss


def reference_local_optima(inst, idx, lines, telemetry):
    """``local_optima_on_lines`` by the per-step reference."""
    return reference_lockstep(inst, [reference_line_minimum(idx, L, telemetry) for L in lines])


def general_positions(idx, L, frame=None):
    """The breakpoint array of the upward line ``L`` by the general
    broadcast pass and, when a ``frame`` is given (``L`` then vertical, so
    it crosses every tangent line), a decision's array: the frame's two
    ordinates along ``L`` between its tangent and its circle positions,
    where the index's table puts the frame rows, and after them, customer
    by customer, the two crossings of the capture circle (radius
    ``capture_r``) of a disc whose discriminant ``r^2 - d^2`` at ``L``'s
    x is at most ``cross_tol`` while its capture discriminant is
    positive."""
    [P] = _position_pass(idx, line_rows([upward_line(L)]))
    if frame is None:
        return P
    inst, x, y = idx.inst, L.anchor.x, L.anchor.y
    near = []
    for c in inst.customers:
        d = c.site.x - x
        cap = inst.capture_r * inst.capture_r - d * d
        if inst.r * inst.r - d * d <= inst.cross_tol and cap > 0.0:
            near += [c.site.y - y - math.sqrt(cap), c.site.y - y + math.sqrt(cap)]
    P = np.insert(P, idx.tangents, (frame.y_top - y, frame.y_btm - y))
    return np.append(P, near)


def reference_anchors(inst, idx, frame, L, telemetry):
    """``find_xD_xU``'s search by the per-step reference: its evaluations
    ``(t, point, result, lean)`` on the vertical line ``L``, with the
    frame's two ordinates."""
    P = general_positions(idx, L, frame)
    [done] = reference_lockstep(inst, [reference_evaluations(
        upward_line(L), P, telemetry, STRONG_ORIGINS[0])])
    return done


def evaluations(inst, line, P, telemetry):
    """The evaluations ``(t, point, result, lean)`` of the reference search
    of the positions ``P`` along the upward ``line``, in order; a strong
    centroid raises ``CertifiedOptimum``."""
    [done] = reference_lockstep(inst, [reference_evaluations(line, P, telemetry, "strong centroid")])
    return done


@dataclass(frozen=True)
class Frame:
    """The x-range of the box covering every disc, and the ordinates of the
    two horizontal lines above and below it that a decision crosses."""

    xmin: float
    xmax: float
    y_top: float
    y_btm: float


def bounding_frame(inst):
    """The frame of ``inst`` from its customers: the box ``r`` beyond the
    extreme sites, the lines ``r + max(R, 1)`` beyond them."""
    xs = [c.site.x for c in inst.customers]
    ys = [c.site.y for c in inst.customers]
    r, pad = inst.r, max(inst.R, 1.0)
    return Frame(min(xs) - r, max(xs) + r, max(ys) + r + pad, min(ys) - r - pad)


def frame_lines(frame):
    """The frame's two horizontal auxiliary lines, top first."""
    return horizontal(frame.y_top), horizontal(frame.y_btm)


def shared_x_instance():
    """Seven customers, the first two sharing x = 0, otherwise in general
    position (no shared polar angle), built directly as an ``Instance``.
    Their tangent lines are vertical, x = r and x = -r, parallel to every
    vertical line; ``solve_centroid`` rejects the instance."""
    sites = ((0, 0, 3), (0, 7, 2), (4, 2, 5), (9, 5, 1), (6, -3, 4), (2, 10, 2), (-3, 4, 3))
    return Instance([Customer(Point(x, y), w) for x, y, w in sites], 2.0)


def shared_y_instance():
    """Five customers, the first two sharing y = 3, otherwise in general
    position.  Their tangent lines are horizontal, y = 1 and y = 5, and
    the optimum, loss 3 at (10, 5), lies on the second, so a solver that
    skipped horizontal tangent lines would miss it; ``solve_centroid``
    rejects the instance."""
    sites = ((11, 3, 1), (6, 3, 1), (10, 7, 4), (-11, -10, 2), (9, 5, 4))
    return Instance([Customer(Point(x, y), w) for x, y, w in sites], 4.0)


def near_duplicate_angle_case(seed):
    """Sites, some of them put on the line through two others and then
    turned about the first by an angle around ``ANGLE_TOL``; every
    fourth case stays on a small integer grid, where angles tie
    exactly."""
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    if seed % 4 == 0:
        pts = rng.sample([(float(x), float(y)) for x in range(-6, 7) for y in range(-6, 7)], n)
    else:
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
        for _ in range(rng.randint(1, 2)):
            i, j, k = rng.sample(range(n), 3)
            (ax, ay), (bx, by) = pts[i], pts[j]
            t = rng.choice([-2.0, -0.5, 0.5, 1.5, 3.0])
            turn = rng.choice([0.0, 1.0, -1.0]) * rng.choice([0.3, 0.9, 1.1, 3.0, 30.0]) * 1e-12
            c, s = math.cos(turn), math.sin(turn)
            vx, vy = t * (bx - ax), t * (by - ay)
            pts[k] = (ax + c * vx - s * vy, ay + s * vx + c * vy)
    return Instance([Customer(Point(x, y), 1.0) for x, y in pts], 2.0)


def near_shared_coordinate_case(seed):
    """Real sites of which one pair shares x (even seeds) or y (odd seeds)
    up to a fraction between 1e-13 and 1e-10 of its distance, or exactly
    in a quarter of the cases."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    pts = [[rng.uniform(-50, 50), rng.uniform(-50, 50)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    axis = seed % 2
    frac = 0.0 if seed % 8 < 2 else 10.0 ** rng.uniform(-13.0, -10.0) * rng.choice([-1.0, 1.0])
    pts[j][axis] = pts[i][axis] + frac * abs(pts[j][1 - axis] - pts[i][1 - axis])
    return Instance([Customer(Point(x, y), rng.uniform(0.5, 5.0)) for x, y in pts],
                    rng.choice([1.0, 4.0]))


def moved_copy(inst, shift=0.0, scale=1.0):
    """``inst`` with every site at ``scale * site + shift`` and R scaled."""
    return Instance([Customer(Point(scale * c.site.x + shift, scale * c.site.y + shift), c.weight)
                     for c in inst.customers], scale * inst.R)


def partial_degenerate_paths(inst):
    """The names of the conditions, among those the solvers once handled
    in part on degenerate input, that hold on ``inst``, each tested as the
    solver tested it: two customers within ``ANGLE_TOL`` in polar angle
    around a third (the angular index raised, ``reference_duplicate_angle``);
    a tangent column with ``|ny| <= 2 ANGLE_TOL`` (the columns a vertical
    line could be parallel to, which the vertical breakpoints dropped and
    LT set aside); a tangent column with ``|nx| <= ANGLE_TOL`` (horizontal
    tangent lines, which intermediate mode skipped)."""
    idx = build_angular_index(inst)
    fired = []
    if reference_duplicate_angle(inst) is not None:
        fired.append("shared polar angle")
    if (np.abs(idx.lines[1, :idx.tangents]) <= 2.0 * ANGLE_TOL).any():
        fired.append("vertical tangent")
    if (np.abs(idx.lines[0, :idx.tangents]) <= ANGLE_TOL).any():
        fired.append("horizontal tangent")
    return fired


def seeded_instance(seed, n_lo=3, n_hi=9, coord_range=30, r_choices=(2.0, 4.0, 6.0)):
    """A deterministic random instance; geometry drawn on an integer grid."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    R = rng.choice(r_choices)
    return generate_instance(n, seed=seed, r=R, coord_range=coord_range)


def line_line_intersection(a: DirectedLine, b: DirectedLine, tol: float = ANGLE_TOL) -> Optional[Point]:
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


def circle_circle_intersections(c1: Circle, c2: Circle, eps: float = EPS_BASE) -> List[Point]:
    """0, 1, or 2 intersection points of two circles, sorted by (x, y): the
    scalar formula ``geom.disc_crossings`` evaluates over arrays."""
    dx = c2.center.x - c1.center.x
    dy = c2.center.y - c1.center.y
    d = math.sqrt(dx * dx + dy * dy)
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


def reference_candidates(inst):
    """``oracle.enumerate_candidates``'s points as a loop over every pair of
    tangent lines, every line and circle, and every pair of circles through
    the scalar crossings, in the enumeration's order: ``(point, family)``,
    each tagged with the family that produced it."""
    r = inst.r
    lines = all_tangent_lines(inst)
    circles = [Circle(c.site, r) for c in inst.customers]
    points = []
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            p = line_line_intersection(lines[a], lines[b])
            if p is not None:
                points.append((p, TANGENT_TANGENT))
    for line in lines:
        for c in circles:
            for p in line_circle_intersections(line, c, eps=inst.eps):
                points.append((p, TANGENT_CIRCLE))
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            for p in circle_circle_intersections(circles[a], circles[b], eps=inst.eps):
                points.append((p, CIRCLE_CIRCLE))
    return points


def reference_enumerate_candidates(inst):
    """``oracle.enumerate_candidates`` by ``reference_candidates``, as one
    block."""
    points = [p for p, _ in reference_candidates(inst)]
    yield (np.array([p.x for p in points], dtype=float),
           np.array([p.y for p in points], dtype=float))


def all_tangent_lines(inst):
    """Every outer tangent line of every disc pair, one entry per line."""
    r = inst.r
    lines = []
    for i in range(inst.n):
        ci = Circle(inst.customers[i].site, r)
        for j in range(i + 1, inst.n):
            cj = Circle(inst.customers[j].site, r)
            lines.extend(outer_tangents(ci, cj, eps=inst.eps))
    return lines


def line_breakpoints(inst, L, extra_lines=()):
    """Brute-force breakpoints of L: tangent crossings and circle crossings.

    Returns a list of (point, label) pairs, one entry per geometric
    crossing.
    """
    out = []
    r = inst.r
    for k, t in enumerate(all_tangent_lines(inst)):
        p = line_line_intersection(L, t)
        if p is not None:
            out.append((p, "tangent-%d" % k))
    for i in range(inst.n):
        for p in line_circle_intersections(L, Circle(inst.customers[i].site, r), eps=inst.eps):
            out.append((p, "circle-%d" % i))
    for k, e in enumerate(extra_lines):
        p = line_line_intersection(L, e)
        if p is not None:
            out.append((p, "extra-%d" % k))
    return out


def falsify(inst, loss, seed, samples=20_000, rounds=12, keep=50, children=40):
    """Look for a leader point whose follower value is below ``loss``
    without trusting the candidate theorem.

    Draws ``samples`` uniform points over the bounding box of the sites,
    then, for ``rounds`` rounds, gives each of the ``keep`` best points
    seen so far ``children`` Gaussian children, the spread starting at an
    eighth of the box's longer side and halving every round.  Every value
    comes from ``medianoid.sweep(..., losses=True)``, whose losses are
    exact sums, so comparing them with ``loss`` is exact.  Returns the least
    value sampled and its point when it is below ``loss``, else ``None``;
    deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([inst.xs.min(), inst.ys.min()])
    hi = np.array([inst.xs.max(), inst.ys.max()])
    spread = max(float(np.max(hi - lo)), 1.0) / 8.0

    def values(xy):
        return sweep(inst, xy[:, 0], xy[:, 1], losses=True)

    xy = rng.uniform(lo, hi, size=(samples, 2))
    vals = values(xy)
    for _ in range(rounds):
        best = np.argsort(vals, kind="stable")[:keep]
        kids = np.repeat(xy[best], children, axis=0)
        kids += rng.normal(0.0, spread, size=kids.shape)
        xy = np.concatenate([xy, kids])
        vals = np.concatenate([vals, values(kids)])
        spread /= 2.0
    k = int(np.argmin(vals))
    if vals[k] < loss:
        return float(vals[k]), Point(*xy[k].tolist())
    return None


def brute_candidate_points(inst):
    """Candidate optima: pairwise crossings of tangents and circles, plus sites."""
    pts = [c.site for c in inst.customers]
    r = inst.r
    tangents = all_tangent_lines(inst)
    circles = [Circle(c.site, r) for c in inst.customers]
    for a in range(len(tangents)):
        for b in range(a + 1, len(tangents)):
            p = line_line_intersection(tangents[a], tangents[b])
            if p is not None:
                pts.append(p)
        for c in circles:
            pts.extend(line_circle_intersections(tangents[a], c, eps=inst.eps))
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            pts.extend(circle_circle_intersections(circles[a], circles[b], eps=inst.eps))
    return pts


def brute_values(inst, points=None):
    """(point, follower value) for every brute candidate, or for ``points``."""
    if points is None:
        points = brute_candidate_points(inst)
    return [(p, solve_medianoid(inst, p).weight_loss) for p in points]


def brute_minimum(inst, keep=None, values=None):
    """Minimum follower value over all brute candidates passing ``keep``."""
    if values is None:
        values = brute_values(inst)
    best = None
    for p, w in values:
        if keep is not None and not keep(p):
            continue
        if best is None or w < best:
            best = w
    return best


def t_along(L, p):
    """Signed parameter of p projected onto L's direction."""
    ux, uy = L.direction
    return (p.x - L.anchor.x) * ux + (p.y - L.anchor.y) * uy


def expected_positions(inst, L, extra_lines=()):
    """Brute multiset of breakpoint positions along ``L``: every tangent
    and extra-line crossing once, circle crossings once per point."""
    return sorted(t_along(L, p) for p, _label in line_breakpoints(inst, L, extra_lines))


def scan_vertical_line(inst, frame, L):
    """Classify every breakpoint of a vertical line by its wedge.

    Returns a list of (t, point, result, kind) sorted by t, where kind is
    a wedge classification or "strong".  The frame's auxiliary lines are
    included so both anchor kinds always exist.
    """
    X = L.anchor.x
    rows = []
    for p, _label in line_breakpoints(inst, L, extra_lines=frame_lines(frame)):
        res = solve_medianoid(inst, p)
        if res.strong_centroid:
            kind = "strong"
        else:
            kind = classify_wedge_on_vertical(res.wedge, X)
        rows.append((p.y - L.anchor.y, p, res, kind))
    rows.sort(key=lambda row: row[0])
    return rows


def vertical_anchors(rows):
    """Lowest downward and highest upward row of a vertical-line scan."""
    downs = [r for r in rows if r[3] == DOWNWARD]
    ups = [r for r in rows if r[3] == UPWARD]
    return min(downs, key=lambda r: r[0]), max(ups, key=lambda r: r[0])


def vertical_through_box(rng, frame):
    """A vertical line with x strictly inside the frame's box."""
    margin = 1e-3 * max(1.0, frame.xmax - frame.xmin)
    x = rng.uniform(frame.xmin + margin, frame.xmax - margin)
    return DirectedLine.vertical(x)


NO_CAPTURE = "no direction at the anchor captures the worse anchor's value"


def decision_outcome(inst, idx, x, hint=None):
    """What ``vprune.decide`` makes of the vertical line at ``x`` with the
    ordinate interval ``hint``: its record, ``("certified", loss)``, or
    ``("raised", NO_CAPTURE)`` for the known near-tangency failure."""
    try:
        return decide(inst, idx, x, Telemetry(), hint)
    except CertifiedOptimum as cert:
        return ("certified", cert.weight_loss)
    except RuntimeError as err:
        if str(err) != NO_CAPTURE:
            raise
        return ("raised", NO_CAPTURE)


def accepted_instance(rng, n, R):
    """``rivalloc gen``'s instance of n customers, separation R and range
    2n, at the first seed from ``rng`` that the general-position check
    accepts."""
    while True:
        inst = generate_instance(n, rng.randrange(1 << 30), r=R, coord_range=2 * n)
        if general_position_violation(inst) is None:
            return inst


def anchor_hints(rng, idx, x, anchors):
    """Eight ordinate intervals for a decision at ``x`` whose unhinted
    search settled on the ordinates ``anchors`` (random ones in the
    line's span when None): the anchors themselves, a third of their gap
    inside them, a little and a lot wider, a single ordinate at the
    upward anchor and at random, and wholly above and wholly below every
    position of the line."""
    P = vertical_breakpoints(idx, x)
    bottom, top = float(P.min()), float(P.max())
    span = top - bottom
    if anchors is None:
        anchors = sorted(rng.uniform(bottom, top) for _ in range(2))
    t_up, t_down = anchors
    gap = (t_down - t_up) / 3.0
    y = rng.uniform(bottom, top)
    return [
        (t_up, t_down),
        (t_up + gap, t_down - gap),
        (t_up - rng.uniform(0.0, 1e-3) * span, t_down + rng.uniform(0.0, 1e-3) * span),
        (t_up - rng.uniform(0.0, 1.0) * span, t_down + rng.uniform(0.0, 1.0) * span),
        (t_up, t_up),
        (y, y),
        (top + 1.0, top + 1.0 + span),
        (bottom - 1.0 - span, bottom - 1.0),
    ]


def non_horizontal_line(rng, spread=20.0):
    ang = rng.uniform(0.15, math.pi - 0.15)
    return DirectedLine(Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread)), ang)


def reference_general_position_violation(inst):
    """The O(n^3) pair and triple loops that ``general_position_violation``
    vectorises; the vectorised check must return the same message."""
    eps = inst.eps
    pts = [c.site for c in inst.customers]
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i].x - pts[j].x) <= eps:
                return (
                    f"customers {i} and {j} share x coordinate "
                    f"({pts[i].x} vs {pts[j].x})"
                )
            if abs(pts[i].y - pts[j].y) <= eps:
                return (
                    f"customers {i} and {j} share y coordinate "
                    f"({pts[i].y} vs {pts[j].y})"
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if collinear(pts[i], pts[j], pts[k], eps):
                    return f"customers {i}, {j}, {k} are collinear"
    return None


def reference_duplicate_angle(inst):
    """The per-customer loop that ``AngularIndex`` once ran as its input
    check: the message of the first customer around which two others lie
    within ``ANGLE_TOL`` in polar angle, or None."""
    n = inst.n
    dx = inst.xs[None, :] - inst.xs[:, None]
    dy = inst.ys[None, :] - inst.ys[:, None]
    ang = np.arctan2(dy, dx) % TWO_PI
    ang[ang >= TWO_PI] = 0.0
    all_idx = np.arange(n)
    for i in range(n if n > 2 else 0):
        js = np.delete(all_idx, i)
        a = ang[i, js]
        srt = np.argsort(a, kind="stable")
        gaps = np.diff(a[srt])
        k = int(np.argmin(gaps))
        if gaps[k] < ANGLE_TOL:
            return (
                "customers %d and %d share the polar angle around "
                "customer %d" % (int(js[srt[k]]), int(js[srt[k + 1]]), i)
            )
    return None


def reference_tangent_crossings(idx, line):
    """The per-pair loop that ``linesearch._position_pass`` vectorises: the
    crossing position along the upward ``line`` of every stored tangent
    line whose crossing denominator ``ux*nx + uy*ny`` is above
    ``ANGLE_TOL`` in magnitude, the others being parallel to the line."""
    ux, uy = line.direction
    ax, ay = line.anchor
    nxs, nys, offs = idx.lines
    ts: List[float] = []
    for i in range(idx.n):
        for j in range(idx.n):
            if i == j:
                continue
            k = table_column(idx, i, j)
            nx, ny = nxs[k], nys[k]
            den = ux * nx + uy * ny
            if abs(den) > ANGLE_TOL:
                ts.append((offs[k] - (ax * nx + ay * ny)) / den)
    return np.array(ts, dtype=float)


def table_first_max_capture(inst, vx, vy, thetas):
    """The table that ``vprune._first_max_capture`` builds in blocks: every
    direction against every customer as one (directions x customers) array,
    each row's closed capture summed by ``np.sum``, the first maximum kept."""
    dots = np.outer(np.cos(thetas), vx) + np.outer(np.sin(thetas), vy)
    captures = np.sum(np.where(dots >= inst.r - inst.closed_tol, inst.ws, 0.0), axis=1)
    k = int(np.argmax(captures))
    return k, float(captures[k])


def reference_explicit_crossings(idx, line):
    """The per-customer loop that ``linesearch._circle_positions``
    vectorises: circle crossing positions along the upward ``line``."""
    inst = idx.inst
    r = inst.r
    tol = inst.eps * max(1.0, r)
    ux, uy = line.direction
    ax, ay = line.anchor
    ts: List[float] = []
    for u in range(idx.n):
        cx = idx.xs[u] - ax
        cy = idx.ys[u] - ay
        t0 = cx * ux + cy * uy
        perp = ux * cy - uy * cx
        disc = r * r - perp * perp
        if disc <= tol:
            if disc >= -tol:
                ts.append(t0)
            continue
        s = math.sqrt(disc)
        ts += (t0 - s, t0 + s)
    return np.array(ts, dtype=float)


def reference_disc_crossings(inst):
    """Every pair of discs through ``circle_circle_intersections``, in
    (i, j) order: the double loop ``geom.disc_crossings`` prefilters."""
    r = inst.r
    pts = []
    for i in range(inst.n):
        ci = Circle(inst.customers[i].site, r)
        for j in range(i + 1, inst.n):
            cj = Circle(inst.customers[j].site, r)
            pts += circle_circle_intersections(ci, cj, eps=inst.eps)
    return pts


def reference_sweep(inst, x) -> Optional[Tuple[list, float]]:
    """Every gap of the capture-arc arrangement at ``x`` as
    ``((begin, end), weight)``, and the largest weight, or ``None`` when no
    customer is capturable.

    The arcs are the block sweep's, computed with numpy one customer row
    at a time; the gaps run between consecutive distinct endpoints of the
    arcs of positive width, the last one wrapping past 2 pi; a gap's weight
    is the ``math.fsum`` of the weights captured at its midpoint.
    """
    r = inst.r + inst.eps
    dx = inst.xs - x.x
    dy = inst.ys - x.y
    phi = np.arccos(r / np.maximum(np.hypot(dx, dy), r))
    begin = np.mod(np.arctan2(dy, dx) - phi, TWO_PI)
    width = 2.0 * phi
    end = np.mod(begin + width, TWO_PI)
    real = width > 0.0
    if not real.any():
        return None
    uniq = np.unique(np.concatenate([begin[real], end[real]])).tolist()
    gaps = []
    for i, a in enumerate(uniq):
        b = uniq[i + 1] if i + 1 < len(uniq) else uniq[0] + TWO_PI
        mid = a + (b - a) / 2.0
        off = np.mod(mid - begin, TWO_PI)
        captured = inst.ws[(off > 0.0) & (off < width)]
        gaps.append(((a, b), math.fsum(captured.tolist())))
    return gaps, max(w for _, w in gaps)


def cover(ma_arcs):
    """The witness angle, and the begin and span of the covering interval,
    of the maximizing gaps ``ma_arcs`` in angular order, by a sequential
    scan: the reference for the array expressions of
    ``medianoid._covering``."""
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
        if between[i] > best_gap + ANGLE_TOL:
            best_gap = between[i]
            best_begin = nb
        elif abs(between[i] - best_gap) <= ANGLE_TOL and nb < best_begin:
            best_begin = nb
    return witness, best_begin, TWO_PI - best_gap


def scan_covering(rows, a, b, mid, k):
    """``medianoid._covering`` by the sequential scan ``cover``, row by
    row; it ignores ``mid`` and computes each witness itself."""
    bounds = np.searchsorted(rows, np.arange(k + 1)).tolist()
    scans = [cover(list(zip(a[lo:hi].tolist(), b[lo:hi].tolist())))
             for lo, hi in zip(bounds, bounds[1:])]
    return tuple(np.array(col) for col in zip(*scans))


def reference_generate_instance(n, seed, r=2.0, coord_range=50, weight_range=10):
    """``cli.generate_instance`` with its pair loop: the same draws, and a
    candidate rejected when it is collinear with any pair of accepted
    sites."""
    rng = random.Random(seed)
    pts = []
    xs_used = set()
    ys_used = set()
    attempts = 0
    budget = 2000 * n + 10000
    customers = []
    while len(pts) < n:
        attempts += 1
        assert attempts <= budget, "generation gave up"
        x = rng.randint(-coord_range, coord_range)
        y = rng.randint(-coord_range, coord_range)
        if x in xs_used or y in ys_used:
            continue
        bad = False
        for a in range(len(pts)):
            xa, ya = pts[a]
            for b in range(a + 1, len(pts)):
                xb, yb = pts[b]
                if (xb - xa) * (y - ya) == (yb - ya) * (x - xa):
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        pts.append((x, y))
        xs_used.add(x)
        ys_used.add(y)
        w = rng.randint(1, weight_range)
        customers.append(Customer(Point(float(x), float(y)), float(w)))
    return Instance(customers, r)


def reference_inverted_pairs(lnx, lny, loff, lo, hi):
    """Every pair ``(i, j)``, i < j, of lines ``nx*x + ny*y = off`` whose
    order by y just right of ``lo`` differs from that just left of ``hi``,
    pair by pair.  Line i is below line j just right of a finite x when its
    y there is lower, or, on equal y, its slope is; just left of x when its
    y is lower or, on equal y, its slope is higher; far left when its slope
    is higher and far right when it is lower, on equal slopes when its y at
    0 is lower.  Lines equal in all of these go by index."""

    def below(i, j, x, right):
        si, sj = -lnx[i] / lny[i], -lnx[j] / lny[j]
        if math.isinf(x):
            if si != sj:
                return (si < sj) == (x > 0)
            yi, yj = loff[i] / lny[i], loff[j] / lny[j]
            return yi < yj if yi != yj else i < j
        yi = (loff[i] - lnx[i] * x) / lny[i]
        yj = (loff[j] - lnx[j] * x) / lny[j]
        if yi != yj:
            return yi < yj
        if si != sj:
            return (si < sj) == right
        return i < j

    m = len(lnx)
    return {
        (i, j) for i in range(m) for j in range(i + 1, m)
        if below(i, j, lo, True) != below(i, j, hi, False)
    }


def line_crossing_xs(lnx, lny, loff):
    """Every crossing abscissa of two lines ``nx*x + ny*y = off``, pair by
    pair, by the expression LT's crossing batches use; a pair with
    ``|den| <= ANGLE_TOL`` is parallel and never crosses."""
    xs = []
    for i in range(len(lnx)):
        for j in range(i + 1, len(lnx)):
            den = lnx[j] * lny[i] - lnx[i] * lny[j]
            if abs(den) > ANGLE_TOL:
                xs.append((loff[j] * lny[i] - loff[i] * lny[j]) / den)
    return xs


def reference_circle_crossings(lnx, lny, loff, inst, lo, hi):
    """The full line-by-disc scan that LM's block search narrows: every
    ``(line, disc, x)`` with the crossing abscissa x of the line and the
    disc boundary strictly inside (lo, hi), counted as
    ``line_circle_intersections`` counts them (two points, or the foot
    point within ``tol`` of tangency), pair by pair."""
    r = inst.r
    tol = inst.eps * max(1.0, r)
    out = set()
    for k in range(len(lnx)):
        nx, ny, off = float(lnx[k]), float(lny[k]), float(loff[k])
        for u in range(inst.n):
            cx, cy = float(inst.xs[u]), float(inst.ys[u])
            s = off - nx * cx - ny * cy
            d = r * r - s * s
            if d < -tol:
                continue
            foot = cx + s * nx
            if d > tol:
                h = math.sqrt(d) * ny
                xs = [foot - h, foot + h]
            else:
                xs = [foot]
            out.update((k, u, x) for x in xs if lo < x < hi)
    return out


def candidates_inside(inst, cands, tags, slab):
    """The candidates ``(point, tag)`` of the families ``tags`` more than
    ``inst.eps`` inside ``slab``."""
    eps = inst.eps
    return [
        (p.x, p.y, tag) for p, tag in cands
        if tag in tags and slab.lo + eps < p.x < slab.hi - eps
    ]


# Per open ``traced_peak`` call, innermost last: [live at its start, the
# largest traced memory seen during it so far].
_TRACED = []


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: ``peak`` is the most traced memory, in bytes,
    that the call held above what was live when it started.

    Calls nest: an inner call resets tracemalloc's peak, so the peak each
    call saw is folded into every enclosing one.  The outermost call starts
    and stops tracemalloc unless it is already tracing.  A peak repeats only
    to a few KB: one certify-large solve (n=200, seed 2) peaked at
    1,644,585-1,647,711 B over three fresh processes of the same code, so
    compare peaks with a margin of that size (about 0.3%), not bitwise."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    live, peak = tracemalloc.get_traced_memory()
    for frame in _TRACED:
        frame[1] = max(frame[1], peak)
    tracemalloc.reset_peak()
    frame = [live, live]
    _TRACED.append(frame)
    try:
        out = fn(*args)
    finally:
        _TRACED.pop()
        frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
        for outer in _TRACED:
            outer[1] = max(outer[1], frame[1])
        if started:
            tracemalloc.stop()
    return out, frame[1] - frame[0]


def reference_angular_table(inst):
    """``AngularIndex.lines`` as a full-table build makes it: n x n offset
    temporaries, ``d = sqrt(dx*dx + dy*dy)``, the unit normal
    ``(dy/d, -dx/d)`` and the offset ``x*nx + y*ny + r``, the diagonal
    dropped by one reshape, then the frame's two lines."""
    n, xs, ys = inst.n, inst.xs, inst.ys
    dx = xs[None, :] - xs[:, None]
    dy = ys[None, :] - ys[:, None]
    d = np.sqrt(dx * dx + dy * dy)
    with np.errstate(invalid="ignore"):  # the diagonal's 0/0
        nx, ny = dy / d, -dx / d
    off = xs[:, None] * nx + ys[:, None] * ny + inst.r
    m = n * (n - 1)
    lines = np.empty((3, m + 2))
    for row, full in zip(lines, (nx, ny, off)):
        row[:m] = full.ravel()[1:].reshape(n - 1, n + 1)[:, :n].ravel()
    frame = bounding_frame(inst)
    lines[:, m:] = ((0.0, 0.0), (1.0, 1.0), (frame.y_top, frame.y_btm))
    return lines


def reference_end_order(lnx, lny, loff, x, right):
    """LT's order of lines by y beside the finite ``x`` as the int64 build
    made it: a float key, its argsort, and ties found by a float
    ``np.diff``."""
    key = (loff - lnx * x) / lny
    order = np.argsort(key)
    eq = np.diff(key[order]) == 0.0
    if eq.any():
        tied = np.append(eq, False) | np.insert(eq, 0, False)
        sub = order[tied]
        tie = (-lnx[sub] if right else lnx[sub]) / lny[sub]
        order[tied] = sub[np.lexsort((sub, tie, key[sub]))]
    return order


def reference_exhaust(xs, slab, decide_at):
    """``centroid._exhaust`` as the copy-and-mask build ran it: select the
    lower median of a copy, then mask the whole array to the slab."""
    while len(xs):
        k = (len(xs) - 1) // 2
        decide_at(float(np.partition(xs, k)[k]))
        xs = xs[(xs > slab.lo) & (xs < slab.hi)]
