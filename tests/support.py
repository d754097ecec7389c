"""Shared brute-force helpers for the test suite.

Everything here recomputes geometry from first principles (tangent lines,
circle crossings, dense direction scans) so the tests compare the library
against independently derived answers rather than against itself.
"""

import math
import random
from typing import List, Optional, Tuple

import numpy as np

from rivalloc.centroid import VERTICAL_EPS
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    ANGLE_EPS,
    TWO_PI,
    Circle,
    Customer,
    DirectedLine,
    Instance,
    Point,
    circle_circle_intersections,
    collinear,
    line_circle_intersections,
    line_line_intersection,
    normalize_angle,
    outer_tangents,
    unit_vector,
)
from rivalloc.linesearch import ANGLE_DUP_EPS, PARALLEL_EPS, _evaluations, _lockstep
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    solve_medianoid,
    solve_medianoid_many,
)


def is_vertical(L, tol=ANGLE_EPS):
    return abs(math.cos(L.angle)) <= tol


def is_horizontal(L, tol=ANGLE_EPS):
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


def evaluations(inst, line, P, telemetry):
    """The evaluations ``(t, point, result, lean)`` of the exact-median
    search of the positions ``P`` along the upward ``line``, in order; a
    strong centroid raises ``CertifiedOptimum``."""
    [done] = _lockstep(inst, [_evaluations(line, P, telemetry, "strong centroid")])
    return done


def frame_lines(frame):
    """The frame's two horizontal auxiliary lines, top first."""
    return DirectedLine.horizontal(frame.y_top), DirectedLine.horizontal(frame.y_btm)


def seeded_instance(seed, n_lo=3, n_hi=9, coord_range=30, r_choices=(2.0, 4.0, 6.0)):
    """A deterministic random instance; geometry drawn on an integer grid."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    R = rng.choice(r_choices)
    return generate_instance(n, seed=seed, r=R, coord_range=coord_range)


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
    comes from ``solve_medianoid_many(..., losses=True)``, whose losses are
    exact sums, so comparing them with ``loss`` is exact.  Returns the least
    value sampled and its point when it is below ``loss``, else ``None``;
    deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([inst.xs.min(), inst.ys.min()])
    hi = np.array([inst.xs.max(), inst.ys.max()])
    spread = max(float(np.max(hi - lo)), 1.0) / 8.0

    def values(xy):
        points = [Point(x, y) for x, y in xy.tolist()]
        return np.array(list(solve_medianoid_many(inst, points, losses=True)))

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
            from rivalloc.geom import circle_circle_intersections

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
    """The per-customer loop that ``AngularIndex`` vectorises: the message
    of the first customer around which two others lie within
    ``ANGLE_DUP_EPS`` in polar angle, or None."""
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
        if gaps[k] < ANGLE_DUP_EPS:
            return (
                "customers %d and %d share the polar angle around "
                "customer %d" % (int(js[srt[k]]), int(js[srt[k + 1]]), i)
            )
    return None


def reference_tangent_crossings(idx, line):
    """The per-pair loop that ``breakpoint_sequences`` vectorises: the
    crossing position along the upward ``line`` of every stored tangent
    line whose direction the C library's sine does not call parallel."""
    ux, uy = line.direction
    ax, ay = line.anchor
    ts: List[float] = []
    for i in range(idx.n):
        for j in range(idx.n):
            if i == j or abs(math.sin(idx.ang[i, j] - line.angle)) <= PARALLEL_EPS:
                continue
            k = i * idx.n + j
            nx, ny = idx.tan_nx[k], idx.tan_ny[k]
            ts.append((idx.tan_off[k] - (ax * nx + ay * ny)) / (ux * nx + uy * ny))
    return np.array(ts, dtype=float)


def reference_explicit_crossings(idx, line):
    """The per-customer loop that ``_explicit_crossings`` vectorises:
    circle crossing positions along the upward ``line``."""
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
    (i, j) order: the double loop ``centroid._disc_crossings`` prefilters."""
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
    ``|den| <= VERTICAL_EPS`` is parallel and never crosses."""
    xs = []
    for i in range(len(lnx)):
        for j in range(i + 1, len(lnx)):
            den = lnx[j] * lny[i] - lnx[i] * lny[j]
            if abs(den) > VERTICAL_EPS:
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


def candidates_inside(inst, cands, tags, slab, direct_xs):
    """The candidates ``(point, tag)`` of the families ``tags`` more than
    ``inst.eps`` inside ``slab``, less those on a vertical line at one of
    ``direct_xs`` (searched directly)."""
    eps = inst.eps
    return [
        (p.x, p.y, tag) for p, tag in cands
        if tag in tags and slab.lo + eps < p.x < slab.hi - eps
        and all(abs(p.x - x) > eps for x in direct_xs)
    ]
