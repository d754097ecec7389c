"""Shared brute-force helpers for the test suite.

Everything here recomputes geometry from first principles (tangent lines,
circle crossings, dense direction scans) so the tests compare the library
against independently derived answers rather than against itself.
"""

import math
import random
from typing import List, Optional, Tuple

import numpy as np

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
from rivalloc.linesearch import PARALLEL_EPS
from rivalloc.medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    CoveringInterval,
    capture_arc,
    solve_medianoid,
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


def arcs_contain(ma, theta):
    """Whether the angle lies in one of the open arcs of an ``ArcSet``."""
    return any(arc_contains(a, theta) for a in ma.arcs)


def covering_contains(ca, theta, tol=1e-12):
    """Whether the angle lies in the closed ``CoveringInterval``, up to
    ``tol``."""
    t = normalize_angle(theta)
    if ca.begin - tol <= t <= ca.end + tol:
        return True
    t += TWO_PI
    return ca.begin - tol <= t <= ca.end + tol


def wedge_contains(w, p, tol=0.0):
    """Whether the point lies in the closed ``Wedge``, up to ``tol``."""
    dx = p.x - w.apex.x
    dy = p.y - w.apex.y
    ub = unit_vector(w.theta_b)
    ue = unit_vector(w.theta_e)
    return (dx * ub[0] + dy * ub[1] >= -tol) and (dx * ue[0] + dy * ue[1] >= -tol)


def weight_at_angle(inst, x, theta):
    """Total weight won by the follower at angle theta."""
    total = 0.0
    for c in inst.customers:
        arc = capture_arc(c, x, inst.R, eps=inst.eps)
        if arc is not None and arc_contains(arc, theta):
            total += c.weight
    return total


def _classify_from_ca(ca):
    """Direction of the wedge relative to the vertical line through its apex.

    The covering interval position decides it: wrapping angle 0 means the
    wedge opens rightward, containing pi means leftward, otherwise the
    interval sits in the upper or lower half circle and the wedge opens
    upward or downward.
    """
    if covering_contains(ca, 0.0):
        return SIDEWARD_RIGHT
    if covering_contains(ca, math.pi):
        return SIDEWARD_LEFT
    mid = normalize_angle(ca.begin + ca.span / 2.0)
    return UPWARD if 0.0 < mid < math.pi else DOWNWARD


def classify_wedge_on_vertical(w, line_x, tol=1e-9):
    """Wedge direction on the vertical line through the apex, read off its
    covering interval; ``classify_wedge_on_line`` must agree."""
    if abs(w.apex.x - line_x) > tol * max(1.0, abs(w.apex.x)):
        raise ValueError("wedge apex does not lie on the line")
    ca = CoveringInterval(begin=w.theta_b, end=w.theta_e, span=w.theta_e - w.theta_b)
    return _classify_from_ca(ca)


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
    for p, _label in line_breakpoints(inst, L, extra_lines=(frame.t_top, frame.t_btm)):
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


def reference_lm_descriptors(idx):
    """The per-pair loop that ``_LMDescriptors`` vectorises.

    Returns one tuple ``(v, u, branch, lo, hi, increasing, x3, th0, rho)``
    per descriptor, in the loop's order.
    """
    inst = idx.inst
    n = idx.n
    r = inst.r
    out = []

    def add(v, u, br, lo, hi, incr, x3=0.0, th0=0.0, rho=1.0):
        out.append((v, u, br, lo, hi, incr, x3, th0, rho))

    half_pi = math.pi / 2.0
    for v in range(n):
        row = idx.angles2[v]
        if len(row) == 0:
            continue
        # Touch points of this customer's own tangent family on its own
        # disc boundary: x = site_x + r sin(alpha).
        for blo, bhi, incr in (
            (half_pi, 3.0 * half_pi, False),
            (3.0 * half_pi, 5.0 * half_pi, True),
        ):
            lo_i = int(np.searchsorted(row, blo, side="right"))
            hi_i = int(np.searchsorted(row, bhi, side="right"))
            if hi_i > lo_i:
                add(v, v, 0, lo_i, hi_i, incr)
        for u in range(n):
            if u == v:
                continue
            th0 = float(idx.ang[v, u])
            rho = float(idx.dist[v, u])
            # The tangent toward u touches u's disc boundary.
            add(v, u, 3, 0, 1, True, x3=idx.xs[u] + r * math.sin(th0))
            if rho > 2.0 * r:
                half = math.asin(2.0 * r / rho)
                intervals = (
                    (th0, th0 + half),
                    (th0 + math.pi - half, th0 + math.pi),
                )
                flips: Tuple[float, ...] = ()
            else:
                intervals = ((th0, th0 + math.pi),)
                psa = math.asin(min(1.0, rho / (2.0 * r)))
                flips = (th0 + psa, th0 + math.pi - psa)
            splits: List[float] = list(flips)
            for px in (idx.xs[u] + r, idx.xs[u] - r):
                a = px - idx.xs[v]
                b = idx.ys[u] - idx.ys[v]
                rab = math.hypot(a, b)
                if rab <= r:
                    continue
                dw = math.asin(r / rab)
                w0 = math.atan2(b, a)
                for c in (w0 + dw, w0 + math.pi - dw):
                    cc = th0 + ((c - th0) % TWO_PI)
                    if th0 < cc < th0 + math.pi:
                        splits.append(cc)
            splits.sort()
            for elo, ehi in intervals:
                bounds = [elo]
                bounds.extend(s for s in splits if elo < s < ehi)
                bounds.append(ehi)
                for bi in range(len(bounds) - 1):
                    blo, bhi = bounds[bi], bounds[bi + 1]
                    if bhi - blo <= 1e-12:
                        continue
                    lo_i = int(np.searchsorted(row, blo, side="right"))
                    hi_i = int(np.searchsorted(row, bhi, side="right"))
                    if hi_i <= lo_i:
                        continue
                    amid = (blo + bhi) / 2.0
                    h = rho * math.sin(amid - th0) - r
                    s = math.sqrt(max(r * r - h * h, 1e-300))
                    hp = rho * math.cos(amid - th0)
                    delta = math.asin(max(-1.0, min(1.0, h / r)))
                    for br in (1, 2):
                        if br == 1:
                            gamma = amid + math.pi - delta
                            dgamma = 1.0 - hp / s
                        else:
                            gamma = amid + delta
                            dgamma = 1.0 + hp / s
                        dx = -r * math.sin(gamma) * dgamma
                        add(v, u, br, lo_i, hi_i, dx > 0.0,
                            th0=th0, rho=rho)
    return out


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


def reference_explicit_crossings(idx, line, extra_lines):
    """The per-customer loop that ``_explicit_crossings`` vectorises:
    circle and extra-line crossing positions along the upward ``line``."""
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
    for extra in extra_lines:
        evx, evy = extra.direction
        cross = ux * evy - uy * evx
        if abs(cross) <= PARALLEL_EPS:
            continue
        dx = extra.anchor.x - ax
        dy = extra.anchor.y - ay
        ts.append((dx * evy - dy * evx) / cross)
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


def reference_sweep_np(inst, x) -> Optional[Tuple[list, float]]:
    """The numpy medianoid sweep that returns every gap of the endpoint
    arrangement as ``((begin, end), weight)``, with the maximum weight."""
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
    mid0 = uniq[0] + (uniq[1] - uniq[0]) / 2.0 if m > 1 else uniq[0] + math.pi
    off = np.mod(mid0 - begin, TWO_PI)
    w0 = float(wm[(off > 0.0) & (off < width)].sum())
    weights = np.empty(m)
    weights[0] = w0
    if m > 1:
        weights[1:] = w0 + np.cumsum(gd[1:])
    best = float(weights.max())
    gaps = []
    for i in range(m):
        end = uniq[i + 1] if i + 1 < m else uniq[0] + TWO_PI
        gaps.append(((float(uniq[i]), float(end)), float(weights[i])))
    return gaps, best


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


def remaining_xs(descs):
    """Abscissas of every crossing an ``_LMDescriptors`` still holds,
    descriptor by descriptor."""
    lens = descs.dhi - descs.dlo
    d = np.repeat(np.arange(len(lens)), lens)
    k = np.arange(len(d)) - np.repeat(np.cumsum(lens) - lens, lens)
    return descs._x_at(k, d).tolist()


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
