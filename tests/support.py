"""Shared brute-force helpers for the test suite.

Everything here recomputes geometry from first principles (tangent lines,
circle crossings, dense direction scans) so the tests compare the library
against independently derived answers rather than against itself.
"""

import math
import random
from typing import List, Tuple

import numpy as np

from rivalloc.cli import generate_instance
from rivalloc.geom import (
    TWO_PI,
    Circle,
    DirectedLine,
    Point,
    collinear,
    line_circle_intersections,
    line_line_intersection,
    outer_tangents,
)
from rivalloc.medianoid import (
    DOWNWARD,
    UPWARD,
    classify_wedge_on_vertical,
    solve_medianoid,
)


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


def bundle_sequences(bundle):
    """Every live sequence of a breakpoint bundle as its list of positions,
    in sequence order (tangent sequences first, then the explicit one)."""
    lens = bundle.shi - bundle.slo
    seqs = [[] for _ in lens]
    for k in range(int(lens.max(initial=0))):
        ts = bundle._tan_t(np.full_like(lens, k))
        for s in np.flatnonzero(k < lens):
            seqs[s].append(float(ts[s]))
    seqs.append(bundle.ets[bundle.elo:bundle.ehi].tolist())
    return [s for s in seqs if s]


def sequence_positions(bundle):
    """Sorted multiset of breakpoint parameters over all sequences."""
    return sorted(t for s in bundle_sequences(bundle) for t in s)


def expected_positions(inst, L, extra_lines=()):
    """Brute multiset: every tangent crossing twice, circle crossings once.

    Tangent crossings appear once in each endpoint customer's neighbour
    order, which is what makes equal-value drops in the prune loop safe.
    """
    ts = []
    for p, label in line_breakpoints(inst, L, extra_lines):
        t = t_along(L, p)
        ts.append(t)
        if label.startswith("tangent"):
            ts.append(t)
    return sorted(ts)


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
