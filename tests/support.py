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
    TWO_PI,
    Circle,
    DirectedLine,
    Point,
    circle_circle_intersections,
    collinear,
    line_circle_intersections,
    line_line_intersection,
    outer_tangents,
)
from rivalloc.linesearch import PARALLEL_EPS
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
    cuts = np.cumsum(bundle.slen)[:-1]
    seqs = [ts.tolist() for ts in np.split(live_positions(bundle), cuts)]
    seqs.append(bundle.ets[bundle.elo:bundle.ehi].tolist())
    return [s for s in seqs if s]


def live_positions(bundle):
    """Positions of every live tangent element, window by window."""
    lens = bundle.slen
    s = np.repeat(np.arange(len(lens)), lens)
    k = np.arange(len(s)) - np.repeat(np.cumsum(lens) - lens, lens)
    return bundle._tan_t(k, s)


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


def reference_tangent_sequences(frame):
    """The per-customer loop that ``_tangent_sequences`` vectorises.

    Returns the window columns ``(v, side, lo, hi, rev)`` in the loop's
    ``(v, side, piece)`` order, with the loop's dtypes.
    """
    idx = frame.idx
    n = idx.n
    r = idx.inst.r
    up = frame.up_angle
    rows: List[Tuple[int, int, int, int, bool]] = []
    for v in range(n):
        relx = frame.ax - idx.xs[v]
        rely = frame.ay - idx.ys[v]
        q = relx * frame.nx_line + rely * frame.ny_line
        row = idx.angles2[v]
        for side in (1, -1):
            r_s = side * r
            c = min(1.0, max(-1.0, q / r_s))
            psi1 = math.acos(c)
            # Shared boundary values keep adjacent pieces exactly disjoint.
            b0 = up
            b1 = up + psi1
            b2 = up + math.pi
            b3 = up + TWO_PI - psi1
            b4 = up + TWO_PI
            pieces = (
                (b0, b1, "right"),
                (b1, b2, "left"),
                (b2, b3, "right"),
                (b3, b4, "left"),
            )
            for blo, bhi, hi_side in pieces:
                if bhi - blo <= PARALLEL_EPS:
                    continue
                lo_i = int(np.searchsorted(row, blo, side="right"))
                hi_i = int(np.searchsorted(row, bhi, side=hi_side))
                while lo_i < hi_i and abs(math.sin(row[lo_i] - up)) <= PARALLEL_EPS:
                    lo_i += 1
                while hi_i > lo_i and abs(math.sin(row[hi_i - 1] - up)) <= PARALLEL_EPS:
                    hi_i -= 1
                if hi_i <= lo_i:
                    continue
                psi_mid = (blo + bhi) / 2.0 - up
                slope = q - r_s * math.cos(psi_mid)
                rows.append((v, side, lo_i, hi_i, slope > 0.0))
    cols = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return (*cols[:4], cols[4].astype(bool))


class ReferenceBundle:
    """The per-step evaluation that ``_SequenceBundle``'s table of
    positions replaces: window s is ``[slo, shi)`` of customer ``sv``'s
    doubled neighbour order on side ``sside``, read backwards when
    ``srev``, and every evaluation gathers the canonical tangent triple and
    divides.  ``_tan_t``, ``_count_view``, ``middles`` and the cuts are that
    code verbatim."""

    def __init__(self, frame, cols, ets):
        self.frame = frame
        self.sv, self.sside, self.slo, self.shi, self.srev = cols
        self.ets = ets
        self.eneg = -ets
        self.elo = 0
        self.ehi = len(ets)

    def total_mass(self) -> int:
        return int(np.sum(self.shi - self.slo)) + self.ehi - self.elo

    def live_positions(self):
        """Positions of every live tangent element, window by window."""
        lens = self.shi - self.slo
        m = int(lens.max(initial=0))
        out = np.empty((len(lens), m))
        for k in range(m):
            out[:, k] = self._tan_t(np.full_like(lens, k))
        return out[np.arange(m)[None, :] < lens[:, None]]

    def _tan_t(self, pos: np.ndarray) -> np.ndarray:
        idx = self.frame.idx
        p = np.where(self.srev, self.shi - 1 - pos, self.slo + pos)
        p = np.clip(p, 0, idx.order2.shape[1] - 1)
        w = idx.order2[self.sv, p]
        lid = np.where(self.sside > 0, self.sv * idx.n + w, w * idx.n + self.sv)
        nx = idx.tan_nx[lid]
        ny = idx.tan_ny[lid]
        off = idx.tan_off[lid]
        num = off - (self.frame.ax * nx + self.frame.ay * ny)
        den = self.frame.ux * nx + self.frame.uy * ny
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    def _count_view(self, y: float, strict_gt: bool) -> np.ndarray:
        """Per tangent sequence: how many leading view elements satisfy
        t > y (strict_gt) or t >= y (otherwise)."""
        lens = self.shi - self.slo
        lo = np.zeros_like(lens)
        hi = lens.copy()
        while True:
            searching = lo < hi
            if not searching.any():
                break
            mid = (lo + hi) >> 1
            t = self._tan_t(mid)
            cond = (t > y) if strict_gt else (t >= y)
            lo = np.where(searching & cond, mid + 1, lo)
            hi = np.where(searching & ~cond, mid, hi)
        return lo

    def middles(self) -> Tuple[np.ndarray, np.ndarray]:
        lens = self.shi - self.slo
        act = lens > 0
        vals = self._tan_t(np.maximum(lens - 1, 0) // 2)[act]
        wts = lens[act].astype(float)
        ln = self.ehi - self.elo
        if ln > 0:
            vals = np.append(vals, self.ets[self.elo + (ln - 1) // 2])
            wts = np.append(wts, float(ln))
        return vals, wts

    def cut_keep_above(self, y: float) -> None:
        """Keep only breakpoints strictly above y; drop everything at or below."""
        c = self._count_view(y, strict_gt=True)
        self.slo = np.where(self.srev, self.shi - c, self.slo)
        self.shi = np.where(self.srev, self.shi, self.slo + c)
        g = int(np.searchsorted(self.eneg, -y, side="left"))
        self.ehi = self.elo + max(0, min(g, self.ehi) - self.elo)

    def cut_keep_below(self, y: float) -> None:
        """Keep only breakpoints strictly below y; drop everything at or above."""
        d = self._count_view(y, strict_gt=False)
        new_hi = np.where(self.srev, self.shi - d, self.shi)
        new_lo = np.where(self.srev, self.slo, self.slo + d)
        self.slo = np.minimum(new_lo, new_hi)
        self.shi = new_hi
        g = int(np.searchsorted(self.eneg, -y, side="right"))
        self.elo = min(max(g, self.elo), self.ehi)


def reference_explicit_sequence(frame, extra_lines):
    """The per-customer loop that ``_explicit_sequence`` vectorises:
    circle and extra-line crossing positions, decreasing."""
    idx = frame.idx
    inst = idx.inst
    r = inst.r
    tol = inst.eps * max(1.0, r)
    ts: List[float] = []
    for u in range(idx.n):
        cx = idx.xs[u] - frame.ax
        cy = idx.ys[u] - frame.ay
        t0 = cx * frame.ux + cy * frame.uy
        perp = frame.ux * cy - frame.uy * cx
        disc = r * r - perp * perp
        if disc <= tol:
            if disc >= -tol:
                ts.append(t0)
            continue
        s = math.sqrt(disc)
        ts += (t0 - s, t0 + s)
    for extra in extra_lines:
        evx, evy = extra.direction
        cross = frame.ux * evy - frame.uy * evx
        if abs(cross) <= PARALLEL_EPS:
            continue
        dx = extra.anchor.x - frame.ax
        dy = extra.anchor.y - frame.ay
        ts.append((dx * evy - dy * evx) / cross)
    return np.array(sorted(ts, reverse=True), dtype=float)


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
