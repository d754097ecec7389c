"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  Those
crossing points are never materialised here.  A breakpoint is its position
``t`` along the line.  Tangent crossings are described by implicit
sequences: contiguous windows of the angularly sorted neighbour lists, each
mapping index order to strictly monotone positions along the line.  The
positions come from one table per line, which holds the crossing position
of every canonical tangent line and is computed once when the line's
sequences are built; a search step only gathers from it.  Circle crossings
and injected extra lines form one small explicit sequence.

``_evaluations`` is the one search over a line's breakpoints.  It evaluates
the weighted median of the sequences' middle elements, yields the
evaluation with its ``lean`` and applies the cut itself: an upward wedge
keeps the positions above, a downward one those below, and a strong
centroid or a sideward wedge ends the search.  Each cut discards a
constant fraction of the remaining breakpoints.  ``local_optimum_on_line``
takes the line minimum from its evaluations, and the vertical-line
decision (``vprune``) takes its anchors from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    DegenerateInputError,
    DirectedLine,
    Instance,
    Point,
    _libm,
    normalize_angle,
)
from .medianoid import (
    DOWNWARD,
    UPWARD,
    WHOLE_LINE,
    MedianoidResult,
    classify_wedge_on_line,
    solve_medianoid,
)

# Angular separation below which a tangent direction is treated as parallel
# to the query line (its crossing is at infinity and carries no breakpoint).
PARALLEL_EPS = 1e-12

# Two neighbours closer than this in polar angle around a common customer
# make the sorted neighbour order ambiguous.
ANGLE_DUP_EPS = 1e-12

ORDINARY = "ordinary"
STRONG = "strong_centroid"


@dataclass(slots=True)
class Telemetry:
    """Counters shared by all stages of one solve.

    The fields are slots, so updating a counter that is not declared here
    raises ``AttributeError``.
    """

    medianoid_calls: int = 0
    decide_calls: int = 0
    lines_searched: int = 0
    prune_log: List[Tuple[int, int]] = field(default_factory=list)
    lt_wires: int = 0
    lt_rounds: int = 0  # crossing batches LT exhausted
    lt_oracle: int = 0
    lm_mass0: int = 0  # tangent-circle crossings inside the slab at LM start
    lm_rounds: int = 0
    lc_points: int = 0
    lc_steps: int = 0
    wall_time_s: float = 0.0
    certified: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        frac = 1.0
        for mass, pruned in self.prune_log:
            if mass > 0:
                frac = min(frac, pruned / mass)
        return {
            "medianoid_calls": self.medianoid_calls,
            "decide_calls": self.decide_calls,
            "lines_searched": self.lines_searched,
            "prune_iterations": len(self.prune_log),
            "prune_min_fraction": frac if self.prune_log else None,
            "lt_wires": self.lt_wires,
            "lt_rounds": self.lt_rounds,
            "lt_oracle": self.lt_oracle,
            "lm_mass0": self.lm_mass0,
            "lm_rounds": self.lm_rounds,
            "lc_points": self.lc_points,
            "lc_steps": self.lc_steps,
            "wall_time_s": self.wall_time_s,
            "certified": self.certified,
        }


class AngularIndex:
    """Per-customer angular neighbour orders plus canonical tangent storage.

    For every ordered pair ``(i, j)`` the tangent line lying at distance
    ``r`` to the right of the direction from ``i`` to ``j`` is stored once as
    ``(nx, ny, off)`` with unit normal ``n = (sin a, -cos a)`` and offset
    ``off = site_i . n + r``.  The left tangent of ``(i, j)`` is the same
    line as the stored right tangent of ``(j, i)``, so every evaluation of a
    tangent crossing goes through exactly one canonical parameter triple and
    repeated evaluations agree bitwise.
    """

    def __init__(self, inst: Instance) -> None:
        n = inst.n
        self.inst = inst
        self.n = n
        xs = self.xs = inst.xs
        ys = self.ys = inst.ys

        dx = xs[None, :] - xs[:, None]
        dy = ys[None, :] - ys[:, None]
        ang = np.arctan2(dy, dx) % TWO_PI
        ang[ang >= TWO_PI] = 0.0
        self.dist = np.hypot(dx, dy)
        np.fill_diagonal(ang, np.nan)
        self.ang = ang

        m = max(n - 1, 0)
        order = np.empty((n, m), dtype=np.int64)
        sorted_ang = np.empty((n, m), dtype=float)
        all_idx = np.arange(n)
        for i in range(n):
            js = np.delete(all_idx, i)
            a = ang[i, js]
            srt = np.argsort(a, kind="stable")
            o = js[srt]
            av = a[srt]
            if m > 1:
                gaps = np.diff(av)
                k = int(np.argmin(gaps))
                if gaps[k] < ANGLE_DUP_EPS:
                    raise DegenerateInputError(
                        "customers %d and %d share the polar angle around "
                        "customer %d" % (int(o[k]), int(o[k + 1]), i)
                    )
            order[i] = o
            sorted_ang[i] = av
        self.order2 = np.concatenate([order, order], axis=1)
        self.angles2 = np.concatenate([sorted_ang, sorted_ang + TWO_PI], axis=1)

        nx = np.sin(ang)
        ny = -np.cos(ang)
        off = xs[:, None] * nx + ys[:, None] * ny + inst.r
        self.tan_nx = nx.ravel()
        self.tan_ny = ny.ravel()
        self.tan_off = off.ravel()

    def tangent_line(self, i: int, j: int) -> DirectedLine:
        """The stored right tangent of the ordered pair as a directed line."""
        a = float(self.ang[i, j])
        anchor = Point(
            float(self.xs[i]) + self.inst.r * math.sin(a),
            float(self.ys[i]) - self.inst.r * math.cos(a),
        )
        return DirectedLine(anchor, a)


def build_angular_index(inst: Instance) -> AngularIndex:
    return AngularIndex(inst)


def upward_line(L: DirectedLine) -> DirectedLine:
    """The non-horizontal line ``L`` directed upward; breakpoint positions
    ``t`` are measured along it from ``L``'s anchor."""
    theta = normalize_angle(L.angle)
    if abs(math.sin(theta)) <= PARALLEL_EPS:
        raise ValueError("horizontal query line has no breakpoint order")
    up = theta if math.sin(theta) > 0.0 else normalize_angle(theta - math.pi)
    return DirectedLine(L.anchor, up)


class _LineFrame:
    """Precomputed data for one query line, shared by all its sequences."""

    def __init__(self, idx: AngularIndex, L: DirectedLine) -> None:
        self.idx = idx
        self.line = upward_line(L)
        self.up_angle = self.line.angle
        self.ux, self.uy = self.line.direction
        # Normal pointing to the geometric right of the upward direction.
        self.nx_line = self.uy
        self.ny_line = -self.ux
        self.ax = L.anchor.x
        self.ay = L.anchor.y


# Per piece of a side's turn of tangent directions: whether its upper
# bound is searched with ``<=`` (side "right") or ``<``.
_PIECE_HI_RIGHT = np.array([True, False, True, False])


def _count_le(rows: np.ndarray, vs: np.ndarray, q: np.ndarray,
              inclusive: np.ndarray) -> np.ndarray:
    """Per query: how many entries of the sorted row ``rows[vs]`` are
    ``<= q`` (``inclusive``) or ``< q``, as ``np.searchsorted`` with side
    "right" or "left" would count them, by one binary search over all
    queries.  ``a <= q`` is tested exactly as ``a < nextafter(q, inf)``."""
    m = rows.shape[1]
    q = np.where(inclusive, np.nextafter(q, np.inf), q)
    flat = rows.ravel()
    base = vs * m - 1
    count = np.zeros(len(q), dtype=np.int64)
    step = 1 << (m.bit_length() - 1) if m else 0
    while step:
        cand = count + step
        ok = (cand <= m) & (flat[base + np.minimum(cand, m)] < q)
        count = np.where(ok, cand, count)
        step >>= 1
    return count


def _tangent_sequences(frame: _LineFrame) -> Tuple[np.ndarray, ...]:
    """Window columns ``(v, side, lo, hi, rev)`` of the tangent sequences.

    Every customer ``v`` and side of the line has four pieces of tangent
    directions, bounded by ``up``, ``up + psi1``, ``up + pi``,
    ``up + 2 pi - psi1`` and ``up + 2 pi``; a piece's window is the run of
    ``v``'s doubled neighbour order whose angles fall inside it, with the
    directions parallel to the line trimmed off its ends.  The columns list
    the non-empty windows in ``(v, side, piece)`` order.
    """
    idx = frame.idx
    n = idx.n
    r = idx.inst.r
    up = frame.up_angle
    rows = idx.angles2
    q = (frame.ax - idx.xs) * frame.nx_line + (frame.ay - idx.ys) * frame.ny_line
    r_s = np.array([r, -r])
    c = np.minimum(1.0, np.maximum(-1.0, q[:, None] / r_s))
    psi1 = _libm(math.acos, c.ravel()).reshape(n, 2)
    # Shared boundary values keep adjacent pieces exactly disjoint.
    b = np.empty((n, 2, 5))
    b[:, :, 0] = up
    b[:, :, 1] = up + psi1
    b[:, :, 2] = up + math.pi
    b[:, :, 3] = (up + TWO_PI) - psi1
    b[:, :, 4] = up + TWO_PI
    blo, bhi = b[:, :, :-1], b[:, :, 1:]
    keep = bhi - blo > PARALLEL_EPS
    v, side, piece = np.nonzero(keep)
    blo, bhi = blo[keep], bhi[keep]
    k = len(v)
    lo_hi = _count_le(
        rows, np.concatenate([v, v]), np.concatenate([blo, bhi]),
        np.concatenate([np.ones(k, dtype=bool), _PIECE_HI_RIGHT[piece]]),
    )
    lo, hi = lo_hi[:k], lo_hi[k:]
    # Trim tangent directions parallel to the line off both window ends.
    # numpy's sin is within far less than PARALLEL_EPS of the C library's,
    # so its looser test only preselects the entries the C library tests.
    for end in (0, 1):
        s = np.arange(k)
        while True:
            s = s[lo[s] < hi[s]]
            d = rows[v[s], lo[s] if end == 0 else hi[s] - 1] - up
            par = np.abs(np.sin(d)) <= 2.0 * PARALLEL_EPS
            par[par] = np.abs(_libm(math.sin, d[par])) <= PARALLEL_EPS
            s = s[par]
            if not len(s):
                break
            if end == 0:
                lo[s] += 1
            else:
                hi[s] -= 1
    live = hi > lo
    v, side, lo, hi = v[live], side[live], lo[live], hi[live]
    psi_mid = (blo[live] + bhi[live]) / 2.0 - up
    slope = q[v] - r_s[side] * _libm(math.cos, psi_mid)
    return v, 1 - 2 * side, lo, hi, slope > 0.0


def _explicit_sequence(
    frame: _LineFrame, extra_lines: Sequence[DirectedLine]
) -> np.ndarray:
    """Circle and extra-line crossing positions, decreasing."""
    idx = frame.idx
    inst = idx.inst
    r = inst.r
    tol = inst.eps * max(1.0, r)
    cx = idx.xs - frame.ax
    cy = idx.ys - frame.ay
    t0 = cx * frame.ux + cy * frame.uy
    perp = frame.ux * cy - frame.uy * cx
    disc = r * r - perp * perp
    # Per customer, in customer order: no entry, the tangency t0, or the two
    # crossings t0 - s and t0 + s.
    crossing = disc > tol
    s = np.sqrt(np.where(crossing, disc, 0.0))
    pair = np.stack([np.where(crossing, t0 - s, t0), t0 + s], axis=1)
    used = np.stack([crossing | (disc >= -tol), crossing], axis=1)
    ts = pair[used].tolist()
    for extra in extra_lines:
        evx, evy = extra.direction
        cross = frame.ux * evy - frame.uy * evx
        if abs(cross) <= PARALLEL_EPS:
            continue
        dx = extra.anchor.x - frame.ax
        dy = extra.anchor.y - frame.ay
        ts.append((dx * evy - dy * evx) / cross)
    ts = np.array(ts, dtype=float)
    # Stable on the negated positions, as sorted(..., reverse=True) is.
    return ts[np.argsort(-ts, kind="stable")]


def breakpoint_sequences(
    idx: AngularIndex,
    L: DirectedLine,
    extra_lines: Sequence[DirectedLine] = (),
) -> _SequenceBundle:
    """All follower-value breakpoints on ``L`` as monotone sequences.

    Tangent directions parallel to ``L`` are excluded: their lines never
    cross ``L``.  Every remaining tangent crossing appears exactly once per
    stored tangent line, circle crossings once per intersection point
    (tangency contributes a single entry), and each non-parallel line from
    ``extra_lines`` contributes its crossing as well.
    """
    frame = _LineFrame(idx, L)
    return _SequenceBundle(
        frame, _tangent_sequences(frame), _explicit_sequence(frame, extra_lines)
    )


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Smallest value m with weight below m and weight above m both <= W/2."""
    if len(values) == 0:
        raise ValueError("weighted median of an empty collection")
    if (weights < 0).any():
        raise ValueError("negative weight")
    order = np.argsort(values, kind="stable")
    csum = np.cumsum(weights[order])
    k = int(np.searchsorted(csum, csum[-1] / 2.0, side="left"))
    return float(values[order[min(k, len(order) - 1)]])


class _SequenceBundle:
    """Live windows over the strictly decreasing breakpoint sequences of
    one query line.

    ``T`` holds, for every canonical tangent line of the angular index, the
    position where it crosses the line; it is computed once, with the same
    expressions for every entry, and is read-only.  Tangent sequence s is a
    window of one customer's doubled angular neighbour order, read in the
    order of decreasing positions: its element k (``k < slen[s]``) is the
    neighbour ``w = order2[sstart[s] + sstep[s] * k]`` of the flattened
    order, whose canonical tangent line is ``T[w * smul[s] + sadd[s]]``, so
    a search step is integer gathers and one lookup.  The explicit
    sequence stores its positions ``ets`` and is live on ``[elo, ehi)``.
    The crossing points themselves are never built.
    """

    def __init__(self, frame: _LineFrame, cols: Tuple[np.ndarray, ...],
                 ets: np.ndarray) -> None:
        self.frame = frame
        idx = frame.idx
        n = idx.n
        m = idx.order2.shape[1]
        self.order2 = idx.order2.ravel()
        nx, ny = idx.tan_nx, idx.tan_ny
        with np.errstate(divide="ignore", invalid="ignore"):
            T = (idx.tan_off - (frame.ax * nx + frame.ay * ny)) / (
                frame.ux * nx + frame.uy * ny
            )
        T.flags.writeable = False
        self.T = T
        v, side, lo, hi, rev = cols
        self.sstart = v * m + np.where(rev, hi - 1, lo)
        self.sstep = np.where(rev, -1, 1)
        self.slen = hi - lo
        self.smul = np.where(side > 0, 1, n)
        self.sadd = np.where(side > 0, v * n, v)
        self.ets = ets
        self.eneg = -ets
        self.elo = 0
        self.ehi = len(ets)

    def point_at(self, t: float) -> Point:
        return self.frame.line.point_at(t)

    def total_mass(self) -> int:
        return int(np.sum(self.slen)) + self.ehi - self.elo

    def _tan_t(self, pos: np.ndarray, s=slice(None)) -> np.ndarray:
        """Positions of elements ``pos`` (each below its window's length) of
        the tangent sequences ``s`` (all of them by default)."""
        w = self.order2.take(self.sstart[s] + self.sstep[s] * pos)
        return self.T.take(w * self.smul[s] + self.sadd[s])

    def _count_view(self, y: float, strict_gt: bool) -> np.ndarray:
        """Per tangent sequence: how many leading elements satisfy t > y
        (strict_gt) or t >= y (otherwise).  Each step evaluates only the
        sequences still searching."""
        lo = np.zeros_like(self.slen)
        hi = self.slen.copy()
        s = np.flatnonzero(hi)
        while len(s):
            mid = (lo[s] + hi[s]) >> 1
            t = self._tan_t(mid, s)
            cond = (t > y) if strict_gt else (t >= y)
            lo[s] = np.where(cond, mid + 1, lo[s])
            hi[s] = np.where(cond, hi[s], mid)
            s = s[lo[s] < hi[s]]
        return lo

    def middles(self) -> Tuple[np.ndarray, np.ndarray]:
        act = np.flatnonzero(self.slen)
        lens = self.slen[act]
        vals = self._tan_t((lens - 1) // 2, act)
        wts = lens.astype(float)
        ln = self.ehi - self.elo
        if ln > 0:
            vals = np.append(vals, self.ets[self.elo + (ln - 1) // 2])
            wts = np.append(wts, float(ln))
        return vals, wts

    def cut_keep_above(self, y: float) -> None:
        """Keep only breakpoints strictly above y; drop everything at or below."""
        self.slen = self._count_view(y, strict_gt=True)
        g = int(np.searchsorted(self.eneg, -y, side="left"))
        self.ehi = self.elo + max(0, min(g, self.ehi) - self.elo)

    def cut_keep_below(self, y: float) -> None:
        """Keep only breakpoints strictly below y; drop everything at or above."""
        d = self._count_view(y, strict_gt=False)
        self.sstart = self.sstart + self.sstep * d
        self.slen = self.slen - d
        g = int(np.searchsorted(self.eneg, -y, side="right"))
        self.elo = min(max(g, self.elo), self.ehi)


def lean(result: MedianoidResult, up_angle: float) -> str:
    """Where an evaluation sends the search along the line with upward
    direction ``up_angle``: ``STRONG`` for a certified global optimum,
    otherwise the wedge's direction (upward, downward or a sideward side)."""
    if result.strong_centroid:
        return STRONG
    cls = classify_wedge_on_line(result.wedge, up_angle)
    if cls == WHOLE_LINE:
        raise RuntimeError("wedge degenerately contains the query line")
    return cls


def _evaluations(
    inst: Instance, bundle: _SequenceBundle, telemetry: Telemetry
) -> Iterator[Tuple[float, Point, MedianoidResult, str]]:
    """Run the weighted-median elimination loop over ``bundle``, which it
    consumes, until no breakpoint is left.

    Yields ``(t, point, result, lean)`` for each evaluated breakpoint, then
    cuts: an upward lean keeps only positions strictly above ``t``, a
    downward one only those strictly below, and a strong or sideward lean
    ends the search.  Every cut must discard at least 1/8 of the surviving
    breakpoints.
    """
    up_angle = bundle.frame.up_angle
    guard = 0
    while True:
        mass = bundle.total_mass()
        if mass == 0:
            return
        vals, wts = bundle.middles()
        t = weighted_median(vals, wts)
        point = bundle.point_at(t)
        res = solve_medianoid(inst, point)
        telemetry.medianoid_calls += 1
        d = lean(res, up_angle)
        yield t, point, res, d
        if d == UPWARD:
            bundle.cut_keep_above(t)
        elif d == DOWNWARD:
            bundle.cut_keep_below(t)
        else:
            return
        pruned = mass - bundle.total_mass()
        telemetry.prune_log.append((mass, pruned))
        if pruned * 8 < mass:
            raise RuntimeError(
                "prune progress fell below the guaranteed fraction "
                "(%d of %d)" % (pruned, mass)
            )
        guard += 1
        if guard > 64 + 8 * int(math.log2(max(mass, 2))):
            raise RuntimeError("prune search failed to terminate")


@dataclass(frozen=True)
class LineLocalOptimum:
    """Minimum follower value over one query line.

    ``status`` is ``"ordinary"`` for a plain line minimum and
    ``"strong_centroid"`` when the point is a certified global optimum.
    """

    point: Point
    weight_loss: float
    status: str


def local_optimum_on_line(
    inst: Instance,
    idx: AngularIndex,
    L: DirectedLine,
    telemetry: Optional[Telemetry] = None,
) -> LineLocalOptimum:
    """Minimise the follower value over the non-horizontal line ``L``.

    Breakpoints chosen by the weighted-median rule are evaluated; the search
    stops early when an evaluation certifies a global optimum or a sideward
    wedge (whose apex is then the line minimum), and otherwise keeps the
    side of the line that the wedge points along.
    """
    if telemetry is None:
        telemetry = Telemetry()
    bundle = breakpoint_sequences(idx, L)
    telemetry.lines_searched += 1

    best: Optional[Tuple[Point, MedianoidResult]] = None
    for _t, point, res, d in _evaluations(inst, bundle, telemetry):
        if d not in (UPWARD, DOWNWARD):
            status = STRONG if d == STRONG else ORDINARY
            return LineLocalOptimum(point, res.weight_loss, status)
        if best is None or res.weight_loss < best[1].weight_loss:
            best = (point, res)
    if best is None:
        point = bundle.point_at(0.0)
        res = solve_medianoid(inst, point)
        telemetry.medianoid_calls += 1
        status = STRONG if res.strong_centroid else ORDINARY
        return LineLocalOptimum(point, res.weight_loss, status)
    point, res = best
    return LineLocalOptimum(point, res.weight_loss, ORDINARY)
