"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  Those
crossing points are never materialised here.  A breakpoint is its position
``t`` along the line.  Tangent crossings are described by implicit
sequences: contiguous windows of the angularly sorted neighbour lists, each
mapping index order to strictly monotone positions along the line.  Circle
crossings and injected extra lines form one small explicit sequence.  A
weighted-median search over the sequences then locates a point of minimum
follower value on the line while discarding a constant fraction of the
remaining breakpoints per evaluation.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    TWO_PI,
    DegenerateInputError,
    DirectedLine,
    Instance,
    Point,
    normalize_angle,
)
from .medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
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
    lt_rounds: int = 0
    lt_comparators: int = 0
    lt_oracle: int = 0
    lm_mass0: int = 0
    lm_rounds: int = 0
    lc_points: int = 0
    lc_steps: int = 0
    schedule: str = "odd-even-merge"
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
            "lt_comparators": self.lt_comparators,
            "lt_oracle": self.lt_oracle,
            "lm_mass0": self.lm_mass0,
            "lm_rounds": self.lm_rounds,
            "lc_points": self.lc_points,
            "lc_steps": self.lc_steps,
            "schedule": self.schedule,
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
            self.xs[i] + self.inst.r * math.sin(a),
            self.ys[i] - self.inst.r * math.cos(a),
        )
        return DirectedLine(anchor, a)


def build_angular_index(inst: Instance) -> AngularIndex:
    return AngularIndex(inst)


class _LineFrame:
    """Precomputed data for one query line, shared by all its sequences."""

    def __init__(self, idx: AngularIndex, L: DirectedLine) -> None:
        theta = normalize_angle(L.angle)
        if abs(math.sin(theta)) <= PARALLEL_EPS:
            raise ValueError("horizontal query line has no breakpoint order")
        up = theta if math.sin(theta) > 0.0 else normalize_angle(theta - math.pi)
        self.idx = idx
        self.line = DirectedLine(L.anchor, up)
        self.up_angle = up
        self.ux, self.uy = self.line.direction
        # Normal pointing to the geometric right of the upward direction.
        self.nx_line = self.uy
        self.ny_line = -self.ux
        self.ax = L.anchor.x
        self.ay = L.anchor.y

    def point_at(self, t: float) -> Point:
        return self.line.point_at(t)


def _tangent_sequences(frame: _LineFrame) -> Tuple[np.ndarray, ...]:
    """Window columns ``(v, side, lo, hi, rev)`` of the tangent sequences."""
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


def _explicit_sequence(
    frame: _LineFrame, extra_lines: Sequence[DirectedLine]
) -> np.ndarray:
    """Circle and extra-line crossing positions, decreasing."""
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

    Tangent sequence s is the window ``[slo, shi)`` of customer ``sv``'s
    doubled angular neighbour order on side ``sside`` of the line, read
    backwards when ``srev``; its positions are evaluated on demand by
    ``_tan_t`` from the canonical tangent storage.  The explicit sequence
    stores its positions ``ets`` and is live on ``[elo, ehi)``.  Cuts
    replace the window arrays instead of writing into them, so a shallow
    ``copy`` is an independent bundle.
    """

    def __init__(self, frame: _LineFrame, cols: Tuple[np.ndarray, ...],
                 ets: np.ndarray) -> None:
        self.frame = frame
        self.sv, self.sside, self.slo, self.shi, self.srev = cols
        self.ets = ets
        self.eneg = -ets
        self.elo = 0
        self.ehi = len(ets)

    def copy(self) -> _SequenceBundle:
        return copy.copy(self)

    def point_at(self, t: float) -> Point:
        return self.frame.point_at(t)

    def total_mass(self) -> int:
        return int(np.sum(self.shi - self.slo)) + self.ehi - self.elo

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

    def closest_to(self, target: float) -> Optional[float]:
        """Position of the surviving breakpoint nearest to ``target``."""
        best_d = math.inf
        best: Optional[float] = None
        lens = self.shi - self.slo
        c = self._count_view(target, strict_gt=True)
        for cand in (c - 1, c):
            valid = (cand >= 0) & (cand < lens)
            if not valid.any():
                continue
            t = self._tan_t(np.maximum(cand, 0))
            with np.errstate(invalid="ignore"):
                d = np.where(valid, np.abs(t - target), np.inf)
            s_i = int(np.argmin(d))
            if d[s_i] < best_d:
                best_d, best = float(d[s_i]), float(t[s_i])
        g = int(np.searchsorted(self.eneg, -target, side="left"))
        g = max(self.elo, min(g, self.ehi))
        for pos in (g - 1, g):
            if self.elo <= pos < self.ehi:
                t = float(self.ets[pos])
                if abs(t - target) < best_d:
                    best_d, best = abs(t - target), t
        return best


Reaction = Tuple


def _prune_search(
    inst: Instance,
    bundle: _SequenceBundle,
    react: Callable[[float, Point, MedianoidResult], Reaction],
    telemetry: Telemetry,
) -> Tuple[str, Optional[str]]:
    """Run the weighted-median elimination loop until stop or exhaustion.

    ``react`` inspects the evaluation at the current weighted-median
    breakpoint position and answers ``('stop', tag)``, ``('above',)`` to keep
    only strictly larger positions, or ``('below',)`` for strictly smaller.
    Every iteration must discard at least 1/8 of the surviving breakpoints.
    """
    guard = 0
    while True:
        mass = bundle.total_mass()
        if mass == 0:
            return ("exhausted", None)
        vals, wts = bundle.middles()
        y = weighted_median(vals, wts)
        point = bundle.point_at(y)
        res = solve_medianoid(inst, point)
        telemetry.medianoid_calls += 1
        action = react(y, point, res)
        if action[0] == "stop":
            return ("stopped", action[1] if len(action) > 1 else None)
        if action[0] == "above":
            bundle.cut_keep_above(y)
        elif action[0] == "below":
            bundle.cut_keep_below(y)
        else:
            raise RuntimeError("unknown prune reaction %r" % (action[0],))
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
    medianoid: MedianoidResult


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
    up_angle = bundle.frame.up_angle
    telemetry.lines_searched += 1

    best: Optional[Tuple[Point, MedianoidResult]] = None
    last: Optional[Tuple[Point, MedianoidResult]] = None

    def react(t: float, point: Point, res: MedianoidResult) -> Reaction:
        nonlocal best, last
        last = (point, res)
        if best is None or res.weight_loss < best[1].weight_loss:
            best = last
        if res.strong_centroid:
            return ("stop", "strong")
        cls = classify_wedge_on_line(res.wedge, up_angle)
        if cls == UPWARD:
            return ("above",)
        if cls == DOWNWARD:
            return ("below",)
        if cls in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
            return ("stop", "sideward")
        raise RuntimeError("wedge degenerately contains the query line")

    outcome, tag = _prune_search(inst, bundle, react, telemetry)

    if outcome == "stopped":
        point, res = last
        return LineLocalOptimum(
            point, res.weight_loss, STRONG if tag == "strong" else ORDINARY, res
        )
    if best is None:
        point = bundle.point_at(0.0)
        res = solve_medianoid(inst, point)
        telemetry.medianoid_calls += 1
        status = STRONG if res.strong_centroid else ORDINARY
        return LineLocalOptimum(point, res.weight_loss, status, res)
    point, res = best
    return LineLocalOptimum(point, res.weight_loss, ORDINARY, res)
