"""Follower-value breakpoints along a query line and the prune search over them.

The follower's best capturable weight, viewed along any non-horizontal line,
is piecewise constant and can only change where the line crosses a tangent
line of two customer discs or the boundary circle of a single disc.  Those
crossing points are never materialised here.  Tangent crossings are described
by implicit sequences: contiguous slices of the angularly sorted neighbour
lists, each slice mapping index order to strictly monotone positions along
the line.  Circle crossings and injected extra lines form one small explicit
sequence.  A weighted-median search over the sequences then locates a point
of minimum follower value on the line while discarding a constant fraction
of the remaining breakpoints per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
CONDITIONAL = "conditional_centroid"


@dataclass(frozen=True)
class Breakpoint:
    """A single follower-value breakpoint on a query line.

    ``kind`` is ``"tangent"`` for a crossing with the tangent line that runs
    to the right of customer ``i`` toward customer ``j`` (``side`` records
    which side relative to the anchor customer), ``"circle"`` for a crossing
    with the disc boundary of customer ``i``, and ``"extra"`` for a crossing
    with an injected auxiliary line.
    """

    location: Point
    kind: str
    i: int = -1
    j: int = -1
    side: str = ""


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

    def t_of_point(self, p: Point) -> float:
        return (p.x - self.ax) * self.ux + (p.y - self.ay) * self.uy


class ImplicitSequence:
    """A strictly decreasing run of breakpoint positions along the line.

    Tangent sequences are (possibly reversed) windows into the doubled
    angular neighbour order of one customer, on one side of the line; their
    elements are evaluated on demand from the canonical tangent storage.
    The explicit sequence stores its positions directly.
    """

    __slots__ = ("kind", "frame", "v", "side", "lo", "hi", "rev", "ts", "bps")

    def __init__(self, kind, frame, v=-1, side=0, lo=0, hi=0, rev=False,
                 ts=None, bps=None):
        self.kind = kind
        self.frame = frame
        self.v = v
        self.side = side
        self.lo = lo
        self.hi = hi
        self.rev = rev
        self.ts = ts
        self.bps = bps

    def __len__(self) -> int:
        return self.hi - self.lo

    def _pos(self, k: int) -> int:
        if not 0 <= k < len(self):
            raise IndexError(k)
        return self.hi - 1 - k if self.rev else self.lo + k

    def t_at(self, k: int) -> float:
        """Position along the line of the k-th element (decreasing in k)."""
        if self.kind == "explicit":
            return float(self.ts[self._pos(k)])
        idx = self.frame.idx
        p = self._pos(k)
        w = int(idx.order2[self.v, p])
        lid = self.v * idx.n + w if self.side > 0 else w * idx.n + self.v
        num = idx.tan_off[lid] - (
            self.frame.ax * idx.tan_nx[lid] + self.frame.ay * idx.tan_ny[lid]
        )
        den = self.frame.ux * idx.tan_nx[lid] + self.frame.uy * idx.tan_ny[lid]
        return float(num / den)

    def breakpoint_at(self, k: int) -> Breakpoint:
        if self.kind == "explicit":
            return self.bps[self._pos(k)]
        idx = self.frame.idx
        p = self._pos(k)
        w = int(idx.order2[self.v, p])
        return Breakpoint(
            location=self.frame.point_at(self.t_at(k)),
            kind="tangent",
            i=self.v,
            j=w,
            side="right" if self.side > 0 else "left",
        )


def _tangent_sequences(frame: _LineFrame) -> List[ImplicitSequence]:
    idx = frame.idx
    n = idx.n
    if n < 2:
        return []
    r = idx.inst.r
    up = frame.up_angle
    seqs: List[ImplicitSequence] = []
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
                seqs.append(
                    ImplicitSequence(
                        "tangent", frame, v=v, side=side,
                        lo=lo_i, hi=hi_i, rev=slope > 0.0,
                    )
                )
    return seqs


def _explicit_sequence(
    frame: _LineFrame, extra_lines: Sequence[DirectedLine]
) -> Optional[ImplicitSequence]:
    idx = frame.idx
    inst = idx.inst
    r = inst.r
    tol = inst.eps * max(1.0, r)
    entries: List[Tuple[float, Breakpoint]] = []
    for u in range(idx.n):
        cx = idx.xs[u] - frame.ax
        cy = idx.ys[u] - frame.ay
        t0 = cx * frame.ux + cy * frame.uy
        perp = frame.ux * cy - frame.uy * cx
        disc = r * r - perp * perp
        if disc <= tol:
            if disc >= -tol:
                entries.append((t0, Breakpoint(frame.point_at(t0), "circle", i=u)))
            continue
        s = math.sqrt(disc)
        for t in (t0 - s, t0 + s):
            entries.append((t, Breakpoint(frame.point_at(t), "circle", i=u)))
    for extra in extra_lines:
        evx, evy = extra.direction
        cross = frame.ux * evy - frame.uy * evx
        if abs(cross) <= PARALLEL_EPS:
            continue
        dx = extra.anchor.x - frame.ax
        dy = extra.anchor.y - frame.ay
        t = (dx * evy - dy * evx) / cross
        entries.append((t, Breakpoint(frame.point_at(t), "extra")))
    if not entries:
        return None
    entries.sort(key=lambda e: -e[0])
    ts = np.array([e[0] for e in entries], dtype=float)
    bps = [e[1] for e in entries]
    return ImplicitSequence("explicit", frame, lo=0, hi=len(bps), ts=ts, bps=bps)


def breakpoint_sequences(
    idx: AngularIndex,
    L: DirectedLine,
    extra_lines: Sequence[DirectedLine] = (),
) -> List[ImplicitSequence]:
    """All follower-value breakpoints on ``L`` as monotone sequences.

    Tangent directions parallel to ``L`` are excluded: their lines never
    cross ``L``.  Every remaining tangent crossing appears exactly once per
    stored tangent line, circle crossings once per intersection point
    (tangency contributes a single entry), and each non-parallel line from
    ``extra_lines`` contributes its crossing as well.
    """
    frame = _LineFrame(idx, L)
    seqs = _tangent_sequences(frame)
    expl = _explicit_sequence(frame, extra_lines)
    if expl is not None:
        seqs.append(expl)
    return seqs


def weighted_median(items: Sequence[Tuple[float, float]]) -> float:
    """Smallest value m with weight below m and weight above m both <= W/2."""
    pairs = sorted(items)
    if not pairs:
        raise ValueError("weighted median of an empty collection")
    total = 0.0
    for _, w in pairs:
        if w < 0:
            raise ValueError("negative weight")
        total += w
    acc = 0.0
    for value, w in pairs:
        acc += w
        if acc >= total / 2.0:
            return value
    return pairs[-1][0]


def _weighted_median_np(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    csum = np.cumsum(weights[order])
    k = int(np.searchsorted(csum, csum[-1] / 2.0, side="left"))
    return float(values[order][min(k, len(order) - 1)])


class _SequenceBundle:
    """Vectorised live windows over a set of breakpoint sequences."""

    def __init__(self, frame: _LineFrame, seqs: Sequence[ImplicitSequence]):
        self.frame = frame
        tang = [s for s in seqs if s.kind == "tangent"]
        self.expl = [s for s in seqs if s.kind == "explicit"]
        self.sv = np.array([s.v for s in tang], dtype=np.int64)
        self.sside = np.array([s.side for s in tang], dtype=np.int64)
        self.slo = np.array([s.lo for s in tang], dtype=np.int64)
        self.shi = np.array([s.hi for s in tang], dtype=np.int64)
        self.srev = np.array([s.rev for s in tang], dtype=bool)
        self.elo = [s.lo for s in self.expl]
        self.ehi = [s.hi for s in self.expl]
        self.eneg = [-s.ts for s in self.expl]

    def point_at(self, t: float) -> Point:
        return self.frame.point_at(t)

    def total_mass(self) -> int:
        mass = int(np.sum(self.shi - self.slo)) if len(self.sv) else 0
        for lo, hi in zip(self.elo, self.ehi):
            mass += hi - lo
        return mass

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
        vals: List[float] = []
        wts: List[float] = []
        if len(self.sv):
            lens = self.shi - self.slo
            act = lens > 0
            if act.any():
                pos = np.maximum(lens - 1, 0) // 2
                t = self._tan_t(pos)
                vals.extend(t[act].tolist())
                wts.extend(lens[act].tolist())
        for k, seq in enumerate(self.expl):
            ln = self.ehi[k] - self.elo[k]
            if ln > 0:
                vals.append(float(seq.ts[self.elo[k] + (ln - 1) // 2]))
                wts.append(float(ln))
        return np.array(vals), np.array(wts)

    def cut_keep_above(self, y: float) -> None:
        """Keep only breakpoints strictly above y; drop everything at or below."""
        if len(self.sv):
            c = self._count_view(y, strict_gt=True)
            self.slo = np.where(self.srev, self.shi - c, self.slo)
            self.shi = np.where(self.srev, self.shi, self.slo + c)
        for k in range(len(self.expl)):
            g = int(np.searchsorted(self.eneg[k], -y, side="left"))
            self.ehi[k] = self.elo[k] + max(
                0, min(g, self.ehi[k]) - self.elo[k]
            )

    def cut_keep_below(self, y: float) -> None:
        """Keep only breakpoints strictly below y; drop everything at or above."""
        if len(self.sv):
            d = self._count_view(y, strict_gt=False)
            new_hi = np.where(self.srev, self.shi - d, self.shi)
            new_lo = np.where(self.srev, self.slo, self.slo + d)
            self.slo = np.minimum(new_lo, new_hi)
            self.shi = new_hi
        for k in range(len(self.expl)):
            g = int(np.searchsorted(self.eneg[k], -y, side="right"))
            self.elo[k] = min(max(g, self.elo[k]), self.ehi[k])

    def closest_to(self, target: float) -> Optional[Tuple[float, Breakpoint]]:
        """The surviving breakpoint whose position is nearest to ``target``."""
        best_d = math.inf
        best: Optional[Tuple[float, Breakpoint]] = None

        def consider(t: float, mk: Callable[[], Breakpoint]) -> None:
            nonlocal best_d, best
            d = abs(t - target)
            if d < best_d:
                best_d = d
                best = (t, mk())

        if len(self.sv):
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
                if not math.isfinite(d[s_i]):
                    continue
                k = int(cand[s_i])
                ti = float(t[s_i])

                def mk(s_i=s_i, k=k, ti=ti) -> Breakpoint:
                    idx = self.frame.idx
                    p = (
                        self.shi[s_i] - 1 - k
                        if self.srev[s_i]
                        else self.slo[s_i] + k
                    )
                    w = int(idx.order2[self.sv[s_i], p])
                    return Breakpoint(
                        self.frame.point_at(ti),
                        "tangent",
                        i=int(self.sv[s_i]),
                        j=w,
                        side="right" if self.sside[s_i] > 0 else "left",
                    )

                consider(ti, mk)
        for k, seq in enumerate(self.expl):
            g = int(np.searchsorted(self.eneg[k], -target, side="left"))
            for pos in (max(self.elo[k], min(g, self.ehi[k])) - 1,
                        max(self.elo[k], min(g, self.ehi[k]))):
                if self.elo[k] <= pos < self.ehi[k]:
                    consider(float(seq.ts[pos]), lambda seq=seq, pos=pos: seq.bps[pos])
        return best


def _tel_inc(tel, field: str, amount: int = 1) -> None:
    if tel is not None:
        setattr(tel, field, getattr(tel, field, 0) + amount)


def _tel_prune(tel, mass: int, pruned: int) -> None:
    if tel is not None:
        log = getattr(tel, "prune_log", None)
        if log is None:
            log = []
            setattr(tel, "prune_log", log)
        log.append((mass, pruned))


Reaction = Tuple


def _prune_search(
    inst: Instance,
    bundle: _SequenceBundle,
    react: Callable[[float, Point, MedianoidResult], Reaction],
    telemetry=None,
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
        y = _weighted_median_np(vals, wts)
        point = bundle.point_at(y)
        res = solve_medianoid(inst, point)
        _tel_inc(telemetry, "medianoid_calls")
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
        _tel_prune(telemetry, mass, pruned)
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

    ``status`` is ``"ordinary"`` for a plain line minimum,
    ``"strong_centroid"`` when the point is a certified global optimum, and
    ``"conditional_centroid"`` when a caller has certified the point optimal
    within a restricted region.
    """

    point: Point
    weight_loss: float
    status: str
    medianoid: MedianoidResult


def local_optimum_on_line(
    inst: Instance,
    idx: AngularIndex,
    L: DirectedLine,
    objective=None,
    extra_lines: Sequence[DirectedLine] = (),
    telemetry=None,
) -> LineLocalOptimum:
    """Minimise the follower value over the non-horizontal line ``L``.

    The default objective evaluates breakpoints chosen by the weighted-median
    rule, stops early when an evaluation certifies a global optimum or a
    sideward wedge (whose apex is then the line minimum), and otherwise keeps
    the side of the line that the wedge points along.  A custom ``objective``
    callable receives ``(t, point, result)`` per evaluation and returns the
    same reaction tuples used internally.
    """
    frame = _LineFrame(idx, L)
    seqs = _tangent_sequences(frame)
    expl = _explicit_sequence(frame, extra_lines)
    if expl is not None:
        seqs.append(expl)
    bundle = _SequenceBundle(frame, seqs)
    _tel_inc(telemetry, "lines_searched")

    state = {"best": None, "last": None}

    def decide_default(t: float, point: Point, res: MedianoidResult) -> Reaction:
        if res.strong_centroid:
            return ("stop", "strong")
        cls = classify_wedge_on_line(res.wedge, frame.up_angle)
        if cls == UPWARD:
            return ("above",)
        if cls == DOWNWARD:
            return ("below",)
        if cls in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
            return ("stop", "sideward")
        raise RuntimeError("wedge degenerately contains the query line")

    def react(t: float, point: Point, res: MedianoidResult) -> Reaction:
        state["last"] = (t, point, res)
        best = state["best"]
        if best is None or res.weight_loss < best[2].weight_loss:
            state["best"] = (t, point, res)
        if objective is not None:
            return objective(t, point, res)
        return decide_default(t, point, res)

    outcome, tag = _prune_search(inst, bundle, react, telemetry)

    if outcome == "stopped":
        t, point, res = state["last"]
        if tag == "strong":
            return LineLocalOptimum(point, res.weight_loss, STRONG, res)
        if tag == "sideward":
            return LineLocalOptimum(point, res.weight_loss, ORDINARY, res)
        best_t, best_pt, best_res = state["best"]
        return LineLocalOptimum(best_pt, best_res.weight_loss, ORDINARY, best_res)

    best = state["best"]
    if best is None:
        point = frame.point_at(0.0)
        res = solve_medianoid(inst, point)
        _tel_inc(telemetry, "medianoid_calls")
        status = STRONG if res.strong_centroid else ORDINARY
        return LineLocalOptimum(point, res.weight_loss, status, res)
    t, point, res = best
    return LineLocalOptimum(point, res.weight_loss, ORDINARY, res)
