"""Classifying a vertical query line: which side of it can be discarded.

The plane search over candidate lines needs one primitive: given a vertical
line, name the half-plane that cannot contain a better point, or certify an
optimum on it.  A decision returns the side (``PruneDecision``); a
certificate is raised where it is found, as ``CertifiedOptimum`` with an
``origin`` string.  The classification rests on two anchor points, the
lowest breakpoint with a downward wedge and the highest with an upward
wedge, found by the exact-median search of ``linesearch._evaluations`` over
the line's breakpoint array and the frame's two ordinates.  A strong
centroid met on the way raises, and a sideward wedge settles the line at
once.  Otherwise the search runs until no breakpoint is left, and each cut
drops only positions at or below an upward evaluation or at or above a
downward one, so no breakpoint lies strictly between the anchors: the
follower value is constant on the open segment.  Its midpoint or, when that
too looks along the line, a pseudo-wedge built at the better anchor settles
the direction; equal anchor values go to the downward anchor.  A strong
centroid at the midpoint, or an empty pseudo-wedge cone, is a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geom import (
    TWO_PI,
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
from .linesearch import (
    AngularIndex,
    CertifiedOptimum,
    Telemetry,
    _evaluations,
    _lockstep,
    breakpoint_sequences,
    upward_line,
)

PRUNE_LEFT = "prune-left"
PRUNE_RIGHT = "prune-right"

PW_NULL = "null"

# Absolute cosine slack when deciding whether a direction cone stays weakly
# on one side of the vertical axis.
COS_EPS = 1e-12


@dataclass(frozen=True)
class BoundingFrame:
    """The x-range of the axis-aligned box covering all customer discs, and
    the ordinates of two horizontal auxiliary lines safely above and below
    it, whose crossings guarantee that every vertical line through the box
    owns both anchor types."""

    xmin: float
    xmax: float
    y_top: float
    y_btm: float


def build_frame(inst: Instance) -> BoundingFrame:
    r = inst.r
    off = max(inst.R, 1.0)
    return BoundingFrame(
        xmin=float(inst.xs.min()) - r,
        xmax=float(inst.xs.max()) + r,
        y_top=float(inst.ys.max()) + r + off,
        y_btm=float(inst.ys.min()) - r - off,
    )


@dataclass(frozen=True)
class PseudoWedge:
    """Wedge at the better anchor trimmed by a maximum-capture half-plane.

    ``classification`` says where the trimmed direction cone points:
    ``"sideward-right"`` or ``"sideward-left"`` when it stays weakly on one
    side of the vertical line, ``"null"`` when the cone is empty.
    ``theta_star`` is the direction of maximum capture and ``max_capture``
    the weight it captures.
    """

    theta_star: float
    classification: str
    max_capture: float


@dataclass(frozen=True)
class PruneDecision:
    """A vertical line's side that cannot hold a better point.

    ``kind`` is ``"prune-left"`` or ``"prune-right"``, naming the discarded
    side; ``evidence`` names the rule that produced the decision.
    """

    kind: str
    evidence: str


def _prune(cls: str, evidence: str) -> PruneDecision:
    """Discard the side a sideward classification ``cls`` turns away from."""
    return PruneDecision(PRUNE_LEFT if cls == SIDEWARD_RIGHT else PRUNE_RIGHT, evidence)


def find_xD_xU(inst, idx: AngularIndex, frame: BoundingFrame, L: DirectedLine,
               telemetry: Telemetry):
    """Locate the lowest downward and highest upward breakpoints on ``L``.

    Returns the anchor pair ``(down, up)``, each ``(t, point, evaluation)``,
    or a ``PruneDecision`` when a sideward wedge en route already settles
    the line; a strong centroid en route raises ``CertifiedOptimum``.  The
    frame's auxiliary lines give every vertical line through the box both
    anchor types, and the search exhausts the line, so no breakpoint lies
    strictly between the anchors.
    """
    P = np.append(breakpoint_sequences(idx, L),
                  (frame.y_top - L.anchor.y, frame.y_btm - L.anchor.y))
    [done] = _lockstep(inst, [_evaluations(
        upward_line(L), P, telemetry,
        "strong centroid at a breakpoint of the query line",
    )])
    down = up = None
    # Each cut keeps only positions beyond the evaluation that made it, so
    # the latest upward (downward) evaluation is the highest (lowest).
    for t, point, res, d in done:
        if d == UPWARD:
            up = (t, point, res)
        elif d == DOWNWARD:
            down = (t, point, res)
        else:
            return _prune(d, "sideward wedge at a breakpoint of the query line")
    if down is None or up is None:
        raise RuntimeError(
            "auxiliary frame crossings failed to supply both anchors"
        )
    if not down[0] > up[0]:
        raise RuntimeError(
            "downward anchor does not lie strictly above the upward anchor"
        )
    return down, up


def _cone_intersection(a0: float, sa: float, b0: float, sb: float):
    """Intersect two closed CCW angle intervals of span <= pi each.

    Returns ``(lo, span)`` in absolute angles or ``None`` when disjoint.
    """
    d0 = (b0 - a0) % TWO_PI
    for shift in (d0, d0 - TWO_PI):
        lo = max(0.0, shift)
        hi = min(sa, shift + sb)
        if lo <= hi:
            return (a0 + lo, hi - lo)
    return None


def _cos_extremes(lo: float, span: float) -> Tuple[float, float]:
    """Minimum and maximum of cos over the closed interval [lo, lo+span]."""
    hi = lo + span
    cmin = min(math.cos(lo), math.cos(hi))
    cmax = max(math.cos(lo), math.cos(hi))
    k_lo = math.ceil(lo / TWO_PI)
    if k_lo * TWO_PI <= hi:
        cmax = 1.0
    k_pi = math.ceil((lo - math.pi) / TWO_PI)
    if math.pi + k_pi * TWO_PI <= hi:
        cmin = -1.0
    return cmin, cmax


def pseudo_wedge(
    inst: Instance,
    apex: Point,
    W1: float,
    result: MedianoidResult,
) -> PseudoWedge:
    """Build the trimmed wedge at ``apex`` that certifies one-side pruning.

    ``W1`` is the follower value at the worse anchor of the same vertical
    line, and ``result`` the follower's result at ``apex``.  A direction of
    maximum closed capture (weight of customers whose
    disc lies weakly beyond distance ``r`` along the direction) is chosen on
    the anchor's far half of directions; it must capture at least ``W1``.
    The wedge's direction cone intersected with the half-turn around that
    direction then either sits weakly on one side of the vertical line or is
    empty.
    """
    wedge = result.wedge
    if wedge is None:
        raise ValueError("pseudo-wedge requires a point with a proper wedge")
    cls = classify_wedge_on_line(wedge, math.pi / 2.0)
    if cls == UPWARD:
        t_lo, t_hi = math.pi, TWO_PI
    elif cls == DOWNWARD:
        t_lo, t_hi = 0.0, math.pi
    else:
        raise ValueError("pseudo-wedge anchor must be upward or downward")

    r = inst.r
    tol = 1e-9 * max(1.0, r)
    cands: List[float] = [t_lo, t_hi]
    for c in inst.customers:
        dx = c.site.x - apex.x
        dy = c.site.y - apex.y
        d = math.hypot(dx, dy)
        # Anchors commonly sit exactly on a customer circle; keep the arc's
        # collapsed endpoint as a candidate when d == r up to rounding.
        if d < r - tol:
            continue
        theta_v = math.atan2(dy, dx)
        phi = math.acos(min(1.0, r / d))
        for ep in (theta_v - phi, theta_v + phi):
            nrm = normalize_angle(ep)
            if t_lo <= nrm <= t_hi:
                cands.append(nrm)
            elif t_lo <= nrm + TWO_PI <= t_hi:
                cands.append(nrm + TWO_PI)
    cands.sort()
    thetas = np.array(cands)
    vx = inst.xs - apex.x
    vy = inst.ys - apex.y
    wts = inst.ws
    dots = np.outer(np.cos(thetas), vx) + np.outer(np.sin(thetas), vy)
    captures = np.sum(np.where(dots >= r - tol, wts, 0.0), axis=1)
    k = int(np.argmax(captures))
    theta_star = float(thetas[k])
    max_capture = float(captures[k])
    if max_capture < W1 - 1e-9 * max(1.0, inst.total_weight()):
        raise RuntimeError(
            "no direction at the anchor captures the worse anchor's value"
        )

    trimmed = _cone_intersection(*wedge.cone, theta_star - math.pi / 2.0, math.pi)
    if trimmed is None:
        classification = PW_NULL
    else:
        cmin, cmax = _cos_extremes(*trimmed)
        if cmin >= -COS_EPS:
            classification = SIDEWARD_RIGHT
        elif cmax <= COS_EPS:
            classification = SIDEWARD_LEFT
        else:
            raise RuntimeError(
                "trimmed pseudo-wedge cone straddles the vertical line"
            )
    return PseudoWedge(
        theta_star=theta_star,
        classification=classification,
        max_capture=max_capture,
    )


def decide(inst, idx: AngularIndex, frame: BoundingFrame, L: DirectedLine,
           telemetry: Telemetry) -> PruneDecision:
    """Classify the vertical line ``L``: name the side of the plane that
    cannot contain a better point, or raise ``CertifiedOptimum`` at an
    optimum found on it."""
    telemetry.decide_calls += 1
    ux, uy = L.direction
    if abs(ux) > 1e-9:
        raise ValueError("decide requires a vertical query line")
    X = L.anchor.x
    if X < frame.xmin:
        return PruneDecision(
            PRUNE_LEFT, "line lies left of the bounding box of all discs"
        )
    if X > frame.xmax:
        return PruneDecision(
            PRUNE_RIGHT, "line lies right of the bounding box of all discs"
        )

    got = find_xD_xU(inst, idx, frame, L, telemetry)
    if isinstance(got, PruneDecision):
        return got
    (t_D, p_D, r_D), (t_U, p_U, r_U) = got

    # The search exhausted the line's breakpoints, so none lies strictly
    # between the anchors: probe the segment midpoint.
    up = upward_line(L)
    x_B = up.point_at((t_U + t_D) / 2.0)
    res_B = solve_medianoid(inst, x_B)
    telemetry.medianoid_calls += 1
    if res_B.strong_centroid:
        raise CertifiedOptimum(
            x_B, res_B.weight_loss, "strong centroid at the anchor-segment midpoint"
        )
    cls_B = classify_wedge_on_line(res_B.wedge, up.angle)
    if cls_B in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
        return _prune(cls_B, "sideward wedge at the anchor-segment midpoint")

    # Non-leaning line: both anchors and the midpoint look along the line.
    # Equal anchor values go to the downward anchor.  The pseudo-wedge needs
    # only a direction on the apex's far half that captures at least
    # W1 >= W(apex); a tie satisfies that, and what it prunes is no better
    # than the apex, which stays on the kept boundary line.
    W_D = r_D.weight_loss
    W_U = r_U.weight_loss
    if W_D <= W_U:
        apex_p, apex_r, W1 = p_D, r_D, W_U
    else:
        apex_p, apex_r, W1 = p_U, r_U, W_D
    pw = pseudo_wedge(inst, apex_p, W1, result=apex_r)
    if pw.classification == PW_NULL:
        raise CertifiedOptimum(
            apex_p, apex_r.weight_loss, "empty pseudo-wedge cone at the better anchor"
        )
    return _prune(
        pw.classification, "pseudo-wedge cone at the better anchor points to one side"
    )
