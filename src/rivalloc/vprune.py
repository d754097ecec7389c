"""Classifying a vertical query line: which side of it can be discarded.

The plane search over candidate lines needs one primitive: given an abscissa
x, name the side of the vertical line there that cannot contain a better
point, or certify an optimum on it.  A decision at abscissa x returns the
side (``PruneDecision``); a certificate is raised where it is found, as
``CertifiedOptimum`` with an ``origin`` string.  The classification rests on
two anchor points, the lowest breakpoint with a downward wedge and the
highest with an upward wedge, found by the exact-median search of
``linesearch.search_lines`` over the line's breakpoint array and the frame's
two ordinates, both read off the angular index's line table as ordinates at
x (``linesearch.vertical_breakpoints``), one n^2 array per decision.  A
strong centroid met on the way raises, and a sideward wedge settles the line
at once.  Otherwise the search runs until no breakpoint is left, and each
cut drops only positions at or below an upward evaluation or at or above a
downward one, so no breakpoint of the line's array lies strictly between
the anchors.  That array holds circles of radius r and tangents at offset
r, but the sweep captures at ``capture_r`` = r + eps, so the value may
still change on slivers next to an anchor, up to about sqrt(2 r eps) wide
near a tangency; ``test_near_shared_x_reproducer_matches_brute`` pins the
known instance where one makes a decision fail.  The segment's midpoint or,
when that too looks along the line, a pseudo-wedge built at the better
anchor settles the direction; equal anchor values go to the downward
anchor.  A decision settled by the midpoint carries it, with its weight
loss, as a candidate: anchors a few tolerances apart can leave it below
both.  A strong centroid at the midpoint, or an empty pseudo-wedge cone, is
a certificate.  The pseudo-wedge's direction of greatest capture comes from
its directions x customers capture table, built a block of rows at a time
(``_first_max_capture``).  Tolerances: ``geom``'s table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    TWO_PI,
    DirectedLine,
    Instance,
    Point,
    _libm,
)
from . import medianoid
from .medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    Wedge,
    _normalized,
    as_result,
    classify_wedge_on_line,
    solve_medianoid,
)
from .linesearch import (
    AngularIndex,
    CertifiedOptimum,
    Telemetry,
    search_lines,
    vertical_breakpoints,
)

PRUNE_LEFT = "prune-left"
PRUNE_RIGHT = "prune-right"

PW_NULL = "null"


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
    ``witness``, when set, is a point the decision evaluated and its weight
    loss, which the plane search must keep as a candidate: the line search
    on the kept boundary line evaluates breakpoints only and may miss it.
    """

    kind: str
    evidence: str
    witness: Optional[Tuple[Point, float]] = None


def _prune(cls: str, evidence: str, witness: Optional[Tuple[Point, float]] = None) -> PruneDecision:
    """Discard the side a sideward classification ``cls`` turns away from."""
    return PruneDecision(PRUNE_LEFT if cls == SIDEWARD_RIGHT else PRUNE_RIGHT, evidence, witness)


def find_xD_xU(inst, idx: AngularIndex, x: float, telemetry: Telemetry):
    """Locate the lowest downward and highest upward breakpoints on the
    vertical line at abscissa ``x``, whose positions are ordinates: the
    anchor pair ``(down, up)``, each ``(t, result)`` with the anchor at
    ``result.wedge.apex``, or a ``PruneDecision`` when a sideward wedge en
    route already settles the line; a strong centroid en route raises
    ``CertifiedOptimum``.  The breakpoints and the frame's two ordinates
    come from the index's table (``vertical_breakpoints``); the frame's
    auxiliary lines give every vertical line through the box both anchor
    types, and the search exhausts the line, so no position of this array
    lies strictly between the anchors (see the module docstring for the
    slivers this leaves).
    """
    P = vertical_breakpoints(idx, x, with_frame=True)
    [(_, up, down, side)] = search_lines(
        inst, [DirectedLine.vertical(x)], [P], telemetry,
        "strong centroid at a breakpoint of the query line",
    )
    if side is not None:
        return _prune(side, "sideward wedge at a breakpoint of the query line")
    if down is None or up is None:
        raise RuntimeError(
            "auxiliary frame crossings failed to supply both anchors"
        )
    if not down[0] > up[0]:
        raise RuntimeError(
            "downward anchor does not lie strictly above the upward anchor"
        )
    return tuple((e[0], as_result(Point(e[1], e[2]), *e[3:])) for e in (down, up))


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


def _first_max_capture(inst: Instance, vx: np.ndarray, vy: np.ndarray,
                       thetas: np.ndarray) -> Tuple[int, float]:
    """The first index k of the greatest closed capture over the sorted
    directions ``thetas``, and that capture: the table
    ``np.outer(cos(thetas), vx) + np.outer(sin(thetas), vy) >= r -
    closed_tol``, each row's captured weights summed by ``np.sum``, built
    and summed in blocks of about ``SWEEP_BLOCK`` entries.  A row's sum
    does not depend on the block it falls in, and the first greatest wins.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    rows = max(1, medianoid.SWEEP_BLOCK // inst.n)
    best, best_k = -math.inf, -1
    for lo in range(0, len(thetas), rows):
        dots = np.outer(c[lo:lo + rows], vx) + np.outer(s[lo:lo + rows], vy)
        captures = np.sum(np.where(dots >= inst.r - inst.closed_tol, inst.ws, 0.0), axis=1)
        i = int(np.argmax(captures))
        if captures[i] > best:
            best, best_k = float(captures[i]), lo + i
    return best_k, best


def pseudo_wedge(inst: Instance, wedge: Wedge, W1: float) -> PseudoWedge:
    """Build the trimmed wedge at ``wedge.apex`` that certifies one-side
    pruning.

    ``wedge`` is the follower's wedge at the better anchor of a vertical
    line, and ``W1`` the follower value at the worse one.  A direction of
    maximum closed capture (weight of customers whose disc lies weakly
    beyond distance ``r`` along the direction, up to ``inst.closed_tol``)
    is chosen on the anchor's far half of directions; it must capture at
    least ``W1`` up to ``inst.weight_tol``.  The wedge's direction cone
    intersected with the half-turn around that direction then either sits
    weakly on one side of the vertical line or is empty.  A sideward
    ``wedge`` raises ``ValueError``.
    """
    cls = classify_wedge_on_line(wedge, math.pi / 2.0)
    if cls == UPWARD:
        t_lo, t_hi = math.pi, TWO_PI
    elif cls == DOWNWARD:
        t_lo, t_hi = 0.0, math.pi
    else:
        raise ValueError("pseudo-wedge anchor must be upward or downward")

    r = inst.r
    tol = inst.closed_tol
    apex = wedge.apex
    vx = inst.xs - apex.x
    vy = inst.ys - apex.y
    # Candidate directions: the capture-arc endpoints, in customer order,
    # from the C library's functions, so that they and theta_star do not
    # depend on how numpy's vector math rounds.  Anchors commonly sit
    # exactly on a customer circle; keep the arc's collapsed endpoint as a
    # candidate when d == r up to rounding.
    d = _libm(math.hypot, vx, vy)
    far = d >= r - tol
    theta_v = _libm(math.atan2, vy[far], vx[far])
    phi = _libm(math.acos, np.minimum(1.0, r / d[far]))
    ends = _normalized(np.stack((theta_v - phi, theta_v + phi), axis=1).ravel())
    inside = (t_lo <= ends) & (ends <= t_hi)
    ends = np.where(inside, ends, ends + TWO_PI)
    inside |= (t_lo <= ends) & (ends <= t_hi)
    thetas = np.sort(np.append((t_lo, t_hi), ends[inside]), kind="stable")
    k, max_capture = _first_max_capture(inst, vx, vy, thetas)
    theta_star = float(thetas[k])
    if max_capture < W1 - inst.weight_tol:
        raise RuntimeError(
            "no direction at the anchor captures the worse anchor's value"
        )

    trimmed = _cone_intersection(*wedge.cone, theta_star - math.pi / 2.0, math.pi)
    if trimmed is None:
        classification = PW_NULL
    else:
        cmin, cmax = _cos_extremes(*trimmed)
        if cmin >= -ANGLE_TOL:
            classification = SIDEWARD_RIGHT
        elif cmax <= ANGLE_TOL:
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


def decide(inst, idx: AngularIndex, x: float, telemetry: Telemetry) -> PruneDecision:
    """Classify the vertical line at abscissa ``x``: name the side of the
    plane that cannot contain a better point, or raise
    ``CertifiedOptimum`` at an optimum found on it."""
    telemetry.decide_calls += 1
    frame = idx.frame
    if x < frame.xmin:
        return PruneDecision(
            PRUNE_LEFT, "line lies left of the bounding box of all discs"
        )
    if x > frame.xmax:
        return PruneDecision(
            PRUNE_RIGHT, "line lies right of the bounding box of all discs"
        )

    got = find_xD_xU(inst, idx, x, telemetry)
    if isinstance(got, PruneDecision):
        return got
    (t_D, r_D), (t_U, r_U) = got

    # No position of the line's array lies strictly between the anchors,
    # but the value may change on a sliver next to one: probe the midpoint.
    x_B = DirectedLine.vertical(x).point_at((t_U + t_D) / 2.0)
    res_B = solve_medianoid(inst, x_B)
    telemetry.medianoid_calls += 1
    if res_B.strong_centroid:
        raise CertifiedOptimum(
            x_B, res_B.weight_loss, "strong centroid at the anchor-segment midpoint"
        )
    cls_B = classify_wedge_on_line(res_B.wedge, math.pi / 2.0)
    if cls_B in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
        # The anchors may lie within the capture tolerance of each other,
        # where the value on the open segment need not be constant: the
        # midpoint can be lower than both, so it goes with the decision.
        return _prune(cls_B, "sideward wedge at the anchor-segment midpoint",
                      (x_B, res_B.weight_loss))

    # Non-leaning line: both anchors and the midpoint look along the line.
    # Equal anchor values go to the downward anchor.  The pseudo-wedge needs
    # only a direction on the apex's far half that captures at least
    # W1 >= W(apex); a tie satisfies that, and what it prunes is no better
    # than the apex, which stays on the kept boundary line.
    if r_D.weight_loss <= r_U.weight_loss:
        apex, W1 = r_D, r_U.weight_loss
    else:
        apex, W1 = r_U, r_D.weight_loss
    pw = pseudo_wedge(inst, apex.wedge, W1)
    if pw.classification == PW_NULL:
        raise CertifiedOptimum(
            apex.wedge.apex, apex.weight_loss, "empty pseudo-wedge cone at the better anchor"
        )
    return _prune(
        pw.classification, "pseudo-wedge cone at the better anchor points to one side"
    )
