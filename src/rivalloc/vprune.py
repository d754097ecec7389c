"""Classifying a vertical query line: which closed side of it keeps an optimum.

The plane search over candidate lines needs one primitive: given an abscissa
x, name the closed side of the vertical line there that keeps an optimum,
or certify an optimum on it.  A decision at abscissa x returns one record,
``Decision``: the lean that settled the line, which names the kept side,
the rule that did, one of three declared constants, and the line's least
evaluation.  A certificate is raised where it is found, as
``CertifiedOptimum`` with one of three declared ``origin`` constants.  The
classification rests on two anchor points, the lowest breakpoint with a
downward wedge and the highest with an upward wedge, found by the
exact-median search of ``linesearch.search_lines`` over one n^2 array per
decision (``linesearch.vertical_breakpoints``), on a line strictly inside
the discs' box, and kept as the search's rows with the leans it read.  A
strong centroid met on the way raises, and a sideward wedge settles the
line at once: nothing off its apex, on the line or on the discarded side,
is better.  Otherwise the search runs until no breakpoint is left, and each
cut drops only positions at or below an upward evaluation or at or above a
downward one, so no breakpoint of the line's array lies strictly between
the anchors, and the line is no better below the upward anchor or above the
downward one.  The array's circles have radius r, but the sweep captures at
``capture_r`` = r + eps, so next to a tangency it also holds the capture
circle's crossings.  The value may still change on slivers next to an
anchor, within rounding of a crossing or up to eps/|ny| from a tangent line
nearly parallel to the line, and anchors a few tolerances apart can leave
the midpoint below both.  The segment's midpoint, one ``medianoid.sweep``
row read by ``lean_code`` as the search reads its rows, or, when that too
looks along the line, a pseudo-wedge built at the better anchor, from its
row and lean, settles the direction; equal anchor values go to the
downward anchor.  What either discards is no better than the midpoint or
that anchor, so no better than the least of the two anchors and the
midpoint, the decision's ``least``.  A strong centroid at the midpoint, or
an empty pseudo-wedge cone, is a certificate.

The record also carries the ordinates that settled the line, and the plane
search hands each decision the ordinate interval of the anchors of the
decisions that set its slab.  The search first evaluates the two positions
that bracket that interval, in one two-row sweep, and searches only what
they leave.  The median search already rests on the lean being monotone
along the line: upward below the anchors, sideward or strong between them,
downward above.  So every position at or below an upward end, or at or
above a downward one, is cut as a median cut would cut it, and the
anchors, the midpoint and the pseudo-wedge are those of the unbracketed
search.  Only the strong centroid a certifying line meets first may
differ, and, next to a tangency, where the lean is not monotone, the
sideward breakpoint that settles the line: one search can meet one that
the other cut as upward or downward, and keep the same side by another
rule.  Tolerances: ``geom``'s table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .geom import (
    ANGLE_TOL,
    TWO_PI,
    Instance,
    Point,
    _libm,
    normalize_angle,
)
from . import medianoid
from .medianoid import (
    DOWNWARD,
    SIDEWARD_LEFT,
    SIDEWARD_RIGHT,
    UPWARD,
    _normalized,
    lean_code,
)
from .linesearch import (
    AngularIndex,
    CertifiedOptimum,
    Evaluation,
    Telemetry,
    search_lines,
    vertical_breakpoints,
    vertical_lines,
)

# The rules by which a decision settles its line, and the origins of the
# certificates a decision raises (``linesearch.SEARCHED_LINE`` is the fourth).
AT_BREAKPOINT = "sideward wedge at a breakpoint of the query line"
AT_MIDPOINT = "sideward wedge at the anchor-segment midpoint"
BY_PSEUDO_WEDGE = "pseudo-wedge cone at the better anchor points to one side"
STRONG_AT_BREAKPOINT = "strong centroid at a breakpoint of the query line"
STRONG_AT_MIDPOINT = "strong centroid at the anchor-segment midpoint"
EMPTY_PSEUDO_WEDGE = "empty pseudo-wedge cone at the better anchor"


@dataclass(frozen=True)
class Decision:
    """The closed side of the vertical line at ``x`` that keeps an optimum.

    ``keep`` is the lean that settled the line: ``SIDEWARD_RIGHT`` keeps
    the side x' >= x, ``SIDEWARD_LEFT`` the side x' <= x.  ``rule`` is one
    of the three rule constants above.  ``least`` is the least ``(point,
    weight loss)``, by (loss, x, y), of the sideward apex (``AT_BREAKPOINT``)
    or else of the two anchors and the midpoint: the line's least
    evaluation.  Nothing the decision discards, and no point of its line,
    is better, so the plane search keeps it as a candidate.  ``anchors``,
    ``(t_up, t_down)``, are the ordinates that settled the line: its two
    anchors, or a sideward apex's ordinate twice.  Both record what the
    search found, not what was decided, so records compare without them.
    """

    x: float
    keep: str
    rule: str
    least: Tuple[Point, float] = field(compare=False)
    anchors: Tuple[float, float] = field(compare=False)


def find_xD_xU(inst, idx: AngularIndex, x: float, telemetry: Telemetry,
               hint: Optional[Tuple[float, float]] = None):
    """Locate the lowest downward and highest upward breakpoints on the
    vertical line at abscissa ``x``, whose positions are ordinates:
    ``(down, up, None)``, the rows ``(t, x, y, loss, witness, theta_b,
    span)`` of ``search_lines`` that it read as downward and upward, or
    ``(apex, apex, side)`` when a sideward wedge at the row ``apex`` en
    route already settles the line with the lean ``side``; a strong
    centroid en route raises ``CertifiedOptimum``.  The positions are the
    decision's array (``vertical_breakpoints``), whose two frame ordinates
    give every vertical line inside the box both anchor types; the search
    exhausts the line, so none lies strictly between the anchors.

    ``hint``, an ordinate interval ``(lo, hi)``, brackets the search: one
    two-row sweep (``search_lines`` on two one-position arrays) evaluates
    the greatest position at or below lo and the least at or above hi,
    where either exists.  A strong centroid there raises, and a sideward
    lean there settles the line.  Positions at or below an upward end, and
    at or above a downward one, are then dropped, as the median cuts would
    drop them (see the module docstring on the lean's monotony).  So an
    upward lower end and a downward upper end leave only the positions
    strictly between them, and a miss the positions beyond its failing end;
    the search over those, if any are left, gives the anchors, and an end
    the search does not pass stays one.  Selecting the ends counts and
    partitions the array in place.
    """
    P = vertical_breakpoints(idx, x)
    s, e = 0, len(P)
    up = down = None
    if hint is not None:
        lo = int(np.count_nonzero(P <= hint[0]))
        hi = int(np.count_nonzero(P < hint[1]))
        # Partitioned at lo - 1 and then at hi, P[:lo] holds the positions
        # <= hint[0] and P[hi:] those >= hint[1].  With hi < lo the hint is
        # one ordinate, a position, and both ends are that position.  One
        # index per partition: numpy's partition at two indices took ten
        # times as long as at one, on a line of 40,000 positions.
        ends = []
        if lo:
            P.partition(lo - 1)
            ends.append((lo - 1, True))
        if lo <= hi < len(P):
            P[lo:].partition(hi - lo)
            ends.append((hi, False))
        found = search_lines(inst, vertical_lines([x] * len(ends)),
                             [P[k:k + 1] for k, _ in ends], telemetry, STRONG_AT_BREAKPOINT)
        for (_, lower), (least, u, d, side) in zip(ends, found):
            if side is not None:
                return least, least, side
            if u is not None:
                up = u
                if lower:
                    s = max(s, lo)
                else:
                    # Past the positions equal to the upper end.
                    j = int(np.count_nonzero(P[hi:] <= u[0]))
                    P[hi:].partition(j - 1)
                    s = max(s, hi + j)
            else:
                down = down or d
                if lower:
                    # Before the positions equal to the lower end.
                    j = int(np.count_nonzero(P[:lo] < d[0]))
                    P[:lo].partition(j)
                    e = min(e, j)
                else:
                    e = min(e, hi)
    if s < e:
        [(least, u, d, side)] = search_lines(
            inst, vertical_lines([x]), [P[s:e]], telemetry, STRONG_AT_BREAKPOINT)
        if side is not None:
            return least, least, side
        up = u or up
        down = d or down
    if down is None or up is None:
        raise RuntimeError("auxiliary frame crossings failed to supply both anchors")
    if not down[0] > up[0]:
        raise RuntimeError("downward anchor does not lie strictly above the upward anchor")
    return down, up, None


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


def pseudo_wedge(inst: Instance, apex: Evaluation, lean: str,
                 W1: float) -> Tuple[Optional[str], float, float]:
    """Build the trimmed wedge at the anchor ``apex`` that certifies
    one-side pruning.

    ``apex`` is the search row ``(t, x, y, loss, witness, theta_b, span)``
    of the better anchor of a vertical line, ``lean`` the lean along the
    line that the search read there, ``DOWNWARD`` or else ``UPWARD``, and
    ``W1`` the follower value at the worse anchor.  A direction of
    maximum closed capture (weight of customers whose disc lies weakly
    beyond distance ``r`` along the direction, up to ``inst.closed_tol``)
    is chosen on the anchor's far half of directions; it must capture at
    least ``W1`` up to ``inst.weight_tol``.  The wedge's direction cone
    intersected with the half-turn around that direction then either sits
    weakly on one side of the vertical line or is empty.  Returns
    ``(side, theta_star, max_capture)``: the lean of the trimmed cone,
    ``SIDEWARD_RIGHT`` or ``SIDEWARD_LEFT``, or None when it is empty; the
    direction of maximum capture; and the weight it captures.
    """
    t_lo, t_hi = (0.0, math.pi) if lean == DOWNWARD else (math.pi, TWO_PI)
    r = inst.r
    tol = inst.closed_tol
    _, ax, ay, _, _, theta_b, span = apex
    vx = inst.xs - ax
    vy = inst.ys - ay
    # Candidate directions: the capture-arc endpoints, in customer order,
    # from correctly rounded operations and the C library's functions, so
    # that they and theta_star do not depend on how numpy's vector math
    # rounds.  Anchors commonly sit exactly on a customer circle; keep the
    # arc's collapsed endpoint as a candidate when d == r up to rounding.
    d = np.sqrt(vx * vx + vy * vy)
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
        raise RuntimeError("no direction at the anchor captures the worse anchor's value")

    # The wedge's ray directions, by ``medianoid.Wedge.cone``'s expression.
    cone = normalize_angle(theta_b + span - math.pi / 2.0), math.pi - span
    trimmed = _cone_intersection(*cone, theta_star - math.pi / 2.0, math.pi)
    side = None
    if trimmed is not None:
        cmin, cmax = _cos_extremes(*trimmed)
        if cmin >= -ANGLE_TOL:
            side = SIDEWARD_RIGHT
        elif cmax <= ANGLE_TOL:
            side = SIDEWARD_LEFT
        else:
            raise RuntimeError("trimmed pseudo-wedge cone straddles the vertical line")
    return side, theta_star, max_capture


def decide(inst, idx: AngularIndex, x: float, telemetry: Telemetry,
           hint: Optional[Tuple[float, float]] = None) -> Decision:
    """Classify the vertical line at abscissa ``x``: name the closed side
    of it that keeps an optimum, or raise ``CertifiedOptimum`` at an
    optimum found on it.  ``hint``, an ordinate interval, brackets the
    anchors' search (``find_xD_xU``); the anchors' midpoint is one
    ``medianoid.sweep`` row, read as the search reads its rows; the
    pseudo-wedge takes the better anchor's row and the lean the search read
    there.  An abscissa not strictly inside ``idx.box``, NaN included,
    raises ``ValueError`` and is not counted."""
    if not idx.box[0] < x < idx.box[1]:
        raise ValueError(f"decision abscissa {x} is not strictly inside the discs' box {idx.box}")
    telemetry.decide_calls += 1
    down, up, side = find_xD_xU(inst, idx, x, telemetry, hint)
    t_D, x_D, y_D, W_D = down[:4]
    t_U, x_U, y_U, W_U = up[:4]
    if side is not None:
        return Decision(x, side, AT_BREAKPOINT, (Point(x_D, y_D), W_D), (t_U, t_D))

    # No position of the line's array lies strictly between the anchors,
    # but the value may change on a sliver next to one: probe the midpoint,
    # by the search's float operations and rules on the line's row.
    m = (t_U + t_D) / 2.0
    x_B = Point(x + m * 0.0, 0.0 + m * 1.0)
    row = medianoid.sweep(inst, np.array([x_B.x]), np.array([x_B.y]))
    W_B, _, theta_b, span = (c.item() for c in row)
    telemetry.medianoid_calls += 1
    if span > math.pi:
        raise CertifiedOptimum(x_B, W_B, STRONG_AT_MIDPOINT)
    # The anchors may lie within the capture tolerance of each other, where
    # the value on the open segment need not be constant: the midpoint can
    # be lower than both.  Ties go by (x, y), as the plane search's do.
    least = min(((Point(x_D, y_D), W_D), (Point(x_U, y_U), W_U), (x_B, W_B)),
                key=lambda e: (e[1], e[0].x, e[0].y))
    up_angle = math.pi / 2.0
    lean_B = lean_code(theta_b + span, math.pi - span, up_angle, normalize_angle(up_angle + math.pi))
    if lean_B in (SIDEWARD_RIGHT, SIDEWARD_LEFT):
        return Decision(x, lean_B, AT_MIDPOINT, least, (t_U, t_D))

    # Non-leaning line: both anchors and the midpoint look along the line.
    # Equal anchor values go to the downward anchor.  The pseudo-wedge needs
    # only a direction on the apex's far half that captures at least
    # W1 >= W(apex); a tie satisfies that, and what it prunes is no better
    # than the apex, so no better than ``least``.
    if W_D <= W_U:
        apex, lean, W1 = down, DOWNWARD, W_U
    else:
        apex, lean, W1 = up, UPWARD, W_D
    side = pseudo_wedge(inst, apex, lean, W1)[0]
    if side is None:
        raise CertifiedOptimum(Point(apex[1], apex[2]), apex[3], EMPTY_PSEUDO_WEDGE)
    return Decision(x, side, BY_PSEUDO_WEDGE, least, (t_U, t_D))
