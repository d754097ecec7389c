"""Unit tests for the planar primitives."""

import ast
import dataclasses
import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rivalloc
import support
from rivalloc.centroid import solve_centroid
from rivalloc.cli import generate_instance
from rivalloc.geom import (
    ANGLE_TOL,
    EPS_BASE,
    MAX_SCALE,
    Customer,
    Instance,
    Point,
    general_position_violation,
    normalize_angle,
)
from support import (
    Circle,
    DirectedLine,
    circle_circle_intersections,
    collinear,
    dist,
    horizontal,
    line_circle_intersections,
    line_line_intersection,
    outer_tangents,
    polar_angle,
    unit_vector,
)

EPS = 1e-9


def line_distance(line, p):
    ux, uy = line.direction
    return abs(ux * (p.y - line.anchor.y) - uy * (p.x - line.anchor.x))


@pytest.mark.parametrize(
    "theta,expected",
    [
        (0.0, 0.0),
        (2.0 * math.pi, 0.0),
        (-math.pi / 2.0, 1.5 * math.pi),
        (5.0 * math.pi, math.pi),
        (-6.0 * math.pi, 0.0),
    ],
)
def test_normalize_angle(theta, expected):
    assert normalize_angle(theta) == pytest.approx(expected, abs=1e-12)


def test_point_iterates_as_pair():
    x, y = Point(3.0, -4.0)
    assert (x, y) == (3.0, -4.0)
    assert dist(Point(0, 0), Point(3, 4)) == 5.0


def test_customer_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        Customer(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        Customer(Point(0, 0), -2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        Customer(Point(value, 0.0), 1.0)
    with pytest.raises(ValueError, match="finite"):
        Customer(Point(0.0, value), 1.0)
    with pytest.raises(ValueError, match="finite"):
        Customer(Point(0.0, 0.0), value)
    with pytest.raises(ValueError, match="finite"):
        Instance([Customer(Point(0.0, 0.0), 1.0)], value)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance([], 2.0)
    for R in (-1.0, 0.0, -0.0):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            Instance([Customer(Point(0, 0), 1.0)], R)
    inst = Instance([Customer(Point(30.0, 0.0), 1.0)], 2.0)
    assert inst.n == 1
    assert inst.r == 1.0
    assert inst.total_weight() == 1.0
    # tolerance scales with the dominant coordinate magnitude
    assert inst.eps == pytest.approx(30.0 * 1e-9)


def test_instance_rejects_a_total_weight_whose_triple_overflows():
    """The follower sweep's running sums reach 3W, W the total weight: an
    instance whose 3W overflows is refused, one whose 3W is finite is not."""
    heavy = [Customer(Point(0.0, 0.0), 1e308), Customer(Point(7.0, 3.0), 1e308),
             Customer(Point(3.0, 8.0), 1.0)]
    with pytest.raises(ValueError, match="total weight"):
        Instance(heavy, 2.0)
    with pytest.raises(ValueError, match="total weight"):
        Instance([Customer(Point(0.0, 0.0), 6e307)], 2.0)
    assert Instance([Customer(Point(0.0, 0.0), 5e307)], 2.0).total_weight() == 5e307


# Sites and weights of an instance whose squared lengths overflow in the
# solvers when its unit is 1e160.
SCALED_SITES = [(-5, 3, 2), (-12, 7, 1), (4, -9, 3), (9, 11, 1), (1, -2, 5)]


def _scaled_instance(unit):
    return Instance([Customer(Point(x * unit, y * unit), w) for x, y, w in SCALED_SITES], 4 * unit)


def test_instance_rejects_a_scale_beyond_the_solvers_range():
    """A scale max(1, R, |coordinates|) at or above ``MAX_SCALE`` is
    refused, in R or in a coordinate."""
    with pytest.raises(ValueError, match="must be below"):
        _scaled_instance(1e160)
    with pytest.raises(ValueError, match="must be below"):
        Instance([Customer(Point(0.0, 0.0), 1.0)], MAX_SCALE)
    with pytest.raises(ValueError, match="must be below"):
        Instance([Customer(Point(3.0, -MAX_SCALE), 1.0)], 2.0)


def test_an_instance_just_below_the_scale_bound_solves_cleanly():
    """At scale 9.6e139 every mode solves without a floating-point warning,
    and the modes agree."""
    inst = _scaled_instance(8e138)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses = {solve_centroid(inst, mode).weight_loss
                  for mode in ("parametric", "intermediate", "brute")}
    assert losses == {4.0}


def test_vertical_line_is_bitwise_vertical():
    L = DirectedLine.vertical(2.5)
    assert support.is_vertical(L)
    xs = {L.point_at(t).x for t in (-1e6, -3.7, 0.0, 12.3, 1e6)}
    assert xs == {2.5}


def test_horizontal_line_is_bitwise_horizontal():
    L = horizontal(-7.0)
    assert support.is_horizontal(L)
    ys = {L.point_at(t).y for t in (-1e5, 0.0, 9.25)}
    assert ys == {-7.0}


def test_side_of_sign_convention():
    # direction +x: left of the line is +y
    L = horizontal(0.0)
    assert support.side_of(L, Point(0.0, 1.0)) > 0
    assert support.side_of(L, Point(0.0, -1.0)) < 0
    assert support.side_of(L, Point(5.0, 0.0)) == 0.0


def test_outer_tangents_radius_two_pythagorean():
    # centers (0,0) and (6,8): the tangents run parallel to 4x - 3y = 0,
    # shifted by two in each normal direction
    a = Circle(Point(0.0, 0.0), 2.0)
    b = Circle(Point(6.0, 8.0), 2.0)
    t1, t2 = outer_tangents(a, b)
    for t in (t1, t2):
        assert line_distance(t, a.center) == pytest.approx(2.0, abs=EPS)
        assert line_distance(t, b.center) == pytest.approx(2.0, abs=EPS)
    # the two lines are distinct and lie on opposite sides of the center line
    mid = Point(3.0, 4.0)
    s1 = support.side_of(t1, mid)
    s2 = support.side_of(t2, mid)
    assert s1 * s2 < 0


def test_outer_tangents_requires_equal_radius():
    with pytest.raises(ValueError):
        outer_tangents(Circle(Point(0, 0), 1.0), Circle(Point(5, 5), 2.0))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
    st.floats(0.5, 5.0),
)
def test_outer_tangents_touch_both_circles(x1, y1, x2, y2, r):
    if math.hypot(x2 - x1, y2 - y1) < 1e-6:
        return
    c1 = Circle(Point(x1, y1), r)
    c2 = Circle(Point(x2, y2), r)
    for t in outer_tangents(c1, c2):
        assert line_distance(t, c1.center) == pytest.approx(r, abs=1e-7)
        assert line_distance(t, c2.center) == pytest.approx(r, abs=1e-7)
        # parallel to the center line
        assert support.side_of(t, c1.center) * support.side_of(t, c2.center) > 0


@settings(max_examples=60, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_polar_angle_roundtrip(px, py, ox, oy):
    d = math.hypot(px - ox, py - oy)
    if d < 1e-6:
        return
    theta = polar_angle(Point(px, py), Point(ox, oy))
    ux, uy = unit_vector(theta)
    assert ux == pytest.approx((px - ox) / d, abs=1e-9)
    assert uy == pytest.approx((py - oy) / d, abs=1e-9)


def test_polar_angle_rejects_coincident_points():
    with pytest.raises(ValueError):
        polar_angle(Point(1.0, 1.0), Point(1.0, 1.0))


def test_line_line_intersection_solves_both_equations():
    a = DirectedLine(Point(0.0, 0.0), math.atan2(1.0, 2.0))
    b = DirectedLine(Point(10.0, -3.0), math.atan2(5.0, -1.0))
    p = line_line_intersection(a, b)
    assert p is not None
    assert line_distance(a, p) < EPS
    assert line_distance(b, p) < EPS


def test_line_line_intersection_parallel_returns_none():
    a = DirectedLine(Point(0.0, 0.0), 0.7)
    b = DirectedLine(Point(5.0, 1.0), 0.7)
    assert line_line_intersection(a, b) is None
    c = DirectedLine(Point(5.0, 1.0), 0.7 + math.pi)
    assert line_line_intersection(a, c) is None


@pytest.mark.parametrize(
    "cy,expected",
    [
        (0.0, 2),   # secant through the center
        (3.0, 1),   # tangent from above
        (4.5, 0),   # miss
    ],
)
def test_line_circle_intersection_counts(cy, expected):
    L = horizontal(0.0)
    pts = line_circle_intersections(L, Circle(Point(4.0, cy), 3.0))
    assert len(pts) == expected
    for p in pts:
        assert abs(p.y) < EPS
        assert dist(p, Point(4.0, cy)) == pytest.approx(3.0, abs=1e-7)


def test_line_circle_intersections_sorted_along_direction():
    L = DirectedLine(Point(-9.0, -2.0), 0.4)
    pts = line_circle_intersections(L, Circle(Point(1.0, 1.0), 4.0))
    assert len(pts) == 2
    ux, uy = L.direction
    t0 = (pts[0].x - L.anchor.x) * ux + (pts[0].y - L.anchor.y) * uy
    t1 = (pts[1].x - L.anchor.x) * ux + (pts[1].y - L.anchor.y) * uy
    assert t0 < t1


@pytest.mark.parametrize(
    "d,expected",
    [
        (7.0, 0),   # too far apart
        (5.0, 2),   # proper crossing
        (6.0, 1),   # external tangency
        (0.0, 0),   # concentric
    ],
)
def test_circle_circle_intersection_counts(d, expected):
    pts = circle_circle_intersections(
        Circle(Point(0.0, 0.0), 3.0), Circle(Point(d, 0.0), 3.0)
    )
    assert len(pts) == expected
    for p in pts:
        assert dist(p, Point(0.0, 0.0)) == pytest.approx(3.0, abs=1e-7)
        assert dist(p, Point(d, 0.0)) == pytest.approx(3.0, abs=1e-7)


def test_circle_circle_intersections_sorted_by_xy():
    pts = circle_circle_intersections(
        Circle(Point(0.0, 0.0), 5.0), Circle(Point(0.1, 6.0), 5.0)
    )
    assert len(pts) == 2
    assert (pts[0].x, pts[0].y) <= (pts[1].x, pts[1].y)


def test_collinear_is_exact_on_integers():
    assert collinear(Point(0, 0), Point(2, 1), Point(4, 2))
    assert not collinear(Point(0, 0), Point(2, 1), Point(4, 3))


@pytest.mark.parametrize(
    "sites,fragment",
    [
        ([(0, 0), (0, 5)], "share x"),
        ([(0, 0), (5, 0)], "share y"),
        ([(0, 0), (2, 1), (4, 2)], "collinear"),
    ],
)
def test_general_position_violations(sites, fragment):
    inst = Instance([Customer(Point(*s), 1.0) for s in sites], 2.0)
    msg = general_position_violation(inst)
    assert msg is not None
    assert fragment in msg


def test_general_position_accepts_generic_sites():
    inst = Instance(
        [Customer(Point(0, 0), 1.0), Customer(Point(3, 1), 1.0), Customer(Point(1, 4), 2.0)],
        2.0,
    )
    assert general_position_violation(inst) is None


def _position_case(seed):
    """A small instance that is degenerate, nearly degenerate or generic.

    Cases cycle through integer grids, real coordinates, near-collinear
    triples and near-shared coordinates; the perturbations straddle the
    instance tolerance, so both outcomes of every comparison occur.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    kind = seed % 4
    pts = []
    if kind == 0:
        span = rng.choice([8, 15, 30])
        if rng.random() < 0.5:
            # Distinct x's and y's: only collinear triples can violate.
            pts = list(zip(rng.sample(range(-span, span + 1), n),
                           rng.sample(range(-span, span + 1), n)))
        else:
            pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
    elif kind == 1:
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
    else:
        for _ in range(n):
            nudge = rng.choice([0.0, 1e-12, 1e-10, 3e-9, 1e-8, 1e-7, 1e-3]) * 50.0
            nudge *= rng.choice([-1.0, 1.0])
            if len(pts) < 2 or rng.random() < 0.3:
                pts.append((rng.uniform(-50, 50), rng.uniform(-50, 50)))
            elif kind == 2:
                (ax, ay), (bx, by) = rng.sample(pts, 2)
                t = rng.uniform(-2.0, 3.0)
                pts.append((ax + t * (bx - ax) - nudge * (by - ay),
                            ay + t * (by - ay) + nudge * (bx - ax)))
            else:
                x, y = rng.choice(pts)
                if rng.random() < 0.5:
                    pts.append((x + nudge, rng.uniform(-50, 50)))
                else:
                    pts.append((rng.uniform(-50, 50), y + nudge))
    return Instance([Customer(Point(x, y), 1.0) for x, y in pts], rng.choice([1.0, 4.0]))


def test_general_position_matches_the_loop_reference():
    violating = 0
    for seed in range(2000):
        inst = _position_case(seed)
        want = support.reference_general_position_violation(inst)
        assert general_position_violation(inst) == want, seed
        violating += want is not None
    # Both outcomes are exercised in quantity.
    assert 400 < violating < 1600


def _real_sites(n, seed, span):
    rng = random.Random(seed)
    return [Point(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(n)]


def _grid_sites(n, seed):
    return [c.site for c in generate_instance(n, seed=seed, r=2.0, coord_range=4 * n).customers]


def _instance(sites):
    return Instance([Customer(p, 1.0) for p in sites], 2.0)


def _plant(sites, i, j, k, t, f=0.0):
    """The sites with site k moved to sites[i] + t * (sites[j] - sites[i])
    and then pushed off that line until the triple's cross product is f
    times the tolerance of ``collinear``: f <= 1 plants a collinear triple,
    f slightly above 1 a near miss."""
    sites = list(sites)
    a, b = sites[i], sites[j]
    dx, dy = b.x - a.x, b.y - a.y
    sites[k] = Point(a.x + t * dx, a.y + t * dy)
    span = max(abs(dx), abs(dy), abs(t * dx), abs(t * dy), 1.0)
    push = f * _instance(sites).eps * span / (dx * dx + dy * dy)
    sites[k] = Point(sites[k].x - push * dy, sites[k].y + push * dx)
    return sites


def _row_block_case(n, j, k):
    # Put site k on the line through sites 0 and j (and nudge nothing else).
    return _instance(_plant(_grid_sites(n, n + j), 0, j, k, 3.0)), (0, j, k)


def _wrap_case(f):
    """Sites 10 and 20 within 0.01 of site 3, on either side of it and
    nearly level with it, so that their angles modulo pi lie on either
    side of the wrap at pi; the cross product is f times the tolerance."""
    sites = _real_sites(40, 3, 50.0)
    a = sites[3]
    sites[10] = Point(a.x + 0.01, a.y + 40 * _instance(sites).eps)
    return _instance(_plant(sites, 3, 10, 20, -1.0, f))


def _several_case():
    sites = _grid_sites(80, 12)
    for j, k, t in ((30, 50, 3.0), (35, 40, -1.0), (20, 45, 2.0)):
        sites = _plant(sites, 5, j, k, t)
    return _instance(sites)


def _sub_unit_case(f):
    sites = _real_sites(50, 4, 50.0)
    a = sites[4]
    sites[12] = Point(a.x + 0.3, a.y + 0.4)
    return _instance(_plant(sites, 4, 12, 31, 1.7, f))


# Each case builds an instance and names the triple the loop reference must
# report, or None when it must accept the instance.
FIRST_TRIPLE_CASES = {
    "70-1-69": lambda: _row_block_case(70, 1, 69),
    "70-64-66": lambda: _row_block_case(70, 64, 66),
    "130-63-64": lambda: _row_block_case(130, 63, 64),
    "130-100-129": lambda: _row_block_case(130, 100, 129),
    "opposite-side": lambda: (_instance(_plant(_grid_sites(50, 5), 0, 17, 33, -2.0)), (0, 17, 33)),
    "wrap-at-pi": lambda: (_wrap_case(0.6), (3, 10, 20)),
    "wrap-at-pi-miss": lambda: (_wrap_case(1.1), None),
    "late-row": lambda: (_instance(_plant(_grid_sites(60, 7), 57, 58, 59, 2.0)), (57, 58, 59)),
    "first-of-several": lambda: (_several_case(), (5, 20, 45)),
    "sub-unit": lambda: (_sub_unit_case(0.99), (4, 12, 31)),
    "sub-unit-miss": lambda: (_sub_unit_case(1.01), None),
    "magnitude-1e4": lambda: (_instance(_plant(_real_sites(30, 8, 1e4), 2, 9, 25, 0.5, 0.99)), (2, 9, 25)),
    "magnitude-1e6": lambda: (_instance(_plant(_real_sites(20, 9, 1e6), 6, 11, 14, -0.7, 0.99)), (6, 11, 14)),
    "magnitude-1e6-miss": lambda: (_instance(_plant(_real_sites(20, 9, 1e6), 6, 11, 14, -0.7, 1.01)), None),
    "near-miss": lambda: (_instance(_plant(_real_sites(100, 10, 100.0), 0, 50, 99, 2.5, 1.01)), None),
}


@pytest.mark.parametrize("case", FIRST_TRIPLE_CASES)
def test_general_position_finds_the_first_triple_across_row_blocks(case):
    inst, triple = FIRST_TRIPLE_CASES[case]()
    want = support.reference_general_position_violation(inst)
    assert want == (triple and "customers %d, %d, %d are collinear" % triple)
    assert general_position_violation(inst) == want


def test_instances_from_the_same_data_are_equal():
    data = [(Point(1.0, 2.0), 3.0), (Point(4.0, -1.0), 1.0)]
    a = Instance([Customer(p, w) for p, w in data], 2.0)
    b = Instance([Customer(p, w) for p, w in data], 2.0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Instance(a.customers, 3.0)


def test_instance_arrays_are_read_only_snapshots():
    inst = Instance([Customer(Point(1.0, 2.0), 3.0), Customer(Point(4.0, -1.0), 1.0)], 2.0)
    assert inst.xs.tolist() == [1.0, 4.0]
    assert inst.ys.tolist() == [2.0, -1.0]
    assert inst.ws.tolist() == [3.0, 1.0]
    for arr in (inst.xs, inst.ys, inst.ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.xs = inst.ys


def test_instance_scales_the_tolerance_table_once():
    inst = Instance([Customer(Point(-300.0, 2.0), 0.5), Customer(Point(4.0, 7.0), 1.25)], 3.0)
    assert inst.eps == EPS_BASE * 300.0
    assert inst.capture_r == 1.5 + inst.eps
    assert inst.cross_tol == inst.eps * 1.5
    assert inst.closed_tol == EPS_BASE * 1.5
    assert inst.weight_tol == EPS_BASE * 1.75
    tiny = Instance([Customer(Point(0.25, 0.5), 0.5)], 0.5)
    assert (tiny.eps, tiny.cross_tol, tiny.closed_tol, tiny.weight_tol) == (EPS_BASE,) * 4


# The modules whose predicates the tolerance table governs.
SOLVER_MODULES = ("geom", "medianoid", "linesearch", "vprune", "centroid", "oracle")


def test_every_small_float_literal_is_in_the_tolerance_table():
    """A float literal 0 < |v| < 1e-6 in a solver module is a tolerance, and
    must be the value of a constant of the table at the top of ``geom``
    (the module-level assignments before its first class or function)."""
    package = Path(rivalloc.__file__).parent
    table = set()
    for node in ast.parse((package / "geom.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            break
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            table.add(("geom", node.value.lineno, node.value.col_offset))
    assert len(table) >= 3
    bare = [
        "%s.py:%d: %r" % (name, node.lineno, node.value)
        for name in SOLVER_MODULES
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-6
        and (name, node.lineno, node.col_offset) not in table
    ]
    assert not bare, bare


def test_only_solve_centroid_raises_degenerate_input_error():
    """``solve_centroid`` checks general position once, for every mode; a
    ``raise DegenerateInputError`` anywhere else in the package would be a
    partial check behind it."""
    package = Path(rivalloc.__file__).parent
    found = []

    class Raises(ast.NodeVisitor):
        def __init__(self, name):
            self.scope = [name]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Raise(self, node):
            if node.exc is not None and "DegenerateInputError" in ast.unparse(node.exc):
                found.append(".".join(self.scope))

    for path in sorted(package.glob("*.py")):
        Raises(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert found == ["centroid.solve_centroid"], found
