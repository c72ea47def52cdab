import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import planegeom
from surfclass.errors import (
    DegenerateGeometryError,
    EmptySetError,
    NotContractingError,
    PointOnCurveError,
    RenderLimitError,
    SurfclassError,
    UnknownPresetError,
)
from surfclass.planegeom import (
    SQRT3,
    AffineMap2,
    ClosedCurve,
    IFS,
    Point,
    Polygon,
    Scene,
    Segment,
    contraction_ratio,
    hausdorff_distance,
    ifs_iterate,
    preset,
    preset_seed,
    snowflake,
    winding_number,
)
from surfclass.svg import render_svg

from geomutil import (
    BisectionLimitError, apply_map, certify_convergence, distance2_reference, hausdorff_brute,
    ifs_iterate_reference, on_curve_eps, render_svg_reference, snowflake_reference,
    winding_reference,
)


def test_contraction_ratio_examples():
    assert contraction_ratio(AffineMap2(0.5, 0, 0, 0.5, -0.25, 0)) == pytest.approx(0.5)
    assert contraction_ratio(AffineMap2(1, 0, 0, 1, 0, 0)) == pytest.approx(1.0)
    assert contraction_ratio(AffineMap2(0.5, -0.5, 0.5, 0.5, 0, 0)) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_ifs_requires_contraction():
    with pytest.raises(NotContractingError):
        IFS((AffineMap2(1, 0, 0, 1, 0, 0),))
    with pytest.raises(NotContractingError):
        IFS(())


def test_preset_tables():
    g = preset("sierpinski-gasket")
    assert g.maps[0] == AffineMap2(0.5, 0.0, 0.0, 0.5, -0.25, 0.0)
    assert len(preset("heighway").maps) == 2
    assert len(preset("koch").maps) == 4
    assert len(preset("hilbert").maps) == 4
    assert len(preset("sierpinski-dragon").maps) == 3
    assert preset("koch").lam == pytest.approx(1 / 3)
    for name in ("sierpinski-gasket", "sierpinski-dragon", "heighway", "koch", "hilbert"):
        assert all(contraction_ratio(m) < 1 for m in preset(name).maps)
    with pytest.raises(UnknownPresetError):
        preset("mandelbrot")


def test_an_unknown_preset_has_no_seed():
    with pytest.raises(UnknownPresetError, match="^no seed for preset 'nope'$") as e:
        preset_seed("nope")
    assert e.value.code == "E_UNKNOWN_PRESET"


def test_a_polygon_needs_three_vertices():
    with pytest.raises(DegenerateGeometryError, match="^polygon needs at least 3 vertices$") as e:
        Polygon(((0.0, 0.0), (1.0, 0.0)))
    assert e.value.code == "E_DEGENERATE_GEOMETRY"


def test_render_svg_refuses_a_primitive_of_another_class():
    class Dot:  # has vertices, so a Scene holds it, but the writer knows no text for it
        def vertices(self):
            return ((0.0, 0.0),)

    with pytest.raises(TypeError, match="^unknown primitive "):
        render_svg(Scene((Dot(),)))


def test_ifs_iterate_counts_and_fixed_point():
    g = preset("sierpinski-gasket")
    one = ifs_iterate(g, Scene((Point(0.3, 0.4),)), 1)
    assert len(one.primitives) == 3
    assert one.primitives[0] == Point(*apply_map(g.maps[0], (0.3, 0.4)))
    assert ifs_iterate(g, Scene((Point(1, 2),)), 0) == Scene((Point(1, 2),))
    assert apply_map(g.maps[2], (0.0, SQRT3 / 2)) == pytest.approx((0.0, SQRT3 / 2))
    five = ifs_iterate(g, preset_seed("sierpinski-gasket"), 5)
    assert len(five.primitives) == 3**5 * 3


# coefficients of size at most 0.48 keep the Frobenius norm, and so the
# contraction ratio, under 1; a few exact values make repeated points,
# and the singular maps send segments onto lines and points
_coeff = st.sampled_from([0.0, 0.25, -0.25, 0.48]) | st.floats(-0.48, 0.48)
_shift = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)
_general_maps = st.tuples(_coeff, _coeff, _coeff, _coeff, _shift, _shift).map(
    lambda t: AffineMap2(*t))
_singular_maps = st.tuples(_coeff, _coeff, st.floats(-1.0, 1.0), _shift, _shift).map(
    lambda t: AffineMap2(t[0], t[1], t[2] * t[0], t[2] * t[1], t[3], t[4]))
_vertex = st.tuples(_shift, _shift)
_primitives = st.one_of(
    _vertex.map(lambda v: Point(*v)),
    st.tuples(_vertex, _vertex).filter(lambda s: s[0] != s[1]).map(lambda s: Segment(*s)),
    st.lists(_vertex, min_size=3, max_size=5).map(lambda vs: Polygon(tuple(vs))),
)


def _outcome(f, *args):
    """f(*args), or the class of the coded error it raises."""
    try:
        return f(*args)
    except SurfclassError as e:
        return type(e)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_general_maps | _singular_maps, min_size=1, max_size=3),
    st.lists(_primitives, min_size=1, max_size=3),
    st.integers(0, 4),
)
def test_ifs_iterate_matches_the_per_primitive_loop(maps, seed, n):
    system, scene = IFS(tuple(maps)), Scene(tuple(seed))
    assert _outcome(ifs_iterate, system, scene, n) == _outcome(
        ifs_iterate_reference, system, scene, n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_general_maps | _singular_maps, min_size=1, max_size=3),
    st.lists(_primitives, min_size=1, max_size=3),
    st.integers(0, 4),
)
def test_render_svg_matches_the_per_primitive_writer(maps, seed, n):
    system, scene = IFS(tuple(maps)), Scene(tuple(seed))

    def flat(system, scene, n):
        return render_svg(ifs_iterate(system, scene, n))

    def reference(system, scene, n):
        return render_svg_reference(ifs_iterate_reference(system, scene, n))

    assert _outcome(flat, system, scene, n) == _outcome(reference, system, scene, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(_primitives, min_size=0, max_size=6))
def test_render_svg_of_a_hand_built_scene_matches_the_per_primitive_writer(prims):
    scene = Scene(prims)
    assert scene.primitives == tuple(prims)
    if prims:
        assert render_svg(scene) == render_svg_reference(scene)
    else:
        for render in (render_svg, render_svg_reference):
            with pytest.raises(EmptySetError):
                render(scene)


@pytest.mark.parametrize("n", range(5))
def test_snowflake_matches_the_per_primitive_loop(n):
    assert snowflake(n) == snowflake_reference(n)


@pytest.mark.parametrize("row", [(0.5, 0, 0, 0.5, math.nan, 0), (0.5, 0, 0, 0.5, 1e308, 0)])
def test_ifs_iterate_rejects_non_finite_coordinates(row):
    system = IFS((AffineMap2(*row),))
    seed = Scene((Segment((0.0, 0.0), (0.0, 1.0)),))
    with pytest.raises(RenderLimitError):
        ifs_iterate(system, seed, 6)


def test_ifs_iterate_renders_finite_coordinates_whose_sum_overflows():
    system = IFS((AffineMap2(0.5, 0, 0, 0.5, 8e307, 0), AffineMap2(0.5, 0, 0, 0.5, 8e307, 1)))
    seed = Scene((Segment((1e308, 0.0), (1.5e308, 1.0)),))
    scene = ifs_iterate(system, seed, 6)
    assert math.isinf(sum(scene.xs))
    assert render_svg(scene) == render_svg_reference(ifs_iterate_reference(system, seed, 6))


def test_ifs_iterate_keeps_segments_whose_x_ends_are_equal():
    gasket, seed = preset("sierpinski-gasket"), Scene((Segment((0.0, 0.0), (0.0, 1.0)),))
    scene = ifs_iterate(gasket, seed, 3)
    assert scene.xs[0::2] == scene.xs[1::2]
    assert scene == ifs_iterate_reference(gasket, seed, 3)


def test_ifs_iterate_names_the_first_degenerate_segment_in_copy_major_order():
    # copy 0 flattens slot 1 onto (4, 0), copy 1 flattens slot 0 onto (0, 5)
    system = IFS((AffineMap2(0.5, 0, 0, 0, 3.0, 0), AffineMap2(0, 0, 0, 0.5, 0, 5.0)))
    seed = Scene((Segment((0.0, 0.0), (1.0, 0.0)), Segment((2.0, 0.0), (2.0, 1.0))))
    for iterate in (ifs_iterate, ifs_iterate_reference):
        with pytest.raises(DegenerateGeometryError, match=r"coincide at \(4\.0, 0\.0\)$"):
            iterate(system, seed, 1)


def test_hausdorff_examples():
    assert hausdorff_distance([(0, 0)], [(0, 0)]) == 0.0
    assert hausdorff_distance([(0, 0)], [(3, 0)]) == 3.0
    assert hausdorff_distance([(0, 0), (1, 0)], [(0, 0)]) == 1.0
    with pytest.raises(EmptySetError):
        hausdorff_distance([], [(1, 2)])


def test_hausdorff_metric_axioms():
    rng = random.Random(99)
    for _ in range(1000):
        pts = lambda: [
            (rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randint(1, 6))
        ]
        A, B, C = pts(), pts(), pts()
        dab, dba = hausdorff_distance(A, B), hausdorff_distance(B, A)
        # a - b == -(b - a) exactly and hypot is even, so both ways agree exactly
        assert dab == dba
        assert hausdorff_distance(A, A) == 0.0
        dac, dcb = hausdorff_distance(A, C), hausdorff_distance(C, B)
        assert dab <= dac + dcb + 1e-12 * max(1.0, dab)
    # the smaller set's direction holds the maximum: the second pass raises it
    A, B = [(0.0, 0.0), (10.0, 0.0)], [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
    assert hausdorff_distance(A, B) == hausdorff_distance(B, A) == hausdorff_brute(A, B)


_coord = st.floats(-2.0, 2.0)
_lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: (p[0] / 4, p[1] / 4))
_point = st.one_of(_lattice, st.tuples(_coord, _coord))
_points = st.lists(_point, min_size=1, max_size=40)


def _line(vertical):
    return st.tuples(_coord, st.lists(_coord, min_size=1, max_size=40)).map(
        lambda c: [(c[0], t) if vertical else (t, c[0]) for t in c[1]]
    )


def _next(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# 0 and 1 and their two float neighbours on each side, as x and as y:
# a set drawn from these holds the other set's strip heads and the
# floats just either side of them
_ULPS = [_next(c, n) for c in (0.0, 1.0) for n in range(-2, 3)]

LAYOUTS = st.one_of(
    st.lists(_lattice, min_size=1, max_size=40),
    _line(vertical=True),
    _line(vertical=False),
    st.lists(_point, min_size=1, max_size=3).flatmap(
        lambda pts: st.lists(st.sampled_from(pts), min_size=1, max_size=30)
    ),
    st.lists(st.tuples(st.booleans(), _point), min_size=1, max_size=40).map(
        lambda ps: [(x + 1000.0 * far, y) for far, (x, y) in ps]
    ),
    _points.map(lambda ps: ps + [(1e6, 0.0)]),
    _point.map(lambda p: [p]),
    _points,
    # near-vertical line: x spread 1e-9
    st.lists(st.tuples(st.floats(0.0, 1e-9), _coord), min_size=1, max_size=40),
    # L shape: a vertical and a horizontal arm through one corner
    st.tuples(_coord, _coord, st.lists(st.tuples(st.booleans(), _coord), min_size=1, max_size=40))
    .map(lambda c: [(c[0], t) if up else (t, c[1]) for up, t in c[2]]),
    st.lists(st.tuples(st.sampled_from(_ULPS), st.sampled_from(_ULPS)), min_size=1, max_size=40),
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(LAYOUTS, LAYOUTS)
def test_hausdorff_search_equals_brute(A, B):
    # lattice ties, vertical and horizontal lines, duplicates, two
    # clusters 1,000 apart, one far outlier, one-point sets, a
    # near-vertical line, an L, points on and one ulp off strip heads
    assert hausdorff_distance(A, B) == hausdorff_brute(A, B)


def _work_guard_sets(family, n=10**4):
    rng = random.Random(3)

    def square(dx=0.0):
        return [(rng.random() + dx, rng.random()) for _ in range(n)]

    if family == "uniform":
        return square(), square()
    if family == "vertical line":
        return [(0.0, rng.random()) for _ in range(n)], [(0.0, rng.random()) for _ in range(n)]
    if family == "horizontal line":
        return [(rng.random(), 0.0) for _ in range(n)], [(rng.random(), 0.0) for _ in range(n)]
    if family == "one outlier":
        return square()[1:] + [(1e6, 0.0)], square()
    if family == "one hole":
        # as in the benchmark: B is three copies of A, each point moved by at
        # most 1e-3, plus the centre of A's empty disk, so m = 4 |A| + 1
        A = []
        while len(A) < n // 4:
            x, y = rng.random(), rng.random()
            if math.hypot(x - 0.5, y - 0.5) > 0.1:
                A.append((x, y))
        B = []
        for x, y in A:
            for _ in range(3):
                r, t = 1e-3 * rng.random(), 2 * math.pi * rng.random()
                B.append((x + r * math.cos(t), y + r * math.sin(t)))
        return A, B + [(0.5, 0.5)]
    return square(), square(1000.0)


@pytest.mark.parametrize(
    "family",
    ["uniform", "vertical line", "horizontal line", "one outlier", "far squares", "one hole"],
)
def test_hausdorff_work_is_m_log_m(monkeypatch, family):
    A, B = _work_guard_sets(family)
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(math, "hypot", counted("hypot", math.hypot))
    monkeypatch.setattr(planegeom, "bisect_left", counted("bisect", planegeom.bisect_left))
    hausdorff_distance(A, B)
    m = len(A) + len(B)
    assert 0 < calls["hypot"] <= m * math.log2(m)
    assert 0 < calls["bisect"] <= m * math.log2(m)
    if family == "one hole":
        # B's copies within 1e-3 of A's points: the larger query set's
        # maximum lets almost every query of the other stop at once
        assert calls["hypot"] <= 2 * m


def test_contraction_inequality_on_sets():
    g = preset("sierpinski-gasket")
    rng = random.Random(17)
    for _ in range(50):
        A = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 5))]
        B = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 5))]
        FA = [apply_map(m, p) for m in g.maps for p in A]
        FB = [apply_map(m, p) for m in g.maps for p in B]
        assert hausdorff_distance(FA, FB) <= g.lam * hausdorff_distance(A, B) + 1e-9


def test_certify_convergence_gasket():
    corners = [(-0.5, 0.0), (0.5, 0.0), (0.0, SQRT3 / 2)]
    deltas = certify_convergence(preset("sierpinski-gasket"), corners, 6)
    assert len(deltas) == 6
    for n in range(1, 6):
        assert deltas[n] <= 0.5 * deltas[n - 1] + 1e-9
        assert deltas[n] <= 0.5**n * deltas[0] + 1e-9


def test_certify_convergence_fixed_point_like():
    # a singleton at the map's fixed point stays put under a one-map system
    sys = IFS((AffineMap2(0.5, 0, 0, 0.5, 0, 0),))
    deltas = certify_convergence(sys, [(0.0, 0.0)], 4)
    assert deltas == [0.0, 0.0, 0.0, 0.0]


def test_snowflake_composite():
    scene = snowflake(2)
    # three transformed copies of the 2-iterate of the koch seed
    assert len(scene.primitives) == 3 * (4**2)


def _ring(n=64, repeat=1, reverse=False):
    pts = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)
    ]
    pts = pts * repeat
    if reverse:
        pts = list(reversed(pts))
    return ClosedCurve(tuple(pts))


def test_winding_multiples():
    for m in (-3, -2, -1, 1, 2, 3):
        curve = _ring(repeat=abs(m), reverse=m < 0)
        assert winding_number(curve, (0.0, 0.0)) == m


@pytest.mark.parametrize("pts, message", [
    # a middle pair, named before the later wrap pair
    (((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)),
     "consecutive curve points 2 and 3 coincide at (1.0, 0.0)"),
    # only the wrap pair, from the last point back to the first
    (((0.5, 2.0), (1.0, 0.0), (1.0, 1.0), (0.5, 2.0)),
     "consecutive curve points 4 and 1 coincide at (0.5, 2.0)"),
    # -0.0 equals 0.0, and the first point of the pair is the one printed
    (((1.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (2.0, 0.0)),
     "consecutive curve points 2 and 3 coincide at (0.0, -0.0)"),
])
def test_closed_curve_names_the_first_coinciding_pair(pts, message):
    with pytest.raises(DegenerateGeometryError) as e:
        ClosedCurve(pts)
    assert str(e.value) == message


def test_winding_outside_and_on_curve():
    square = ClosedCurve(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert winding_number(square, (5.0, 5.0)) == 0
    assert winding_number(square, (0.5, 0.5)) == 1
    with pytest.raises(PointOnCurveError):
        winding_number(square, (0.5, 0.0))


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-155, 1.0, 1e150, 1e200, 1e307])
def test_winding_of_a_square_at_any_scale(scale):
    # below about 1e-154 a side's squared length underflows, above about
    # 1e154 it overflows
    square = ClosedCurve(((0.0, 0.0), (scale, 0.0), (scale, scale), (0.0, scale)))
    assert winding_number(square, (0.5 * scale, 0.5 * scale)) == 1
    assert winding_number(square, (2.0 * scale, 0.5 * scale)) == 0
    for edge in ((0.5 * scale, 0.0), (scale, 0.3 * scale), (0.0, 0.0)):
        with pytest.raises(PointOnCurveError):
            winding_number(square, edge)


def test_winding_near_the_float_maximum():
    # spans of 2e308 overflow a float
    m = 1e308
    square = ClosedCurve(((-m, -m), (m, -m), (m, m), (-m, m)))
    assert winding_number(square, (0.0, 0.0)) == 1
    assert winding_number(square, (-0.9 * m, 0.5 * m)) == 1
    assert winding_number(ClosedCurve(square.points[::-1]), (0.0, 0.0)) == -1
    assert winding_number(square, (1.7e308, 0.0)) == 0
    for edge in ((0.0, -m), (m, 0.3 * m), (-m, -m), (0.5 * m, m)):
        with pytest.raises(PointOnCurveError):
            winding_number(square, edge)
    # a small curve near -1e308 and a point near +1e308
    far = ClosedCurve(((-m, 0.0), (-0.9 * m, 0.0), (-0.9 * m, 1.0)))
    assert winding_number(far, (m, 0.5)) == 0


def test_winding_invariances():
    ring = _ring(n=16)
    base = winding_number(ring, (0.1, -0.2))
    assert base == 1
    # rotation of the starting vertex
    pts = ring.points
    for k in (3, 7, 11):
        rotated = ClosedCurve(pts[k:] + pts[:k])
        assert winding_number(rotated, (0.1, -0.2)) == base
    # orientation reversal negates
    assert winding_number(ClosedCurve(tuple(reversed(pts))), (0.1, -0.2)) == -base
    # constant within a small disk away from the curve
    rng = random.Random(4)
    for _ in range(25):
        t = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0, 0.3)
        assert winding_number(ring, (r * math.cos(t), r * math.sin(t))) == 1


def test_winding_of_a_thin_triangle():
    # this traversal runs clockwise around the origin; the first query's
    # ray runs along the top side, and every other query lies within the
    # x-range of a side that crosses its ray, so the exact side test decides
    tri = ClosedCurve(((-10.0, 0.5), (10.0, 0.5), (0.0, -10.0)))
    rev = ClosedCurve(tri.points[::-1])
    for z0, n in (((-20.0, 0.5), 0), ((0.0, 0.0), -1), ((9.0, 0.0), -1), ((9.8, 0.0), 0),
                  ((-9.8, 0.0), 0), ((0.0, 0.49), -1), ((0.0, -9.9), -1), ((0.1, -9.9), 0)):
        assert winding_number(tri, z0) == n
        assert winding_number(rev, z0) == -n


def test_winding_equals_the_angle_sum_on_random_polygons():
    rng = random.Random(23)
    for _ in range(1500):
        scale = 10.0 ** rng.uniform(-100, 100)
        n = rng.randint(3, 12)
        curve = ClosedCurve(tuple((rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
                                  for _ in range(n)))
        for _ in range(3):
            z0 = (rng.uniform(-0.6, 0.6) * scale, rng.uniform(-0.6, 0.6) * scale)
            assert _outcome(winding_number, curve, z0) == _outcome(winding_reference, curve, z0)


def test_winding_equals_the_angle_sum_on_grid_polygons_with_sides_on_the_ray():
    # vertices on y = 0 put vertices and horizontal sides on the ray of
    # every query on that line; queries hit vertices, sides and the gaps
    rng = random.Random(29)
    queries = [(x / 2, 0.0) for x in range(-8, 9)] + [(x / 2, 0.5) for x in range(-8, 9)]
    for _ in range(400):
        n, pts = rng.randint(3, 10), []
        while len(pts) < n:
            p = (float(rng.randint(-3, 3)), float(rng.choice((-1, 0, 0, 0, 1, 2))))
            if not pts or p != pts[-1]:
                pts.append(p)
        if pts[0] == pts[-1]:
            continue
        curve = ClosedCurve(tuple(pts))
        on = pts + [((ax + bx) / 2, (ay + by) / 2)
                    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
        for z0 in queries + on:
            assert _outcome(winding_number, curve, z0) == _outcome(winding_reference, curve, z0)
        for z0 in on:
            with pytest.raises(PointOnCurveError):
                winding_number(curve, z0)


ON_CURVE_FACTORS = (0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 3.0)


def _queries_near_a_side(rng, a, b, eps):
    """For each f in ON_CURVE_FACTORS, points f * eps from the line through
    a and b, or from one of its ends: off a random interior point, along
    the line past each end, along each axis from a and along a random axis
    from b, and off the line a side's length before a."""
    (ax, ay), (bx, by) = a, b
    hx, hy = bx / 2 - ax / 2, by / 2 - ay / 2  # half the side, which cannot overflow
    h = math.hypot(hx, hy)
    ux, uy = hx / h, hy / h
    t = rng.random()
    mx, my = ax * (1 - t) + bx * t, ay * (1 - t) + by * t
    for f in ON_CURVE_FACTORS:
        r, s = f * eps, rng.choice((-1, 1))
        yield mx - s * r * uy, my + s * r * ux
        yield ax - r * ux, ay - r * uy
        yield bx + r * ux, by + r * uy
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yield ax + r * dx, ay + r * dy
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        yield bx + r * dx, by + r * dy
        yield ax - 2 * hx - s * r * uy, ay - 2 * hy + s * r * ux


def test_winding_on_curve_test_equals_the_exact_distance():
    # random polygons, each moved so that the start of the side the
    # queries are near is the origin, where distances along an axis from
    # it are exact; and squares at the extremes of the float range
    rng = random.Random(24)
    cases = []
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-150, 150)
        n = rng.randint(3, 10)
        pts = [(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(n)]
        i = rng.randrange(n)
        ox, oy = pts[i]
        pts = [(x - ox, y - oy) for x, y in pts]
        cases.append((pts, [i]))
    for m in (1e308, 1e-170):
        lo = -m if m > 1 else 0.0
        cases.append(([(lo, lo), (m, lo), (m, m), (lo, m)], range(4)))
    ties = checked = 0
    for pts, sides in cases:
        curve = ClosedCurve(tuple(pts))
        eps = on_curve_eps(curve)
        e2 = Fraction(eps) ** 2
        for i in sides:
            a, b = pts[i], pts[(i + 1) % len(pts)]
            for z0 in _queries_near_a_side(rng, a, b, eps):
                if not all(map(math.isfinite, z0)):
                    continue
                d2 = distance2_reference(curve, z0)
                ties += d2 == e2
                got = _outcome(winding_number, curve, z0)
                if d2 <= e2:
                    assert got is PointOnCurveError, (pts, z0)
                    continue
                assert isinstance(got, int), (pts, z0)
                try:
                    want = winding_reference(curve, z0)
                except (PointOnCurveError, BisectionLimitError):
                    continue  # the angle sum's float test or bisection cannot settle it
                assert got == want, (pts, z0)
                checked += 1
    # the boundary itself was reached, and some counts were checked
    assert ties > 0 and checked > 0
