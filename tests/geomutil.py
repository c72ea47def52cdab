"""Reference oracles and certificates for the tests.

The Hausdorff oracle is the quadratic max-min scan, sharing no code
with ``surfclass.planegeom``'s strip search.  The IFS oracles build
every level's primitives from the previous level's, one primitive at a
time, sharing no iteration code with ``ifs_iterate``'s flat coordinate
lists.  The SVG oracle writes one element per primitive, sharing no
code with ``render_svg``'s writer, which reads the flat lists.
``certify_convergence`` checks the contraction theorem on point sets.
``parse_points_reference`` reads a point file one line at a time.
``winding_reference`` sums turning angles, sharing no code with
``winding_number``'s crossing count.  ``distance2_reference`` is the
squared distance from a point to a curve in rationals, sharing no code
with ``winding_number``'s integer on-curve test.
"""

import math
from fractions import Fraction
from sys import float_info

from surfclass.errors import (
    EmptySetError, FileFormatError, NotContractingError, PointOnCurveError,
)
from surfclass.planegeom import (
    SQRT3, AffineMap2, Point, Polygon, Scene, Segment, hausdorff_distance, preset, preset_seed,
)


def hausdorff_brute(A, B) -> float:
    """Quadratic reference implementation; oracle for small sets."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")

    def directed(P, Q):
        return max(min(math.hypot(px - qx, py - qy) for qx, qy in Q) for px, py in P)

    return max(directed(A, B), directed(B, A))


def parse_points_reference(text):
    """The per-line point parser: each line loses its '#' comment and outer
    whitespace, blank lines are skipped, and every other line must be one
    'x,y' pair of finite floats; the first line that is not is named."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected 'x,y'")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad coordinate")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FileFormatError(f"line {lineno}: non-finite coordinate")
        pts.append((x, y))
    if not pts:
        raise FileFormatError("no points in input")
    return pts


def apply_map(m, pt):
    """The image of the point pt under the affine map m."""
    x, y = pt
    return (m.a * x + m.b * y + m.e, m.c * x + m.d * y + m.f)


def ifs_iterate_reference(sys, scene, n):
    """The per-primitive loop: every level's primitives are built from the
    previous level's, map-major, so each level checks its own segments."""
    prims = scene.primitives
    for _ in range(n):
        out = []
        for m in sys.maps:
            for prim in prims:
                out.append(prim.replace(tuple(apply_map(m, v) for v in prim.vertices())))
        prims = tuple(out)
    return Scene(prims)


def snowflake_reference(iters):
    """The iterated Koch curve, then one copy of it per side similarity."""
    base = ifs_iterate_reference(preset("koch"), preset_seed("koch"), iters)
    corners = [(1.0, 0.0), (-1.0, 0.0), (0.0, SQRT3)]
    prims = []
    for i in range(3):
        px, py = corners[i]
        qx, qy = corners[(i + 1) % 3]
        ca, cb = (qx - px) / 2.0, (qy - py) / 2.0
        ex, ey = (px + qx) / 2.0, (py + qy) / 2.0
        m = AffineMap2(ca, -cb, cb, ca, ex, ey)
        for prim in base.primitives:
            prims.append(prim.replace(tuple(apply_map(m, v) for v in prim.vertices())))
    return Scene(tuple(prims))


def _fmt(x):
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def render_svg_reference(scene):
    """The per-primitive writer: a bounding box over every primitive's
    vertices, then one isinstance dispatch and one element per primitive."""
    prims = scene.primitives
    xs = [x for p in prims for x, _ in p.vertices()]
    ys = [y for p in prims for _, y in p.vertices()]
    if not xs:
        raise EmptySetError("empty scene")
    minx, miny, maxx, maxy = min(xs), min(ys), max(xs), max(ys)
    w = maxx - minx or 1.0
    h = maxy - miny or 1.0
    pad = 0.05 * max(w, h)
    vb = (minx - pad, -(maxy + pad), w + 2 * pad, h + 2 * pad)
    stroke = max(w, h) / 500.0
    radius = max(w, h) / 200.0

    def pt(p):
        x, y = p
        return f"{_fmt(x)} {_fmt(-y)}"

    body = []
    for prim in prims:
        if isinstance(prim, Point):
            body.append(
                f'<circle fill="black" cx="{_fmt(prim.x)}" cy="{_fmt(-prim.y)}" '
                f'r="{_fmt(radius)}"/>'
            )
        elif isinstance(prim, Segment):
            body.append(f'<path d="M {pt(prim.p1)} L {pt(prim.p2)}"/>')
        elif isinstance(prim, Polygon):
            d = "M " + " L ".join(pt(p) for p in prim.points) + " Z"
            body.append(f'<path fill="black" fill-opacity="0.9" d="{d}"/>')
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">\n'
        f'<g fill="none" stroke="black" stroke-width="{_fmt(stroke)}" '
        'stroke-linecap="round">\n'
    )
    return header + "\n".join(body) + "\n</g>\n</svg>\n"


def certify_convergence(sys, a0, steps, tol=1e-9):
    """Successive-iterate distances d_n = D(A_n, A_{n+1}) on point sets.

    Checks the contraction chain d_{n+1} <= lam d_n + tol and the
    geometric envelope d_n <= lam^n d_0 + tol; any failure is a bug in
    the maps or the metric, so it raises.
    """
    cur = [tuple(p) for p in a0]
    if not cur:
        raise EmptySetError("need a nonempty start set")
    deltas = []
    for _ in range(steps):
        # every map's image of every point, first occurrences in order
        nxt = list(dict.fromkeys(apply_map(m, p) for m in sys.maps for p in cur))
        deltas.append(hausdorff_distance(cur, nxt))
        cur = nxt
    lam = sys.lam
    for n in range(1, len(deltas)):
        if deltas[n] > lam * deltas[n - 1] + tol:
            raise NotContractingError(
                f"contraction chain violated at step {n}: "
                f"{deltas[n]} > {lam} * {deltas[n-1]} + {tol}"
            )
        if deltas[n] > (lam ** n) * deltas[0] + tol:
            raise NotContractingError(f"geometric envelope violated at step {n}")
    return deltas


class BisectionLimitError(Exception):
    """The angle sum could not settle on an integer: the oracle gives no answer."""


MAX_BISECTIONS = 40
RESIDUAL_TOL = 1e-6  # how far the angle sum, in turns, may be from an integer


def winding_reference(curve, z0) -> int:
    """Turns of the curve around z0 by angle summation: the turning-angle
    definition of the winding number.

    Points within 1e-9 of the curve's diameter of it raise
    PointOnCurveError, as in ``winding_number``.  Segments are bisected
    until every quotient w = (next-z0)/(cur-z0) satisfies |w - 1| < 1, so
    each angle lies in (-pi/2, pi/2); the angle sum is then an exact
    multiple of 2 pi up to roundoff.
    """
    pts = list(curve.points)
    x0, y0 = z0
    minx, miny = min(x for x, _ in pts), min(y for _, y in pts)
    maxx, maxy = max(x for x, _ in pts), max(y for _, y in pts)
    hypot = math.hypot
    if not math.isfinite(hypot(max(maxx, x0) - min(minx, x0), max(maxy, y0) - min(miny, y0))):
        # near the float maximum: quarter every coordinate (exact), so no difference overflows
        pts = [(math.ldexp(x, -2), math.ldexp(y, -2)) for x, y in pts]
        box = (x0, y0, minx, miny, maxx, maxy)
        x0, y0, minx, miny, maxx, maxy = (math.ldexp(v, -2) for v in box)
    eps = 1e-9 * hypot(maxx - minx, maxy - miny)
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        if float_info.min <= L2 <= float_info.max:
            t = ((x0 - ax) * vx + (y0 - ay) * vy) / L2
        else:  # the squared length under- or overflows: scale by the longest side
            s = max(abs(vx), abs(vy))
            ux, uy = vx / s, vy / s
            t = ((x0 - ax) / s * ux + (y0 - ay) / s * uy) / (ux * ux + uy * uy)
        t = min(1.0, max(0.0, t))
        if hypot(x0 - (ax + t * vx), y0 - (ay + t * vy)) <= eps:
            raise PointOnCurveError(f"point {z0} lies on the curve")

    z = complex(x0, y0)
    zs = [complex(x, y) for x, y in pts]
    total = 0.0
    for a, b in zip(zs, zs[1:] + zs[:1]):
        stack = [(a, b, 0)]
        while stack:
            u, v, depth = stack.pop()
            w = (v - z) / (u - z)
            if abs(w - 1.0) < 1.0:
                total += math.atan2(w.imag, w.real)
                continue
            if depth >= MAX_BISECTIONS:
                raise BisectionLimitError("bisection limit hit; adversarial input")
            mid = (u + v) / 2.0
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= RESIDUAL_TOL:
        raise BisectionLimitError(f"angle sum {turns} is not close enough to an integer")
    return int(nearest)


def on_curve_eps(curve) -> float:
    """The on-curve tolerance that ``winding_number`` documents: 1e-9 of
    the diameter of the curve's bounding box, from quartered spans."""
    xs, ys = [x for x, _ in curve.points], [y for _, y in curve.points]
    return 4e-9 * math.hypot(max(xs) / 4 - min(xs) / 4, max(ys) / 4 - min(ys) / 4)


def segment_distance2_reference(a, b, z) -> Fraction:
    """The exact squared distance from the point z to the closed segment
    from a to b, for coordinates given as Fractions: z's projection on the
    segment's line, clamped to the segment."""
    (ax, ay), (bx, by), (zx, zy) = a, b, z
    vx, vy = bx - ax, by - ay
    t = min(1, max(0, ((zx - ax) * vx + (zy - ay) * vy) / (vx * vx + vy * vy)))
    return (zx - ax - t * vx) ** 2 + (zy - ay - t * vy) ** 2


def distance2_reference(curve, z) -> Fraction:
    """The exact squared distance from the point z to the closed curve."""
    pts = [(Fraction(x), Fraction(y)) for x, y in curve.points]
    z = (Fraction(z[0]), Fraction(z[1]))
    return min(segment_distance2_reference(a, b, z) for a, b in zip(pts, pts[1:] + pts[:1]))
