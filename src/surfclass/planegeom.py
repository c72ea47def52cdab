"""Plane geometry: affine iterated function systems, Hausdorff distance
on finite point sets, and winding numbers of closed polygonal curves.

All coordinates are 64-bit floats; tolerances are stated per operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateGeometryError,
    EmptySetError,
    NotContractingError,
    PointOnCurveError,
    RefinementLimitError,
    UnknownPresetError,
)

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class AffineMap2:
    """x' = a x + b y + e,  y' = c x + d y + f."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def apply(self, pt):
        x, y = pt
        return (self.a * x + self.b * y + self.e, self.c * x + self.d * y + self.f)


def contraction_ratio(m: AffineMap2) -> float:
    """Largest singular value of the linear part (its Lipschitz constant)."""
    p = m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d
    det = m.a * m.d - m.b * m.c
    disc = max(p * p - 4.0 * det * det, 0.0)
    return math.sqrt((p + math.sqrt(disc)) / 2.0)


@dataclass(frozen=True)
class IFS:
    maps: tuple

    def __post_init__(self):
        if not self.maps:
            raise NotContractingError("an IFS needs at least one map")
        lam = self.lam
        if not lam < 1.0:
            raise NotContractingError(f"largest contraction ratio {lam} is not < 1")

    @property
    def lam(self) -> float:
        return max(contraction_ratio(m) for m in self.maps)


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def vertices(self):
        return ((self.x, self.y),)

    def replace(self, vs):
        (x, y), = vs
        return Point(x, y)


@dataclass(frozen=True)
class Segment:
    p1: tuple
    p2: tuple

    def __post_init__(self):
        if self.p1 == self.p2:
            raise DegenerateGeometryError(f"segment endpoints coincide at {self.p1}")

    def vertices(self):
        return (self.p1, self.p2)

    def replace(self, vs):
        a, b = vs
        return Segment(a, b)


@dataclass(frozen=True)
class Polygon:
    points: tuple

    def __post_init__(self):
        if len(self.points) < 3:
            raise DegenerateGeometryError("polygon needs at least 3 vertices")

    def vertices(self):
        return self.points

    def replace(self, vs):
        return Polygon(tuple(vs))


@dataclass(frozen=True)
class Scene:
    primitives: tuple

    def bounding_box(self):
        xs = [x for p in self.primitives for x, _ in p.vertices()]
        ys = [y for p in self.primitives for _, y in p.vertices()]
        if not xs:
            raise EmptySetError("empty scene")
        return min(xs), min(ys), max(xs), max(ys)


def ifs_iterate(sys: IFS, scene: Scene, n: int) -> Scene:
    """n-fold application of S -> union of map(S); vertex-wise and exact
    for points, segments and polygons under affine maps.  Primitives
    come out in map-major order."""
    prims = scene.primitives
    for _ in range(n):
        out = []
        for m in sys.maps:
            for prim in prims:
                out.append(prim.replace(tuple(m.apply(v) for v in prim.vertices())))
        prims = tuple(out)
    return Scene(prims)


class _Grid:
    """Uniform-bucket exact nearest-neighbor search over a point set."""

    def __init__(self, pts, cell):
        self.cell = cell
        self.buckets = {}
        for x, y in pts:
            self.buckets.setdefault((int(x // cell), int(y // cell)), []).append((x, y))

    def nearest(self, p) -> float:
        px, py = p
        cx, cy = int(px // self.cell), int(py // self.cell)
        best = math.inf
        r = 0
        while True:
            if r > 0 and (r - 1) * self.cell >= best:
                return best
            ring = []
            if r == 0:
                ring.append((cx, cy))
            else:
                for dx in range(-r, r + 1):
                    ring.append((cx + dx, cy - r))
                    ring.append((cx + dx, cy + r))
                for dy in range(-r + 1, r):
                    ring.append((cx - r, cy + dy))
                    ring.append((cx + r, cy + dy))
            for key in ring:
                for qx, qy in self.buckets.get(key, ()):
                    d = math.hypot(px - qx, py - qy)
                    if d < best:
                        best = d
            r += 1


def _directed_hausdorff(P, Q, span: float) -> float:
    # bucket width tuned to the expected nearest distance for dusty sets
    cell = span / max(int(math.sqrt(len(Q))), 1)
    grid = _Grid(Q, cell)
    return max(grid.nearest(p) for p in P)


def hausdorff_distance(A, B) -> float:
    """max-min distance both ways between nonempty finite point sets."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")
    if len(A) * len(B) <= 10000:
        return hausdorff_brute(A, B)
    xs = [x for x, _ in A] + [x for x, _ in B]
    ys = [y for _, y in A] + [y for _, y in B]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    if span == 0.0:
        return 0.0
    return max(_directed_hausdorff(A, B, span), _directed_hausdorff(B, A, span))


def hausdorff_brute(A, B) -> float:
    """Quadratic reference implementation; oracle for small sets."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")

    def directed(P, Q):
        return max(min(math.hypot(px - qx, py - qy) for qx, qy in Q) for px, py in P)

    return max(directed(A, B), directed(B, A))


def certify_convergence(sys: IFS, a0, steps: int, tol: float = 1e-9):
    """Successive-iterate distances d_n = D(A_n, A_{n+1}) on point sets.

    Checks the contraction chain d_{n+1} <= lam d_n + tol and the
    geometric envelope d_n <= lam^n d_0 + tol; any failure is a bug in
    the maps or the metric, so it raises.
    """
    cur = [tuple(p) for p in a0]
    if not cur:
        raise EmptySetError("need a nonempty start set")

    def step(pts):
        out = []
        seen = set()
        for m in sys.maps:
            for p in pts:
                q = m.apply(p)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
        return out

    deltas = []
    nxt = step(cur)
    for n in range(steps):
        deltas.append(hausdorff_distance(cur, nxt))
        cur, nxt = nxt, step(nxt)
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


# ---------------------------------------------------------------------------
# preset systems (coefficient tables for the classic attractors)

_PRESETS = {
    "sierpinski-gasket": (
        (0.5, 0.0, 0.0, 0.5, -0.25, 0.0),
        (0.5, 0.0, 0.0, 0.5, 0.25, 0.0),
        (0.5, 0.0, 0.0, 0.5, 0.0, SQRT3 / 4.0),
    ),
    "sierpinski-dragon": (
        (-0.25, -SQRT3 / 4.0, SQRT3 / 4.0, -0.25, 0.75, SQRT3 / 4.0),
        (-0.25, SQRT3 / 4.0, -SQRT3 / 4.0, -0.25, -0.75, SQRT3 / 4.0),
        (0.5, 0.0, 0.0, 0.5, 0.0, SQRT3 / 2.0),
    ),
    "heighway": (
        (0.5, -0.5, 0.5, 0.5, 0.0, 0.0),
        (-0.5, -0.5, 0.5, -0.5, 0.0, 1.0),
    ),
    "koch": (
        (1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0, -2.0 / 3.0, 0.0),
        (1.0 / 6.0, -SQRT3 / 6.0, SQRT3 / 6.0, 1.0 / 6.0, -1.0 / 6.0, SQRT3 / 6.0),
        (1.0 / 6.0, SQRT3 / 6.0, -SQRT3 / 6.0, 1.0 / 6.0, 1.0 / 6.0, SQRT3 / 6.0),
        (1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0),
    ),
    "hilbert": (
        (0.5, 0.0, 0.0, 0.5, -0.5, 1.0),
        (0.5, 0.0, 0.0, 0.5, 0.5, 1.0),
        (0.0, -0.5, 0.5, 0.0, 1.0, 0.5),
        (0.0, 0.5, -0.5, 0.0, -1.0, 0.5),
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> IFS:
    if name not in _PRESETS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    return IFS(tuple(AffineMap2(*row) for row in _PRESETS[name]))


def preset_seed(name: str) -> Scene:
    """The seed figure each preset is classically iterated from."""
    if name == "sierpinski-gasket":
        a, b, c = (-0.5, 0.0), (0.5, 0.0), (0.0, SQRT3 / 2.0)
        return Scene((Segment(a, b), Segment(b, c), Segment(c, a)))
    if name == "sierpinski-dragon":
        return Scene((Segment((-1.0, 0.0), (1.0, 0.0)),))
    if name == "heighway":
        return Scene((Segment((0.0, 0.0), (0.0, 1.0)),))
    if name == "koch":
        return Scene((Segment((-1.0, 0.0), (1.0, 0.0)),))
    if name == "hilbert":
        return Scene((Segment((-1.0, 0.0), (0.0, 1.0)), Segment((0.0, 1.0), (1.0, 0.0))))
    raise UnknownPresetError(f"no seed for preset {name!r}")


def snowflake(iters: int) -> Scene:
    """Three similarity-placed copies of the iterated Koch curve on the
    sides of an equilateral triangle, bumps facing outward."""
    base = ifs_iterate(preset("koch"), preset_seed("koch"), iters)
    corners = [(1.0, 0.0), (-1.0, 0.0), (0.0, SQRT3)]
    prims = []
    for i in range(3):
        px, py = corners[i]
        qx, qy = corners[(i + 1) % 3]
        # similarity sending (-1,0)->P and (1,0)->Q (rotation+scale+shift)
        ca, cb = (qx - px) / 2.0, (qy - py) / 2.0
        ex, ey = (px + qx) / 2.0, (py + qy) / 2.0
        m = AffineMap2(ca, -cb, cb, ca, ex, ey)
        for prim in base.primitives:
            prims.append(prim.replace(tuple(m.apply(v) for v in prim.vertices())))
    return Scene(tuple(prims))


# ---------------------------------------------------------------------------
# winding number


@dataclass(frozen=True)
class ClosedCurve:
    points: tuple  # >= 3 points, implicitly closed

    def __post_init__(self):
        n = len(self.points)
        if n < 3:
            raise DegenerateGeometryError(f"closed curve needs at least 3 points, got {n}")
        for i in range(n):
            if self.points[i] == self.points[(i + 1) % n]:
                raise DegenerateGeometryError(
                    f"consecutive curve points {i + 1} and {(i + 1) % n + 1} "
                    f"coincide at {self.points[i]}"
                )


def _point_segment_dist(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    t = ((px - ax) * vx + (py - ay) * vy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))

MAX_BISECTIONS = 40


def winding_number(curve: ClosedCurve, z0, residual_tol: float = 1e-6) -> int:
    """Turns of the curve around z0 by angle summation.

    Segments are bisected until every quotient w = (next-z0)/(cur-z0)
    satisfies |w - 1| < 1, so each angle lies in (-pi/2, pi/2); the
    angle sum is then an exact multiple of 2 pi up to roundoff.
    """
    pts = list(curve.points)
    n = len(pts)
    x0, y0 = z0
    minx, miny = min(p[0] for p in pts), min(p[1] for p in pts)
    maxx, maxy = max(p[0] for p in pts), max(p[1] for p in pts)
    eps = 1e-9 * math.hypot(maxx - minx, maxy - miny)
    for i in range(n):
        if _point_segment_dist(z0, pts[i], pts[(i + 1) % n]) <= eps:
            raise PointOnCurveError(f"point {z0} lies on the curve")

    z = complex(x0, y0)
    total = 0.0
    for i in range(n):
        a = complex(*pts[i])
        b = complex(*pts[(i + 1) % n])
        stack = [(a, b, 0)]
        while stack:
            u, v, depth = stack.pop()
            w = (v - z) / (u - z)
            if abs(w - 1.0) < 1.0:
                total += math.atan2(w.imag, w.real)
                continue
            if depth >= MAX_BISECTIONS:
                raise RefinementLimitError("bisection limit hit; adversarial input")
            mid = (u + v) / 2.0
            stack.append(((mid), v, depth + 1))
            stack.append((u, mid, depth + 1))
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= residual_tol:
        raise RefinementLimitError(
            f"angle sum {turns} is not close enough to an integer"
        )
    return int(nearest)
