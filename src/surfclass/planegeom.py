"""Plane geometry: affine iterated function systems, Hausdorff distance
on finite point sets, and winding numbers of closed polygonal curves.

All coordinates are 64-bit floats; tolerances are stated per operation.
A winding number is an exact count of signed crossings: its one
tolerance is the distance within which a point counts as on the curve,
and that distance is compared exactly too.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat

from .errors import (
    DegenerateGeometryError,
    EmptySetError,
    NotContractingError,
    PointOnCurveError,
    RenderLimitError,
    UnknownPresetError,
)

SQRT3 = math.sqrt(3.0)
_Y, _YX = operator.itemgetter(1), operator.itemgetter(1, 0)


@dataclass(frozen=True)
class AffineMap2:
    """x' = a x + b y + e,  y' = c x + d y + f."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


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


class Scene:
    """A template of primitives and the flat x and y lists of every copy's
    vertices, copy-major: with k vertices in the template, copy c's vertex
    j is (xs[c * k + j], ys[c * k + j]), and the template fixes each slot's
    kind and vertex count.  A hand-built Scene(prims) is one copy of prims.
    """

    def __init__(self, template, xs=None, ys=None):
        self.template = tuple(template)
        self.offsets = [0, *accumulate(len(p.vertices()) for p in self.template)]
        vs = [v for p in self.template for v in p.vertices()]
        self.xs = [x for x, _ in vs] if xs is None else xs
        self.ys = [y for _, y in vs] if ys is None else ys

    @property
    def primitives(self) -> tuple:
        """Every copy's primitives, copy-major, built on request."""
        slots = list(zip(self.template, self.offsets, self.offsets[1:]))
        # zip(*[it] * k) reads the vertices k at a time: one copy
        copies = zip(*[zip(self.xs, self.ys)] * self.offsets[-1])
        return tuple([p.replace(copy[lo:hi]) for copy in copies for p, lo, hi in slots])

    def __eq__(self, other):
        return isinstance(other, Scene) and self.primitives == other.primitives

    def bounding_box(self):
        if not self.xs:
            raise EmptySetError("empty scene")
        return min(self.xs), min(self.ys), max(self.xs), max(self.ys)


def _iterate(rounds, scene: Scene) -> Scene:
    """The scene's flat x and y lists under each round of maps: a round
    writes each map's image of the whole list in turn, so every copy stays
    one block of k vertices in template order, copy-major.  At the last
    round the first segment in copy-major order whose ends coincide (equal
    x, then equal y) is named; then a coordinate that is not finite raises
    RenderLimitError.  A finite float sum of the coordinates proves all finite."""
    xs, ys = scene.xs, scene.ys
    for maps in rounds:
        xs, ys = ([m.a * x + m.b * y + m.e for m in maps for x, y in zip(xs, ys)],
                  [m.c * x + m.d * y + m.f for m in maps for x, y in zip(xs, ys)])
    out, k, n = Scene(scene.template, xs, ys), scene.offsets[-1], len(xs)
    # per segment slot, the flat index of the first copy whose ends coincide
    # (n if none); the least of them is the first segment in copy-major order
    firsts = [n]
    for prim, lo in zip(out.template, out.offsets):
        if isinstance(prim, Segment):
            xeq = compress(range(lo, n, k), map(operator.eq, xs[lo::k], xs[lo + 1::k]))
            firsts.append(next((i for i in xeq if ys[i] == ys[i + 1]), n))
    i = min(firsts)
    if i < n:
        raise DegenerateGeometryError(f"segment endpoints coincide at {(xs[i], ys[i])}")
    if not (math.isfinite(sum(xs, 0.0) + sum(ys, 0.0)) or all(map(math.isfinite, chain(xs, ys)))):
        raise RenderLimitError("an iterated coordinate overflows: it is not a finite float")
    return out


def ifs_iterate(sys: IFS, scene: Scene, n: int) -> Scene:
    """n-fold application of S -> union of map(S); vertex-wise and exact
    for points, segments and polygons under affine maps.  The result keeps
    the scene's template, so no primitive is built; segments are checked
    at the last level only."""
    return _iterate(repeat(sys.maps, n), scene)


def _scan(strip, p, gap, best, near, bound):
    """(distance, point) of the strip's point nearest p, or (best, near) if
    none is nearer, for a strip sorted by (y, x): walks outward in y from
    p's place while hypot(gap, dy) < best, and stops once within bound."""
    hypot = math.hypot
    px, py = p
    t = bisect_left(strip, (py, px), key=_YX)
    for walk in (range(t, len(strip)), range(t - 1, -1, -1)):
        for i in walk:
            qx, qy = q = strip[i]
            if hypot(gap, py - qy) >= best:
                break
            d = hypot(px - qx, py - qy)
            if d < best:
                best, near = d, q
                if best <= bound:
                    return best, near
    return best, near


def _directed_hausdorff(P, Q, h=0.0) -> float:
    """The larger of h and max over p in P of min over q in Q of
    hypot(px - qx, py - qy), for P and Q sorted by (x, y).

    Q is cut by (x, y) rank into strips of about sqrt|Q| points, and P is
    split at the strips' heads.  Each strip, and each strip's share of P,
    is a slice in (x, y) order, so a stable sort by y puts it in (y, x)
    order.  Each query starts from its distance to the previous query's
    nearest point, walks strips outward in x, and stops within the running
    maximum, which starts at h and which it cannot raise (Taha & Hanbury,
    TPAMI 2015).  Every bound is built from the same coordinate differences
    as the distances, so the result equals a brute-force scan's.
    """
    hypot = math.hypot
    size = math.isqrt(len(Q))
    cuts = range(0, len(Q), size)
    strips = [sorted(Q[i:i + size], key=_Y) for i in cuts]
    heads = [Q[i] for i in cuts]
    hi = [Q[min(i + size, len(Q)) - 1][0] for i in cuts]
    ends = [0, *[bisect_left(P, head) for head in heads[1:]], len(P)]
    near = strips[0][0]
    for home, (lo, up) in enumerate(zip(ends, ends[1:])):
        for p in sorted(P[lo:up], key=_Y):
            px, py = p
            best = hypot(px - near[0], py - near[1])
            if best <= h:
                continue
            best, near = _scan(strips[home], p, 0.0, best, near, h)
            j = home - 1
            while best > h and j >= 0 and px - hi[j] < best:
                best, near = _scan(strips[j], p, px - hi[j], best, near, h)
                j -= 1
            j = home + 1
            while best > h and j < len(strips) and heads[j][0] - px < best:
                best, near = _scan(strips[j], p, heads[j][0] - px, best, near, h)
                j += 1
            h = max(h, best)
    return h


def hausdorff_distance(A, B) -> float:
    """max-min distance both ways between nonempty finite point sets; the
    direction with more queries runs first, and the other starts from its maximum."""
    A, B = sorted(map(tuple, A)), sorted(map(tuple, B))
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")
    A, B = (A, B) if len(A) >= len(B) else (B, A)
    return _directed_hausdorff(B, A, _directed_hausdorff(A, B))


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
    corners = [(1.0, 0.0), (-1.0, 0.0), (0.0, SQRT3)]
    sides = []
    for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
        # similarity sending (-1,0)->P and (1,0)->Q (rotation+scale+shift)
        ca, cb = (qx - px) / 2.0, (qy - py) / 2.0
        ex, ey = (px + qx) / 2.0, (py + qy) / 2.0
        sides.append(AffineMap2(ca, -cb, cb, ca, ex, ey))
    # the side maps are not contractions, so they are a map list, not an IFS
    rounds = chain(repeat(preset("koch").maps, iters), [sides])
    return _iterate(rounds, preset_seed("koch"))


# ---------------------------------------------------------------------------
# winding number


@dataclass(frozen=True)
class ClosedCurve:
    points: tuple  # >= 3 points, implicitly closed

    def __post_init__(self):
        pts = self.points
        n = len(pts)
        if n < 3:
            raise DegenerateGeometryError(f"closed curve needs at least 3 points, got {n}")
        same = list(map(operator.eq, pts, pts[1:] + pts[:1]))
        if any(same):
            i = same.index(True)
            raise DegenerateGeometryError(
                f"consecutive curve points {i + 1} and {(i + 1) % n + 1} coincide at {pts[i]}"
            )


def _fixed(v: float) -> int:
    """v * 2**1074 as an int, exactly: every finite float is a multiple of 2**-1074."""
    n, d = v.as_integer_ratio()
    return n * (1 << 1074) // d


def winding_number(curve: ClosedCurve, z0) -> int:
    """Turns of the curve around z0: the signed number of times it crosses
    the ray from z0 toward +x (Hormann & Agathos, Comput. Geom. 20, 2001).

    A side from a to b counts +1 if it crosses upward (ay <= y0 < by) and
    -1 if downward (by <= y0 < ay), where it meets the ray right of z0.
    The rule is half-open so that a vertex on the ray counts once where
    the curve passes through the ray and nets zero where it only touches
    it; horizontal sides never count.  A point within eps, 1e-9 of the
    curve's diameter (from quartered spans, which cannot overflow), of a
    side raises PointOnCurveError.

    One pass takes each side.  If its ends' float gaps from z0 along one
    axis, on one side of z0, both exceed 2 eps, it is over eps away: a
    float difference is exact if subnormal, within a factor 1 + 2**-53 of
    the exact one if normal, and over every float if it overflows, so
    both exact gaps, and all between, exceed 2 eps / (1 + 2**-53) > eps.
    Any other side is compared with eps exactly, in integers (coordinates
    times 2**1074): with d = b - a and w = z0 - a, its point nearest z0 is
    a if d.w <= 0, b if d.w >= |d|^2, and else the foot of z0, at distance
    |d x w| / |d|.  If the side crosses y = y0, the sign of d x w (not 0:
    z0 is not on the side) says on which side of it z0 lies.
    """
    pts = curve.points
    x0, y0 = z0
    xs, ys = zip(*pts)
    eps = 4e-9 * math.hypot(max(xs) / 4 - min(xs) / 4, max(ys) / 4 - min(ys) / 4)
    reach, X0, Y0, E2 = 2.0 * eps, _fixed(x0), _fixed(y0), _fixed(eps) ** 2
    count = 0
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        if (y0 - ay > reach and y0 - by > reach or ay - y0 > reach and by - y0 > reach
                or x0 - ax > reach and x0 - bx > reach):
            continue  # over eps below, above or left of z0: no crossing right of it
        up, crosses = y0 < by, (ay <= y0) != (by <= y0)
        if not (ax - x0 > reach and bx - x0 > reach):  # within reach of z0: decide exactly
            AX, AY = _fixed(ax), _fixed(ay)
            dx, dy, wx, wy = _fixed(bx) - AX, _fixed(by) - AY, X0 - AX, Y0 - AY
            dot, L2, cross = dx * wx + dy * wy, dx * dx + dy * dy, dx * wy - dy * wx
            if dot <= 0:
                near = wx * wx + wy * wy <= E2
            elif dot >= L2:
                near = (wx - dx) ** 2 + (wy - dy) ** 2 <= E2
            else:
                near = cross * cross <= E2 * L2
            if near:
                raise PointOnCurveError(f"point {z0} lies on the curve")
            crosses = crosses and (cross > 0) == up
        if crosses:
            count += 1 if up else -1
    return count
