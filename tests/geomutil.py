"""Reference oracles for the tests.

The Hausdorff oracle is the quadratic max-min scan, sharing no code
with ``surfclass.planegeom``'s strip search.  The IFS oracles build
every level's primitives from the previous level's, one primitive at a
time, sharing no iteration code with ``ifs_iterate``'s flat coordinate
lists.
"""

import math

from surfclass.errors import EmptySetError
from surfclass.planegeom import SQRT3, AffineMap2, Scene, preset, preset_seed


def hausdorff_brute(A, B) -> float:
    """Quadratic reference implementation; oracle for small sets."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")

    def directed(P, Q):
        return max(min(math.hypot(px - qx, py - qy) for qx, qy in Q) for px, py in P)

    return max(directed(A, B), directed(B, A))


def ifs_iterate_reference(sys, scene, n):
    """The per-primitive loop: every level's primitives are built from the
    previous level's, map-major, so each level checks its own segments."""
    prims = scene.primitives
    for _ in range(n):
        out = []
        for m in sys.maps:
            for prim in prims:
                out.append(prim.replace(tuple(m.apply(v) for v in prim.vertices())))
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
            prims.append(prim.replace(tuple(m.apply(v) for v in prim.vertices())))
    return Scene(tuple(prims))
