"""Independent Hausdorff oracle for the tests: the quadratic max-min
scan, sharing no code with ``surfclass.planegeom``'s strip search."""

import math

from surfclass.errors import EmptySetError


def hausdorff_brute(A, B) -> float:
    """Quadratic reference implementation; oracle for small sets."""
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySetError("Hausdorff distance needs nonempty sets")

    def directed(P, Q):
        return max(min(math.hypot(px - qx, py - qy) for qx, qy in Q) for px, py in P)

    return max(directed(A, B), directed(B, A))
