"""Independent integer-matrix oracles for the tests: invariant factors
by gcd of minors, and rank over Q by exact Gaussian elimination.

Both read the dense rows of an ``IntMatrix`` and share no code with
``surfclass.intlinalg``'s sparse Smith reduction.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from surfclass.intlinalg import IntMatrix


def dense_rows(M: IntMatrix) -> list:
    """The rows of M as lists, cut from its row-major ``entries``."""
    e = M.entries
    return [list(e[r * M.cols:(r + 1) * M.cols]) for r in range(M.rows)]


def minor_gcd_invariants(M: IntMatrix) -> tuple:
    """Invariant factors via gcd of k x k minors; brute force, small inputs only."""
    n = min(M.rows, M.cols)
    rows = dense_rows(M)

    def det(sub) -> int:
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            total += ((-1) ** j) * sub[0][j] * det(minor)
        return total

    gcds = []
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(M.rows), k):
            for ci in combinations(range(M.cols), k):
                sub = [[rows[r][c] for c in ci] for r in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        gcds.append(g)
    factors = []
    prev = 1
    for g in gcds:
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def rational_rank(M: IntMatrix) -> int:
    """Rank over Q by Gaussian elimination with exact fractions."""
    a = [[Fraction(x) for x in row] for row in dense_rows(M)]
    nr, nc = M.rows, M.cols
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r
