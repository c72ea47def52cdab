"""Integer matrices for the tests: ``IntMatrix`` built from dense rows
or zeros, read entry by entry, transposed and tested for zero; and
independent oracles: invariant factors by gcd of minors, and rank over
Q, rank over GF(p) and the determinant by exact Gaussian elimination.

Each oracle reads the dense rows of an ``IntMatrix`` and shares no code
with ``surfclass.intlinalg``'s sparse Smith reduction.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from surfclass.errors import DimensionMismatchError
from surfclass.intlinalg import IntMatrix


def from_rows(rows) -> IntMatrix:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatchError("ragged rows")
    columns = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                columns[c].append((r, v))
    return IntMatrix(len(rows), ncols, tuple(map(tuple, columns)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, ((),) * cols)


def entry(M: IntMatrix, r: int, c: int) -> int:
    if not (0 <= r < M.rows and 0 <= c < M.cols):
        raise IndexError(f"({r}, {c}) outside a {M.rows}x{M.cols} matrix")
    return next((v for rr, v in M.columns[c] if rr == r), 0)


def transpose(M: IntMatrix) -> IntMatrix:
    out = [[] for _ in range(M.rows)]
    for c, col in enumerate(M.columns):
        for r, v in col:
            out[r].append((c, v))
    return IntMatrix(M.cols, M.rows, tuple(map(tuple, out)))


def is_zero(M: IntMatrix) -> bool:
    return not any(M.columns)


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


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank over GF(p), p prime, by Gaussian elimination modulo p."""
    a = [[x % p for x in row] for row in dense_rows(M)]
    r = 0
    for c in range(M.cols):
        piv = next((i for i in range(r, M.rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        for i in range(M.rows):
            if i != r and a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == M.rows:
            break
    return r


def determinant(M: IntMatrix) -> int:
    """Determinant of a square M by Gaussian elimination with exact fractions."""
    a = [[Fraction(x) for x in row] for row in dense_rows(M)]
    det = Fraction(1)
    for c in range(M.cols):
        piv = next((i for i in range(c, M.rows) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, M.rows):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)
