"""Exact integer linear algebra: Smith normal form and cokernels.

Arithmetic uses Python integers, which are arbitrary precision, so the
usual overflow failure mode of fixed-width implementations cannot
occur here; results are exact for any input.

``IntMatrix`` stores only its nonzero entries, column by column: column
j is a tuple of ``(row, value)`` pairs in ascending row order.  Boundary
matrices of complexes have two or three nonzeros per column, so products
and reductions cost time in proportion to the nonzeros, not to
rows x cols.  The dense row-major ``entries`` are built only on request.

The Smith reduction is the sparse elimination of Dumas, Heckenbach,
Saunders & Welker (2003).  It reduces the rows or the columns,
whichever are more numerous, since those lines are the sparser ones
(two nonzeros each in a boundary matrix).  A queue holds the lines
that may have a +-1 entry: every line at the start, and again each
line an elimination changes, so no pivot search rescans the matrix.
Of a line's unit entries, the one whose position the fewest other
lines share is taken, which keeps each elimination step small.  Unit
pivots can still grow the other entries; once the queue runs dry, the
same elimination pivots on the least entry left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import DimensionMismatchError


def _column(pairs) -> tuple:
    """Canonical column: summed per row, zeros dropped, rows ascending."""
    acc = {}
    for r, v in pairs:
        acc[r] = acc.get(r, 0) + v
    return tuple(sorted((r, v) for r, v in acc.items() if v))


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    columns: tuple  # per column: ((row, value), ...), rows ascending, values nonzero

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} matrix needs {self.cols} columns"
            )
        for col in self.columns:
            last = -1
            for r, v in col:
                if not last < r < self.rows or not v:
                    raise DimensionMismatchError(
                        f"column entry ({r}, {v}) out of order or out of range"
                    )
                last = r

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatchError("ragged rows")
        columns = [[] for _ in range(ncols)]
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    columns[c].append((r, v))
        return cls(nrows, ncols, tuple(map(tuple, columns)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, ((),) * cols)

    @property
    def entries(self) -> tuple:
        """Row-major dense entries, length rows*cols."""
        out = [0] * (self.rows * self.cols)
        for c, col in enumerate(self.columns):
            for r, v in col:
                out[r * self.cols + c] = v
        return tuple(out)

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r}, {c}) outside a {self.rows}x{self.cols} matrix")
        return next((v for rr, v in self.columns[c] if rr == r), 0)

    def transpose(self) -> "IntMatrix":
        out = [[] for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col:
                out[r].append((c, v))
        return IntMatrix(self.cols, self.rows, tuple(map(tuple, out)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product; column j of the result sums the columns of self
        that column j of other names, so the cost is O(nnz) products."""
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        a = self.columns
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                _column((r, bv * av) for k, bv in col for r, av in a[k])
                for col in other.columns
            ),
        )

    def mul_is_zero(self, other: "IntMatrix") -> bool:
        """Whether ``self.mul(other)`` is zero: each product column's row
        sums are tested as they come, and no column is built or sorted."""
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        a = self.columns
        for col in other.columns:
            acc = {}
            for k, bv in col:
                for r, av in a[k]:
                    acc[r] = acc.get(r, 0) + bv * av
            if any(acc.values()):
                return False
        return True

    def is_zero(self) -> bool:
        return not any(self.columns)


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group: free rank plus torsion factors."""

    free_rank: int
    torsion: tuple  # each >= 2, each dividing the next

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")


def group_format(G: FgAbelianGroup) -> str:
    """Canonical rendering, e.g. ``Z^2``, ``Z (+) Z/2``, ``0``."""
    parts = []
    if G.free_rank == 1:
        parts.append("Z")
    elif G.free_rank > 1:
        parts.append(f"Z^{G.free_rank}")
    parts.extend(f"Z/{t}" for t in G.torsion)
    return " (+) ".join(parts) if parts else "0"


def smith_normal_form(M: IntMatrix) -> tuple:
    """Invariant factors d1 | d2 | ... | dr with r = rank(M).

    A pivot's line and position leave the matrix once no other line
    holds the position and the pivot divides its line.  Until then a
    non-unit pivot, the least entry left, leaves remainders smaller
    than itself.  So each step that is not skipped either removes a
    line, or keeps the same lines with a smaller least ``|entry|``, and
    the reduction ends.
    """
    # M and its transpose have the same invariant factors, so eliminate
    # along whichever side has more lines: each line is then sparser
    if M.cols >= M.rows:
        lines = {j: dict(col) for j, col in enumerate(M.columns) if col}
    else:
        lines = {}
        for c, col in enumerate(M.columns):
            for r, v in col:
                lines.setdefault(r, {})[c] = v
    cross = {}  # position -> lines with a nonzero there
    for i, line in lines.items():
        for p in line:
            cross.setdefault(p, set()).add(i)
    queue = deque(lines)  # lines that may hold a unit entry
    factors = []
    while lines:
        if queue:
            i = queue.popleft()
            line = lines.get(i)
            if line is None:
                continue
            units = [p for p, v in line.items() if v == 1 or v == -1]
            if not units:
                continue
            # of the unit entries, the one whose position the fewest other
            # lines share needs the fewest lines updated
            p = min(units, key=lambda q: len(cross[q]))
        else:
            # every line that changed was queued, so no unit is left
            _, i, p = min((abs(v), i, p) for i, line in lines.items() for p, v in line.items())
            line = lines[i]
        pv = line[p]
        for k in tuple(cross[p]):
            if k == i:
                continue
            other = lines[k]
            mult = other[p] // pv  # other -= mult * line leaves other[p] % pv
            for q, v in line.items():
                w = other.get(q, 0) - mult * v
                if w:
                    if q not in other:
                        cross[q].add(k)
                    other[q] = w
                elif q in other:
                    del other[q]
                    cross[q].discard(k)
            if other:
                queue.append(k)
            else:
                del lines[k]
        if pv != 1 and pv != -1:
            if len(cross[p]) > 1:
                continue  # other lines hold remainders smaller than |pv| at p
            rest = [q for q, v in line.items() if v % pv]
            if rest:
                # column p holds only pv, so reducing the other positions
                # mod pv by column operations changes this line alone
                for q in rest:
                    line[q] %= pv
                queue.append(i)
                continue
        # the pivot line and position leave the matrix
        del cross[p]
        for q in line:
            if q != p:
                cross[q].discard(i)
        del lines[i]
        factors.append(abs(pv))

    # Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b) turns the factors into a chain
    chain = sorted(f for f in factors if f > 1)
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return (1,) * (len(factors) - len(chain)) + tuple(chain)


def rank(M: IntMatrix) -> int:
    return len(smith_normal_form(M))


def cokernel(ambient_rank: int, M: IntMatrix) -> FgAbelianGroup:
    """Z^ambient_rank modulo the column space of M."""
    if M.rows != ambient_rank:
        raise DimensionMismatchError(
            f"matrix has {M.rows} rows; ambient rank is {ambient_rank}"
        )
    factors = smith_normal_form(M)
    return FgAbelianGroup(
        free_rank=ambient_rank - len(factors),
        torsion=tuple(t for t in factors if t > 1),
    )
