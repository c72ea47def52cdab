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
(two nonzeros each in a boundary matrix).  One order picks every
pivot: least entry first, then shortest line, in the spirit of
Markowitz (1957) and of Dumas, Saunders & Villard (2001).  A heap keyed
by each line's least ``|entry|`` and length yields the pivot line, so
no step rescans the matrix, and units come first of their own accord.
In that line, the pivot position is the one the fewest other lines
share, which keeps each elimination step small.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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

    @property
    def entries(self) -> tuple:
        """Row-major dense entries, length rows*cols."""
        out = [0] * (self.rows * self.cols)
        for c, col in enumerate(self.columns):
            for r, v in col:
                out[r * self.cols + c] = v
        return tuple(out)

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

    Every pivot is a least entry left, in the shortest line holding one,
    at the position the fewest lines share.  A heap of (least ``|entry|``,
    length) per line yields it; a changed line is pushed again, and a
    popped key that no longer matches its line is stale.  A pivot's line
    and position leave once no other line holds the position and the
    pivot divides its line.  Until then it leaves remainders below
    itself, so each step removes a line or lowers the least ``|entry|``,
    and the reduction ends.  A pivot line kept for others' remainders
    needs no push: those lines changed only where it has entries, so the
    next pivot sits at one of its positions, and that step changes it.
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

    def key(line):
        return min(map(abs, line.values())), len(line)

    heap = [(key(line), i) for i, line in lines.items()]
    heapify(heap)
    factors = []
    while lines:
        (least, length), i = heappop(heap)
        line = lines.get(i)
        if line is None or key(line) != (least, length):
            continue  # stale: the line left or changed since this push
        p = min((q for q, v in line.items() if abs(v) == least), key=lambda q: len(cross[q]))
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
                heappush(heap, (key(other), k))
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
                heappush(heap, (key(line), i))
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
