"""Cell complexes: faces with cyclic boundary words over shared edges.

A complex is a finite nonempty ordered family of faces, each carrying
one chosen boundary word; the inverse face carries the inverse word
implicitly.  Validity requires every edge to occur once (border edge)
or twice (inner edge) across the chosen words, with occurrences of a
and a' pooled, and the whole system to be connected.

Vertices are not primitive: they are equivalence classes of oriented
symbols, traced here at the level of occurrence slots so that words
like ``a a'`` resolve unambiguously.  Each occurrence slot contributes
a head end and a tail end; polygon corners pair the head of one slot
with the tail of the next, and the two slots of an inner edge glue
their ends together.  Connected components of that end graph are the
vertices: cycles are inner vertices, paths are border vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .edgeword import (
    EdgeSym,
    Word,
    cyclic_canonical,
    format_word,
    inverse_word,
    parse_word,
    sym_key,
    valid_name,
)
from .errors import (
    DisconnectedError,
    EdgeMultiplicityError,
    EmptyFaceSetError,
    BadNameError,
)

INNER = "inner"
BORDER = "border"
NULL = "null"


@dataclass(frozen=True)
class Vertex:
    """One vertex: a cyclic (inner) or linear (border) run of incoming symbols."""

    kind: str
    members: tuple

    def __contains__(self, s: EdgeSym) -> bool:
        return s in self.members


@dataclass(frozen=True)
class Contour:
    """One boundary circle, as a cyclic run of border symbols."""

    edges: tuple


@dataclass(frozen=True)
class InvariantReport:
    orientable: bool
    num_contours: int
    euler: int
    n0: int
    n1: int
    n2: int

    def key(self):
        return (self.orientable, self.num_contours, self.euler)


@dataclass(frozen=True)
class CellComplex:
    """Immutable validated cell complex.  Build via :func:`build`."""

    faces: tuple  # tuple[(face name, Word), ...] in insertion order

    # -- basic views ---------------------------------------------------

    @cached_property
    def face_map(self) -> dict:
        return dict(self.faces)

    @cached_property
    def edges(self) -> tuple:
        return tuple(sorted({s.name for _, w in self.faces for s in w}))

    @cached_property
    def edge_occurrences(self) -> dict:
        """edge name -> list of (face index, position, sign) over chosen words."""
        occ: dict = {}
        for fi, (_, w) in enumerate(self.faces):
            for pos, s in enumerate(w):
                occ.setdefault(s.name, []).append((fi, pos, s.sign))
        return occ

    def border_edges(self) -> tuple:
        return tuple(e for e in self.edges if len(self.edge_occurrences[e]) == 1)

    def inner_edges(self) -> tuple:
        return tuple(e for e in self.edges if len(self.edge_occurrences[e]) == 2)

    # -- vertices via the end graph -------------------------------------

    @cached_property
    def _vertex_runs(self):
        """Walk the end graph once, without canonicalizing.

        Returns (border runs, inner runs): the incoming symbols of each
        path and each cycle in walk order, or None when every word is
        empty (the single null vertex).
        """
        # ends: head(slot k) = 2k carries its symbol, tail = 2k+1 the inverse
        base = []  # slot index of each face's first letter
        member = []
        for _, w in self.faces:
            base.append(len(member) // 2)
            for s in w:
                member += (s, s.inv())
        nends = len(member)
        if nends == 0:
            return None

        corner = [None] * nends
        for fi, (_, w) in enumerate(self.faces):
            n, b0 = len(w), base[fi]
            for pos in range(n):
                a = b0 + pos
                b = b0 + (pos + 1) % n
                corner[2 * a] = 2 * b + 1
                corner[2 * b + 1] = 2 * a

        glue = [None] * nends
        for occ in self.edge_occurrences.values():
            if len(occ) != 2:
                continue
            (f1, p1, s1), (f2, p2, s2) = occ
            u, v = base[f1] + p1, base[f2] + p2
            if s1 == s2:
                glue[2 * u], glue[2 * v] = 2 * v, 2 * u
                glue[2 * u + 1], glue[2 * v + 1] = 2 * v + 1, 2 * u + 1
            else:
                glue[2 * u], glue[2 * v + 1] = 2 * v + 1, 2 * u
                glue[2 * u + 1], glue[2 * v] = 2 * v, 2 * u + 1

        seen = [False] * nends
        borders, inners = [], []

        # border vertices first: paths start at unglued ends and
        # alternate corner / glue
        for e0 in range(nends):
            if seen[e0] or glue[e0] is not None:
                continue
            run = [member[e0]]
            seen[e0] = True
            e = corner[e0]
            while True:
                seen[e] = True
                run.append(member[e])
                g = glue[e]
                if g is None:
                    break
                seen[g] = True
                e = corner[g]
            borders.append(run)

        # remaining components are cycles: inner vertices
        for e0 in range(nends):
            if seen[e0]:
                continue
            run = []
            e = e0
            while not seen[e]:
                seen[e] = True
                run.append(member[e])
                g = glue[e]
                seen[g] = True
                e = corner[g]
            inners.append(run)
        return borders, inners

    def _vertex_count(self) -> int:
        runs = self._vertex_runs
        return 1 if runs is None else len(runs[0]) + len(runs[1])

    @cached_property
    def _vertex_data(self):
        """Compute the canonical vertex partition.

        Returns (vertices, sym_to_vertex) where vertices is a sorted
        tuple of Vertex and sym_to_vertex maps every oriented symbol to
        its vertex index.  Border chains read the same both ways; inner
        cycles are also rotations: each takes its least representative.
        """
        runs = self._vertex_runs
        if runs is None:
            return (Vertex(NULL, ()),), {}
        borders, inners = runs
        vertices = [Vertex(BORDER, _least_of(tuple(r), tuple(r[::-1]))) for r in borders]
        vertices += [
            Vertex(INNER, _least_of(cyclic_canonical(r), cyclic_canonical(r[::-1])))
            for r in inners
        ]
        vertices.sort(key=lambda v: _word_key(v.members))
        out = tuple(vertices)
        sym_to_vertex = {}
        for i, v in enumerate(out):
            for s in v.members:
                sym_to_vertex[s] = i
        return out, sym_to_vertex

    def vertices(self) -> tuple:
        return self._vertex_data[0]

    def vertex_of(self, s: EdgeSym) -> Vertex:
        data, idx = self._vertex_data
        return data[idx[s]]

    # -- invariants ------------------------------------------------------

    def euler_characteristic(self) -> int:
        return self._vertex_count() - len(self.edges) + len(self.faces)

    def _contour_runs(self) -> list:
        """One raw run per boundary circle; border runs' ends link them."""
        runs = self._vertex_runs
        succ = {}
        for r in runs[0] if runs else ():
            first, last = r[0], r[-1]
            succ[first] = last.inv()
            succ[last] = first.inv()
        out = []
        visited = set()
        for start in sorted(succ, key=sym_key):
            if start in visited:
                continue
            run = [start]
            cur = succ[start]
            while cur != start:
                run.append(cur)
                cur = succ[cur]
            for s in run:
                visited.add(s)
                visited.add(s.inv())
            out.append(tuple(run))
        return out

    def contours(self) -> tuple:
        """Boundary circles; (a1..an) and (an'..a1') are one contour."""
        out = [
            Contour(_least_of(cyclic_canonical(r), cyclic_canonical(inverse_word(r))))
            for r in self._contour_runs()
        ]
        out.sort(key=lambda c: _word_key(c.edges))
        return tuple(out)

    def is_orientable(self) -> bool:
        """Whether some choice of face orientations is coherent.

        Each inner edge with both occurrences in one face forces the
        answer (equal signs: never orientable; opposite: no constraint).
        Edges shared by two faces impose a parity constraint solved by
        2-coloring the face graph.
        """
        nfaces = len(self.faces)
        constraints = []  # (face i, face j, parity) flip_i xor flip_j == parity
        for occ in self.edge_occurrences.values():
            if len(occ) != 2:
                continue
            (f1, _, s1), (f2, _, s2) = occ
            if f1 == f2:
                if s1 == s2:
                    return False
                continue
            constraints.append((f1, f2, 1 if s1 == s2 else 0))
        color = [None] * nfaces
        adj: dict = {}
        for f1, f2, p in constraints:
            adj.setdefault(f1, []).append((f2, p))
            adj.setdefault(f2, []).append((f1, p))
        for root in range(nfaces):
            if color[root] is not None:
                continue
            color[root] = 0
            stack = [root]
            while stack:
                f = stack.pop()
                for g, p in adj.get(f, ()):
                    want = color[f] ^ p
                    if color[g] is None:
                        color[g] = want
                        stack.append(g)
                    elif color[g] != want:
                        return False
        return True

    def invariant_report(self) -> InvariantReport:
        return self._report

    @cached_property
    def _report(self) -> InvariantReport:
        # counts only: no canonical vertex or contour order is needed
        return InvariantReport(
            orientable=self.is_orientable(),
            num_contours=len(self._contour_runs()),
            euler=self.euler_characteristic(),
            n0=self._vertex_count(),
            n1=len(self.edges),
            n2=len(self.faces),
        )

    # -- misc -------------------------------------------------------------

    def describe(self) -> str:
        return "; ".join(f"{name}: {format_word(w)}" for name, w in self.faces)


def _word_key(w):
    return [sym_key(s) for s in w]


def _least_of(u, v):
    return min(u, v, key=_word_key)


def build(faces: Mapping[str, Word | str], internal: bool = False) -> CellComplex:
    """Validate and build a cell complex.

    ``faces`` maps face names to boundary words (tuples of EdgeSym or
    text in word syntax).  Raises on empty input, edge multiplicity
    other than 1 or 2, bad names, or a disconnected system.
    """
    if not faces:
        raise EmptyFaceSetError("a cell complex needs at least one face")
    items = []
    for name, w in faces.items():
        if not valid_name(name, internal=internal):
            raise BadNameError(f"bad face name {name!r}")
        if isinstance(w, str):
            w = parse_word(w)
        for s in w:
            if not valid_name(s.name, internal=internal):
                raise BadNameError(f"bad edge name {s.name!r}")
        items.append((name, tuple(w)))
    K = CellComplex(faces=tuple(items))

    for e, occ in K.edge_occurrences.items():
        if len(occ) not in (1, 2):
            raise EdgeMultiplicityError(e, len(occ))

    _check_connected(K)
    return K


def _check_connected(K: CellComplex) -> None:
    names = [name for name, _ in K.faces]
    parent = {n: n for n in names}
    parent.update({("e", e): ("e", e) for e in K.edges})

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (name, w) in K.faces:
        for s in w:
            union(name, ("e", s.name))
    roots = {}
    for n in names:
        roots.setdefault(find(n), []).append(n)
    for e in K.edges:
        roots.setdefault(find(("e", e)), []).append(e)
    if len(roots) > 1:
        raise DisconnectedError(tuple(tuple(v) for v in roots.values()))
