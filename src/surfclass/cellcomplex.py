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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .edgeword import (
    Word,
    format_word,
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
        """edge name -> list of (face index, position, sign) over chosen words;
        no verb reads it, only ``surfbench/workloads.py`` and the tests."""
        occ: dict = {}
        for fi, (_, w) in enumerate(self.faces):
            for pos, s in enumerate(w):
                occ.setdefault(s.name, []).append((fi, pos, s.sign))
        return occ

    # -- vertices and invariants via the end graph ----------------------

    @cached_property
    def _counts(self) -> tuple:
        return count_invariants([w for _, w in self.faces])

    @cached_property
    def _vertex_order(self):
        """(vertex kinds and runs in canonical vertex order, symbol ->
        vertex index): the border paths and inner cycles of
        :func:`count_invariants` as symbols in walk order, an inner run
        keyed by its least member and a border run by its lesser end.
        Every word empty gives the null vertex.

        This is the order of the runs' ``sym_key``-least readings (a
        rotation of an inner run read either way, a border run read from
        either end), and the least member decides it:

        * Each oriented symbol is a member of exactly one vertex run,
          once: its ends are one glued pair (inner edge) or one unglued
          end (border edge), and a run lists one end of each glued pair
          it passes.  So a run's members are distinct.
        * So a least reading starts at the least member of an inner run,
          or at the lesser end of a border run.
        * Two runs therefore differ in their first members, which decide
          their order.
        """
        letters = [s for _, w in self.faces for s in w]
        if not letters:
            return ((NULL, ()),), {}

        def member(end):
            s = letters[end >> 1]
            return s.inv() if end & 1 else s

        paths, cycles, _ = self._counts[2]
        borders = [[member(e) for e in r] for r in paths]
        inners = [[member(e) for e in r] for r in cycles]
        keyed = [(min(sym_key(r[0]), sym_key(r[-1])), BORDER, r) for r in borders]
        keyed += [(min(map(sym_key, r)), INNER, r) for r in inners]
        keyed.sort()  # the first symbols are distinct: no run is compared
        sym_to_vertex = {s: i for i, (_, _, r) in enumerate(keyed) for s in r}
        return tuple((kind, r) for _, kind, r in keyed), sym_to_vertex

    def invariant_report(self) -> InvariantReport:
        return self._counts[0]

    # -- misc -------------------------------------------------------------

    def describe(self) -> str:
        return "; ".join(f"{name}: {format_word(w)}" for name, w in self.faces)


def count_invariants(words) -> tuple:
    """(invariant report, face components, runs, slot maps) of a list of
    face words, counted in one integer pass.

    Slot k is the k-th letter over all words; its head end 2k carries
    the letter and its tail end 2k+1 the inverse.  Corners pair the head
    of a slot with the tail of the next slot of its face, and the two
    slots of an inner edge glue their ends together.  Paths of that end
    graph are border vertices and cycles inner vertices.  The unglued
    ends, paired by slot and by border path, form one cycle per contour.
    One 2-colouring of the face graph over inner edges gives
    orientability and the face components: the component index of each
    face, numbered in face order.  The runs are the border paths, inner
    cycles and contours as lists of ends; the slot maps are (edge ->
    first slot, edge -> last slot, slot -> face index).

    This is the one check that every edge is in one or two slots: with
    L letters and n1 edges, nb of them in one slot, L >= nb + 2 (n1 - nb)
    = 2 n1 - nb, equal exactly when none is in three or more.  Else a
    Counter names the first such edge, in first-occurrence order.
    """
    letters = [s for w in words for s in w]
    total = len(letters)
    nends = 2 * total
    # corners: the head of slot a meets the tail of slot a + 1 and the
    # tail of slot b the head of slot b - 1, except where a face closes
    corner = [0] * nends
    corner[0::2] = range(3, nends + 2, 2)
    corner[1::2] = range(-2, nends - 2, 2)
    face = []  # slot -> face index
    b0 = 0
    for fi, w in enumerate(words):
        n = len(w)
        face += [fi] * n
        if n:
            b1 = b0 + n
            corner[2 * b1 - 2] = 2 * b0 + 1
            corner[2 * b0 + 1] = 2 * b1 - 2
            b0 = b1
    names, sign = zip(*letters) if letters else ((), ())
    # edge -> its first and last slot (equal on a border edge)
    last = dict(zip(names, range(total)))
    first = dict(zip(reversed(names), range(total - 1, -1, -1)))
    glue = [-1] * nends
    nfaces = len(words)
    adj = [[] for _ in range(nfaces)]
    orientable = True
    border = []  # slots of border edges, ascending
    for u, v in zip(map(first.__getitem__, last), last.values()):
        if u == v:
            border.append(u)
            continue
        same = sign[u] == sign[v]
        if same:
            glue[2 * u], glue[2 * v] = 2 * v, 2 * u
            glue[2 * u + 1], glue[2 * v + 1] = 2 * v + 1, 2 * u + 1
        else:
            glue[2 * u], glue[2 * v + 1] = 2 * v + 1, 2 * u
            glue[2 * u + 1], glue[2 * v] = 2 * v, 2 * u + 1
        fu, fv = face[u], face[v]
        if fu != fv:
            adj[fu].append((fv, same))
            adj[fv].append((fu, same))
        elif same:
            orientable = False
    if total != 2 * len(last) - len(border):
        e, n = next((e, n) for e, n in Counter(names).items() if n > 2)
        raise EdgeMultiplicityError(e, n)

    # border vertices: paths from an unglued end, alternating corner / glue
    seen = bytearray(nends)
    partner = {}  # unglued end -> the other end of its path
    paths, cycles = [], []
    for u in border:
        for e0 in (2 * u, 2 * u + 1):
            if seen[e0]:
                continue
            seen[e0] = 1
            run = [e0]
            e = corner[e0]
            while True:
                seen[e] = 1
                run.append(e)
                g = glue[e]
                if g < 0:
                    break
                seen[g] = 1
                e = corner[g]
            partner[e0], partner[e] = e, e0
            paths.append(run)
    # inner vertices: the remaining components are cycles
    e0 = seen.find(0)
    while e0 >= 0:
        run = []
        e = e0
        while not seen[e]:
            seen[e] = 1
            run.append(e)
            g = glue[e]
            seen[g] = 1
            e = corner[g]
        cycles.append(run)
        e0 = seen.find(0, e0 + 1)
    # contours: from an unglued end to its path's other end, then over
    # to the other end of that slot, until the walk closes
    contours = []
    done = set()
    for u in border:
        if u in done:
            continue
        run = []
        x0 = x = 2 * u
        while True:
            run.append(x)
            done.add(x >> 1)
            x = partner[x] ^ 1
            if x == x0:
                break
        contours.append(run)

    component = [-1] * nfaces
    colour = [0] * nfaces
    ncomp = 0
    for root in range(nfaces):
        if component[root] >= 0:
            continue
        component[root] = ncomp
        stack = [root]
        while stack:
            f = stack.pop()
            for g, flip in adj[f]:
                want = colour[f] ^ flip
                if component[g] < 0:
                    component[g], colour[g] = ncomp, want
                    stack.append(g)
                elif colour[g] != want:
                    orientable = False
        ncomp += 1

    n0 = len(paths) + len(cycles) if nends else 1
    n1 = len(last)
    report = InvariantReport(
        orientable=orientable,
        num_contours=len(contours),
        euler=n0 - n1 + nfaces,
        n0=n0,
        n1=n1,
        n2=nfaces,
    )
    return report, component, (paths, cycles, contours), (first, last, face)


def checked_complex(faces: tuple, counts: tuple) -> CellComplex:
    """A complex over faces that were validated otherwise (move by move,
    in the rewriter), carrying ``count_invariants`` of their words."""
    K = CellComplex(faces=faces)
    K.__dict__["_counts"] = counts  # the cached_property's slot
    return K


def build(faces: Mapping[str, Word | str], internal: bool = False) -> CellComplex:
    """Validate and build a cell complex.

    ``faces`` maps face names to boundary words (tuples of EdgeSym or
    text in word syntax).  Raises on empty input, then on a bad name,
    edge multiplicity other than 1 or 2 (:func:`count_invariants`) or a
    disconnected system, in that order.
    """
    if not faces:
        raise EmptyFaceSetError("a cell complex needs at least one face")
    items = []
    checked = set()  # edge names are checked at their first occurrence
    for name, w in faces.items():
        if not valid_name(name, internal=internal):
            raise BadNameError(f"bad face name {name!r}")
        if isinstance(w, str):
            w = parse_word(w)
        for s in w:
            if s.name not in checked and not valid_name(s.name, internal=internal):
                raise BadNameError(f"bad edge name {s.name!r}")
            checked.add(s.name)
        items.append((name, tuple(w)))
    K = CellComplex(faces=tuple(items))
    _, component, _, (first, _, face) = K._counts  # raises on multiplicity
    if any(component):
        parts = [[] for _ in range(max(component) + 1)]
        for (name, _), c in zip(K.faces, component):
            parts[c].append(name)
        for e in K.edges:
            parts[component[face[first[e]]]].append(e)
        raise DisconnectedError(tuple(map(tuple, parts)))
    return K
