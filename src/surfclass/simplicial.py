"""Abstract 2-dimensional simplicial complexes and their homology.

Complexes are pure: every vertex and edge is required to lie in some
triangle (dangling pieces are user error for surface work).  A complex is
indexed once, in integers: vertex ids in sorted-name order, so every
order and name is that of the names; the triangles as sorted id triples;
and per vertex v, link lists u -> the triangles on edge (v, u), by index
(the third vertex of a triangle is its id sum minus the two known ids).
Edges, components, the surface checks (every edge in two triangles, or
one/two for bordered, a single cyclic or linear fan around each vertex,
and connectivity, all in one pass over the fans) and the dual-graph walk
read that index.  ``surface_verdict`` is the one owner of the rule that
picks which check decides whether a triangulation is a surface.

``refine_to_triangulation`` converts any cell complex into a
triangulated one: split every edge, star every face from a central
vertex, then subdivide each triangle into four; the result is handed
over as a simplicial complex with one vertex per vertex class.  Vertex
``v<i>`` is the i-th vertex class in canonical order, which sorts the
classes by their first canonical member alone, so no class is
canonicalized to number it.  ``refined_counts`` gives the counts of
that triangulation in closed form, without building it; ``homology``
of a cell complex reports them next to its cellular groups.

``to_cell_complex`` and ``homology`` share one walk that glues each tree
of the dual graph into a polygon; ``homology`` Smith-reduces one d2
column per tree, and H0 and rank d1 come from the connected components.
``_d2`` checks d1 d2 = 0 for it and for ``boundary_matrices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count

from .cellcomplex import CellComplex, build as build_complex, count_invariants
from .edgeword import EdgeSym, cancel_inverse_pairs, fresh_start, split_face, subst_p1
from .errors import DegenerateTriangleError, EdgeMultiplicityError, InternalInvariantViolation
from .intlinalg import FgAbelianGroup, IntMatrix, _column, smith_normal_form
from .intlinalg import cokernel, rank  # noqa: F401 - surfbench/spans.py wraps both here


@dataclass(frozen=True)
class SimplicialComplex2:
    vertices: tuple   # sorted vertex names; vertex id i is vertices[i]
    triangles: tuple  # sorted tuples of 3 vertex names, sorted

    @cached_property
    def tri_ids(self) -> tuple:
        """Each triangle as its triple of vertex ids, which is sorted too."""
        ids = dict(zip(self.vertices, count()))
        return tuple([(ids[a], ids[b], ids[c]) for a, b, c in self.triangles])

    @cached_property
    def edge_ids(self) -> dict:
        """Edge key a * V + b of vertex ids a < b -> its place in ``edges``."""
        n = len(self.vertices)
        keys = sorted(a * n + b for a, links in enumerate(self.vertex_fans) for b in links if a < b)
        return dict(zip(keys, count()))

    @cached_property
    def edges(self) -> tuple:
        n, names = len(self.vertices), self.vertices
        return tuple((names[k // n], names[k % n]) for k in self.edge_ids)

    def counts(self):
        return len(self.vertices), len(self.edge_ids), len(self.triangles)

    # the shared views of the index, computed once per complex

    @cached_property
    def vertex_fans(self) -> list:
        """For each vertex id v: its link lists, neighbour u -> the
        triangles on edge (v, u) by index, one list shared by both ends.
        The third vertex of triangle t is ``sum(tri_ids[t]) - v - u``."""
        fans = [{} for _ in self.vertices]
        for t, tri in enumerate(self.tri_ids):
            for a, b in combinations(tri, 2):
                if (ts := fans[a].get(b)) is None:
                    fans[a][b] = fans[b][a] = [t]
                else:
                    ts.append(t)
        return fans

    @cached_property
    def _odd_edges(self) -> list:
        """(key, triangle count) of each edge not in exactly two triangles,
        in edge order."""
        n, fans = len(self.vertices), enumerate(self.vertex_fans)
        return sorted((a * n + b, len(ts)) for a, links in fans for b, ts in links.items()
                      if len(ts) != 2 and a < b)

    @cached_property
    def components(self) -> int:
        """The number of connected components."""
        return _count_components(self.vertex_fans, range(len(self.vertices)))

    @cached_property
    def surface_reports(self) -> tuple:
        """(closed, bordered): both ``ValidationReport``s, from the edges
        not in two triangles and one pass over the vertex fans.

        Edge (v, u) lies in one triangle exactly when u is an end of v's
        link, so a vertex is on the border when its link has an end, and a
        path-shaped link ends in two border edges, whose graph's
        components are the border circles."""
        fans, names, n = self.vertex_fans, self.vertices, len(self.vertices)
        sums, closed, bordered = list(map(sum, self.tri_ids)), [], []
        for k, m in self._odd_edges:
            e = (names[k // n], names[k % n])
            closed.append(f"D1: edge {e} lies in {m} triangles, expected 2")
            if m != 1:
                bordered.append(f"D1: edge {e} lies in {m} triangles")
        for v, links in enumerate(fans):
            if not links:
                closed.append(f"D2: vertex {names[v]} has no incident edges")
                bordered.append(f"D2: vertex {names[v]} has no incident edges")
                continue
            shape = _fan_shape(v, links, sums)
            cycle = shape == "cycle" and len(links) >= 3
            if not cycle:
                closed.append(f"D2: vertex {names[v]} fan is not a single cycle (m >= 3)")
            if any(len(ts) == 1 for ts in links.values()):
                if shape != "path":
                    bordered.append(
                        f"D3: border vertex {names[v]} fan is not a single border-to-border path"
                    )
            elif not cycle:
                bordered.append(f"D2: interior vertex {names[v]} fan is not a single cycle")
        if not (self.triangles and self.components == 1):
            closed.append("D3: complex is not connected")
            bordered.append("D4: complex is not connected")
        ends = (k // n for k, m in self._odd_edges if m == 1)  # a vertex of each border edge
        circles = _count_components(fans, ends, border=True)
        return (
            ValidationReport(ok=not closed, violations=tuple(closed)),
            ValidationReport(ok=not bordered, violations=tuple(bordered), border_circles=circles),
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    border_circles: int = 0


@dataclass(frozen=True)
class ChainComplexData:
    basis0: tuple
    basis1: tuple
    basis2: tuple
    d1: IntMatrix
    d2: IntMatrix


def build_simplicial(triangles) -> SimplicialComplex2:
    """Build from vertex triples; derives the edge/vertex closure."""
    tris = set()
    for t in triangles:
        s = sorted(map(str, t))
        if len(s) != 3 or s[0] == s[1] or s[1] == s[2]:
            raise DegenerateTriangleError(f"triangle {tuple(t)} needs 3 distinct vertices")
        tris.add(tuple(s))
    return SimplicialComplex2(tuple(sorted(set().union(*tris))), tuple(sorted(tris)))


def _count_components(fans, starts, border=False) -> int:
    """Components of the graph of the edges (of the border edges, in one
    triangle, if ``border``) that hold a vertex of ``starts``."""
    seen = bytearray(len(fans))
    count = 0
    for start in starts:
        if seen[start]:
            continue
        count += 1
        seen[start] = 1
        stack = [start]
        while stack:
            for y, ts in fans[stack.pop()].items():
                if not seen[y] and (not border or len(ts) == 1):
                    seen[y] = 1
                    stack.append(y)
    return count


def _fan_shape(v, links: dict, sums) -> str:
    """Classify the link of vertex v: 'cycle', 'path', or 'bad'.

    A link has no multiple edges (two triangles on the same three
    vertices are one), so once every edge at v lies in one or two
    triangles and at most two in one, one walk from an end, or from any
    neighbour, visits the whole link exactly when it is connected."""
    ends = []
    for u, ts in links.items():
        if len(ts) == 1:
            ends.append(u)
        elif len(ts) != 2:
            return "bad"
    if len(ends) not in (0, 2):
        return "bad"
    first = ends[0] if ends else next(iter(links))
    t, u, seen = None, first, 1
    while True:
        ts = links[u]
        t = ts[1] if ts[0] == t else ts[0]  # the triangle not walked in by
        u = sums[t] - v - u
        if u == first:
            break
        seen += 1
        if len(links[u]) == 1:
            break
    if seen != len(links):
        return "bad"
    return "path" if ends else "cycle"


def validate_closed_surface(K: SimplicialComplex2) -> ValidationReport:
    """Conditions for a closed surface: edges in two triangles, cyclic
    fans with at least three triangles, connected."""
    return K.surface_reports[0]


def validate_bordered_surface(K: SimplicialComplex2) -> ValidationReport:
    """Conditions for a bordered surface: interior edges in two triangles,
    border edges in one, at a border vertex a fan that is one path from
    a border edge to a border edge, and connected."""
    return K.surface_reports[1]


def surface_verdict(closed: ValidationReport, bordered: ValidationReport) -> ValidationReport:
    """The governing one of a triangulation's two reports: the bordered one
    if an edge lies in one triangle (then it has a border circle), else the
    closed one.  Its ``ok`` is ``closed.ok or bordered.ok``: with no such
    edge both checks flag the same faults (D1 only for edges in three or
    more triangles, one fan test, one connectivity test), and with one the
    closed check's D1 fails."""
    return bordered if bordered.border_circles else closed


# ---------------------------------------------------------------------------
# chain complex and homology


def _d1(K: SimplicialComplex2) -> IntMatrix:
    n = len(K.vertices)
    return IntMatrix(n, len(K.edge_ids), tuple(((k // n, -1), (k % n, 1)) for k in K.edge_ids))


def _d2(K: SimplicialComplex2, columns) -> IntMatrix:
    """d2 over the edge rows of K, from columns of (edge key, value) pairs
    in ascending key order.  d1 d2 = 0 is checked column by column: each
    entry (edge (a, b), v) adds -v at a and +v at b, in O(nnz d2) and
    with no V x E matrix d1."""
    e, n = K.edge_ids, len(K.vertices)
    for col in columns:
        ends = {}
        for k, v in col:
            ends[k // n] = ends.get(k // n, 0) - v
            ends[k % n] = ends.get(k % n, 0) + v
        if any(ends.values()):
            raise InternalInvariantViolation("boundary of boundary is nonzero")
    return IntMatrix(len(e), len(columns), tuple(tuple((e[k], v) for k, v in c) for c in columns))


def boundary_matrices(K: SimplicialComplex2) -> ChainComplexData:
    """Boundary operators with ascending-name reference orientations.

    For an edge (a, b) with a < b the boundary is b - a; for a triangle
    (a, b, c) with a < b < c it is (b, c) - (a, c) + (a, b).  Vertex ids
    follow the names and edges are sorted, so a < b gives row(a) < row(b)
    and the edges (a, b) < (a, c) < (b, c) have ascending rows: each
    column is built in the order ``IntMatrix`` requires (and checks).
    """
    n = len(K.vertices)
    d2 = _d2(K, tuple(((a * n + b, 1), (a * n + c, -1), (b * n + c, 1)) for a, b, c in K.tri_ids))
    return ChainComplexData(K.vertices, K.edges, K.triangles, _d1(K), d2)


def _dual_forest(K: SimplicialComplex2):
    """One polygon per tree of a spanning forest of the dual graph, as
    sides (k, +-1): the edge with key k in ``K.edge_ids`` read forward
    or backward.

    Each tree starts at its first triangle (a, b, c), with sides a->b,
    b->c, c->a.  A side on an edge in exactly two triangles, the other
    unvisited, steps in: that triangle holds the side's inverse, and its
    other two sides replace the side (Massey, *Algebraic Topology: An
    Introduction*, 1967, ch. 1).  Every other side is emitted.
    """
    fans, sums, n = K.vertex_fans, list(map(sum, K.tri_ids)), len(K.vertices)
    visited = bytearray(len(sums))
    for root, (a, b, c) in enumerate(K.tri_ids):
        if visited[root]:
            continue
        visited[root] = 1
        sides = []
        stack = [(c, a, root), (b, c, root), (a, b, root)]  # sides, next on top
        while stack:
            x, y, t = stack.pop()
            ts = fans[x][y]
            if len(ts) != 2 or visited[u := ts[ts[0] == t]]:  # u: the other triangle
                sides.append((x * n + y, 1) if x < y else (y * n + x, -1))
                continue
            visited[u] = 1
            # u reads y x z: its sides x->z, z->y replace x->y
            z = sums[u] - x - y
            stack += [(z, y, u), (x, z, u)]
        yield sides


def homology(K: SimplicialComplex2):
    """(H0, H1, H2) as finitely generated abelian groups.

    Each of the F trees of ``_dual_forest`` is an open disc (its open
    triangles and the open edges it steps across), and those edges lie
    in no other triangle.  So any 2-complex K is a CW complex with one
    2-cell per tree, attached along its polygon, and the E - (T - F)
    other edges (Kaczynski, Mrozek & Ślusarek, 1998).  One Smith
    reduction of the trees' d2 columns, their polygons' signed exponent
    sums, gives r2 = rank d2 and the torsion of H1.  H0 = Z^c on the c
    path components (Hatcher, *Algebraic Topology*, 2002, Prop. 2.7), so
    H1 has free rank (E - (T - F)) - (V - c) - r2 and H2 = Z^(F - r2).
    """
    d2 = _d2(K, tuple(map(_column, _dual_forest(K))))
    nv, ne, nt, nf = len(K.vertices), d2.rows, len(K.triangles), d2.cols
    c = K.components
    snf2 = smith_normal_form(d2)
    r2 = len(snf2)
    h1 = FgAbelianGroup(ne - (nt - nf) - (nv - c) - r2, tuple(t for t in snf2 if t > 1))
    h2 = FgAbelianGroup(nf - r2, ())
    return FgAbelianGroup(c, ()), h1, h2


# ---------------------------------------------------------------------------
# refinement of a cell complex into a triangulation; ``fresh`` yields the
# unused edge names _g<k> in order


def _bulk_split_all_edges(faces: dict, fresh) -> dict:
    edges = sorted({s.name for w in faces.values() for s in w})
    split = {e: (next(fresh), next(fresh)) for e in edges}
    return {n: subst_p1(w, split) for n, w in faces.items()}


def _bulk_star_faces(faces: dict, fresh) -> dict:
    """Cut every face into triangles around a central vertex."""
    out = {}
    for name, w in faces.items():
        spokes = [next(fresh) for _ in w]
        for i, s in enumerate(w):
            out[f"{name}_t{i}"] = (EdgeSym(spokes[i - 1], -1), s, EdgeSym(spokes[i], 1))
    return out


def _bulk_quadrisect(faces: dict, fresh) -> dict:
    """Split every edge, then cut each hexagon into four triangles."""
    faces = _bulk_split_all_edges(faces, fresh)
    out = {}
    for name, w in faces.items():
        e = [next(fresh) for _ in range(3)]
        # corners (w1 w2 | e0), (w3 w4 | e1), (w5 w0 | e2), center (e2' e0' e1')
        out[f"{name}_c0"] = (w[1], w[2], EdgeSym(e[0], 1))
        out[f"{name}_c1"] = (w[3], w[4], EdgeSym(e[1], 1))
        out[f"{name}_c2"] = (w[5], w[0], EdgeSym(e[2], 1))
        out[f"{name}_m"] = (EdgeSym(e[2], -1), EdgeSym(e[0], -1), EdgeSym(e[1], -1))
    return out


def _cancelled_faces(K: CellComplex) -> tuple:
    """(faces, fresh): K's faces with cyclically adjacent ``x x'`` pairs
    cancelled (an equivalence; no subdivision separates them), a null
    word, which only a one-face complex can reach, cut into two one-gon
    lunes, and the unused edge names that follow."""
    fresh = map("_g{}".format, count(fresh_start([*K.edges, *K.face_map])))
    faces = {}
    for name, w in K.faces:
        faces[name] = w = cancel_inverse_pairs(w)
    if len(faces) == 1 and not w:
        faces = dict(zip((name, f"{name}_l"), split_face(w, 0, next(fresh))))
    return faces, fresh


def refined_counts(K: CellComplex) -> tuple:
    """(vertices, edges, triangles) of ``refine_to_triangulation(K)[1]``,
    in closed form.  With V, E, F and L the vertex classes, edges, faces
    and letters of ``_cancelled_faces``, splitting every edge gives
    (V + E, 2E, 2L), twice if a face has one letter.  From those
    (V', E', L'), the star adds F centres, L' spokes and L' triangles; the
    quadrisection splits all E' + L' edges and adds 3 in each triangle:
    V'' = V' + F + E' + L', E'' = 2(E' + L') + 3L', T = 4L'."""
    words = list(_cancelled_faces(K)[0].values())
    report = count_invariants(words)[0]
    v, e, n = report.n0, report.n1, sum(map(len, words))
    for _ in range(2 if min(map(len, words)) == 1 else 1):
        v, e, n = v + e, 2 * e, 2 * n
    return v + report.n2 + e + n, 2 * (e + n) + 3 * n, 4 * n


def refine_to_triangulation(K: CellComplex):
    """Refine K to a triangulated cell complex and convert it.

    Returns (refined cell complex, simplicial complex).  The refined
    complex has triangle boundaries only; its vertex classes become the
    simplicial vertices.  The words of ``_cancelled_faces`` have every
    edge split, twice if a face has one letter; each face is starred
    from a centre and each triangle quadrisected once.

    That is faithful.  After the splits every face has at least 4
    letters, and no two cyclically adjacent ones are on one edge (the
    halves of a letter are two edges; halves of two letters on one edge
    would be an ``x x'`` pair).  So each starred triangle (spoke',
    letter, spoke) has three distinct edges, and no two share two: each
    has one letter, and a spoke lies only in the triangles at two
    adjacent positions of one face, whose other spokes and letters
    differ.  A corner triangle of the quadrisection has an old vertex
    and the midpoints of two distinct edges, the centre one the
    midpoints of all three.  Two with one vertex set would have two
    edges in two starred triangles, or meeting at two corners of one.
    """
    report = K.invariant_report()
    faces, fresh = _cancelled_faces(K)
    # a one-gon split once is a bigon, whose star is a degenerate pillow;
    # splitting twice makes every boundary at least a square
    for _ in range(2 if min(map(len, faces.values())) == 1 else 1):
        faces = _bulk_split_all_edges(faces, fresh)
    faces = _bulk_quadrisect(_bulk_star_faces(faces, fresh), fresh)
    refined = build_complex(faces, internal=True)
    if refined.invariant_report().euler != report.euler:
        raise InternalInvariantViolation("refinement changed the Euler characteristic")
    order, sym_to_vertex = refined._vertex_order
    names = [f"v{i}" for i in range(len(order))]
    triangles = [tuple([names[sym_to_vertex[s]] for s in w]) for _, w in refined.faces]
    # faithful: three vertices per face, no two faces on the same three
    simp = build_simplicial(t for t in triangles if len(set(t)) == 3)
    if len(simp.triangles) != len(triangles):
        raise InternalInvariantViolation("refinement is not faithful")
    verdict = surface_verdict(*simp.surface_reports)
    if not verdict.ok or verdict.border_circles != report.num_contours:
        reasons = "; ".join(verdict.violations[:3]) or f"{verdict.border_circles} border circles"
        raise InternalInvariantViolation(f"refinement output fails surface validation: {reasons}")
    nv, ne, nt = simp.counts()
    if nv - ne + nt != report.euler:
        raise InternalInvariantViolation("simplicial chi differs from cell chi")
    if (nv, ne, nt) != refined_counts(K):
        raise InternalInvariantViolation("refinement counts differ from their closed form")
    return refined, simp


def to_cell_complex(K: SimplicialComplex2) -> CellComplex:
    """View a triangulated complex as a cell complex: one polygon per tree
    of ``_dual_forest``, which is one per component on a surface.  Edge
    ``(a, b)`` (a < b) is ``e<i>`` by its place in ``K.edges``, read from a
    to b.  The O(T) walk gives the polygon, T + 2 letters for T triangles,
    that T - 1 ``merge_words`` calls along a tree would."""
    e = K.edge_ids
    for k, m in K._odd_edges:
        if m > 2:
            raise EdgeMultiplicityError(f"e{e[k]}", m)
    forest = enumerate(_dual_forest(K))
    faces = {f"T{j}": tuple(EdgeSym(f"e{e[k]}", s) for k, s in sides) for j, sides in forest}
    return build_complex(faces, internal=True)
