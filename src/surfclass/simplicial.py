"""Abstract 2-dimensional simplicial complexes and their homology.

Complexes are pure: every vertex and edge is required to lie in some
triangle (dangling pieces are user error for surface work).  Validators
implement the combinatorial surface conditions: every edge in exactly
two triangles (or one/two for bordered), a single cyclic or linear fan
of triangles around each vertex, and connectivity.  One pass over the
link graphs, one per vertex and keyed by neighbour, checks both sets of
conditions: node u of v's graph is the edge (v, u), and each triangle
(v, u, w) links u and w.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .cellcomplex import CellComplex, build as build_complex, count_invariants
from .edgeword import EdgeSym, fresh_start, inverse_pair_at, rotate, split_face, subst_p1
from .errors import DegenerateTriangleError, EdgeMultiplicityError, InternalInvariantViolation
from .intlinalg import FgAbelianGroup, IntMatrix, _column, smith_normal_form
from .intlinalg import cokernel, rank  # noqa: F401 - surfbench/spans.py wraps both here


@dataclass(frozen=True)
class SimplicialComplex2:
    vertices: tuple   # sorted vertex names
    triangles: tuple  # sorted tuples of 3 vertex names, sorted

    @cached_property
    def edges(self) -> tuple:
        out = set()
        for t in self.triangles:
            a, b, c = t
            out.update(((a, b), (a, c), (b, c)))
        return tuple(sorted(out))

    def counts(self):
        return len(self.vertices), len(self.edges), len(self.triangles)

    # the validators' shared views, computed once per complex

    @cached_property
    def vertex_fans(self) -> dict:
        """For each vertex v, in vertex order: its link graph, as
        neighbour u -> the neighbours w such that (v, u, w) is a
        triangle.  Node u stands for edge (v, u); its degree is the
        number of triangles on that edge."""
        fans: dict = {v: {} for v in self.vertices}
        for a, b, c in self.triangles:
            for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
                links = fans[v]
                links.setdefault(x, []).append(y)
                links.setdefault(y, []).append(x)
        return fans

    @cached_property
    def components(self) -> int:
        """The number of connected components."""
        return _count_components(_graph(self.vertices, self.edges))

    @property
    def is_connected(self) -> bool:
        return bool(self.triangles) and self.components == 1

    @cached_property
    def surface_reports(self) -> tuple:
        """(closed, bordered): both ``ValidationReport``s, from one pass
        over the edges and one over the vertex fans.

        Edge (v, u) lies in one triangle exactly when u is an end of v's
        link graph, so a vertex is on the border when its graph has an end,
        and a path-shaped graph ends in two border edges."""
        fans = self.vertex_fans
        closed, bordered, border_edges = [], [], []
        for a, b in self.edges:
            n = len(fans[a][b])
            if n != 2:
                closed.append(f"D1: edge {(a, b)} lies in {n} triangles, expected 2")
            if n == 1:
                border_edges.append((a, b))
            elif n != 2:
                bordered.append(f"D1: edge {(a, b)} lies in {n} triangles")
        for v, links in fans.items():
            if not links:
                closed.append(f"D2: vertex {v} has no incident edges")
                bordered.append(f"D2: vertex {v} has no incident edges")
                continue
            shape = _fan_shape(links)
            cycle = shape == "cycle" and len(links) >= 3
            if not cycle:
                closed.append(f"D2: vertex {v} fan is not a single cycle (m >= 3)")
            if any(len(ws) == 1 for ws in links.values()):
                if shape != "path":
                    bordered.append(
                        f"D3: border vertex {v} fan is not a single border-to-border path"
                    )
            elif not cycle:
                bordered.append(f"D2: interior vertex {v} fan is not a single cycle")
        if not self.is_connected:
            closed.append("D3: complex is not connected")
            bordered.append("D4: complex is not connected")
        circles = _count_components(_graph((), border_edges))
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
    verts = {v for t in tris for v in t}
    return SimplicialComplex2(tuple(sorted(verts)), tuple(sorted(tris)))


def _count_components(adj: dict) -> int:
    """Connected components of the graph given as node -> neighbours."""
    seen = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def _graph(nodes, edges) -> dict:
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _fan_shape(links: dict) -> str:
    """Classify one vertex's link graph: 'cycle', 'path', or 'bad'.

    A link graph has no multiple edges (two triangles on the same three
    vertices are one), so once every degree is 1 or 2 and at most two
    are 1, one walk from an end, or from any node, visits the whole
    graph exactly when it is connected."""
    ends = []
    for u, ws in links.items():
        if len(ws) == 1:
            ends.append(u)
        elif len(ws) != 2:
            return "bad"
    if len(ends) not in (0, 2):
        return "bad"
    first = ends[0] if ends else next(iter(links))
    prev, u, seen = None, first, 1
    while True:
        ws = links[u]
        prev, u = u, ws[1] if ws[0] == prev else ws[0]
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
    """Conditions for a bordered surface: interior edges in two
    triangles, border edges in one, linear fans at border vertices.

    The two ends of a border vertex's fan must be border *edges* (each
    contained in a single triangle); the interior of the fan alternates
    interior edges and triangles."""
    return K.surface_reports[1]


# ---------------------------------------------------------------------------
# chain complex and homology


def _d1(K: SimplicialComplex2) -> IntMatrix:
    v_index = {v: i for i, v in enumerate(K.vertices)}
    return IntMatrix(
        len(K.vertices),
        len(K.edges),
        tuple(((v_index[a], -1), (v_index[b], 1)) for a, b in K.edges),
    )


def boundary_matrices(K: SimplicialComplex2) -> ChainComplexData:
    """Boundary operators with ascending-name reference orientations.

    For an edge (a, b) with a < b the boundary is b - a; for a triangle
    (a, b, c) with a < b < c it is (b, c) - (a, c) + (a, b).  Vertices
    and edges are sorted, so a < b gives row(a) < row(b) and the edges
    (a, b) < (a, c) < (b, c) have ascending rows: each column is built
    in the order ``IntMatrix`` requires (and checks).
    """
    e_index = {e: i for i, e in enumerate(K.edges)}
    d1 = _d1(K)
    d2 = IntMatrix(
        len(K.edges),
        len(K.triangles),
        tuple(
            ((e_index[(a, b)], 1), (e_index[(a, c)], -1), (e_index[(b, c)], 1))
            for a, b, c in K.triangles
        ),
    )
    if not d1.mul_is_zero(d2):
        raise InternalInvariantViolation("boundary of boundary is nonzero")
    return ChainComplexData(K.vertices, K.edges, K.triangles, d1, d2)


def _dual_forest(K: SimplicialComplex2):
    """One polygon per tree of a spanning forest of the dual graph, as
    sides (i, +-1): edge ``K.edges[i]`` read forward or backward.

    Each tree starts at its first triangle (a, b, c), with sides a->b,
    b->c, c->a.  A side on an edge in exactly two triangles, the other
    unvisited, steps in: that triangle holds the side's inverse, and its
    other two sides replace the side (Massey, *Algebraic Topology: An
    Introduction*, 1967, ch. 1).  Every other side is emitted.
    """
    e_index = {e: i for i, e in enumerate(K.edges)}
    fans = K.vertex_fans
    visited = set()
    for root in K.triangles:
        if root in visited:
            continue
        visited.add(root)
        a, b, c = root
        sides = []
        stack = [(c, a, root), (b, c, root), (a, b, root)]  # sides, next on top
        while stack:
            x, y, t = stack.pop()
            ws = fans[x][y]
            z = ws[0] if ws[-1] in t else ws[-1]
            if len(ws) != 2 or (nxt := tuple(sorted((x, y, z)))) in visited:
                sides.append((e_index[(x, y)], 1) if x < y else (e_index[(y, x)], -1))
                continue
            visited.add(nxt)
            # nxt reads y x z: its sides x->z, z->y replace x->y
            stack += [(z, y, nxt), (x, z, nxt)]
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
    columns = tuple(map(_column, _dual_forest(K)))
    d2 = IntMatrix(len(K.edges), len(columns), columns)
    if not _d1(K).mul_is_zero(d2):
        raise InternalInvariantViolation("boundary of boundary is nonzero")
    nv, ne, nt, nf = len(K.vertices), len(K.edges), len(K.triangles), len(columns)
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
        while (i := inverse_pair_at(w)) is not None:
            w = rotate(w, i)[2:]
        faces[name] = w
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
    if refined.euler_characteristic() != report.euler:
        raise InternalInvariantViolation("refinement changed the Euler characteristic")
    order, sym_to_vertex = refined._vertex_order
    names = [f"v{i}" for i in range(len(order))]
    triangles = [tuple([names[sym_to_vertex[s]] for s in w]) for _, w in refined.faces]
    # faithful: three vertices per face, no two faces on the same three
    simp = build_simplicial(t for t in triangles if len(set(t)) == 3)
    if len(simp.triangles) != len(triangles):
        raise InternalInvariantViolation("refinement is not faithful")
    check = (validate_bordered_surface if report.num_contours else validate_closed_surface)(simp)
    if not check.ok:
        reasons = "; ".join(check.violations[:3])
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
    fans = K.vertex_fans
    for i, (a, b) in enumerate(K.edges):
        if len(fans[a][b]) > 2:
            raise EdgeMultiplicityError(f"e{i}", len(fans[a][b]))
    forest = enumerate(_dual_forest(K))
    faces = {f"T{j}": tuple(EdgeSym(f"e{i}", s) for i, s in sides) for j, sides in forest}
    return build_complex(faces, internal=True)
