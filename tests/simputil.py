"""Triangulation helpers and fixed triangulations used only by the tests."""

import random
from collections import namedtuple

from surfclass.cellcomplex import BORDER, INNER, NULL, build
from surfclass.edgeword import EdgeSym, inverse_word
from surfclass.intlinalg import FgAbelianGroup, IntMatrix, smith_normal_form
from surfclass.rewrite import TYPE_I, TYPE_II, NormalForm, make_canonical
from surfclass.simplicial import ValidationReport, refine_to_triangulation

from wordutil import brute_least_rotation, word_key

DISC = [("o", f"v{i}", f"v{(i + 1) % 6}") for i in range(6)]
MOBIUS_BAND = [(f"m{i}", f"m{(i + 1) % 5}", f"m{(i + 2) % 5}") for i in range(5)]

# one vertex of the full-key oracle: its kind and its least reading
Vertex = namedtuple("Vertex", "kind members")

# every form with p <= 4 and q <= 3
SMALL_FORMS = [NormalForm(TYPE_I, p, q) for p in range(5) for q in range(4)]
SMALL_FORMS += [NormalForm(TYPE_II, p, q) for p in range(1, 5) for q in range(4)]


def _graph(nodes, edges) -> dict:
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


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


def form_id(form):
    return f"{form.kind}-{form.p}-{form.q}"


def refined_triangles(form):
    """The triangles of the refinement of the canonical complex of form."""
    return list(refine_to_triangulation(make_canonical(form))[1].triangles)


def relabelled(triangles, seed):
    """The same triangulation under seeded vertex names.  The names set
    the sorted order of the triangles, and so the order in which
    ``to_cell_complex`` meets them."""
    rng = random.Random(seed)
    verts = sorted({v for t in triangles for v in t})
    names = [f"x{i}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    return [tuple(rename[v] for v in t) for t in triangles]


def faces_per_triangle(K):
    """K as a cell complex with one face per triangle: the word of
    triangle (a, b, c) walks its sides a->b, b->c, c->a.  Edge names
    and signs are those of ``simplicial.to_cell_complex``."""
    edge_name = {e: f"e{i}" for i, e in enumerate(K.edges)}

    def directed(a, b):
        if (a, b) in edge_name:
            return EdgeSym(edge_name[(a, b)], 1)
        return EdgeSym(edge_name[(b, a)], -1)

    faces = {}
    for i, (a, b, c) in enumerate(K.triangles):
        faces[f"T{i}"] = (directed(a, b), directed(b, c), directed(c, a))
    return build(faces, internal=True)


# ---------------------------------------------------------------------------
# oracles of homology and of the glued polygon, from the full boundary
# matrices and the one-polygon-per-component walk they replaced


def name_keyed_edges(K):
    """K's edges, sorted, read off the names of its triangles."""
    return sorted({e for a, b, c in K.triangles for e in ((a, b), (a, c), (b, c))})


def full_d2_homology(K):
    """(H0, H1, H2) from one Smith reduction of the E x T matrix d2, with
    rank d1 = V - c for c components, all keyed by vertex names."""
    edges = name_keyed_edges(K)
    row = {e: i for i, e in enumerate(edges)}
    columns = [((row[a, b], 1), (row[a, c], -1), (row[b, c], 1)) for a, b, c in K.triangles]
    snf2 = smith_normal_form(IntMatrix(len(edges), len(columns), tuple(columns)))
    nv, ne, nt = len(K.vertices), len(edges), len(K.triangles)
    c, r2 = _count_components(_graph(K.vertices, edges)), len(snf2)
    h1 = FgAbelianGroup(ne - (nv - c) - r2, tuple(t for t in snf2 if t > 1))
    return FgAbelianGroup(c, ()), h1, FgAbelianGroup(nt - r2, ())


def dual_tree_count(K):
    """Components of the graph on K's triangles that links two triangles
    across each edge that lies in exactly those two."""
    on_edge = {}
    for a, b, c in K.triangles:
        for e in ((a, b), (a, c), (b, c)):
            on_edge.setdefault(e, []).append((a, b, c))
    pairs = [ts for ts in on_edge.values() if len(ts) == 2]
    return _count_components(_graph(K.triangles, pairs))


def glued_faces(K):
    """The faces of ``to_cell_complex(K)`` for K with every edge in at
    most two triangles: a walk over each component from its first
    triangle that steps into any unvisited triangle across a side."""
    edge_name = {e: f"e{i}" for i, e in enumerate(name_keyed_edges(K))}

    def directed(a, b):
        if a < b:
            return EdgeSym(edge_name[(a, b)], 1)
        return EdgeSym(edge_name[(b, a)], -1)

    # for each vertex name v: neighbour u -> the w such that (v, u, w) is a triangle
    fans = {v: {} for v in K.vertices}
    for a, b, c in K.triangles:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            fans[v].setdefault(x, []).append(y)
            fans[v].setdefault(y, []).append(x)
    visited = set()
    faces = {}
    for root in K.triangles:
        if root in visited:
            continue
        visited.add(root)
        a, b, c = root
        word = []
        stack = [(c, a, root), (b, c, root), (a, b, root)]
        while stack:
            x, y, t = stack.pop()
            z = next((u for u in fans[x][y] if u not in t), None)
            if z is None or (nxt := tuple(sorted((x, y, z)))) in visited:
                word.append(directed(x, y))
                continue
            visited.add(nxt)
            stack += [(z, y, nxt), (x, z, nxt)]
        faces[f"T{len(faces)}"] = tuple(word)
    return faces


# ---------------------------------------------------------------------------
# oracles of the surface checks and of the vertex order


def _edge_keyed_fans(K):
    """For each vertex: the graph on incident edges (sorted pairs),
    linked by incident triangles."""
    fans = {v: {} for v in K.vertices}
    for e in K.edges:
        fans[e[0]][e] = []
        fans[e[1]][e] = []
    for t in K.triangles:
        for v in t:
            others = [u for u in t if u != v]
            e1 = tuple(sorted((v, others[0])))
            e2 = tuple(sorted((v, others[1])))
            fans[v][e1].append(e2)
            fans[v][e2].append(e1)
    return fans


def _edge_fan_shape(links):
    """'cycle', 'path' or 'bad', from the degrees and one component count."""
    degs = sorted(len(v) for v in links.values())
    if _count_components(links) != 1:
        return "bad"
    if all(d == 2 for d in degs):
        return "cycle"
    if degs.count(1) == 2 and all(d in (1, 2) for d in degs):
        return "path"
    return "bad"


def _edge_triangle_counts(K):
    counts = dict.fromkeys(K.edges, 0)
    for a, b, c in K.triangles:
        for e in ((a, b), (a, c), (b, c)):
            counts[e] += 1
    return counts


def _connected(K):
    return bool(K.triangles) and _count_components(_graph(K.vertices, K.edges)) == 1


def edge_keyed_validate_closed(K):
    """``validate_closed_surface`` over fans keyed by sorted edge pairs."""
    violations = []
    for e, n in _edge_triangle_counts(K).items():
        if n != 2:
            violations.append(f"D1: edge {e} lies in {n} triangles, expected 2")
    for v, links in _edge_keyed_fans(K).items():
        if not links:
            violations.append(f"D2: vertex {v} has no incident edges")
            continue
        if _edge_fan_shape(links) != "cycle" or len(links) < 3:
            violations.append(f"D2: vertex {v} fan is not a single cycle (m >= 3)")
    if not _connected(K):
        violations.append("D3: complex is not connected")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def edge_keyed_validate_bordered(K):
    """``validate_bordered_surface`` over fans keyed by sorted edge pairs."""
    violations = []
    border_edges = set()
    for e, n in _edge_triangle_counts(K).items():
        if n == 1:
            border_edges.add(e)
        elif n != 2:
            violations.append(f"D1: edge {e} lies in {n} triangles")
    border_vertices = {v for e in border_edges for v in e}
    for v, links in _edge_keyed_fans(K).items():
        if not links:
            violations.append(f"D2: vertex {v} has no incident edges")
            continue
        shape = _edge_fan_shape(links)
        if v in border_vertices:
            ends = [e for e in links if len(links[e]) == 1]
            if shape != "path" or not all(e in border_edges for e in ends):
                violations.append(
                    f"D3: border vertex {v} fan is not a single border-to-border path"
                )
        elif shape != "cycle" or len(links) < 3:
            violations.append(f"D2: interior vertex {v} fan is not a single cycle")
    if not _connected(K):
        violations.append("D4: complex is not connected")
    circles = _count_components(_graph((), border_edges))
    return ValidationReport(not violations, tuple(violations), circles)


def _runs_as_symbols(K, runs):
    """Runs of slot ends, as ``count_invariants`` walks them, as symbols:
    end 2k carries the k-th letter of K's words and end 2k + 1 its inverse."""
    letters = [s for _, w in K.faces for s in w]
    return [tuple(letters[e >> 1].inv() if e & 1 else letters[e >> 1] for e in r) for r in runs]


def vertices_by_full_keys(K):
    """K's vertices from the walk's runs in ``K._counts[2]``, each read
    least by trying every reading (an inner run rotated either way, a
    border run from either end), then sorted by the ``sym_key`` list of
    all their members."""
    if not any(w for _, w in K.faces):
        return (Vertex(NULL, ()),)
    paths, cycles, _ = K._counts[2]
    out = [Vertex(BORDER, least_reading(BORDER, r)) for r in _runs_as_symbols(K, paths)]
    out += [Vertex(INNER, least_reading(INNER, r)) for r in _runs_as_symbols(K, cycles)]
    return tuple(sorted(out, key=lambda v: word_key(v.members)))


def least_reading(kind, run):
    """The ``sym_key``-least reading of a vertex run, by trying them all:
    every rotation either way of an inner run, either end of a border run."""
    run = tuple(run)
    if kind == INNER:
        return brute_least_rotation(run, run[::-1])
    return min(run, run[::-1], key=word_key)


def contours_by_full_keys(K):
    """K's boundary circles from the walk's contour runs in
    ``K._counts[2][2]``, each read least over every rotation of it and of
    its inverse, then sorted by their ``sym_key`` lists."""
    runs = _runs_as_symbols(K, K._counts[2][2])
    return tuple(sorted((brute_least_rotation(r, inverse_word(r)) for r in runs), key=word_key))
