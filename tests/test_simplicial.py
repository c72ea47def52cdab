import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import simplicial
from surfclass.cellcomplex import build
from surfclass.classify import h1_from_normal_form
from surfclass.errors import (
    DegenerateTriangleError,
    DisconnectedError,
    EdgeMultiplicityError,
    InternalInvariantViolation,
)
from surfclass.intlinalg import FgAbelianGroup, cokernel
from surfclass.rewrite import TYPE_I, TYPE_II, NormalForm, make_canonical, scramble
from surfclass.simplicial import (
    SimplicialComplex2,
    ValidationReport,
    boundary_matrices,
    build_simplicial,
    homology,
    refine_to_triangulation,
    surface_verdict,
    to_cell_complex,
    validate_bordered_surface,
    validate_closed_surface,
)

from matrixutil import entry, is_zero
from simputil import (
    DISC,
    MOBIUS_BAND,
    SMALL_FORMS,
    contours_by_full_keys,
    dual_tree_count,
    edge_keyed_validate_bordered,
    edge_keyed_validate_closed,
    faces_per_triangle,
    form_id,
    full_d2_homology,
    glued_faces,
    least_reading,
    name_keyed_edges,
    refined_triangles,
    relabelled,
    vertices_by_full_keys,
)

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(2, ())
ZMOD2 = FgAbelianGroup(0, (2,))
Z_PLUS_ZMOD2 = FgAbelianGroup(1, (2,))
TRIVIAL = FgAbelianGroup(0, ())


def euler_simplicial(K):
    """V - E + T; checked against the alternating sum of Betti numbers."""
    nv, ne, nt = K.counts()
    chi = nv - ne + nt
    h0, h1, h2 = homology(K)
    assert chi == h0.free_rank - h1.free_rank + h2.free_rank
    return chi


def test_build_closure():
    tet = build_simplicial([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")])
    assert tet.counts() == (4, 6, 4)
    tri = build_simplicial([("a", "b", "c")])
    assert tri.counts() == (3, 3, 1)
    with pytest.raises(DegenerateTriangleError):
        build_simplicial([("a", "a", "b")])


def test_build_checks_distinct_vertex_names():
    # vertices are named by str(), so 1 and "1" are one vertex
    with pytest.raises(DegenerateTriangleError, match=r"triangle \(1, '1', 2\) needs 3 distinct"):
        build_simplicial([(1, "1", 2)])
    assert build_simplicial([(1, 2, "3")]).triangles == (("1", "2", "3"),)


def test_validate_closed(figure_triangulations):
    tet = build_simplicial(figure_triangulations["sphere"])
    assert validate_closed_surface(tet).ok
    torus = build_simplicial(figure_triangulations["torus"])
    assert torus.counts() == (9, 27, 18)
    assert validate_closed_surface(torus).ok
    tri = build_simplicial([("a", "b", "c")])
    rep = validate_closed_surface(tri)
    assert not rep.ok and any("D1" in v for v in rep.violations)


def test_validate_bordered():
    tri = build_simplicial([("a", "b", "c")])
    assert validate_bordered_surface(tri).ok
    tm = build_simplicial([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")])
    rep = validate_bordered_surface(tm)
    assert rep.ok and rep.border_circles == 1
    pinch = build_simplicial([("a", "b", "c"), ("a", "d", "e")])
    rep = validate_bordered_surface(pinch)
    assert not rep.ok and any("D3" in v for v in rep.violations)


def test_reports_name_a_vertex_with_no_incident_edges():
    # build_simplicial derives the vertices from the triangles; built
    # directly, a complex can list a vertex that no triangle has
    K = SimplicialComplex2(("a", "b", "c", "d"), (("a", "b", "c"),))
    assert validate_closed_surface(K) == ValidationReport(
        ok=False,
        violations=(
            "D1: edge ('a', 'b') lies in 1 triangles, expected 2",
            "D1: edge ('a', 'c') lies in 1 triangles, expected 2",
            "D1: edge ('b', 'c') lies in 1 triangles, expected 2",
            "D2: vertex a fan is not a single cycle (m >= 3)",
            "D2: vertex b fan is not a single cycle (m >= 3)",
            "D2: vertex c fan is not a single cycle (m >= 3)",
            "D2: vertex d has no incident edges",
            "D3: complex is not connected",
        ),
    )
    assert validate_bordered_surface(K) == ValidationReport(
        ok=False,
        violations=("D2: vertex d has no incident edges", "D4: complex is not connected"),
        border_circles=1,
    )


def test_validators_count_components(figure_triangulations):
    tet = figure_triangulations["sphere"]
    two = build_simplicial(tet + [tuple(v.upper() for v in t) for t in tet])
    assert "D3: complex is not connected" in validate_closed_surface(two).violations
    assert "D4: complex is not connected" in validate_bordered_surface(two).violations
    for q in (1, 2, 3):
        _, simp = refine_to_triangulation(make_canonical(NormalForm(TYPE_I, 1, q)))
        rep = validate_bordered_surface(simp)
        assert rep.ok and rep.border_circles == q


def test_boundary_matrix_columns():
    tri = build_simplicial([("a", "b", "c")])
    data = boundary_matrices(tri)
    # edges sorted: (a,b), (a,c), (b,c); triangle column is +1, -1, +1
    assert data.basis1 == (("a", "b"), ("a", "c"), ("b", "c"))
    assert [entry(data.d2, i, 0) for i in range(3)] == [1, -1, 1]
    # edge (a,b) column of d1 is -1 at a, +1 at b
    assert [entry(data.d1, i, 0) for i in range(3)] == [-1, 1, 0]


def random_complexes(seed, count):
    """Small random complexes on the vertices a..h, disconnected and
    non-surface ones included."""
    rng = random.Random(seed)
    labels = "abcdefgh"
    for _ in range(count):
        tris = set()
        while len(tris) < rng.randint(1, 8):
            t = tuple(rng.sample(labels, 3))
            tris.add(t)
        yield build_simplicial(tris)


def test_boundary_squared_zero_random():
    for K in random_complexes(11, 100):
        data = boundary_matrices(K)  # raises if d1 . d2 != 0
        assert is_zero(data.d1.mul(data.d2))


def test_h0_from_components_equals_the_cokernel_of_d1():
    disconnected = 0
    for K in random_complexes(11, 200):
        h0 = homology(K)[0]
        assert h0 == cokernel(len(K.vertices), boundary_matrices(K).d1)
        disconnected += h0.free_rank > 1
    assert disconnected >= 10  # 13 of the 200


def test_boundary_matrices_reject_a_nonzero_boundary_of_boundary(monkeypatch, figure_triangulations):
    K = build_simplicial(figure_triangulations["sphere"])
    real = simplicial._d2

    def d2_with_one_sign_wrong(L, columns):
        (k, v), *rest = columns[0]
        return real(L, (((k, -v), *rest), *columns[1:]))

    monkeypatch.setattr(simplicial, "_d2", d2_with_one_sign_wrong)
    with pytest.raises(InternalInvariantViolation, match="boundary of boundary"):
        boundary_matrices(K)


def test_homology_rejects_a_nonzero_boundary_of_boundary(monkeypatch):
    real = simplicial._column

    def column_with_one_sign_wrong(pairs):
        (r, v), *rest = real(pairs)
        return ((r, -v), *rest)

    monkeypatch.setattr(simplicial, "_column", column_with_one_sign_wrong)
    with pytest.raises(InternalInvariantViolation, match="boundary of boundary"):
        homology(build_simplicial(DISC))


def test_homology_builds_no_vertex_by_edge_matrix(monkeypatch, figure_triangulations):
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND, **FINS_AND_PINCHES)
    complexes = {name: build_simplicial(tris) for name, tris in cases.items()}
    want = {name: full_d2_homology(K) for name, K in complexes.items()}

    def no_d1(K):
        raise AssertionError("built the V x E matrix d1")

    monkeypatch.setattr(simplicial, "_d1", no_d1)
    for name, K in complexes.items():
        assert homology(K) == want[name], name
        with pytest.raises(AssertionError, match="V x E"):
            boundary_matrices(K)


def test_homology_runs_one_snf_of_one_column_per_dual_tree(monkeypatch, figure_triangulations):
    seen = []

    def counting(name):
        real = getattr(simplicial, name)

        def wrapper(*args):
            seen.append((name, args[-1]))
            return real(*args)
        return wrapper

    for name in ("smith_normal_form", "cokernel", "rank"):
        monkeypatch.setattr(simplicial, name, counting(name))
    K = build_simplicial(figure_triangulations["projective"])
    assert homology(K) == (Z, ZMOD2, TRIVIAL)
    [(name, d2)] = seen
    assert (name, d2.rows, d2.cols) == ("smith_normal_form", len(K.edges), 1)
    for tris in FINS_AND_PINCHES.values():
        seen.clear()
        K = build_simplicial(tris)
        homology(K)
        [(name, d2)] = seen
        assert (name, d2.rows, d2.cols) == ("smith_normal_form", len(K.edges), dual_tree_count(K))


@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_refined_scramble_homology_matches_normal_form(form):
    K = scramble(make_canonical(form), 5, 12)
    _, simp = refine_to_triangulation(K)
    h0, h1, h2 = homology(simp)
    assert h0 == Z
    assert h1 == h1_from_normal_form(form)
    closed_orientable = form.q == 0 and form.kind == TYPE_I
    assert h2 == (Z if closed_orientable else TRIVIAL)


def test_homology_figures(figure_triangulations):
    want = {
        "sphere": (Z, TRIVIAL, Z, 2),
        "torus": (Z, Z2, Z, 0),
        "projective": (Z, ZMOD2, TRIVIAL, 1),
        "klein": (Z, Z_PLUS_ZMOD2, TRIVIAL, 0),
    }
    for name, tris in figure_triangulations.items():
        K = build_simplicial(tris)
        assert validate_closed_surface(K).ok, name
        h0, h1, h2 = homology(K)
        w0, w1, w2, chi = want[name]
        assert (h0, h1, h2) == (w0, w1, w2), name
        assert euler_simplicial(K) == chi, name


def test_homology_closed_conformance(figure_triangulations):
    # closed surfaces: H0 = Z, H2 = Z iff orientable, H1 torsion in {(), (2,)}
    for name, tris in figure_triangulations.items():
        K = build_simplicial(tris)
        h0, h1, h2 = homology(K)
        assert h0 == Z
        orientable = to_cell_complex(K).invariant_report().orientable
        assert (h2 == Z) == orientable
        assert h1.torsion in ((), (2,))


def test_euler_examples(figure_triangulations):
    assert euler_simplicial(build_simplicial(figure_triangulations["sphere"])) == 2
    assert euler_simplicial(build_simplicial(figure_triangulations["torus"])) == 0
    assert euler_simplicial(build_simplicial(figure_triangulations["projective"])) == 1


def test_refine_disk():
    refined, simp = refine_to_triangulation(build({"A": "a b c"}))
    assert validate_bordered_surface(simp).ok
    assert euler_simplicial(simp) == 1
    h0, h1, h2 = homology(simp)
    assert (h0, h1, h2) == (Z, TRIVIAL, TRIVIAL)


def test_refine_torus():
    refined, simp = refine_to_triangulation(build({"A": "a b a' b'"}))
    assert validate_closed_surface(simp).ok
    assert euler_simplicial(simp) == 0
    assert homology(simp)[1] == Z2


def test_refine_projective():
    refined, simp = refine_to_triangulation(build({"A": "a a"}))
    assert euler_simplicial(simp) == 1
    assert homology(simp)[1] == ZMOD2


def test_refine_sphere_null_face():
    refined, simp = refine_to_triangulation(build({"A": ""}))
    assert validate_closed_surface(simp).ok
    assert euler_simplicial(simp) == 2
    assert homology(simp)[2] == Z


def test_refine_scrambled_preserves_chi():
    rng = random.Random(3)
    for seed in range(6):
        form = NormalForm(TYPE_I if seed % 2 else TYPE_II, 1, seed % 2)
        K = scramble(make_canonical(form), seed, rng.randint(0, 5))
        refined, simp = refine_to_triangulation(K)
        nv, ne, nt = simp.counts()
        assert nv - ne + nt == K.invariant_report().euler


# ---------------------------------------------------------------------------
# gluing a triangulation into one polygon, against one face per triangle


def assert_glued_like_oracle(triangles):
    K = build_simplicial(triangles)
    glued, oracle = to_cell_complex(K), faces_per_triangle(K)
    assert glued.invariant_report().key() == oracle.invariant_report().key()
    assert len(glued.faces) == 1
    assert len(glued.faces[0][1]) == len(K.triangles) + 2


def test_glued_polygon_matches_oracle_on_figures(figure_triangulations):
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND)
    for tris in cases.values():
        for seed in range(4):
            assert_glued_like_oracle(relabelled(tris, seed))


@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_glued_polygon_matches_oracle_on_refinements(form):
    tris = refined_triangles(form)
    for seed in range(3):
        assert_glued_like_oracle(relabelled(tris, seed))


def test_glued_polygon_per_component_and_edge_multiplicity(figure_triangulations):
    tet = figure_triangulations["sphere"]
    two = build_simplicial(tet + [tuple(v.upper() for v in t) for t in tet])
    with pytest.raises(DisconnectedError):
        to_cell_complex(two)
    fin = build_simplicial([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "x")])
    with pytest.raises(EdgeMultiplicityError):
        to_cell_complex(fin)


# ---------------------------------------------------------------------------
# the neighbour-keyed surface checks and the first-symbol vertex order,
# against the edge-keyed checks and full-key sort they replaced

TETRA = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
FINS_AND_PINCHES = {
    "fin": TETRA + [("a", "b", "x")],
    "fin_on_a_disc": DISC + [("o", "v0", "x")],
    "bowtie": [("a", "b", "c"), ("a", "d", "e")],
    "pinched_discs": DISC + [("o", f"w{i}", f"w{(i + 1) % 4}") for i in range(4)],
    "pinched_spheres": TETRA + [("a", "e", "f"), ("a", "e", "g"), ("a", "f", "g"), ("e", "f", "g")],
    "disc_and_sphere": DISC + [tuple(f"s{v}" for v in t) for t in TETRA],
}


def assert_validators_match_oracle(K):
    assert validate_closed_surface(K) == edge_keyed_validate_closed(K)
    assert validate_bordered_surface(K) == edge_keyed_validate_bordered(K)


def test_validators_match_oracle_on_figures_and_non_surfaces(figure_triangulations):
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND, **FINS_AND_PINCHES)
    tet = figure_triangulations["sphere"]
    cases["two_spheres"] = tet + [tuple(v.upper() for v in t) for t in tet]
    for tris in cases.values():
        for seed in range(4):
            assert_validators_match_oracle(build_simplicial(relabelled(tris, seed)))


def test_validators_match_oracle_on_random_complexes():
    for K in random_complexes(5, 300):
        assert_validators_match_oracle(K)


def test_surface_verdict_is_the_oracle_report_that_border_edges_pick(figure_triangulations):
    # random complexes, the closed figures, and fins and pinches, two of
    # them without border edges: every branch passes and fails
    figures = [*figure_triangulations.values(), *FINS_AND_PINCHES.values()]
    cases = [*random_complexes(5, 300), *map(build_simplicial, figures)]
    seen = Counter()
    for K in cases:
        closed, bordered = validate_closed_surface(K), validate_bordered_surface(K)
        verdict = surface_verdict(closed, bordered)
        on_edge = Counter(e for a, b, c in K.triangles for e in ((a, b), (a, c), (b, c)))
        border = 1 in on_edge.values()
        oracle = edge_keyed_validate_bordered if border else edge_keyed_validate_closed
        assert verdict == oracle(K)
        assert verdict.ok == (closed.ok or bordered.ok)
        seen[border, verdict.ok] += 1
    assert len(seen) == 4, seen


@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_validators_match_oracle_on_refinements(form):
    tris = refined_triangles(form)
    # one triangle less: a border appears, or a second one
    for case in (tris, relabelled(tris, 0), tris[1:]):
        assert_validators_match_oracle(build_simplicial(case))


VERTEX_ORDER_FORMS = [NormalForm(TYPE_I, p, q) for p in range(6) for q in range(4)]
VERTEX_ORDER_FORMS += [NormalForm(TYPE_II, p, q) for p in range(1, 6) for q in range(4)]


def assert_first_symbol_order(K):
    """``_vertex_order`` and its symbol map against the full-key oracle,
    and the contour runs against the border edges."""
    order, sym_to_vertex = K._vertex_order
    want = vertices_by_full_keys(K)
    assert all(len(set(r)) == len(r) for _, r in order)
    assert tuple((kind, least_reading(kind, r)) for kind, r in order) == want
    assert sym_to_vertex == {s: i for i, v in enumerate(want) for s in v.members}
    # each border edge lies on exactly one contour, once
    on_contours = [s.name for c in contours_by_full_keys(K) for s in c]
    border = [e for e, occ in K.edge_occurrences.items() if len(occ) == 1]
    assert sorted(on_contours) == sorted(border)


@pytest.mark.parametrize("form", VERTEX_ORDER_FORMS, ids=form_id)
def test_first_symbol_vertex_order_is_the_full_key_order(form):
    # scrambles of 0, 15 and 20 moves, their refinements and the
    # refinements glued back into polygons
    for seed, moves in ((0, 15), (1, 15), (2, 15), (3, 0), (4, 20)):
        K = scramble(make_canonical(form), seed, moves)
        refined, simp = refine_to_triangulation(K)
        for L in (K, refined, to_cell_complex(simp)):
            assert_first_symbol_order(L)


# ---------------------------------------------------------------------------
# homology from one d2 column per dual tree, and the glued polygon, against
# the full E x T boundary matrix and the walk they replaced

TRIPLES = st.sets(st.integers(0, 8), min_size=3, max_size=3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(TRIPLES, min_size=1, max_size=14))
def test_homology_matches_full_d2_on_random_2_complexes(triples):
    # 9 vertices and up to 14 triangles: edges in 3+ triangles, pinched
    # vertices and several components all occur
    K = build_simplicial(triples)
    assert homology(K) == full_d2_homology(K)


def test_homology_matches_full_d2_on_figures_and_non_surfaces(figure_triangulations):
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND, **FINS_AND_PINCHES)
    for tris in cases.values():
        K = build_simplicial(tris)
        assert homology(K) == full_d2_homology(K)


@pytest.mark.parametrize("seed", range(3))
def test_homology_matches_full_d2_on_linial_meshulam_complexes(seed):
    rng = random.Random(seed)
    K = build_simplicial(t for t in combinations(range(40), 3) if rng.random() < 2.8 / 40)
    assert homology(K) == full_d2_homology(K)


def test_homology_of_a_60_vertex_linial_meshulam_complex():
    # 1,576 triangles give a 1,671 x 1,121 d2 on the dual trees: a scale
    # guard on the Smith reduction's pivot order, whose fill decides its time
    rng = random.Random(3)
    K = build_simplicial(t for t in combinations(range(60), 3) if rng.random() < 2.8 / 60)
    assert homology(K) == (Z, FgAbelianGroup(45, ()), FgAbelianGroup(9, ()))


@pytest.mark.parametrize("form", VERTEX_ORDER_FORMS, ids=form_id)
def test_glued_words_are_unchanged_on_refinements(form):
    tris = refined_triangles(form)
    for case in (tris, relabelled(tris, 0)):
        K = build_simplicial(case)
        assert to_cell_complex(K).faces == build(glued_faces(K), internal=True).faces


# ---------------------------------------------------------------------------
# the integer index (vertex ids in sorted-name order) under vertex names
# whose string order is neither their numeric order nor their order of
# first appearance, against oracles keyed by the names themselves

LABELS = ("10", "2", "é", "1", "V3", "9", "b", "11", "Z", "100", "3", "Ä")
INT_LABELS = (10, 2, 100, 1, 3, 9, 20, 11, 5)


def glued_or_error(glue):
    try:
        return glue().faces
    except (DisconnectedError, EdgeMultiplicityError) as e:
        return type(e).__name__, str(e)


def assert_index_matches_name_keyed_oracles(K):
    edges = name_keyed_edges(K)
    assert K.edges == tuple(edges)
    assert K.counts() == (len(K.vertices), len(edges), len(K.triangles))
    assert homology(K) == full_d2_homology(K)
    assert_validators_match_oracle(K)
    glued = glued_or_error(lambda: to_cell_complex(K))
    on_edge = [sum(set(e) <= set(t) for t in K.triangles) for e in edges]
    if max(on_edge) > 2:
        i, n = next((i, n) for i, n in enumerate(on_edge) if n > 2)
        assert glued == ("EdgeMultiplicityError", str(EdgeMultiplicityError(f"e{i}", n)))
    else:
        assert glued == glued_or_error(lambda: build(glued_faces(K), internal=True))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(TRIPLES, min_size=1, max_size=14), st.sampled_from((LABELS, INT_LABELS)))
def test_index_matches_name_keyed_oracles_under_relabelling(triples, labels):
    K = build_simplicial([labels[v] for v in t] for t in triples)
    assert_index_matches_name_keyed_oracles(K)


def test_index_matches_name_keyed_oracles_on_relabelled_figures(figure_triangulations):
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND, **FINS_AND_PINCHES)
    for tris in cases.values():
        for seed in range(3):
            shuffled = relabelled(tris, seed)
            rename = dict(zip(sorted({v for t in shuffled for v in t}), LABELS))
            renamed = [tuple(rename[v] for v in t) for t in shuffled]
            assert_index_matches_name_keyed_oracles(build_simplicial(renamed))


def test_index_matches_name_keyed_oracles_with_a_bare_vertex():
    tetra = [("1", "10", "2"), ("1", "10", "V3"), ("1", "2", "V3"), ("10", "2", "V3")]
    for triangles in (tetra, tetra[:3], DISC):
        names = sorted({v for t in triangles for v in t} | {"9"})
        K = SimplicialComplex2(tuple(names), tuple(sorted(tuple(sorted(t)) for t in triangles)))
        assert "D2: vertex 9 has no incident edges" in validate_closed_surface(K).violations
        assert_index_matches_name_keyed_oracles(K)


def test_index_of_integer_vertices_follows_their_names():
    K = build_simplicial([(10, 2, 1), (2, 1, 3), (1, 3, 10), (3, 10, 2)])
    assert K.vertices == ("1", "10", "2", "3")
    assert K.tri_ids == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert_index_matches_name_keyed_oracles(K)
