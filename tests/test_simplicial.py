import random

import pytest

from surfclass.cellcomplex import build
from surfclass.errors import DegenerateTriangleError
from surfclass.intlinalg import FgAbelianGroup
from surfclass.rewrite import TYPE_I, TYPE_II, NormalForm, make_canonical, scramble
from surfclass.simplicial import (
    boundary_matrices,
    build_simplicial,
    homology,
    refine_to_triangulation,
    to_cell_complex,
    validate_bordered_surface,
    validate_closed_surface,
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
    assert [data.d2[i, 0] for i in range(3)] == [1, -1, 1]
    # edge (a,b) column of d1 is -1 at a, +1 at b
    assert [data.d1[i, 0] for i in range(3)] == [-1, 1, 0]


def test_boundary_squared_zero_random():
    rng = random.Random(11)
    labels = "abcdefgh"
    for _ in range(100):
        tris = set()
        while len(tris) < rng.randint(1, 8):
            t = tuple(rng.sample(labels, 3))
            tris.add(t)
        K = build_simplicial(tris)
        data = boundary_matrices(K)  # raises if d1 . d2 != 0
        assert data.d1.mul(data.d2).is_zero()


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
        orientable = to_cell_complex(K).is_orientable()
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
        assert nv - ne + nt == K.euler_characteristic()
