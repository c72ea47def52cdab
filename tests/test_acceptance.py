"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest hook prints one line per criterion in the terminal
summary.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import random

from surfclass.cellcomplex import build
from surfclass.classify import classify, h1_from_normal_form
from surfclass.edgeword import format_word
from surfclass.intlinalg import (
    FgAbelianGroup,
    smith_normal_form,
)
from surfclass.planegeom import (
    SQRT3,
    ClosedCurve,
    hausdorff_distance,
    ifs_iterate,
    preset,
    preset_seed,
    winding_number,
)
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    NormalForm,
    make_canonical,
    normalize,
    scramble_step,
    _Rewriter,
)
from surfclass.simplicial import (
    boundary_matrices,
    build_simplicial,
    homology,
    refine_to_triangulation,
)
from surfclass.svg import render_svg

from geomutil import certify_convergence
from matrixutil import from_rows, is_zero, minor_gcd_invariants

Z = FgAbelianGroup(1, ())


def test_criterion_1_classification_table():
    cases = [
        ("a b a' b'", True, 0, (TYPE_I, 1, 0), "torus"),
        ("a b a b'", False, 0, (TYPE_II, 2, 0), "Klein bottle"),
        ("a a", False, 1, (TYPE_II, 1, 0), "projective plane"),
        ("", True, 2, (TYPE_I, 0, 0), "sphere"),
        ("a b a c", False, 0, (TYPE_II, 1, 1), "Möbius strip"),
    ]
    for word, orientable, euler, (kind, p, q), name in cases:
        sc = classify(build({"A": word}))
        assert sc.orientable == orientable, word
        assert sc.euler == euler, word
        assert (sc.form.kind, sc.form.p, sc.form.q) == (kind, p, q), word
        assert sc.name == name, word
    # the Möbius strip normalizes to the a a c h c' shape exactly
    res = normalize(build({"A": "a b a c"}))
    assert format_word(res.canonical_word) == "a1 a1 c1 h1 c1'"


def test_criterion_2_three_crosscaps():
    res = normalize(build({"A": "a a b c b' c'"}))
    assert res.normal == NormalForm(TYPE_II, 3, 0)
    res = normalize(build({"A": "a b a b'"}))
    assert res.normal == NormalForm(TYPE_II, 2, 0)
    assert format_word(res.canonical_word) == "a1 a1 a2 a2"


def test_criterion_3_move_invariance_500_runs():
    forms = []
    for kind in (TYPE_I, TYPE_II):
        for p in range(0 if kind == TYPE_I else 1, 5):
            for q in range(0, 4):
                forms.append(NormalForm(kind, p, q))
    runs = failures = 0
    seed = 0
    while runs < 500:
        for form in forms:
            K0 = make_canonical(form)
            key = K0.invariant_report().key()
            rng = random.Random(seed)
            n_moves = rng.randint(0, 60)
            rw = _Rewriter(K0)
            for _ in range(n_moves):
                scramble_step(rw, rng)
                if rw.complex().invariant_report().key() != key:
                    failures += 1
                    break
            else:
                if normalize(rw.complex()).normal != form:
                    failures += 1
            runs += 1
            seed += 1
            if runs >= 500:
                break
    assert runs >= 500 and failures == 0


def test_criterion_4_homology_conformance(figure_triangulations):
    want = {
        "sphere": ((1, ()), (0, ()), (1, ()), 2),
        "torus": ((1, ()), (2, ()), (1, ()), 0),
        "projective": ((1, ()), (0, (2,)), (0, ()), 1),
        "klein": ((1, ()), (1, (2,)), (0, ()), 0),
    }
    for name, tris in figure_triangulations.items():
        K = build_simplicial(tris)
        h = homology(K)
        w0, w1, w2, chi = want[name]
        assert h == (
            FgAbelianGroup(*w0),
            FgAbelianGroup(*w1),
            FgAbelianGroup(*w2),
        ), name
        nv, ne, nt = K.counts()
        assert nv - ne + nt == chi, name


def test_criterion_5_end_to_end_oracle():
    forms = []
    for kind in (TYPE_I, TYPE_II):
        for p in range(0 if kind == TYPE_I else 1, 3):
            for q in range(0, 2):
                forms.append(NormalForm(kind, p, q))
    rng = random.Random(12)
    runs = 0
    while runs < 100:
        for form in forms:
            K = make_canonical(form)
            from surfclass.rewrite import scramble

            K = scramble(K, runs, rng.randint(0, 8))
            sc = classify(K)
            _, simp = refine_to_triangulation(K)
            h0, h1, h2 = homology(simp)
            assert h1 == h1_from_normal_form(sc.form), form
            nv, ne, nt = simp.counts()
            assert h0.free_rank - h1.free_rank + h2.free_rank == nv - ne + nt, form
            runs += 1
            if runs >= 100:
                break
    assert runs >= 100


def test_criterion_6_boundary_and_snf_oracles():
    # d1 . d2 = 0 on generated complexes
    rng = random.Random(31)
    labels = "abcdefgh"
    for _ in range(60):
        tris = set()
        while len(tris) < rng.randint(1, 8):
            tris.add(tuple(rng.sample(labels, 3)))
        data = boundary_matrices(build_simplicial(tris))
        assert is_zero(data.d1.mul(data.d2))
    # Smith normal form vs gcd-of-minors brute force, 1000 matrices
    rng = random.Random(77)
    for _ in range(1000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        )
        assert smith_normal_form(m) == minor_gcd_invariants(m)


def test_criterion_7_winding_numbers():
    n = 64
    ring = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    for m in (-3, -2, -1, 1, 2, 3):
        pts = ring * abs(m)
        if m < 0:
            pts = list(reversed(pts))
        curve = ClosedCurve(tuple(pts))
        assert winding_number(curve, (0.0, 0.0)) == m
    square = ClosedCurve(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    for z0 in ((5.0, 5.0), (-3.0, 0.5), (0.5, -2.0)):
        assert winding_number(square, z0) == 0


def test_criterion_8_ifs_convergence_and_svg_determinism():
    gasket = preset("sierpinski-gasket")
    corners = [(-0.5, 0.0), (0.5, 0.0), (0.0, SQRT3 / 2.0)]
    deltas = certify_convergence(gasket, corners, 11)
    for i in range(1, 11):
        assert deltas[i] <= 0.5 * deltas[i - 1] + 1e-9
        assert deltas[i] <= 0.5**i * deltas[0] + 1e-9
    # primitive counts: 3^k times the seed count, exactly
    seed = preset_seed("sierpinski-gasket")
    for k in (0, 1, 2, 3, 4):
        scene = ifs_iterate(gasket, seed, k)
        assert len(scene.primitives) == 3**k * len(seed.primitives)
    # byte-identical SVG across repeated renders
    scene = ifs_iterate(gasket, seed, 5)
    assert render_svg(scene) == render_svg(
        ifs_iterate(gasket, preset_seed("sierpinski-gasket"), 5)
    )


def test_criterion_9_hausdorff_metric_axioms():
    rng = random.Random(2718)
    for _ in range(1000):
        pts = lambda: [
            (rng.uniform(-4, 4), rng.uniform(-4, 4))
            for _ in range(rng.randint(1, 6))
        ]
        A, B, C = pts(), pts(), pts()
        dab = hausdorff_distance(A, B)
        assert dab == hausdorff_distance(B, A)
        assert hausdorff_distance(A, A) == 0.0
        if dab == 0.0:
            assert sorted(set(A)) == sorted(set(B))
        dac = hausdorff_distance(A, C)
        dcb = hausdorff_distance(C, B)
        assert dab <= dac + dcb + 1e-12 * max(1.0, abs(dab))
