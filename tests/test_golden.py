"""Byte-for-byte output of the CLI and of refinement on fixed inputs.

The vertex order of a cell complex picks the eliminated pairs in
``normalize``, and so the ``--trace`` text, and it names the ``v<i>``
vertices that refinement writes.  In the inner-vertex step the inner
vertex with the most members survives and the other one with the
fewest members is eliminated, ties going to the first in canonical
order.  These files pin that output and must not change unless an
output change is intended (and declared in CHANGES.md).  The three
``*.scramble_trace`` files with more than one inner vertex and the
``scramble_II_3_2`` trace were regenerated when that survivor rule
replaced "keep the first inner vertex, eliminate the second".  The
``word_*`` traces pin the composite word rules on one-face words, and
with them the ``spend`` calls of each ``normalize`` phase.  One sha256
pins the scrambles and ``normalize`` traces of 288 seeded scrambles of
the forms with p <= 4 and q <= 3.

The ``homology`` and ``validate`` files pin the refine -> homology path
and the triangulation checks: the groups, counts and the violations
list with its order.  Four small ``.cc`` inputs pin the ``homology``
counts of the refinement's corner cases: a null face, a one-gon, an
``x x'`` pair and two glued one-gons.  Four ``.tri`` inputs that are
not surfaces pin ``homology`` of an edge in three triangles, a pinch,
two components and a Möbius band with a fin, and the refined Möbius band
pins ``homology`` and ``classify`` of a bordered triangulation.  Two
``.tri`` inputs whose vertex names sort one way as strings and another
as numbers or by first appearance pin ``validate``, ``homology`` and
``classify`` of a closed surface and the order of a non-surface's
violations.  A run
that fails prints its stdout and then its one ``E_<CODE>:`` line; the
file holds both, in that order.

SVG renders are pinned by their sha256: every preset at two ``--iters``,
a custom IFS on a one-point seed (circles) and on a polyline seed, and
a polygon scene rendered through the library.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from surfclass.cli import run
from surfclass.fileio import format_simplicial
from surfclass.planegeom import SQRT3, Polygon, Scene, ifs_iterate, preset
from surfclass.rewrite import NormalForm, _Rewriter, make_canonical, normalize, scramble
from surfclass.simplicial import refine_to_triangulation
from surfclass.svg import render_svg

from simputil import MOBIUS_BAND

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = ("bordered", "klein", "mobius", "torus")
VERBS = {
    "normalize_trace": ["normalize", "--trace"],
    "classify_json": ["classify", "--json"],
    "refine": ["refine"],
    "scramble_trace": ["normalize", "--trace", "--seed", "7", "--moves", "40"],
}



# two tetrahedra pinched at a, a third pinched to the second at g, and
# a loose triangle hung on d: border edges and pinches at a, d and g
PINCHED_TRI = [
    ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
    ("a", "e", "f"), ("a", "e", "g"), ("a", "f", "g"), ("e", "f", "g"),
    ("g", "h", "i"), ("g", "h", "j"), ("g", "i", "j"), ("h", "i", "j"),
    ("d", "x", "y"),
]
# a tetrahedron with a third triangle on edge (a, b)
FIN_TRI = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"), ("a", "b", "x")]


def expected(name):
    return (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("sample", SAMPLES)
def test_cli_stdout_matches_golden(sample, verb, capsys):
    argv = VERBS[verb]
    path = str(ROOT / "samples" / f"{sample}.cc")
    assert run(argv[:1] + [path] + argv[1:]) == 0
    assert capsys.readouterr().out == expected(f"{sample}.{verb}")


def test_refine_of_scramble_matches_golden():
    K = scramble(make_canonical(NormalForm("I", 2, 1)), 5, 15)
    got = format_simplicial(refine_to_triangulation(K)[1])
    assert got == expected("scramble_I_2_1_seed5_moves15.refine")


def test_normalize_trace_of_scramble_matches_golden():
    K = scramble(make_canonical(NormalForm("II", 3, 2)), 3, 30)
    got = "".join(m.format() + "\n" for m in normalize(K).trace)
    assert got == expected("scramble_II_3_2_seed3_moves30.normalize_trace")


def test_normalize_traces_of_288_scrambles_match_their_digest():
    """Each form with p <= 4 and q <= 3, kind I then II, scrambled by 25
    moves with seeds 0-7: one sha256 over every scramble's ``describe``
    line and the lines of its ``normalize`` trace, in that order."""
    h = hashlib.sha256()
    forms = [("I", p) for p in range(5)] + [("II", p) for p in range(1, 5)]
    for kind, p in forms:
        for q in range(4):
            for seed in range(8):
                K = scramble(make_canonical(NormalForm(kind, p, q)), seed, 25)
                h.update((K.describe() + "\n").encode("utf-8"))
                for move in normalize(K).trace:
                    h.update((move.format() + "\n").encode("utf-8"))
    assert h.hexdigest() == "9ededab27d811969097bd6f6bac06eb811d78fb6eac2c5423a679bea552ca817"


# one-face words that reach the composite word rules, with the number of
# ``spend`` calls that each phase of ``normalize`` makes on them
PHASES = ("inner vertex reduction", "border vertex reduction", "cross-cap introduction",
          "handle introduction", "mixed conversion", "loop grouping")
WORD_RULES = {
    # the handle a b a' b' is formed already: handle_crosscap_to_crosscaps,
    # group_loops, canonical_relabel
    "handle_crosscap": ("x h x' a b a' b' y k y' c c z m z'", (1, 1, 1, 1, 2, 2)),
    # make_handle on pairs that interleave apart: a u e v a' x e' y
    "handle": ("a x h x' b a' y k y' b'", (1, 1, 1, 2, 1, 1)),
    # group_loops twice
    "loops": ("x h x' a a y k y' b b z m z' c c", (1, 1, 1, 1, 1, 3)),
    # make_crosscap on a separated pair: the slice between is inverted
    "crosscap": ("x h x' a y k y' a z m z'", (1, 1, 2, 1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(WORD_RULES))
def test_normalize_trace_of_word_rules_matches_golden(name, tmp_path, capsys, monkeypatch):
    word, spends = WORD_RULES[name]
    calls = []
    real = _Rewriter.spend

    def spend(self, phase):
        calls.append(phase)
        return real(self, phase)

    monkeypatch.setattr(_Rewriter, "spend", spend)
    path = tmp_path / f"{name}.cc"
    path.write_text(f"face F : {word}\n", encoding="utf-8")
    assert run(["normalize", str(path), "--trace"]) == 0
    assert capsys.readouterr().out == expected(f"word_{name}.normalize_trace")
    assert Counter(calls) == dict(zip(PHASES, spends))


def run_out(argv, capsys):
    """stdout of one CLI run, then its stderr (the E_ line, if it failed)."""
    run(argv)
    got = capsys.readouterr()
    return got.out + got.err


@pytest.mark.parametrize("sample", SAMPLES)
def test_homology_json_of_cc_sample_matches_golden(sample, capsys):
    path = str(ROOT / "samples" / f"{sample}.cc")
    assert run(["homology", path, "--json"]) == 0
    assert capsys.readouterr().out == expected(f"{sample}.homology_json")


# one input per special case of refinement: the null face is cut into
# two one-gon lunes, a one-gon face is split twice, an ``x x'`` pair is
# cancelled, and two one-gons glued along one edge make a sphere
SMALL_CC = {
    "null_face": "face A :\n",
    "one_gon": "face A : a\n",
    "cancelled": "face A : a b b' a'\n",
    "lune": "face A : a\nface B : a'\n",
}


@pytest.mark.parametrize("name", sorted(SMALL_CC))
def test_homology_json_of_small_cc_matches_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.cc"
    path.write_text(SMALL_CC[name], encoding="utf-8")
    assert run(["homology", str(path), "--json"]) == 0
    assert capsys.readouterr().out == expected(f"{name}.homology_json")


def test_homology_json_of_tri_sample_matches_golden(capsys):
    path = str(ROOT / "samples" / "tetrahedron.tri")
    assert run(["homology", path, "--json"]) == 0
    assert capsys.readouterr().out == expected("tetrahedron.homology_json")


@pytest.mark.parametrize("sample", ("bordered", "mobius"))
def test_validate_json_of_refined_sample_matches_golden(sample, tmp_path, capsys):
    tri = str(tmp_path / f"{sample}.tri")
    assert run(["refine", str(ROOT / "samples" / f"{sample}.cc"), "--out", tri]) == 0
    assert run_out(["validate", tri, "--json"], capsys) == expected(f"{sample}.refined_validate_json")


def write_tri(path, triangles):
    path.write_text("".join(f"triangle {a} {b} {c}\n" for a, b, c in triangles), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name, triangles", [("pinched", PINCHED_TRI), ("fin", FIN_TRI)])
def test_validate_json_of_non_surface_matches_golden(name, triangles, tmp_path, capsys):
    tri = write_tri(tmp_path / f"{name}.tri", triangles)
    assert run_out(["validate", tri, "--json"], capsys) == expected(f"{name}.validate_json")


# 2-complexes that are not surfaces, where the triangles' dual graph
# splits into several trees or stops at an edge in three triangles
NON_SURFACE_TRI = {
    "three_on_edge": [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "x")],
    "bowtie": [("a", "b", "c"), ("a", "d", "e")],
    "two_components": FIN_TRI[:4] + MOBIUS_BAND,
    "mobius_fin": MOBIUS_BAND + [("m0", "m1", "x")],
}


@pytest.mark.parametrize("name", sorted(NON_SURFACE_TRI))
def test_homology_json_of_non_surface_matches_golden(name, tmp_path, capsys):
    tri = write_tri(tmp_path / f"{name}.tri", NON_SURFACE_TRI[name])
    assert run_out(["homology", tri, "--json"], capsys) == expected(f"{name}.homology_json")


# vertex names whose string order (1 10 2 9 V3 é) is neither their numeric
# order nor their order of first appearance: the six-vertex projective
# plane, and a tetrahedron with a fin on (2, 10) and a triangle from the
# fin's tip back to V3
LABELLED_TRI = {
    "labelled_projective": [
        ("é", "V3", "10"), ("é", "10", "2"), ("é", "2", "1"), ("é", "1", "9"), ("é", "9", "V3"),
        ("V3", "10", "1"), ("10", "2", "9"), ("2", "1", "V3"), ("1", "9", "10"), ("9", "V3", "2"),
    ],
    "labelled_fin": [
        ("V3", "10", "2"), ("é", "2", "10"), ("V3", "1", "2"), ("10", "1", "V3"),
        ("1", "2", "10"), ("9", "V3", "é"),
    ],
}


@pytest.mark.parametrize("verb", ("validate", "homology", "classify"))
@pytest.mark.parametrize("name", sorted(LABELLED_TRI))
def test_json_of_labelled_tri_matches_golden(name, verb, tmp_path, capsys):
    tri = write_tri(tmp_path / f"{name}.tri", LABELLED_TRI[name])
    assert run_out([verb, tri, "--json"], capsys) == expected(f"{name}.{verb}_json")


@pytest.mark.parametrize("verb", ("classify", "homology"))
def test_json_of_refined_mobius_matches_golden(verb, tmp_path, capsys):
    tri = str(tmp_path / "mobius.tri")
    assert run(["refine", str(ROOT / "samples" / "mobius.cc"), "--out", tri]) == 0
    assert run_out([verb, tri, "--json"], capsys) == expected(f"mobius.refined_{verb}_json")


PRESET_RENDERS = {
    ("sierpinski-gasket", 3): "7d0a40c4eca85c761ac8bdf40c0b56611c2cbfe30545b06a4f44941de4f2366a",
    ("sierpinski-gasket", 6): "74f50eeb738237de7946dbefe828380a660ec3a735c1f4c18e105208b1011931",
    ("sierpinski-dragon", 2): "2c288957569a5828b682a4c04f0ae5ecb28b5b2bc4d6dfe503d4b8fea22c2910",
    ("sierpinski-dragon", 5): "f6489f0de5b28c23645c04fa1f8ec5eacf23a40db084fb68b70b85bab957a180",
    ("heighway", 5): "3efd3c827c06476eb64bd25d83759218c564d41160143e968dac7e59a12133bb",
    ("heighway", 10): "0f7b7f35e538e9c98700421f405a76d9f2624faa4ba97f3fbf4d1bbe2091a6c7",
    ("koch", 1): "272da04983958ef6e0a0345111726f3d5741aaca0e9ba53c254b7fa13240f8bd",
    ("koch", 4): "6505c9d1a2e035ecedf539a05b629e18d7a2fa61fdf93fcd0426f4fb29863653",
    ("hilbert", 2): "d617d71ae516529d5441273883d8434b3165df82a4973b9f1ddd7e45fc2788fa",
    ("hilbert", 4): "9a263511a5ca0e44737764e42c7df063020b9100ac5875946426e062daf80cf8",
    ("snowflake", 0): "85f1df03b5c8a9aada5efeec6cb0fb6648fe54895bb5f44673cd967c7087cb83",
    ("snowflake", 3): "63f8b2c38f309614ec680645b20be4e16a44f8a2ea7b7a5c955eac664bf6affc",
}
# two halvings and a quarter turn, so the maps do not commute
CUSTOM_IFS = "0.5 0 0 0.5 0 0\n0.5 0 0 0.5 0.5 0\n0 -0.5 0.5 0 0.75 0.25\n"
CUSTOM_RENDERS = {
    "0.1,0.2\n": "7e269eb4faf8706f664146039935a1c17ea8e7859dbdcb9bb188620b5ba83fb3",
    "0,0\n1,0\n1,1\n0.25,0.75\n": "57ad8ee77edfd8c8fc6d2ebc2d95b902e25193af5435b0d0859d594e83621273",
}


def sha256_of_render(argv, tmp_path):
    out = tmp_path / "render.svg"
    assert run(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, iters", sorted(PRESET_RENDERS))
def test_preset_render_matches_golden(name, iters, tmp_path, capsys):
    argv = ["fractal-render", "--preset", name, "--iters", str(iters)]
    assert sha256_of_render(argv, tmp_path) == PRESET_RENDERS[name, iters]


@pytest.mark.parametrize("seed", sorted(CUSTOM_RENDERS))
def test_custom_ifs_render_matches_golden(seed, tmp_path, capsys):
    ifs, pts = tmp_path / "maps.ifs", tmp_path / "seed.pts"
    ifs.write_text(CUSTOM_IFS, encoding="utf-8")
    pts.write_text(seed, encoding="utf-8")
    argv = ["fractal-render", "--ifs", str(ifs), "--seed-file", str(pts), "--iters", "4"]
    assert sha256_of_render(argv, tmp_path) == CUSTOM_RENDERS[seed]


def test_polygon_scene_render_matches_golden():
    tri = Scene((Polygon(((-0.5, 0.0), (0.5, 0.0), (0.0, SQRT3 / 2.0))),))
    text = render_svg(ifs_iterate(preset("sierpinski-gasket"), tri, 4))
    digest = "b598a9ec2749d9d4bf5d15b25081f06fb7ce646cb2e5f3b350a2e6c0b4c114a5"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
