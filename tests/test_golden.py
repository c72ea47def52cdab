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
replaced "keep the first inner vertex, eliminate the second".

The ``homology`` and ``validate`` files pin the refine -> homology path
and the triangulation checks: the groups, counts and the violations
list with its order.  A run that fails prints its stdout and then its
one ``E_<CODE>:`` line; the file holds both, in that order.
"""

from pathlib import Path

import pytest

from surfclass.cli import run
from surfclass.fileio import format_simplicial
from surfclass.rewrite import NormalForm, make_canonical, normalize, scramble
from surfclass.simplicial import refine_to_triangulation

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


def test_homology_json_of_tri_sample_matches_golden(capsys):
    path = str(ROOT / "samples" / "tetrahedron.tri")
    assert run(["homology", path, "--json"]) == 0
    assert capsys.readouterr().out == expected("tetrahedron.homology_json")


@pytest.mark.parametrize("sample", ("bordered", "mobius"))
def test_validate_json_of_refined_sample_matches_golden(sample, tmp_path, capsys):
    tri = str(tmp_path / f"{sample}.tri")
    assert run(["refine", str(ROOT / "samples" / f"{sample}.cc"), "--out", tri]) == 0
    assert run_out(["validate", tri, "--json"], capsys) == expected(f"{sample}.refined_validate_json")


@pytest.mark.parametrize("name, triangles", [("pinched", PINCHED_TRI), ("fin", FIN_TRI)])
def test_validate_json_of_non_surface_matches_golden(name, triangles, tmp_path, capsys):
    tri = tmp_path / f"{name}.tri"
    tri.write_text("".join(f"triangle {a} {b} {c}\n" for a, b, c in triangles), encoding="utf-8")
    assert run_out(["validate", str(tri), "--json"], capsys) == expected(f"{name}.validate_json")
