"""Byte-for-byte output of the CLI and of refinement on fixed inputs.

The vertex order of a cell complex picks the eliminated pairs in
``normalize``, and so the ``--trace`` text, and it names the ``v<i>``
vertices that refinement writes.  These files pin that output; they
were captured before the vertex partition moved to a linear
canonicalizer and must not change unless an output change is intended
(and declared in CHANGES.md).
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
