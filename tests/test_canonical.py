"""Canonical vertex order, the rewriter's vertex readings, and the
counts-first invariant check.

The quadratic reference tries every rotation of every traversal
direction; the library orders the runs by the least member of each,
whose members are distinct, and the rewriter reads each run as the walk
found it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from surfclass.cellcomplex import BORDER, INNER, build
from surfclass.errors import InternalInvariantViolation
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    NormalForm,
    _Rewriter,
    canonical_word,
    make_canonical,
    scramble,
)
from surfclass.simplicial import refine_to_triangulation, to_cell_complex

from simputil import contours_by_full_keys, least_reading, vertices_by_full_keys
from wordutil import word_key as key


FORMS = [NormalForm(TYPE_I, p, q) for p in range(5) for q in range(4)]
FORMS += [NormalForm(TYPE_II, p, q) for p in range(1, 5) for q in range(4)]


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.kind}-{f.p}-{f.q}")
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10**6), moves=st.integers(0, 20))
def test_report_counts_match_canonical_views(form, seed, moves):
    K = scramble(make_canonical(form), seed, moves)
    r = K.invariant_report()
    n0 = len(vertices_by_full_keys(K))
    assert r.n0 == n0 == len(K._vertex_order[0])
    assert r.num_contours == len(contours_by_full_keys(K))
    assert r.euler == n0 - len(K.edges) + len(K.faces)
    assert r.key() == (form.orientable(), form.q, form.euler())


def assert_least_representatives(K):
    order, _ = K._vertex_order
    for _, r in order:
        assert len(set(r)) == len(r)
    vs = vertices_by_full_keys(K)
    assert [(kind, least_reading(kind, r)) for kind, r in order] == [
        (v.kind, v.members) for v in vs
    ]
    rw = _Rewriter(K)
    for kind in (BORDER, INNER):
        got = [least_reading(kind, r) for r in rw.vertices(kind)]
        assert got == [v.members for v in vs if v.kind == kind]
    cs = contours_by_full_keys(K)
    for c in cs:
        assert len({s.name for s in c}) == len(c)
    assert [key(c) for c in cs] == sorted(key(c) for c in cs)
    border = [e for e, occ in K.edge_occurrences.items() if len(occ) == 1]
    assert sorted(s.name for c in cs for s in c) == sorted(border)


def refinement_and_polygon(K):
    refined, simp = refine_to_triangulation(K)
    return refined, to_cell_complex(simp)


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from(FORMS),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 20),
)
def test_vertices_and_contours_are_least_representatives(form, seed, moves):
    K = scramble(make_canonical(form), seed, moves)
    for L in (K, *refinement_and_polygon(K)):
        assert_least_representatives(L)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.kind}-{f.p}-{f.q}")
def test_refinements_and_polygons_are_least_representatives(form):
    for L in refinement_and_polygon(scramble(make_canonical(form), 0, 15)):
        assert_least_representatives(L)


def test_report_is_computed_once_per_complex():
    K = make_canonical(NormalForm(TYPE_I, 2, 1))
    assert K.invariant_report() is K.invariant_report()


def test_edges_sorted_and_unique():
    K = build({"A": "b a c b' a", "B": "c' d"})
    assert K.edges == ("a", "b", "c", "d")


@pytest.mark.parametrize(
    "word",
    [
        "a b a' b",     # orientability changes
        "a b a' b' c",  # a new border edge: one more contour
        "a a' b b'",    # same letters, more vertices: Euler changes
        "a a b b",      # a torus word made nonorientable
    ],
)
def test_mutate_rejects_a_change_of_invariants(word):
    rw = _Rewriter(build({"A": "a b a' b'"}))
    with pytest.raises(InternalInvariantViolation):
        rw.mutate({"A": build({"A": word}).faces[0][1]}, "composite", "test", ())


def test_finish_rejects_a_form_the_invariants_do_not_predict():
    # the invariants the rewriter started from predict a torus; its last
    # word, put there without a move, is the genus-2 canonical word
    rw = _Rewriter(make_canonical(NormalForm(TYPE_I, 1, 0)))
    rw.faces = dict(make_canonical(NormalForm(TYPE_I, 2, 0)).faces)
    with pytest.raises(InternalInvariantViolation, match="final word is not canonical"):
        rw.finish()


def test_finish_relabels_a_word_that_is_not_exactly_canonical():
    # a torus, but not spelled a1 b1 a1' b1', on a face not named A
    res = _Rewriter(build({"F": "a b a' b'"})).finish()
    assert [m.format() for m in res.trace] == [
        "composite:canonical_relabel F | F:a b a' b' => A:a1 b1 a1' b1'"
    ]
    assert res.complex.faces == (("A", canonical_word(NormalForm(TYPE_I, 1, 0))),)
    assert _Rewriter(make_canonical(NormalForm(TYPE_I, 1, 0))).finish().trace == ()
