"""Canonical vertex and contour order, and the counts-first invariant check.

The quadratic references below try every rotation of every traversal
direction; the library computes the same least representatives with
Booth's linear least-rotation algorithm.
"""

import pytest
from hypothesis import given, settings, strategies as st

from surfclass.cellcomplex import BORDER, INNER, build
from surfclass.edgeword import EdgeSym, cyclic_canonical, inverse_word, sym_key
from surfclass.errors import InternalInvariantViolation
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    NormalForm,
    _rebuild,
    _Rewriter,
    make_canonical,
    scramble,
)


def key(w):
    return [sym_key(s) for s in w]


def brute_least_rotation(*seqs):
    """Least rotation over every given traversal, by trying them all."""
    best = None
    for seq in seqs:
        seq = tuple(seq)
        for k in range(max(len(seq), 1)):
            cand = seq[k:] + seq[:k]
            if best is None or key(cand) < key(best):
                best = cand
    return best


names = st.sampled_from(["a", "b", "c", "x1"])
syms = st.builds(EdgeSym, names, st.sampled_from([1, -1]))
words = st.lists(syms, max_size=12).map(tuple)


@given(words)
def test_booth_matches_brute_force(w):
    assert cyclic_canonical(w) == brute_least_rotation(w)


@given(words)
def test_booth_both_directions_matches_brute_force(w):
    rev, alt = w[::-1], inverse_word(w)
    least = lambda u, v: min(u, v, key=key)
    assert least(cyclic_canonical(w), cyclic_canonical(rev)) == brute_least_rotation(w, rev)
    assert least(cyclic_canonical(w), cyclic_canonical(alt)) == brute_least_rotation(w, alt)


FORMS = [NormalForm(TYPE_I, p, q) for p in range(5) for q in range(4)]
FORMS += [NormalForm(TYPE_II, p, q) for p in range(1, 5) for q in range(4)]


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.kind}-{f.p}-{f.q}")
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10**6), moves=st.integers(0, 20))
def test_report_counts_match_canonical_views(form, seed, moves):
    K = scramble(make_canonical(form), seed, moves)
    r = K.invariant_report()
    assert r.n0 == len(K.vertices())
    assert r.num_contours == len(K.contours())
    assert r.euler == len(K.vertices()) - len(K.edges) + len(K.faces)
    assert r.key() == (form.orientable(), form.q, form.euler())


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from(FORMS),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 20),
)
def test_vertices_and_contours_are_least_representatives(form, seed, moves):
    K = scramble(make_canonical(form), seed, moves)
    vs = K.vertices()
    for v in vs:
        m = v.members
        if v.kind == INNER:
            assert m == brute_least_rotation(m, m[::-1])
        elif v.kind == BORDER:
            assert m == min(m, m[::-1], key=key)
    assert [key(v.members) for v in vs] == sorted(key(v.members) for v in vs)
    for c in K.contours():
        assert c.edges == brute_least_rotation(c.edges, inverse_word(c.edges))


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
    ],
)
def test_mutate_rejects_a_change_of_invariants(word):
    rw = _Rewriter(build({"A": "a b a' b'"}))
    with pytest.raises(InternalInvariantViolation):
        rw.mutate({"A": build({"A": word}).faces[0][1]}, "composite", "test", ())


def test_rebuild_rejects_a_change_of_invariants():
    K = build({"A": "a b a' b'"})
    with pytest.raises(InternalInvariantViolation):
        _rebuild(K, {"A": build({"A": "a a b b"}).faces[0][1]})
