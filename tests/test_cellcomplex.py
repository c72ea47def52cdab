import random

import pytest

from surfclass.cellcomplex import BORDER, INNER, NULL, build
from surfclass.edgeword import parse_word, sym
from surfclass.errors import (
    DisconnectedError,
    EdgeMultiplicityError,
    EmptyFaceSetError,
)
from surfclass.rewrite import NormalForm, make_canonical, scramble

TORUS = {"A": "a b a' b'"}
CELLFIG = {"A": "a b c", "B": "b e d'", "C": "a d f'"}


def brute_force_orientable(K):
    """Exhaustive check over all orientation choices (oracle)."""
    n = len(K.faces)
    if n > 16:
        raise ValueError("too many faces for brute force")
    inner = [occ for occ in K.edge_occurrences.values() if len(occ) == 2]
    for mask in range(1 << n):
        ok = True
        for (f1, _, s1), (f2, _, s2) in inner:
            sign1 = s1 * (-1 if mask >> f1 & 1 else 1)
            sign2 = s2 * (-1 if mask >> f2 & 1 else 1)
            if sign1 == sign2:
                ok = False
                break
        if ok:
            return True
    return False


def members_cycle_eq(got, want):
    """Equal as cyclic sequences up to rotation and direction."""
    if len(got) != len(want):
        return False
    for seq in (want, tuple(reversed(want))):
        for k in range(len(seq)):
            if got == seq[k:] + seq[:k]:
                return True
    return False


def test_build_examples():
    assert build(TORUS).edges == ("a", "b")
    assert len(build(CELLFIG).faces) == 3


def test_build_rejects_multiplicity():
    with pytest.raises(EdgeMultiplicityError) as e:
        build({"A": "a a a"})
    assert e.value.edge == "a" and e.value.count == 3


def test_build_rejects_empty_and_disconnected():
    with pytest.raises(EmptyFaceSetError):
        build({})
    with pytest.raises(DisconnectedError):
        build({"A": "a a", "B": "b b"})


def test_successors_torus():
    # enumerate both the stored word and its inverse word by hand:
    # a is followed by b in "a b a' b'" and by b' in "b a b' a'"
    succ = build(TORUS).successors()
    assert succ[sym("a")] == {sym("b"), sym("b'")}


def test_successors_cellfig_and_cancel_pair():
    succ = build(CELLFIG).successors()
    assert succ[sym("a")] == {sym("b"), sym("d")}
    assert build({"A": "a a'"}).successors()[sym("a")] == {sym("a'")}


def test_vertices_cellfig_match_figure():
    K = build(CELLFIG)
    inner = [v for v in K.vertices() if v.kind == INNER]
    border = [v for v in K.vertices() if v.kind == BORDER]
    assert len(inner) == 1 and len(border) == 3
    assert members_cycle_eq(inner[0].members, parse_word("b' a d'"))
    wants = [parse_word("e d f"), parse_word("c' b e'"), parse_word("c a' f'")]
    for want in wants:
        assert any(members_cycle_eq(v.members, want) for v in border)


def test_vertices_torus_single_inner():
    vs = build(TORUS).vertices()
    assert len(vs) == 1 and vs[0].kind == INNER
    assert set(vs[0].members) == set(parse_word("a b a' b'"))


def test_vertices_null():
    vs = build({"A": ""}).vertices()
    assert len(vs) == 1 and vs[0].kind == NULL and vs[0].members == ()


def test_vertex_partition_covers_all_symbols():
    for faces in (TORUS, CELLFIG, {"A": "a b a c"}, {"A": "a a'"}):
        K = build(faces)
        total = sum(len(v.members) for v in K.vertices())
        assert total == 2 * len(K.edges)


def test_euler_examples():
    assert build(TORUS).euler_characteristic() == 0
    assert build({"A": ""}).euler_characteristic() == 2
    assert build(CELLFIG).euler_characteristic() == 1


def test_contours_examples():
    K = build(CELLFIG)
    cs = K.contours()
    assert len(cs) == 1
    assert members_cycle_eq(cs[0].edges, parse_word("c f e'")) or members_cycle_eq(
        cs[0].edges, tuple(s.inv() for s in reversed(parse_word("c f e'")))
    )
    assert build(TORUS).contours() == ()
    assert len(build({"A": "a b a c"}).contours()) == 1


def test_contours_cover_border_edges_once():
    for faces in (CELLFIG, {"A": "a b a c"}, {"A": "a"}, {"A": "a b c"}):
        K = build(faces)
        seen = []
        for c in K.contours():
            seen.extend(s.name for s in c.edges)
        assert sorted(seen) == sorted(K.border_edges())


def test_orientable_examples():
    assert build(TORUS).is_orientable()
    assert not build({"A": "a a"}).is_orientable()
    assert build({"A": "a b c"}).is_orientable()


def test_orientable_matches_brute_force():
    cases = [
        TORUS,
        CELLFIG,
        {"A": "a a"},
        {"A": "a b a b'"},
        {"A": "a b c", "B": "c' d e", "C": "e' f a'"},
        {"A": "a b", "B": "a b"},
        {"A": "a b", "B": "a' b"},
    ]
    for faces in cases:
        K = build(faces)
        assert K.is_orientable() == brute_force_orientable(K)


def test_orientable_matches_brute_force_on_scrambles():
    rng = random.Random(7)
    for seed in range(15):
        form = NormalForm("I" if seed % 2 else "II", max(1, seed % 3), seed % 2)
        K = scramble(make_canonical(form), seed, rng.randint(0, 10))
        assert K.is_orientable() == brute_force_orientable(K)


def test_invariant_report_examples():
    r = build(TORUS).invariant_report()
    assert (r.orientable, r.num_contours, r.euler) == (True, 0, 0)
    r = build({"A": "a b a b'"}).invariant_report()
    assert (r.orientable, r.num_contours, r.euler) == (False, 0, 0)
    r = build({"A": "a a"}).invariant_report()
    assert (r.orientable, r.num_contours, r.euler) == (False, 0, 1)
    assert r.euler == r.n0 - r.n1 + r.n2


def test_euler_upper_bound():
    for faces in (TORUS, CELLFIG, {"A": ""}, {"A": "a a"}, {"A": "a b a c"}):
        assert build(faces).euler_characteristic() <= 2
