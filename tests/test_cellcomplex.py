import random
from collections import Counter

import pytest

from surfclass.cellcomplex import BORDER, INNER, NULL, build, count_invariants
from surfclass.edgeword import EdgeSym, parse_word, sym
from surfclass.errors import (
    BadNameError,
    DisconnectedError,
    EdgeMultiplicityError,
    EmptyFaceSetError,
)
from surfclass.rewrite import NormalForm, make_canonical, scramble

from simputil import contours_by_full_keys

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


def multiplicity_oracle(faces):
    """(edge, count) of the first edge, in first-occurrence order, that
    occurs more than twice, or None."""
    counts = Counter(s.name for w in faces.values() for s in parse_word(w))
    return next(((e, n) for e, n in counts.items() if n > 2), None)


MULTIPLICITY_CASES = [
    {"A": "a b a' b' a"},
    # several offenders: the first to occur is reported, not the most frequent
    {"A": "b a b a b a a"},
    {"A": "c a b c a b c a b b"},
    # an edge in four slots
    {"A": "a b a' b' a a'"},
    # offenders across faces
    {"A": "a b", "B": "b' a'", "C": "a"},
    {"A": "x y", "B": "y' x' z", "C": "z z' z x"},
    {"A": "a b c", "B": "c' b'", "C": "b a' a a"},
]


@pytest.mark.parametrize("faces", MULTIPLICITY_CASES, ids=str)
def test_build_reports_the_first_edge_over_two_slots(faces):
    want = multiplicity_oracle(faces)
    assert want is not None
    with pytest.raises(EdgeMultiplicityError) as e:
        build(faces)
    assert (e.value.edge, e.value.count) == want
    assert str(e.value) == f"edge {want[0]!r} occurs {want[1]} times; must be 1 or 2"
    with pytest.raises(EdgeMultiplicityError):
        count_invariants([parse_word(w) for w in faces.values()])


def test_multiplicity_check_takes_its_place_between_names_and_connectivity():
    # a bad name is reported before an edge in three slots ...
    with pytest.raises(BadNameError):
        build({"A": "a a a", "B!": "b b"})
    with pytest.raises(BadNameError):
        build({"A": (sym("a"),) * 3 + (EdgeSym("9x", 1),) * 2})
    # ... and an edge in three slots before a disconnected system
    with pytest.raises(EdgeMultiplicityError) as e:
        build({"A": "a b", "B": "c c c"})
    assert (e.value.edge, e.value.count) == ("c", 3)
    with pytest.raises(DisconnectedError):
        build({"A": "a b", "B": "c c"})


def test_build_rejects_empty_and_disconnected():
    with pytest.raises(EmptyFaceSetError):
        build({})
    with pytest.raises(DisconnectedError):
        build({"A": "a a", "B": "b b"})


def test_disconnected_error_names_each_component():
    # message and components as the union-find check gave them
    with pytest.raises(DisconnectedError) as e:
        build({"A": "a a", "B": "b b"})
    assert str(e.value) == "complex is not connected: {A, a} / {B, b}"
    assert e.value.components == (("A", "a"), ("B", "b"))
    with pytest.raises(DisconnectedError) as e:
        build({"B": "x y", "A": "q", "C": "y' x'", "D": ""})
    assert str(e.value) == "complex is not connected: {B, C, x, y} / {A, q} / {D}"
    assert e.value.components == (("B", "C", "x", "y"), ("A", "q"), ("D",))


def test_build_reports_the_first_bad_name_in_walk_order():
    # each edge name is checked once, at its first occurrence; the first
    # bad face or edge name met in face order, then word order, is reported
    a, x, y = EdgeSym("a", 1), EdgeSym("9x", 1), EdgeSym("8y", 1)
    cases = [
        ({"A": (a, x), "B!": (x.inv(), a.inv())}, "bad edge name '9x'"),
        ({"A": (a, y, x, x.inv(), y.inv(), a.inv())}, "bad edge name '8y'"),
        ({"A": (a,), "B!": (a.inv(), x), "C": (x.inv(),)}, "bad face name 'B!'"),
        ({"A": (a, a.inv()), "B": (x, y), "C!": (y.inv(), x.inv())}, "bad edge name '9x'"),
    ]
    for faces, message in cases:
        with pytest.raises(BadNameError) as e:
            build(faces)
        assert str(e.value) == message


def successors(K, s):
    """Symbols following s in some face word or its inverse word, read
    off the vertex s leads to: t follows s where t' sits next to s."""
    order, at = K._vertex_order
    kind, m = order[at[s]]
    i = m.index(s)
    if kind == INNER:
        nbrs = (m[i - 1], m[(i + 1) % len(m)])
    else:
        nbrs = m[max(i - 1, 0):i] + m[i + 1:i + 2]
    return {t.inv() for t in nbrs}


def test_successors_torus():
    # enumerate both the stored word and its inverse word by hand:
    # a is followed by b in "a b a' b'" and by b' in "b a b' a'"
    assert successors(build(TORUS), sym("a")) == {sym("b"), sym("b'")}


def test_successors_cellfig_and_cancel_pair():
    assert successors(build(CELLFIG), sym("a")) == {sym("b"), sym("d")}
    assert successors(build({"A": "a a'"}), sym("a")) == {sym("a'")}


def test_vertices_cellfig_match_figure():
    order = build(CELLFIG)._vertex_order[0]
    inner = [tuple(r) for kind, r in order if kind == INNER]
    border = [tuple(r) for kind, r in order if kind == BORDER]
    assert len(inner) == 1 and len(border) == 3
    assert members_cycle_eq(inner[0], parse_word("b' a d'"))
    wants = [parse_word("e d f"), parse_word("c' b e'"), parse_word("c a' f'")]
    for want in wants:
        assert any(members_cycle_eq(r, want) for r in border)


def test_vertices_torus_single_inner():
    order = build(TORUS)._vertex_order[0]
    assert len(order) == 1 and order[0][0] == INNER
    assert set(order[0][1]) == set(parse_word("a b a' b'"))


def test_vertices_null():
    assert build({"A": ""})._vertex_order == (((NULL, ()),), {})


def test_vertex_partition_covers_all_symbols():
    for faces in (TORUS, CELLFIG, {"A": "a b a c"}, {"A": "a a'"}):
        K = build(faces)
        total = sum(len(r) for _, r in K._vertex_order[0])
        assert total == 2 * len(K.edges)


def test_euler_examples():
    assert build(TORUS).invariant_report().euler == 0
    assert build({"A": ""}).invariant_report().euler == 2
    assert build(CELLFIG).invariant_report().euler == 1


def test_contours_examples():
    K = build(CELLFIG)
    cs = contours_by_full_keys(K)
    assert len(cs) == 1
    assert members_cycle_eq(cs[0], parse_word("c f e'")) or members_cycle_eq(
        cs[0], tuple(s.inv() for s in reversed(parse_word("c f e'")))
    )
    assert contours_by_full_keys(build(TORUS)) == ()
    assert len(contours_by_full_keys(build({"A": "a b a c"}))) == 1


def test_contours_cover_border_edges_once():
    for faces in (CELLFIG, {"A": "a b a c"}, {"A": "a"}, {"A": "a b c"}):
        K = build(faces)
        seen = []
        for c in contours_by_full_keys(K):
            seen.extend(s.name for s in c)
        assert sorted(seen) == sorted(e for e, occ in K.edge_occurrences.items() if len(occ) == 1)


def test_orientable_examples():
    assert build(TORUS).invariant_report().orientable
    assert not build({"A": "a a"}).invariant_report().orientable
    assert build({"A": "a b c"}).invariant_report().orientable


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
        assert K.invariant_report().orientable == brute_force_orientable(K)


def test_orientable_matches_brute_force_on_scrambles():
    rng = random.Random(7)
    for seed in range(15):
        form = NormalForm("I" if seed % 2 else "II", max(1, seed % 3), seed % 2)
        K = scramble(make_canonical(form), seed, rng.randint(0, 10))
        assert K.invariant_report().orientable == brute_force_orientable(K)


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
        assert build(faces).invariant_report().euler <= 2
