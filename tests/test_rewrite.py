import random

import pytest

from surfclass.cellcomplex import build
from surfclass.edgeword import format_word, parse_word, sym
from surfclass.errors import (
    BadPositionError,
    EdgeNotFoundError,
    FaceNotFoundError,
    InternalInvariantViolation,
    MalformedTokenError,
    NameCollisionError,
    NotContractibleError,
    NotMergeableError,
)
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    Move,
    NormalForm,
    _Rewriter,
    apply_p1,
    apply_p1_inverse,
    apply_p2,
    apply_p2_inverse,
    canonical_word,
    is_canonical,
    make_canonical,
    normalize,
    scramble,
)
from wordutil import _read_canonical, cyclic_equal, one_face_words

TORUS = {"A": "a b a' b'"}


def word_of(K, name):
    return K.face_map[name]


def test_p1_torus():
    K = apply_p1(build(TORUS), "a", "x", "y")
    assert word_of(K, "A") == parse_word("x y b y' x' b'")
    assert K.invariant_report().euler == 0


def test_p1_crosscap_and_single_edge():
    K = apply_p1(build({"A": "a a"}), "a", "b", "c")
    assert word_of(K, "A") == parse_word("b c b c")
    K2 = apply_p1(build({"A": "a"}), "a", "b", "c")
    assert word_of(K2, "A") == parse_word("b c")
    assert K2.invariant_report().num_contours == 1


def test_p1_name_collision():
    with pytest.raises(NameCollisionError):
        apply_p1(build(TORUS), "a", "b", "x")
    with pytest.raises(NameCollisionError):
        apply_p1(build(TORUS), "a", "x", "x")


def test_p1_inverse_undoes_p1():
    for faces in (TORUS, {"A": "a b a c"}, {"A": "a b c", "B": "b e d'", "C": "a d f'"}):
        K = build(faces)
        split = apply_p1(K, "a", "x", "y")
        back = apply_p1_inverse(split, "x", "y", "z")
        # isomorphic up to renaming a -> z
        want = {
            n: tuple(s if s.name != "a" else s._replace(name="z") for s in w)
            for n, w in K.faces
        }
        assert dict(back.faces) == want


def test_p1_inverse_moebius_step():
    K = build({"A": "b d d c'"})
    out = apply_p1_inverse(K, "c'", "b", "k")
    assert cyclic_equal(word_of(out, "A"), parse_word("d d k"))


def test_p1_inverse_rejects_non_vertex():
    # (b, c') is not a vertex of the torus after splitting elsewhere
    K = build({"A": "b d d c'"})
    with pytest.raises(NotContractibleError):
        apply_p1_inverse(K, "b", "d", "z")


def test_p2_split_and_undo():
    K = build({"A": "a b a c"})
    split = apply_p2(K, "A", 2, "d")
    assert word_of(split, "A") == parse_word("a b d")
    assert word_of(split, "A_2") == parse_word("d' a c")
    merged = apply_p2_inverse(split, "A", "A_2", "d")
    assert cyclic_equal(word_of(merged, "A"), parse_word("a b a c"))


def test_p2_examples():
    K = build({"A": "a b"})
    split = apply_p2(K, "A", 1, "d")
    assert word_of(split, "A") == parse_word("a d")
    assert word_of(split, "A_2") == parse_word("d' b")
    with pytest.raises(BadPositionError):
        apply_p2(K, "A", 2, "e")
    with pytest.raises(BadPositionError):
        apply_p2(K, "A", 0, "e")


def test_p2_face_order():
    # the public cut puts its new piece right after the cut face, and the
    # inverse keeps the first face's place
    K = build({"A": "a b c", "B": "c' d", "A_2": "d' e"})
    split = apply_p2(K, "A", 1, "x")
    assert [n for n, _ in split.faces] == ["A", "A_3", "B", "A_2"]
    merged = apply_p2_inverse(split, "A_3", "A", "x")
    assert [n for n, _ in merged.faces] == ["A_3", "B", "A_2"]


def test_p2_chi_invariant_random():
    rng = random.Random(5)
    for seed in range(50):
        form = NormalForm(TYPE_I if seed % 2 else TYPE_II, 1 + seed % 2, seed % 3)
        K = scramble(make_canonical(form), seed, rng.randint(0, 8))
        chi = K.invariant_report().euler
        name, w = K.faces[0]
        if len(w) >= 2:
            K2 = apply_p2(K, name, 1 + rng.randrange(len(w) - 1), "zz")
            assert K2.invariant_report().euler == chi


# three faces in a row: a and d lie on one face each, b joins A and B, c joins B and C
STRIP = {"A": "a b", "B": "b' c", "C": "c' d"}


@pytest.mark.parametrize("faces, move, args, error, message", [
    (TORUS, apply_p1, ("z", "x", "y"), EdgeNotFoundError, "no edge 'z'"),
    (TORUS, apply_p1_inverse, ("z", "a", "x"), EdgeNotFoundError, "must exist"),
    (TORUS, apply_p1_inverse, ("a", "a'", "x"), NotContractibleError, "with itself"),
    (TORUS, apply_p1_inverse, ("a", "b", "b"), NameCollisionError, "'b' already in use"),
    (TORUS, apply_p1_inverse, ("a''", "b", "x"), MalformedTokenError, "bad edge token \"a''\""),
    (TORUS, apply_p2, ("Z", 1, "d"), FaceNotFoundError, "no face 'Z'"),
    (TORUS, apply_p2, ("A", 1, "a"), NameCollisionError, "'a' already in use"),
    (STRIP, apply_p2_inverse, ("A", "Z", "b"), FaceNotFoundError, "must exist"),
    (STRIP, apply_p2_inverse, ("A", "B", "a"), NotMergeableError, "not shared by two faces"),
    (STRIP, apply_p2_inverse, ("A", "B", "c"), NotMergeableError, "does not join 'A' and 'B'"),
], ids=["p1-edge", "p1inv-edge", "p1inv-self", "p1inv-fresh", "p1inv-token", "p2-face",
        "p2-fresh", "p2inv-face", "p2inv-one-face", "p2inv-other-faces"])
def test_a_move_with_bad_arguments_raises_its_code_and_leaves_K(faces, move, args, error, message):
    K = build(faces)
    before = K.faces
    with pytest.raises(error, match=message):
        move(K, *args)
    assert K.faces == before == build(faces).faces


@pytest.mark.parametrize("args, message", [
    (("III", 0, 0), "bad kind 'III'"),
    ((TYPE_I, -1, 0), "p and q must be nonnegative"),
    ((TYPE_I, 0, -1), "p and q must be nonnegative"),
    ((TYPE_II, 0, 2), "type II requires p >= 1"),
])
def test_normal_form_rejects_bad_fields(args, message):
    with pytest.raises(ValueError, match=message):
        NormalForm(*args)


def test_p2_inverse_rejects_self_merge():
    K = build({"A": "a b a' c"})
    with pytest.raises(NotMergeableError):
        apply_p2_inverse(K, "A", "A", "a")


def test_normalize_canonical_words():
    for word, kind, p, q in [
        ("a b a' b'", TYPE_I, 1, 0),
        ("a b a b'", TYPE_II, 2, 0),
        ("a b a c", TYPE_II, 1, 1),
        ("a a b c b' c'", TYPE_II, 3, 0),
    ]:
        res = normalize(build({"A": word}))
        assert res.normal == NormalForm(kind, p, q)
        assert res.canonical_word == canonical_word(res.normal)


def test_normalize_mobius_word_shape():
    res = normalize(build({"A": "a b a c"}))
    assert format_word(res.canonical_word) == "a1 a1 c1 h1 c1'"


def test_normalize_degenerate_sphere():
    assert normalize(build({"A": ""})).normal == NormalForm(TYPE_I, 0, 0)
    assert normalize(build({"A": "a a'"})).normal == NormalForm(TYPE_I, 0, 0)
    assert normalize(build({"A": "a b", "B": "b' a'"})).normal == NormalForm(TYPE_I, 0, 0)


def test_normalize_preserves_invariants():
    for word in ("a b a' b'", "a b a c", "a", "a b c"):
        K = build({"A": word})
        res = normalize(K)
        assert res.complex.invariant_report().key() == K.invariant_report().key()


def replay_trace(K, trace):
    """Re-apply a trace move by move, each through the checked move
    engine, after comparing the faces it reads; determinism and
    consistency oracle."""
    rw = _Rewriter(K)
    for m in trace:
        for name, w in m.before:
            if rw.faces.get(name) != w:
                raise InternalInvariantViolation(f"trace does not match state at: {m.format()}")
        changes = {name: None for name, _ in m.before}
        changes.update(m.after)
        rw.mutate(changes, m.kind, m.rule, m.args)
    return build(rw.faces, internal=True)


def test_normalize_deterministic_and_replayable():
    K = scramble(make_canonical(NormalForm(TYPE_II, 2, 1)), 42, 12)
    r1, r2 = normalize(K), normalize(K)
    assert r1.canonical_word == r2.canonical_word
    assert [m.format() for m in r1.trace] == [m.format() for m in r2.trace]
    replayed = replay_trace(K, r1.trace)
    assert dict(replayed.faces) == dict(r1.complex.faces)


def test_is_canonical_examples():
    assert is_canonical(build(TORUS)) == NormalForm(TYPE_I, 1, 0)
    assert is_canonical(build({"A": "a a"})) == NormalForm(TYPE_II, 1, 0)
    assert is_canonical(build({"A": "a b a b'"})) is None
    assert is_canonical(build({"A": "a b", "B": "b' a'"})) is None  # two faces
    assert is_canonical(build({"A": ""})) == NormalForm(TYPE_I, 0, 0)
    assert is_canonical(build({"A": "c h c'"})) == NormalForm(TYPE_I, 0, 1)
    assert is_canonical(make_canonical(NormalForm(TYPE_II, 2, 3))) == NormalForm(
        TYPE_II, 2, 3
    )
    # rotated and renamed variants still parse
    assert is_canonical(build({"A": "b' x b x'"})) == NormalForm(TYPE_I, 1, 0)


def test_is_canonical_agrees_with_the_block_reader_on_every_small_word():
    words = one_face_words(7, 4)
    assert len(words) == 18283
    for w in words:
        K = build({"A": w})
        border = {e for e, occ in K.edge_occurrences.items() if len(occ) == 1}
        got = _read_canonical(w, border)
        assert is_canonical(K) == (got and got[1]), format_word(w)


def test_finish_rejects_a_word_that_does_not_read_canonically():
    rw = _Rewriter(build({"A": "a b a b'"}))
    with pytest.raises(InternalInvariantViolation, match="final word is not canonical: a b a b'"):
        rw.finish()


def test_scramble_identity_and_determinism():
    K = make_canonical(NormalForm(TYPE_I, 1, 0))
    assert scramble(K, 3, 0) is K
    a = scramble(K, 9, 20)
    b = scramble(K, 9, 20)
    assert dict(a.faces) == dict(b.faces)


def test_scramble_preserves_invariants():
    rng = random.Random(1)
    for seed in range(20):
        form = NormalForm(TYPE_I if seed % 2 else TYPE_II, 1 + seed % 3, seed % 3)
        K0 = make_canonical(form)
        K = scramble(K0, seed, rng.randint(0, 30))
        assert K.invariant_report().key() == K0.invariant_report().key()


def test_scramble_round_trip():
    for seed, (kind, p, q) in enumerate(
        [(TYPE_I, 2, 1), (TYPE_II, 1, 2), (TYPE_I, 0, 2), (TYPE_II, 3, 0)]
    ):
        form = NormalForm(kind, p, q)
        K = scramble(make_canonical(form), 100 + seed, 25)
        assert normalize(K).normal == form


def test_parity_invariant():
    # orientable complexes have even 2 - chi - q
    for word in ("a b a' b'", "a", "a b c", ""):
        K = build({"A": word})
        r = K.invariant_report()
        if r.orientable:
            assert (2 - r.euler - r.num_contours) % 2 == 0


# (word, start, cuts, template, rule, word after); a str in a template is
# the letter it names
SPLICES = [
    # one slice, start 0: nothing moves
    ("a b a' b'", 0, (), (0,), "rotate", "a b a' b'"),
    # one slice from position 1
    ("a b a' b'", 1, (), (0,), "rotate", "b a' b' a"),
    # one inverted slice
    ("a b a' b'", 0, (), (~0,), "reorient", "b a b' a'"),
    # letters, an inverted slice and a slice: e x e y -> g g y' x
    ("a x a y", 0, (1, 2, 3), ("g", "g", ~3, 1), "make_crosscap", "g g y' x"),
    # four empty slices: a e a' e' -> c d c' d'
    ("a e a' e'", 0, (1, 1, 2, 2, 3, 3, 4), ("c", "d", "c'", "d'", 7, 5, 3, 1),
     "make_handle", "c d c' d'"),
    # a start that wraps: cancel the a a' across the end of the word
    ("a' b c a", 3, (2,), (1,), "drop_pair", "b c"),
    # an empty face
    ("", 0, (), (), "rotate", ""),
]


@pytest.mark.parametrize("word, start, cuts, template, rule, after", SPLICES)
def test_splice_is_one_recorded_move(word, start, cuts, template, rule, after):
    rw = _Rewriter(build({"A": word}))
    template = tuple(sym(t) if isinstance(t, str) else t for t in template)
    rw.splice("A", start, cuts, template, rule, ("A",))
    before, got = (("A", parse_word(word)),), (("A", parse_word(after)),)
    assert rw.trace == [Move("composite", rule, ("A",), before, got)]
    assert rw.faces == {"A": parse_word(after)}
