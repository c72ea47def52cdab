"""Guards on how much work ``normalize`` does, counted, not timed.

Every move runs the full per-move check, so ``normalize`` costs about
moves x size: the number of moves is the figure to keep down.  A
``.tri`` is glued into one polygon before it is normalized, and the
inner-vertex step eliminates the small vertices and keeps the big one.
The rewriter's budget is 600 + 80 * (letters + faces) ``spend`` calls;
the spend ratio measures how close a run comes to it.  A face is a
cyclic word read either way, so a move that leaves every face it
touches the same up to rotation, inversion and renaming of edges does
no work; only the closing ``canonical_relabel`` may do that.
"""

import random

import pytest

from surfclass.cellcomplex import build
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    NormalForm,
    _Rewriter,
    apply_p1,
    apply_p2,
    make_canonical,
    normalize,
    scramble,
)
from surfclass.simplicial import build_simplicial, to_cell_complex

from simputil import SMALL_FORMS, form_id, refined_triangles
from test_golden import WORD_RULES
from wordutil import least_spelling

SPEND_RATIO_MAX = 8


@pytest.fixture
def counted(monkeypatch):
    """normalize(K) -> (moves, spend calls per letter + face of K)."""
    calls = []
    real = _Rewriter.spend

    def spend(self, phase):
        calls.append(phase)
        return real(self, phase)

    monkeypatch.setattr(_Rewriter, "spend", spend)

    def run(K, form):
        calls.clear()
        res = normalize(K)
        assert res.normal == form
        size = sum(len(w) for _, w in K.faces) + len(K.faces)
        return len(res.trace), len(calls) / size

    return run


@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_tri_normalize_makes_at_most_two_moves_per_triangle(form, counted):
    # one face per triangle took about 10 moves per triangle; the worst
    # of these now takes 1.5
    T = build_simplicial(refined_triangles(form))
    moves, ratio = counted(to_cell_complex(T), form)
    assert moves <= 2 * len(T.triangles)
    assert ratio <= SPEND_RATIO_MAX


def split_and_cut(form, rng):
    """The benchmark's cell-complex shape: the canonical complex with one
    inner edge split (P1) and two face cuts (P2)."""
    K = make_canonical(form)
    inner = [e for e in K.edges if len(K.edge_occurrences[e]) == 2]
    K = apply_p1(K, rng.choice(inner), "_g0", "_g1")
    for d in ("_g2", "_g3"):
        name, w = rng.choice([(n, w) for n, w in K.faces if len(w) >= 2])
        K = apply_p2(K, name, rng.randrange(1, len(w)), d)
    return K


@pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
@pytest.mark.parametrize("p", [8, 16, 32])
def test_split_and_cut_normalizes_in_p_plus_4_moves(kind, p, counted):
    # eliminating the split's big vertex took 531 moves at (I, 32, 1);
    # the worst of these now takes p
    for q in range(4):
        form = NormalForm(kind, p, q)
        for seed in range(3):
            moves, _ = counted(split_and_cut(form, random.Random(seed)), form)
            assert moves <= p + 4, (form, seed)


def test_scramble_spend_ratio_is_bounded(counted):
    forms = [NormalForm(TYPE_I, p, q) for p in range(6) for q in range(4)]
    forms += [NormalForm(TYPE_II, p, q) for p in range(1, 6) for q in range(4)]
    worst = max(
        counted(scramble(make_canonical(form), seed, 40), form)[1]
        for form in forms
        for seed in range(6)
    )
    assert worst <= SPEND_RATIO_MAX


def assert_every_move_changes_its_faces(K):
    """No move of normalize(K) but the closing relabel leaves the faces it
    touches the same up to rotation, inversion and renaming of edges
    (each face renamed on its own)."""
    for m in normalize(K).trace:
        before, after = ([least_spelling(w) for _, w in side] for side in (m.before, m.after))
        if m.rule != "canonical_relabel":
            assert sorted(before) != sorted(after), m.format()


@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_normalize_of_a_scramble_makes_no_idle_move(form):
    for seed in range(3):
        assert_every_move_changes_its_faces(scramble(make_canonical(form), seed, 30))


@pytest.mark.parametrize("name", sorted(WORD_RULES))
def test_normalize_of_a_word_rule_input_makes_no_idle_move(name):
    assert_every_move_changes_its_faces(build({"F": WORD_RULES[name][0]}))


def test_normalize_of_a_canonical_complex_makes_no_move():
    forms = [NormalForm(TYPE_I, p, q) for p in range(6) for q in range(4)]
    forms += [NormalForm(TYPE_II, p, q) for p in range(1, 6) for q in range(4)]
    for form in forms:
        moves = normalize(make_canonical(form)).trace
        # the disc's word c1 h1 c1' holds the cyclic x x' pair c1' c1
        assert bool(moves) == (form == NormalForm(TYPE_I, 0, 1)), form


def test_nested_pairs_cancel_in_one_move():
    # x0 ... x1999 x1999' ... x0' a b a' b': the cancellation rescanned
    # the word once per pair; now it is one move for the whole face
    xs = [f"x{i}" for i in range(2000)]
    word = " ".join(xs + [x + "'" for x in reversed(xs)] + ["a b a' b'"])
    trace = normalize(build({"A": word})).trace
    assert [m.rule for m in trace] == ["cancel_inverse_pairs", "canonical_relabel"]
    assert trace[0].args == tuple(sorted(xs))
