"""The per-move check of the move engine against a full ``build``.

``_Rewriter.mutate`` applies every move of ``normalize``, ``scramble``
and the public ``apply_*``.  It checks the names on the changed faces
only, then one ``count_invariants`` pass over all faces decides every
edge's multiplicity and counts the invariants; the rewriter's edge views
read that pass's slot maps.  These tests hold it to what ``build`` and
``invariant_report`` say about the same faces.
"""

from itertools import combinations
from pathlib import Path

import pytest

from surfclass import rewrite
from surfclass.cellcomplex import BORDER, INNER, build, count_invariants
from surfclass.classify import classify
from surfclass.edgeword import EdgeSym, parse_word
from surfclass.errors import (
    BadNameError,
    DisconnectedError,
    EdgeMultiplicityError,
    EmptyFaceSetError,
    NotMergeableError,
    SurfclassError,
)
from surfclass.fileio import parse_cell_complex
from surfclass.rewrite import (
    TYPE_II,
    NormalForm,
    _Rewriter,
    apply_p2_inverse,
    make_canonical,
    normalize,
    scramble,
)

from simputil import SMALL_FORMS, form_id, least_reading, vertices_by_full_keys

@pytest.mark.parametrize("form", SMALL_FORMS, ids=form_id)
def test_incremental_counts_equal_a_full_build_after_every_move(form, monkeypatch):
    real = _Rewriter.mutate
    moves = []

    def checked(self, changes, kind, *args, **kwargs):
        real(self, changes, kind, *args, **kwargs)
        K = build(self.faces, internal=True)
        occ = K.edge_occurrences
        names = [n for n, _ in K.faces]
        assert self.border_edges() == {e for e, o in occ.items() if len(o) == 1}
        assert set(self.inner_edges()) == {e for e, o in occ.items() if len(o) == 2}
        assert self.joins() == [
            (e, names[o[0][0]], names[o[1][0]])
            for e, o in sorted(occ.items())
            if len(o) == 2 and o[0][0] != o[1][0]
        ]
        # the vertex view: border runs up to reversal, inner runs up to
        # rotation and reversal, both in the full-key oracle's order
        want = vertices_by_full_keys(K)
        for kind in (BORDER, INNER):
            got = [least_reading(kind, r) for r in self.vertices(kind)]
            assert got == [v.members for v in want if v.kind == kind]
        key = count_invariants(list(self.faces.values()))[0].key()
        assert key == K.invariant_report().key()
        # known by construction, independently of the counting pass
        assert key == (form.orientable(), form.q, form.euler())
        moves.append(kind)
        return self

    monkeypatch.setattr(_Rewriter, "mutate", checked)
    for seed in range(3):
        start = len(moves)
        K = scramble(make_canonical(form), 1000 + seed, 20)
        assert len(moves) == start + 20  # every scramble move is checked
        assert normalize(K).normal == form
    assert moves


def test_normalize_builds_no_complex_per_move(monkeypatch):
    calls = []
    real = rewrite.build

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    K0 = make_canonical(NormalForm(TYPE_II, 3, 2))
    K = scramble(K0, 5, 30)
    monkeypatch.setattr(rewrite, "build", counting)
    res = normalize(K)
    assert len(res.trace) > 10
    # scramble applies its moves through the same checked state
    assert scramble(K0, 5, 30) == K
    assert calls == []


def test_public_moves_run_the_engine_check(monkeypatch):
    real_mutate, real_build = _Rewriter.mutate, rewrite.build
    kinds, builds = [], []

    def mutate(self, changes, kind, *args, **kwargs):
        kinds.append(kind)
        return real_mutate(self, changes, kind, *args, **kwargs)

    def counting(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    K = build({"A": "a b a' b'"})
    monkeypatch.setattr(_Rewriter, "mutate", mutate)
    monkeypatch.setattr(rewrite, "build", counting)
    K = rewrite.apply_p1(K, "a", "x", "y")
    K = rewrite.apply_p1_inverse(K, "x", "y", "z")
    K = rewrite.apply_p2(K, "A", 2, "d")
    K = rewrite.apply_p2_inverse(K, "A", "A_2", "d")
    assert kinds == ["P1", "P1inv", "P2", "P2inv"]
    assert builds == []
    assert K.invariant_report().key() == (True, 0, 0)


def faces_of(spec):
    return {n: parse_word(w) if isinstance(w, str) else w for n, w in spec.items()}


BAD = (EdgeSym("9x", 1), EdgeSym("9x", -1))
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# three faces, seven edges (two of them border edges)
CC_TEXT = "face A : a b c d\nface B : d' b e e\nface C : c' a' f h\n"

PARITY = {
    # an edge in three slots
    "multiplicity": ({"A": "a b a' b'"}, {"A": "a b a' b' a"}, EdgeMultiplicityError),
    "four slots across two faces": (
        {"A": "a b", "B": "b' a'"}, {"A": "a b a'", "B": "b' a' a"}, EdgeMultiplicityError,
    ),
    # the bad name is reported, not the extra slot
    "bad name and extra slot": (
        {"A": "a b a' b'"}, {"A": BAD + parse_word("a b a' b' a")}, BadNameError,
    ),
    # a new face over a new edge of its own
    "disconnected": ({"A": "a b a' b'"}, {"B": "x x"}, DisconnectedError),
    "bad edge name": ({"A": "a b a' b'"}, {"A": BAD + parse_word("a b a' b'")}, BadNameError),
    "bad face name": ({"A": "a b", "B": "b' a'"}, {"B": None, "B!": "b' a'"}, BadNameError),
    "no face left": ({"A": "a b a' b'"}, {"A": None}, EmptyFaceSetError),
}


@pytest.mark.parametrize("case", sorted(PARITY))
def test_mutate_raises_what_build_raises(case):
    start, changes, cls = PARITY[case]
    changes = faces_of(changes)
    rw = _Rewriter(build(start))
    state = dict(rw.faces)
    for n, w in changes.items():
        if w is None:
            del state[n]
        else:
            state[n] = w
    with pytest.raises(SurfclassError) as want:
        build(state, internal=True)
    assert type(want.value) is cls
    with pytest.raises(cls) as got:
        rw.mutate(changes, "composite", "test", ())
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "path", [*sorted(SAMPLES.glob("*.cc")), None], ids=lambda p: p.name if p else "three-faces"
)
def test_a_valid_cc_is_classified_without_edge_occurrences(path):
    # multiplicity is decided in the counting pass; the per-edge lists
    # are built only for the views that ask for them, and P2 inverse,
    # on every edge and pair of faces, reads the slot maps
    K = parse_cell_complex(path.read_text() if path else CC_TEXT)
    assert classify(K).form == normalize(K).normal
    merged = 0
    for e in K.edges:
        for f1, f2 in combinations([n for n, _ in K.faces], 2):
            try:
                merged += len(apply_p2_inverse(K, f1, f2, e).faces) == len(K.faces) - 1
            except NotMergeableError:
                pass
    # bordered.cc: a, b and d each join two faces; CC_TEXT: b and d join A, B, and a and c A, C
    assert merged == {"bordered.cc": 3, None: 4}.get(path and path.name, 0)
    assert "edge_occurrences" not in K.__dict__
