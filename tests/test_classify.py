import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from surfclass import cli, rewrite, simplicial
from surfclass.cellcomplex import CellComplex, build
from surfclass.cli import run
from surfclass.classify import (
    Presentation,
    cellular_homology,
    certified_homology,
    class_from_form,
    classify,
    connected_sum,
    fundamental_group,
    h1_from_normal_form,
    normal_form_from_invariants,
    surface_name,
    to_json_dict,
)
from surfclass.edgeword import format_word, parse_word
from surfclass.errors import BorderedNotSupportedError, InfeasibleInvariantsError
from surfclass.intlinalg import FgAbelianGroup, cokernel
from surfclass.rewrite import (
    TYPE_I,
    TYPE_II,
    NormalForm,
    canonical_word,
    make_canonical,
    normalize,
    scramble,
)
from surfclass.simplicial import homology, refine_to_triangulation, refined_counts, to_cell_complex

from matrixutil import from_rows, zeros

classify_module = importlib.import_module("surfclass.classify")  # the package exports the function
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SMALL_FORMS = [
    NormalForm(kind, p, q)
    for kind, p0 in ((TYPE_I, 0), (TYPE_II, 1))
    for p in range(p0, 6)
    for q in range(4)
]


def test_classify_table():
    cases = [
        ("a b a' b'", True, 0, 0, (TYPE_I, 1), 1, "torus"),
        ("a b a b'", False, 0, 0, (TYPE_II, 2), 2, "Klein bottle"),
        ("a a", False, 0, 1, (TYPE_II, 1), 1, "projective plane"),
        ("", True, 0, 2, (TYPE_I, 0), 0, "sphere"),
        ("a b a c", False, 1, 0, (TYPE_II, 1), 1, "Möbius strip"),
    ]
    for word, orientable, q, euler, (kind, p), genus, name in cases:
        sc = classify(build({"A": word}))
        assert sc.orientable == orientable
        assert sc.q == q
        assert sc.euler == euler
        assert (sc.form.kind, sc.form.p) == (kind, p)
        assert sc.genus == genus
        assert sc.name == name


def test_more_names():
    assert class_from_form(NormalForm(TYPE_I, 0, 1)).name == "closed disk"
    assert class_from_form(NormalForm(TYPE_I, 0, 2)).name == "annulus"
    assert class_from_form(NormalForm(TYPE_I, 2, 0)).name == "connected sum of 2 tori"
    assert (
        class_from_form(NormalForm(TYPE_II, 3, 0)).name
        == "connected sum of 3 projective planes"
    )
    assert surface_name(NormalForm(TYPE_I, 2, 3)) == (
        "orientable, genus 2, 3 boundary circles"
    )


def test_normal_form_from_invariants():
    assert normal_form_from_invariants(True, 0, 2) == NormalForm(TYPE_I, 0, 0)
    assert normal_form_from_invariants(False, 0, 0) == NormalForm(TYPE_II, 2, 0)
    assert normal_form_from_invariants(True, 1, 1) == NormalForm(TYPE_I, 0, 1)
    with pytest.raises(InfeasibleInvariantsError):
        normal_form_from_invariants(True, 0, 1)
    with pytest.raises(InfeasibleInvariantsError):
        normal_form_from_invariants(False, 0, 2)
    with pytest.raises(InfeasibleInvariantsError, match="^negative contour count -1$") as e:
        normal_form_from_invariants(True, -1, 2)
    assert e.value.code == "E_INFEASIBLE_INVARIANTS"


def test_classify_form_matches_invariant_formula():
    for word in ("a b a' b'", "a b a b'", "a a", "", "a b a c", "a", "a b c"):
        K = build({"A": word})
        sc = classify(K)
        r = K.invariant_report()
        assert sc.form == normal_form_from_invariants(
            r.orientable, r.num_contours, r.euler
        )


def test_fundamental_group_closed():
    pres = fundamental_group(NormalForm(TYPE_I, 2, 0))
    assert pres.generators == ("a1", "b1", "a2", "b2")
    assert len(pres.relators) == 1
    assert format_word(pres.relators[0]) == "a1 b1 a1' b1' a2 b2 a2' b2'"

    trivial = fundamental_group(NormalForm(TYPE_I, 0, 0))
    assert trivial.generators == () and trivial.relators == ((),)

    crosscaps = fundamental_group(NormalForm(TYPE_II, 2, 0))
    assert format_word(crosscaps.relators[0]) == "a1 a1 a2 a2"


def test_fundamental_group_bordered_is_free():
    pres = fundamental_group(NormalForm(TYPE_II, 1, 1))
    assert pres.relators == () and len(pres.generators) == 1
    pres = fundamental_group(NormalForm(TYPE_I, 1, 2))
    assert len(pres.generators) == 2 * 1 + 2 - 1
    pres = fundamental_group(NormalForm(TYPE_I, 0, 2))
    assert len(pres.generators) == 1


def hand_built_fundamental_group(form):
    """The presentation with its generators listed by hand: a1 b1 a2 b2 ...
    or a1 a2 ..., then d1 ... d(q-1) on a bordered surface."""
    p, q = form.p, form.q
    if form.kind == TYPE_I:
        gens = []
        for i in range(1, p + 1):
            gens += [f"a{i}", f"b{i}"]
    else:
        gens = [f"a{i}" for i in range(1, p + 1)]
    if q == 0:
        return Presentation(tuple(gens), (canonical_word(form),))
    gens += [f"d{j}" for j in range(1, q)]
    return Presentation(tuple(gens), ())


def test_fundamental_group_matches_hand_built_generators():
    forms = [NormalForm(TYPE_I, p, q) for p in range(6) for q in range(4)]
    forms += [NormalForm(TYPE_II, p, q) for p in range(1, 6) for q in range(4)]
    for form in forms:
        assert fundamental_group(form) == hand_built_fundamental_group(form), form


def test_h1_examples():
    assert h1_from_normal_form(NormalForm(TYPE_I, 1, 0)) == FgAbelianGroup(2, ())
    assert h1_from_normal_form(NormalForm(TYPE_II, 2, 0)) == FgAbelianGroup(1, (2,))
    assert h1_from_normal_form(NormalForm(TYPE_I, 0, 2)) == FgAbelianGroup(1, ())
    assert h1_from_normal_form(NormalForm(TYPE_II, 1, 0)) == FgAbelianGroup(0, (2,))


def abelianized(pres):
    """Abelianization of a presentation via the relator's exponent sums."""
    n = len(pres.generators)
    index = {g: i for i, g in enumerate(pres.generators)}
    if not pres.relators:
        return cokernel(n, zeros(n, 0))
    cols = []
    for rel in pres.relators:
        col = [0] * n
        for s in rel:
            col[index[s.name]] += s.sign
        cols.append(col)
    M = from_rows([[col[i] for col in cols] for i in range(n)])
    return cokernel(n, M)


def test_abelianization_matches_h1():
    forms = [
        NormalForm(TYPE_I, 0, 0),
        NormalForm(TYPE_I, 1, 0),
        NormalForm(TYPE_I, 3, 0),
        NormalForm(TYPE_II, 1, 0),
        NormalForm(TYPE_II, 2, 0),
        NormalForm(TYPE_II, 4, 0),
        NormalForm(TYPE_I, 0, 1),
        NormalForm(TYPE_I, 2, 2),
        NormalForm(TYPE_II, 2, 3),
    ]
    for form in forms:
        assert abelianized(fundamental_group(form)) == h1_from_normal_form(form)


def test_connected_sum():
    t = class_from_form(NormalForm(TYPE_I, 1, 0))
    p = class_from_form(NormalForm(TYPE_II, 1, 0))
    s = class_from_form(NormalForm(TYPE_I, 0, 0))
    tt = connected_sum(t, t)
    assert tt.form == NormalForm(TYPE_I, 2, 0) and tt.euler == -2
    assert connected_sum(p, p).name == "Klein bottle"
    assert connected_sum(p, t).form == NormalForm(TYPE_II, 3, 0)
    assert connected_sum(t, s).form == t.form  # sphere is the identity
    assert connected_sum(s, t).form == t.form
    # commutative and associative on classification data
    a, b, c = t, p, class_from_form(NormalForm(TYPE_II, 2, 0))
    assert connected_sum(a, b).form == connected_sum(b, a).form
    assert (
        connected_sum(connected_sum(a, b), c).form
        == connected_sum(a, connected_sum(b, c)).form
    )
    with pytest.raises(BorderedNotSupportedError):
        connected_sum(t, class_from_form(NormalForm(TYPE_I, 0, 1)))


def test_json_fields():
    payload = to_json_dict(classify(build({"A": "a b a' b'"})))
    assert payload == {
        "orientable": True,
        "contours": 0,
        "euler": 0,
        "type": "I",
        "p": 1,
        "q": 0,
        "genus": 1,
        "name": "torus",
        "normal_word": "a1 b1 a1' b1'",
        "h1": "Z^2",
        "pi1_generators": ["a1", "b1"],
        "pi1_relator": "a1 b1 a1' b1'",
    }
    bordered = to_json_dict(classify(build({"A": "a b a c"})))
    assert bordered["pi1_relator"] is None
    assert bordered["pi1_generators"] == ["a1"]


def scrambled(form):
    return scramble(make_canonical(form), 1000 * form.p + 10 * form.q + len(form.kind), 40)


@pytest.mark.parametrize("form", SMALL_FORMS, ids=str)
def test_classify_agrees_with_normalize(form):
    K = scrambled(form)
    assert classify(K).form == normalize(K).normal == form
    G = to_cell_complex(refine_to_triangulation(K)[1])
    assert classify(G).form == normalize(G).normal == form


@pytest.mark.parametrize("word", ["", "a a'", "a"])
def test_classify_agrees_with_normalize_on_tiny_words(word):
    K = build({"A": word})
    assert classify(K).form == normalize(K).normal


def assert_refinement_agrees(K):
    """The cellular groups and the closed-form counts of K, which ``homology``
    reports for a cell complex, are those of its refinement."""
    _, T = refine_to_triangulation(K)
    assert cellular_homology([w for _, w in K.faces]) == homology(T)
    assert certified_homology(K) == homology(T)
    assert refined_counts(K) == T.counts()


@pytest.mark.parametrize("form", SMALL_FORMS, ids=str)
def test_cellular_homology_matches_refinement_homology(form):
    assert_refinement_agrees(scrambled(form))
    for seed in (1, 2):
        assert_refinement_agrees(scramble(make_canonical(form), 7919 * seed + form.p, 40))


# one-face words, and two one-gons glued into a sphere: null and one-letter
# faces, x x' pairs that cancel, border edges, a sphere and a disk
TINY_COMPLEXES = [{"A": word} for word in (
    "", "a", "a a", "a a'", "a b", "a b c", "a b a' b'", "a b b' a'", "a b a b'", "a b a c",
)] + [{"A": "a", "B": "a'"}]


@pytest.mark.parametrize("faces", TINY_COMPLEXES, ids=lambda faces: " / ".join(faces.values()))
def test_cellular_homology_matches_refinement_homology_on_tiny_complexes(faces):
    assert_refinement_agrees(build(faces))


def test_cellular_homology_counts_components():
    # a projective plane beside a sphere: H0 is free on the two components
    words = [parse_word("a a"), parse_word("b b'")]
    assert cellular_homology(words) == (
        FgAbelianGroup(2, ()),
        FgAbelianGroup(0, (2,)),
        FgAbelianGroup(1, ()),
    )


MUTATIONS = {
    "flip orientability": lambda r: dataclasses.replace(r, orientable=not r.orientable),
    "one more contour": lambda r: dataclasses.replace(r, num_contours=r.num_contours + 1),
    "euler shifted by 2": lambda r: dataclasses.replace(r, euler=r.euler + 2),
}


CC_SAMPLES = ["torus.cc", "klein.cc", "mobius.cc", "bordered.cc"]


def assert_one_internal_error(argv, capsys):
    assert run(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("E_INTERNAL: "), cap.err


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("sample", CC_SAMPLES)
def test_a_wrong_invariant_count_is_caught(mutation, sample, monkeypatch, capsys):
    counted = CellComplex.invariant_report
    mutate = MUTATIONS[mutation]
    monkeypatch.setattr(CellComplex, "invariant_report", lambda K: mutate(counted(K)))
    assert_one_internal_error(["classify", str(SAMPLES / sample)], capsys)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("sample", CC_SAMPLES)
def test_a_wrong_invariant_count_is_caught_by_homology(mutation, sample, monkeypatch, capsys):
    counted = CellComplex.invariant_report
    mutate = MUTATIONS[mutation]
    monkeypatch.setattr(CellComplex, "invariant_report", lambda K: mutate(counted(K)))
    assert_one_internal_error(["homology", str(SAMPLES / sample), "--json"], capsys)


# wrong cellular groups: each changes one group and keeps the others
WRONG_GROUPS = {
    "H0 free of rank 2": lambda h0, h1, h2: (FgAbelianGroup(2, ()), h1, h2),
    "H1 with one more generator": lambda h0, h1, h2: (
        h0, FgAbelianGroup(h1.free_rank + 1, h1.torsion), h2),
    "H1 torsion toggled": lambda h0, h1, h2: (
        h0, FgAbelianGroup(h1.free_rank, () if h1.torsion else (3,)), h2),
    "H2 toggled": lambda h0, h1, h2: (h0, h1, FgAbelianGroup(1 - h2.free_rank, ())),
}


@pytest.mark.parametrize("wrong", WRONG_GROUPS)
@pytest.mark.parametrize("sample", CC_SAMPLES)
def test_wrong_cellular_groups_are_caught_by_homology(wrong, sample, monkeypatch, capsys):
    real = classify_module.cellular_homology
    monkeypatch.setattr(
        classify_module, "cellular_homology", lambda words: WRONG_GROUPS[wrong](*real(words))
    )
    assert_one_internal_error(["homology", str(SAMPLES / sample), "--json"], capsys)


def test_homology_of_a_cell_complex_refines_nothing(tmp_path, monkeypatch, capsys):
    K = make_canonical(NormalForm(TYPE_I, 64, 1))
    counts = refine_to_triangulation(K)[1].counts()
    path = tmp_path / "genus64.cc"
    path.write_text("".join(f"face {n} : {format_word(w)}\n" for n, w in K.faces), "utf-8")

    def refuse(*args):
        raise AssertionError("homology of a .cc refined it or ran simplicial homology")

    for owner in (cli, simplicial):
        monkeypatch.setattr(owner, "refine_to_triangulation", refuse)
        monkeypatch.setattr(owner, "homology", refuse)
    assert run(["homology", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["H0"], payload["H1"], payload["H2"]) == ("Z", "Z^128", "0")
    assert (payload["vertices"], payload["edges"], payload["triangles"]) == counts


def test_a_homology_that_fits_no_surface_is_caught(monkeypatch, capsys):
    wrong = (FgAbelianGroup(1, ()), FgAbelianGroup(5, ()), FgAbelianGroup(1, ()))
    monkeypatch.setattr(classify_module, "cellular_homology", lambda words: wrong)
    assert run(["classify", str(SAMPLES / "torus.cc")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["E_INTERNAL: counted invariants (True, 0, 0), capped homology (None, 0, 0)"]


@pytest.mark.parametrize("form", [NormalForm(TYPE_I, 64, 1), NormalForm(TYPE_I, 128, 0)], ids=str)
def test_classify_runs_no_normalize(form, monkeypatch):
    _, T = refine_to_triangulation(make_canonical(form))

    def refuse(K):
        raise AssertionError("classify ran normalize")

    monkeypatch.setattr(rewrite, "normalize", refuse)
    monkeypatch.setattr(classify_module, "normalize", refuse)
    assert classify(to_cell_complex(T)).form == form
