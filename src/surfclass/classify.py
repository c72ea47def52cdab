"""Top-level surface classification.

Given a valid cell complex, normalizes it to canonical form (which
``normalize`` checks against the invariant triple: orientability,
contour count, Euler characteristic) and derives the surface name,
genus, fundamental-group presentation and first homology group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cellcomplex import CellComplex
from .edgeword import Word, format_word
from .errors import BorderedNotSupportedError
from .intlinalg import FgAbelianGroup, IntMatrix, cokernel, group_format
from .rewrite import (
    TYPE_I,
    NormalForm,
    canonical_word,
    normal_form_from_invariants,
    normalize,
)


@dataclass(frozen=True)
class SurfaceClass:
    orientable: bool
    q: int
    euler: int
    form: NormalForm
    genus: int
    name: str
    canonical_word: Word


@dataclass(frozen=True)
class Presentation:
    generators: tuple  # generator names
    relators: tuple    # zero (free group) or one Word over the generators


def surface_name(form: NormalForm) -> str:
    p, q = form.p, form.q
    if form.kind == TYPE_I:
        if q == 0:
            if p == 0:
                return "sphere"
            if p == 1:
                return "torus"
            return f"connected sum of {p} tori"
        if (p, q) == (0, 1):
            return "closed disk"
        if (p, q) == (0, 2):
            return "annulus"
        return f"orientable, genus {p}, {q} boundary circle" + ("s" if q != 1 else "")
    if q == 0:
        if p == 1:
            return "projective plane"
        if p == 2:
            return "Klein bottle"
        return f"connected sum of {p} projective planes"
    if (p, q) == (1, 1):
        return "Möbius strip"
    return f"nonorientable, genus {p}, {q} boundary circle" + ("s" if q != 1 else "")


def classify(K: CellComplex) -> SurfaceClass:
    return class_from_form(normalize(K).normal)


def class_from_form(form: NormalForm) -> SurfaceClass:
    return SurfaceClass(
        orientable=form.orientable(),
        q=form.q,
        euler=form.euler(),
        form=form,
        genus=form.p,
        name=surface_name(form),
        canonical_word=canonical_word(form),
    )


def fundamental_group(form: NormalForm) -> Presentation:
    """Presentation read off the canonical boundary word.

    Closed surfaces give one relator; bordered surfaces give a free
    group (the last loop generator is eliminated via the relation).
    """
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


def h1_from_normal_form(form: NormalForm) -> FgAbelianGroup:
    """Abelianized fundamental group."""
    p, q = form.p, form.q
    if q > 0:
        rank = (2 * p if form.kind == TYPE_I else p) + q - 1
        return FgAbelianGroup(rank, ())
    if form.kind == TYPE_I:
        return FgAbelianGroup(2 * p, ())
    return FgAbelianGroup(p - 1, (2,))


def abelianized(pres: Presentation) -> FgAbelianGroup:
    """Abelianization of a presentation via the relator's exponent sums."""
    n = len(pres.generators)
    index = {g: i for i, g in enumerate(pres.generators)}
    if not pres.relators:
        return cokernel(n, IntMatrix.zeros(n, 0))
    cols = []
    for rel in pres.relators:
        col = [0] * n
        for s in rel:
            col[index[s.name]] += s.sign
        cols.append(col)
    M = IntMatrix.from_rows([[col[i] for col in cols] for i in range(n)])
    return cokernel(n, M)


def connected_sum(s1: SurfaceClass, s2: SurfaceClass) -> SurfaceClass:
    """Connected sum of two closed surfaces (chi adds minus 2)."""
    if s1.q or s2.q:
        raise BorderedNotSupportedError("connected sum needs closed surfaces")
    euler = s1.euler + s2.euler - 2
    orientable = s1.orientable and s2.orientable
    form = normal_form_from_invariants(orientable, 0, euler)
    return class_from_form(form)


def to_json_dict(sc: SurfaceClass) -> dict:
    """Stable JSON report fields for the CLI and downstream tools."""
    pres = fundamental_group(sc.form)
    return {
        "orientable": sc.orientable,
        "contours": sc.q,
        "euler": sc.euler,
        "type": sc.form.kind,
        "p": sc.form.p,
        "q": sc.form.q,
        "genus": sc.genus,
        "name": sc.name,
        "normal_word": format_word(sc.canonical_word),
        "h1": group_format(h1_from_normal_form(sc.form)),
        "pi1_generators": list(pres.generators),
        "pi1_relator": format_word(pres.relators[0]) if pres.relators else None,
    }
