"""Top-level surface classification.

``classify`` takes the invariant triple (orientability, contour count,
Euler characteristic) from the counting pass, certifies it by the
cellular homology of the complex with every contour capped, and derives
the normal form, surface name, genus, fundamental-group presentation
and first homology group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cellcomplex import CellComplex
from .edgeword import EdgeSym, Word, format_word
from .errors import BorderedNotSupportedError, InfeasibleInvariantsError, InternalInvariantViolation
from .intlinalg import FgAbelianGroup, IntMatrix, _column, group_format, smith_normal_form
from .rewrite import TYPE_I, NormalForm, canonical_word, normal_form_from_invariants
from .rewrite import normalize  # noqa: F401 - surfbench/spans.py wraps it here


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
    """The class of K's invariant triple, certified by ``certified_key``."""
    key, got = K.invariant_report().key(), certified_key([w for _, w in K.faces])
    if got != key:
        raise InternalInvariantViolation(f"counted invariants {key}, capped homology {got}")
    return class_from_form(normal_form_from_invariants(*key))


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
    closed = canonical_word(NormalForm(form.kind, form.p, 0))
    gens = tuple(dict.fromkeys(s.name for s in closed))
    if form.q == 0:
        return Presentation(gens, (closed,))
    return Presentation(gens + tuple(f"d{j}" for j in range(1, form.q)), ())


def h1_from_normal_form(form: NormalForm) -> FgAbelianGroup:
    """Abelianized fundamental group."""
    p, q = form.p, form.q
    if q > 0:
        rank = (2 * p if form.kind == TYPE_I else p) + q - 1
        return FgAbelianGroup(rank, ())
    if form.kind == TYPE_I:
        return FgAbelianGroup(2 * p, ())
    return FgAbelianGroup(p - 1, (2,))


def _vertex_classes(words) -> tuple:
    """(edge -> i, class of each edge end, V, components) by union-find over
    tail ends 2i and head ends 2i + 1: a corner joins the end a letter
    arrives at to the end the next leaves from.  No letters: the null vertex."""
    index = {e: i for i, e in enumerate(dict.fromkeys(s.name for w in words for s in w))}
    parent = list(range(2 * len(index)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for w in words:
        for s, t in zip(w, w[1:] + w[:1]):
            parent[find(2 * index[s.name] + (s.sign > 0))] = find(2 * index[t.name] + (t.sign < 0))
    cls = list(map(find, range(len(parent))))
    for i in range(len(index)):
        parent[find(2 * i)] = find(2 * i + 1)
    return index, cls, len(set(cls)) or 1, len(set(map(find, cls))) or 1


def cellular_homology(words) -> tuple:
    """(H0, H1, H2) of the 2-complex with one face per word (Hatcher, 2002,
    §2.2): d2 of a face is its word's signed exponent sum, rank d1 is
    V - components, and d2 gets one Smith reduction."""
    index, _, nv, nc = _vertex_classes(words)
    d2 = tuple(_column((index[s.name], s.sign) for s in w) for w in words)
    snf = smith_normal_form(IntMatrix(len(index), len(words), d2))
    h1 = FgAbelianGroup(len(index) - nv + nc - len(snf), tuple(t for t in snf if t > 1))
    return FgAbelianGroup(nc, ()), h1, FgAbelianGroup(len(words) - len(snf), ())


def certified_homology(K: CellComplex) -> tuple:
    """(H0, H1, H2) of K's own cells, certified by what the counting pass's
    triple predicts: Z, the H1 of its normal form, and H2 = Z exactly when
    the surface is closed and orientable."""
    key, got = K.invariant_report().key(), cellular_homology([w for _, w in K.faces])
    try:
        h1 = h1_from_normal_form(normal_form_from_invariants(*key))
    except InfeasibleInvariantsError:  # no surface has the triple
        h1 = None
    if got != (FgAbelianGroup(1, ()), h1, FgAbelianGroup(int(key[0] and not key[1]), ())):
        groups = ", ".join(map(group_format, got))
        raise InternalInvariantViolation(f"counted invariants {key}, cellular homology {groups}")
    return got


def certified_key(words) -> tuple:
    """(orientable, q, chi) of a valid complex's words, found apart from
    ``count_invariants``.  Each of the q components of the border-edge graph
    gets a cap word; capped, the complex is a closed surface whose H1 is
    Z^(2 - chi - q) if orientable, Z^(1 - chi - q) (+) Z/2 if not (else None)."""
    index, cls, nv, _ = _vertex_classes(words)
    uses = Counter(s.name for w in words for s in w)
    border = [i for e, i in index.items() if uses[e] == 1]
    at = {}  # vertex class -> its two border edge ends
    for x in (x for i in border for x in (2 * i, 2 * i + 1)):
        at.setdefault(cls[x], []).append(x)
    names, caps, done = list(index), [], set()
    for x in (2 * i for i in border if i not in done):
        cap = []
        while x >> 1 not in done:  # leave by end x, arrive at x ^ 1
            done.add(x >> 1)
            cap.append(EdgeSym(names[x >> 1], -1 if x & 1 else 1))
            x = sum(at[cls[x ^ 1]]) - (x ^ 1)  # the class's other border end
        caps.append(tuple(cap))
    q, chi = len(caps), nv - len(index) + len(words)
    h1 = cellular_homology(list(words) + caps)[1]
    shape = (h1.free_rank + chi + q, h1.torsion)
    return {(2, ()): True, (1, (2,)): False}.get(shape), q, chi


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
