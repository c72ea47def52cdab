"""Triangulation helpers and fixed triangulations used only by the tests."""

import random

from surfclass.cellcomplex import build
from surfclass.edgeword import EdgeSym
from surfclass.rewrite import TYPE_I, TYPE_II, NormalForm, make_canonical
from surfclass.simplicial import refine_to_triangulation

DISC = [("o", f"v{i}", f"v{(i + 1) % 6}") for i in range(6)]
MOBIUS_BAND = [(f"m{i}", f"m{(i + 1) % 5}", f"m{(i + 2) % 5}") for i in range(5)]

# every form with p <= 4 and q <= 3
SMALL_FORMS = [NormalForm(TYPE_I, p, q) for p in range(5) for q in range(4)]
SMALL_FORMS += [NormalForm(TYPE_II, p, q) for p in range(1, 5) for q in range(4)]


def form_id(form):
    return f"{form.kind}-{form.p}-{form.q}"


def refined_triangles(form):
    """The triangles of the refinement of the canonical complex of form."""
    return list(refine_to_triangulation(make_canonical(form))[1].triangles)


def relabelled(triangles, seed):
    """The same triangulation under seeded vertex names.  The names set
    the sorted order of the triangles, and so the order in which
    ``to_cell_complex`` meets them."""
    rng = random.Random(seed)
    verts = sorted({v for t in triangles for v in t})
    names = [f"x{i}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    return [tuple(rename[v] for v in t) for t in triangles]


def faces_per_triangle(K):
    """K as a cell complex with one face per triangle: the word of
    triangle (a, b, c) walks its sides a->b, b->c, c->a.  Edge names
    and signs are those of ``simplicial.to_cell_complex``."""
    edge_name = {e: f"e{i}" for i, e in enumerate(K.edges)}

    def directed(a, b):
        if (a, b) in edge_name:
            return EdgeSym(edge_name[(a, b)], 1)
        return EdgeSym(edge_name[(b, a)], -1)

    faces = {}
    for i, (a, b, c) in enumerate(K.triangles):
        faces[f"T{i}"] = (directed(a, b), directed(b, c), directed(c, a))
    return build(faces, internal=True)
