"""The benchmark workloads: seeded input generators, op lists and checks.

Every workload turns a seed into a set of input files and a fixed list of
CLI invocations (ops).  Each op carries the answer known for it by
construction, so its output can be checked without trusting the code
under test.  The number and kind of ops, and the shape of every
complex, never depend on the seed; the seed only changes labels,
orderings, rotations and random point sets, so the cost of a pass stays
close from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field


@dataclass
class Op:
    """One CLI invocation with its expected answer."""

    verb: str
    argv: list
    check: object            # callable(code, stdout, stderr, out_files) -> error text or None
    size: dict = field(default_factory=dict)   # input-size description for per-op curves
    outputs: tuple = ()      # files the op writes, read back by the check


@dataclass
class Inputs:
    """Generated files (name -> text) plus the op list that uses them."""

    files: dict
    ops: list

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(b"\0")
            h.update(self.files[name].encode())
            h.update(b"\0")
        return h.hexdigest()

    def write(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# answers known by construction

TYPE_I, TYPE_II = "I", "II"


def euler_of(kind, p, q):
    return 2 - 2 * p - q if kind == TYPE_I else 2 - p - q


def canonical_text(kind, p, q):
    """The canonical word as the CLI prints it."""
    toks = []
    for i in range(1, p + 1):
        toks += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"] if kind == TYPE_I else [f"a{i}", f"a{i}"]
    for j in range(1, q + 1):
        toks += [f"c{j}", f"h{j}", f"c{j}'"]
    return " ".join(toks)


def surface_name(kind, p, q):
    if kind == TYPE_I:
        if q == 0:
            return {0: "sphere", 1: "torus"}.get(p, f"connected sum of {p} tori")
        if (p, q) == (0, 1):
            return "closed disk"
        if (p, q) == (0, 2):
            return "annulus"
        return f"orientable, genus {p}, {q} boundary circle" + ("s" if q != 1 else "")
    if q == 0:
        return {1: "projective plane", 2: "Klein bottle"}.get(p, f"connected sum of {p} projective planes")
    if (p, q) == (1, 1):
        return "Möbius strip"
    return f"nonorientable, genus {p}, {q} boundary circle" + ("s" if q != 1 else "")


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, want {want!r}"


def check_json(want, extra=None, after_trace=False):
    """Check for exit 0 and a JSON payload holding every field of ``want``.

    ``extra(payload, trace_lines)`` may add a check; ``after_trace``
    skips the move-trace lines that ``normalize --trace`` prints first.
    """

    def check(code, stdout, stderr, files):
        if code != 0:
            return f"exit {code}: {stderr.strip()[:120]}"
        lines = stdout.splitlines()
        cut = lines.index("{") if after_trace and "{" in lines else 0
        try:
            got = json.loads("\n".join(lines[cut:]))
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        for k, v in want.items():
            if got.get(k) != v:
                return _mismatch(k, got.get(k), v)
        return extra(got, cut) if extra else None

    return check


def classify_answer(kind, p, q):
    return {
        "orientable": kind == TYPE_I,
        "contours": q,
        "euler": euler_of(kind, p, q),
        "type": kind,
        "p": p,
        "q": q,
        "name": surface_name(kind, p, q),
        "normal_word": canonical_text(kind, p, q),
    }


def check_normalize(kind, p, q):
    def moves_match_trace(got, trace_lines):
        if got.get("moves") != trace_lines:
            return _mismatch("moves vs trace lines", got.get("moves"), trace_lines)
        return None

    want = {"type": kind, "p": p, "q": q, "normal_word": canonical_text(kind, p, q)}
    return check_json(want, moves_match_trace, after_trace=True)


def validate_answer(nv, ne, nt, q):
    want = {
        "kind": "simplicial",
        "closed_surface": q == 0,
        "bordered_surface": True,
        "border_circles": q,
        "vertices": nv,
        "edges": ne,
        "triangles": nt,
    }
    # a bordered surface fails the closed-surface test, whose violations
    # are then listed; only a closed one has an empty list
    if q == 0:
        want["violations"] = []
    return want


def check_homology(h1_text, kind, p, q, counts=None):
    def euler_matches(got, _):
        if got["vertices"] - got["edges"] + got["triangles"] != want["euler"]:
            return "V - E + T differs from the Euler characteristic"
        return None

    want = {
        "H0": "Z",
        "H1": h1_text,
        "H2": "Z" if kind == TYPE_I and q == 0 else "0",
        "euler": euler_of(kind, p, q),
    }
    if counts is not None:
        want.update(vertices=counts[0], edges=counts[1], triangles=counts[2])
    return check_json(want, euler_matches)


def check_float(key, want, rel_tol):
    def close(got, _):
        value = got.get(key)
        if not isinstance(value, float) or abs(value - want) > rel_tol * abs(want):
            return _mismatch(key, value, want)
        return None

    return check_json({}, close)


def check_sha256(digest):
    def check(code, stdout, stderr, files):
        if code != 0:
            return f"exit {code}: {stderr.strip()[:120]}"
        got = hashlib.sha256(files[0]).hexdigest()
        return None if got == digest else _mismatch("svg sha256", got, digest)

    return check


# ---------------------------------------------------------------------------
# cell complexes: canonical form, one inner-edge split, two face cuts


def scrambled_complex(sc, kind, p, q):
    """A complex equivalent to the canonical (kind, p, q) surface.

    One inner edge is split (P1) and two faces are cut (P2) with the
    library's own checked moves.  The split always leaves a second
    inner vertex, which forces ``normalize`` through its full
    elimination and handle/cross-cap rebuilding path; plain random
    walks instead land on cheap near-canonical inputs about half the
    time, which makes the cost of a pass depend on the seed.  The word
    length grows by exactly six letters.  Which edge is split and where
    the faces are cut is drawn from the form, not from the seed: those
    choices alone moved single ops by up to 1.5x between seeds.
    """
    rng = random.Random(f"scramble:{kind}:{p}:{q}")
    rewrite = sc.rewrite
    K = rewrite.make_canonical(rewrite.NormalForm(kind, p, q))
    inner = [e for e in K.edges if len(K.edge_occurrences[e]) == 2]
    K = rewrite.apply_p1(K, rng.choice(inner), "_g0", "_g1")
    for d in ("_g2", "_g3"):
        name, w = rng.choice([(n, w) for n, w in K.faces if len(w) >= 2])
        K = rewrite.apply_p2(K, name, rng.randrange(1, len(w)), d)
    return K


def write_cell_complex(K, rng, title):
    """Text of K with user-valid names, shuffled faces and rotated words.

    The library's own formatter keeps machine names such as ``_g2``,
    which its parser rejects.  They become ``Zg2``: ``Z`` sorts below
    lowercase letters just as ``_`` does, so the relabelled complex
    orders its edges, and hence its vertices, exactly as K does.
    Rotating or inverting a face word and reordering faces give the
    same complex.
    """
    def user(name):
        return "Z" + name[1:] if name.startswith("_") else name

    faces = list(K.faces)
    rng.shuffle(faces)
    lines = [f"surface {title}"]
    for i, (_, w) in enumerate(faces):
        w = list(w)
        if rng.random() < 0.5:
            w = [(name, -sign) for name, sign in reversed(w)]
        r = rng.randrange(len(w)) if w else 0
        w = w[r:] + w[:r]
        toks = [user(name) + ("'" if sign < 0 else "") for name, sign in w]
        lines.append(f"face F{i} : {' '.join(toks)}")
    return "\n".join(lines) + "\n"


def _letters(K):
    return sum(len(w) for _, w in K.faces)


# ---------------------------------------------------------------------------
# triangulations


def grid_triangles(n, m, wrap_x, wrap_y, twist):
    """An n x m grid of squares, each cut along one diagonal.

    ``wrap_x`` glues the left and right sides, ``wrap_y`` the bottom
    and top; ``twist`` reverses the top side before gluing (Klein
    bottle, Möbius strip).  n, m >= 3 keeps the result a simplicial
    surface.
    """

    def v(i, j):
        if wrap_y and i == n:
            i = 0
            if twist:
                j = (m - j) % m if wrap_x else m - j
        if wrap_x and j == m:
            j = 0
        return f"{i}_{j}"

    out = []
    for i in range(n):
        for j in range(m):
            bl, br, tl, tr = v(i, j), v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)
            out += [(bl, br, tr), (bl, tr, tl)]
    return out


TETRAHEDRON = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]


def projective_grid():
    """The 3 x 3 projective-plane grid with one flipped diagonal."""
    rows = [["d", "c", "b", "a"], ["e", "j", "k", "f"], ["f", "g", "h", "e"], ["a", "b", "c", "d"]]
    out = []
    for r in range(3):
        for c in range(3):
            bl, br, tl, tr = rows[r][c], rows[r][c + 1], rows[r + 1][c], rows[r + 1][c + 1]
            out += [(bl, br, tl), (br, tr, tl)] if (r, c) == (0, 2) else [(bl, br, tr), (bl, tr, tl)]
    return out


def fan_disk(k):
    """Disk: k triangles around a centre vertex, rim left open."""
    return [("o", f"r{i}", f"r{i + 1}") for i in range(k)]


def tri_counts(triangles):
    verts = {v for t in triangles for v in t}
    edges = {frozenset(e) for a, b, c in triangles for e in ((a, b), (b, c), (a, c))}
    return len(verts), len(edges), len(triangles)


def write_triangulation(triangles, rng):
    """Text with seeded vertex names, triangle order and corner order."""
    verts = sorted({v for t in triangles for v in t})
    labels = [f"v{k}" for k in rng.sample(range(10 * len(verts)), len(verts))]
    rename = dict(zip(verts, labels))
    tris = [[rename[v] for v in t] for t in triangles]
    rng.shuffle(tris)
    for t in tris:
        rng.shuffle(t)
    return "".join(f"triangle {a} {b} {c}\n" for a, b, c in tris)


def refined_triangles(sc, kind, p, q):
    """Triangles of the library's refinement of a canonical complex."""
    rewrite = sc.rewrite
    K = rewrite.make_canonical(rewrite.NormalForm(kind, p, q))
    _, T = sc.simplicial.refine_to_triangulation(K)
    return list(T.triangles)


# ---------------------------------------------------------------------------
# workloads


def _path(directory, name):
    return os.path.join(directory, name)


# (kind, p, q): genus spread for the rewrite-heavy workload.  Orientable
# handles cost about ten times more per letter than cross-caps, so the
# orientable series stops earlier.  Both stop where one op would take
# about 0.2 s: a pass must stay short enough for every op to be sampled
# often in one run.
CC_FORMS = [
    (TYPE_I, 0, 2), (TYPE_I, 1, 0), (TYPE_I, 1, 3), (TYPE_I, 2, 1), (TYPE_I, 3, 2),
    (TYPE_I, 4, 0), (TYPE_I, 6, 3), (TYPE_I, 8, 1),
    (TYPE_II, 1, 0), (TYPE_II, 1, 2), (TYPE_II, 2, 1), (TYPE_II, 4, 3), (TYPE_II, 6, 0),
    (TYPE_II, 8, 2), (TYPE_II, 12, 1), (TYPE_II, 16, 3),
]


# Triangulations classified next to the .cc complexes: many 3-letter
# faces instead of a few long words, so a rewrite change that helps long
# words but costs wide complexes shows on the same workload.  Classify
# cost grows steeply with triangles (0.1 s at 18, 0.5 s at 32, seconds
# from 48 up); the larger grids are only validated.
TRI_CLASSIFY = [
    ("tetrahedron", TETRAHEDRON, (TYPE_I, 0, 0)),
    ("fan6", fan_disk(6), (TYPE_I, 0, 1)),
    ("torus3x3", grid_triangles(3, 3, True, True, False), (TYPE_I, 1, 0)),
    ("projective3x3", projective_grid(), (TYPE_II, 1, 0)),
    ("mobius3x4", grid_triangles(3, 4, False, True, True), (TYPE_II, 1, 1)),
]
TRI_VALIDATE_ONLY = [
    ("klein6x6", grid_triangles(6, 6, True, True, True), (TYPE_II, 2, 0)),
    ("torus8x8", grid_triangles(8, 8, True, True, False), (TYPE_I, 1, 0)),
]


def classify_mix(sc, rng, directory):
    files, ops = {}, []
    for kind, p, q in CC_FORMS:
        K = scrambled_complex(sc, kind, p, q)
        name = f"cc_{kind}_{p}_{q}.cc"
        files[name] = write_cell_complex(K, rng, name[:-3])
        size = {"kind": kind, "p": p, "q": q, "letters": _letters(K), "faces": len(K.faces)}
        path = _path(directory, name)
        ops.append(Op("classify", ["classify", path, "--json"], check_json(classify_answer(kind, p, q)), size))
        ops.append(Op("normalize", ["normalize", path, "--trace", "--json"], check_normalize(kind, p, q), size))
    cases = [(case, True) for case in TRI_CLASSIFY] + [(case, False) for case in TRI_VALIDATE_ONLY]
    for (label, triangles, (kind, p, q)), also_classify in cases:
        name = f"{label}.tri"
        files[name] = write_triangulation(triangles, rng)
        nv, ne, nt = tri_counts(triangles)
        size = {"kind": kind, "p": p, "q": q, "triangles": nt}
        path = _path(directory, name)
        ops.append(Op("validate", ["validate", path, "--json"], check_json(validate_answer(nv, ne, nt, q)), size))
        if also_classify:
            ops.append(Op("classify", ["classify", path, "--json"], check_json(classify_answer(kind, p, q)), size))
    return Inputs(files, ops)


# .cc files refined by the CLI itself, up to genus 32; orientable genus
# 24 and 48 took 0.5 s and 2-3 s, too much of a pass
HOMOLOGY_CC_FORMS = [
    (TYPE_I, 2, 1), (TYPE_II, 6, 0), (TYPE_I, 8, 2), (TYPE_II, 16, 1), (TYPE_I, 16, 0),
    (TYPE_II, 24, 3), (TYPE_II, 32, 2),
]
# pre-refined .tri files
HOMOLOGY_TRI_FORMS = [
    (TYPE_I, 4, 0), (TYPE_II, 8, 1), (TYPE_I, 12, 3), (TYPE_II, 20, 2), (TYPE_I, 24, 0),
]
# small hand-built triangulations
HOMOLOGY_SMALL = [
    ("tetrahedron", TETRAHEDRON, (TYPE_I, 0, 0)),
    ("torus3x3", grid_triangles(3, 3, True, True, False), (TYPE_I, 1, 0)),
    ("klein3x3", grid_triangles(3, 3, True, True, True), (TYPE_II, 2, 0)),
    ("projective3x3", projective_grid(), (TYPE_II, 1, 0)),
    ("annulus3x4", grid_triangles(3, 4, True, False, False), (TYPE_I, 0, 2)),
    ("mobius3x4", grid_triangles(3, 4, False, True, True), (TYPE_II, 1, 1)),
    ("torus4x6", grid_triangles(4, 6, True, True, False), (TYPE_I, 1, 0)),
    ("klein4x6", grid_triangles(4, 6, True, True, True), (TYPE_II, 2, 0)),
]


def refine_homology(sc, rng, directory):
    classify = sc.classify
    rewrite = sc.rewrite
    group_format = sc.intlinalg.group_format

    def h1(kind, p, q):
        return group_format(classify.h1_from_normal_form(rewrite.NormalForm(kind, p, q)))

    files, ops = {}, []
    for kind, p, q in HOMOLOGY_CC_FORMS:
        K = scrambled_complex(sc, kind, p, q)
        name = f"hom_{kind}_{p}_{q}.cc"
        files[name] = write_cell_complex(K, rng, name[:-3])
        size = {"kind": kind, "p": p, "q": q, "input": "cc", "letters": _letters(K)}
        ops.append(Op("homology", ["homology", _path(directory, name), "--json"],
                      check_homology(h1(kind, p, q), kind, p, q), size))
    cases = [(f"refined_{k}_{p}_{q}", refined_triangles(sc, k, p, q), (k, p, q)) for k, p, q in HOMOLOGY_TRI_FORMS]
    cases += [(f"hom_{label}", tris, form) for label, tris, form in HOMOLOGY_SMALL]
    for label, triangles, (kind, p, q) in cases:
        name = f"{label}.tri"
        files[name] = write_triangulation(triangles, rng)
        counts = tri_counts(triangles)
        size = {"kind": kind, "p": p, "q": q, "input": "tri", "triangles": counts[2]}
        ops.append(Op("homology", ["homology", _path(directory, name), "--json"],
                      check_homology(h1(kind, p, q), kind, p, q, counts), size))
    return Inputs(files, ops)


# SVG bytes are pinned: rendering must stay byte-identical.
RENDERS = {
    ("snowflake", 5): "1744a83ca21c350ac3b13b03e423f65d53059279b26fe5dec2e2830bca4b7e9b",
    ("hilbert", 5): "bb4e7636ac5d5791abd25500c0cd166011200487b0050d87ed5380637039570c",
    ("heighway", 12): "c2f51894214850a1dcf91fff21e608c282f494c45175f92e32de6b342193e42d",
    ("sierpinski-gasket", 7): "e7fdb7f9333084570da87887ae289392f08d96c8e27690599c63bb4ecc7d365e",
    ("snowflake", 6): "87cbcfcb76659f8181c164ece9725e433826a391a4674adccf841f7f265604ee",
    ("hilbert", 6): "13f958f926c1b40c06fab46cb427f93e4ecf9f849f4868fdb2a4ac8f78a24241",
    ("heighway", 13): "cb9ef757ae747760bbf924109d5a6e58abb66787345d8fcd5209d67cee25a972",
    ("sierpinski-gasket", 8): "270cd0e29a2564451aa1aa4f741b6798c523cb4cef3981ceafa9efa337e0d933",
}
HAUSDORFF_RTOL = 1e-9
SQRT3 = math.sqrt(3.0)


def _points_text(pts):
    return "".join(f"{x!r},{y!r}\n" for x, y in pts)


def _perturbed_copies(A, copies, eps, rng):
    """Each point of A moved ``copies`` times by at most eps."""
    out = []
    for x, y in A:
        for _ in range(copies):
            r, t = eps * rng.random(), 2 * math.pi * rng.random()
            out.append((x + r * math.cos(t), y + r * math.sin(t)))
    return out


def hausdorff_case(A, hole, rng, copies=3, eps=1e-3):
    """(A, B, exact distance) for a set A with an empty disk around ``hole``.

    B holds ``copies`` perturbed copies of A (each within eps of its
    source) plus the hole's centre.  Every point of either set then has
    a partner within eps, except the centre, whose nearest point of A
    lies at least the hole radius away.  The Hausdorff distance is
    therefore that nearest distance, which a linear scan gives exactly.
    """
    B = _perturbed_copies(A, copies, eps, rng)
    B.insert(rng.randrange(len(B) + 1), hole)
    hx, hy = hole
    want = min(math.hypot(hx - x, hy - y) for x, y in A)
    if want <= eps:
        raise ValueError("hole radius must exceed the perturbation")
    return A, B, want


def uniform_set(n, rng, hole=(0.5, 0.5), radius=0.1):
    out = []
    while len(out) < n:
        x, y = rng.random(), rng.random()
        if math.hypot(x - hole[0], y - hole[1]) > radius:
            out.append((x, y))
    return out


def gasket_dust(n, rng):
    """Chaos-game points of the Sierpinski gasket with corners (0,0), (1,0), (1/2, sqrt3/2).

    The central removed triangle is empty, so its centroid is a hole.
    """
    corners = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)]
    x, y = rng.random(), rng.random() * 0.1
    out = []
    for i in range(n + 20):
        cx, cy = corners[rng.randrange(3)]
        x, y = (x + cx) / 2, (y + cy) / 2
        if i >= 20:
            out.append((x, y))
    return out


def rosette(turns, n, rng, clockwise):
    """Closed curve circling the origin ``turns`` times, radius in [0.6, 1.4]."""
    lobes, phase = rng.randrange(3, 9), 2 * math.pi * rng.random()
    pts = []
    for i in range(n):
        t = 2 * math.pi * turns * i / n
        r = 1.0 + 0.4 * math.sin(lobes * t / turns + phase)
        pts.append((r * math.cos(t), r * math.sin(t)))
    if clockwise:
        pts.reverse()
    return pts


WINDING_CURVES = 6
WINDING_POINTS = 2000


def geometry(sc, rng, directory):
    files, ops = {}, []
    for (preset, iters), digest in RENDERS.items():
        out = _path(directory, f"{preset}_{iters}.svg")
        ops.append(Op("fractal-render",
                      ["fractal-render", "--preset", preset, "--iters", str(iters), "--out", out],
                      check_sha256(digest), {"preset": preset, "iters": iters}, (out,)))
    sets = [
        ("uniform_a", uniform_set(3000, rng)),
        ("uniform_b", uniform_set(6000, rng)),
        ("dust_a", gasket_dust(3000, rng)),
        ("dust_b", gasket_dust(6000, rng)),
    ]
    centroid = (0.5, SQRT3 / 6)
    for label, A in sets:
        hole = centroid if label.startswith("dust") else (0.5, 0.5)
        A, B, want = hausdorff_case(A, hole, rng)
        files[f"{label}_A.pts"] = _points_text(A)
        files[f"{label}_B.pts"] = _points_text(B)
        ops.append(Op("hausdorff",
                      ["hausdorff", _path(directory, f"{label}_A.pts"), _path(directory, f"{label}_B.pts"), "--json"],
                      check_float("hausdorff", want, HAUSDORFF_RTOL), {"points": len(A) + len(B)}))
    for c in range(WINDING_CURVES):
        turns = 1 + c % 4
        clockwise = rng.random() < 0.5
        name = f"curve{c}.pts"
        files[name] = _points_text(rosette(turns, WINDING_POINTS, rng, clockwise))
        sign = -1 if clockwise else 1
        ang = 2 * math.pi * rng.random()
        inner = (0.3 * math.cos(ang), 0.3 * math.sin(ang))
        for point, want in (((0.0, 0.0), sign * turns), (inner, sign * turns), ((2.5, -1.5), 0)):
            ops.append(Op("winding",
                          ["winding", _path(directory, name), f"--point={point[0]!r},{point[1]!r}", "--json"],
                          check_json({"winding": want}), {"points": WINDING_POINTS, "turns": turns}))
    return Inputs(files, ops)


def topology(sc, rng, directory):
    """The classify mix and the homology ops in one op list.

    One workload instead of two lets each run last longer within the
    benchmark's time budget, which steadies it against minutes-long
    swings of host speed.  Per-op latencies in each report still tell
    the two parts apart.
    """
    parts = [classify_mix(sc, rng, directory), refine_homology(sc, rng, directory)]
    files = {}
    for part in parts:
        if files.keys() & part.files.keys():
            raise ValueError(f"input names collide: {sorted(files.keys() & part.files.keys())}")
        files.update(part.files)
    return Inputs(files, [op for part in parts for op in part.ops])


WORKLOADS = {
    "topology": topology,
    "geometry": geometry,
}
