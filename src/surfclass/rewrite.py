"""Elementary subdivision moves and normalization to canonical form.

Two elementary moves generate the equivalence of cell complexes:

* P1 splits an edge ``a`` into ``b c`` everywhere (and ``a'`` into
  ``c' b'``); its inverse contracts such a pair when ``(b, c')`` is a
  two-element vertex.
* P2 cuts one face in two along a fresh chord; its inverse merges two
  distinct faces sharing an edge.

``normalize`` drives a complex to the canonical single-face form:
handles ``a b a' b'`` (orientable) or cross-caps ``a a`` otherwise,
followed by one loop ``c h c'`` per boundary circle.  Composite word
rewrites (cross-cap rule, handle rule, handle+cross-cap conversion,
loop grouping) are applied as single trace steps; every step checks
that orientability, contour count and Euler characteristic are
unchanged and raises InternalInvariantViolation otherwise.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .cellcomplex import BORDER, INNER, CellComplex, Vertex, build
from .edgeword import EdgeSym, Word, format_word, inverse_word, rotate, sym, sym_key
from .errors import (
    BadPositionError,
    EdgeNotFoundError,
    FaceNotFoundError,
    InternalInvariantViolation,
    NameCollisionError,
    NotContractibleError,
    NotMergeableError,
)

TYPE_I = "I"
TYPE_II = "II"


@dataclass(frozen=True)
class NormalForm:
    kind: str  # TYPE_I or TYPE_II
    p: int
    q: int

    def __post_init__(self):
        if self.kind not in (TYPE_I, TYPE_II):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be nonnegative")
        if self.kind == TYPE_II and self.p < 1:
            raise ValueError("type II requires p >= 1")

    def euler(self) -> int:
        if self.kind == TYPE_I:
            return 2 - 2 * self.p - self.q
        return 2 - self.p - self.q

    def orientable(self) -> bool:
        return self.kind == TYPE_I


@dataclass(frozen=True)
class Move:
    kind: str          # "P1" | "P1inv" | "P2" | "P2inv" | "composite"
    rule: str          # composite rule name, "" for elementary moves
    args: tuple
    before: tuple      # ((face name, Word), ...) affected faces prior
    after: tuple       # ((face name, Word), ...) same faces after; dropped ones omitted

    def format(self) -> str:
        kind = self.kind if not self.rule else f"{self.kind}:{self.rule}"
        args = " ".join(str(a) for a in self.args)

        def side(fs):
            return " + ".join(f"{n}:{format_word(w)}" for n, w in fs)

        return f"{kind} {args} | {side(self.before)} => {side(self.after)}"


@dataclass
class NormalizationResult:
    normal: NormalForm
    canonical_word: Word
    trace: tuple
    complex: CellComplex = None


def replay_trace(K: CellComplex, trace) -> CellComplex:
    """Re-apply a trace move by move; determinism/consistency oracle."""
    state = dict(K.faces)
    for m in trace:
        for name, w in m.before:
            if state.get(name) != w:
                raise InternalInvariantViolation(
                    f"trace does not match state at: {m.format()}"
                )
        survivors = {name for name, _ in m.after}
        for name, _ in m.before:
            if name not in survivors:
                del state[name]
        for name, w in m.after:
            state[name] = w
    return build(state, internal=True)


# ---------------------------------------------------------------------------
# fresh names

_GEN_RE = re.compile(r"_[gf](\d+)\Z")


def _fresh_start(K: CellComplex) -> int:
    top = 0
    for n in list(K.edges) + [name for name, _ in K.faces]:
        m = _GEN_RE.match(n)
        if m:
            top = max(top, int(m.group(1)))
    return top + 1


# ---------------------------------------------------------------------------
# elementary moves (public API)


def _rebuild(K: CellComplex, faces: dict) -> CellComplex:
    # every public move checks invariant preservation; bulk internal
    # callers (triangulation refinement) use the unchecked helpers
    out = build(faces, internal=True)
    if K.invariant_report().key() != out.invariant_report().key():
        raise InternalInvariantViolation(
            f"move changed invariants: {K.describe()} -> {out.describe()}"
        )
    return out


def _subst_p1(w: Word, a: str, b: str, c: str) -> Word:
    out = []
    for s in w:
        if s.name == a:
            if s.sign > 0:
                out += [EdgeSym(b, 1), EdgeSym(c, 1)]
            else:
                out += [EdgeSym(c, -1), EdgeSym(b, -1)]
        else:
            out.append(s)
    return tuple(out)


def apply_p1(K: CellComplex, edge: str, b: str, c: str) -> CellComplex:
    """Split ``edge`` into the string ``b c`` in every boundary."""
    if edge not in K.edges:
        raise EdgeNotFoundError(f"no edge {edge!r}")
    if b == c or b in K.edges or c in K.edges:
        raise NameCollisionError(f"names {b!r}, {c!r} must be fresh and distinct")
    faces = {n: _subst_p1(w, edge, b, c) for n, w in K.faces}
    return _rebuild(K, faces)


def apply_p1_inverse(K: CellComplex, first, second, fresh: str) -> CellComplex:
    """Contract the adjacent string ``first second`` into one fresh edge.

    Requires distinct underlying edges and the vertex led to by
    ``first`` to be exactly the two-element vertex ``(first, second')``
    (inner or border), so the pair is adjacent at every occurrence.
    """
    b = sym(first) if isinstance(first, str) else first
    c = sym(second) if isinstance(second, str) else second
    if b.name not in K.edges or c.name not in K.edges:
        raise EdgeNotFoundError(f"edges {b.name!r}, {c.name!r} must exist")
    if b.name == c.name:
        raise NotContractibleError("cannot contract an edge with itself")
    if fresh in K.edges:
        raise NameCollisionError(f"name {fresh!r} already in use")
    v = K.vertex_of(b)
    if len(v.members) != 2 or set(v.members) != {b, c.inv()}:
        raise NotContractibleError(f"({b!r}, {c.inv()!r}) is not a two-element vertex")
    faces = {n: _contract_pair(w, b, c, fresh) for n, w in K.faces}
    return _rebuild(K, faces)


def _contract_pair(w: Word, b: EdgeSym, c: EdgeSym, fresh: str) -> Word:
    # replace cyclic occurrences of "b c" by fresh and "c' b'" by fresh'
    out = list(w)
    changed = True
    while changed:
        changed = False
        n = len(out)
        for i in range(n):
            j = (i + 1) % n
            if n >= 2 and out[i] == b and out[j] == c:
                rep = EdgeSym(fresh, 1)
            elif n >= 2 and out[i] == c.inv() and out[j] == b.inv():
                rep = EdgeSym(fresh, -1)
            else:
                continue
            if j == 0:
                out = [rep] + out[1:i]
            else:
                out = out[:i] + [rep] + out[j + 1:]
            changed = True
            break
    return tuple(out)


def _free_face_name(faces: dict, base: str) -> str:
    k = 2
    while f"{base}_{k}" in faces:
        k += 1
    return f"{base}_{k}"


def apply_p2(K: CellComplex, face: str, p: int, d: str) -> CellComplex:
    """Cut ``face`` at position p along a fresh chord ``d``.

    The two pieces keep the old name and get a derived sibling name.
    """
    fm = K.face_map
    if face not in fm:
        raise FaceNotFoundError(f"no face {face!r}")
    w = fm[face]
    if not 1 <= p < len(w):
        raise BadPositionError(f"position {p} out of range for length {len(w)}")
    if d in K.edges:
        raise NameCollisionError(f"name {d!r} already in use")
    faces = dict(K.faces)
    other = _free_face_name(faces, face)
    return _rebuild(K, _split_face(faces, face, p, d, other))


def _split_face(faces: dict, face: str, p: int, d: str, other_name: str) -> dict:
    # internal form: p may equal len(w) (chord cutting off an empty lune)
    w = faces[face]
    out = {}
    for n, fw in faces.items():
        if n == face:
            out[n] = w[:p] + (EdgeSym(d, 1),)
            out[other_name] = (EdgeSym(d, -1),) + w[p:]
        else:
            out[n] = fw
    return out


def apply_p2_inverse(K: CellComplex, face1: str, face2: str, edge: str) -> CellComplex:
    """Merge two distinct faces along ``edge``, deleting it."""
    fm = K.face_map
    if face1 not in fm or face2 not in fm:
        raise FaceNotFoundError(f"faces {face1!r}, {face2!r} must exist")
    if face1 == face2:
        raise NotMergeableError("cannot merge a face with itself")
    occ = K.edge_occurrences.get(edge)
    if occ is None or len(occ) != 2:
        raise NotMergeableError(f"edge {edge!r} is not shared by two faces")
    names = [n for n, _ in K.faces]
    if {names[occ[0][0]], names[occ[1][0]]} != {face1, face2}:
        raise NotMergeableError(f"edge {edge!r} does not join {face1!r} and {face2!r}")
    merged = _merge_words(fm[face1], fm[face2], edge)
    faces = {n: w for n, w in K.faces if n != face2}
    faces[face1] = merged
    return _rebuild(K, faces)


def _merge_words(w1: Word, w2: Word, edge: str) -> Word:
    # orient w1 to contain edge+, w2 to contain edge-; splice out the chord
    if not any(s.name == edge and s.sign > 0 for s in w1):
        w1 = inverse_word(w1)
    if not any(s.name == edge and s.sign < 0 for s in w2):
        w2 = inverse_word(w2)
    i = next(k for k, s in enumerate(w1) if s == EdgeSym(edge, 1))
    j = next(k for k, s in enumerate(w2) if s == EdgeSym(edge, -1))
    u = rotate(w1, (i + 1) % len(w1))[:-1]
    v = rotate(w2, (j + 1) % len(w2))[:-1]
    return u + v


# ---------------------------------------------------------------------------
# canonical complexes


def canonical_word(form: NormalForm) -> Word:
    w = []
    if form.kind == TYPE_I:
        for i in range(1, form.p + 1):
            a, b = EdgeSym(f"a{i}", 1), EdgeSym(f"b{i}", 1)
            w += [a, b, a.inv(), b.inv()]
    else:
        for i in range(1, form.p + 1):
            a = EdgeSym(f"a{i}", 1)
            w += [a, a]
    for j in range(1, form.q + 1):
        c, h = EdgeSym(f"c{j}", 1), EdgeSym(f"h{j}", 1)
        w += [c, h, c.inv()]
    return tuple(w)


def make_canonical(form: NormalForm) -> CellComplex:
    """The canonical single-face complex for a normal form."""
    return build({"A": canonical_word(form)})


def _parse_blocks(w: Word, border: set):
    """Parse a word into (crosscaps, handles, loops) blocks.

    Succeeds only for a clean run of non-loop blocks followed by a run
    of loops; returns None otherwise.
    """
    crosscaps, handles, loops = [], [], []
    i, n = 0, len(w)
    while i < n:
        s = w[i]
        if i + 1 < n and w[i + 1] == s and s.name not in border:
            if loops:
                return None
            crosscaps.append(s)
            i += 2
        elif i + 2 < n and w[i + 2] == s.inv() and w[i + 1].name in border:
            loops.append((s, w[i + 1]))
            i += 3
        elif (
            i + 3 < n
            and w[i + 2] == s.inv()
            and w[i + 3] == w[i + 1].inv()
            and w[i + 1].name != s.name
            and s.name not in border
            and w[i + 1].name not in border
        ):
            if loops:
                return None
            handles.append((s, w[i + 1]))
            i += 4
        else:
            return None
    return crosscaps, handles, loops


def is_canonical(K: CellComplex):
    """NormalForm if K is one face matching a canonical pattern, else None."""
    if len(K.faces) != 1:
        return None
    w = K.faces[0][1]
    if not w:
        return NormalForm(TYPE_I, 0, 0)
    border = {e for e, o in K.edge_occurrences.items() if len(o) == 1}
    for r in range(len(w)):
        parsed = _parse_blocks(rotate(w, r), border)
        if parsed is None:
            continue
        crosscaps, handles, loops = parsed
        if crosscaps and handles:
            continue
        if crosscaps:
            return NormalForm(TYPE_II, len(crosscaps), len(loops))
        return NormalForm(TYPE_I, len(handles), len(loops))
    return None


# ---------------------------------------------------------------------------
# normalization


def _predict(orientable: bool, q: int, chi: int) -> NormalForm:
    if orientable:
        g2 = 2 - chi - q
        if g2 % 2 or g2 < 0:
            raise InternalInvariantViolation(
                f"infeasible invariants (orientable, q={q}, chi={chi})"
            )
        return NormalForm(TYPE_I, g2 // 2, q)
    p = 2 - chi - q
    if p < 1:
        raise InternalInvariantViolation(
            f"infeasible invariants (nonorientable, q={q}, chi={chi})"
        )
    return NormalForm(TYPE_II, p, q)


class _Rewriter:
    """Mutable normalization state: ordered face words + trace + checks."""

    def __init__(self, K: CellComplex):
        self.faces = dict(K.faces)
        self.trace = []
        self.counter = _fresh_start(K)
        self.expected = K.invariant_report().key()
        total = sum(len(w) for w in self.faces.values()) + len(self.faces)
        self.budget = 600 + 80 * total
        self._cache = K

    # -- plumbing ---------------------------------------------------------

    def fresh_edge(self) -> str:
        self.counter += 1
        return f"_g{self.counter - 1}"

    def fresh_face(self) -> str:
        self.counter += 1
        return f"_f{self.counter - 1}"

    def complex(self) -> CellComplex:
        if self._cache is None:
            self._cache = build(self.faces, internal=True)
        return self._cache

    def spend(self, phase: str):
        self.budget -= 1
        if self.budget <= 0:
            raise InternalInvariantViolation(f"{phase} did not terminate")

    def mutate(self, changes: dict, kind: str, rule: str, args: tuple):
        """Apply ``changes`` (face -> new word, or None to drop), record, check."""
        before = tuple((n, self.faces[n]) for n in changes if n in self.faces)
        for n, w in changes.items():
            if w is None:
                del self.faces[n]
            else:
                self.faces[n] = w
        after = tuple((n, w) for n, w in changes.items() if w is not None)
        self.trace.append(Move(kind, rule, args, before, after))
        self._cache = None
        K = self.complex()
        if K.invariant_report().key() != self.expected:
            raise InternalInvariantViolation(
                f"{kind}:{rule or '-'} changed invariants on {K.describe()}"
            )

    def reorient(self, face: str):
        """Re-choose the stored orientation of a face (free operation)."""
        self.mutate(
            {face: inverse_word(self.faces[face])}, "composite", "reorient", (face,)
        )

    def single_name(self) -> str:
        return next(iter(self.faces))

    def single_word(self) -> Word:
        return self.faces[self.single_name()]

    def is_sphere_state(self) -> bool:
        return len(self.faces) == 1 and not self.single_word()

    # -- step 1: cancel a a' ------------------------------------------------

    def sweep_cancel(self):
        changed = True
        while changed:
            changed = False
            for name in list(self.faces):
                w = self.faces[name]
                n = len(w)
                if n < 2:
                    continue
                for i in range(n):
                    if w[(i + 1) % n] == w[i].inv():
                        rot = rotate(w, i)  # pair now at positions 0, 1
                        self.mutate(
                            {name: rot[2:]},
                            "composite",
                            "cancel_inverse_pair",
                            (repr(w[i]),),
                        )
                        changed = True
                        break
                if changed:
                    break
            if changed:
                self.spend("cancellation sweep")

    # -- vertex views ---------------------------------------------------------

    def inner_vertices(self):
        return [v for v in self.complex().vertices() if v.kind == INNER]

    def border_vertices(self):
        return [v for v in self.complex().vertices() if v.kind == BORDER]

    # -- elimination primitive ------------------------------------------------

    def eliminate(self, anchor: EdgeSym, victim: EdgeSym):
        """Remove the victim's edge; ``anchor victim'`` occurs in some boundary."""
        target = victim.inv()
        found = None
        for name in self.faces:
            for flip in (False, True):
                w = inverse_word(self.faces[name]) if flip else self.faces[name]
                n = len(w)
                for i in range(n):
                    if w[i] == anchor and w[(i + 1) % n] == target:
                        found = (name, flip, i)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            raise InternalInvariantViolation(
                f"adjacency {anchor!r} {target!r} not found"
            )
        name, flip, i = found
        if flip:
            self.reorient(name)
            w = self.faces[name]
            i = next(
                k for k in range(len(w))
                if w[k] == anchor and w[(k + 1) % len(w)] == target
            )
        w = self.faces[name]
        if i:
            self.mutate({name: rotate(w, i)}, "composite", "rotate", (name,))
            w = self.faces[name]
        # split off the small face (anchor victim' c); remainder keeps the rest
        c = self.fresh_edge()
        small, rest = self.fresh_face(), self.fresh_face()
        self.mutate(
            {
                name: None,
                small: (anchor, target, EdgeSym(c, 1)),
                rest: (EdgeSym(c, -1),) + w[2:],
            },
            "P2",
            "",
            (name, 2, c),
        )
        # merge the small face into the holder of the other victim occurrence
        other = None
        for fname, fw in self.faces.items():
            if fname != small and any(s.name == victim.name for s in fw):
                other = fname
                break
        if other is None:
            raise InternalInvariantViolation(f"victim {victim!r} occurs only once")
        merged = _merge_words(self.faces[other], self.faces[small], victim.name)
        self.mutate(
            {other: merged, small: None}, "P2inv", "", (other, small, victim.name)
        )

    def contract(self, b: EdgeSym, c: EdgeSym):
        """P1 inverse: contract the adjacent string ``b c`` to a fresh edge."""
        fresh = self.fresh_edge()
        changes = {}
        for n, w in self.faces.items():
            new = _contract_pair(w, b, c, fresh)
            if new != w:
                changes[n] = new
        if not any(s.name == fresh for w in changes.values() for s in w):
            raise InternalInvariantViolation(
                f"contraction of {b!r} {c!r} matched nothing"
            )
        self.mutate(changes, "P1inv", "", (repr(b), repr(c), fresh))

    # -- step 2a: one inner vertex --------------------------------------------

    def reduce_inner_vertices(self):
        while True:
            self.spend("inner vertex reduction")
            self.sweep_cancel()
            if self.is_sphere_state():
                return
            inner = self.inner_vertices()
            if len(inner) <= 1:
                return
            anchor, victim = self._pick_pair(inner[1])  # inner[0] survives
            self.eliminate(anchor, victim)

    def _pick_pair(self, v: Vertex, inner_vertex: Vertex = None):
        """Least (anchor, victim): adjacent members of v, victim's edge inner,
        anchor's inverse outside v, distinct underlying edges."""
        members = v.members
        n = len(members)
        inner_edges = set(self.complex().inner_edges())
        if v.kind == INNER:
            idx = [(i, (i + 1) % n) for i in range(n)]
            idx += [((i + 1) % n, i) for i in range(n)]
        else:
            idx = [(i, i + 1) for i in range(n - 1)]
            idx += [(i + 1, i) for i in range(n - 1)]
        pairs = []
        for ai, vi in idx:
            a, vic = members[ai], members[vi]
            if a.inv() in members:
                continue
            if vic.name == a.name or vic.name not in inner_edges:
                continue
            rank = 0
            if v.kind == BORDER:
                if ai in (0, n - 1):
                    rank = 0  # extremal border anchor: preferred
                elif inner_vertex is not None and a.inv() in inner_vertex.members:
                    rank = 1
                else:
                    rank = 2
            pairs.append((rank, sym_key(a), sym_key(vic), a, vic))
        if not pairs:
            raise InternalInvariantViolation(f"no eliminable pair in {v.members}")
        pairs.sort(key=lambda t: t[:3])
        return pairs[0][3], pairs[0][4]

    def ensure_inner_vertex(self):
        if self.inner_vertices():
            return
        name = next(iter(self.faces))
        w = self.faces[name]
        d = self.fresh_edge()
        lune = self.fresh_face()
        self.mutate(
            {name: w + (EdgeSym(d, 1),), lune: (EdgeSym(d, -1),)},
            "P2",
            "",
            (name, len(w), d),
        )
        x, y = self.fresh_edge(), self.fresh_edge()
        self.mutate(
            {
                name: _subst_p1(self.faces[name], d, x, y),
                lune: _subst_p1(self.faces[lune], d, x, y),
            },
            "P1",
            "",
            (d, x, y),
        )
        if not self.inner_vertices():
            raise InternalInvariantViolation("failed to create an inner vertex")

    # -- step 2b: border vertices into loop shape --------------------------------

    @staticmethod
    def _is_loop_vertex(v: Vertex, inner_edges: set) -> bool:
        m = v.members
        return len(m) == 3 and m[0] == m[2].inv() and m[1].name in inner_edges

    def reduce_border_vertices(self):
        while True:
            self.spend("border vertex reduction")
            self.sweep_cancel()
            inner_edges = set(self.complex().inner_edges())
            offending = [
                v for v in self.border_vertices()
                if not self._is_loop_vertex(v, inner_edges)
            ]
            if not offending:
                return
            v = offending[0]
            if len(v.members) == 2:
                x, y = v.members
                if x == y.inv():
                    raise InternalInvariantViolation(
                        f"bare border vertex {v.members} after inner-vertex step"
                    )
                self.contract(x, y.inv())
            else:
                inner_vs = self.inner_vertices()
                anchor, victim = self._pick_pair(
                    v, inner_vertex=inner_vs[0] if inner_vs else None
                )
                self.eliminate(anchor, victim)

    # -- step 3: merge faces, then cross-caps ------------------------------------

    def merge_faces(self):
        while len(self.faces) > 1:
            self.spend("face merging")
            names = [n for n in self.faces]
            index = {n: i for i, n in enumerate(names)}
            candidate = None
            for e, occ in sorted(self.complex().edge_occurrences.items()):
                if len(occ) == 2 and occ[0][0] != occ[1][0]:
                    f1, f2 = names[occ[0][0]], names[occ[1][0]]
                    if index[f2] < index[f1]:
                        f1, f2 = f2, f1
                    candidate = (e, f1, f2)
                    break
            if candidate is None:
                raise InternalInvariantViolation("multiple faces but no shared edge")
            e, f1, f2 = candidate
            merged = _merge_words(self.faces[f1], self.faces[f2], e)
            self.mutate({f1: merged, f2: None}, "P2inv", "", (f1, f2, e))

    def _reserved(self) -> set:
        """Edges locked inside loops: each hole edge plus its collar."""
        inner_edges = set(self.complex().inner_edges())
        out = set()
        for v in self.border_vertices():
            if not self._is_loop_vertex(v, inner_edges):
                raise InternalInvariantViolation(f"non-loop border vertex {v.members}")
            out.add(v.members[0].name)
            out.add(v.members[1].name)
        return out

    @staticmethod
    def _pair_positions(w: Word) -> dict:
        pos: dict = {}
        for i, s in enumerate(w):
            pos.setdefault(s.name, []).append(i)
        return {e: p for e, p in pos.items() if len(p) == 2}

    def introduce_crosscaps(self, finished: set):
        reserved = self._reserved()
        name = self.single_name()
        while True:
            self.spend("cross-cap introduction")
            w = self.faces[name]
            n = len(w)
            pairs = self._pair_positions(w)
            chosen = None
            for e in sorted(pairs):
                if e in reserved or e in finished:
                    continue
                i, j = pairs[e]
                if w[i] != w[j]:
                    continue  # opposite signs: handle material
                if j == (i + 1) % n or i == (j + 1) % n:
                    finished.add(e)  # already an adjacent cross-cap
                    continue
                chosen = (i, j)
                break
            if chosen is None:
                return
            i, j = chosen
            rot = rotate(w, i)
            k = (j - i) % n
            x, y = rot[1:k], rot[k + 1:]
            b = EdgeSym(self.fresh_edge(), 1)
            finished.add(b.name)
            self.mutate(
                {name: (b, b) + inverse_word(y) + x},
                "composite",
                "make_crosscap",
                (repr(rot[0]), b.name),
            )

    # -- step 4: handles, mixed conversion, loop grouping --------------------------

    def introduce_handles(self, finished: set):
        reserved = self._reserved()
        name = self.single_name()
        while True:
            self.spend("handle introduction")
            w = self.faces[name]
            n = len(w)
            pairs = self._pair_positions(w)
            open_edges = sorted(
                e for e in pairs if e not in reserved and e not in finished
            )
            if not open_edges:
                return
            a = open_edges[0]
            i, j = pairs[a]
            if w[i] == w[j]:
                raise InternalInvariantViolation(
                    f"same-sign pair {a!r} survived the cross-cap step"
                )
            if w[i].sign < 0:
                i = j
            rot = rotate(w, i)
            k = next(t for t in range(1, n) if rot[t].name == a)
            partner = None
            for e in open_edges:
                if e == a:
                    continue
                ps = [t for t, s in enumerate(rot) if s.name == e]
                if (ps[0] < k) != (ps[1] < k):
                    partner = (e, ps[0], ps[1])
                    break
            if partner is None:
                raise InternalInvariantViolation(
                    f"pair {a!r} interleaves with no open pair"
                )
            e, j1, j2 = partner
            if rot[j2] != rot[j1].inv():
                raise InternalInvariantViolation(f"pair {e!r} is not opposite-signed")
            u, v = rot[1:j1], rot[j1 + 1:k]
            x, y = rot[k + 1:j2], rot[j2 + 1:]
            c = EdgeSym(self.fresh_edge(), 1)
            d = EdgeSym(self.fresh_edge(), 1)
            finished.update((c.name, d.name))
            self.mutate(
                {name: (c, d, c.inv(), d.inv()) + y + x + v + u},
                "composite",
                "make_handle",
                (a, e, c.name, d.name),
            )

    @staticmethod
    def _find_crosscap(w: Word, border: set):
        n = len(w)
        for i in range(n):
            if n >= 2 and w[(i + 1) % n] == w[i] and w[i].name not in border:
                return i
        return None

    @staticmethod
    def _find_handle(w: Word, border: set, lo: int = 0):
        for i in range(lo, len(w) - 3):
            if (
                w[i + 2] == w[i].inv()
                and w[i + 3] == w[i + 1].inv()
                and w[i].name != w[i + 1].name
                and w[i].name not in border
                and w[i + 1].name not in border
            ):
                return i
        return None

    def convert_mixed(self, finished: set):
        name = self.single_name()
        while True:
            self.spend("mixed conversion")
            w = self.faces[name]
            border = {
                e for e, o in self.complex().edge_occurrences.items() if len(o) == 1
            }
            ci = self._find_crosscap(w, border)
            if ci is None:
                return
            rot = rotate(w, ci)
            hi = self._find_handle(rot, border, lo=2)
            if hi is None:
                return
            x, y = rot[2:hi], rot[hi + 4:]
            a2 = EdgeSym(self.fresh_edge(), 1)
            c1 = EdgeSym(self.fresh_edge(), 1)
            b1 = EdgeSym(self.fresh_edge(), 1)
            finished.update((a2.name, c1.name, b1.name))
            self.mutate(
                {name: (a2, a2) + x + (c1, c1, b1, b1) + y},
                "composite",
                "handle_crosscap_to_crosscaps",
                (repr(rot[0]), repr(rot[hi]), repr(rot[hi + 1])),
            )

    def _loop_starts(self, w: Word, border: set) -> list:
        n = len(w)
        return [
            i
            for i in range(n)
            if w[(i + 1) % n].name in border and w[(i + 2) % n] == w[i].inv()
        ]

    def group_loops(self):
        name = self.single_name()
        while True:
            self.spend("loop grouping")
            w = self.faces[name]
            n = len(w)
            border = {
                e for e, o in self.complex().edge_occurrences.items() if len(o) == 1
            }
            starts = sorted(self._loop_starts(w, border))
            if len(starts) != len(border):
                raise InternalInvariantViolation("a loop lost its shape")
            if len(starts) <= 1:
                return
            m = len(starts)
            gaps = [(starts[(t + 1) % m] - (s + 3)) % n for t, s in enumerate(starts)]
            nz = [t for t in range(m) if gaps[t]]
            if len(nz) <= 1:
                return
            # the rewrite merges gap t leftward into gap t-1.  Targeting
            # the nonzero gap with the fewest zero gaps to its left makes
            # (#nonzero gaps, that distance) strictly decrease, so the
            # grouping cannot cycle however the word gets re-rotated.
            def left_zeros(t):
                d = 0
                j = (t - 1) % m
                while gaps[j] == 0:
                    d += 1
                    j = (j - 1) % m
                return d

            t = min(nz, key=lambda t: (left_zeros(t), t))
            s1, s2 = starts[t], starts[(t + 1) % len(starts)]
            rot = rotate(w, s1)
            k = (s2 - s1) % n
            x, l2, y = rot[3:k], rot[k:k + 3], rot[k + 3:]
            c1 = EdgeSym(self.fresh_edge(), 1)
            self.mutate(
                {name: (c1, rot[1], c1.inv()) + l2 + y + x},
                "composite",
                "group_loops",
                (repr(rot[1]), repr(rot[k + 1])),
            )

    # -- final assembly --------------------------------------------------------

    def assemble(self) -> NormalizationResult:
        predicted = _predict(*self.expected)
        name = self.single_name()
        w = self.faces[name]
        if not w:
            return self.finish(NormalForm(TYPE_I, 0, 0))
        border = {e for e, o in self.complex().edge_occurrences.items() if len(o) == 1}
        parsed = None
        for r in range(len(w)):
            got = _parse_blocks(rotate(w, r), border)
            if got is not None and not (got[0] and got[1]):
                parsed = (r,) + got
                break
        if parsed is None:
            raise InternalInvariantViolation(
                f"final word is not canonical: {format_word(w)}"
            )
        r, crosscaps, handles, loops = parsed
        if crosscaps:
            got_form = NormalForm(TYPE_II, len(crosscaps), len(loops))
        else:
            got_form = NormalForm(TYPE_I, len(handles), len(loops))
        if got_form != predicted:
            raise InternalInvariantViolation(
                f"normalized to {got_form}, invariants predict {predicted}"
            )
        rot = rotate(w, r)
        mapping = {}
        if crosscaps:
            for i, s in enumerate(crosscaps, start=1):
                mapping[s] = EdgeSym(f"a{i}", 1)
        else:
            for i, (s, t) in enumerate(handles, start=1):
                mapping[s] = EdgeSym(f"a{i}", 1)
                mapping[t] = EdgeSym(f"b{i}", 1)
        for j, (s, t) in enumerate(loops, start=1):
            mapping[s] = EdgeSym(f"c{j}", 1)
            mapping[t] = EdgeSym(f"h{j}", 1)
        full = {}
        for old, new in mapping.items():
            full[old] = new
            full[old.inv()] = new.inv()
        relabeled = tuple(full[s] for s in rot)
        if relabeled != canonical_word(got_form):
            raise InternalInvariantViolation(
                f"relabeled word {format_word(relabeled)} is not canonical"
            )
        self.mutate({name: relabeled}, "composite", "canonical_relabel", ())
        return self.finish(got_form)

    def finish(self, form: NormalForm) -> NormalizationResult:
        name = self.single_name()
        if name != "A":
            self.mutate(
                {name: None, "A": self.faces[name]}, "composite", "rename_face", (name,)
            )
        K = self.complex()
        check = is_canonical(K)
        if check != form:
            raise InternalInvariantViolation(
                f"final complex parses as {check}, expected {form}"
            )
        return NormalizationResult(
            normal=form,
            canonical_word=K.faces[0][1],
            trace=tuple(self.trace),
            complex=K,
        )


def normalize(K: CellComplex) -> NormalizationResult:
    """Drive K to its canonical cell complex; the trace records every step."""
    rw = _Rewriter(K)
    rw.sweep_cancel()
    if rw.is_sphere_state():
        return rw.finish(NormalForm(TYPE_I, 0, 0))
    rw.reduce_inner_vertices()
    if rw.is_sphere_state():
        return rw.finish(NormalForm(TYPE_I, 0, 0))
    rw.ensure_inner_vertex()
    rw.reduce_border_vertices()
    rw.merge_faces()
    if rw.is_sphere_state():
        return rw.finish(NormalForm(TYPE_I, 0, 0))
    finished: set = set()
    rw.introduce_crosscaps(finished)
    rw.introduce_handles(finished)
    rw.convert_mixed(finished)
    rw.group_loops()
    return rw.assemble()


# ---------------------------------------------------------------------------
# scramble: seeded random walk through equivalent complexes


def scramble(K: CellComplex, seed: int, n_moves: int) -> CellComplex:
    """Apply n random applicable moves; the result is equivalent to K."""
    rng = random.Random(seed)
    cur = K
    counter = _fresh_start(K)
    for _ in range(n_moves):
        cur, counter = scramble_step(cur, rng, counter)
    return cur


def scramble_step(K: CellComplex, rng: random.Random, counter: int):
    """One uniformly chosen applicable move; returns (complex, counter)."""
    candidates = []
    for e in K.edges:
        candidates.append(("p1", e))
    for name, w in K.faces:
        if w:
            for p in range(1, len(w)):
                candidates.append(("p2", name, p))
        else:
            candidates.append(("p2empty", name))
    for v in K.vertices():
        if len(v.members) == 2:
            x, y = v.members
            if x.name != y.name:
                if sym_key(x) > sym_key(y):
                    x, y = y, x
                candidates.append(("p1inv", repr(x), repr(y.inv())))
    names = [n for n, _ in K.faces]
    for e, occ in sorted(K.edge_occurrences.items()):
        if len(occ) == 2 and occ[0][0] != occ[1][0]:
            candidates.append(("p2inv", names[occ[0][0]], names[occ[1][0]], e))
    move = rng.choice(candidates)
    if move[0] == "p1":
        b, c = f"_g{counter}", f"_g{counter + 1}"
        return apply_p1(K, move[1], b, c), counter + 2
    if move[0] == "p2":
        return apply_p2(K, move[1], move[2], f"_g{counter}"), counter + 1
    if move[0] == "p2empty":
        # cut the null-boundary face into two lunes sharing one chord
        faces = dict(K.faces)
        other = _free_face_name(faces, move[1])
        d = f"_g{counter}"
        return _rebuild(K, _split_face(faces, move[1], 0, d, other)), counter + 1
    if move[0] == "p1inv":
        return apply_p1_inverse(K, move[1], move[2], f"_g{counter}"), counter + 1
    return apply_p2_inverse(K, move[1], move[2], move[3]), counter
