"""Elementary subdivision moves and normalization to canonical form.

Two elementary moves generate the equivalence of cell complexes:

* P1 splits an edge ``a`` into ``b c`` everywhere (and ``a'`` into
  ``c' b'``); its inverse contracts such a pair when ``(b, c')`` is a
  two-element vertex.
* P2 cuts one face in two along a fresh chord between two of its
  corners; its inverse merges two distinct faces sharing an edge.

``normalize`` drives a complex to the canonical single-face form:
handles ``a b a' b'`` (orientable) or cross-caps ``a a`` otherwise,
followed by one loop ``c h c'`` per boundary circle.  A face's word is
cyclic and reads either way, so rotating or reorienting it is no move.
Each word rule (cross-cap rule, handle rule, handle+cross-cap
conversion, loop grouping) is one splice record: rotate the face's word
to a start, cut it into slices and write a template of slices, inverted
slices and letters.  The word phases only choose the next record;
``_Rewriter.splice`` applies it as a single trace step.  Two composite
moves write a whole word instead: ``x x'`` cancellation, one move per
face that holds a pair, and the closing canonical relabel.

Every move, public or internal, runs on one engine: the public
``apply_*``, ``scramble`` and ``normalize`` all apply their moves
through the same rewriter state, and each move is checked as strictly
as :func:`build` plus a comparison of invariants, without rebuilding
the complex.  The rewriter checks the names of new faces and new
edges; then one pass of :func:`~surfclass.cellcomplex.count_invariants`
over all faces decides every edge's multiplicity, connectivity and the
(orientability, contour count, Euler characteristic) key, and its slot
maps are the edge views until the next move.  A failed check re-runs
``build``, which raises the same error as for a complex built from
scratch; a changed key raises InternalInvariantViolation.  The word
surgery of the moves lives in :mod:`surfclass.edgeword`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .cellcomplex import (
    BORDER,
    INNER,
    CellComplex,
    build,
    checked_complex,
    count_invariants,
)
from .edgeword import (
    EdgeSym,
    Word,
    cancel_inverse_pairs,
    contract_pair,
    format_word,
    fresh_start,
    inverse_word,
    merge_words,
    rotate,
    split_face,
    subst_p1,
    sym,
    sym_key,
    valid_name,
)
from .errors import (
    BadPositionError,
    EdgeMultiplicityError,
    EdgeNotFoundError,
    FaceNotFoundError,
    InfeasibleInvariantsError,
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


# ---------------------------------------------------------------------------
# elementary moves (public API): the argument checks, then one checked
# engine move


def apply_p1(K: CellComplex, edge: str, b: str, c: str) -> CellComplex:
    """Split ``edge`` into the string ``b c`` in every boundary."""
    if edge not in K.edges:
        raise EdgeNotFoundError(f"no edge {edge!r}")
    if b == c or b in K.edges or c in K.edges:
        raise NameCollisionError(f"names {b!r}, {c!r} must be fresh and distinct")
    return _Rewriter(K).p1(edge, b, c).complex()


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
    order, at = K._vertex_order
    run = order[at[b]][1]
    if len(run) != 2 or set(run) != {b, c.inv()}:
        raise NotContractibleError(f"({b!r}, {c.inv()!r}) is not a two-element vertex")
    return _Rewriter(K).p1_inverse(b, c, fresh).complex()


def _free_face_name(faces: dict, base: str) -> str:
    k = 2
    while f"{base}_{k}" in faces:
        k += 1
    return f"{base}_{k}"


def apply_p2(K: CellComplex, face: str, p: int, d: str) -> CellComplex:
    """Cut ``face`` at position p along a fresh chord ``d``.

    The two pieces keep the old name and get a derived sibling name,
    placed right after it.
    """
    fm = K.face_map
    if face not in fm:
        raise FaceNotFoundError(f"no face {face!r}")
    w = fm[face]
    if not 1 <= p < len(w):
        raise BadPositionError(f"position {p} out of range for length {len(w)}")
    if d in K.edges:
        raise NameCollisionError(f"name {d!r} already in use")
    return _Rewriter(K).p2(face, 0, p, d).complex()


def apply_p2_inverse(K: CellComplex, face1: str, face2: str, edge: str) -> CellComplex:
    """Merge two distinct faces along ``edge``, deleting it."""
    fm = K.face_map
    if face1 not in fm or face2 not in fm:
        raise FaceNotFoundError(f"faces {face1!r}, {face2!r} must exist")
    if face1 == face2:
        raise NotMergeableError("cannot merge a face with itself")
    first, last, face = K._counts[3]
    if first.get(edge, -1) == last.get(edge, -1):  # no such edge, or a border edge
        raise NotMergeableError(f"edge {edge!r} is not shared by two faces")
    names = [n for n, _ in K.faces]
    if {names[face[first[edge]]], names[face[last[edge]]]} != {face1, face2}:
        raise NotMergeableError(f"edge {edge!r} does not join {face1!r} and {face2!r}")
    return _Rewriter(K).p2_inverse(face1, face2, edge).complex()


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


# the word phases' rule matchers, each read at w[i] cyclically


def _is_crosscap(w: Word, i: int) -> bool:
    """``x x``.  Where ``mixed_step`` can act the word has at least six
    letters, so the two positions differ; x then occurs twice, and as no
    edge occurs more than twice, x is inner."""
    return w[(i + 1) % len(w)] == w[i]


def _is_handle(w: Word, i: int) -> bool:
    """``x y x' y'``.  Where ``mixed_step`` can act the four positions
    differ, so x and y occur twice each and are inner; and x, y differ,
    as one edge would otherwise occur four times."""
    n = len(w)
    return w[(i + 2) % n] == w[i].inv() and w[(i + 3) % n] == w[(i + 1) % n].inv()


def _is_loop(w: Word, i: int, border) -> bool:
    """``c h c'`` around a border edge h."""
    n = len(w)
    return w[(i + 1) % n].name in border and w[(i + 2) % n] == w[i].inv()


def _reads_as(w: Word, target: Word) -> bool:
    """Whether some rotation of w reads exactly ``target`` under a one-to-one
    renaming of edges, where each renaming may invert its edge."""
    if len(w) != len(target):
        return False
    for r in range(len(w) or 1):  # the empty word is its own one rotation
        forward, back = {}, {}  # edge -> (target edge, sign); target edge -> edge
        for s, t in zip(rotate(w, r), target):
            to = (t.name, s.sign * t.sign)
            if forward.setdefault(s.name, to) != to or back.setdefault(t.name, s.name) != s.name:
                break
        else:
            return True
    return False


def is_canonical(K: CellComplex):
    """K's NormalForm if K is one face that reads as its canonical word, else None."""
    if len(K.faces) != 1:
        return None
    form = normal_form_from_invariants(*K.invariant_report().key())
    return form if _reads_as(K.faces[0][1], canonical_word(form)) else None


# ---------------------------------------------------------------------------
# normalization


def normal_form_from_invariants(orientable: bool, q: int, euler: int) -> NormalForm:
    """Solve 2 - 2p - q = chi (type I) or 2 - p - q = chi (type II)."""
    if q < 0:
        raise InfeasibleInvariantsError(f"negative contour count {q}")
    if orientable:
        g2 = 2 - euler - q
        if g2 < 0 or g2 % 2:
            raise InfeasibleInvariantsError(
                f"(orientable, q={q}, chi={euler}) is not a surface signature"
            )
        return NormalForm(TYPE_I, g2 // 2, q)
    p = 2 - euler - q
    if p < 1:
        raise InfeasibleInvariantsError(
            f"(nonorientable, q={q}, chi={euler}) is not a surface signature"
        )
    return NormalForm(TYPE_II, p, q)


class _Rewriter:
    """Mutable complex state: ordered face words, their counts (whose slot
    maps give the edge views), the fresh-name counter and the move trace.
    Every move, public or internal, is applied and checked by :meth:`mutate`."""

    def __init__(self, K: CellComplex):
        self.faces = dict(K.faces)
        self.trace = []
        self.counts = K._counts  # count_invariants of the current faces
        self.counter = fresh_start([*self.counts[3][0], *self.faces])
        self.expected = self.counts[0].key()
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
        """The current faces as a complex, for its views; every move has
        already been checked, so it is not validated again."""
        if self._cache is None:
            self._cache = checked_complex(tuple(self.faces.items()), self.counts)
        return self._cache

    def border_edges(self) -> set:
        first, last, _ = self.counts[3]
        return {e for e, u in first.items() if u == last[e]}

    def inner_edges(self) -> dict:
        """Inner edge -> its two slots, which on a single face are positions."""
        first, last, _ = self.counts[3]
        return {e: (u, last[e]) for e, u in first.items() if u != last[e]}

    def spend(self, phase: str):
        self.budget -= 1
        if self.budget <= 0:
            raise InternalInvariantViolation(f"{phase} did not terminate")

    def mutate(self, changes: dict, kind: str, rule: str, args: tuple, beside=None):
        """Apply ``changes`` (face -> new word, or None to drop), record,
        check.  New faces go last, or right after the face ``beside``."""
        before = tuple((n, self.faces[n]) for n in changes if n in self.faces)
        for n, w in changes.items():
            if w is None:
                del self.faces[n]
            else:
                self.faces[n] = w
        after = tuple((n, w) for n, w in changes.items() if w is not None)
        if beside is not None:
            old = {n for n, _ in before}
            new = [n for n, _ in after if n not in old]
            names = [n for n in self.faces if n not in new]
            i = names.index(beside) + 1
            self.faces = {n: self.faces[n] for n in names[:i] + new + names[i:]}
        self.trace.append(Move(kind, rule, args, before, after))
        self._cache = None
        self.check(before, after)
        try:
            self.counts = report, component, *_ = count_invariants(list(self.faces.values()))
        except EdgeMultiplicityError:
            self.reject()
        if any(component):
            self.reject()
        if report.key() != self.expected:
            raise InternalInvariantViolation(
                f"{kind}:{rule or '-'} changed invariants on {self.complex().describe()}"
            )
        return self

    def check(self, before: tuple, after: tuple):
        """:func:`build`'s name checks on the changed faces: a face is left, and
        new face names and new edge names (not in the before-words) are valid."""
        new = {n for n, _ in after} - {n for n, _ in before}
        new |= {s.name for _, w in after for s in w} - {s.name for _, w in before for s in w}
        if not self.faces or not all(valid_name(n, internal=True) for n in new):
            self.reject()

    def joins(self) -> list:
        """(edge, face1, face2) for every edge on two distinct faces, by
        edge name, with face1 before face2 in face order."""
        first, last, face = self.counts[3]
        names = list(self.faces)
        pairs = ((e, face[first[e]], face[last[e]]) for e in sorted(first))
        return [(e, names[f1], names[f2]) for e, f1, f2 in pairs if f1 != f2]

    def reject(self):
        """Raise the error :func:`build` gives for the current faces."""
        build(self.faces, internal=True)
        raise InternalInvariantViolation("the per-move check and build disagree")

    # -- the elementary moves; each returns the rewriter ----------------------

    def p1(self, edge: str, b: str, c: str):
        """P1: split ``edge`` into the string ``b c`` in every boundary."""
        split = {edge: (b, c)}
        changes = {n: x for n, w in self.faces.items() if (x := subst_p1(w, split)) != w}
        return self.mutate(changes, "P1", "", (edge, b, c))

    def p1_inverse(self, b: EdgeSym, c: EdgeSym, fresh: str):
        """P1 inverse: contract the adjacent string ``b c`` to ``fresh``."""
        faces = self.faces.items()
        changes = {n: x for n, w in faces if (x := contract_pair(w, b, c, fresh)) != w}
        if not any(s.name == fresh for w in changes.values() for s in w):
            raise InternalInvariantViolation(f"contraction of {b!r} {c!r} matched nothing")
        return self.mutate(changes, "P1inv", "", (repr(b), repr(c), fresh))

    def p2(self, face: str, start: int, p: int, d: str, pieces=None):
        """P2: cut ``face`` along a fresh chord ``d`` from corner ``start``
        to corner ``start + p``: its word w, read from ``start``, becomes
        ``w[:p] d`` and ``d' w[p:]``.  ``pieces`` names the two, appended
        after the other faces; by default the first keeps the face's name
        and place and the second takes a sibling name right after it."""
        u, v = split_face(rotate(self.faces[face], start), p, d)
        if pieces is None:
            other = _free_face_name(self.faces, face)
            changes, beside = {face: u, other: v}, face
        else:
            # a piece named like the face keeps its place
            changes, beside = {face: None, pieces[0]: u, pieces[1]: v}, None
        return self.mutate(changes, "P2", "", (face, start, p, d), beside)

    def p2_inverse(self, face1: str, face2: str, edge: str):
        """P2 inverse: merge ``face2`` into ``face1`` along ``edge``."""
        merged = merge_words(self.faces[face1], self.faces[face2], edge)
        return self.mutate({face1: merged, face2: None}, "P2inv", "", (face1, face2, edge))

    # -- normalization ----------------------------------------------------------

    def splice(self, name: str, start: int, cuts: tuple, template: tuple, rule: str, args: tuple):
        """A composite move on face ``name``: rotate its word to ``start``,
        cut it at ``cuts`` into slices and write ``template``, where an int
        k is slice k, ``~k`` is slice k inverted and an EdgeSym is itself."""
        w = rotate(self.faces[name], start)
        ends = (0, *cuts, len(w))
        parts = [w[s:t] for s, t in zip(ends, ends[1:])]
        new = []
        for x in template:
            if isinstance(x, EdgeSym):
                new.append(x)
            else:
                new += parts[x] if x >= 0 else inverse_word(parts[~x])
        return self.mutate({name: tuple(new)}, "composite", rule, args)

    def single_name(self) -> str:
        return next(iter(self.faces))

    def is_sphere_state(self) -> bool:
        return len(self.faces) == 1 and not self.faces[self.single_name()]

    # -- step 1: cancel a a' ------------------------------------------------

    def sweep_cancel(self):
        """One move per face that holds an ``x x'`` pair: it writes the
        cancelled word, its arguments the cancelled edges by name."""
        for name, w in list(self.faces.items()):
            x = cancel_inverse_pairs(w)
            if x != w:
                gone = sorted({s.name for s in w} - {s.name for s in x})
                self.mutate({name: x}, "composite", "cancel_inverse_pairs", tuple(gone))
                self.spend("cancellation sweep")

    # -- the vertex view -------------------------------------------------------

    def vertices(self, kind: str) -> list:
        """The ``_vertex_order`` runs of ``kind`` (INNER or BORDER), in that
        order, each as the walk read it.  Exact, as every reader is blind
        to rotating an inner run and to reversing any run: the keep and
        small picks compare member counts, ties to the first;
        ``_pick_pair`` takes the least of a run's set of adjacent ordered
        pairs, on a border run ranked by its ends and by membership; the
        loop test and ``_reserved`` read the middle member and the names
        at the ends; ``ensure_inner_vertex`` tests truthiness; and
        ``reduce_border_vertices`` sorts a two-member run by ``sym_key``."""
        return [r for k, r in self.complex()._vertex_order[0] if k == kind]

    # -- elimination primitive ------------------------------------------------

    def eliminate(self, anchor: EdgeSym, victim: EdgeSym):
        """Remove the victim's edge: one P2 cuts the window ``anchor
        victim'`` (or its inverse ``victim anchor'``) off its face, face by
        face and the first window first, and one P2 inverse merges that
        small face into the holder of the victim's other occurrence, which
        the slot maps name: the victim's edge is inner, and the anchor's
        edge is another, so the small face holds one of its two slots."""
        windows = ((anchor, victim.inv()), (victim, anchor.inv()))
        found = next(
            (
                (name, i)
                for name, w in self.faces.items()
                for x, y in windows
                for i in range(len(w))
                if w[i] == x and w[(i + 1) % len(w)] == y
            ),
            None,
        )
        if found is None:
            raise InternalInvariantViolation(f"adjacency {anchor!r} {victim.inv()!r} not found")
        name, i = found
        # split off the small face (the window, then c); remainder keeps the rest
        c = self.fresh_edge()
        small, rest = self.fresh_face(), self.fresh_face()
        self.p2(name, i, 2, c, (small, rest))
        # merge the small face into the holder of the other victim occurrence
        first, last, face = self.counts[3]
        names = list(self.faces)
        f1, f2 = (names[face[slot[victim.name]]] for slot in (first, last))
        other = f2 if f1 == small else f1
        self.p2_inverse(other, small, victim.name)

    # -- step 2a: one inner vertex --------------------------------------------

    def reduce_inner_vertices(self):
        """Eliminate inner vertices until at most one is left.

        The survivor is the inner vertex with the most members, and each
        step eliminates one corner of the other inner vertex with the
        fewest members; both ties go to the first in canonical order.
        Each elimination moves one corner of that small vertex onto
        another, and its last corner goes with an ``x x'`` cancellation,
        so the cost follows the small vertices instead of the big one.
        """
        while True:
            self.spend("inner vertex reduction")
            self.sweep_cancel()
            if self.is_sphere_state():
                return
            inner = self.vertices(INNER)
            if len(inner) <= 1:
                return
            keep = max(inner, key=len)
            small = min((r for r in inner if r is not keep), key=len)
            anchor, victim = self._pick_pair(small, INNER)
            self.eliminate(anchor, victim)

    def _pick_pair(self, members: list, kind: str, inner_run: list = None):
        """Least (anchor, victim): adjacent members of the run, victim's edge
        inner, anchor's inverse outside the run, distinct underlying edges."""
        n = len(members)
        inner_edges = self.inner_edges()
        if kind == INNER:
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
            if kind == BORDER:
                if ai in (0, n - 1):
                    rank = 0  # extremal border anchor: preferred
                elif inner_run is not None and a.inv() in inner_run:
                    rank = 1
                else:
                    rank = 2
            pairs.append((rank, sym_key(a), sym_key(vic), a, vic))
        if not pairs:
            raise InternalInvariantViolation(f"no eliminable pair in {members}")
        pairs.sort(key=lambda t: t[:3])
        return pairs[0][3], pairs[0][4]

    def ensure_inner_vertex(self):
        if self.vertices(INNER):
            return
        name = next(iter(self.faces))
        d = self.fresh_edge()
        self.p2(name, 0, len(self.faces[name]), d, (name, self.fresh_face()))
        self.p1(d, self.fresh_edge(), self.fresh_edge())
        if not self.vertices(INNER):
            raise InternalInvariantViolation("failed to create an inner vertex")

    # -- step 2b: border vertices into loop shape --------------------------------

    @staticmethod
    def _is_loop_vertex(m: list, inner_edges: dict) -> bool:
        return len(m) == 3 and m[0] == m[2].inv() and m[1].name in inner_edges

    def reduce_border_vertices(self):
        while True:
            self.spend("border vertex reduction")
            self.sweep_cancel()
            inner_edges = self.inner_edges()
            offending = [
                r for r in self.vertices(BORDER) if not self._is_loop_vertex(r, inner_edges)
            ]
            if not offending:
                return
            run = offending[0]
            if len(run) == 2:
                x, y = sorted(run, key=sym_key)
                if x == y.inv():
                    raise InternalInvariantViolation(
                        f"bare border vertex {run} after inner-vertex step"
                    )
                self.p1_inverse(x, y.inv(), self.fresh_edge())
            else:
                inner = self.vertices(INNER)
                anchor, victim = self._pick_pair(run, BORDER, inner[0] if inner else None)
                self.eliminate(anchor, victim)

    # -- steps 3 and 4: merge faces, then shape the single word ------------------

    def merge_faces(self):
        while len(self.faces) > 1:
            self.spend("face merging")
            joins = self.joins()
            if not joins:
                raise InternalInvariantViolation("multiple faces but no shared edge")
            e, f1, f2 = joins[0]
            self.p2_inverse(f1, f2, e)

    def _reserved(self) -> set:
        """Edges locked inside loops: each hole edge plus its collar."""
        inner_edges = self.inner_edges()
        out = set()
        for r in self.vertices(BORDER):
            if not self._is_loop_vertex(r, inner_edges):
                raise InternalInvariantViolation(f"non-loop border vertex {r}")
            out.add(r[0].name)
            out.add(r[1].name)
        return out

    def shape_word(self):
        """Steps 3 and 4 on the single face: four phases, each a chooser
        ``step(w)`` that returns the next splice record ``(start, cuts,
        template, rule, args)`` for the word, or None when it is done."""
        finished: set = set()
        crosscaps = partial(self.crosscap_step, self._reserved(), finished)
        self.run_phase("cross-cap introduction", crosscaps)
        handles = partial(self.handle_step, self._reserved(), finished)
        self.run_phase("handle introduction", handles)
        self.run_phase("mixed conversion", self.mixed_step)
        self.run_phase("loop grouping", self.loop_step)

    def run_phase(self, phase: str, step):
        """Splice what ``step`` chooses until it returns None; one spend a pass."""
        name = self.single_name()
        while True:
            self.spend(phase)
            record = step(self.faces[name])
            if record is None:
                return
            self.splice(name, *record)

    def crosscap_step(self, reserved: set, finished: set, w: Word):
        """``e x e y`` -> ``b b y' x`` for the least open same-sign pair e."""
        n = len(w)
        pairs = self.inner_edges()
        for e in sorted(pairs):
            if e in reserved or e in finished:
                continue
            i, j = pairs[e]
            if w[i] != w[j]:
                continue  # opposite signs: handle material
            k = j - i
            if k in (1, n - 1):
                finished.add(e)  # already an adjacent cross-cap
                continue
            b = EdgeSym(self.fresh_edge(), 1)
            finished.add(b.name)
            return i, (1, k, k + 1), (b, b, ~3, 1), "make_crosscap", (repr(w[i]), b.name)
        return None

    def handle_step(self, reserved: set, finished: set, w: Word):
        """``a u e v a' x e' y`` -> ``c d c' d' y x v u`` for the least open
        pair a and the least open pair e that interleaves with it; a pair
        that already reads as a handle ``a e a' e'`` is finished as it
        stands."""
        n = len(w)
        pairs = self.inner_edges()
        open_edges = sorted(e for e in pairs if e not in reserved and e not in finished)
        while True:
            if not open_edges:
                return None
            a = open_edges[0]
            i, j = pairs[a]
            if w[i] == w[j]:
                raise InternalInvariantViolation(
                    f"same-sign pair {a!r} survived the cross-cap step"
                )
            if w[i].sign < 0:
                i, j = j, i
            k = (j - i) % n
            for e in open_edges[1:]:
                j1, j2 = sorted((t - i) % n for t in pairs[e])
                if (j1 < k) != (j2 < k):
                    break
            else:
                raise InternalInvariantViolation(f"pair {a!r} interleaves with no open pair")
            if w[(i + j2) % n] != w[(i + j1) % n].inv():
                raise InternalInvariantViolation(f"pair {e!r} is not opposite-signed")
            # a and e fill four cyclically adjacent letters: a formed handle
            if sum(g == 1 for g in (j1, k - j1, j2 - k, n - j2)) < 3:
                break
            finished.update((a, e))
            open_edges = [x for x in open_edges if x not in (a, e)]
        c = EdgeSym(self.fresh_edge(), 1)
        d = EdgeSym(self.fresh_edge(), 1)
        finished.update((c.name, d.name))
        cuts = (1, j1, j1 + 1, k, k + 1, j2, j2 + 1)
        return i, cuts, (c, d, c.inv(), d.inv(), 7, 5, 3, 1), "make_handle", (a, e, c.name, d.name)

    def mixed_step(self, w: Word):
        """``x x u a b a' b' v`` -> ``a2 a2 u c1 c1 b1 b1 v`` for the first
        cross-cap and the first handle after it."""
        n = len(w)
        ci = next((i for i in range(n) if _is_crosscap(w, i)), None)
        if ci is None:
            return None
        hi = next((h for h in range(2, n - 3) if _is_handle(w, (ci + h) % n)), None)
        if hi is None:
            return None
        a2, c1, b1 = (EdgeSym(self.fresh_edge(), 1) for _ in range(3))
        args = (repr(w[ci]), repr(w[(ci + hi) % n]), repr(w[(ci + hi + 1) % n]))
        template = (a2, a2, 1, c1, c1, b1, b1, 3)
        return ci, (2, hi, hi + 4), template, "handle_crosscap_to_crosscaps", args

    def loop_step(self, w: Word):
        """``c h c' x l2 y`` -> ``c1 h c1' l2 y x``: the loop before the
        chosen gap x moves up to the next loop l2, and x joins y."""
        n = len(w)
        border = self.border_edges()
        starts = [i for i in range(n) if _is_loop(w, i, border)]
        if len(starts) != len(border):
            raise InternalInvariantViolation("a loop lost its shape")
        if len(starts) <= 1:
            return None
        m = len(starts)
        gaps = [(starts[(t + 1) % m] - (s + 3)) % n for t, s in enumerate(starts)]
        nz = [t for t in range(m) if gaps[t]]
        if len(nz) <= 1:
            return None
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
        s1, s2 = starts[t], starts[(t + 1) % m]
        h = w[(s1 + 1) % n]
        c1 = EdgeSym(self.fresh_edge(), 1)
        k = (s2 - s1) % n
        template = (c1, h, c1.inv(), 2, 3, 1)
        return s1, (3, k, k + 3), template, "group_loops", (repr(h), repr(w[(s2 + 1) % n]))

    # -- the closing step --------------------------------------------------------

    def finish(self) -> NormalizationResult:
        """The single face must read as the canonical word of the form the
        invariants predict; one ``canonical_relabel`` move writes that word
        on a face named A, unless the face already is exactly that."""
        form = normal_form_from_invariants(*self.expected)
        target = canonical_word(form)
        name = self.single_name()
        w = self.faces[name]
        if not _reads_as(w, target):
            raise InternalInvariantViolation(f"final word is not canonical: {format_word(w)}")
        if (name, w) != ("A", target):
            # one key, "A", when the face is already named A
            self.mutate({name: None, "A": target}, "composite", "canonical_relabel", (name,))
        K = self.complex()
        if K.faces != (("A", target),):
            raise InternalInvariantViolation(
                f"final complex {K.describe()} is not canonical for {form}"
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
    rw.reduce_inner_vertices()
    if not rw.is_sphere_state():
        rw.ensure_inner_vertex()
        rw.reduce_border_vertices()
        rw.merge_faces()
        rw.shape_word()
    return rw.finish()


# ---------------------------------------------------------------------------
# scramble: seeded random walk through equivalent complexes


def scramble(K: CellComplex, seed: int, n_moves: int) -> CellComplex:
    """Apply n random applicable moves; the result is equivalent to K."""
    rng = random.Random(seed)
    rw = _Rewriter(K)
    for _ in range(n_moves):
        scramble_step(rw, rng)
    return rw.complex()


def scramble_step(rw: _Rewriter, rng: random.Random):
    """Apply one uniformly chosen applicable move to the rewriter's state.

    The candidates, in order: P1 on every edge by name; P2 at every
    position of every face in face order (position 0 of an empty face,
    which is cut into two lunes); P1 inverse at every two-member vertex
    in canonical vertex order; P2 inverse on every edge by name that
    joins two faces.
    """
    candidates = [("p1", e) for e in sorted(rw.counts[3][0])]
    for name, w in rw.faces.items():
        candidates += [("p2", name, 0, p) for p in range(1, len(w))] if w else [("p2", name, 0, 0)]
    # a two-member vertex reads (x, y) with x the lesser, which orders it
    pairs = (sorted(r, key=sym_key) for _, r in rw.complex()._vertex_order[0] if len(r) == 2)
    candidates += [("p1inv", x, y.inv()) for x, y in pairs if x.name != y.name]
    candidates += [("p2inv", f1, f2, e) for e, f1, f2 in rw.joins()]
    move, *args = rng.choice(candidates)
    if move == "p1":
        rw.p1(args[0], rw.fresh_edge(), rw.fresh_edge())
    elif move == "p2":
        rw.p2(*args, rw.fresh_edge())
    elif move == "p1inv":
        rw.p1_inverse(*args, rw.fresh_edge())
    else:
        rw.p2_inverse(*args)
