"""Spans and counters at surfclass module boundaries, from outside ``src/``.

``Tracer.install`` replaces the public functions each layer's callers
look up (module attributes and two class methods) with wrappers that
record a span per call; ``uninstall`` puts the originals back.  Spans
of one op share its id and carry their parent's id.  They stay in
memory until the run ends.  Counter upkeep after a call is itself
recorded as a ``trace.counters`` span, so it is not billed to the
caller's self time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

COUNTERS_SPAN = "trace.counters"


def _nnz(M):
    return len(M.entries) - M.entries.count(0)


def _letters(K):
    return sum(len(w) for _, w in K.faces)


def _count(key):
    def bump(counts, args, result):
        counts[key] += 1
    return bump


def _parse(counts, args, result):
    counts["fileio.parse.calls"] += 1
    counts["fileio.bytes_in"] += len(args[0].encode("utf-8"))


def _normalize(counts, args, result):
    counts["rewrite.normalize.calls"] += 1
    counts["rewrite.moves"] += len(result.trace)
    counts["rewrite.letters"] += _letters(args[0])


def _refine(counts, args, result):
    counts["simplicial.refine.calls"] += 1
    counts["simplicial.refine.triangles"] += len(result[1].triangles)


def _snf_of(arg_index):
    def bump(counts, args, result):
        counts["intlinalg.snf.calls"] += 1
        counts["intlinalg.snf.nnz_in"] += _nnz(args[arg_index])
    return bump


def _mul(counts, args, result):
    counts["intlinalg.mul.calls"] += 1
    counts["intlinalg.mul.cells"] += args[0].rows * args[1].cols


def _scene(counts, args, result):
    counts["planegeom.ifs_iterate.calls"] += 1
    counts["planegeom.ifs_iterate.primitives"] += len(result.primitives)


def _hausdorff(counts, args, result):
    counts["planegeom.hausdorff.calls"] += 1
    counts["planegeom.hausdorff.points"] += len(args[0]) + len(args[1])


def _render(counts, args, result):
    counts["svg.render.calls"] += 1
    counts["svg.bytes_out"] += len(result.encode("utf-8"))


def boundaries(sc):
    """(owner, attribute, span name, counter) for every wrapped boundary."""
    cli, fileio, svg = sc.cli, sc.fileio, sc.svg
    return [
        (fileio, "parse_cell_complex", "fileio.parse", _parse),
        (fileio, "parse_simplicial", "fileio.parse", _parse),
        (fileio, "parse_points", "fileio.parse", _parse),
        (fileio, "parse_ifs", "fileio.parse", _parse),
        (fileio, "build", "cellcomplex.build", _count("cellcomplex.build.calls")),
        (sc.rewrite, "build", "cellcomplex.build", _count("cellcomplex.build.calls")),
        (sc.simplicial, "build_complex", "cellcomplex.build", _count("cellcomplex.build.calls")),
        (sc.cellcomplex.CellComplex, "invariant_report", "cellcomplex.invariant_report",
         _count("cellcomplex.invariant_report.calls")),
        (cli, "normalize", "rewrite.normalize", _normalize),
        (sc.classify, "normalize", "rewrite.normalize", _normalize),
        (cli, "classify_surface", "classify.classify", _count("classify.classify.calls")),
        (cli, "refine_to_triangulation", "simplicial.refine", _refine),
        (cli, "validate_closed_surface", "simplicial.validate", _count("simplicial.validate.calls")),
        (cli, "validate_bordered_surface", "simplicial.validate", _count("simplicial.validate.calls")),
        (cli, "to_cell_complex", "simplicial.to_cell_complex", _count("simplicial.to_cell_complex.calls")),
        (cli, "homology", "simplicial.homology", _count("simplicial.homology.calls")),
        (sc.simplicial, "boundary_matrices", "simplicial.boundary_matrices",
         _count("simplicial.boundary_matrices.calls")),
        (sc.simplicial, "rank", "intlinalg.snf", _snf_of(0)),
        (sc.simplicial, "smith_normal_form", "intlinalg.snf", _snf_of(0)),
        (sc.simplicial, "cokernel", "intlinalg.snf", _snf_of(1)),
        (sc.intlinalg.IntMatrix, "mul", "intlinalg.mul", _mul),
        (cli, "ifs_iterate", "planegeom.ifs_iterate", _scene),
        (cli, "snowflake", "planegeom.ifs_iterate", _scene),
        (cli, "hausdorff_distance", "planegeom.hausdorff", _hausdorff),
        (cli, "winding_number", "planegeom.winding", _count("planegeom.winding.calls")),
        (svg, "render_svg", "svg.render", _render),
    ]


class Tracer:
    def __init__(self):
        self.spans = []          # (op id, span id, parent id, name, start, end)
        self.counts = defaultdict(int)
        self._stack = []
        self._op = None
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (self._op, sid, parent, name, start, end)

    def call(self, name, fn, args, kwargs, counter=None):
        sid = self._open()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid, name, start, perf_counter())
        if counter is not None:
            cid = self._open()
            t = perf_counter()
            counter(self.counts, args, result)
            self._close(cid, COUNTERS_SPAN, t, perf_counter())
        return result

    def run_op(self, op_id, fn, *args):
        """One op as the root ``cli`` span."""
        self._op = op_id
        try:
            return self.call("cli", fn, args, {})
        finally:
            self._op = None

    # -- wrapping ---------------------------------------------------------

    def install(self, sc):
        for owner, attr, name, counter in boundaries(sc):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Span name -> summed self time (duration minus child spans)."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out
