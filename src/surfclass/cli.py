"""Command-line front end.

Verbs: validate, classify, normalize, homology, refine, fractal-render,
hausdorff, winding.  Exit status: 0 success, 1 domain error (invalid
complex, infeasible input, unwritable output), 2 usage or parse error.

Each verb appends its text to a list and returns nothing or one note;
``run`` writes the text once, after the verb returns, to the --out file
(UTF-8) or to stdout, then the note to stderr.  A verb that fails writes
nothing, except ``validate``, whose report on a triangulation that is no
surface is written before its error.  Notes go to stderr.

Every library error prints one line ``E_<CODE>: message`` so scripts
can grep for the failure class.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import fileio, svg
from .classify import certified_homology, to_json_dict
from .classify import classify as classify_surface
from .edgeword import format_word
from .errors import (
    FileFormatError,
    InternalInvariantViolation,
    NotASurfaceError,
    RenderLimitError,
    SurfclassError,
    UnknownPresetError,
    UsageError,
)
from .intlinalg import group_format
from .planegeom import ClosedCurve, Point, Scene, Segment, hausdorff_distance, ifs_iterate
from .planegeom import PRESET_NAMES, preset, preset_seed, snowflake, winding_number
from .rewrite import normalize, scramble
from .simplicial import (
    homology,
    refine_to_triangulation,
    refined_counts,
    surface_verdict,
    to_cell_complex,
    validate_bordered_surface,
    validate_closed_surface,
)


def _read(path: str) -> str:
    """The file's text, without a leading UTF-8 byte-order mark."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            # read() decodes the whole file at once, mark included, so e.start is its byte offset
            raise FileFormatError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from None


def _load_surface(path: str):
    """(kind, object): cell complex or simplicial complex, by sniffing."""
    text = _read(path)
    kind = fileio.sniff_kind(text)
    if kind == "cell":
        return "cell", fileio.parse_cell_complex(text)
    return "simplicial", fileio.parse_simplicial(text)


def cmd_validate(args, out):
    kind, obj = _load_surface(args.file)
    if kind == "cell":
        report = obj.invariant_report()
        payload = {
            "kind": "cell-complex",
            "valid": True,
            "orientable": report.orientable,
            "contours": report.num_contours,
            "euler": report.euler,
            "n0": report.n0,
            "n1": report.n1,
            "n2": report.n2,
        }
    else:
        closed, bordered = validate_closed_surface(obj), validate_bordered_surface(obj)
        verdict = surface_verdict(closed, bordered)
        nv, ne, nt = obj.counts()
        payload = {
            "kind": "simplicial",
            "closed_surface": closed.ok,
            "bordered_surface": bordered.ok,
            "violations": list(verdict.violations),
            "border_circles": bordered.border_circles,
            "vertices": nv,
            "edges": ne,
            "triangles": nt,
        }
        if not verdict.ok:
            _emit(payload, args, out)
            raise NotASurfaceError(verdict.violations[0])
    _emit(payload, args, out)


def _emit(payload: dict, args, out):
    if args.json:
        out.append(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        out.extend(f"{k}: {v}\n" for k, v in payload.items())


def cmd_classify(args, out):
    kind, obj = _load_surface(args.file)
    if kind == "simplicial":
        verdict = surface_verdict(validate_closed_surface(obj), validate_bordered_surface(obj))
        if not verdict.ok:
            raise NotASurfaceError(verdict.violations[0])
        # the glued complex is one polygon with the triangulation's chi
        nv, ne, nt = obj.counts()
        obj = to_cell_complex(obj)
        got, want = (len(obj.faces), obj.invariant_report().euler), (1, nv - ne + nt)
        if got != want:
            raise InternalInvariantViolation(
                f"gluing {nt} triangles gave (faces, chi) {got}, expected {want}"
            )
    sc = classify_surface(obj)
    payload = to_json_dict(sc)
    if args.json:
        _emit(payload, args, out)
    else:
        out.append(
            f"{sc.name}\n"
            f"orientable: {sc.orientable}  contours: {sc.q}  euler: {sc.euler}\n"
            f"normal form: type {sc.form.kind}, p={sc.form.p}, q={sc.form.q} "
            f"({format_word(sc.canonical_word) or 'empty word'})\n"
            f"genus: {sc.genus}  H1: {payload['h1']}\n"
        )


def cmd_normalize(args, out):
    if not 0 <= args.moves <= MAX_SCRAMBLE_MOVES:
        raise UsageError(f"--moves must be between 0 and {MAX_SCRAMBLE_MOVES}")
    text = _read(args.file)
    K = fileio.parse_cell_complex(text)
    if args.seed is not None:
        K2 = scramble(K, args.seed, args.moves)
        print(
            f"self-test: scrambled with seed {args.seed} ({args.moves} moves)",
            file=sys.stderr,
        )
        base = normalize(K).normal
        res = normalize(K2)
        if res.normal != base:
            raise InternalInvariantViolation("scrambled normal form differs")
    else:
        res = normalize(K)
    if args.trace:
        out.extend(move.format() + "\n" for move in res.trace)
    payload = {
        "type": res.normal.kind,
        "p": res.normal.p,
        "q": res.normal.q,
        "normal_word": format_word(res.canonical_word),
        "moves": len(res.trace),
    }
    _emit(payload, args, out)


def cmd_homology(args, out):
    """A cell complex gets its certified cellular groups and the counts
    of ``refine``'s triangulation, which is not built."""
    kind, obj = _load_surface(args.file)
    if kind == "cell":
        h0, h1, h2 = certified_homology(obj)
        nv, ne, nt = refined_counts(obj)
        print("note: refining cell complex to a triangulation", file=sys.stderr)
    else:
        h0, h1, h2 = homology(obj)
        nv, ne, nt = obj.counts()
    payload = {
        "H0": group_format(h0),
        "H1": group_format(h1),
        "H2": group_format(h2),
        "euler": nv - ne + nt,
        "vertices": nv,
        "edges": ne,
        "triangles": nt,
    }
    _emit(payload, args, out)


def cmd_refine(args, out):
    K = fileio.parse_cell_complex(_read(args.file))
    _, simp = refine_to_triangulation(K)
    out.append(fileio.format_simplicial(simp))


# a segment takes about 50 bytes of SVG, so this is a file of about 50 MB
MAX_PRIMITIVES = 1_000_000
# the self-test's time grows faster than the square of --moves: about
# 4 s at 1,000 moves on samples/torus.cc (Python 3.11, 2 vCPUs)
MAX_SCRAMBLE_MOVES = 1_000
# every --preset: the IFS tables, and the snowflake of three Koch curves
PRESETS = (*PRESET_NAMES, "snowflake")


def _check_render_size(seed: int, maps: int, iters: int) -> None:
    """Fail before iterating when seed * max(maps**iters, iters) exceeds
    MAX_PRIMITIVES: the primitives rendered, or the iterations of a
    one-map IFS, whose scene keeps its size.  maps**iters is not formed
    past the cap's bit length, where it is over the cap anyway."""
    cap = MAX_PRIMITIVES
    grow = maps**iters if maps < 2 or iters <= cap.bit_length() else cap + 1
    if seed * max(grow, iters) > cap:
        raise RenderLimitError(
            f"--iters {iters} with {maps} maps on {seed} seed primitives needs "
            f"{seed} x max({maps}^{iters}, {iters}) steps; the limit is {cap}"
        )


def cmd_fractal_render(args, out):
    if args.iters < 0:
        raise UsageError("--iters must be nonnegative")
    if args.preset and args.ifs:
        raise UsageError("--preset and --ifs exclude each other")
    if args.preset and args.preset not in PRESETS:
        raise UnknownPresetError(
            f"unknown preset {args.preset!r}; choose from {', '.join(PRESETS)}"
        )
    if args.preset == "snowflake":
        if args.seed_file:
            raise UsageError("--preset snowflake takes no --seed-file")
        # three copies of the iterated Koch curve
        koch = len(preset_seed("koch").template)
        _check_render_size(3 * koch, len(preset("koch").maps), args.iters)
        scene = snowflake(args.iters)
    else:
        if args.preset:
            system = preset(args.preset)
            seed_scene = preset_seed(args.preset)
        elif args.ifs:
            system = fileio.parse_ifs(_read(args.ifs))
            seed_scene = None
        else:
            raise UsageError("need --preset or --ifs")
        if args.seed_file:
            pts = fileio.parse_points(_read(args.seed_file))
            prims = (Point(*pts[0]),) if len(pts) == 1 else tuple(map(Segment, pts, pts[1:]))
            seed_scene = Scene(prims)
        if seed_scene is None:
            raise UsageError("custom IFS needs --seed-file")
        _check_render_size(len(seed_scene.template), len(system.maps), args.iters)
        scene = ifs_iterate(system, seed_scene, args.iters)
    out.append(svg.render_svg(scene))
    if args.out:
        # the scene is nonempty, so a copy has vertices; count from the list lengths
        count = len(scene.template) * len(scene.xs) // scene.offsets[-1]
        return f"wrote {args.out} ({count} primitives)"


def cmd_hausdorff(args, out):
    A = fileio.parse_points(_read(args.file_a))
    B = fileio.parse_points(_read(args.file_b))
    d = hausdorff_distance(A, B)
    out.append(json.dumps({"hausdorff": d}) + "\n" if args.json else f"{d!r}\n")


def cmd_winding(args, out):
    pts = fileio.parse_points(_read(args.file))
    try:
        x, y = (float(t) for t in args.point.split(","))
        finite = math.isfinite(x) and math.isfinite(y)
    except ValueError:
        finite = False
    if not finite:
        raise UsageError("--point expects 'x,y'")
    n = winding_number(ClosedCurve(tuple(pts)), (x, y))
    out.append(json.dumps({"winding": n}) + "\n" if args.json else f"{n}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfclass",
        description="Classify compact surfaces; render IFS attractors; "
        "compute Hausdorff distances and winding numbers.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, json_flag=True):
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write results to a file instead of stdout")

    p = sub.add_parser("validate", help="validate a cell-complex or simplicial file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify the surface in a file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="normalize a cell complex")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="stream the move trace")
    p.add_argument("--seed", type=int, help="scramble-based self-test seed")
    p.add_argument("--moves", type=int, default=30, help="self-test move count")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("homology", help="homology groups (cellular for cell complexes)")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("refine", help="refine a cell complex to a triangulation")
    p.add_argument("file")
    common(p, json_flag=False)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("fractal-render", help="iterate an IFS and render SVG")
    p.add_argument("--preset", help=", ".join(PRESETS))
    p.add_argument("--ifs", help="custom IFS coefficient file")
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--seed-file", help="seed points file (polyline)")
    p.add_argument("--out", help="output SVG path (default stdout)")
    p.set_defaults(func=cmd_fractal_render)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two point files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("winding", help="winding number of a closed curve file")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="x,y")
    common(p)
    p.set_defaults(func=cmd_winding)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves no state in the parser
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out = []
    try:
        try:
            note = args.func(args, out)
        except SurfclassError as e:
            if out:  # validate's report on a triangulation that is no surface
                _deliver("".join(out), args.out)
            print(f"{e.code}: {e}", file=sys.stderr)
            return e.exit_status
        _deliver("".join(out), args.out)
    except OSError as e:
        print(f"E_IO: {e}", file=sys.stderr)
        return 1
    if note:
        print(note, file=sys.stderr)
    return 0


def _deliver(text: str, path) -> None:
    """Write a verb's output: to the --out file as UTF-8, or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)  # encodes the whole text before it writes
    except UnicodeEncodeError as e:
        raise OSError(f"stdout's encoding {e.encoding} cannot write {e.object[e.start]!r}; "
                      "use --out FILE, which is UTF-8") from None


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
