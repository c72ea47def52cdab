"""Command-line front end.

Verbs: validate, classify, normalize, homology, refine, fractal-render,
hausdorff, winding.  Results go to stdout (or --out); diagnostics go to
stderr.  Exit status: 0 success, 1 domain error (invalid complex,
infeasible input), 2 usage or parse error.

Every library error prints one line ``E_<CODE>: message`` so scripts
can grep for the failure class.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import fileio, svg
from .classify import classify as classify_surface
from .classify import to_json_dict
from .edgeword import format_word
from .errors import FileFormatError, MalformedTokenError, SurfclassError
from .intlinalg import group_format
from .planegeom import ClosedCurve, hausdorff_distance, ifs_iterate, preset, preset_seed, snowflake, winding_number
from .rewrite import normalize, scramble
from .simplicial import (
    homology,
    refine_to_triangulation,
    to_cell_complex,
    validate_bordered_surface,
    validate_closed_surface,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Out:
    """stdout or --out file collector."""

    def __init__(self, path):
        self.path = path
        self.chunks = []

    def write(self, text: str):
        self.chunks.append(text)

    def flush(self):
        data = "".join(self.chunks)
        if self.path:
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)


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
        closed = validate_closed_surface(obj)
        bordered = validate_bordered_surface(obj)
        nv, ne, nt = obj.counts()
        payload = {
            "kind": "simplicial",
            "closed_surface": closed.ok,
            "bordered_surface": bordered.ok,
            "violations": list((closed if not closed.ok else bordered).violations),
            "border_circles": bordered.border_circles,
            "vertices": nv,
            "edges": ne,
            "triangles": nt,
        }
        if not (closed.ok or bordered.ok):
            _emit(payload, args, out)
            out.flush()
            return 1
    _emit(payload, args, out)
    out.flush()
    return 0


def _emit(payload: dict, args, out):
    if args.json:
        out.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        for k, v in payload.items():
            out.write(f"{k}: {v}\n")


def cmd_classify(args, out):
    kind, obj = _load_surface(args.file)
    if kind == "simplicial":
        obj = to_cell_complex(obj)
    sc = classify_surface(obj)
    payload = to_json_dict(sc)
    if args.json:
        out.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        out.write(f"{sc.name}\n")
        out.write(
            f"orientable: {sc.orientable}  contours: {sc.q}  euler: {sc.euler}\n"
        )
        out.write(
            f"normal form: type {sc.form.kind}, p={sc.form.p}, q={sc.form.q} "
            f"({format_word(sc.canonical_word) or 'empty word'})\n"
        )
        out.write(f"genus: {sc.genus}  H1: {payload['h1']}\n")
    out.flush()
    return 0


def cmd_normalize(args, out):
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
            print("E_INTERNAL: scrambled normal form differs", file=sys.stderr)
            return 1
    else:
        res = normalize(K)
    if args.trace:
        for move in res.trace:
            out.write(move.format() + "\n")
    payload = {
        "type": res.normal.kind,
        "p": res.normal.p,
        "q": res.normal.q,
        "normal_word": format_word(res.canonical_word),
        "moves": len(res.trace),
    }
    _emit(payload, args, out)
    out.flush()
    return 0


def cmd_homology(args, out):
    kind, obj = _load_surface(args.file)
    if kind == "cell":
        print("note: refining cell complex to a triangulation", file=sys.stderr)
        _, obj = refine_to_triangulation(obj)
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
    out.flush()
    return 0


def cmd_refine(args, out):
    K = fileio.parse_cell_complex(_read(args.file))
    _, simp = refine_to_triangulation(K)
    out.write(fileio.format_simplicial(simp))
    out.flush()
    return 0


def cmd_fractal_render(args, out):
    if args.preset == "snowflake":
        scene = snowflake(args.iters)
    else:
        if args.preset:
            system = preset(args.preset)
            seed_scene = preset_seed(args.preset)
        elif args.ifs:
            system = fileio.parse_ifs(_read(args.ifs))
            seed_scene = None
        else:
            print("E_USAGE: need --preset or --ifs", file=sys.stderr)
            return 2
        if args.seed_file:
            pts = fileio.parse_points(_read(args.seed_file))
            from .planegeom import Point, Scene, Segment

            if len(pts) == 1:
                seed_scene = Scene((Point(*pts[0]),))
            else:
                seed_scene = Scene(
                    tuple(Segment(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
                )
        if seed_scene is None:
            print("E_USAGE: custom IFS needs --seed-file", file=sys.stderr)
            return 2
        scene = ifs_iterate(system, seed_scene, args.iters)
    text = svg.render_svg(scene)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(scene.primitives)} primitives)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_hausdorff(args, out):
    A = fileio.parse_points(_read(args.file_a))
    B = fileio.parse_points(_read(args.file_b))
    d = hausdorff_distance(A, B)
    if args.json:
        out.write(json.dumps({"hausdorff": d}) + "\n")
    else:
        out.write(f"{d!r}\n")
    out.flush()
    return 0


def cmd_winding(args, out):
    pts = fileio.parse_points(_read(args.file))
    try:
        x, y = (float(t) for t in args.point.split(","))
        finite = math.isfinite(x) and math.isfinite(y)
    except ValueError:
        finite = False
    if not finite:
        print("E_USAGE: --point expects 'x,y'", file=sys.stderr)
        return 2
    n = winding_number(ClosedCurve(tuple(pts)), (x, y))
    if args.json:
        out.write(json.dumps({"winding": n}) + "\n")
    else:
        out.write(f"{n}\n")
    out.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfclass",
        description="Classify compact surfaces; render IFS attractors; "
        "compute Hausdorff distances and winding numbers.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, json_flag=True, out_flag=True):
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")
        if out_flag:
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

    p = sub.add_parser("homology", help="homology groups (auto-refines cell complexes)")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("refine", help="refine a cell complex to a triangulation")
    p.add_argument("file")
    common(p, json_flag=False)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("fractal-render", help="iterate an IFS and render SVG")
    p.add_argument("--preset", help="sierpinski-gasket, sierpinski-dragon, "
                   "heighway, koch, hilbert, snowflake")
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


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out = _Out(getattr(args, "out", None))
    try:
        return args.func(args, out)
    except (FileFormatError, MalformedTokenError) as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 2
    except SurfclassError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"E_IO: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
