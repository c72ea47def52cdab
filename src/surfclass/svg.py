"""Deterministic SVG rendering of scenes.

Identical scenes produce byte-identical files: coordinates are
formatted with a fixed precision and nothing environmental (time,
versions, ids) is embedded.  The viewBox is the scene bounding box
padded by 5%; points render as small circles, segments and polygons as
paths.  The y axis is flipped so +y is up, as in the plane.
"""

from __future__ import annotations

from .planegeom import Point, Polygon, Scene, Segment


def _fmt(x: float) -> str:
    # fixed decimal notation keeps output stable and diff-friendly
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def render_svg(scene: Scene) -> str:
    minx, miny, maxx, maxy = scene.bounding_box()
    w = maxx - minx or 1.0
    h = maxy - miny or 1.0
    pad = 0.05 * max(w, h)
    vb = (minx - pad, -(maxy + pad), w + 2 * pad, h + 2 * pad)
    stroke = max(w, h) / 500.0
    radius = max(w, h) / 200.0

    def pt(p):
        x, y = p
        return f"{_fmt(x)} {_fmt(-y)}"

    body = []
    for prim in scene.primitives:
        if isinstance(prim, Point):
            body.append(
                f'<circle fill="black" cx="{_fmt(prim.x)}" cy="{_fmt(-prim.y)}" '
                f'r="{_fmt(radius)}"/>'
            )
        elif isinstance(prim, Segment):
            body.append(f'<path d="M {pt(prim.p1)} L {pt(prim.p2)}"/>')
        elif isinstance(prim, Polygon):
            d = "M " + " L ".join(pt(p) for p in prim.points) + " Z"
            body.append(f'<path fill="black" fill-opacity="0.9" d="{d}"/>')
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">\n'
        f'<g fill="none" stroke="black" stroke-width="{_fmt(stroke)}" '
        'stroke-linecap="round">\n'
    )
    return header + "\n".join(body) + "\n</g>\n</svg>\n"
