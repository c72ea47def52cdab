"""Deterministic SVG rendering of scenes.

Identical scenes produce byte-identical files: coordinates are
formatted with a fixed precision and nothing environmental (time,
versions, ids) is embedded.  The viewBox is the scene bounding box
padded by 5%; points render as small circles, segments and polygons as
paths.  The y axis is flipped so +y is up, as in the plane.  The writer
formats each coordinate of the scene's flat lists once, lays each
template slot's literal text, repeated, between strided columns of its
coordinates, and joins the pieces copy-major: no element is formatted.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat

from .planegeom import Point, Polygon, Scene, Segment


class _Formatted(dict):
    """float -> fixed decimal text (stable, diff-friendly), made once per
    distinct value: fractal coordinates repeat.  0.0 and -0.0 give "0"."""

    def __missing__(self, x):
        s = f"{x:.6f}".rstrip("0").rstrip(".")
        s = self[x] = "0" if s == "-0" else s
        return s


def render_svg(scene: Scene) -> str:
    minx, miny, maxx, maxy = scene.bounding_box()
    w = maxx - minx or 1.0
    h = maxy - miny or 1.0
    pad = 0.05 * max(w, h)
    vb = (minx - pad, -(maxy + pad), w + 2 * pad, h + 2 * pad)
    stroke = max(w, h) / 500.0
    radius = max(w, h) / 200.0
    fmt = _Formatted()
    xy = [list(map(fmt.__getitem__, scene.xs)),
          list(map(fmt.__getitem__, map(operator.neg, scene.ys)))]
    k, pieces = scene.offsets[-1], []
    for prim, lo, hi in zip(scene.template, scene.offsets, scene.offsets[1:]):
        if isinstance(prim, Point):
            form = f'<circle fill="black" cx="{{}}" cy="{{}}" r="{fmt[radius]}"/>\n'
        elif isinstance(prim, Segment):
            form = '<path d="M {} {} L {} {}"/>\n'
        elif isinstance(prim, Polygon):
            d = " L ".join(["{} {}"] * (hi - lo))
            form = f'<path fill="black" fill-opacity="0.9" d="M {d} Z"/>\n'
        else:
            raise TypeError(f"unknown primitive {prim!r}")
        # the slot in every copy: its literal text, repeated, between coordinate columns
        *seps, end = map(repeat, form.split("{}"))
        pieces += [*chain(*zip(seps, [c[j::k] for j in range(lo, hi) for c in xy])), end]
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt[vb[0]]} {fmt[vb[1]]} {fmt[vb[2]]} {fmt[vb[3]]}">\n'
        f'<g fill="none" stroke="black" stroke-width="{fmt[stroke]}" '
        'stroke-linecap="round">\n'
    )
    return header + "".join(chain.from_iterable(zip(*pieces))) + "</g>\n</svg>\n"
