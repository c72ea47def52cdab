"""Text file formats.

Cell complex (UTF-8): optional ``surface <name>`` header; one
``face <Name> : <word>`` per face in word syntax; ``#`` comments.

Simplicial complex: one ``triangle v1 v2 v3`` per triangle.

IFS: one map per line, six whitespace-separated decimals ``a b c d e f``.

Point sets / curves: one ``x,y`` pair per line.
"""

from __future__ import annotations

import math
import re

from .cellcomplex import CellComplex, build
from .edgeword import NAME_RE, parse_word
from .errors import FileFormatError
from .planegeom import IFS, AffineMap2
from .simplicial import SimplicialComplex2, build_simplicial


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_cell_complex(text: str) -> CellComplex:
    faces = {}
    for lineno, line in _content_lines(text):
        if line.startswith("surface "):
            continue
        m = re.match(r"face\s+(\S+)\s*:\s*(.*)$", line)
        if not m:
            raise FileFormatError(f"line {lineno}: expected 'face <Name> : <word>'")
        name = m.group(1)
        if not NAME_RE.match(name):
            raise FileFormatError(f"line {lineno}: bad face name {name!r}")
        if name in faces:
            raise FileFormatError(f"line {lineno}: duplicate face {name!r}")
        faces[name] = parse_word(m.group(2))
    return build(faces)


def parse_simplicial(text: str) -> SimplicialComplex2:
    triangles = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] != "triangle" or len(parts) != 4:
            raise FileFormatError(f"line {lineno}: expected 'triangle v1 v2 v3'")
        triangles.append(tuple(parts[1:]))
    if not triangles:
        raise FileFormatError("no triangles in input")
    return build_simplicial(triangles)


def format_simplicial(K: SimplicialComplex2) -> str:
    return "\n".join(f"triangle {a} {b} {c}" for a, b, c in K.triangles) + "\n"


def sniff_kind(text: str) -> str:
    """'cell' or 'simplicial', from the first content line."""
    for _, line in _content_lines(text):
        word = line.split()[0]
        if word in ("surface", "face"):
            return "cell"
        if word == "triangle":
            return "simplicial"
        break
    raise FileFormatError("cannot tell cell-complex from simplicial input")


def parse_ifs(text: str) -> IFS:
    maps = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 6:
            raise FileFormatError(f"line {lineno}: expected 6 coefficients")
        try:
            maps.append(AffineMap2(*(float(x) for x in parts)))
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad coefficient")
    if not maps:
        raise FileFormatError("no maps in IFS file")
    return IFS(tuple(maps))


def parse_points(text: str) -> list:
    pts = []
    for lineno, line in _content_lines(text):
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected 'x,y'")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad coordinate")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FileFormatError(f"line {lineno}: non-finite coordinate")
        pts.append((x, y))
    if not pts:
        raise FileFormatError("no points in input")
    return pts
