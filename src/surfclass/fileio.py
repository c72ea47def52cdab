"""Text file formats.

Cell complex (UTF-8): optional ``surface <name>`` header; one
``face <Name> : <word>`` per face in word syntax; ``#`` comments.

Simplicial complex: one ``triangle v1 v2 v3`` per triangle, each vertex set once.

IFS: one map per line, six whitespace-separated finite decimals ``a b c d e f``.

Point sets / curves: one ``x,y`` pair per line; ``#`` comments and blank lines.
"""

from __future__ import annotations

import math
import re
from itertools import repeat

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
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))
    # read in bulk; line by line only to name the first bad line
    if set(map(len, rows)) != {4} or {row[0] for row in rows} != {"triangle"}:
        for lineno, line in _content_lines(text):
            parts = line.split()
            if parts[0] != "triangle" or len(parts) != 4:
                raise FileFormatError(f"line {lineno}: expected 'triangle v1 v2 v3'")
    if not rows:
        raise FileFormatError("no triangles in input")
    K = build_simplicial(row[1:] for row in rows)
    if len(K.triangles) != len(rows):  # some line repeats an earlier vertex set
        first = {}
        for lineno, line in _content_lines(text):
            t = line.split()[1:]
            n = first.setdefault(tuple(sorted(t)), lineno)
            if n != lineno:
                raise FileFormatError(f"line {lineno}: duplicate triangle {' '.join(t)} (line {n})")
    return K


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
            coeffs = [float(x) for x in parts]
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise FileFormatError(f"line {lineno}: non-finite coefficient")
        maps.append(AffineMap2(*coeffs))
    if not maps:
        raise FileFormatError("no maps in IFS file")
    return IFS(tuple(maps))


def parse_points(text: str) -> list:
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(filter(str.strip, lines))
    # in bulk when every content line is one 'x,y' pair of finite floats
    if set(map(str.count, lines, repeat(","))) == {1}:
        try:
            vs = list(map(float, ",".join(lines).split(",")))
        except ValueError:
            vs = [math.inf]
        if all(map(math.isfinite, vs)):
            return list(zip(vs[0::2], vs[1::2]))
    # otherwise line by line, to name the first bad line
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
