"""Text file formats.

Cell complex (UTF-8): optional ``surface <name>`` header; one
``face <Name> : <word>`` per face in word syntax; ``#`` comments.

Simplicial complex: one ``triangle v1 v2 v3`` per triangle, each vertex set once.

IFS: one map per line, six whitespace-separated finite decimals ``a b c d e f``.

Point sets / curves: one ``x,y`` pair per line; ``#`` comments and blank lines.
A clean ASCII file is read in one bulk pass; any other text is read line by
line, which names the first bad line.
"""

from __future__ import annotations

import math
import re

from .cellcomplex import CellComplex, build
from .edgeword import NAME_RE, parse_word
from .errors import FileFormatError
from .planegeom import IFS, AffineMap2
from .simplicial import SimplicialComplex2, build_simplicial


# every ASCII byte but ',', '#' and the line breaks of str.splitlines
_NOT_SEPARATORS = bytes(c for c in range(128) if chr(c) not in ",#\n\r\x0b\x0c\x1c\x1d\x1e")


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
    """The points of a point file: in bulk when it is ASCII and its
    separators (',', '#' and the ASCII breaks of str.splitlines) are one
    ',' then one newline per line, the last newline optional; else line by
    line, which alone names the first bad line.  Bulk is exact: every line
    is then one 'a,b', on which the per-line reader calls float(a.lstrip())
    and float(b.rstrip()); float strips the spaces it accepts and raises on
    the rest, so bulk reads the same floats, -0.0 included, or falls back.
    A finite sum proves every term finite; else each term is checked.
    """
    body = text.removesuffix("\n")
    seps = body.encode().translate(None, _NOT_SEPARATORS) if body.isascii() else b""
    if seps == b",\n" * (len(seps) // 2) + b",":
        try:
            vs = list(map(float, body.replace("\n", ",").split(",")))
        except ValueError:
            vs = [math.nan]
        if math.isfinite(sum(vs)) or all(map(math.isfinite, vs)):
            it = iter(vs)
            return list(zip(it, it))
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
