"""File parsers: the bulk point parser against the per-line reference, and
the IFS and triangulation readers' errors."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import fileio
from surfclass.errors import FileFormatError
from surfclass.fileio import parse_points

from geomutil import parse_points_reference


_GOOD = ["0", "-0", "1.5", "-2e3", "1_0", "1.", ".5", "+7", "\xa03\u3000", "4\t"]
_BAD = ["1__0", "_1", "1e999", "-1e999", "nan", "inf", "-inf", "0x1", "", "x"]
_number = st.one_of(
    st.sampled_from(_GOOD * 4 + _BAD), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
# a line from three numbers: mostly one pair, with spaces, tabs, no-break
# spaces or a comment around it; else no comma, two or three commas, a
# blank or a comment
_PAIRS = ["{0},{1}", " {0} , {1} ", "\t{0},{1}\xa0", "{0} ,{1} # note", "{0},{1}#"]
_OTHERS = ["{0}", "{0},{1},{2}"] * 3 + [
    "{0},{1},{2},{0}", "", " ", "\t ", "# comment", "  # {0},{1}", "#", "{0},#{1}", ",", ",,",
]
_line = st.tuples(st.sampled_from(_PAIRS * 8 + _OTHERS), _number, _number, _number).map(
    lambda t: t[0].format(*t[1:])
)
_end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " "])
TEXTS = st.lists(st.tuples(_line, _end), max_size=10).map(
    lambda lines: "".join(line + end for line, end in lines)
)


def _outcome(parse, text):
    try:
        return "points", repr(parse(text))
    except FileFormatError as e:
        return "error", str(e)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(TEXTS)
def test_parse_points_equals_the_per_line_reference(text):
    # the same points (repr tells -0.0 from 0.0), or the same first bad line
    assert _outcome(parse_points, text) == _outcome(parse_points_reference, text)


def test_parse_points_edge_texts():
    texts = ["", "\n\n", "# only a comment\n", "  \r\n\t\n", "1,2", "1,2\r\n# end", "1\n2,3,4\n"]
    for text in texts:
        assert _outcome(parse_points, text) == _outcome(parse_points_reference, text)
    assert parse_points("# corners\r\n0,0\r\n\r\n 1 , 2 # right\r\n") == [(0.0, 0.0), (1.0, 2.0)]


@pytest.mark.parametrize("text, message", [
    ("0.5 0 0 0.5 0 0\n0.5 0 0 0.5 0\n", "line 2: expected 6 coefficients"),
    ("# maps\n0.5 0 0 x 0 0\n", "line 2: bad coefficient"),
    ("# no maps\n\n  # at all\n", "no maps in IFS file"),
])
def test_parse_ifs_names_the_bad_line(text, message):
    with pytest.raises(FileFormatError) as info:
        fileio.parse_ifs(text)
    assert str(info.value) == message


def test_parse_simplicial_of_comments_only():
    with pytest.raises(FileFormatError) as info:
        fileio.parse_simplicial("# a comment\n\n# and another\n")
    assert str(info.value) == "no triangles in input"


# long files of repr lines, the way the benchmark and most tools write them
_SPECIAL = ["-0.0", "0.0", "5e-324", "-2.2250738585072014e-308", "1e-310", "1.5e+300",
            "-1.7976931348623157e+308", "1e308", "1_0", "2E-3", " 4 ", "\t-7"]
# one defect: a whole line, or text put into a line at some place
_DEFECT_LINES = ["", "  ", "# comment", "1.5", "1,2,3", "nan,1", "1,1e999", "-inf,0"]
_DEFECT_INSERTS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ", "#",
                   ",", "\xa0", "\u0663", "\x1f", "n"]


def _coordinate(rng):
    if rng.random() < 0.1:
        return rng.choice(_SPECIAL)
    # any finite float, from its bits: every exponent and the subnormals
    v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return repr(v) if math.isfinite(v) else repr(rng.uniform(-1, 1))


@st.composite
def _long_files(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = [f"{_coordinate(rng)},{_coordinate(rng)}" for _ in range(draw(st.integers(100, 400)))]
    kind = draw(st.sampled_from(["clean", "line", "insert"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        lines.insert(i, draw(st.sampled_from(_DEFECT_LINES)))
    elif kind == "insert":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_DEFECT_INSERTS)) + lines[i][at:]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_long_files())
def test_parse_points_on_long_files_equals_the_per_line_reference(text):
    assert _outcome(parse_points, text) == _outcome(parse_points_reference, text)


def _per_line_calls(monkeypatch, text):
    calls = []
    per_line = fileio._content_lines
    monkeypatch.setattr(fileio, "_content_lines", lambda t: calls.append(t) or per_line(t))
    _outcome(parse_points, text)
    return len(calls)


def test_a_clean_point_file_is_read_without_the_per_line_path(monkeypatch):
    rng = random.Random(7)
    pts = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e-3, 1e-3)) for _ in range(500)]
    pts += [(-0.0, 5e-324), (1e308, 1.7976931348623157e308)]  # the sum overflows
    text = "".join(f"{x!r},{y!r}\n" for x, y in pts)
    for clean in (text, text[:-1], " 1 ,\t2\n3,4\n", "1_0,2e3"):
        assert _per_line_calls(monkeypatch, clean) == 0, clean
    assert repr(parse_points(text)) == repr(pts)
    for bad in ("", "\n", "1,2\n\n", "1,2\n3", "1,2\r\n", "# c\n1,2", "1,2 # c", "1,nan\n",
                "1,2\n1e999,0", "1,2,3\n", "1\r,2\n", "1,2\x0c\n", "\xa01,2\n", "1,\u0663\n"):
        assert _per_line_calls(monkeypatch, bad) == 1, bad
