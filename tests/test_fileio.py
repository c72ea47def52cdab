"""The bulk point parser against the per-line reference."""

from hypothesis import given, settings, strategies as st

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
