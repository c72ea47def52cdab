import pytest
from hypothesis import given, strategies as st

from surfclass.edgeword import (
    EdgeSym,
    cancel_inverse_pairs,
    format_word,
    inverse_word,
    parse_word,
    rotate,
    sym,
)
from surfclass.errors import MalformedTokenError
from wordutil import cancel_reference, cyclic_equal


def W(text):
    return parse_word(text)


names = st.sampled_from(["a", "b", "c", "d", "x1", "long_name"])
syms = st.builds(EdgeSym, names, st.sampled_from([1, -1]))
words = st.lists(syms, max_size=8).map(tuple)


def test_parse_basic():
    assert W("a b a' b'") == (
        EdgeSym("a", 1),
        EdgeSym("b", 1),
        EdgeSym("a", -1),
        EdgeSym("b", -1),
    )
    assert W("") == ()
    assert W("a1 a1") == (EdgeSym("a1", 1), EdgeSym("a1", 1))
    assert W("a b  # trailing comment") == (EdgeSym("a", 1), EdgeSym("b", 1))


@pytest.mark.parametrize("bad", ["1a", "'", "a''", "a-b", "_g1"])
def test_parse_rejects(bad):
    with pytest.raises(MalformedTokenError):
        parse_word(bad)


def test_inverse_word_examples():
    assert inverse_word(W("a b c")) == W("c' b' a'")
    assert inverse_word(()) == ()


def test_cyclic_equal_examples():
    assert cyclic_equal(W("a b c"), W("b c a"))
    assert not cyclic_equal(W("a b c"), W("c b a"))
    assert cyclic_equal((), ())


def test_format_examples():
    assert format_word(W("a b'")) == "a b'"
    assert format_word(()) == ""


@given(words)
def test_inverse_involution(w):
    assert inverse_word(inverse_word(w)) == w


@given(words)
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w)) == w


@given(words, st.integers(0, 7), st.integers(0, 7))
def test_cyclic_equal_is_equivalence(w, j, k):
    a, b, c = w, rotate(w, j), rotate(w, k)
    assert cyclic_equal(a, a)
    assert cyclic_equal(a, b) and cyclic_equal(b, a)
    assert cyclic_equal(a, b) and cyclic_equal(b, c) and cyclic_equal(a, c)


def test_sym_accepts_generated_names():
    assert sym("_g12'") == EdgeSym("_g12", -1)


# two names make x x' pairs common
few_syms = st.builds(EdgeSym, st.sampled_from(["a", "b"]), st.sampled_from([1, -1]))


@given(st.lists(few_syms, max_size=10).map(tuple))
def test_cancel_inverse_pairs_matches_the_rescanning_loop(w):
    got = cancel_inverse_pairs(w)
    # the same cyclic word as cancelling the first pair until none is left
    assert cyclic_equal(got, cancel_reference(w))
    # the letters left keep their order in w
    rest = iter(w)
    assert all(s in rest for s in got)
    # no cyclically adjacent x x' is left, across the wrap included
    assert not any(got[(i + 1) % len(got)] == s.inv() for i, s in enumerate(got))


def test_cancel_inverse_pairs_examples():
    assert cancel_inverse_pairs(W("a b b' a'")) == ()
    assert cancel_inverse_pairs(W("a' b c a")) == W("b c")
    assert cancel_inverse_pairs(W("a b a' b'")) == W("a b a' b'")
    assert cancel_inverse_pairs(W("a a")) == W("a a")
    assert cancel_inverse_pairs(W("a")) == W("a")
    assert cancel_inverse_pairs(()) == ()
