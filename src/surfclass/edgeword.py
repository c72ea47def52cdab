"""Oriented edge symbols and cyclic boundary words.

A word is a plain tuple of :class:`EdgeSym`; the empty tuple is a legal
word (the boundary of a sphere face).  Words are value types: every
operation returns a new tuple.

Text syntax: whitespace-separated tokens, ``x`` for an edge and ``x'``
for its inverse.  ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import MalformedTokenError

# User-visible identifiers.  Names starting with "_" are reserved for
# machine-generated edges/faces and are rejected by the parser.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_ANY_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(')?\Z")
_ANY_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(')?\Z")


class EdgeSym(NamedTuple):
    """An oriented edge symbol: an edge name plus a sign (+1 or -1)."""

    name: str
    sign: int

    def inv(self) -> "EdgeSym":
        return EdgeSym(self.name, -self.sign)

    def __repr__(self) -> str:
        return self.name + ("'" if self.sign < 0 else "")


Word = tuple  # Word = tuple[EdgeSym, ...]


def sym(token: str) -> EdgeSym:
    """Build a single symbol from text, e.g. ``sym("a'") == EdgeSym('a', -1)``.

    Accepts machine-generated ``_``-prefixed names too; only the file
    parser (:func:`parse_word`) restricts to user identifiers.
    """
    m = _ANY_TOKEN_RE.match(token)
    if not m:
        raise MalformedTokenError(f"bad edge token {token!r}")
    return EdgeSym(m.group(1), -1 if m.group(2) else 1)


def valid_name(name: str, internal: bool = False) -> bool:
    pattern = _ANY_NAME_RE if internal else NAME_RE
    return bool(pattern.match(name))


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word.

    >>> parse_word("a b a' b'")
    (a, b, a', b')
    >>> parse_word("")
    ()
    >>> parse_word("a1 a1")
    (a1, a1)
    """
    text = text.split("#", 1)[0]
    out = []
    for i, token in enumerate(text.split()):
        m = _TOKEN_RE.match(token)
        if not m:
            raise MalformedTokenError(f"bad edge token {token!r}", position=i)
        out.append(EdgeSym(m.group(1), -1 if m.group(2) else 1))
    return tuple(out)


def format_word(w: Word) -> str:
    """Render a word so that ``parse_word`` round-trips it.

    >>> format_word((sym("a"), sym("b'")))
    "a b'"
    >>> format_word(())
    ''
    """
    return " ".join(s.name + ("'" if s.sign < 0 else "") for s in w)


def inverse_word(w: Word) -> Word:
    """The reversed sequence with every sign flipped.

    >>> inverse_word((sym("a"), sym("b"), sym("c")))
    (c', b', a')
    >>> inverse_word(())
    ()
    """
    return tuple(s.inv() for s in reversed(w))


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation moving position k to the front."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def rotations(w: Word) -> Iterable[Word]:
    if not w:
        yield w
        return
    for k in range(len(w)):
        yield rotate(w, k)


def sym_key(s: EdgeSym):
    """Sort key of a symbol: name first, then + before -."""
    return (s.name, 0 if s.sign > 0 else 1)


def cyclic_equal(w1: Word, w2: Word) -> bool:
    """True iff some rotation of w1 equals w2 symbol-for-symbol.

    >>> a, b, c = sym("a"), sym("b"), sym("c")
    >>> cyclic_equal((a, b, c), (b, c, a))
    True
    >>> cyclic_equal((a, b, c), (c, b, a))
    False
    >>> cyclic_equal((), ())
    True
    """
    if len(w1) != len(w2):
        return False
    return any(r == w2 for r in rotations(w1))


def cyclic_canonical(w: Word) -> Word:
    """The lexicographically least rotation under :func:`sym_key`.

    Booth's algorithm (K. S. Booth, "Lexicographically least circular
    substrings", Inf. Proc. Letters 10, 1980): a failure function over
    the doubled word finds the least rotation in O(len(w)) comparisons.
    Idempotent, and equal for every rotation of the same cyclic word.

    >>> a, b, c = sym("a"), sym("b"), sym("c")
    >>> cyclic_canonical((b, a, c))
    (a, c, b)
    >>> cyclic_canonical((sym("a'"), a))
    (a, a')
    """
    n = len(w)
    if n < 2:
        return tuple(w)
    keys = [sym_key(s) for s in w]
    keys += keys
    fail = [-1] * (2 * n)
    k = 0  # start of the least rotation found so far
    for j in range(1, 2 * n):
        sj = keys[j]
        i = fail[j - k - 1]
        while i != -1 and sj != keys[k + i + 1]:
            if sj < keys[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != keys[k + i + 1]:  # here i == -1
            if sj < keys[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    k %= n
    return tuple(w[k:]) + tuple(w[:k])
