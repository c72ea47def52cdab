"""Oriented edge symbols and cyclic boundary words.

A word is a plain tuple of :class:`EdgeSym`; the empty tuple is a legal
word (the boundary of a sphere face).  Words are value types: every
operation returns a new tuple.

Text syntax: whitespace-separated tokens, ``x`` for an edge and ``x'``
for its inverse.  ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


def sym_key(s: EdgeSym):
    """Sort key of a symbol: name first, then + before -."""
    return (s.name, 0 if s.sign > 0 else 1)


# ---------------------------------------------------------------------------
# word surgery of the elementary moves


def subst_p1(w: Word, split: dict) -> Word:
    """Replace each edge ``a`` of ``split`` (a -> (b, c)) by ``b c``.

    >>> format_word(subst_p1(parse_word("a b a'"), {"a": ("x", "y")}))
    "x y b y' x'"
    """
    out = []
    for s in w:
        bc = split.get(s.name)
        if bc is None:
            out.append(s)
        elif s.sign > 0:
            out += [EdgeSym(bc[0], 1), EdgeSym(bc[1], 1)]
        else:
            out += [EdgeSym(bc[1], -1), EdgeSym(bc[0], -1)]
    return tuple(out)


def contract_pair(w: Word, b: EdgeSym, c: EdgeSym, fresh: str) -> Word:
    """Replace cyclic occurrences of ``b c`` by ``fresh`` and ``c' b'``
    by ``fresh'``.  An edge occurs at most twice in a complex, so a
    word is scanned at most three times.

    >>> format_word(contract_pair(parse_word("b x c x' b'"), sym("b"), sym("x"), "k"))
    "k c k'"
    """
    out = list(w)
    pairs = ((b, c), (c.inv(), b.inv()))
    while len(out) >= 2:
        n = len(out)
        i = next((i for i in range(n) if (out[i], out[(i + 1) % n]) in pairs), None)
        if i is None:
            break
        rep = EdgeSym(fresh, 1 if out[i] == b else -1)
        out = [rep] + out[1:i] if i == n - 1 else out[:i] + [rep] + out[i + 2:]
    return tuple(out)


def split_face(w: Word, p: int, d: str) -> tuple:
    """The two pieces ``w[:p] d`` and ``d' w[p:]`` of cutting w at
    position p along a chord ``d``; p may be 0 or len(w).

    >>> split_face(parse_word("a b c"), 1, "d")
    ((a, d), (d', b, c))
    """
    return w[:p] + (EdgeSym(d, 1),), (EdgeSym(d, -1),) + w[p:]


def merge_words(w1: Word, w2: Word, edge: str) -> Word:
    """Glue two words along ``edge``, which occurs once in each, and
    delete it: w1 is read to contain ``edge``, w2 to contain ``edge'``.

    >>> merge_words(parse_word("a d"), parse_word("d' b c"), "d")
    (a, b, c)
    """
    if not any(s.name == edge and s.sign > 0 for s in w1):
        w1 = inverse_word(w1)
    if not any(s.name == edge and s.sign < 0 for s in w2):
        w2 = inverse_word(w2)
    i = next(k for k, s in enumerate(w1) if s == EdgeSym(edge, 1))
    j = next(k for k, s in enumerate(w2) if s == EdgeSym(edge, -1))
    u = rotate(w1, (i + 1) % len(w1))[:-1]
    v = rotate(w2, (j + 1) % len(w2))[:-1]
    return u + v


_GENERATED_RE = re.compile(r"_[gf](\d+)\Z")


def fresh_start(names) -> int:
    """First free index for machine names ``_g<k>``/``_f<k>``, given the
    edge and face names in use.

    >>> fresh_start(["a", "_g3", "_f7", "A_2"])
    8
    """
    top = 0
    for n in names:
        m = _GENERATED_RE.match(n)
        if m:
            top = max(top, int(m.group(1)))
    return top + 1


def cancel_inverse_pairs(w: Word) -> Word:
    """w with every cyclically adjacent ``x x'`` pair cancelled, the
    letters left in their order: one stack pass cancels the pairs inside
    the word, then trimming inverse ends cancels those across its wrap.
    The cyclically reduced word is unique up to rotation.

    >>> format_word(cancel_inverse_pairs(parse_word("a b b' c a'")))
    'c'
    >>> format_word(cancel_inverse_pairs(parse_word("a x y y' x' a'")))
    ''
    >>> format_word(cancel_inverse_pairs(parse_word("a b a b'")))
    "a b a b'"
    """
    stack = []
    for s in w:
        if stack and stack[-1] == s.inv():
            stack.pop()
        else:
            stack.append(s)
    i, j = 0, len(stack)
    while j - i >= 2 and stack[i] == stack[j - 1].inv():
        i, j = i + 1, j - 1
    return tuple(stack[i:j])
