"""Cyclic-word helpers used only as test oracles."""

from surfclass.edgeword import rotate, sym_key


def rotations(w):
    """Every rotation of w (the empty word has one)."""
    if not w:
        yield w
        return
    for k in range(len(w)):
        yield rotate(w, k)


def cyclic_equal(w1, w2) -> bool:
    """True iff some rotation of w1 equals w2 symbol-for-symbol."""
    if len(w1) != len(w2):
        return False
    return any(r == w2 for r in rotations(w1))


def word_key(w):
    """Lexicographic sort key of a word under ``sym_key``."""
    return [sym_key(s) for s in w]


def brute_least_rotation(*seqs):
    """Least rotation over every given traversal, by trying them all."""
    return min((r for seq in seqs for r in rotations(tuple(seq))), key=word_key)
