"""Cyclic-word helpers used only as test oracles."""

from surfclass.edgeword import EdgeSym, Word, inverse_word, rotate, sym_key
from surfclass.rewrite import TYPE_I, TYPE_II, NormalForm


def rotations(w):
    """Every rotation of w (the empty word has one)."""
    if not w:
        yield w
        return
    for k in range(len(w)):
        yield rotate(w, k)


def cancel_reference(w):
    """w with its first cyclically adjacent ``x x'`` pair cancelled, the
    word rotated to start after it, until no pair is left."""
    while True:
        i = next((i for i, s in enumerate(w) if w[(i + 1) % len(w)] == s.inv()), None)
        if i is None:
            return w
        w = rotate(w, i)[2:]


def cyclic_equal(w1, w2) -> bool:
    """True iff some rotation of w1 equals w2 symbol-for-symbol."""
    if len(w1) != len(w2):
        return False
    return any(r == w2 for r in rotations(w1))


def spelling(w):
    """w with its edges renamed 0, 1, ... in order of first appearance,
    each first appearance read with sign +1: two words spell alike iff
    one reads as the other under a one-to-one renaming of edges."""
    names = {}
    out = []
    for s in w:
        k, sign = names.setdefault(s.name, (len(names), s.sign))
        out.append((k, s.sign * sign))
    return tuple(out)


def least_spelling(w):
    """Least spelling of the cyclic word w from any start, read either
    way: two faces are the same face up to rotation, inversion and
    renaming of edges iff their least spellings are equal."""
    return min(spelling(r) for seq in (w, inverse_word(w)) for r in rotations(seq))


def word_key(w):
    """Lexicographic sort key of a word under ``sym_key``."""
    return [sym_key(s) for s in w]


def brute_least_rotation(*seqs):
    """Least rotation over every given traversal, by trying them all."""
    return min((r for seq in seqs for r in rotations(tuple(seq))), key=word_key)


# the block grammar that read canonical words before they were read by
# renaming them onto ``canonical_word``; kept as the reference reader


def _parse_blocks(w: Word, border):
    """Parse a word into (crosscaps, handles, loops) blocks.

    Succeeds only for a clean run of non-loop blocks followed by a run
    of loops; returns None otherwise.  Each block is read at distinct
    positions from the left, not cyclically; as no edge occurs more than
    twice, a cross-cap ``x x`` and a handle ``x y x' y'`` are then over
    distinct inner edges, and only a loop ``c h c'`` reads ``border``.
    """
    crosscaps, handles, loops = [], [], []
    i, n = 0, len(w)
    while i < n:
        if i + 1 < n and w[i + 1] == w[i]:
            if loops:
                return None
            crosscaps.append(w[i])
            i += 2
        elif i + 2 < n and w[i + 1].name in border and w[i + 2] == w[i].inv():
            loops.append((w[i], w[i + 1]))
            i += 3
        elif i + 3 < n and w[i + 2] == w[i].inv() and w[i + 3] == w[i + 1].inv():
            if loops:
                return None
            handles.append((w[i], w[i + 1]))
            i += 4
        else:
            return None
    return crosscaps, handles, loops


def _read_canonical(w: Word, border):
    """(rotated word, form, blocks) for the first rotation of w made of
    cross-caps or handles followed by loops; None if there is none."""
    for r in range(len(w) or 1):  # the empty word is its own one rotation
        rot = rotate(w, r)
        blocks = _parse_blocks(rot, border)
        if blocks is None or (blocks[0] and blocks[1]):
            continue
        crosscaps, handles, loops = blocks
        if crosscaps:
            return rot, NormalForm(TYPE_II, len(crosscaps), len(loops)), blocks
        return rot, NormalForm(TYPE_I, len(handles), len(loops)), blocks
    return None


def one_face_words(max_letters, max_edges):
    """Every one-face word of at most ``max_letters`` letters over at most
    ``max_edges`` edges, each on at most two letters, up to renaming:
    edge k is named e<k> in order of first appearance, with either sign."""
    out = []

    def grow(w, uses):
        out.append(tuple(w))
        if len(w) == max_letters:
            return
        for k in range(min(len(uses) + 1, max_edges)):
            if k < len(uses) and uses[k] == 2:
                continue
            for sign in (1, -1):
                w.append(EdgeSym(f"e{k}", sign))
                if k == len(uses):
                    uses.append(0)
                uses[k] += 1
                grow(w, uses)
                uses[k] -= 1
                if not uses[k]:
                    uses.pop()
                w.pop()

    grow([], [])
    return out
