"""Hypothesis strategies shared by the factor and analysis tests."""

import numpy as np
from hypothesis import strategies as st

from smoothwords import Alphabet, BaseSequenceSpec, PieceSource, Word, kolakoski_prefix

SMOOTH_PREFIXES = (
    kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 300),
    kolakoski_prefix(BaseSequenceSpec(Alphabet((3, 6, 9)), (9, 3, 6)), 300),
)

# small alphabets; letters from 2¹⁶ on are ranked by search, not by table
FEW = ((1, 2), (1, 2, 3), (2, 6, 10, 14), (5, 2**16, 2**16 + 3), (1, 2**63 - 1))


def cut(arr, offsets):
    """``arr`` in pieces that end at the given offsets."""
    edges = [0, *sorted(set(offsets)), arr.size]
    return [arr[a:b] for a, b in zip(edges, edges[1:])]


@st.composite
def alphabet_words(draw):
    """``(word, arr, l_max)``: a word over an alphabet, as a Word or as a
    PieceSource cut into pieces at drawn offsets, its letters as an array,
    and an l_max anywhere in 1..len(arr).

    The word is a smooth prefix, or it is drawn over one of a few small
    alphabets or over up to 300 letters from [1, 2⁶³ - 1] (a key column
    then holds a few letters and the last one is partial).  Drawn words
    use some of their alphabet's letters, so the alphabet may hold
    letters the word lacks."""
    kind = draw(st.sampled_from(["few", "many", "smooth"]))
    if kind == "smooth":
        word = draw(st.sampled_from(SMOOTH_PREFIXES))
        alphabet = word.alphabet
        arr = word.to_array()[: draw(st.integers(1, len(word)))]
    else:
        if kind == "few":
            letters = draw(st.sampled_from(FEW))
        else:
            wide = st.integers(1, 2**63 - 1)
            letters = draw(st.lists(wide, min_size=2, max_size=300, unique=True))
            letters.sort()
        alphabet = Alphabet(tuple(letters))
        used = st.sampled_from(draw(st.lists(st.sampled_from(letters), min_size=1)))
        arr = np.array(draw(st.lists(used, min_size=1, max_size=300)), dtype=np.int64)
    n = arr.size
    powers = [1 << k for k in range(n.bit_length()) if 1 << k <= n]
    l_max = draw(st.one_of(st.integers(1, n), st.sampled_from(powers + [n])))
    if draw(st.booleans()):
        offsets = draw(st.lists(st.integers(0, n), max_size=6))
        return PieceSource(alphabet, lambda: cut(arr, offsets)), arr, l_max
    return Word(arr, alphabet), arr, l_max
