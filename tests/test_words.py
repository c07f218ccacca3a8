import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    InvalidRuns,
    NotDifferentiable,
    Permutation,
    Word,
    apply_permutation,
    derivative,
    differentiability_order,
    format_symbols,
    is_palindrome,
    is_smooth_finite,
    parse_symbols,
    reverse,
    rle_encode,
    rle_reconstruct,
)

A12 = Alphabet((1, 2))
A123 = Alphabet((1, 2, 3))
A13 = Alphabet((1, 3))

words123 = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=60).map(
    lambda xs: Word(tuple(xs), A123)
)


def all_words(letters, max_len):
    for length in range(0, max_len + 1):
        for symbols in itertools.product(letters, repeat=length):
            yield symbols


# ---------------------------------------------------------------------------
# alphabet


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet((2, 1))
    with pytest.raises(ValueError):
        Alphabet((0, 1))
    with pytest.raises(ValueError):
        Alphabet((3,))


def test_alphabet_arithmetic():
    a = Alphabet((2, 6, 10, 14))
    assert a.size == 4
    assert a.remainder == 2
    assert a.quotients == (0, 1, 2, 3)
    assert Alphabet((1, 2)).remainder is None
    assert Alphabet((1, 2)).quotients is None
    assert Alphabet((3, 6, 9)).remainder == 0
    assert Alphabet((3, 6, 9)).quotients == (1, 2, 3)


def test_word_alphabet_membership():
    with pytest.raises(ValueError):
        Word((1, 4), A12)
    # exponent words carry no alphabet and accept any positive letters
    assert len(Word((7, 100))) == 2


def test_word_alphabet_membership_edges():
    # the membership table has to reject values below, between and past
    # the letters, on short and long words alike
    for bad in (0, -1, 2, 4, 10**12):
        for w in ((bad,), (1,) * 5000 + (bad,)):
            with pytest.raises(ValueError):
                Word(w, A13)
            with pytest.raises(ValueError):
                Word.from_array(np.array(w), A13)
    assert len(Word((3, 1) * 5000, A13)) == 10**4


def test_word_is_one_read_only_array():
    source = np.array([1, 2, 2], dtype=np.int64)
    w = Word(source, A12)
    source[0] = 2  # the constructor copies
    assert w == (1, 2, 2)
    arr = w.to_array()
    assert arr.dtype == np.int64 and not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 2
    assert type(w[0]) is int and all(type(x) is int for x in w)
    assert w.symbols == (1, 2, 2) and w[-1] == 2
    with pytest.raises(AttributeError):
        w.is_prefix = True


def test_prefix_slice_keeps_mark():
    w = Word((1, 2, 2, 1, 1), A12, is_prefix=True)
    for head in (w[:3], w[0:3], w[:], w[-5:], w[:99], w[:0]):
        assert head.is_prefix
        assert head.alphabet == A12
    assert w[:3] == (1, 2, 2)
    # an unmarked word's prefixes stay unmarked
    assert not Word((1, 2, 2), A12)[:2].is_prefix


def test_other_slices_are_unmarked():
    w = Word((1, 2, 2, 1, 1), A12, is_prefix=True)
    for part in (w[1:], w[-2:], w[::2], w[0:4:2], w[::-1]):
        assert not part.is_prefix
    assert w[1:] == (2, 2, 1, 1)
    assert w[::2] == (1, 2, 1)
    assert w[::-1] == (1, 1, 2, 2, 1)


# ---------------------------------------------------------------------------
# run-length coding


def test_rle_encode_worked_example():
    # 2^2 1^3 3^5 7^6: the first four runs of the worked coding example
    w = Word(parse_symbols("2^2 1^3 3^5 7^6"))
    rd = rle_encode(w)
    assert rd.exponents == (2, 3, 5, 6)
    assert rd.bases == (2, 1, 3, 7)
    assert not rd.last_run_truncated


def test_rle_encode_empty():
    rd = rle_encode(Word(()))
    assert rd.exponents == () and rd.bases == ()


def test_rle_encode_manual_scan():
    rd = rle_encode(Word((1, 2, 2, 1, 1, 2), A12))
    assert rd.exponents == (1, 2, 2, 1)
    assert rd.bases == (1, 2, 1, 2)


def test_rle_encode_prefix_mark():
    rd = rle_encode(Word((1, 2, 2), A12, is_prefix=True))
    assert rd.last_run_truncated


def test_rle_reconstruct_truncated_omega_word():
    from smoothwords import RunDecomposition

    rd = RunDecomposition(Word((3, 2, 4)), Word((2, 4, 3)))
    assert rle_reconstruct(rd) == (2, 2, 2, 4, 4, 3, 3, 3, 3)


def test_rle_reconstruct_empty():
    from smoothwords import RunDecomposition

    rd = RunDecomposition(Word(()), Word(()))
    assert rle_reconstruct(rd) == ()


def test_rle_reconstruct_rejects_equal_adjacent_bases():
    from smoothwords import RunDecomposition

    rd = RunDecomposition(Word((1, 1)), Word((5, 5)))
    with pytest.raises(InvalidRuns):
        rle_reconstruct(rd)


def test_rle_reconstruct_rejects_zero_exponent():
    from smoothwords import RunDecomposition

    rd = RunDecomposition(Word((1, 0)), Word((5, 6)))
    with pytest.raises(InvalidRuns):
        rle_reconstruct(rd)


def test_roundtrip_exhaustive_small():
    for symbols in all_words((1, 2), 10):
        w = Word(symbols, A12)
        assert rle_reconstruct(rle_encode(w)) == w


@given(words123)
def test_roundtrip_random(w):
    assert rle_reconstruct(rle_encode(w)) == w


# ---------------------------------------------------------------------------
# derivative


def test_derivative_drops_short_last_run():
    assert derivative(Word((2, 2, 1, 1, 2), A12)) == (2, 2)


def test_derivative_single_full_run():
    assert derivative(Word((2, 2), A12)) == (2,)


def test_derivative_single_short_run():
    assert derivative(Word((1,), A12)) == ()


def test_derivative_errors():
    with pytest.raises(NotDifferentiable):
        derivative(Word((1, 1, 1), A12))  # run longer than a_n
    with pytest.raises(NotDifferentiable):
        # interior run of length 2 is not a letter of {1,3}
        derivative(Word(parse_symbols("3^3 1^2 3^3"), A13))


def test_derivative_prefix_marked_drops_final_run():
    # unmarked: run lengths (1,2,2); marked: final run unknown, dropped first
    plain = derivative(Word((1, 2, 2, 1, 1), A12))
    marked = derivative(Word((1, 2, 2, 1, 1), A12, is_prefix=True))
    assert plain == (2, 2)
    assert marked == (2,)


def test_differentiability_order_four_times_word():
    period = parse_symbols(
        "3^3 1^3 3^3 1 3 1 3^3 1^3 3^3 1 3^3 1 3^3 1^3 3^3 1 3 1 "
        "3^3 1^3 3^3 1 3^3 1^3 3^3 1"
    )
    w = Word(period * 4, A13)
    assert differentiability_order(w, 4)
    assert not differentiability_order(w, 5)


def test_differentiability_order_empty_word():
    for k in (1, 3, 10):
        assert differentiability_order(Word((), A12), k)


def test_differentiability_order_too_long_run():
    assert not differentiability_order(Word((1, 1, 1), A12), 1)


def test_is_smooth_finite_matches_orders():
    for symbols in all_words((1, 2), 9):
        w = Word(symbols, A12)
        k = 0
        cur = w
        while cur:
            try:
                cur = derivative(cur)
            except NotDifferentiable:
                break
            k += 1
        else:
            assert is_smooth_finite(w)
            continue
        assert not is_smooth_finite(w)
        assert differentiability_order(w, k)
        assert not differentiability_order(w, k + 1)


def test_strict_shrinking():
    for symbols in all_words((1, 2), 10):
        if not symbols:
            continue
        w = Word(symbols, A12)
        try:
            d = derivative(w)
        except NotDifferentiable:
            continue
        assert len(d) < len(w)


# ---------------------------------------------------------------------------
# reversal, permutation, palindromes


def test_reverse_example():
    assert reverse(Word((1, 2, 2), A12)) == (2, 2, 1)


def test_reverse_involution():
    for symbols in all_words((1, 2), 8):
        w = Word(symbols, A12)
        assert reverse(reverse(w)) == w


def test_complement_example():
    comp = Permutation.complement(A12)
    assert apply_permutation(Word((1, 2, 2, 1), A12), comp) == (2, 1, 1, 2)


def test_permutation_rejects_unknown_symbol():
    comp = Permutation.complement(A12)
    with pytest.raises(ValueError):
        apply_permutation(Word((1, 3)), comp)


def test_permutation_identity_detectable():
    assert Permutation.identity(A123).is_identity()
    assert not Permutation.complement(A12).is_identity()
    perms = list(Permutation.all_of(A123))
    assert len(perms) == 6
    assert sum(p.is_identity() for p in perms) == 1


def test_is_palindrome():
    assert is_palindrome(Word((1, 2, 1)))
    assert not is_palindrome(Word((1, 2, 2)))
    assert is_palindrome(Word(()))


def test_palindrome_equivalence_three_letters():
    # a word is a palindrome iff both halves of its coding are
    for symbols in all_words((1, 2, 3), 8):
        w = Word(symbols, A123)
        rd = rle_encode(w)
        assert is_palindrome(w) == (
            is_palindrome(rd.exponents) and is_palindrome(rd.bases)
        )


@settings(max_examples=300)
@given(words123)
def test_coding_commutes_with_reversal_and_permutation(w):
    rd = rle_encode(w)
    assert rle_encode(reverse(w)).exponents == reverse(rd.exponents)
    for sigma in Permutation.all_of(A123):
        assert rle_encode(apply_permutation(w, sigma)).exponents == rd.exponents


def test_derivative_commutes_with_reversal_and_permutation():
    comp = Permutation.complement(A12)
    for symbols in all_words((1, 2), 10):
        w = Word(symbols, A12)
        try:
            d = derivative(w)
        except NotDifferentiable:
            continue
        assert derivative(reverse(w)) == reverse(d)
        assert derivative(apply_permutation(w, comp)) == d


# ---------------------------------------------------------------------------
# text format


def test_parse_and_format():
    assert parse_symbols("2^3 4^2 1") == (2, 2, 2, 4, 4, 1)
    assert parse_symbols("") == ()
    assert format_symbols((2, 2, 4)) == "2 2 4"
    with pytest.raises(ValueError):
        parse_symbols("2^-1")


def test_word_equality_ignores_alphabet_and_mark():
    assert Word((1, 2), A12) == Word((1, 2), A123)
    assert Word((1, 2), A12, is_prefix=True) == (1, 2)


def test_word_file_roundtrip():
    import io

    from smoothwords import read_words, write_words

    words = [Word((1, 2, 2)), Word((2,) * 3 + (4,) * 2)]
    buf = io.StringIO()
    write_words(words, buf)
    assert buf.getvalue() == "1 2 2\n2 2 2 4 4\n"
    back = read_words(io.StringIO("# header comment\n1 2 2\n2^3 4^2\n\n"))
    assert back == words
