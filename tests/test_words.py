import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import words
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
    write_words,
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


def test_admits_read_only_words_in_bounded_memory():
    arr = np.ones(5 * 10**6, dtype=np.int64)
    arr[::3] = 2
    arr.flags.writeable = False  # as in every Word, which take would copy
    tracemalloc.start()
    try:
        assert A12.admits(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for bad in (0, -1, 3, 10**6):
        late = np.ones(5 * 10**6, dtype=np.int64)
        late[-1] = bad
        assert not A12.admits(late)
    assert A12.admits(np.array([], dtype=np.int64))


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
    w = Word(period.symbols * 4, A13)
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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), max_size=40),
    st.lists(st.integers(1, 10), max_size=6, unique=True),
    st.randoms(use_true_random=False),
)
def test_apply_permutation_matches_per_letter_map(symbols, domain, rnd):
    image = list(domain)
    rnd.shuffle(image)
    sigma = Permutation(dict(zip(domain, image)))
    w = Word(symbols)
    try:
        expected = [sigma(s) for s in symbols]
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            apply_permutation(w, sigma)
        return
    assert apply_permutation(w, sigma).to_array().tolist() == expected


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


def _oracle_parse(text):
    """The tuple-building parser the numpy tokeniser replaced."""
    out = []
    for token in text.split():
        if "^" in token:
            base_s, exp_s = token.split("^", 1)
            base, exp = int(base_s), int(exp_s)
            if exp < 0:
                raise ValueError(f"negative exponent in token {token!r}")
            out.extend([base] * exp)
        else:
            out.append(int(token))
    return tuple(out)


def _oracle_format(symbols):
    """The str-joining formatter the numpy byte kernel replaced."""
    return " ".join(str(s) for s in symbols)


def _number(value):
    return st.builds(
        lambda sign, zeros, v: sign + "0" * zeros + str(v),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 3),
        value,
    )


# numbers of up to 21 digits (with leading zeros), runs with exponents
# 0..4 (optional sign, leading zeros), and malformed tokens
_valid_tokens = st.one_of(
    _number(st.one_of(st.integers(0, 20), st.integers(0, 10**18 - 1))),
    st.builds(
        lambda b, e: f"{b}^{e}",
        _number(st.integers(0, 30)),
        _number(st.integers(0, 4)),
    ),
)
_malformed_tokens = st.sampled_from(
    ["1^", "^2", "1^2^3", "--1", "1-", "a", "2^-1", "2^-0", "+", "^",
     "1^^2", "1+2", "1^+-2", "-", "2^+3", "0^0"]
)
_separators = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " \x0b", "\x0c"])


def _text_of(tokens):
    return st.builds(
        lambda lead, pairs: lead + "".join(t + sep for t, sep in pairs),
        st.sampled_from(["", " ", "\n\t"]),
        st.lists(st.tuples(tokens, _separators), max_size=25),
    )


_texts = st.one_of(
    _text_of(_valid_tokens), _text_of(st.one_of(_valid_tokens, _malformed_tokens))
)


def _check_parse_matches_oracle(text):
    try:
        expected = _oracle_parse(text)
        # the one narrowing of the grammar: a number has at most 18 digits
        if re.search(r"\d{19}", text):
            raise ValueError("more than 18 digits")
    except ValueError:
        with pytest.raises(ValueError):
            parse_symbols(text)
        return
    got = parse_symbols(text)
    assert isinstance(got, Word) and got.alphabet is None
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_parse_matches_tuple_oracle(text):
    _check_parse_matches_oracle(text)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_parse_matches_tuple_oracle_across_spans(text):
    # spans of 64 bytes: longer than any valid token (39 bytes), so the
    # cut between spans is exercised without changing the grammar
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_PARSE_CHUNK", 64)
        _check_parse_matches_oracle(text * 4)


_int64 = st.one_of(
    st.integers(0, 20),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 9, 10, 99, 100, -10, 10**18 - 1]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_int64, max_size=40), st.sampled_from([1, 3, 2**16]))
def test_format_matches_str_oracle(values, chunk):
    arr = np.array(values, dtype=np.int64)
    expected = _oracle_format(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_WRITE_CHUNK", chunk)
        assert format_symbols(arr) == expected
        assert format_symbols(Word(arr)) == expected
        assert format_symbols(tuple(values)) == expected
        buf = io.StringIO()
        write_words([Word(arr), Word(())], buf)
        assert buf.getvalue() == expected + "\n\n"
    if all(abs(v) < 10**18 for v in values):
        assert parse_symbols(expected) == values


def test_format_of_narrow_and_unsigned_arrays():
    assert format_symbols(np.array([0, 7, 255], dtype=np.uint8)) == "0 7 255"
    assert format_symbols(np.array([2**64 - 1], dtype=np.uint64)) == str(2**64 - 1)
    assert format_symbols(np.array([-128, 5], dtype=np.int8)) == "-128 5"


@pytest.mark.parametrize("extra", [-1, 0, 1, 2**16 + 7])
def test_text_roundtrip_across_write_chunks(extra):
    rng = np.random.default_rng(extra + 2)
    n = words._WRITE_CHUNK + extra
    for arr in (
        rng.integers(1, 3, size=n),  # one digit, no compaction
        rng.integers(-(10**17), 10**17, size=n),  # signs and widths mix
        np.where(rng.random(n) < 0.5, 2, 14),  # widths differ
    ):
        text = format_symbols(arr)
        assert text == _oracle_format(arr.tolist())
        assert parse_symbols(text) == Word(arr)
        buf = io.StringIO()
        write_words([Word(arr)], buf)
        assert buf.getvalue() == text + "\n"


def test_parse_rejects_what_int_accepted():
    for text in ("1_000", "\u0661", "1\u00a02", "1\x1c2", "0" * 19, "1" * 70):
        with pytest.raises(ValueError):
            parse_symbols(text)
    assert parse_symbols("0" * 18 + " " + "9" * 18) == (0, 10**18 - 1)
    with pytest.raises(ValueError, match="negative exponent"):
        parse_symbols("3 2^-1")


def test_parse_takes_ascii_bytes():
    assert parse_symbols(b"2^3 4^2\t1\r\n") == (2, 2, 2, 4, 4, 1)
    for text in (b"1 \xc3\xa9 2", b"\xff", b"1 2\x80", "1 \u00e9 2"):
        with pytest.raises(ValueError, match="must be ASCII"):
            parse_symbols(text)


def test_runs_past_the_budget_fail_before_expanding(monkeypatch):
    with pytest.raises(ValueError, match="'1\\^999999999999999999'"):
        parse_symbols("1^999999999999999999")
    # a sum of huge runs wraps int64 only after passing the budget
    with pytest.raises(ValueError, match="in token '2\\^999999999999999999'"):
        parse_symbols("3 2^999999999999999999 " * 20)
    monkeypatch.setattr(words, "DEFAULT_BUDGET", 10)
    assert parse_symbols("1^6 2^4 5 6") == (1,) * 6 + (2,) * 4 + (5, 6)
    with pytest.raises(ValueError, match="runs past 10 symbols in token '2\\^5'"):
        parse_symbols("1^6 2^5")


def test_word_from_word_takes_its_array(monkeypatch):
    w = Word((1, 2, 2, 1), A12)

    def no_iteration(self):
        raise AssertionError("Word(Word) iterated letter by letter")

    monkeypatch.setattr(Word, "__iter__", no_iteration)
    v = Word(w, A123)
    assert np.shares_memory(v.to_array(), w.to_array())
    assert v.alphabet == A123 and not v.to_array().flags.writeable
    assert v.to_array().tolist() == [1, 2, 2, 1]
    with pytest.raises(ValueError):
        Word(Word((1, 3)), A12)


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
