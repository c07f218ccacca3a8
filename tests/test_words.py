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
    BaseSequenceSpec,
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
    kolakoski_prefix,
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
    assert Alphabet((1, 2**63 - 1)).dtype == np.int64
    with pytest.raises(ValueError, match="alphabet letters must fit int64"):
        Alphabet((1, 2**70))


def test_alphabet_arithmetic():
    a = Alphabet((2, 6, 10, 14))
    assert a.size == 4
    assert a.remainder == 2
    assert Alphabet((1, 2)).remainder is None
    assert Alphabet((3, 6, 9)).remainder == 0


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


def _naive_derivative(symbols, alphabet, is_prefix):
    """The derivative by its definition, over a list of letters."""
    runs = [len(list(group)) for _, group in itertools.groupby(symbols)]
    runs = runs[:-1] if is_prefix else runs
    a_n = alphabet.largest
    if runs and max(runs) > a_n:
        raise NotDifferentiable(f"run longer than a_n={a_n}")
    if any(r not in alphabet for r in runs[1:-1]):
        raise NotDifferentiable("interior run length outside the alphabet")
    # an edge run stays only at full length a_n
    return [r for i, r in enumerate(runs) if 0 < i < len(runs) - 1 or r == a_n]


def _pieces(symbols, cuts):
    """``symbols`` as int64 arrays cut at ``cuts``; a repeated cut gives
    an empty piece."""
    bounds = [0, *sorted(cuts), len(symbols)]
    return [np.array(symbols[a:b], dtype=np.int64) for a, b in zip(bounds, bounds[1:])]


@st.composite
def cut_words(draw):
    """An alphabet, a word over it (a smooth prefix, perhaps edited once, or
    random letters) and cuts that split it into pieces."""
    alphabet = draw(st.sampled_from([A12, A13, A123, Alphabet((2, 3))]))
    if draw(st.booleans()):
        spec = BaseSequenceSpec(alphabet, alphabet.letters)
        symbols = list(kolakoski_prefix(spec, draw(st.integers(1, 400))))
        at = draw(st.integers(0, len(symbols)))
        edit = draw(st.sampled_from([None, *alphabet.letters]))
        if edit is not None:
            symbols.insert(at, edit)
    else:
        symbols = draw(st.lists(st.sampled_from(alphabet.letters), max_size=60))
    cuts = draw(st.lists(st.integers(0, len(symbols)), max_size=6))
    return alphabet, symbols, cuts


@settings(max_examples=400, deadline=None)
@given(cut_words(), st.integers(0, 5), st.booleans())
def test_streamed_derivatives_match_the_definition(case, times, is_prefix):
    alphabet, symbols, cuts = case
    expected = symbols
    try:
        for k in range(times):
            expected = _naive_derivative(expected, alphabet, is_prefix and k == 0)
    except NotDifferentiable as exc:
        expected = str(exc)
    pieces = words._derived_pieces(_pieces(symbols, cuts), alphabet, is_prefix, times)
    try:
        got = np.concatenate([np.zeros(0, np.int64), *pieces]).tolist()
    except NotDifferentiable as exc:
        got = str(exc)
    assert got == expected


def _naive_order(symbols, alphabet, is_prefix, k):
    """Whether ``_naive_derivative`` applies k times, the prefix mark
    trimming the first; the empty word differentiates forever."""
    for i in range(k):
        if not symbols:
            return True
        try:
            symbols = _naive_derivative(symbols, alphabet, is_prefix and i == 0)
        except NotDifferentiable:
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(cut_words(), st.integers(0, 12), st.booleans(), st.sampled_from([3, 7, 2**16]))
def test_derivative_and_orders_match_repeated_naive_ones(case, k, is_prefix, chunk):
    # smooth prefixes reach the empty word within a few orders; pieces of
    # 3 or 7 letters put the word's cuts everywhere
    alphabet, symbols, _ = case
    w = Word(symbols, alphabet, is_prefix=is_prefix)
    try:
        expected = _naive_derivative(symbols, alphabet, is_prefix)
    except NotDifferentiable as exc:
        expected = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_WRITE_CHUNK", chunk)
        try:
            got = list(derivative(w))
        except NotDifferentiable as exc:
            got = str(exc)
        assert got == expected
        order = differentiability_order(w, k)
        assert order == _naive_order(symbols, alphabet, is_prefix, k)
        smooth = is_smooth_finite(w)
        assert smooth == _naive_order(symbols, alphabet, is_prefix, len(symbols))


def test_derivative_and_orders_keep_their_argument_errors():
    bare, no_alphabet = Word((1, 2, 2)), "^derivative needs a word with an alphabet$"
    calls = [
        lambda: derivative(bare),
        lambda: derivative(Word(())),
        lambda: differentiability_order(bare, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=no_alphabet):
            call()
    # no derivative to take, or none of the empty word: nothing is checked
    assert differentiability_order(bare, 0) and differentiability_order(Word(()), 3)
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        differentiability_order(Word((1,), A12), -1)


def test_derivative_holds_its_pieces_narrow():
    # the derivative's pieces wait for the join one byte a letter, so the
    # peak is the int64 result and little more
    w = kolakoski_prefix(BaseSequenceSpec(A12, (1, 2)), 10**6)
    tracemalloc.start()
    try:
        d = derivative(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * d.to_array().nbytes


_WIDTHS = {
    np.uint8: st.integers(0, 2**8 - 1),
    np.uint16: st.integers(0, 2**16 - 1),
    np.uint32: st.integers(0, 2**32 - 1),
    # negative letters, as the parser yields them
    np.int64: st.integers(-(2**63), 2**63 - 1),
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(list(_WIDTHS)).flatmap(
            lambda t: st.lists(_WIDTHS[t], max_size=6).map(lambda v: np.array(v, t))
        ),
        max_size=5,
    ),
    st.booleans(),
)
def test_joined_makes_one_int64_word_of_any_pieces(pieces, is_prefix):
    expected = [int(v) for piece in pieces for v in piece.tolist()]
    w = words._joined(iter(pieces))
    assert w.to_array().dtype == np.int64
    assert w == expected and w.alphabet is None and not w.is_prefix
    w = words._joined(iter(pieces), A12, is_prefix)
    assert w == expected and w.alphabet is A12 and w.is_prefix == is_prefix
    assert w.to_array().dtype == np.int64 and not w.to_array().flags.writeable


def test_smoothness_check_holds_one_piece():
    w = kolakoski_prefix(BaseSequenceSpec(A12, (1, 2)), 10**6)
    tracemalloc.start()
    try:
        assert is_smooth_finite(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each order holds one piece's runs: about 2.2 MB at 10^6 letters and
    # at 10^7; differentiating the whole word at once holds 16 bytes a letter
    assert peak < 4 * 2**20


@settings(max_examples=200, deadline=None)
@given(cut_words())
def test_streamed_run_coding_matches_groupby(case):
    _, symbols, cuts = case
    runs = list(words._run_pieces(_pieces(symbols, cuts)))
    assert np.concatenate([r[0] for r in runs]).tolist() == [
        len(list(group)) for _, group in itertools.groupby(symbols)
    ]
    assert np.concatenate([r[1] for r in runs]).tolist() == [
        letter for letter, _ in itertools.groupby(symbols)
    ]


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


def test_permutation_letters_fit_int64():
    big, least = 2**63 - 1, -(2**63)
    sigma = Permutation({1: big, big: least, least: 1, 2: 2})
    assert apply_permutation(Word((1, 2, big)), sigma) == (big, 2, least)
    for mapping in ({1: 2**70, 2**70: 1, 2: 2}, {least - 1: 1, 1: least - 1}):
        with pytest.raises(ValueError, match="permutation letters must fit int64"):
            Permutation(mapping)


def test_apply_permutation_on_letters_ranked_by_search():
    # a letter from 2¹⁶ on: the domain is searched, not tabled
    big = 2**40
    sigma = Permutation({1: big, big: 1})
    assert apply_permutation(Word((big, 1, big)), sigma) == (1, big, 1)
    with pytest.raises(ValueError, match=f"symbol {big + 1} outside"):
        apply_permutation(Word((1, big + 1)), sigma)


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


def _permutations(alphabet):
    letters = alphabet.letters
    return [
        Permutation(dict(zip(letters, image)))
        for image in itertools.permutations(letters)
    ]


def _is_identity(sigma):
    return all(k == v for k, v in sigma.mapping.items())


def test_permutation_identity_detectable():
    assert _is_identity(Permutation({a: a for a in A123}))
    assert not _is_identity(Permutation.complement(A12))
    perms = _permutations(A123)
    assert len(perms) == 6
    assert sum(_is_identity(p) for p in perms) == 1


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
    for sigma in _permutations(A123):
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


@st.composite
def _span_edge_texts(draw):
    """Texts in 64-byte spans with a token that starts or ends with a
    sign, caret or invalid byte: at the first byte of the second span,
    ending just before the first span's last byte (a space), ending at the
    first span's last byte (so the span is cut before it), or ending the
    text."""
    token = draw(
        st.one_of(
            _number(st.integers(0, 10**6)).filter(lambda t: t[0] in "+-"),
            st.sampled_from(["1^", "^2", "1^2^3", "--1", "1-", "a", "2^-1", "+", "^",
                             "-", "1+2", "1^+-2", "x7", "7x", "2^+3", "3^-0", "5^2"]),
        )
    )
    where = draw(st.sampled_from(["first", "last", "cut", "end"]))
    end = draw(st.integers(64, 80))
    gap = {"first": 64, "last": 63 - len(token), "cut": 64 - len(token), "end": end}[where]
    filler = "1 " * (gap // 2) + " " * (gap % 2)
    rest = "" if where == "end" else " " + draw(_text_of(_valid_tokens))
    return filler + token + rest


@settings(max_examples=200, deadline=None)
@given(_span_edge_texts())
def test_parse_matches_tuple_oracle_at_span_edges(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_PARSE_CHUNK", 64)
        _check_parse_matches_oracle(text)


@pytest.mark.parametrize("second", [2**15 - 6, 2**15 - 5, 2**15 - 4, 2**15])
def test_run_budget_holds_per_32_kib_span(tmp_path, monkeypatch, second):
    # two 30-letter runs pass a budget of 50 only in different spans; the
    # second shares the first span when a space follows it within the span
    assert words._PARSE_CHUNK == 2**15
    monkeypatch.setattr(words, "DEFAULT_BUDGET", 50)
    first = second - 5
    text = "1 " * (first // 2) + " " * (first % 2) + "9^30 9^30 1\n"
    path = tmp_path / "word.txt"
    path.write_text(text)
    if second + 4 < 2**15:
        for read in (lambda: parse_symbols(text), lambda: _data_line(path)):
            with pytest.raises(ValueError, match="runs past 50 symbols in token '9\\^30'"):
                read()
    else:
        expected = (1,) * (first // 2) + (9,) * 60 + (1,)
        assert parse_symbols(text) == _data_line(path) == expected


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
        words.write_word_pieces([arr], buf)
        words.write_word_pieces([], buf)
        assert buf.getvalue() == expected + "\n\n"
    if all(abs(v) < 10**18 for v in values):
        assert parse_symbols(expected) == values


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _integer_arrays(draw):
    """Arrays of every integer dtype: extremes, negatives, mixed widths."""
    dtype = draw(st.sampled_from(_INT_DTYPES))
    info = np.iinfo(dtype)
    edges = [v for v in (0, 1, 9, 10, 99, 100, 255, 256, -1, -9, -10) if info.min <= v <= info.max]
    value = st.one_of(
        st.integers(int(info.min), int(info.max)),
        st.sampled_from([int(info.min), int(info.max), *edges]),
        st.integers(0, 20),
    )
    return np.array(draw(st.lists(value, max_size=50)), dtype=dtype)


@settings(max_examples=400, deadline=None)
@given(_integer_arrays())
def test_format_kernel_matches_str_join(arr):
    expected = " ".join(map(str, arr.tolist()))
    assert format_symbols(arr) == expected
    assert format_symbols(arr.tolist()) == expected
    if arr.size:
        text = words._symbol_bytes(arr)
        assert bytes(text) == (expected + " ").encode()
        text[0] = ord(" ")  # a writable buffer, which the CSV writer edits


def test_format_of_narrow_and_unsigned_arrays():
    assert format_symbols(np.array([0, 7, 255], dtype=np.uint8)) == "0 7 255"
    every = np.random.default_rng(3).permutation(256)  # each one-byte value
    for dtype in (np.uint8, np.int16, np.int64):
        assert format_symbols(every.astype(dtype)) == " ".join(map(str, every.tolist()))
    assert format_symbols(np.array([2**64 - 1], dtype=np.uint64)) == str(2**64 - 1)
    assert format_symbols(np.array([-128, 5], dtype=np.int8)) == "-128 5"


_N = 2**16 + 3  # one full _WRITE_CHUNK slice, then a slice of three


@pytest.mark.parametrize(
    "pattern, tail",
    [
        ([-1, -(10**17), 5], []),
        ([-(2**63), 2**63 - 1, 0], []),  # the int64 extremes
        ([2**63, 1, 2**63 + 5], []),  # fits uint64 only
        ([2**63, -1, 3], []),  # fits no integer dtype: numpy makes it float
        ([2**64, 1, 2], []),  # past uint64: numpy makes it object
        ([True, False], []),
        ([True, 1, 2], []),  # numpy would read True as 1
        ([np.True_, 1, 2], []),
        ([1.0, 2.5, 3.0], []),
        ([np.int8(-3), np.uint64(2**64 - 1), np.int32(7)], []),
        ([np.float64(1.5), 2, 3], []),
        ([1, 2, 3], [2.5]),  # the only non-int sits in the last slice
        ([1, 2, 3], [True]),
        ([1, 2, 3], [2**64]),
    ],
)
@pytest.mark.parametrize("container", [list, tuple])
def test_format_of_long_sequences_matches_str(pattern, tail, container):
    seq = container((pattern * _N)[: _N - len(tail)] + tail)
    assert len(seq) == _N
    assert format_symbols(seq) == " ".join(str(s) for s in seq)


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
        words.write_word_pieces([arr], buf)
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


def _data_line(path):
    """The first data line of a word file, joined from its pieces."""
    pieces = words.data_line_pieces(str(path))
    return Word(np.concatenate([np.zeros(0, dtype=np.int64), *pieces]))


def test_word_file_roundtrip(tmp_path):
    pair = [Word((1, 2, 2)), Word((2,) * 3 + (4,) * 2)]
    buf = io.StringIO()
    for w in pair:
        words.write_word_pieces([w.to_array()], buf)
    assert buf.getvalue() == "1 2 2\n2 2 2 4 4\n"
    path = tmp_path / "words.txt"
    for w, line in zip(pair, ["1 2 2", "2^3 4^2"]):
        path.write_text(f"# header comment\n\n{line}\n1 1\n")
        assert _data_line(path) == w


# ---------------------------------------------------------------------------
# the piece reader


def _whole_line_parse(raw):
    """The in-memory parser the piece reader replaced: the whole text is
    checked for ASCII first, then parsed in spans cut after their last
    space.  Returns the symbols, or the ValueError text it raises."""
    data = np.frombuffer(raw, dtype=np.uint8)
    try:
        if data.size and data.max() > 127:
            raise ValueError("word text must be ASCII")
        pieces, start = [np.empty(0, dtype=np.int64)], 0
        while start < data.size:
            span = data[start : start + words._PARSE_CHUNK]
            classes = words._BYTE_CLASS[span]
            if start + span.size < data.size:
                space = classes == words._SPACE
                back = int(space[::-1].argmax())
                if not space[-1 - back]:
                    raise words._token_error(span, 0, "token too long")
                span, classes = span[: span.size - back], classes[: span.size - back]
            pieces.append(words._parse_span(span, classes))
            start += span.size
    except ValueError as exc:
        return str(exc)
    return np.concatenate(pieces).tolist()


def _first_data_line(raw):
    """The first line that is neither blank nor a comment, as the CLI read it."""
    for line in io.BytesIO(raw):
        if line.strip() and not line.lstrip().startswith(b"#"):
            return line
    return b""


def _outcome(read):
    try:
        return read().to_array().tolist()
    except ValueError as exc:
        return str(exc)


_in_line_separators = st.sampled_from([" ", "  ", "\t", "\r", " \x0b", "\x0c"])
_faults = st.sampled_from(
    ["", "", "", "é", "\x80", "1" * 150, "9^30 9^30", "x", "1^^2"]
)


@st.composite
def _word_files(draw):
    """Word files: blank and comment lines, one data line, maybe a second."""
    pre = draw(
        st.lists(
            st.one_of(
                st.sampled_from(["", " ", "\t \x0b", "\r", " " * 70]),
                st.builds(
                    lambda ws, body: ws + "#" + body,
                    st.sampled_from(["", "  ", "\t"]),
                    st.one_of(st.text(max_size=20), st.just("c" * 150)),
                ),
            ),
            max_size=4,
        )
    )
    ends = st.sampled_from(["\n", "\r\n"])
    head = "".join(line + draw(ends) for line in pre)
    lead = draw(st.sampled_from(["", " ", "\t\t", " " * 70, " " * 130]))
    pairs = draw(
        st.lists(
            st.tuples(st.one_of(_valid_tokens, _malformed_tokens), _in_line_separators),
            min_size=1,
            max_size=30,
        )
    )
    body = "".join(t + sep for t, sep in pairs)
    fault = draw(_faults)
    at = draw(st.integers(0, len(body)))
    body = body[:at] + " " + fault + " " + body[at:] if fault else body
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    second = draw(st.sampled_from(["", "1 2\n", "# late\n", "é x ^\n"]))
    return (head + lead + body + end + (second if end else "")).encode()


@settings(max_examples=300, deadline=None)
@given(_word_files(), st.sampled_from([40, 64, 101]))
def test_piece_reader_matches_whole_line_parse(tmp_path_factory, raw, chunk):
    # blocks of 40-101 bytes put cuts at every offset of tokens, comments
    # and the line's leading whitespace; the budget is small enough for
    # the generated runs to pass it
    path = tmp_path_factory.mktemp("files") / "word.txt"
    path.write_bytes(raw)
    line = _first_data_line(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_PARSE_CHUNK", chunk)
        mp.setattr(words, "DEFAULT_BUDGET", 50)
        expected = _whole_line_parse(line)
        assert _outcome(lambda: _data_line(path)) == expected
        assert _outcome(lambda: parse_symbols(line)) == expected


def test_piece_reader_edge_files(tmp_path):
    path = tmp_path / "word.txt"
    for raw, expected in [
        (b"", []),
        (b"# only a comment", []),
        (b"\n \t\r\n# c\n\x0c\n", []),
        (b"# \xc3\xa9\n1 2 2", [1, 2, 2]),  # comment bytes are not checked
        (b"#" + b"c" * 600_000 + b"\n\n 2^3 1\r\n9 9\n", [2, 2, 2, 1]),
        (b"\n" + b" " * 600_000 + b"1 2\n3\n", [1, 2]),
    ]:
        path.write_bytes(raw)
        assert _data_line(path).to_array().tolist() == expected
        assert sum(p.size for p in words.data_line_pieces(str(path))) == len(expected)


def test_piece_reader_error_texts(tmp_path):
    path = tmp_path / "word.txt"
    digits = b"1" * (words._PARSE_CHUNK + 5)
    for raw, message in [
        (b"# made by hand\n1 2 \xc3\xa9 2\n", "word text must be ASCII"),
        # the ASCII fault wins over an earlier invalid token in another span
        (b"1 x " + b"1 2 " * 100_000 + b"\xff\n", "word text must be ASCII"),
        (b"1 2 3^ 2\n", "invalid text in token '3^'"),
        (b"1 " + digits + b" 2\n", "token too long in token '" + "1" * 40 + "'"),
        (b"1 2 99999999999999999999\n", "more than 18 digits in token '99999999999999999999'"),
        (b"1^99999999 2^99999999\n", "runs past 100000000 symbols in token '2^99999999'"),
    ]:
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            _data_line(path)
        assert str(info.value) == message
        assert _whole_line_parse(_first_data_line(raw)) == message


def test_piece_reader_holds_one_block(tmp_path):
    path = tmp_path / "word.txt"
    arr = np.random.default_rng(5).integers(1, 4, size=4 * 10**6)
    with open(path, "w") as handle:
        handle.write("# header\n")
        words.write_word_pieces([arr], handle)
    tracemalloc.start()
    try:
        total = 0
        for piece in words.data_line_pieces(str(path)):
            total += piece.size
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == arr.size
    assert peak < 16 * 2**20  # the word's int64 array alone is 32 MB


def test_piece_reader_span_temporaries_stay_small(tmp_path):
    # a span's temporaries take about 20 bytes per text byte, so the peak
    # follows the span size: 256 KiB spans traced about 6.8 MB here
    path = tmp_path / "word.txt"
    path.write_bytes(b"1 3 " * 10**6 + b"\n")
    tracemalloc.start()
    try:
        total = 0
        for piece in words.data_line_pieces(str(path)):
            total += piece.size
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == 2 * 10**6
    assert peak <= 3 * 10**6


@pytest.mark.parametrize("chunk", [40, 64])
def test_leading_whitespace_keeps_the_whole_line_spans(tmp_path, monkeypatch, chunk):
    # two 30-letter runs pass a budget of 50 only when they share a span,
    # and where the spans are cut depends on the whitespace before them
    monkeypatch.setattr(words, "_PARSE_CHUNK", chunk)
    monkeypatch.setattr(words, "DEFAULT_BUDGET", 50)
    path = tmp_path / "word.txt"
    outcomes = set()
    for lead in range(3 * chunk):
        line = b" " * lead + b"9^30 9^30 1\n"
        path.write_bytes(b"# c\n\t\n" + line)
        expected = _whole_line_parse(line)
        outcomes.add(isinstance(expected, str))
        assert _outcome(lambda: _data_line(path)) == expected
    assert outcomes == {True, False}


def test_a_span_that_ends_the_text_is_not_cut(tmp_path, monkeypatch):
    # a span without a space is one token only if nothing follows it
    monkeypatch.setattr(words, "_PARSE_CHUNK", 64)
    path = tmp_path / "word.txt"
    messages = set()
    for line in (b"1" * 63 + b"\n", b"1" * 64, b"1" * 64 + b"\n", b"1" * 65):
        path.write_bytes(b"# c\n" + line)
        expected = _whole_line_parse(line)
        messages.add(expected.split(" in token")[0])
        assert _outcome(lambda: _data_line(path)) == expected
        assert _outcome(lambda: parse_symbols(line)) == expected
    assert messages == {"more than 18 digits", "token too long"}
