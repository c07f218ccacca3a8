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


def test_word_file_roundtrip(tmp_path):
    pair = [Word((1, 2, 2)), Word((2,) * 3 + (4,) * 2)]
    buf = io.StringIO()
    write_words(pair, buf)
    assert buf.getvalue() == "1 2 2\n2 2 2 4 4\n"
    path = tmp_path / "words.txt"
    for w, line in zip(pair, ["1 2 2", "2^3 4^2"]):
        path.write_text(f"# header comment\n\n{line}\n1 1\n")
        assert words.read_data_line(str(path)) == w


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
        assert _outcome(lambda: words.read_data_line(str(path))) == expected
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
        assert words.read_data_line(str(path)).to_array().tolist() == expected
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
            words.read_data_line(str(path))
        assert str(info.value) == message
        assert _whole_line_parse(_first_data_line(raw)) == message


def test_piece_reader_holds_one_block(tmp_path):
    path = tmp_path / "word.txt"
    arr = np.random.default_rng(5).integers(1, 4, size=4 * 10**6)
    with open(path, "w") as handle:
        handle.write("# header\n")
        write_words([Word(arr)], handle)
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
    # a span's temporaries take about 24 bytes per text byte, so the peak
    # follows the span size: 256 KiB spans traced about 8.7 MB here
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
        assert _outcome(lambda: words.read_data_line(str(path))) == expected
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
        assert _outcome(lambda: words.read_data_line(str(path))) == expected
        assert _outcome(lambda: parse_symbols(line)) == expected
    assert messages == {"more than 18 digits", "token too long"}
