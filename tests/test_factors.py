import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    FactorIndex,
    NaiveFactorScan,
    Permutation,
    PieceSource,
    Word,
    closure_check,
    gap_stability_check,
    kolakoski_prefix,
    max_gap_report,
    recurrence_report,
    words,
)
from smoothwords.words import data_line_pieces, write_word_pieces

from strategies import alphabet_words, cut

A12 = Alphabet((1, 2))
A123 = Alphabet((1, 2, 3))


def test_index_matches_naive_on_random_words():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(10, 300))
        arr = rng.integers(1, 4, size=n)
        l_max = int(rng.integers(1, min(10, n) + 1))
        idx = FactorIndex(Word(arr, A123), l_max)
        ref = NaiveFactorScan(arr, l_max)
        for length in range(1, l_max + 1):
            groups = idx.groups(length)
            max_gap, _ = idx.max_gaps(length)
            assert groups.group_count == ref.distinct_count(length)
            factors = _factor_tuples(idx, length)
            assert factors == sorted(ref.factor_set(length))
            for g, factor in enumerate(factors):
                occ = ref.occurrences(factor)
                assert groups.count[g] == len(occ)
                assert groups.first[g] == occ[0]
                expected_second = occ[1] if len(occ) > 1 else -1
                assert groups.second[g] == expected_second
                assert max_gap[g] == ref.max_gap(factor)


def _factor_tuples(idx, length, groups=None):
    """The factors of the index's groups of one length, in group order."""
    return [tuple(f) for f in idx.factors(length, groups).tolist()]


@settings(max_examples=150, deadline=None)
@given(alphabet_words())
def test_index_matches_naive_scan(case):
    word, arr, l_max = case
    idx = FactorIndex(word, l_max)
    ref = NaiveFactorScan(arr, l_max)
    for length in range(1, l_max + 1):
        factors = sorted(ref.factor_set(length))
        occ = [ref.occurrences(f) for f in factors]
        groups = idx.groups(length)
        assert groups.length == length
        assert groups.first.tolist() == [o[0] for o in occ]
        assert groups.second.tolist() == [o[1] if len(o) > 1 else -1 for o in occ]
        assert groups.count.tolist() == [len(o) for o in occ]
        max_gap, _ = idx.max_gaps(length)
        assert max_gap.tolist() == [ref.max_gap(f) for f in factors]
        assert groups.group_count == ref.distinct_count(length)
        assert _factor_tuples(idx, length) == factors


def _first_in_window(ref, length, lo, hi):
    """Factors of one length with a start in [lo, hi), in lexicographic
    order, mapped to their first start there."""
    out = {}
    for factor in sorted(ref.factor_set(length)):
        inside = [p for p in ref.occurrences(factor) if lo <= p < hi]
        if inside:
            out[factor] = inside[0]
    return out


@settings(max_examples=150, deadline=None)
@given(alphabet_words(), st.data())
def test_window_matches_naive_scan(case, data):
    # windows may be empty, reversed or reach past either end
    word, arr, l_max = case
    bound = st.integers(-3, arr.size + 3)
    lo, hi = data.draw(bound), data.draw(bound)
    idx = FactorIndex(word, l_max)
    ref = NaiveFactorScan(arr, l_max)
    for length in range(1, l_max + 1):
        expected = _first_in_window(ref, length, lo, hi)
        rank = {f: g for g, f in enumerate(sorted(ref.factor_set(length)))}
        chosen, starts = idx.window(length, lo, hi)
        assert chosen.tolist() == [rank[f] for f in expected]
        assert _factor_tuples(idx, length, chosen) == list(expected)
        assert starts.tolist() == list(expected.values())


@settings(max_examples=100, deadline=None)
@given(alphabet_words())
def test_closure_middle_third_matches_naive_scan(case):
    w, arr, l_max = case
    n = arr.size
    assume(n >= 3)
    l_max = min(l_max, n // 3)
    ref = NaiveFactorScan(arr, l_max)
    # swapping each letter with one outside the alphabet misses every
    # factor, so the misses are the whole middle-third factor list
    letters = w.alphabet.letters
    outside = [a for a in range(1, 2 * len(letters) + 1) if a not in letters]
    away = dict(zip(letters, outside))
    away = Permutation({**away, **{b: a for a, b in away.items()}})
    listed = []
    for length in range(1, l_max + 1):
        window = _first_in_window(ref, length, n // 3, 2 * n // 3)
        listed += [(factor, pos + 1) for factor, pos in window.items()]
    misses = closure_check(w, away, l_max)
    assert [(m.factor, m.factor_position) for m in misses] == listed
    assert [m.image for m in misses] == [tuple(map(away, f)) for f, _ in listed]
    reversal = [
        (factor, pos)
        for factor, pos in listed
        if factor[::-1] not in ref.factor_set(len(factor))
    ]
    misses = closure_check(w, "reversal", l_max, index=FactorIndex(w, l_max))
    assert [(m.factor, m.factor_position) for m in misses] == reversal
    # a rotation of the alphabet: images in the alphabet, some of them
    # factors of the word and some not
    rotate = Permutation(dict(zip(letters, letters[1:] + letters[:1])))
    rotated = [
        (factor, tuple(map(rotate, factor)), pos)
        for factor, pos in listed
        if tuple(map(rotate, factor)) not in ref.factor_set(len(factor))
    ]
    misses = closure_check(w, rotate, l_max)
    assert [(m.factor, m.image, m.factor_position) for m in misses] == rotated


def test_closure_raises_only_for_letters_outside_the_domain_it_scans():
    # 60 letters: the middle third holds the factors starting in [20, 40)
    swap = Permutation({1: 2, 2: 1})
    arr = np.tile([1, 2, 2, 1], 15)
    arr[[0, 59]] = 3  # outside every middle-third factor
    assert closure_check(Word(arr, A123), swap, 4) == []
    for pos in (30, 41):  # 41 is only in factors that start before 40
        inside = arr.copy()
        inside[pos] = 3
        with pytest.raises(ValueError, match="symbol 3 outside the permutation"):
            closure_check(Word(inside, A123), swap, 4)


def test_closure_images_of_the_largest_letter_are_misses():
    # 60 letters: the middle third holds the factors starting in [20, 40);
    # the largest letter a permutation takes is no letter of the word
    big = 2**63 - 1
    swap = Permutation({1: big, big: 1, 2: 2})
    misses = closure_check(Word(np.tile([1, 2, 2, 1], 15), A12), swap, 2)
    assert [(m.factor, m.image) for m in misses] == [
        ((1,), (big,)),
        ((1, 1), (big, big)),
        ((1, 2), (big, 2)),
        ((2, 1), (2, big)),
    ]


@settings(max_examples=100, deadline=None)
@given(alphabet_words())
def test_gap_stability_half_prefix_matches_naive_scan(case):
    word, arr, l_max = case
    half = arr.size // 2
    assume(half >= 1)
    l_max = min(l_max, half)
    half_ref = NaiveFactorScan(arr[:half], l_max)
    full_ref = NaiveFactorScan(arr, l_max)
    compared, mismatches = 0, []
    for length in range(1, l_max + 1):
        for factor in sorted(half_ref.factor_set(length)):
            compared += 1
            a, b = half_ref.max_gap(factor), full_ref.max_gap(factor)
            if a != b:
                mismatches.append((length, factor, a, b))
    stability = gap_stability_check(word, l_max)
    assert stability.compared == compared
    assert stability.mismatches == mismatches


@settings(max_examples=100, deadline=None)
@given(alphabet_words(), st.data())
def test_recurrence_scan_matches_naive_scan(case, data):
    word, arr, l_max = case
    assume(arr.size >= 2)
    l_max = min(l_max, arr.size // 2)
    scan_len = data.draw(st.integers(l_max, arr.size))
    ref = NaiveFactorScan(arr, l_max)
    expected = []  # the factors that fit in the scan, with 1-based starts
    for length in range(1, l_max + 1):
        for factor in sorted(ref.factor_set(length)):
            occ = ref.occurrences(factor)
            if occ[0] + length <= scan_len:
                second = occ[1] + 1 if len(occ) > 1 else None
                expected.append((length, factor, occ[0] + 1, second))
    report = recurrence_report(word, l_max, scan_len=scan_len)
    assert [(r.length, r.factor, r.first, r.second) for r in report.rows] == expected
    missed = [(length, f) for length, f, _, second in expected if second is None]
    assert [(r.length, r.factor) for r in report.non_recurrent] == missed


def test_index_matches_naive_on_smooth_prefix():
    w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 10**4)
    idx = FactorIndex(w, 12)
    ref = NaiveFactorScan(w, 12)
    for length in (1, 2, 5, 12):
        factors = _factor_tuples(idx, length)
        assert factors == sorted(ref.factor_set(length))
        max_gap, _ = idx.max_gaps(length)
        for g, factor in enumerate(factors):
            assert max_gap[g] == ref.max_gap(factor)


def test_gaps_past_65536_groups_of_one_length():
    # ids of more than 2^16 groups are uint32, which numpy sorts stably by
    # merging, not by radix
    arr = np.random.default_rng(5).integers(1, 5, size=70_000)
    idx = FactorIndex(Word(arr, Alphabet((1, 2, 3, 4))), 10)
    ref, half = NaiveFactorScan(arr, 10), NaiveFactorScan(arr[:35_000], 10)
    factors = _factor_tuples(idx, 10)
    assert len(factors) > 1 << 16
    max_gap, half_max_gap = idx.max_gaps(10)
    assert max_gap.tolist() == [ref.max_gap(f) for f in factors]
    assert half_max_gap.tolist() == [half.max_gap(f) for f in factors]


def test_groups_are_in_lexicographic_factor_order():
    # reports list rows in group order and rely on it being sorted
    rng = np.random.default_rng(1)
    words = [
        kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 3000),
        kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2, 3)), (3, 1, 2)), 3000),
        Word(rng.integers(1, 4, size=800), A123),
        Word(rng.integers(1, 10, size=500), Alphabet(tuple(range(1, 10)))),
    ]
    for w in words:
        idx = FactorIndex(w, 13)
        ref = NaiveFactorScan(w, 13)
        for length in range(1, 14):
            count = idx.groups(length).group_count
            factors = [_factor_tuples(idx, length, [g])[0] for g in range(count)]
            assert factors == sorted(ref.factor_set(length))


def test_factor_count_never_exceeds_window():
    w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 5000)
    idx = FactorIndex(w, 10)
    for length in range(1, 11):
        assert idx.groups(length).group_count <= len(w) - length + 1


def test_window_queries():
    idx = FactorIndex(Word((1, 2, 2, 1, 1, 2, 1, 2, 2), A12), 4)
    window, _ = idx.window(2, 0, 3)
    assert set(_factor_tuples(idx, 2, window)) == {(1, 2), (2, 2), (2, 1)}


_NOT_A_SOURCE = "^word must be a PieceSource or a Word with an alphabet$"


@pytest.mark.parametrize("scanner", [FactorIndex, NaiveFactorScan])
def test_non_integer_words_are_rejected(scanner):
    # the oracle scans integer arrays; the index takes no array at all
    cases = [
        (np.array([1.5, 1.2, 2.0]), "integer dtype"),
        (np.array([True, False]), "integer dtype"),
        (np.array([[1, 2], [2, 1]]), "1-D"),
        (np.int64(3), "1-D"),
        (np.array([2**63, 1, 2**63, 5], dtype=np.uint64), "int64"),
        (np.array([2**63 - 1, 1], dtype=np.uint64), None),
        (np.array([1, 2, 2], dtype=np.uint8), None),
    ]
    for arr, why in cases:
        if scanner is FactorIndex:
            why = _NOT_A_SOURCE
        if why is None:
            assert scanner(arr, 1).distinct_count(1) == 2
        else:
            with pytest.raises(ValueError, match=why):
                scanner(arr, 1)


_REPORTS = {
    "index": FactorIndex,
    "recur": recurrence_report,
    "gaps": max_gap_report,
    "stability": gap_stability_check,
    "closure": lambda w, l_max: closure_check(w, "reversal", l_max),
}


@pytest.mark.parametrize("report", _REPORTS.values(), ids=_REPORTS.keys())
def test_the_factor_layer_reads_only_an_alphabet_word(report):
    # long and short words alike: the input is checked before its length
    for letters in ((1, 2, 2, 1) * 10, (1, 2)):
        for word in (np.array(letters), Word(letters), list(letters)):
            with pytest.raises(ValueError, match=_NOT_A_SOURCE):
                report(word, 3)
        report(Word(letters * 5, A12), 3)


def test_length_bounds():
    with pytest.raises(ValueError, match="^word shorter than l_max$"):
        FactorIndex(Word((1, 2, 1), A12), 5)
    idx = FactorIndex(Word((1, 2, 2, 1, 1, 2, 1, 2, 2, 1), A12), 3)
    queries = [
        idx.groups,
        idx.max_gaps,
        lambda length: idx.window(length, 1, 6),
        idx.ranks,
        idx.factors,
        lambda length: idx.occurs(np.ones((1, length), dtype=np.uint8)),
    ]
    for query in queries:
        for length in (0, 4):
            with pytest.raises(ValueError, match=r"length must be in 1\.\.3"):
                query(length)


# ---------------------------------------------------------------------------
# piece sources: the word is read in pieces, as often as a query needs


def _check_against_naive(idx, arr, l_max, lo, hi):
    ref = NaiveFactorScan(arr, l_max)
    half = NaiveFactorScan(arr[: arr.size // 2], l_max)
    assert len(idx) == arr.size
    for length in range(1, l_max + 1):
        factors = sorted(ref.factor_set(length))
        occ = [ref.occurrences(f) for f in factors]
        groups = idx.groups(length)
        assert [tuple(f) for f in idx.factors(length).tolist()] == factors
        assert groups.first.tolist() == [o[0] for o in occ]
        assert groups.second.tolist() == [o[1] if len(o) > 1 else -1 for o in occ]
        assert groups.count.tolist() == [len(o) for o in occ]
        max_gap, half_max_gap = idx.max_gaps(length)
        assert max_gap.tolist() == [ref.max_gap(f) for f in factors]
        # the half-prefix gaps of the factors that start in the first half
        in_half = groups.first < arr.size // 2 - length + 1
        assert [f for f, kept in zip(factors, in_half) if kept] == sorted(
            half.factor_set(length)
        )
        gaps = half_max_gap[in_half].tolist()
        assert gaps == [half.max_gap(f) for f in sorted(half.factor_set(length))]
        window = _first_in_window(ref, length, lo, hi)
        chosen, starts = idx.window(length, lo, hi)
        assert [factors[g] for g in chosen] == list(window)
        assert starts.tolist() == list(window.values())


@st.composite
def piece_sources(draw):
    """A word over an alphabet that may hold letters it lacks, cut into
    pieces at drawn offsets, an index piece size of 1..8 positions, an
    l_max that may need several key columns, and a window."""
    alphabets = [(1, 2), (1, 2, 3), (2, 6, 10, 14), tuple(range(3, 22, 2))]
    letters = draw(st.sampled_from(alphabets))
    used = sorted(draw(st.sets(st.sampled_from(letters), min_size=1)))
    arr = np.array(draw(st.lists(st.sampled_from(used), min_size=1, max_size=120)))
    offsets = draw(st.lists(st.integers(0, arr.size), max_size=6))
    l_max = draw(st.integers(1, arr.size))
    bound = st.integers(0, arr.size)
    chunk = draw(st.integers(1, 8))
    return Alphabet(letters), arr, offsets, chunk, l_max, draw(bound), draw(bound)


@settings(max_examples=120, deadline=None)
@given(piece_sources())
def test_piece_source_matches_naive_scan(case):
    alphabet, arr, offsets, chunk, l_max, lo, hi = case
    source = PieceSource(alphabet, lambda: cut(arr, offsets))
    with pytest.MonkeyPatch.context() as patch:
        # index pieces of a few positions: a cut at every offset mod chunk
        patch.setattr(words, "_WRITE_CHUNK", chunk)
        idx = FactorIndex(source, l_max)
        _check_against_naive(idx, arr, l_max, lo, hi)


@settings(max_examples=40, deadline=None)
@given(piece_sources())
def test_word_file_source_matches_naive_scan(tmp_path_factory, case):
    alphabet, arr, _, chunk, l_max, lo, hi = case
    path = tmp_path_factory.mktemp("source") / "word.txt"
    with open(path, "w") as handle:
        handle.write("# a comment line\n")
        write_word_pieces([arr], handle)
    source = PieceSource(alphabet, lambda: data_line_pieces(str(path)))
    with pytest.MonkeyPatch.context() as patch:
        # parser spans of 16 bytes: 5 to 8 letters a piece
        patch.setattr(words, "_PARSE_CHUNK", 16)
        patch.setattr(words, "_WRITE_CHUNK", chunk)
        idx = FactorIndex(source, l_max)
        _check_against_naive(idx, arr, l_max, lo, hi)


def test_piece_source_reads_the_word_only_for_position_queries():
    w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 5000)
    reads = []

    def read():
        reads.append(1)
        return iter([w.to_array()])

    idx = FactorIndex(PieceSource(w.alphabet, read), 12)
    recurrence_report(w, 12, index=idx)  # starts, counts and factors only
    assert len(reads) == 1
    max_gap_report(w, 12, index=idx)
    gap_stability_check(w, 12, index=idx)  # one pass gives every length's gaps
    assert len(reads) == 2
