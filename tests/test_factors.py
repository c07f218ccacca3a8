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


def test_index_matches_naive_on_random_words():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(10, 300))
        arr = rng.integers(1, 4, size=n)
        l_max = int(rng.integers(1, min(10, n) + 1))
        idx = FactorIndex(arr, l_max)
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


SMOOTH_PREFIXES = (
    kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 300),
    kolakoski_prefix(BaseSequenceSpec(Alphabet((3, 6, 9)), (9, 3, 6)), 300),
)


@st.composite
def words_and_l_max(draw):
    """Random words over alphabets with 0, negative and large letters, or
    over up to 300 letters from the whole int64 range (a key column then
    holds a few letters and the last one is partial), or smooth
    prefixes, with l_max anywhere in 1..len(w)."""
    kind = draw(st.sampled_from(["few", "many", "smooth"]))
    if kind != "smooth":
        pool = draw(st.sampled_from([(1, 2, 3), (-3, 0, 7, 10**6), (0, 1), (-1,)]))
        if kind == "many":
            wide = st.integers(-(2**63), 2**63 - 1)
            pool = draw(st.lists(wide, min_size=1, max_size=300, unique=True))
        letters = st.sampled_from(pool)
        arr = np.array(draw(st.lists(letters, min_size=1, max_size=300)))
    else:
        word = draw(st.sampled_from(SMOOTH_PREFIXES))
        arr = word.to_array()[: draw(st.integers(1, len(word)))]
    n = arr.size
    powers = [1 << k for k in range(n.bit_length()) if 1 << k <= n]
    l_max = draw(st.one_of(st.integers(1, n), st.sampled_from(powers + [n])))
    return arr, l_max


@settings(max_examples=150, deadline=None)
@given(words_and_l_max())
def test_index_matches_naive_scan(case):
    arr, l_max = case
    idx = FactorIndex(arr, l_max)
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
@given(words_and_l_max(), st.data())
def test_window_matches_naive_scan(case, data):
    # windows may be empty, reversed or reach past either end
    arr, l_max = case
    bound = st.integers(-3, arr.size + 3)
    lo, hi = data.draw(bound), data.draw(bound)
    idx = FactorIndex(arr, l_max)
    ref = NaiveFactorScan(arr, l_max)
    for length in range(1, l_max + 1):
        expected = _first_in_window(ref, length, lo, hi)
        rank = {f: g for g, f in enumerate(sorted(ref.factor_set(length)))}
        chosen, starts = idx.window(length, lo, hi)
        assert chosen.tolist() == [rank[f] for f in expected]
        assert _factor_tuples(idx, length, chosen) == list(expected)
        assert starts.tolist() == list(expected.values())


@settings(max_examples=100, deadline=None)
@given(words_and_l_max())
def test_closure_middle_third_matches_naive_scan(case):
    arr, l_max = case
    n = arr.size
    assume(n >= 3)
    l_max = min(l_max, n // 3)
    w = Word(arr)
    ref = NaiveFactorScan(arr, l_max)
    # swapping each letter with one absent from the word misses every
    # factor, so the misses are the whole middle-third factor list
    letters = set(arr.tolist())
    shift = max(letters) - min(letters) + 1
    away = {a: a + shift for a in letters}
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
    misses = closure_check(w, "reversal", l_max, index=FactorIndex(arr, l_max))
    assert [(m.factor, m.factor_position) for m in misses] == reversal
    # a rotation of the word's own letters: images in the alphabet, some
    # of them factors of the word and some not
    ordered = sorted(letters)
    rotate = Permutation(dict(zip(ordered, ordered[1:] + ordered[:1])))
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
    assert closure_check(Word(arr), swap, 4) == []
    for pos in (30, 41):  # 41 is only in factors that start before 40
        inside = arr.copy()
        inside[pos] = 3
        with pytest.raises(ValueError, match="symbol 3 outside the permutation"):
            closure_check(Word(inside), swap, 4)


@settings(max_examples=100, deadline=None)
@given(words_and_l_max())
def test_gap_stability_half_prefix_matches_naive_scan(case):
    arr, l_max = case
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
    stability = gap_stability_check(Word(arr), l_max)
    assert stability.compared == compared
    assert stability.mismatches == mismatches


@settings(max_examples=100, deadline=None)
@given(words_and_l_max(), st.data())
def test_recurrence_scan_matches_naive_scan(case, data):
    arr, l_max = case
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
    report = recurrence_report(Word(arr), l_max, scan_len=scan_len)
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


def test_groups_are_in_lexicographic_factor_order():
    # reports list rows in group order and rely on it being sorted
    rng = np.random.default_rng(1)
    words = [
        kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 3000),
        kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2, 3)), (3, 1, 2)), 3000),
        rng.integers(1, 4, size=800),
        rng.integers(1, 10, size=500),
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
    arr = np.array([1, 2, 2, 1, 1, 2, 1, 2, 2])
    idx = FactorIndex(arr, 4)
    window, _ = idx.window(2, 0, 3)
    assert set(_factor_tuples(idx, 2, window)) == {(1, 2), (2, 2), (2, 1)}


@pytest.mark.parametrize("scanner", [FactorIndex, NaiveFactorScan])
def test_non_integer_words_are_rejected(scanner):
    with pytest.raises(ValueError, match="integer dtype"):
        scanner(np.array([1.5, 1.2, 2.0]), 1)
    with pytest.raises(ValueError, match="integer dtype"):
        scanner(np.array([True, False]), 1)
    with pytest.raises(ValueError, match="1-D"):
        scanner(np.array([[1, 2], [2, 1]]), 1)
    with pytest.raises(ValueError, match="1-D"):
        scanner(np.int64(3), 1)
    with pytest.raises(ValueError, match="int64"):
        scanner(np.array([2**63, 1, 2**63, 5], dtype=np.uint64), 1)

    def distinct(arr):
        index = scanner(arr, 1)
        if scanner is FactorIndex:
            return index.groups(1).group_count
        return index.distinct_count(1)

    assert distinct(np.array([2**63 - 1, 1], dtype=np.uint64)) == 2
    assert distinct(np.array([1, 2, 2], dtype=np.uint8)) == 2


def test_length_bounds():
    with pytest.raises(ValueError):
        FactorIndex(np.array([1, 2, 1]), 5)
    idx = FactorIndex(np.array([1, 2, 2, 1, 1, 2, 1, 2, 2, 1]), 3)
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


def _cut(arr, offsets):
    """``arr`` in pieces that end at the given offsets."""
    edges = [0, *sorted(set(offsets)), arr.size]
    return [arr[a:b] for a, b in zip(edges, edges[1:])]


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
    source = PieceSource(alphabet, lambda: _cut(arr, offsets))
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
