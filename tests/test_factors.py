import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    FactorIndex,
    NaiveFactorScan,
    Word,
    kolakoski_prefix,
)


def test_index_matches_naive_on_random_words():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(10, 300))
        arr = rng.integers(1, 4, size=n)
        l_max = int(rng.integers(1, min(10, n) + 1))
        idx = FactorIndex(arr, l_max)
        ref = NaiveFactorScan(arr, l_max)
        for length in range(1, l_max + 1):
            assert idx.distinct_count(length) == ref.distinct_count(length)
            assert idx.factor_set(length) == ref.factor_set(length)
            groups = idx.groups(length)
            for g in range(groups.group_count):
                factor = idx.factor_of_group(length, g)
                occ = ref.occurrences(factor)
                assert groups.count[g] == len(occ)
                assert groups.first[g] == occ[0]
                assert groups.last[g] == occ[-1]
                expected_second = occ[1] if len(occ) > 1 else -1
                assert groups.second[g] == expected_second
                assert groups.max_gap[g] == ref.max_gap(factor)


SMOOTH_PREFIXES = (
    kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 300),
    kolakoski_prefix(BaseSequenceSpec(Alphabet((3, 6, 9)), (9, 3, 6)), 300),
)


@st.composite
def words_and_l_max(draw):
    """Random words over alphabets with 0, negative and large letters,
    or smooth prefixes, with l_max anywhere in 1..len(w)."""
    if draw(st.booleans()):
        letters = st.sampled_from(
            draw(st.sampled_from([(1, 2, 3), (-3, 0, 7, 10**6), (0, 1), (-1,)]))
        )
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
        assert groups.ids.dtype == np.min_scalar_type(len(factors) - 1)
        expected_ids = np.empty(idx.starts(length), dtype=np.int64)
        for g, positions in enumerate(occ):
            expected_ids[positions] = g
        assert np.array_equal(groups.ids, expected_ids)
        assert groups.first.tolist() == [o[0] for o in occ]
        assert groups.second.tolist() == [o[1] if len(o) > 1 else -1 for o in occ]
        assert groups.last.tolist() == [o[-1] for o in occ]
        assert groups.count.tolist() == [len(o) for o in occ]
        assert groups.max_gap.tolist() == [ref.max_gap(f) for f in factors]
        assert idx.ids(length) is groups.ids
        assert idx.distinct_count(length) == ref.distinct_count(length)
        assert idx.factor_set(length) == ref.factor_set(length)


def test_index_matches_naive_on_smooth_prefix():
    w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 10**4)
    idx = FactorIndex(w, 12)
    ref = NaiveFactorScan(w, 12)
    for length in (1, 2, 5, 12):
        assert idx.factor_set(length) == ref.factor_set(length)
        groups = idx.groups(length)
        for g in range(groups.group_count):
            factor = idx.factor_of_group(length, g)
            assert groups.max_gap[g] == ref.max_gap(factor)


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
            factors = [idx.factor_of_group(length, g) for g in range(count)]
            assert factors == sorted(ref.factor_set(length))


def test_factor_count_never_exceeds_window():
    w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 5000)
    idx = FactorIndex(w, 10)
    for length in range(1, 11):
        assert idx.distinct_count(length) <= len(w) - length + 1


def test_contains_and_window_queries():
    arr = np.array([1, 2, 2, 1, 1, 2, 1, 2, 2])
    idx = FactorIndex(arr, 4)
    assert idx.contains((2, 2, 1))
    assert not idx.contains((2, 2, 2))
    with pytest.raises(ValueError):
        idx.contains((1,) * 5)
    window = idx.groups_starting_in(2, 0, 3)
    factors = {idx.factor_of_group(2, int(g)) for g in window}
    assert factors == {(1, 2), (2, 2), (2, 1)}


def test_length_bounds():
    with pytest.raises(ValueError):
        FactorIndex(np.array([1, 2, 1]), 5)
    idx = FactorIndex(np.array([1, 2, 1]), 2)
    with pytest.raises(ValueError):
        idx.ids(3)
