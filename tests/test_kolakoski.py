import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    Word,
    is_smooth_finite,
    kolakoski_prefix,
    kolakoski_stream,
    rle_encode,
    verify_fixpoint_prefix,
)
from smoothwords.expansion import _CHUNK
from smoothwords.kolakoski import _HEAD, _level
from smoothwords.words import _WRITE_CHUNK

A12 = Alphabet((1, 2))
A123 = Alphabet((1, 2, 3))
A4 = Alphabet((2, 6, 10, 14))

CLASSIC_19 = tuple(int(c) for c in "1221121221221121122")


def test_spec_validation():
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, ())  # empty period
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, (1,))  # period of one letter repeats
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, (1, 2, 1))  # wrap seam 1..1
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, (1, 1, 2))  # adjacent equal
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, (1, 2), preperiod=(2, 1))  # seam 1|1
    with pytest.raises(ValueError):
        BaseSequenceSpec(A12, (1, 3))  # 3 outside alphabet
    spec = BaseSequenceSpec(A123, (1, 2), preperiod=(3,))
    assert [spec.base_letter(j) for j in range(1, 6)] == [3, 1, 2, 1, 2]


def test_classic_prefix():
    spec = BaseSequenceSpec(A12, (1, 2))
    assert kolakoski_prefix(spec, 19) == CLASSIC_19
    assert kolakoski_prefix(spec, 1) == (1,)


def test_four_letter_prefix():
    spec = BaseSequenceSpec(A4, (6, 10, 14, 2))
    expected = (6,) * 6 + (10,) * 6 + (14,) * 6 + (2,) * 6
    assert kolakoski_prefix(spec, 24) == expected


def test_swapped_base_prefix():
    spec = BaseSequenceSpec(A12, (2, 1))
    assert kolakoski_prefix(spec, 13) == (2, 2, 1, 1, 2, 1, 2, 2, 1, 2, 2, 1, 1)


def test_prefix_is_marked():
    spec = BaseSequenceSpec(A12, (1, 2))
    assert kolakoski_prefix(spec, 10).is_prefix


def test_stream_equals_prefix():
    for alphabet, period in [
        (A12, (1, 2)),
        (A12, (2, 1)),
        (A123, (1, 2, 3)),
        (A123, (2, 3, 1)),
        (A4, (6, 10, 14, 2)),
    ]:
        spec = BaseSequenceSpec(alphabet, period)
        stream = kolakoski_stream(spec)
        assert stream.take(10**5) == kolakoski_prefix(spec, 10**5)


def test_stream_state_invariants():
    # levels grow as log_r(m/H) in the mean run length r, and each level
    # holds at most one chunk
    for alphabet, period, preperiod in [
        (A12, (1, 2), ()),
        (A123, (1, 2, 3), (2,)),
        (A123, (3, 1), (2, 3, 2)),
    ]:
        spec = BaseSequenceSpec(alphabet, period, preperiod)
        stream = kolakoski_stream(spec)
        letters = kolakoski_prefix(spec, 10**6).to_array()
        levels = 0
        for m in (100, 10**3, 10**4, 10**5, 10**6):
            stream.take(m - stream.position)
            assert stream.position == m
            assert levels <= stream.levels  # levels are never dropped
            levels = stream.levels
            r = letters[:m].mean()
            assert levels <= math.ceil(math.log(m / _HEAD, r)) + 2
            assert 0 < stream.peak_buffered <= levels * _CHUNK
        assert levels > 10


def _oracle(spec: BaseSequenceSpec, m: int) -> list[int]:
    """Per-run self-reading definition: run j is u_j repeated w[j] times."""
    w: list[int] = []
    j = 0
    while len(w) < m:
        letter = spec.base_letter(j + 1)
        w.extend([letter] * (letter if j == len(w) else w[j]))
        j += 1
    return w[:m]


@st.composite
def specs(draw):
    letters = st.integers(min_value=1, max_value=6)
    period = tuple(draw(st.lists(letters, min_size=2, max_size=4)))
    preperiod = tuple(draw(st.lists(letters, max_size=3)))
    try:
        return BaseSequenceSpec(
            Alphabet(tuple(sorted(set(period + preperiod)))), period, preperiod
        )
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(
    specs(),
    # short words cross the head and the first levels, long ones chunks
    st.integers(min_value=1, max_value=1000)
    | st.integers(min_value=_CHUNK - 100, max_value=3 * _CHUNK),
    st.data(),
)
def test_cursor_matches_self_reading_oracle(spec, m, data):
    expected = _oracle(spec, m)
    assert kolakoski_prefix(spec, m).to_array().tolist() == expected
    a = data.draw(st.integers(min_value=1, max_value=m))
    stream = kolakoski_stream(spec)
    head = stream.take(a)
    tail = stream.take(m - a) if m > a else head[:0]
    assert head.to_array().tolist() + tail.to_array().tolist() == expected


def test_consecutive_takes_continue_the_word():
    spec = BaseSequenceSpec(A123, (1, 2, 3), preperiod=(2,))
    whole = kolakoski_prefix(spec, 3 * _CHUNK)
    for a in (5, _HEAD, _CHUNK - 1, _CHUNK + 7):
        stream = kolakoski_stream(spec)
        first, rest = stream.take(a), stream.take(3 * _CHUNK - a)
        assert first == whole[:a] and rest == whole[a:]
        # only a take that starts at letter 0 is a prefix of the word
        assert first.is_prefix and verify_fixpoint_prefix(first)
        assert not rest.is_prefix


def test_take_rejects_nonpositive_lengths():
    stream = kolakoski_stream(BaseSequenceSpec(A12, (1, 2)))
    for m in (0, -3):
        with pytest.raises(ValueError):
            stream.take(m)
    assert stream.position == 0


def test_stream_determinism():
    spec = BaseSequenceSpec(A123, (3, 1, 2))
    a = kolakoski_stream(spec).take(20000)
    b = kolakoski_stream(spec).take(20000)
    assert a == b


def test_fixpoint_property_scales():
    for alphabet, period in [(A12, (1, 2)), (A123, (1, 2, 3))]:
        spec = BaseSequenceSpec(alphabet, period)
        for m in (10**3, 10**5):
            assert verify_fixpoint_prefix(kolakoski_prefix(spec, m))


def test_fixpoint_trivia():
    assert verify_fixpoint_prefix(Word((1,), A12, is_prefix=True))
    assert not verify_fixpoint_prefix(Word((1, 1, 2), A12, is_prefix=True))
    with pytest.raises(ValueError):
        verify_fixpoint_prefix(Word((), A12))


def test_base_recovery():
    spec = BaseSequenceSpec(A123, (1, 2, 3), preperiod=(2,))
    w = kolakoski_prefix(spec, 10**4)
    bases = rle_encode(w).bases
    expected = tuple(spec.base_letter(j) for j in range(1, len(bases) + 1))
    assert bases == expected


def test_prefixes_are_smooth():
    for alphabet, period in [(A12, (1, 2)), (A123, (1, 2, 3)), (A4, (6, 10, 14, 2))]:
        spec = BaseSequenceSpec(alphabet, period)
        w = kolakoski_prefix(spec, 10**3)
        assert is_smooth_finite(Word(w.symbols, alphabet))


def test_preperiod_generation():
    spec = BaseSequenceSpec(A123, (1, 2), preperiod=(3,))
    w = kolakoski_prefix(spec, 50)
    # first run: letter 3 repeated 3 times (self-referential head)
    assert w.symbols[:3] == (3, 3, 3)
    assert verify_fixpoint_prefix(w)
    bases = rle_encode(w).bases
    assert bases.symbols[0] == 3
    assert set(bases.symbols[1:]) <= {1, 2}


def test_all_two_and_three_letter_periods_are_fixpoints():
    for letters in [(1, 2), (1, 3), (2, 4), (3, 5)]:
        alphabet = Alphabet(letters)
        for period in itertools.permutations(letters):
            spec = BaseSequenceSpec(alphabet, period)
            assert verify_fixpoint_prefix(kolakoski_prefix(spec, 5000))


def test_slowly_growing_word_stops_at_the_level_cap():
    # every level adds one letter past the head, so m letters need about
    # m levels; the engine raises before Python's recursion limit
    chunks = _level(lambda: iter([np.array([1, 1])]), lambda deeper: deeper, 1, 0, [])
    with pytest.raises(ValueError, match="grows too slowly"):
        list(itertools.islice(chunks, 2000))


@pytest.mark.parametrize(
    "period, dtype",
    [((1, 255), np.uint8), ((1, 256), np.uint16), ((1, 65535), np.uint16),
     ((1, 65536), np.uint32)],
)
@pytest.mark.parametrize("with_preperiod", [False, True])
def test_cursor_at_dtype_boundaries(period, dtype, with_preperiod):
    # the levels hold letters in the smallest unsigned dtype of the largest
    # letter; pieces keep it, takes widen to int64 Words
    preperiod = (period[1],) if with_preperiod else ()
    spec = BaseSequenceSpec(Alphabet(period), period, preperiod)
    m = 3 * _WRITE_CHUNK + _CHUNK + 7
    expected = np.array(_oracle(spec, m), dtype=np.int64)
    for k in (1, _CHUNK - 1, _CHUNK + 1, _WRITE_CHUNK + 1, m):
        pieces = list(kolakoski_stream(spec).pieces(k))
        assert all(p.dtype == dtype and p.size <= _WRITE_CHUNK for p in pieces)
        assert np.array_equal(np.concatenate(pieces), expected[:k])
        word = kolakoski_stream(spec).take(k)
        assert word.to_array().dtype == np.int64
        assert np.array_equal(word.to_array(), expected[:k])
    # takes, skips and pieces continue one another across chunk ends
    stream = kolakoski_stream(spec)
    first = stream.take(_CHUNK + 3).to_array()
    stream.skip(_WRITE_CHUNK)
    rest = np.concatenate(list(stream.pieces(m - stream.position)))
    assert np.array_equal(first, expected[: _CHUNK + 3])
    assert np.array_equal(rest, expected[_CHUNK + 3 + _WRITE_CHUNK :])


def test_cursor_letters_past_uint32_and_int64():
    big = 2**40
    spec = BaseSequenceSpec(Alphabet((1, big)), (1, big))
    (piece,) = kolakoski_stream(spec).pieces(10)
    # int64, not uint64: numpy repeats and bincounts no uint64 arrays
    assert piece.dtype == np.int64 and piece.tolist() == [1] + [big] * 9
    assert kolakoski_prefix(spec, 10) == [1] + [big] * 9
    # letters that do not fit int64 are rejected, not held as objects
    huge = BaseSequenceSpec(Alphabet((1, 2**63)), (1, 2**63))
    with pytest.raises(OverflowError):
        kolakoski_stream(huge)


def test_pieces_run_in_bounded_memory():
    # one byte a letter in each level's chunk; int64 levels and a Word per
    # piece traced 3.8 MB
    stream = kolakoski_stream(BaseSequenceSpec(Alphabet((1, 3)), (1, 3)))
    tracemalloc.start()
    try:
        for _ in stream.pieces(10**6):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.position == 10**6
    assert peak <= 2 * 10**6
