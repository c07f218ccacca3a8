import contextlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    CyclicOrder,
    FactorIndex,
    NaiveFactorScan,
    Permutation,
    PieceSource,
    Word,
    closure_check,
    equal_run_blocks,
    exact_frequency_check,
    gap_stability_check,
    is_well_proportioned_prefix,
    kolakoski_prefix,
    letter_frequencies,
    max_gap_report,
    phi_inverse_palindrome_check,
    recurrence_report,
    rle_encode,
)
from smoothwords.analysis import letter_counts
from smoothwords.cli import main
from smoothwords.words import _WRITE_CHUNK, write_word_pieces

from strategies import alphabet_words

A12 = Alphabet((1, 2))
A123 = Alphabet((1, 2, 3))
A24 = Alphabet((2, 4))
A369 = Alphabet((3, 6, 9))


# ---------------------------------------------------------------------------
# frequencies


def test_letter_frequencies_counts_and_conservation():
    w = Word((2, 2, 4, 2), A24)
    report = letter_frequencies(w, [2, 4], A24)
    assert report.ratios_at(2) == {2: 1.0, 4: 0.0}
    assert report.ratios_at(4) == {2: 0.75, 4: 0.25}
    for k in (2, 4):
        assert sum(r.count for r in report.rows if r.k == k) == k


def test_letter_frequencies_degenerate_constant():
    report = letter_frequencies(Word((2, 2, 2, 2), A24), [4], A24)
    assert report.ratios_at(4)[2] == 1.0


def test_letter_frequencies_exhausted_stream(tmp_path, capsys):
    with pytest.raises(ValueError):
        letter_frequencies(Word((2, 4), A24), [3], A24)
    # a word file is counted to its end before its samples are checked
    path = tmp_path / "word.txt"
    path.write_text("2 4\n")
    argv = ["freq", "--alphabet", "2,4", "--input", str(path), "--samples", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: sample 3 exceeds the length 2\n"


def test_letter_frequencies_csv_columns():
    report = letter_frequencies(Word((2, 4, 4, 2), A24), [4], A24)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,letter,count,ratio,deviation"
    assert lines[1].startswith("4,2,2,")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=8),
    st.lists(st.integers(-2, 200), max_size=6),
)
def test_letter_counts_match_prefix_bincounts(sizes, marks):
    rng = np.random.default_rng(len(sizes))
    pieces = [rng.integers(0, 6, size=s) for s in sizes]
    whole = np.concatenate([np.empty(0, dtype=np.int64), *pieces])
    ks = sorted({k for k in marks if 1 <= k <= whole.size})
    counts, length = letter_counts(iter(pieces), ks, 4)  # letters 4, 5 are dropped
    assert length == whole.size
    assert sorted(counts) == sorted({*ks, whole.size})
    for k, c in counts.items():
        assert c.tolist() == np.bincount(whole[:k], minlength=6)[:4].tolist()


@pytest.mark.parametrize(
    "m", [1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 2 * _WRITE_CHUNK + 123]
)
def test_letter_frequencies_agree_across_pieces(m, tmp_path, capsys):
    spec = BaseSequenceSpec(A369, (3, 6, 9))
    word = kolakoski_prefix(spec, m)
    P = _WRITE_CHUNK
    samples = [k for k in {1, P - 1, P, P + 1, m - 1, m} if 1 <= k <= m]
    expected = io.StringIO()
    letter_frequencies(word, samples, A369).to_csv(expected)
    path = tmp_path / "word.txt"
    with open(path, "w") as handle:
        write_word_pieces([word.to_array()], handle)
    # the cursor and the word's file, read as the CLI reads them
    sources = [
        ["--base-period", "3,6,9", "--length", str(m)],
        ["--alphabet", "3,6,9", "--input", str(path)],
    ]
    for source in sources:
        argv = ["freq", *source, "--samples", ",".join(map(str, sorted(samples)))]
        assert main(argv) == 0
        csv = capsys.readouterr().out.splitlines()[1:]
        assert csv == expected.getvalue().splitlines()


def _frequency_oracle(arr, samples, alphabet):
    """(k, letter, count) rows of a prefix ``np.bincount`` per sample, or
    the error text: the whole word with no samples, a sample below 1
    before one past the word."""
    ks = sorted(set(samples)) or [arr.size]
    if ks[0] < 1:
        return "samples must be positive"
    if ks[-1] > arr.size:
        return f"sample {ks[-1]} exceeds the length {arr.size}"
    counts = [np.bincount(arr[:k], minlength=alphabet.largest + 1) for k in ks]
    return [(k, a, int(c[a])) for k, c in zip(ks, counts) for a in alphabet]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.data())
def test_letter_frequencies_match_prefix_bincounts(tmp_path_factory, m, data):
    spec = BaseSequenceSpec(A369, (3, 6, 9))
    word = kolakoski_prefix(spec, m) if m else Word((), A369)
    arr = word.to_array()
    # the word cut at random, empty pieces included
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=6)))
    pieces = np.split(arr, cuts)
    ends = [int(c) for c in itertools.accumulate(map(len, pieces))]
    sample = st.sampled_from(ends) | st.integers(-2, m + 2)
    samples = data.draw(st.lists(sample, max_size=6))  # unsorted, repeated
    expected = _frequency_oracle(arr, samples, A369)
    source = PieceSource(A369, lambda: iter(pieces))
    for w in (word, source):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                letter_frequencies(w, samples, A369)
            assert str(info.value) == expected
            continue
        report = letter_frequencies(w, samples, A369)
        assert [(r.k, r.letter, r.count) for r in report.rows] == expected
        for r in report.rows:
            assert (r.ratio, r.deviation) == (r.count / r.k, abs(r.count / r.k - 1 / 3))
    # through the CLI, from the cursor and from the word's file
    path = tmp_path_factory.mktemp("freq") / "word.txt"
    with open(path, "w") as handle:
        write_word_pieces([arr], handle)
    flags = [f"--samples={','.join(map(str, samples))}"] if samples else []
    for source in (
        ["--base-period", "3,6,9", "--length", str(m)],
        ["--alphabet", "3,6,9", "--input", str(path)],
    ):
        code, out, err = _run(["freq", *source, *flags])
        if isinstance(expected, str):
            assert (code, out, err) == (1, "", f"error: {expected}\n")
            continue
        csv = io.StringIO()
        letter_frequencies(word, samples, A369).to_csv(csv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == csv.getvalue().splitlines()


def _run(argv):
    """Exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_frequency_convergence_small_scale():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**5)
    report = letter_frequencies(w, [10**4, 10**5], A24)
    assert report.max_deviation(10**5) < 5e-3


# ---------------------------------------------------------------------------
# well-proportioned bases


def test_well_proportioned_examples():
    assert is_well_proportioned_prefix(Word((3, 6, 9, 6, 3, 9, 9, 3, 6), A369))
    assert not is_well_proportioned_prefix(Word((3, 6, 3, 9, 6, 3), A369))
    # trailing partial block is ignored
    assert is_well_proportioned_prefix(Word((3, 6, 9, 6), A369))


def test_two_letter_bases_always_well_proportioned():
    rng = np.random.default_rng(3)
    for _ in range(50):
        length = int(rng.integers(1, 30))
        symbols = [int(rng.integers(1, 3))]
        while len(symbols) < length:
            nxt = 1 if symbols[-1] == 2 else 2
            symbols.append(nxt)
        assert is_well_proportioned_prefix(Word(tuple(symbols), A12))


# ---------------------------------------------------------------------------
# exact frequency check


def test_exact_frequency_boundary_single_block():
    # one block of pairwise-distinct exponents is not equidistributed
    assert not exact_frequency_check(Word((3, 6, 9)), Word((3, 6, 9), A369))


def test_exact_frequency_constant_exponents():
    assert exact_frequency_check(Word((3, 3, 3)), Word((3, 6, 9), A369))


def test_exact_frequency_empty():
    assert exact_frequency_check(Word(()), Word((), A369))


def test_exact_frequency_preconditions():
    with pytest.raises(ValueError):
        exact_frequency_check(Word((1, 1)), Word((1, 2), A12))  # letters not divisible
    with pytest.raises(ValueError):
        exact_frequency_check(Word((3, 3)), Word((3, 6, 9), A369))  # lengths differ
    with pytest.raises(ValueError):
        exact_frequency_check(
            Word((3, 3, 3, 3)), Word((3, 6, 9, 3), A369)
        )  # length not divisible by n


def test_exact_frequency_divisible_runs_property():
    # run lengths of u divisible by n guarantee equidistribution
    rng = np.random.default_rng(4)
    letters = A369.letters
    for _ in range(200):
        blocks = int(rng.integers(1, 4))
        u_syms: list[int] = []
        prev = 0
        for _ in range(blocks):
            value = int(letters[rng.integers(0, 3)])
            while value == prev:
                value = int(letters[rng.integers(0, 3)])
            u_syms.extend([value] * 3)
            prev = value
        v_syms: list[int] = []
        for _ in range(len(u_syms) // 3):
            block = list(letters)
            rng.shuffle(block)
            while v_syms and v_syms[-1] == block[0]:
                rng.shuffle(block)
            v_syms.extend(int(x) for x in block)
        assert exact_frequency_check(Word(tuple(u_syms)), Word(tuple(v_syms), A369))


# ---------------------------------------------------------------------------
# recurrence and gaps


def test_recurrence_short_word_example():
    w = Word((1, 2, 1, 1), A12, is_prefix=True)
    report = recurrence_report(w, 2, scan_len=4)
    missing = {r.factor for r in report.non_recurrent}
    assert (1, 2) in missing  # "12" occurs exactly once
    assert not report.all_recurrent


def test_recurrence_positions_are_one_based():
    w = Word((1, 2, 1, 2, 2), A12)
    report = recurrence_report(w, 2, scan_len=3)
    row = next(r for r in report.rows if r.factor == (1, 2))
    assert row.first == 1 and row.second == 3
    assert report.factor_count == len(report.rows) == 4
    assert [r.factor for r in report.non_recurrent] == [(2, 1)]


def test_recurrence_on_four_letter_word():
    alphabet = Alphabet((1, 5, 9, 13))
    w = kolakoski_prefix(BaseSequenceSpec(alphabet, (5, 9, 13, 1)), 10**6)
    report = recurrence_report(w, 16, scan_len=10**4)
    assert report.all_recurrent


def test_recurrence_csv():
    w = Word((1, 2, 1, 2, 2), A12)
    buf = io.StringIO()
    recurrence_report(w, 2, scan_len=3).to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "L,factor,first,second,recurrent"


@pytest.mark.parametrize("period", [(6, 10, 14, 2), (2, 6)])
def test_recurrence_csv_factor_texts_match_str(period, capsys):
    # one- and two-digit letters (and one-digit only): each length's
    # factor texts come from one byte-kernel call, whose bytes the CSV
    # writer edits in place
    alphabet = Alphabet(tuple(sorted(period)))
    n = 3_000
    report = recurrence_report(
        kolakoski_prefix(BaseSequenceSpec(alphabet, period), n), 5, scan_len=500
    )
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()[1:]
    assert len(lines) == len(report.rows) > 20
    for line, row in zip(lines, report.rows):
        assert line.split(",")[:2] == [str(row.length), " ".join(map(str, row.factor))]
    argv = ["recur", "--base-period", ",".join(map(str, period)), "--length", str(n)]
    assert main(argv + ["--l-max", "5", "--scan-len", "500"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == lines


def test_max_gap_single_letters_bounded_on_two_letter_alphabet():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**5)
    report = max_gap_report(w, 1)
    for row in report.rows:
        assert row.max_gap <= 2 * A24.largest


def test_max_gap_known_factor_stable():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**6)
    stability = gap_stability_check(w, 4)
    assert stability.all_stable
    half = max_gap_report(
        Word(w.symbols[: 5 * 10**5], A24), 4
    )
    full = max_gap_report(w, 4)
    gap = {r.factor: r.max_gap for r in half.rows}[(2, 2, 4, 4)]
    assert gap == {r.factor: r.max_gap for r in full.rows}[(2, 2, 4, 4)] > 0


def _naive_gap_stability(arr, l_max):
    """(compared, mismatches) from naive scans of the half and whole word."""
    half = NaiveFactorScan(arr[: arr.size // 2], l_max)
    full = NaiveFactorScan(arr, l_max)
    compared, mismatches = 0, []
    for length in range(1, l_max + 1):
        for factor in sorted(half.factor_set(length)):
            compared += 1
            a, b = half.max_gap(factor), full.max_gap(factor)
            if a != b:
                mismatches.append((length, factor, a, b))
    return compared, mismatches


def test_gap_stability_matches_naive_scans():
    rng = np.random.default_rng(7)
    words = [rng.integers(1, 4, size=int(rng.integers(12, 200))) for _ in range(40)]
    words = [Word(arr, A123) for arr in words]
    words += [
        kolakoski_prefix(BaseSequenceSpec(A12, (1, 2)), 2000),
        kolakoski_prefix(BaseSequenceSpec(A369, (3, 6, 9)), 3000),
    ]
    moved = 0
    for w in words:
        l_max = min(6, len(w) // 2)
        stability = gap_stability_check(w, l_max)
        compared, mismatches = _naive_gap_stability(w.to_array(), l_max)
        assert stability.compared == compared
        assert stability.mismatches == mismatches
        moved += bool(mismatches)
    assert moved  # some inputs do move a gap


@settings(max_examples=60, deadline=None)
@given(alphabet_words())
def test_gap_stability_reuses_a_given_index(case):
    word, arr, l_max = case
    l_max = min(l_max, arr.size // 2)
    assume(l_max >= 1)
    index = FactorIndex(word, l_max)
    stability = gap_stability_check(word, l_max, index=index)
    assert stability == gap_stability_check(word, l_max)
    assert stability.compared > 0


def test_gap_report_csv():
    w = Word((1, 2, 1, 2, 2, 1), A12)
    buf = io.StringIO()
    report = max_gap_report(w, 2)
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "L,factor,occurrences,max_gap"
    assert len(lines) == 1 + report.factor_count == 1 + len(report.rows) == 6
    assert "1 2,2,2" in "\n".join(lines)


@pytest.mark.parametrize("n", [5, 23, 24, 47])
def test_short_piece_sources_are_rejected(n, capsys):
    # a source's length is known only once it is read: below l_max the
    # index build fails, below the report's least length the report does
    w = kolakoski_prefix(BaseSequenceSpec(A12, (1, 2)), n)
    source = PieceSource(A12, lambda: iter([w.to_array()]))
    reports = [
        (recurrence_report, "word too short for the requested l_max"),
        (max_gap_report, "word too short for the requested l_max"),
        (gap_stability_check, "half prefix shorter than l_max"),
        (lambda s, l_max: closure_check(s, "reversal", l_max), "middle-third protocol"),
    ]
    for report, why in reports:
        if n < 24:
            why = "^word shorter than l_max$"
        with pytest.raises(ValueError, match=why):
            report(source, 24)
    code = main(["recur", "--base-period", "1,2", "--length", str(n), "--l-max", "24"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert ("too short" if n >= 24 else "word shorter than l_max") in captured.err


# ---------------------------------------------------------------------------
# closure


def test_identity_permutation_never_misses():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**4)
    assert closure_check(w, Permutation({a: a for a in A24}), 6) == []


def test_reversal_closure_small_scale():
    alphabet = Alphabet((1, 3))
    w = kolakoski_prefix(BaseSequenceSpec(alphabet, (1, 3)), 10**5)
    assert closure_check(w, "reversal", 8) == []


def test_complement_witness_found_at_l12():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**6)
    misses = closure_check(w, Permutation.complement(A24), 12)
    assert misses, "expected at least one absent complement image"
    # every reported miss is re-checkable by direct search
    text = "".join(map(str, w.symbols))
    for witness in misses[:5]:
        assert "".join(map(str, witness.factor)) in text
        assert "".join(map(str, witness.image)) not in text


def test_closure_requires_margin():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 20)
    with pytest.raises(ValueError):
        closure_check(w, "reversal", 10)


def test_every_nonidentical_permutation_has_witnesses():
    from smoothwords import FactorIndex

    w = kolakoski_prefix(BaseSequenceSpec(A369, (3, 6, 9)), 10**6)
    assert is_well_proportioned_prefix(rle_encode(w).bases)
    idx = FactorIndex(w, 12)
    for image in itertools.permutations(A369.letters):
        sigma = Permutation(dict(zip(A369.letters, image)))
        misses = closure_check(w, sigma, 12, index=idx)
        if image == A369.letters:
            assert misses == []
        else:
            assert misses


# ---------------------------------------------------------------------------
# equal-run blocks


def test_equal_run_blocks_example():
    blocks = equal_run_blocks(Word((2, 2, 4, 4, 2, 4), A24))
    assert [(b.factor, b.exponent) for b in blocks] == [
        ((2, 2, 4, 4), 2),
        ((2, 4), 1),
    ]
    assert blocks[0].start == 1 and blocks[0].end == 4
    assert blocks[1].start == 5 and blocks[1].end == 6


def test_equal_run_blocks_single_run():
    blocks = equal_run_blocks(Word((7, 7, 7)))
    assert len(blocks) == 1
    assert blocks[0].factor == (7, 7, 7)
    assert blocks[0].exponent == 3 and blocks[0].run_count == 1


def test_equal_run_blocks_filters_feed_closure_pipeline():
    w = kolakoski_prefix(BaseSequenceSpec(A24, (2, 4)), 10**6)
    blocks = equal_run_blocks(w, min_exponent=4, min_runs=4)
    factors = {b.factor for b in blocks}
    assert factors == {(2,) * 4 + (4,) * 4 + (2,) * 4 + (4,) * 4}
    misses = closure_check(w, Permutation.complement(A24), 16)
    assert factors & {m.factor for m in misses}


# ---------------------------------------------------------------------------
# palindromic expansions


def test_phi_inverse_palindromes():
    assert phi_inverse_palindrome_check(CyclicOrder.from_letters((1, 3)), 8)
    assert phi_inverse_palindrome_check(CyclicOrder.from_letters((3, 5)), 8)


def test_phi_inverse_palindromes_rejects_mixed_parity():
    with pytest.raises(ValueError):
        phi_inverse_palindrome_check(CyclicOrder.from_letters((1, 2)), 4)
