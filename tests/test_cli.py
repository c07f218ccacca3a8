import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    kolakoski_prefix,
    kolakoski_stream,
    letter_frequencies,
    rle_encode,
    words,
    write_words,
)
from smoothwords import cli
from smoothwords.cli import main
from smoothwords.expansion import CyclicOrder
from smoothwords.substitution import build_substitution, flatten, iterate


def _header(line):
    """The key=value pairs of a ``# smoothwords`` config line."""
    assert line.startswith("# smoothwords ")
    return dict(pair.split("=", 1) for pair in line.split()[2:])


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_generate_classic_display(capsys):
    code = main(
        ["generate", "--alphabet", "1,2", "--base-period", "1,2", "--length", "19"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("# smoothwords")
    assert out[-1] == "1 2 2 1 1 2 1 2 2 1 2 2 1 1 2 1 1 2 2"


def test_generate_stats_line(capsys):
    code = main(
        [
            "generate",
            "--base-period",
            "1,2",
            "--length",
            "100",
            "--stats",
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    stats = dict(f.split("=") for f in out[0].split() if "=" in f)
    assert int(stats["levels"]) >= 1
    assert int(stats["peak_buffered"]) > 0


def test_expand_worked_example(capsys):
    code = main(
        [
            "expand",
            "--alphabet",
            "2,3,4",
            "--order",
            "2,4,3",
            "--chain",
            "2,3,2",
            "--target",
            "2,4",
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    word = out[-1].split()
    assert len(word) == 62
    assert out[-1].startswith("2 2 2 4 4 4 3 3 2 2")


def test_encode_and_run_tokens(capsys):
    code = main(["encode", "--word", "2^3,4^2,3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "3 2 1"  # exponents
    assert out[2] == "2 4 3"  # bases


def test_derive(capsys):
    code = main(["derive", "--alphabet", "1,2", "--word", "2,2,1,1,2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-1] == "2 2"


def test_derive_rejects_negative_times(capsys):
    argv = ["derive", "--alphabet", "1,2", "--word", "1,2,2,1", "--times", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--times must be non-negative\n"


def test_derive_stops_at_the_empty_word(capsys, monkeypatch):
    # each derivative shortens a nonempty word, so 4 steps empty 1,2,2,1
    calls = []

    def counted(w):
        calls.append(len(w))
        assert len(calls) <= 4, "derive kept differentiating the empty word"
        return words.derivative(w)

    monkeypatch.setattr(cli, "derivative", counted)
    argv = ["derive", "--alphabet", "1,2", "--word", "1,2,2,1"]
    assert main(argv + ["--times", "1000000000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert _header(out[0])["times"] == "1000000000"
    assert out[1:] == [""]


def test_phi_inverse(capsys):
    code = main(["phi-inverse", "--order", "1,3", "--u", "1,3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-1] == "1 1 1"


def test_usage_error_exit_code(capsys):
    assert main(["generate", "--base-period", "1,2"]) == 1  # missing --length
    assert main(["nonsense"]) == 1
    assert main(["generate", "--bogus-flag", "1"]) == 1


def test_config_error_exit_code(capsys):
    # period violates the adjacent-distinct invariant
    assert (
        main(["generate", "--base-period", "1,1", "--length", "5"]) == 1
    )


def test_stdout_limit_requires_output(tmp_path, capsys):
    code = main(
        ["generate", "--base-period", "1,2", "--length", "200000"]
    )
    assert code == 1
    target = tmp_path / "word.txt"
    code = main(
        [
            "generate",
            "--base-period",
            "1,2",
            "--length",
            "200000",
            "--output",
            str(target),
        ]
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines[1].split()) == 200000


def test_expansion_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("SMOOTHWORDS_MAX_EXPANSION", "10")
    code = main(
        [
            "expand",
            "--order",
            "2,4,3",
            "--chain",
            "2,3,2",
            "--target",
            "2,4",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "budget" in err


def test_freq_csv_and_tolerance(tmp_path, capsys):
    out = tmp_path / "freq.csv"
    code = main(
        [
            "freq",
            "--base-period",
            "2,4",
            "--length",
            "10000",
            "--output",
            str(out),
            "--tol",
            "0.01",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# smoothwords")
    assert lines[1] == "k,letter,count,ratio,deviation"
    # absurd tolerance trips exit code 2 (odd length: ratio 1/2 unreachable)
    code = main(
        [
            "freq",
            "--base-period",
            "2,4",
            "--length",
            "9999",
            "--output",
            str(out),
            "--tol",
            "1e-9",
        ]
    )
    assert code == 2


def test_freq_sample_beyond_length(capsys):
    code = main(
        ["freq", "--base-period", "1,2", "--length", "100", "--samples", "101"]
    )
    assert code == 1
    assert "exceeds the length" in capsys.readouterr().err


def test_recur_exit_codes(tmp_path, capsys):
    out = tmp_path / "recur.csv"
    code = main(
        [
            "recur",
            "--base-period",
            "1,2",
            "--length",
            "100000",
            "--l-max",
            "8",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header, _, *rows = out.read_text().splitlines()
    # the default scan covers 1000 letters: 1000 - L + 1 starts per length
    assert _header(header)["positions"] == str(sum(1001 - L for L in range(1, 9)))
    assert _header(header)["factors"] == str(len(rows))
    # a scan longer than the word stops at its end
    code = main(
        [
            "recur",
            "--base-period",
            "1,2",
            "--length",
            "1000",
            "--l-max",
            "8",
            "--scan-len",
            "5000",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header, _, *rows = out.read_text().splitlines()
    assert _header(header)["positions"] == str(sum(1001 - L for L in range(1, 9)))
    assert _header(header)["factors"] == str(len(rows))
    word_file = tmp_path / "word.txt"
    word_file.write_text("1 2\n")
    code = main(
        [
            "recur",
            "--alphabet",
            "1,2",
            "--input",
            str(word_file),
            "--l-max",
            "1",
            "--scan-len",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("scan_len", ["-5", "0", "3"])
def test_recur_rejects_scan_len_below_l_max(scan_len, capsys):
    # such a scan would skip the longer lengths (or everything) and pass
    code = main(
        [
            "recur",
            "--base-period",
            "1,2",
            "--length",
            "2000",
            "--l-max",
            "8",
            "--scan-len",
            scan_len,
            "--expect",
            "recurrent",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "shorter than l_max" in captured.err


def test_closure_expectations(tmp_path, capsys):
    out = tmp_path / "closure.csv"
    even = [
        "closure",
        "--base-period",
        "2,4",
        "--length",
        "100000",
        "--l-max",
        "12",
        "--output",
        str(out),
    ]
    assert main(even + ["--op", "complement", "--expect", "witness"]) == 0
    assert main(even + ["--op", "complement", "--expect", "closed"]) == 2
    # odd alphabets are reversal-closed, so demanding a witness fails
    odd = [
        "closure",
        "--base-period",
        "1,3",
        "--length",
        "100000",
        "--l-max",
        "8",
        "--output",
        str(out),
        "--op",
        "reversal",
    ]
    assert main(odd + ["--expect", "closed"]) == 0
    assert main(odd + ["--expect", "witness"]) == 2
    lines = out.read_text().splitlines()
    assert lines[1] == "op,factor,image,verdict,position"
    # every length scans the middle third [33333, 66666) of the word
    arr = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 3)), (1, 3)), 10**5).to_array()
    windows = np.lib.stride_tricks.sliding_window_view
    factors = sum(
        np.unique(windows(arr, L)[33333:66666], axis=0).shape[0] for L in range(1, 9)
    )
    header = _header(lines[0])
    assert header["positions"] == str(8 * 33333)
    assert header["factors"] == str(factors)
    assert header["misses"] == "0"


@pytest.mark.parametrize(
    "argv, size, smallest",
    [
        (["recur", "--expect", "recurrent", "--length", "8"], "--scan-len", 4),
        (["recur", "--expect", "recurrent", "--scan-len", "4"], "--length", 8),
        (["gaps", "--expect", "stable"], "--length", 8),
        (["closure", "--op", "reversal", "--expect", "closed"], "--length", 12),
        (["closure", "--op", "reversal", "--expect", "closed"], "--input", 12),
    ],
)
def test_verdicts_compare_factors_at_their_smallest_size(
    argv, size, smallest, tmp_path, capsys
):
    # no --expect verdict can pass having compared nothing: at the
    # smallest size a verdict accepts it compares factors, and one size
    # smaller is rejected at the boundary
    def run(m):
        value = str(m)
        if size == "--input":
            value = str(tmp_path / "word.txt")
            w = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), m)
            with open(value, "w") as handle:
                write_words([w], handle)
        return main(argv + ["--base-period", "1,2", "--l-max", "4", size, value])

    assert run(smallest) in (0, 2)
    assert int(_header(capsys.readouterr().out.splitlines()[0])["factors"]) > 0
    assert run(smallest - 1) == 1
    assert capsys.readouterr().out == ""


def test_gaps_header_counts(tmp_path):
    out = tmp_path / "gaps.csv"
    argv = ["gaps", "--base-period", "3,6,9", "--length", "5000", "--l-max", "5"]
    assert main(argv + ["--output", str(out)]) == 0
    header, _, *rows = out.read_text().splitlines()
    assert _header(header)["positions"] == str(sum(5001 - L for L in range(1, 6)))
    assert _header(header)["factors"] == str(len(rows))


def test_subst_commands(tmp_path, capsys):
    args = ["--alphabet", "2,6,10,14", "--order", "6,10,14,2"]
    assert main(["subst", "show"] + args) == 0
    out = capsys.readouterr().out
    assert "A1 -> A1 B1 A2 A3 B2 A4" in out
    assert main(["subst", "check-primitive"] + args) == 0
    out = capsys.readouterr().out
    assert "primitive=True" in out
    assert (
        main(["subst", "verify-fixpoint"] + args + ["--length", "10000"]) == 0
    )
    assert main(["subst", "iterate"] + args + ["--t", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["6"] * 6 + ["10"] * 6 + ["14"] * 6 + ["2"] * 6


def test_subst_iterate_size_checked_before_building(tmp_path, capsys, monkeypatch):
    # the 6th iterate of sigma_1 has 786432 letters and the 9th 402653184;
    # neither may be built, so each case must fail before iterate runs
    args = ["subst", "iterate", "--order", "6,10,14,2"]
    assert main(args + ["--t", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "786432 symbols exceed the stdout limit of 100000; pass --output FILE\n"
    )
    target = tmp_path / "iterate.txt"
    monkeypatch.setenv("SMOOTHWORDS_MAX_EXPANSION", "1000")
    for t in ("4", "1000"):
        assert main(args + ["--t", t, "--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: iterate exceeds budget of 1000 symbols\n"
        assert not target.exists()
    monkeypatch.delenv("SMOOTHWORDS_MAX_EXPANSION")
    assert main(args + ["--t", "1000", "--output", str(target)]) == 1
    assert capsys.readouterr().err == (
        "error: iterate exceeds budget of 100000000 symbols\n"
    )
    assert main(args + ["--t", "4", "--blocks"]) == 0
    assert len(capsys.readouterr().out.splitlines()[-1].split()) == 6 * 8**3


@pytest.mark.parametrize("order", [(6, 10, 14, 2), (1, 3), (2, 4), (3, 6, 9)])
def test_iterate_size_matches_the_iterate(order):
    o = CyclicOrder.from_letters(order)
    sub = build_substitution(o.alphabet, o)
    for t in range(5):
        bw = iterate(sub, sub.seed, t)
        assert cli._iterate_size(sub, sub.seed, t, True, 10**9) == len(bw)
        letters = len(flatten(sub, bw))
        assert cli._iterate_size(sub, sub.seed, t, False, 10**9) == letters
        if letters > 1:
            assert cli._iterate_size(sub, sub.seed, t, False, letters - 1) >= letters


@pytest.mark.parametrize(
    "command",
    [
        ["freq"],
        ["recur", "--l-max", "4", "--expect", "none"],
        ["gaps", "--l-max", "4"],
        ["closure", "--op", "reversal", "--l-max", "4"],
    ],
    ids=lambda command: command[0],
)
def test_report_alphabet_falls_back_to_the_whole_base(command, tmp_path, capsys):
    base = ["--base-preperiod", "1", "--base-period", "2,3", "--length", "1000"]
    out = tmp_path / "report.csv"
    assert main(command + base + ["--output", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_generated_files_feed_back_as_input(tmp_path, capsys):
    word_file = tmp_path / "word.txt"
    assert (
        main(
            [
                "generate",
                "--base-period",
                "2,4",
                "--length",
                "50",
                "--output",
                str(word_file),
            ]
        )
        == 0
    )
    # the leading config comment must not confuse readers
    code = main(
        ["encode", "--alphabet", "2,4", "--input", str(word_file), "--prefix"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # the word equals its own run lengths, so the exponents open 2 2 4 4
    assert out[1].split()[:4] == ["2", "2", "4", "4"]


def test_oversized_symbol_is_a_usage_error(tmp_path, capsys):
    assert main(["encode", "--word", "1,99999999999999999999"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cannot parse symbols" in err[0]
    word_file = tmp_path / "word.txt"
    word_file.write_text("1 2 99999999999999999999\n")
    assert main(["encode", "--input", str(word_file)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: more than 18 digits")


def test_run_token_past_the_budget_is_a_usage_error(capsys):
    assert main(["encode", "--word", "1^999999999999999999"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cannot parse symbols" in err[0]


def test_word_file_with_non_ascii_bytes_is_rejected(tmp_path, capsys):
    word_file = tmp_path / "word.txt"
    word_file.write_bytes(b"# made by hand\n1 2 \xc3\xa9 2\n")
    assert main(["encode", "--input", str(word_file)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: word text must be ASCII"]
    word_file.write_bytes(b"# comment\r\n\r\n1 2 2\r\n")
    assert main(["encode", "--input", str(word_file)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1 2", "1 2"]


@pytest.mark.parametrize(
    "alphabet, preperiod, period",
    [((1, 2), (2,), (1, 2)), ((2, 6, 10, 14), (10,), (6, 10, 14, 2))],
)
def test_generated_file_reads_back_across_write_chunks(
    tmp_path, capsys, alphabet, preperiod, period
):
    length = 2 * words._WRITE_CHUNK + 123
    word = kolakoski_prefix(
        BaseSequenceSpec(Alphabet(alphabet), period, preperiod), length
    )
    letters = ",".join(map(str, alphabet))
    source = [
        "--alphabet", letters,
        "--base-preperiod", ",".join(map(str, preperiod)),
        "--base-period", ",".join(map(str, period)),
        "--length", str(length),
    ]
    word_file = tmp_path / "word.txt"
    assert main(["generate", *source, "--output", str(word_file)]) == 0
    body = word_file.read_text().splitlines()[1]
    assert body == " ".join(str(s) for s in word.to_array().tolist())

    read_back = ["--alphabet", letters, "--input", str(word_file)]
    assert main(["encode", *read_back]) == 0
    out = capsys.readouterr().out.splitlines()
    rd = rle_encode(word)
    assert out[1] == " ".join(str(s) for s in rd.exponents.to_array().tolist())
    assert out[2] == " ".join(str(s) for s in rd.bases.to_array().tolist())

    samples = ["--samples", f"1000,{length}"]
    assert main(["freq", *read_back, *samples]) == 0
    from_file = capsys.readouterr().out.splitlines()[1:]
    assert main(["freq", *source, *samples]) == 0
    generated = capsys.readouterr().out.splitlines()[1:]
    buf = io.StringIO()
    letter_frequencies(word, [1000, length], Alphabet(alphabet)).to_csv(buf)
    assert from_file == generated == buf.getvalue().splitlines()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(
            [
                "freq",
                "--base-period",
                "3,6,9",
                "--length",
                "50000",
                "--samples",
                "1000,50000",
                "--output",
                str(path),
            ]
        )
    assert a.read_bytes() == b.read_bytes()


def test_console_script_entry_point():
    # the child process sees the checkout's src/ even when not installed
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "smoothwords.cli",
            "generate",
            "--base-period",
            "1,2",
            "--length",
            "5",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "1 2 2 1 1"


# ---------------------------------------------------------------------------
# the flat-memory data plane: generate writes pieces, --input reads pieces


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("m", [10**6, 4 * 10**6])
def test_generate_and_freq_input_run_in_flat_memory(tmp_path, capsys, m):
    word_file = tmp_path / "word.txt"
    source = ["--base-period", "1,2", "--length", str(m)]
    generate = ["generate", *source, "--stats", "--output", str(word_file)]
    freq = ["freq", "--alphabet", "1,2", "--input", str(word_file)]
    # the word's int64 array alone is 8 MB at 10^6 letters and 32 MB at 4*10^6
    assert _traced_peak(generate) < 16 * 2**20
    assert _traced_peak(freq + ["--samples", f"1000,{m}"]) < 16 * 2**20
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{m},2,")


def test_freq_takes_a_slot_per_letter_not_per_letter_value(tmp_path, capsys):
    # letters are counted and checked by rank: tables indexed by letter
    # value peaked at 793 MB (--input) and 1.5 GB (stream) over {1, 10^8+1}
    word_file = tmp_path / "word.txt"
    word_file.write_text("1 100000001 1 1\n")
    cases = [
        ["--base-period", "1,100000001", "--length", "10"],
        ["--alphabet", "1,100000001", "--input", str(word_file)],
        ["--base-period", "1,1099511627776", "--length", "10"],
    ]
    rows = []
    for argv in cases:
        assert _traced_peak(["freq", *argv]) < 20 * 2**20
        rows.append(capsys.readouterr().out.splitlines()[1:])
    header = "k,letter,count,ratio,deviation"
    assert rows == [
        [header, "10,1,1,0.100000000,0.400000000",
         "10,100000001,9,0.900000000,0.400000000"],
        [header, "4,1,3,0.750000000,0.250000000",
         "4,100000001,1,0.250000000,0.250000000"],
        [header, "10,1,1,0.100000000,0.400000000",
         "10,1099511627776,9,0.900000000,0.400000000"],
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["recur", "--base-period", "1,2"],
        ["gaps", "--base-period", "3,6,9", "--expect", "stable"],
        ["closure", "--base-period", "1,3", "--op", "reversal"],
    ],
)
def test_factor_reports_run_in_flat_memory(tmp_path, argv):
    # the word's int64 array alone is 32 MB at 4*10^6 letters; the reports
    # read it from the cursor in pieces and keep only its distinct factors
    out = ["--length", str(4 * 10**6), "--output", str(tmp_path / "report.csv")]
    assert _traced_peak(argv + out) < 16 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["recur", "--l-max", "10"],
        ["gaps", "--l-max", "6", "--expect", "stable"],
        ["closure", "--l-max", "8", "--op", "complement"],
    ],
)
def test_factor_reports_read_word_files_as_they_read_the_cursor(
    argv, tmp_path, capsys, monkeypatch
):
    m = 3 * words._WRITE_CHUNK + 5
    word_file = tmp_path / "word.txt"
    with open(word_file, "w") as handle:
        spec = BaseSequenceSpec(Alphabet((2, 4)), (2, 4))
        write_words([kolakoski_prefix(spec, m)], handle)
    # short parser spans: the file comes in pieces of 64 letters
    monkeypatch.setattr(words, "_PARSE_CHUNK", 128)
    cursor = main(argv + ["--base-period", "2,4", "--length", str(m)])
    from_cursor = capsys.readouterr().out.splitlines()
    from_file = main(argv + ["--alphabet", "2,4", "--input", str(word_file)])
    lines = capsys.readouterr().out.splitlines()
    assert from_file == cursor
    assert lines[1:] == from_cursor[1:]
    assert len(lines) > 2


P = words._WRITE_CHUNK


@pytest.mark.parametrize("m", [1, P - 1, P, P + 1, 2 * P + 123])
def test_generate_stats_match_one_take(tmp_path, m):
    spec = BaseSequenceSpec(Alphabet((1, 2, 3)), (1, 2, 3))
    stream = kolakoski_stream(spec)
    word = stream.take(m)
    word_file = tmp_path / "word.txt"
    argv = ["generate", "--base-period", "1,2,3", "--length", str(m), "--stats"]
    assert main(argv + ["--output", str(word_file)]) == 0
    header, body = word_file.read_text().splitlines()
    assert _header(header)["levels"] == str(stream.levels)
    assert _header(header)["peak_buffered"] == str(stream.peak_buffered)
    assert body == " ".join(map(str, word.to_array().tolist()))


def _freq_csv(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[1:]


# spans of a few bytes, of the default size and of four times that
@pytest.mark.parametrize("chunk", [64, words._PARSE_CHUNK, 2**18])
def test_freq_input_matches_letter_frequencies_at_piece_ends(
    tmp_path, capsys, monkeypatch, chunk
):
    # one-digit letters fill each span with chunk/2 of them, so the
    # parser's pieces end at multiples of chunk/2
    alphabet = Alphabet((1, 2, 3))
    n = 3 * (chunk // 2) + 7
    word = kolakoski_prefix(BaseSequenceSpec(alphabet, (1, 2, 3)), n)
    word_file = tmp_path / "word.txt"
    with open(word_file, "w") as handle:
        handle.write("# header\n")
        write_words([word], handle)
    edges = [k * (chunk // 2) + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    samples = sorted({1, n, *edges})
    monkeypatch.setattr(words, "_PARSE_CHUNK", chunk)
    argv = ["freq", "--alphabet", "1,2,3", "--input", str(word_file)]
    got = _freq_csv(argv + ["--samples", ",".join(map(str, samples))], capsys)
    buf = io.StringIO()
    letter_frequencies(word, samples, alphabet).to_csv(buf)
    assert got == buf.getvalue().splitlines()
    # without --samples the whole word is the one sample
    buf = io.StringIO()
    letter_frequencies(word, [n], alphabet).to_csv(buf)
    assert _freq_csv(argv, capsys) == buf.getvalue().splitlines()


def test_freq_input_errors(tmp_path, capsys):
    word_file = tmp_path / "word.txt"
    word_file.write_text("1 2 2 1\n")
    argv = ["freq", "--alphabet", "1,2", "--input", str(word_file)]
    assert main(argv + ["--samples", "2,5"]) == 1
    assert capsys.readouterr().err == "sample 5 exceeds the length 4\n"
    word_file.write_text("1 2 " * 100_000 + "3 1\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: word contains symbols outside its alphabet\n"
    word_file.write_text("# nothing\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: samples must be positive\n"
