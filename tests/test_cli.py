import argparse
import contextlib
import io
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    Word,
    derivative,
    format_symbols,
    kolakoski_prefix,
    kolakoski_stream,
    letter_frequencies,
    rle_encode,
    words,
)
from smoothwords import cli, verify
from smoothwords.cli import main
from smoothwords.expansion import CyclicOrder, phi_inverse_prefix, pseudo_inverse_chain
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


@pytest.mark.parametrize(
    "alphabet, word, times, expected",
    [
        ("1,3", "1,3,3", "0", "1 3 3"),
        ("2,4", "2,4,4,2", "0", "2 4 4 2"),
        ("1,3", "3,3,3,1,3,3,3", "1", "3 1 3"),
    ],
)
def test_derive_over_letters_other_than_their_ranks(
    capsys, alphabet, word, times, expected
):
    # the word is checked as letter ranks; the output holds letters
    argv = ["derive", "--alphabet", alphabet, "--word", word, "--times", times]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [expected]


def test_encode_over_letters_other_than_their_ranks(capsys):
    assert main(["encode", "--alphabet", "2,4", "--word", "4^3,2,4^2"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["3 1 2", "4 2 4"]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["encode"], ["", ""]),
        (["encode", "--alphabet", "2,4"], ["", ""]),
        (["derive", "--alphabet", "1,2"], [""]),
        (["derive", "--alphabet", "2,4", "--times", "0"], [""]),
    ],
)
def test_an_empty_word_flag_is_the_empty_word(argv, lines, capsys):
    assert main(argv + ["--word", ""]) == 0
    out = capsys.readouterr().out.split("\n")
    assert _header(out[0])["word"] == ""
    assert out[1:] == lines + [""]


_NO_FILE = "error: [Errno 2] No such file or directory: ''\n"
_TWO_LETTERS = "error: alphabet needs at least two letters\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["encode", "--word", "1,2", "--input", ""], _NO_FILE),
        (["generate", "--base-period", "1,2", "--length", "5", "--output", ""], _NO_FILE),
        (["freq", "--base-period", "1,2", "--alphabet", ""], _TWO_LETTERS),
        (["recur", "--base-period", "1,2", "--input", ""], _NO_FILE),
        (["expand", "--order", "1,2", "--target", "1,2", "--alphabet", ""], _TWO_LETTERS),
        (["freq", "--base-period", "1,2", "--samples", ""], "cannot parse --samples from ''\n"),
        (["generate", "--base-period", "", "--length", "10"], "--base-period is required\n"),
        (["freq", "--base-period", "", "--length", "10"], "--base-period is required\n"),
        (["recur", "--base-period", "", "--input", "F"], "--alphabet is required\n"),
    ],
)
def test_an_empty_flag_value_is_a_value(argv, err, capsys, tmp_path, monkeypatch):
    # an empty value is checked as a value, not taken for a missing flag
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


# a minimal valid command line for each subcommand, one that reads each
# flag the walk below gives an empty value
_MINIMAL = {
    "generate": ["--base-period", "1,2", "--length", "10"],
    "encode": ["--word", "1,2"],
    "derive": ["--alphabet", "1,2", "--word", "1,2,2,1"],
    "expand": ["--order", "1,2", "--target", "1,2"],
    "phi-inverse": ["--order", "1,2", "--u", "1,2"],
    "freq": ["--base-period", "1,2", "--length", "100"],
    "recur": ["--base-period", "1,2", "--length", "100", "--l-max", "4"],
    "gaps": ["--base-period", "1,2", "--length", "100", "--l-max", "4"],
    "closure": [
        "--base-period", "1,2", "--length", "300", "--l-max", "4",
        "--op", "perm", "--map", "1:2,2:1",
    ],
    "subst": ["iterate", "--order", "6,10,14,2"],
    "verify-all": [],
}
# flags for which the empty word is a value
_EMPTY_IS_A_VALUE = {"--word", "--target"}


def _flags_without_default():
    """(subcommand, flag) for every optional flag whose default is None."""
    (commands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        (command, action.option_strings[-1])
        for command, parser in commands.items()
        for action in parser._actions
        if action.option_strings and action.default is None
    ]


@pytest.fixture
def one_check(monkeypatch):
    # verify-all runs its first check only, so its flag cases stay quick
    monkeypatch.setattr(verify, "ALL_CHECKS", verify.ALL_CHECKS[:1])


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_minimal_command_lines_pass(command, one_check, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, *_MINIMAL[command]]) == 0


@pytest.mark.parametrize("command, flag", _flags_without_default())
def test_an_empty_value_reaches_its_flag_check(
    command, flag, one_check, capsys, tmp_path, monkeypatch
):
    # a flag added later that takes "" for a missing value fails here
    monkeypatch.chdir(tmp_path)
    argv = _MINIMAL[command]
    if flag in argv:  # replace the flag's value
        at = argv.index(flag)
        argv = argv[:at] + argv[at + 2 :]
    expected = 0 if flag in _EMPTY_IS_A_VALUE else 1
    assert main([command, *argv, flag, ""]) == expected


def test_the_flag_walk_finds_the_flags_without_default():
    found = set(_flags_without_default())
    for flag in ("--input", "--alphabet", "--output", "--samples"):
        assert ("freq", flag) in found
    assert {("verify-all", "--output"), ("closure", "--map"), ("encode", "--word")} <= found
    assert {command for command, _ in found} == set(_MINIMAL)


def test_derive_rejects_negative_times(capsys):
    argv = ["derive", "--alphabet", "1,2", "--word", "1,2,2,1", "--times", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--times must be non-negative\n"


def test_derive_stops_at_the_empty_word(capsys, monkeypatch):
    # two derivatives empty 1,2,2,1 (1,2,2,1 -> 2 -> empty), so no third
    # stage starts however large --times is
    stages = []

    class Counted(words._Derivative):
        def __init__(self, *args):
            stages.append(args)
            super().__init__(*args)

    monkeypatch.setattr(words, "_Derivative", Counted)
    argv = ["derive", "--alphabet", "1,2", "--word", "1,2,2,1"]
    assert main(argv + ["--times", "1000000000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert _header(out[0])["times"] == "1000000000"
    assert out[1:] == [""]
    assert len(stages) == 2


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


@pytest.mark.parametrize("tol", ["nan", "-nan", "-0.5", "-inf"])
def test_freq_rejects_nan_and_negative_tolerances(tol, capsys):
    # a NaN tolerance would pass every check, a negative one fail every one
    argv = ["freq", "--base-period", "1,3", "--length", "100", f"--tol={tol}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("--tol must be a non-negative number")


@pytest.mark.parametrize(
    "flag, err",
    [
        (["--tol", "-inf"], "--tol must be a non-negative number, got -inf\n"),
        (["--tol", "-nan"], "--tol must be a non-negative number, got nan\n"),
        (["--samples", "-1e3"], "cannot parse --samples from '-1e3'\n"),
    ],
)
def test_values_that_start_with_a_minus_reach_their_flag_check(flag, err, capsys):
    # argparse alone takes such a value for an option and reports
    # "expected one argument"
    argv = ["freq", "--base-period", "1,3", "--length", "100", *flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_freq_accepts_zero_and_infinite_tolerances(capsys):
    argv = ["freq", "--base-period", "2,4", "--length", "100", "--tol"]
    assert main(argv + ["inf"]) == 0
    assert main(argv + ["0"]) == 0  # (2, 4) is exactly balanced at even lengths
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("samples", ["1,,2", "x", "1.5", "1 2"])
def test_freq_samples_parse_errors_name_the_flag(samples, capsys):
    argv = ["freq", "--base-period", "1,2", "--length", "100", "--samples", samples]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"cannot parse --samples from {samples!r}\n"


@pytest.mark.parametrize("mapping", ["1:x", "1", "1:2:3", ":2", "1:2,"])
def test_closure_map_parse_errors_name_the_flag(mapping, capsys):
    argv = ["closure", "--base-period", "1,2", "--length", "300", "--l-max", "4"]
    assert main(argv + ["--op", "perm", "--map", mapping]) == 1
    assert capsys.readouterr().err == f"cannot parse --map from {mapping!r}\n"


@pytest.mark.parametrize("big", [10**18, 2**63 - 1, 2**70])
def test_closure_map_letters_have_at_most_18_digits(big, capsys):
    argv = ["closure", "--base-period", "1,2", "--length", "300", "--l-max", "4"]
    mapping = f"1:{big},{big}:1,2:2"
    assert main(argv + ["--op", "perm", "--map", mapping]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot parse --map from {mapping!r}\n"
    mapping = f"1:{10**18 - 1},{10**18 - 1}:1,2:2"
    assert main(argv + ["--op", "perm", "--map", mapping]) == 0
    assert capsys.readouterr().out.count("absent") > 0


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
                words.write_word_pieces([w.to_array()], handle)
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
        words.write_word_pieces([kolakoski_prefix(spec, m).to_array()], handle)
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
        words.write_word_pieces([word.to_array()], handle)
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
    assert capsys.readouterr().err == "error: sample 5 exceeds the length 4\n"
    word_file.write_text("1 2 " * 100_000 + "3 1\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: word contains symbols outside its alphabet\n"
    # a sample below 1 fails before any letter is read, so before the file's errors
    for path in (word_file, tmp_path / "missing.txt"):
        bad = ["freq", "--alphabet", "1,2", "--input", str(path), "--samples", "0,5"]
        assert main(bad) == 1
        assert capsys.readouterr().err == "error: samples must be positive\n"
    word_file.write_text("# nothing\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: samples must be positive\n"


@pytest.mark.parametrize("command", ["freq", "recur"])
def test_input_pieces_are_ranked_once(tmp_path, capsys, monkeypatch, command):
    # parser spans of 2^18 bytes hold 2^17 one-digit letters, which the
    # source ranks in two pieces of at most 2^16
    monkeypatch.setattr(words, "_PARSE_CHUNK", 2**18)
    word = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 3 * 2**17 + 9)
    word_file = tmp_path / "word.txt"
    with open(word_file, "w") as handle:
        words.write_word_pieces([word.to_array()], handle)
    sizes = [p.size for p in words.data_line_pieces(str(word_file))]
    parts = sum(-(-size // words._WRITE_CHUNK) for size in sizes)
    assert max(sizes) > words._WRITE_CHUNK
    ranked = []
    rank_map = words._rank_map

    def counting(letters):
        rank = rank_map(letters)
        return lambda arr: ranked.append(arr.size) or rank(arr)

    monkeypatch.setattr(words, "_rank_map", counting)
    argv = [command, "--alphabet", "1,2", "--input", str(word_file)]
    extra = {"freq": [], "recur": ["--l-max", "8"]}[command]
    assert main(argv + extra) == 0
    capsys.readouterr()
    # recur reads the word once, to build its index; freq once, to count
    assert len(ranked) == parts
    assert max(ranked) <= words._WRITE_CHUNK
    assert sum(ranked) == len(word)


@pytest.mark.parametrize(
    "argv",
    [
        ["freq"],
        ["recur", "--l-max", "4"],
        ["gaps", "--l-max", "4"],
        ["closure", "--op", "reversal", "--l-max", "4"],
        ["encode"],
        ["derive"],
    ],
)
def test_letter_error_comes_before_a_later_parse_error(tmp_path, capsys, argv):
    # the first piece has a letter outside {1, 2}; a span after it holds
    # a token that does not parse
    word_file = tmp_path / "word.txt"
    word_file.write_text("3 " + "1 2 " * 40_000 + "1 x 2\n")
    assert words._PARSE_CHUNK < 160_000
    assert main(argv + ["--alphabet", "1,2", "--input", str(word_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word contains symbols outside its alphabet\n"
    word_file.write_text("1 2 " * 40_000 + "1 x 2\n")
    assert main(argv + ["--alphabet", "1,2", "--input", str(word_file)]) == 1
    assert capsys.readouterr().err == "error: invalid text in token 'x'\n"


# ---------------------------------------------------------------------------
# word commands stream their chunks: expand, phi-inverse and subst iterate


def _both_ways(argv):
    """The text a command writes to stdout and to ``--output``, which must
    be the only file left in its directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "out.txt")
        with contextlib.redirect_stdout(io.StringIO()) as quiet:
            assert main(argv + ["--output", path]) == 0
        assert quiet.getvalue() == ""
        assert os.listdir(d) == ["out.txt"]
        with open(path, encoding="utf-8", newline="") as handle:
            return buf.getvalue(), handle.read()


def _word_text(word):
    buf = io.StringIO()
    words.write_word_pieces([word.to_array()], buf)
    return buf.getvalue()


def _letters(xs):
    return ",".join(map(str, xs))


def _expand(order, chain, target):
    return ["expand", "--order", order, "--chain", _letters(chain), "--target", target]


def _phi_inverse(order, u):
    return ["phi-inverse", "--order", order, "--u", _letters(u)]


# letters 1..4, exponents up to 4 and chains of at most 6 letters keep every
# expansion under the stdout limit, while many pass one _CHUNK of letters
_orders = st.lists(st.integers(1, 4), min_size=2, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(
    _orders.flatmap(
        lambda order: st.tuples(
            st.just(order),
            st.lists(st.sampled_from(order), max_size=6),
            st.lists(st.integers(1, 4), max_size=5),
        )
    )
)
def test_expand_streams_the_chain_word(case):
    order, chain, target = case
    o = CyclicOrder.from_letters(order)
    argv = ["expand", "--order", _letters(order), "--target", _letters(target)]
    if chain:
        argv += ["--chain", _letters(chain)]
    out, text = _both_ways(argv)
    assert out == text
    word = pseudo_inverse_chain(chain, Word(tuple(target)), o)
    assert text.split("\n", 1)[1] == _word_text(word)


@settings(max_examples=60, deadline=None)
@given(
    _orders.flatmap(
        lambda order: st.tuples(
            st.just(order), st.lists(st.sampled_from(order), min_size=1, max_size=7)
        )
    )
)
def test_phi_inverse_streams_the_expansion(case):
    order, u = case
    o = CyclicOrder.from_letters(order)
    out, text = _both_ways(_phi_inverse(_letters(order), u))
    assert out == text
    word = phi_inverse_prefix(Word(tuple(u), o.alphabet), o)
    assert text.split("\n", 1)[1] == _word_text(word)


@pytest.mark.parametrize("order", [(6, 10, 14, 2), (1, 3), (4, 2), (3, 6, 9)])
@pytest.mark.parametrize("t", [0, 1, 3, 5])
@pytest.mark.parametrize("blocks", [False, True])
def test_subst_iterate_streams_the_iterate(order, t, blocks):
    o = CyclicOrder.from_letters(order)
    sub = build_substitution(o.alphabet, o)
    bw = iterate(sub, sub.seed, t)
    expected = " ".join(bw) + "\n" if blocks else _word_text(flatten(sub, bw))
    argv = ["subst", "iterate", "--order", _letters(order), "--t", str(t)]
    argv += ["--blocks"] if blocks else []
    if len(expected.split()) > cli.STDOUT_SYMBOL_LIMIT:
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "out.txt")
            assert main(argv + ["--output", path]) == 0
            with open(path, encoding="utf-8", newline="") as handle:
                text = handle.read()
    else:
        out, text = _both_ways(argv)
        assert out == text
    assert text.split("\n", 1)[1] == expected


def test_subst_iterate_seed_symbol_streams_its_iterate(capsys):
    o = CyclicOrder.from_letters((6, 10, 14, 2))
    sub = build_substitution(o.alphabet, o)
    argv = ["subst", "iterate", "--order", "6,10,14,2", "--t", "3", "--seed-symbol"]
    assert main(argv + ["B2", "--blocks"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == " ".join(iterate(sub, "B2", 3))
    for bad in ("Q", ""):  # an empty name is a name, not the default seed
        assert main(argv + [bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown block symbol {bad}\n"


@pytest.mark.parametrize(
    "argv, budget",
    [
        # 620109 letters, 275611 letters and 1341290 letters
        (_expand("1,2", (1, 2) * 16, "1,2"), 300000),
        (_expand("3,1,2", (3, 1, 2) * 5, "2,3"), 40000),
        (_phi_inverse("2,1", (1, 2) * 18 + (1,)), 300000),
    ],
)
@pytest.mark.parametrize("existing", [None, b"older file\n"], ids=["new", "existing"])
def test_budget_passed_mid_write_leaves_no_output(
    argv, budget, existing, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("SMOOTHWORDS_MAX_EXPANSION", str(budget))
    written = []

    def spy(pieces, out):  # counts the letters formatted before the failure
        def counted():
            for piece in pieces:
                written.append(piece.size)
                yield piece

        words.write_word_pieces(counted(), out)

    monkeypatch.setattr(cli, "write_word_pieces", spy)
    target = tmp_path / "word.txt"
    if existing is not None:
        target.write_bytes(existing)
    assert main(argv + ["--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expansion exceeds budget of {budget} symbols\n"
    assert 0 < sum(written) <= budget  # the failure came after writing began
    assert os.listdir(tmp_path) == ([] if existing is None else ["word.txt"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_expand_stdout_limit_names_the_exact_size(capsys, monkeypatch):
    argv = _expand("1,2", (1, 2) * 14, "1,2")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "122511 symbols exceed the stdout limit of 100000; pass --output FILE\n"
    )
    monkeypatch.setenv("SMOOTHWORDS_MAX_EXPANSION", "120000")  # the budget is first
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: expansion exceeds budget of 120000 symbols\n"


def test_expand_empty_chain_checks_its_target(tmp_path, capsys):
    argv = ["expand", "--order", "1,2", "--target", "0,-5"]
    target = tmp_path / "word.txt"
    for extra in [[], ["--output", str(target)], ["--chain", "1"]]:
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exponents must be positive\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n", [1200, 10**5])
@pytest.mark.parametrize("flag", ["expand", "phi-inverse"])
def test_long_unary_chains_expand_to_their_one_letter(flag, n, capsys):
    # every level of 1^n maps the word 1 to itself; the levels are a flat
    # list, not nested frames, so their number meets no recursion limit
    ones = ",".join(["1"] * n)
    if flag == "expand":
        argv = ["expand", "--order", "1,2", "--chain", ones, "--target", "1"]
    else:
        argv = ["phi-inverse", "--order", "1,2", "--u", ones]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["1"] and captured.err == ""


def test_word_builders_run_near_the_recursion_limit(tmp_path):
    # a child lowers its recursion limit to 40 frames past its depth; one
    # nested generator per level would pass it on the 40-level chain
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = f"""
import sys
from smoothwords import *
from smoothwords.cli import main
depth, frame = 0, sys._getframe()
while frame:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 40)
out = {str(tmp_path / "word.txt")!r}
argv = ["generate", "--base-period", "1,2", "--length", "1000000", "--output", out]
assert main(argv) == 0
assert main(["subst", "iterate", "--order", "6,10,14,2", "--t", "8", "--output", out]) == 0
order = CyclicOrder.from_letters((1, 2))
assert len(pseudo_inverse_chain((1, 2) * 20, Word((1, 2)), order)) > 10**6
sub = build_substitution(Alphabet((2, 4)), CyclicOrder.from_letters((2, 4)))
assert verify_substitution_fixpoint(sub, BaseSequenceSpec(Alphabet((2, 4)), (2, 4)), 10**6)
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_output_sink_is_atomic(tmp_path, capsys, monkeypatch):
    argv = ["generate", "--base-period", "1,2", "--length", "200000", "--output"]
    target = tmp_path / "word.txt"

    def failing(pieces, out):
        words.write_word_pieces(pieces, out)
        raise OSError("no space left")

    monkeypatch.setattr(cli, "write_word_pieces", failing)
    assert main(argv + [str(target)]) == 1
    assert capsys.readouterr().err == "error: no space left\n"
    assert os.listdir(tmp_path) == []
    target.write_bytes(b"older\n")
    target.chmod(0o640)
    assert main(argv + [str(target)]) == 1
    assert capsys.readouterr().err == "error: no space left\n"
    assert os.listdir(tmp_path) == ["word.txt"]
    assert target.read_bytes() == b"older\n"
    monkeypatch.undo()
    # a replaced file keeps its mode; a new one gets open()'s mode
    assert main(argv + [str(target)]) == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    fresh = tmp_path / "fresh.txt"
    assert main(argv + [str(fresh)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert fresh.read_bytes() == target.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "word.txt"]
    # a symlink is written through, as open() writes through it
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    target.write_bytes(b"older\n")
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "link.txt", "word.txt"]
    missing = tmp_path / "no" / "word.txt"
    assert main(argv + [str(missing)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_output_sink_writes_other_paths_in_place(tmp_path, capsys, monkeypatch):
    argv = ["expand", "--order", "1,2", "--chain", "1,2", "--target", "1,2", "--output"]
    word = tmp_path / "word.txt"
    assert main(argv + [str(word)]) == 0
    # a device keeps its node
    assert main(argv + [os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    # a FIFO stays a FIFO, and its reader gets the text
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(argv + [str(fifo)]) == 0
        assert os.read(reader, 2**16) == word.read_bytes()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe", "word.txt"]
    # a directory fails with open()'s message
    assert main(argv + [str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    )
    # a file whose directory takes no new file is written in place
    def refused(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", refused)
    text = word.read_bytes()
    word.write_bytes(b"older\n")
    assert main(argv + [str(word)]) == 0
    assert word.read_bytes() == text


@pytest.mark.parametrize(
    "argv, limit",
    [
        # 3.1e6 and 6.8e6 letters: the int64 words alone are 25 and 54 MB
        (_expand("1,2", (1, 2) * 18, "1,2"), 12),
        (_phi_inverse("2,1", (1, 2) * 20 + (1,)), 12),
        (["subst", "iterate", "--order", "6,10,14,2", "--t", "7"], 4),
        (["subst", "iterate", "--order", "6,10,14,2", "--t", "7", "--blocks"], 4),
    ],
)
def test_word_commands_run_in_flat_memory(argv, limit, tmp_path):
    assert _traced_peak(argv + ["--output", str(tmp_path / "word.txt")]) < limit * 2**20


def test_expand_chain_levels_hold_byte_letters(tmp_path):
    # 40 levels, 1.6e7 letters: each level holds a few chunks of one byte a
    # letter (int64 chain letters peaked at 8.6 MB here)
    argv = _expand("1,2", (1, 2) * 20, "1,2")
    assert _traced_peak(argv + ["--output", str(tmp_path / "word.txt")]) < 2 * 2**20


@pytest.mark.parametrize("m", [10**6, 4 * 10**6])
def test_encode_and_derive_input_run_in_flat_memory(tmp_path, m):
    # the word's int64 array alone is 8 MB at 10^6 letters and 32 MB at 4*10^6
    word_file, out = tmp_path / "word.txt", str(tmp_path / "out.txt")
    assert main(["generate", "--base-period", "1,2", "--length", str(m), "--output", str(word_file)]) == 0
    read = ["--alphabet", "1,2", "--input", str(word_file), "--output", out]
    assert _traced_peak(["encode", *read]) < 4 * 2**20
    with open(out) as handle:
        _, exponents, bases, end = handle.read().split("\n")
    word = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), m)
    rd = rle_encode(word)
    assert exponents == format_symbols(rd.exponents) and end == ""
    assert bases == format_symbols(rd.bases)
    assert _traced_peak(["derive", *read, "--times", "3", "--prefix"]) < 4 * 2**20
    expected = derivative(derivative(derivative(word)))
    with open(out) as handle:
        assert handle.read().split("\n")[1] == format_symbols(expected)


@pytest.mark.parametrize(
    "command, tail, err",
    [
        (["encode", "--alphabet", "1,2"], "3", "word contains symbols outside its alphabet"),
        (["derive", "--alphabet", "1,2", "--times", "2"], "1 1 1", "run longer than a_n=2"),
    ],
)
@pytest.mark.parametrize("existing", [None, b"older file\n"], ids=["new", "existing"])
def test_late_word_fault_leaves_no_output(
    command, tail, err, existing, tmp_path, capsys, monkeypatch
):
    # the fault sits past the first 2^16 letters, so writing has begun
    word = kolakoski_prefix(BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 3 * 10**5)
    word_file = tmp_path / "word.in"
    word_file.write_text(format_symbols(word[:200_000]) + f" {tail} 2 2 1\n")
    written = []

    def spy(pieces, out):
        def counted():
            for piece in pieces:
                written.append(piece.size)
                yield piece

        words.write_word_pieces(counted(), out)

    monkeypatch.setattr(cli, "write_word_pieces", spy)
    target = tmp_path / "out.txt"
    if existing is not None:
        target.write_bytes(existing)
    argv = command + ["--input", str(word_file), "--output", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")
    assert sum(written) > 0
    left = ["word.in"] if existing is None else ["out.txt", "word.in"]
    assert sorted(os.listdir(tmp_path)) == left
    if existing is not None:
        assert target.read_bytes() == existing
