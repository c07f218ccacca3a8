"""Failure branches of the acceptance battery.

Every criterion passes on working code, so each failure branch is forced
here by replacing the module-level name the check calls, and the
failing ``CheckResult`` is compared field by field.
"""

import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from smoothwords import Word, phi_inverse_prefix, verify
from smoothwords.cli import main
from smoothwords.verify import ALL_CHECKS, CheckResult

_CHECKS = dict(ALL_CHECKS)
_rle_reconstruct = verify.rle_reconstruct

SIGMA1_TABLE = "\n".join(
    f"{sym} -> {' '.join(rhs)}" for sym, rhs in sorted(verify.SIGMA1_RULES.items())
)
SIGMA2_TABLE = "\n".join(
    f"{sym} -> {' '.join(rhs)}" for sym, rhs in sorted(verify.SIGMA2_RULES.items())
)


def _doubled(alpha, u, order):
    """An additive stand-in for a pseudo-inverse: every letter twice."""
    return Word(np.repeat(u.to_array(), 2))


def _weighted(alpha, u, order):
    """An additive stand-in whose lengths are not multiples of n."""
    first = order.alphabet.letters[0]
    return Word(np.repeat(u.to_array(), np.where(u.to_array() == first, 1, 2)))


FAILURES = [
    pytest.param(
        "1-classic-display",
        {"kolakoski_prefix": lambda spec, m: Word((1,) * m)},
        "prefix mismatch",
        " ".join(["1"] * 19),
        id="1-prefix",
    ),
    pytest.param(
        "2-fixpoint-property",
        {"verify_fixpoint_prefix": lambda w: w[0] != 2},
        "fixpoint check failed for base (2, 1)",
        "(2, 1)",
        id="2-fixpoint",
    ),
    pytest.param(
        "3-chain-expansion",
        {"pseudo_inverse_chain": lambda p, u, order: Word((2, 4))},
        "expansion mismatch",
        "2 4",
        id="3-expansion",
    ),
    pytest.param(
        "4-substitution-tables",
        {"SIGMA1_RULES": {}},
        "sigma_1 rules differ",
        SIGMA1_TABLE,
        id="4-sigma_1-rules",
    ),
    pytest.param(
        "4-substitution-tables",
        {"SIGMA2_RULES": {}},
        "sigma_2 rules differ",
        SIGMA2_TABLE,
        id="4-sigma_2-rules",
    ),
    pytest.param(
        "4-substitution-tables",
        {"flatten": lambda sub, bw: Word((7, 7))},
        "sigma_1 second iterate differs",
        "7 7",
        id="4-second-iterate",
    ),
    pytest.param(
        "4-substitution-tables",
        {"verify_substitution_fixpoint": lambda sub, spec, m: 5 not in spec.period},
        "sigma_2 disagrees with its fixpoint word",
        "sigma_2",
        id="4-sigma_2-fixpoint",
    ),
    pytest.param(
        "5-primitivity",
        {"is_primitive": lambda sub: (False, None)},
        "sigma_1 not primitive with k <= 3 (got None)",
        "sigma_1",
        id="5-not-primitive",
    ),
    pytest.param(
        "5-primitivity",
        {"is_primitive": lambda sub: (True, 4)},
        "sigma_1 not primitive with k <= 3 (got 4)",
        "sigma_1",
        id="5-k-above-3",
    ),
    pytest.param(
        "5-primitivity",
        {
            "incidence_matrix": lambda sub: SimpleNamespace(
                power=lambda t: np.zeros((2, 2))
            )
        },
        "sigma_1 cube has a zero entry",
        "sigma_1",
        id="5-cube",
    ),
    pytest.param(
        "6-letter-frequency",
        {
            "letter_frequencies": lambda w, samples, alphabet: SimpleNamespace(
                max_deviation=lambda: 0.5, ratios_at=lambda n: {2: 1.0, 4: 0.0}
            )
        },
        "deviation 5.00e-01 exceeds 5e-03 on (2, 4)",
        "{2: 1.0, 4: 0.0}",
        id="6-deviation",
    ),
    pytest.param(
        "7-recurrence",
        {
            "recurrence_report": lambda w, l_max, scan_len: SimpleNamespace(
                factor_count=0,
                all_recurrent=3 not in w[:10].symbols,
                non_recurrent=[SimpleNamespace(length=5, factor=(1, 2, 2, 3, 3))],
            )
        },
        "factor of length 5 over (1, 2, 3) never recurs",
        "1 2 2 3 3",
        id="7-non-recurrent",
    ),
    pytest.param(
        "8-uniform-recurrence",
        {
            "gap_stability_check": lambda w, l_max: SimpleNamespace(
                compared=1,
                all_stable=14 not in w[:20].symbols,
                mismatches=[(2, (6, 10), 40, 41)],
            )
        },
        "sigma_1 fixpoint: gap of a length-2 factor moved 40 -> 41",
        "6 10",
        id="8-gap-moved",
    ),
    pytest.param(
        "9-reversal-closure",
        {"closure_check": lambda w, op, l_max: [SimpleNamespace(factor=(1, 3, 3))]},
        "1 reversal misses over (1, 3)",
        "1 3 3",
        id="9-reversal-miss",
    ),
    pytest.param(
        "9-reversal-closure",
        {
            "closure_check": lambda w, op, l_max: [],
            "phi_inverse_palindrome_check": lambda order, k_max: False,
        },
        "a directive word over {1,3} expands to a non-palindrome",
        "{1,3} k_max=12",
        id="9-non-palindrome",
    ),
    pytest.param(
        "10-permutation-nonclosure",
        {"closure_check": lambda w, op, l_max: [SimpleNamespace(factor=(9, 9))]},
        "no equal-run block factor with an absent complement",
        "1 other misses",
        id="10-no-block-witness",
    ),
    pytest.param(
        "11-property-suites",
        {"is_palindrome": lambda w: len(w) == 1},
        "palindrome equivalence fails on (1, 1)",
        None,
        id="11-palindrome",
    ),
    pytest.param(
        "11-property-suites",
        {"rle_reconstruct": lambda rd: Word(())},
        "roundtrip fails on (1,)",
        None,
        id="11-roundtrip",
    ),
    pytest.param(
        "11-property-suites",
        {
            "rle_reconstruct": lambda rd: Word(())
            if 3 in rd.bases.symbols
            else _rle_reconstruct(rd)
        },
        "roundtrip fails on random word (2, 2, 1, 1, 1, 1, 1, 1, 3, 2, 3, 2, 2, "
        "3, 3, 2, 2, 2, 3, 1, 3, 3, 1, 2, 3, 2, 1, 3, 3, 3, 1, 1, 3, 1)",
        None,
        id="11-random-roundtrip",
    ),
    pytest.param(
        "11-property-suites",
        {"pseudo_inverse": lambda alpha, u, order: Word(u.symbols[::-1])},
        "splitting fails: alpha=5, u=(4, 3, 2, 1, 5, 4, 5), "
        "v=(1, 2, 3, 1, 3, 2, 1, 1, 1, 2), order=(17, 13, 9, 5)",
        None,
        id="11-splitting",
    ),
    pytest.param(
        "11-property-suites",
        {"pseudo_inverse": _weighted},
        "length multiple fails: alpha=14, w=(8, 8, 17), order=(8, 14, 17)",
        None,
        id="11-length-multiple",
    ),
    pytest.param(
        "11-property-suites",
        {"pseudo_inverse": _doubled},
        "odd-length parity fails: alpha=1, w=(1,)",
        None,
        id="11-odd-length",
    ),
    pytest.param(
        "11-property-suites",
        {"phi_inverse_prefix": lambda v, order: Word(v.symbols[::-1])},
        "prefix monotonicity fails on (1, 2)",
        None,
        id="11-prefix-monotone",
    ),
]


@pytest.mark.parametrize("name,patches,detail,counterexample", FAILURES)
def test_failure_branch(name, patches, detail, counterexample, monkeypatch):
    for attr, value in patches.items():
        monkeypatch.setattr(verify, attr, value)
    result = _CHECKS[name](0)
    # the property suites put their whole failure line in the counterexample
    expected = detail if counterexample is None else counterexample
    assert (result.name, result.passed) == (name, False)
    assert result.detail == detail
    assert result.counterexample == expected


def _fixed(result):
    return lambda seed: result


def test_verify_all_failure_exit(tmp_path, capsys, monkeypatch):
    def never(seed):
        raise AssertionError("the battery must stop at the first failure")

    checks = [
        ("1-ok", _fixed(CheckResult("1-ok", True, "fine", 0.0))),
        ("2-bad", _fixed(CheckResult("2-bad", False, "broken", 0.0, "1 2 1"))),
        ("3-never", never),
    ]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    out_file = tmp_path / "failure.txt"
    assert main(["verify-all", "--seed", "5", "--output", str(out_file)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"PASS 1-ok \(\d+\.\d\ds\): fine", lines[0])
    assert re.fullmatch(r"FAIL 2-bad \(\d+\.\d\ds\): broken", lines[1])
    assert lines[2] == "counterexample: 1 2 1"
    config, result, counterexample = out_file.read_text().splitlines()
    assert config == "# smoothwords command=verify-all failed=2-bad seed=5"
    assert result == lines[1]
    assert counterexample == "1 2 1"


def test_verify_all_output_written_on_every_run(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "verdict.txt"
    argv = ["verify-all", "--seed", "5", "--output", str(out_file)]
    bad = CheckResult("7-bad", False, "broken", 0.0, "1 2 1")
    monkeypatch.setattr(verify, "ALL_CHECKS", [("7-bad", _fixed(bad))])
    assert main(argv) == 2
    assert out_file.read_text().splitlines()[0] == (
        "# smoothwords command=verify-all failed=7-bad seed=5"
    )
    good = CheckResult("7-ok", True, "fine", 0.0)
    monkeypatch.setattr(verify, "ALL_CHECKS", [("7-ok", _fixed(good))])
    assert main(argv) == 0
    # a passing run replaces the older failure with its bare config line
    assert out_file.read_text() == "# smoothwords command=verify-all seed=5\n"


@pytest.mark.parametrize("output", ["", "."])
def test_verify_all_output_that_cannot_be_written_fails_first(
    output, tmp_path, capsys, monkeypatch
):
    def never(seed):
        raise AssertionError("no check runs before --output is opened")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "ALL_CHECKS", [("1-never", never)])
    assert main(["verify-all", "--output", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno")


def test_prefix_monotonicity_expands_each_directive_word_once(monkeypatch):
    calls = []

    def counted(v, order):
        calls.append(v.symbols)
        return phi_inverse_prefix(v, order)

    monkeypatch.setattr(verify, "phi_inverse_prefix", counted)
    verify._suite_prefix_monotone()
    # every word of length 1..10 over {1, 2}, each once
    assert len(calls) == len(set(calls)) == 2**11 - 2


# ---------------------------------------------------------------------------
# criterion 11: coverage and the two halves

PASS_DETAIL = (
    "palindrome equivalence (<=12), RLE roundtrip (<=14 plus 10^4 random), "
    "splitting and length-parity lemmas (10^3 each), prefix monotonicity "
    "(depth <= 10) all hold"
)


def test_property_suites_keep_their_coverage(monkeypatch):
    # the calls each suite makes, as the serial suites made them: a faster
    # suite must not come from checking fewer words
    counts = Counter()
    encoded = []
    for name in (
        "rle_encode",
        "rle_reconstruct",
        "pseudo_inverse",
        "phi_inverse_prefix",
        "is_palindrome",
    ):

        def counted(*args, _name=name, _call=getattr(verify, name)):
            counts[_name] += 1
            if _name == "rle_encode":
                encoded.append(args[0].symbols)
            return _call(*args)

        monkeypatch.setattr(verify, name, counted)
    rng = np.random.default_rng(0)
    exhaustive = [
        verify._suite_palindrome_equivalence,
        verify._suite_roundtrip_exhaustive,
    ]
    suites = [
        (exhaustive[0], (), {"rle_encode": 8190, "is_palindrome": 16758}),
        (exhaustive[1], (), {"rle_encode": 32766, "rle_reconstruct": 32766}),
        (
            verify._suite_roundtrip_random,
            (rng,),
            {"rle_encode": 10**4, "rle_reconstruct": 10**4},
        ),
        (verify._suite_splitting, (rng,), {"pseudo_inverse": 3000}),
        (verify._suite_length_parity, (rng,), {"pseudo_inverse": 2000}),
        (verify._suite_prefix_monotone, (), {"phi_inverse_prefix": 2046}),
    ]
    for suite, args, expected in suites:
        counts.clear()
        encoded.clear()
        suite(*args)
        assert dict(counts) == expected, suite.__name__
        if suite in exhaustive:
            assert len(set(encoded)) == len(encoded)  # every word once
    # the one generator is drawn from as the serial suites drew from it
    assert rng.integers(0, 10**9) == 157999910


def test_property_suites_pass_with_no_child_left():
    result = verify.check_property_suites(0)
    assert result.elapsed > 0  # each check times its own body
    assert dataclasses.replace(result, elapsed=0.0) == CheckResult(
        "11-property-suites", True, PASS_DETAIL, 0.0
    )
    assert multiprocessing.active_children() == []


def test_property_suites_report_the_earlier_failure(monkeypatch):
    # half A (palindromes) and half B (splitting, as 11-splitting) both fail
    monkeypatch.setattr(verify, "is_palindrome", lambda w: len(w) == 1)
    monkeypatch.setattr(
        verify, "pseudo_inverse", lambda alpha, u, order: Word(u.symbols[::-1])
    )
    result = verify.check_property_suites(0)
    assert (result.passed, result.detail) == (
        False,
        "palindrome equivalence fails on (1, 1)",
    )
    assert multiprocessing.active_children() == []


def _raises(*args):
    raise RuntimeError("suite crashed")


@pytest.mark.parametrize(
    "name, value",
    [
        ("is_palindrome", lambda w: len(w) == 1),  # a failure in half A
        ("phi_inverse_prefix", lambda v, order: Word(v.symbols[::-1])),  # in B
        ("rle_encode", _raises),  # an exception in half A
        ("pseudo_inverse", _raises),  # in half B
    ],
    ids=["failure-A", "failure-B", "error-A", "error-B"],
)
def test_property_suites_leave_no_child(name, value, monkeypatch):
    monkeypatch.setattr(verify, name, value)
    if value is _raises:
        with pytest.raises(RuntimeError, match="^suite crashed$"):
            verify.check_property_suites(0)
    else:
        assert not verify.check_property_suites(0).passed
    assert multiprocessing.active_children() == []


def test_property_suites_run_in_process_without_fork(monkeypatch):
    started = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: started.append(self)
    )
    monkeypatch.setattr(
        verify, "pseudo_inverse", lambda alpha, u, order: Word(u.symbols[::-1])
    )
    result = verify.check_property_suites(0)
    assert result.detail == (
        "splitting fails: alpha=5, u=(4, 3, 2, 1, 5, 4, 5), "
        "v=(1, 2, 3, 1, 3, 2, 1, 1, 1, 2), order=(17, 13, 9, 5)"
    )
    assert started == []


def test_verify_all_on_a_pipe_prints_each_line_once():
    # the forked half must not repeat what the parent had buffered
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is block-buffered
    argv = [sys.executable, "-m", "smoothwords.cli", "verify-all", "--seed", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split()[1] for line in lines if not line.startswith("#")]
    assert names == [name for name, _ in ALL_CHECKS]
    assert all(line.startswith(("# ", "PASS ")) for line in lines)
    assert len(lines) == len(set(lines))


def test_cli_import_leaves_multiprocessing_out():
    code = "import sys, smoothwords.cli; print('multiprocessing' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout == "False\n"
