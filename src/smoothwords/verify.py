"""The acceptance suite: one callable check per criterion.

Each check returns a :class:`CheckResult` so the same battery backs both
the pytest acceptance module and the command-line ``verify-all`` run.
Checks are self-contained and deterministic; the randomized property
suites take an explicit seed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    closure_check,
    equal_run_blocks,
    gap_stability_check,
    letter_frequencies,
    phi_inverse_palindrome_check,
    recurrence_report,
)
from .expansion import (
    CyclicOrder,
    phi_inverse_prefix,
    pseudo_inverse,
    pseudo_inverse_chain,
)
from .kolakoski import BaseSequenceSpec, kolakoski_prefix, verify_fixpoint_prefix
from .substitution import (
    build_sigma_even_n,
    flatten,
    incidence_matrix,
    is_primitive,
    iterate,
    verify_substitution_fixpoint,
)
from .words import (
    Alphabet,
    Permutation,
    Word,
    is_palindrome,
    parse_symbols,
    rle_encode,
    rle_reconstruct,
)

__all__ = ["CheckResult", "ALL_CHECKS", "run_check", "run_all"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    counterexample: str | None = None

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s): {self.detail}"


CLASSIC_K_19 = tuple(int(c) for c in "1221121221221121122")

EXPANSION_232_OF_24 = parse_symbols(
    "2^3 4^3 3^2 2^2 4^4 3^4 2^4 4^4 3^3 2^3 4^3 3^3 "
    "2^2 4^2 3^2 2^2 4^4 3^4 2^4 4^4"
)

SIGMA1_RULES = {
    "A1": tuple("A1 B1 A2 A3 B2 A4".split()),
    "B1": tuple("A1 B1 A2 A3 A3 B2 A4 A4".split()),
    "A2": tuple("A1 A1 B1 A2 A2 A3 A3 B2 A4 A4".split()),
    "A3": tuple("A1 A1 A1 B1 A2 A2 A2 A3 A3 A3 B2 A4 A4 A4".split()),
    "B2": tuple("A1 A1 A1 B1 A2 A2 A2 B2".split()),
    "A4": tuple("B1 B2".split()),
}

SIGMA2_RULES = {
    "A1": tuple("A1 B1 A2 A3 B2 A4".split()),
    "B1": tuple("A1 B1 A2 A2".split()),
    "A2": tuple("A3 A3 B2 A4 A4 A1 A1 B1 A2 A2".split()),
    "A3": tuple("A3 A3 A3 B2 A4 A4 A4 A1 A1 A1 B1 A2 A2 A2".split()),
    "B2": tuple("A3 A3 A3 B2".split()),
    "A4": tuple("B1 B2".split()),
}

SIGMA1_ITERATE_2 = parse_symbols(
    "6^6 10^6 14^6 2^6 6^6 10^6 14^10 2^10 6^10 10^10 14^10 2^10 "
    "6^14 10^14 14^14 2^14 6^14 10^14 14^2 2^2 6^2 10^2 14^2 2^2"
)


def _sigma1():
    alphabet = Alphabet((2, 6, 10, 14))
    order = CyclicOrder(alphabet, (6, 10, 14, 2))
    return build_sigma_even_n(alphabet, order), BaseSequenceSpec(
        alphabet, (6, 10, 14, 2)
    )


def _sigma2():
    alphabet = Alphabet((1, 5, 9, 13))
    order = CyclicOrder(alphabet, (5, 9, 13, 1))
    return build_sigma_even_n(alphabet, order), BaseSequenceSpec(
        alphabet, (5, 9, 13, 1)
    )


def check_classic_display(seed: int = 0) -> CheckResult:
    """Criterion 1: the classic word's first 19 letters."""
    spec = BaseSequenceSpec(Alphabet((1, 2)), (1, 2))
    got = kolakoski_prefix(spec, 19)
    ok = got == CLASSIC_K_19
    return CheckResult(
        "1-classic-display",
        ok,
        "first 19 letters match the classic run-length fixpoint"
        if ok
        else "prefix mismatch",
        0.0,
        None if ok else " ".join(map(str, got)),
    )


def check_fixpoints(seed: int = 0) -> CheckResult:
    """Criterion 2: fixpoint property on four 10^6-letter prefixes."""
    cases = [
        (Alphabet((1, 2)), (1, 2)),
        (Alphabet((1, 2)), (2, 1)),
        (Alphabet((1, 2, 3)), (1, 2, 3)),
        (Alphabet((2, 6, 10, 14)), (6, 10, 14, 2)),
    ]
    for alphabet, period in cases:
        w = kolakoski_prefix(BaseSequenceSpec(alphabet, period), 10**6)
        if not verify_fixpoint_prefix(w):
            return CheckResult(
                "2-fixpoint-property",
                False,
                f"fixpoint check failed for base {period}",
                0.0,
                str(period),
            )
    return CheckResult(
        "2-fixpoint-property",
        True,
        "4 base specs x 10^6 letters equal their own run-length sequence",
        0.0,
    )


def check_expansion(seed: int = 0) -> CheckResult:
    """Criterion 3: the worked 3-step chain expansion of (2,4)."""
    order = CyclicOrder.from_letters((2, 4, 3))
    got = pseudo_inverse_chain((2, 3, 2), Word((2, 4)), order)
    ok = got == EXPANSION_232_OF_24
    return CheckResult(
        "3-chain-expansion",
        ok,
        f"chained expansion of (2,4) through (2,3,2) matches all "
        f"{len(EXPANSION_232_OF_24)} letters"
        if ok
        else "expansion mismatch",
        0.0,
        None if ok else " ".join(map(str, got)),
    )


def check_substitution_tables(seed: int = 0) -> CheckResult:
    """Criterion 4: rule tables, second iterate, and fixpoint agreement."""
    s1, spec1 = _sigma1()
    s2, spec2 = _sigma2()
    if s1.rules != SIGMA1_RULES:
        return CheckResult(
            "4-substitution-tables", False, "sigma_1 rules differ", 0.0,
            s1.rule_table(),
        )
    if s2.rules != SIGMA2_RULES:
        return CheckResult(
            "4-substitution-tables", False, "sigma_2 rules differ", 0.0,
            s2.rule_table(),
        )
    second = flatten(s1, iterate(s1, "A1", 2))
    if second != SIGMA1_ITERATE_2:
        return CheckResult(
            "4-substitution-tables", False, "sigma_1 second iterate differs",
            0.0, " ".join(map(str, second)),
        )
    for sub, spec, label in [(s1, spec1, "sigma_1"), (s2, spec2, "sigma_2")]:
        if not verify_substitution_fixpoint(sub, spec, 10**4):
            return CheckResult(
                "4-substitution-tables", False,
                f"{label} disagrees with its fixpoint word", 0.0, label,
            )
    return CheckResult(
        "4-substitution-tables",
        True,
        "both rule tables, the second iterate, and 10^4-letter fixpoints match",
        0.0,
    )


def check_primitivity(seed: int = 0) -> CheckResult:
    """Criterion 5: primitivity with k <= 3 and positive cube."""
    for builder, label in [(_sigma1, "sigma_1"), (_sigma2, "sigma_2")]:
        sub, _ = builder()
        primitive, k = is_primitive(sub)
        if not primitive or k is None or k > 3:
            return CheckResult(
                "5-primitivity", False,
                f"{label} not primitive with k <= 3 (got {k})", 0.0, label,
            )
        if not (incidence_matrix(sub).power(3) > 0).all():
            return CheckResult(
                "5-primitivity", False,
                f"{label} cube has a zero entry", 0.0, label,
            )
    return CheckResult(
        "5-primitivity",
        True,
        "both substitutions primitive with least k <= 3; M^3 entrywise positive",
        0.0,
    )


def check_frequencies(seed: int = 0) -> CheckResult:
    """Criterion 6: letter ratios near 1/n on divisible alphabets."""
    cases = [
        (Alphabet((2, 4)), (2, 4), 5e-3),
        (Alphabet((3, 6, 9)), (3, 6, 9), 1e-2),
    ]
    devs = []
    for alphabet, period, tol in cases:
        w = kolakoski_prefix(BaseSequenceSpec(alphabet, period), 10**6)
        report = letter_frequencies(w, [10**6], alphabet)
        dev = report.max_deviation()
        devs.append(dev)
        if dev > tol:
            return CheckResult(
                "6-letter-frequency", False,
                f"deviation {dev:.2e} exceeds {tol:.0e} on {alphabet.letters}",
                0.0, str(report.ratios_at(10**6)),
            )
    return CheckResult(
        "6-letter-frequency",
        True,
        f"max deviations {devs[0]:.2e} (tol 5e-3) and {devs[1]:.2e} (tol 1e-2)",
        0.0,
    )


def check_recurrence(seed: int = 0) -> CheckResult:
    """Criterion 7: every early factor of length <= 24 recurs."""
    cases = [
        (Alphabet((1, 2)), (1, 2)),
        (Alphabet((1, 2)), (2, 1)),
        (Alphabet((1, 2, 3)), (1, 2, 3)),
        (Alphabet((2, 6, 10, 14)), (6, 10, 14, 2)),
    ]
    total = 0
    for alphabet, period in cases:
        w = kolakoski_prefix(BaseSequenceSpec(alphabet, period), 10**6)
        report = recurrence_report(w, 24, scan_len=10**4)
        total += len(report.rows)
        if not report.all_recurrent:
            bad = report.non_recurrent[0]
            return CheckResult(
                "7-recurrence", False,
                f"factor of length {bad.length} over {alphabet.letters} "
                "never recurs",
                0.0, " ".join(map(str, bad.factor)),
            )
    return CheckResult(
        "7-recurrence",
        True,
        f"{total} early factors (length <= 24) all recur within 10^6 letters",
        0.0,
    )


def check_uniform_recurrence(seed: int = 0) -> CheckResult:
    """Criterion 8: per-factor max gaps stable from 5x10^5 to 10^6 letters."""
    cases = [
        (Alphabet((3, 6, 9)), (3, 6, 9), "r=0 word over {3,6,9}"),
        (Alphabet((2, 6, 10, 14)), (6, 10, 14, 2), "sigma_1 fixpoint"),
    ]
    compared = 0
    for alphabet, period, label in cases:
        w = kolakoski_prefix(BaseSequenceSpec(alphabet, period), 10**6)
        stability = gap_stability_check(w, 8)
        compared += stability.compared
        if not stability.all_stable:
            length, factor, a, b = stability.mismatches[0]
            return CheckResult(
                "8-uniform-recurrence", False,
                f"{label}: gap of a length-{length} factor moved {a} -> {b}",
                0.0, " ".join(map(str, factor)),
            )
    return CheckResult(
        "8-uniform-recurrence",
        True,
        f"max gaps of {compared} factors (length <= 8) identical at both scales",
        0.0,
    )


def check_reversal_closure(seed: int = 0) -> CheckResult:
    """Criterion 9: reversal closure and palindromic expansions."""
    for letters in [(1, 3), (3, 5)]:
        alphabet = Alphabet(letters)
        w = kolakoski_prefix(BaseSequenceSpec(alphabet, letters), 10**6)
        misses = closure_check(w, "reversal", 10)
        if misses:
            return CheckResult(
                "9-reversal-closure", False,
                f"{len(misses)} reversal misses over {letters}",
                0.0, " ".join(map(str, misses[0].factor)),
            )
    if not phi_inverse_palindrome_check(CyclicOrder.from_letters((1, 3)), 12):
        return CheckResult(
            "9-reversal-closure", False,
            "a directive word over {1,3} expands to a non-palindrome",
            0.0, "{1,3} k_max=12",
        )
    return CheckResult(
        "9-reversal-closure",
        True,
        "zero reversal misses on {1,3} and {3,5}; all 2^12 directive words "
        "of length 12 (and shorter) expand to odd palindromes",
        0.0,
    )


def check_permutation_nonclosure(seed: int = 0) -> CheckResult:
    """Criterion 10: complement witnesses sourced from equal-run blocks."""
    alphabet = Alphabet((2, 4))
    w = kolakoski_prefix(BaseSequenceSpec(alphabet, (2, 4)), 10**6)
    complement = Permutation.complement(alphabet)
    blocks = equal_run_blocks(w, min_exponent=4, min_runs=4)
    block_factors = {b.factor for b in blocks}
    misses = closure_check(w, complement, 16)
    witness_factors = {m.factor for m in misses}
    hits = block_factors & witness_factors
    if not hits:
        return CheckResult(
            "10-permutation-nonclosure", False,
            "no equal-run block factor with an absent complement",
            0.0, f"{len(misses)} other misses",
        )
    return CheckResult(
        "10-permutation-nonclosure",
        True,
        f"{len(misses)} complement misses; {len(hits)} maximal equal-run "
        "block factor(s) among them",
        0.0,
    )


# ---------------------------------------------------------------------------
# criterion 11: property suites


def _all_words(letters: tuple[int, ...], max_len: int):
    for length in range(1, max_len + 1):
        for symbols in itertools.product(letters, repeat=length):
            yield symbols


def _suite_palindrome_equivalence() -> str | None:
    alphabet = Alphabet((1, 2))
    for symbols in _all_words((1, 2), 12):
        w = Word(symbols, alphabet)
        rd = rle_encode(w)
        lhs = is_palindrome(w)
        rhs = is_palindrome(rd.exponents) and is_palindrome(rd.bases)
        if lhs != rhs:
            return f"palindrome equivalence fails on {symbols}"
    return None


def _suite_roundtrip(rng: np.random.Generator) -> str | None:
    alphabet = Alphabet((1, 2))
    for symbols in _all_words((1, 2), 14):
        w = Word(symbols, alphabet)
        if rle_reconstruct(rle_encode(w)) != w:
            return f"roundtrip fails on {symbols}"
    a123 = Alphabet((1, 2, 3))
    for _ in range(10**4):
        length = int(rng.integers(1, 40))
        w = Word(rng.integers(1, 4, size=length), a123)
        if rle_reconstruct(rle_encode(w)) != w:
            return f"roundtrip fails on random word {tuple(w)}"
    return None


def _random_order(rng: np.random.Generator) -> CyclicOrder:
    # random same-remainder alphabet and a random cyclic arrangement
    n = int(rng.integers(2, 5))
    r = int(rng.integers(0, n))
    quotients = rng.choice(np.arange(1, 6), size=n, replace=False)
    letters = tuple(sorted(int(n * q + r) for q in quotients))
    arrangement = list(letters)
    rng.shuffle(arrangement)
    return CyclicOrder(Alphabet(letters), tuple(arrangement))


def _suite_splitting(rng: np.random.Generator) -> str | None:
    for _ in range(10**3):
        order = _random_order(rng)
        n = order.size
        alpha = int(order.arrangement[rng.integers(0, n)])
        u_len = int(rng.integers(1, 12))
        v_len = int(rng.integers(1, 12))
        u = Word(rng.integers(1, 6, size=u_len))
        v = Word(rng.integers(1, 6, size=v_len))
        left = pseudo_inverse(alpha, Word([*u, *v]), order)
        beta = order.advance(alpha, u_len % n)
        right = Word(
            [*pseudo_inverse(alpha, u, order), *pseudo_inverse(beta, v, order)]
        )
        if left != right:
            return (
                f"splitting fails: alpha={alpha}, u={tuple(u)}, v={tuple(v)}, "
                f"order={order.arrangement}"
            )
    return None


def _suite_length_parity(rng: np.random.Generator) -> str | None:
    for _ in range(10**3):
        order = _random_order(rng)
        n = order.size
        alpha = int(order.arrangement[rng.integers(0, n)])
        blocks = int(rng.integers(1, 5))
        symbols = tuple(
            int(order.alphabet.letters[i])
            for i in rng.integers(0, n, size=blocks * n)
        )
        out = pseudo_inverse(alpha, Word(symbols), order)
        if len(out) % n:
            return (
                f"length multiple fails: alpha={alpha}, w={symbols}, "
                f"order={order.arrangement}"
            )
    odd_alphabets = [Alphabet((1, 3)), Alphabet((3, 5)), Alphabet((1, 5))]
    for _ in range(10**3):
        alphabet = odd_alphabets[int(rng.integers(0, len(odd_alphabets)))]
        order = CyclicOrder(alphabet, alphabet.letters)
        alpha = int(alphabet.letters[rng.integers(0, 2)])
        length = int(rng.integers(0, 6)) * 2 + 1
        symbols = tuple(
            int(alphabet.letters[i]) for i in rng.integers(0, 2, size=length)
        )
        out = pseudo_inverse(alpha, Word(symbols), order)
        if len(out) % 2 == 0:
            return f"odd-length parity fails: alpha={alpha}, w={symbols}"
    return None


def _suite_prefix_monotone() -> str | None:
    order = CyclicOrder.from_letters((1, 2))
    alphabet = order.alphabet
    for symbols in _all_words((1, 2), 10):
        v = Word(symbols, alphabet)
        expanded = phi_inverse_prefix(v, order)
        if len(symbols) > 1:
            u = Word(symbols[:-1], alphabet)
            prev = phi_inverse_prefix(u, order)
            if expanded[: len(prev)] != prev:
                return f"prefix monotonicity fails on {symbols}"
    return None


def check_property_suites(seed: int = 0) -> CheckResult:
    """Criterion 11: exhaustive and randomized algebraic property suites."""
    rng = np.random.default_rng(seed)
    for fn in (
        _suite_palindrome_equivalence,
        lambda: _suite_roundtrip(rng),
        lambda: _suite_splitting(rng),
        lambda: _suite_length_parity(rng),
        _suite_prefix_monotone,
    ):
        failure = fn()
        if failure:
            return CheckResult(
                "11-property-suites", False, failure, 0.0, failure
            )
    return CheckResult(
        "11-property-suites",
        True,
        "palindrome equivalence (<=12), RLE roundtrip (<=14 plus 10^4 random), "
        "splitting and length-parity lemmas (10^3 each), prefix monotonicity "
        "(depth <= 10) all hold",
        0.0,
    )


ALL_CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = [
    ("1-classic-display", check_classic_display),
    ("2-fixpoint-property", check_fixpoints),
    ("3-chain-expansion", check_expansion),
    ("4-substitution-tables", check_substitution_tables),
    ("5-primitivity", check_primitivity),
    ("6-letter-frequency", check_frequencies),
    ("7-recurrence", check_recurrence),
    ("8-uniform-recurrence", check_uniform_recurrence),
    ("9-reversal-closure", check_reversal_closure),
    ("10-permutation-nonclosure", check_permutation_nonclosure),
    ("11-property-suites", check_property_suites),
]


def run_check(fn: Callable[[int], CheckResult], seed: int = 0) -> CheckResult:
    start = time.perf_counter()
    result = fn(seed)
    result.elapsed = time.perf_counter() - start
    return result


def run_all(seed: int = 0, fail_fast: bool = False) -> list[CheckResult]:
    results = []
    for _, fn in ALL_CHECKS:
        result = run_check(fn, seed)
        results.append(result)
        if fail_fast and not result.passed:
            break
    return results
