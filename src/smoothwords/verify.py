"""The acceptance suite: one callable check per criterion.

Each check maps a seed to a :class:`CheckResult`, so the same battery
backs both the pytest acceptance module and the command-line
``verify-all`` run.  Every check body, and every property suite it
runs, follows one convention: it returns its pass detail, or raises
``_Failure`` with the failure detail and a counterexample.  The
``_check`` decorator names the criterion, times the body and turns
either outcome into the result.  Checks are self-contained and
deterministic; the randomized property suites take an explicit seed.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator

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
    Substitution,
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
    format_symbols,
    is_palindrome,
    parse_symbols,
    rle_encode,
    rle_reconstruct,
)

__all__ = ["CheckResult", "ALL_CHECKS"]


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


# the bases whose prefixes criteria 2 and 7 scan
_FOUR_BASES = ((1, 2), (2, 1), (1, 2, 3), (6, 10, 14, 2))


class _Failure(Exception):
    """A failed criterion: its detail line and its counterexample, which
    defaults to the detail itself."""

    def __init__(self, detail: str, counterexample: str | None = None):
        super().__init__(detail)
        self.detail = detail
        self.counterexample = detail if counterexample is None else counterexample


def _check(name: str):
    """Make a check body (seed -> pass detail, or raise ``_Failure``) into
    the criterion ``name``'s ``seed -> CheckResult`` check, which times it."""

    def wrap(body: Callable[[int], str]) -> Callable[[int], CheckResult]:
        def check(seed: int = 0) -> CheckResult:
            start = time.perf_counter()
            try:
                result = CheckResult(name, True, body(seed), 0.0)
            except _Failure as failure:
                detail, counterexample = failure.detail, failure.counterexample
                result = CheckResult(name, False, detail, 0.0, counterexample)
            result.elapsed = time.perf_counter() - start
            return result

        check.name = name
        return functools.update_wrapper(
            check, body, assigned=("__module__", "__name__", "__qualname__", "__doc__")
        )

    return wrap


def _prefix(period: tuple[int, ...], m: int) -> Word:
    """The first m letters of the fixpoint over the base sequence period^ω."""
    alphabet = Alphabet(tuple(sorted(period)))
    return kolakoski_prefix(BaseSequenceSpec(alphabet, period), m)


def _sigmas() -> list[tuple[str, Substitution, BaseSequenceSpec]]:
    """sigma_1 and sigma_2 with their labels and fixpoints' base specs."""
    out = []
    for label, period in [("sigma_1", (6, 10, 14, 2)), ("sigma_2", (5, 9, 13, 1))]:
        alphabet = Alphabet(tuple(sorted(period)))
        sub = build_sigma_even_n(alphabet, CyclicOrder(alphabet, period))
        out.append((label, sub, BaseSequenceSpec(alphabet, period)))
    return out


@_check("1-classic-display")
def check_classic_display(seed: int = 0) -> str:
    """Criterion 1: the classic word's first 19 letters."""
    got = _prefix((1, 2), 19)
    if got != CLASSIC_K_19:
        raise _Failure("prefix mismatch", format_symbols(got))
    return "first 19 letters match the classic run-length fixpoint"


@_check("2-fixpoint-property")
def check_fixpoints(seed: int = 0) -> str:
    """Criterion 2: fixpoint property on four 10^6-letter prefixes."""
    for period in _FOUR_BASES:
        if not verify_fixpoint_prefix(_prefix(period, 10**6)):
            raise _Failure(f"fixpoint check failed for base {period}", str(period))
    return "4 base specs x 10^6 letters equal their own run-length sequence"


@_check("3-chain-expansion")
def check_expansion(seed: int = 0) -> str:
    """Criterion 3: the worked 3-step chain expansion of (2,4)."""
    order = CyclicOrder.from_letters((2, 4, 3))
    got = pseudo_inverse_chain((2, 3, 2), Word((2, 4)), order)
    if got != EXPANSION_232_OF_24:
        raise _Failure("expansion mismatch", format_symbols(got))
    return (
        f"chained expansion of (2,4) through (2,3,2) matches all "
        f"{len(EXPANSION_232_OF_24)} letters"
    )


@_check("4-substitution-tables")
def check_substitution_tables(seed: int = 0) -> str:
    """Criterion 4: rule tables, second iterate, and fixpoint agreement."""
    sigmas = _sigmas()
    for (label, sub, _), rules in zip(sigmas, (SIGMA1_RULES, SIGMA2_RULES)):
        if sub.rules != rules:
            raise _Failure(f"{label} rules differ", sub.rule_table())
    s1 = sigmas[0][1]
    second = flatten(s1, iterate(s1, "A1", 2))
    if second != SIGMA1_ITERATE_2:
        raise _Failure("sigma_1 second iterate differs", format_symbols(second))
    for label, sub, spec in sigmas:
        if not verify_substitution_fixpoint(sub, spec, 10**4):
            raise _Failure(f"{label} disagrees with its fixpoint word", label)
    return "both rule tables, the second iterate, and 10^4-letter fixpoints match"


@_check("5-primitivity")
def check_primitivity(seed: int = 0) -> str:
    """Criterion 5: primitivity with k <= 3 and positive cube."""
    for label, sub, _ in _sigmas():
        primitive, k = is_primitive(sub)
        if not primitive or k is None or k > 3:
            raise _Failure(f"{label} not primitive with k <= 3 (got {k})", label)
        if not (incidence_matrix(sub).power(3) > 0).all():
            raise _Failure(f"{label} cube has a zero entry", label)
    return "both substitutions primitive with least k <= 3; M^3 entrywise positive"


@_check("6-letter-frequency")
def check_frequencies(seed: int = 0) -> str:
    """Criterion 6: letter ratios near 1/n on divisible alphabets."""
    devs = []
    for period, tol in [((2, 4), 5e-3), ((3, 6, 9), 1e-2)]:
        w = _prefix(period, 10**6)
        report = letter_frequencies(w, [10**6], w.alphabet)
        devs.append(report.max_deviation())
        if devs[-1] > tol:
            raise _Failure(
                f"deviation {devs[-1]:.2e} exceeds {tol:.0e} on {w.alphabet.letters}",
                str(report.ratios_at(10**6)),
            )
    return f"max deviations {devs[0]:.2e} (tol 5e-3) and {devs[1]:.2e} (tol 1e-2)"


@_check("7-recurrence")
def check_recurrence(seed: int = 0) -> str:
    """Criterion 7: every early factor of length <= 24 recurs."""
    total = 0
    for period in _FOUR_BASES:
        w = _prefix(period, 10**6)
        report = recurrence_report(w, 24, scan_len=10**4)
        total += report.factor_count
        if not report.all_recurrent:
            bad = next(iter(report.non_recurrent))
            raise _Failure(
                f"factor of length {bad.length} over {w.alphabet.letters} "
                "never recurs",
                format_symbols(bad.factor),
            )
    return f"{total} early factors (length <= 24) all recur within 10^6 letters"


@_check("8-uniform-recurrence")
def check_uniform_recurrence(seed: int = 0) -> str:
    """Criterion 8: per-factor max gaps stable from 5x10^5 to 10^6 letters."""
    compared = 0
    for period, label in [
        ((3, 6, 9), "r=0 word over {3,6,9}"),
        ((6, 10, 14, 2), "sigma_1 fixpoint"),
    ]:
        stability = gap_stability_check(_prefix(period, 10**6), 8)
        compared += stability.compared
        if not stability.all_stable:
            length, factor, a, b = stability.mismatches[0]
            raise _Failure(
                f"{label}: gap of a length-{length} factor moved {a} -> {b}",
                format_symbols(factor),
            )
    return f"max gaps of {compared} factors (length <= 8) identical at both scales"


@_check("9-reversal-closure")
def check_reversal_closure(seed: int = 0) -> str:
    """Criterion 9: reversal closure and palindromic expansions."""
    for letters in [(1, 3), (3, 5)]:
        misses = closure_check(_prefix(letters, 10**6), "reversal", 10)
        if misses:
            raise _Failure(
                f"{len(misses)} reversal misses over {letters}",
                format_symbols(misses[0].factor),
            )
    if not phi_inverse_palindrome_check(CyclicOrder.from_letters((1, 3)), 12):
        raise _Failure(
            "a directive word over {1,3} expands to a non-palindrome",
            "{1,3} k_max=12",
        )
    return (
        "zero reversal misses on {1,3} and {3,5}; all 2^12 directive words "
        "of length 12 (and shorter) expand to odd palindromes"
    )


@_check("10-permutation-nonclosure")
def check_permutation_nonclosure(seed: int = 0) -> str:
    """Criterion 10: complement witnesses sourced from equal-run blocks."""
    w = _prefix((2, 4), 10**6)
    blocks = equal_run_blocks(w, min_exponent=4, min_runs=4)
    misses = closure_check(w, Permutation.complement(w.alphabet), 16)
    hits = {b.factor for b in blocks} & {m.factor for m in misses}
    if not hits:
        raise _Failure(
            "no equal-run block factor with an absent complement",
            f"{len(misses)} other misses",
        )
    return (
        f"{len(misses)} complement misses; {len(hits)} maximal equal-run "
        "block factor(s) among them"
    )


# ---------------------------------------------------------------------------
# criterion 11: property suites


def _all_words(alphabet: Alphabet, max_len: int) -> Iterator[Iterator[Word]]:
    """Per length 1..max_len, the words over the alphabet in
    ``itertools.product`` order: rows of one array, checked once."""
    for length in range(1, max_len + 1):
        words = itertools.product(alphabet.letters, repeat=length)
        flat = np.fromiter(itertools.chain.from_iterable(words), np.int64)
        rows = Word.from_array(flat, alphabet).to_array().reshape(-1, length)
        yield (Word.from_array(row, alphabet, validate=False) for row in rows)


def _suite_palindrome_equivalence() -> None:
    for w in itertools.chain.from_iterable(_all_words(Alphabet((1, 2)), 12)):
        rd = rle_encode(w)
        lhs = is_palindrome(w)
        rhs = is_palindrome(rd.exponents) and is_palindrome(rd.bases)
        if lhs != rhs:
            raise _Failure(f"palindrome equivalence fails on {w.symbols}")


def _suite_roundtrip_exhaustive() -> None:
    for w in itertools.chain.from_iterable(_all_words(Alphabet((1, 2)), 14)):
        if rle_reconstruct(rle_encode(w)) != w:
            raise _Failure(f"roundtrip fails on {w.symbols}")


def _suite_roundtrip_random(rng: np.random.Generator) -> None:
    a123 = Alphabet((1, 2, 3))
    for _ in range(10**4):
        length = int(rng.integers(1, 40))
        w = Word(rng.integers(1, 4, size=length), a123)
        if rle_reconstruct(rle_encode(w)) != w:
            raise _Failure(f"roundtrip fails on random word {tuple(w)}")


def _random_order(rng: np.random.Generator) -> CyclicOrder:
    # random same-remainder alphabet and a random cyclic arrangement
    n = int(rng.integers(2, 5))
    r = int(rng.integers(0, n))
    quotients = rng.choice(np.arange(1, 6), size=n, replace=False)
    letters = tuple(sorted(int(n * q + r) for q in quotients))
    arrangement = list(letters)
    rng.shuffle(arrangement)
    return CyclicOrder(Alphabet(letters), tuple(arrangement))


def _suite_splitting(rng: np.random.Generator) -> None:
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
            raise _Failure(
                f"splitting fails: alpha={alpha}, u={tuple(u)}, v={tuple(v)}, "
                f"order={order.arrangement}"
            )


def _suite_length_parity(rng: np.random.Generator) -> None:
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
            raise _Failure(
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
            raise _Failure(f"odd-length parity fails: alpha={alpha}, w={symbols}")


def _suite_prefix_monotone() -> None:
    order = CyclicOrder.from_letters((1, 2))
    # in itertools.product order a word less its last letter is word i // n
    # of the length before, expanded already; the empty word is the first
    parents = [Word(())]
    for words in _all_words(order.alphabet, 10):
        expanded = []
        for i, w in enumerate(words):
            expansion = phi_inverse_prefix(w, order)
            prev = parents[i // order.size]
            if expansion[: len(prev)] != prev:
                raise _Failure(f"prefix monotonicity fails on {w.symbols}")
            expanded.append(expansion)
        parents = expanded


def _half_a() -> None:
    _suite_palindrome_equivalence()
    _suite_roundtrip_exhaustive()


def _half_b(seed: int) -> None:
    rng = np.random.default_rng(seed)
    _suite_roundtrip_random(rng)
    _suite_splitting(rng)
    _suite_length_parity(rng)
    _suite_prefix_monotone()


def _send_half_b(conn, seed: int) -> None:
    """Half B in the child: sends None, or the exception B raised."""
    try:
        _half_b(seed)
        conn.send(None)
    except Exception as exc:
        conn.send(exc)


@_check("11-property-suites")
def check_property_suites(seed: int = 0) -> str:
    """Criterion 11: exhaustive and randomized algebraic property suites.

    The suites run in their serial order as two halves of about equal
    time: B in a forked child, with the seed's one generator, while A runs
    here, so both cores work; where ``fork`` does not exist, B runs here
    after A.  A failure in A is reported first, as a serial run would;
    otherwise B's failure or exception is raised here.
    """
    import multiprocessing  # the CLI imports this module; most commands never fork

    if "fork" not in multiprocessing.get_all_start_methods():
        _half_a()
        _half_b(seed)
    else:
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_half_b, args=(sender, seed))
        child.start()  # flushes stdout and stderr first, so the child repeats no output
        sender.close()
        try:
            _half_a()
            outcome = receiver.recv()
        except BaseException:
            child.terminate()
            raise
        finally:
            child.join()
            receiver.close()
        if outcome is not None:
            raise outcome
    return (
        "palindrome equivalence (<=12), RLE roundtrip (<=14 plus 10^4 random), "
        "splitting and length-parity lemmas (10^3 each), prefix monotonicity "
        "(depth <= 10) all hold"
    )


ALL_CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = [
    (check.name, check)
    for check in (
        check_classic_display,
        check_fixpoints,
        check_expansion,
        check_substitution_tables,
        check_primitivity,
        check_frequencies,
        check_recurrence,
        check_uniform_recurrence,
        check_reversal_closure,
        check_permutation_nonclosure,
        check_property_suites,
    )
]
