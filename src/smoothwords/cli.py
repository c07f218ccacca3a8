"""Command-line front door.

Every subcommand validates its configuration up front, echoes the
resolved configuration as a ``#`` comment line, and then writes
deterministic text or CSV, so identical flags give byte-identical
output.  Exit codes: 0 for success and theorem-consistent outcomes, 2
for a verification mismatch (the witness is printed), 1 for usage or
configuration errors.

Word-valued flags take comma-separated symbols, each either a letter or
a ``base^exp`` run token.  Word files use the line format: one word per
line, space-separated decimal symbols.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, TextIO

import numpy as np

from . import analysis
from .errors import ExpansionBudgetExceeded, SmoothwordError
from .factors import FactorIndex, PieceSource
from .expansion import (
    DEFAULT_BUDGET,
    CyclicOrder,
    phi_inverse_prefix,
    pseudo_inverse_chain,
)
from .kolakoski import BaseSequenceSpec, kolakoski_stream
from .substitution import (
    build_substitution,
    flatten,
    incidence_matrix,
    is_primitive,
    iterate,
    verify_substitution_fixpoint,
)
from .verify import ALL_CHECKS, run_check
from .words import (
    Alphabet,
    Permutation,
    Word,
    derivative,
    data_line_pieces,
    format_symbols,
    parse_symbols,
    read_data_line,
    rle_encode,
    write_word_pieces,
    write_words,
)

STDOUT_SYMBOL_LIMIT = 10**5
BUDGET_ENV = "SMOOTHWORDS_MAX_EXPANSION"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 1
        raise _UsageError(f"{self.prog}: {message}")


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise _UsageError(f"{BUDGET_ENV} must be a positive integer") from None
    return value


def _symbols(text: str) -> Word:
    try:
        return parse_symbols(text.replace(",", " "))
    except ValueError:
        raise _UsageError(f"cannot parse symbols from {text!r}") from None


def _letters(text: str) -> tuple[int, ...]:
    return _symbols(text).symbols


def _alphabet(args) -> Alphabet:
    """The ``--alphabet`` letters, else the letters of the base sequence."""
    if getattr(args, "alphabet", None):
        letters = _letters(args.alphabet)
    else:
        base = (getattr(args, "base_preperiod", ""), getattr(args, "base_period", ""))
        letters = _letters(",".join(base))
    if not letters:
        raise _UsageError("--alphabet is required")
    return Alphabet(tuple(sorted(set(letters))))


def _read_word(args, alphabet: Alphabet | None) -> Word:
    if getattr(args, "input", None):
        # the file is parsed in pieces; only the narrowed symbols are held
        symbols = read_data_line(args.input)
    elif getattr(args, "word", None):
        symbols = _symbols(args.word)
    else:
        raise _UsageError("provide --word or --input")
    return Word.from_array(
        symbols.to_array(), alphabet, is_prefix=getattr(args, "prefix", False)
    )


def _config_line(args, **extra) -> str:
    skip = {"func", "output"}
    pairs = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None and not callable(value)
    }
    pairs.update(extra)
    body = " ".join(f"{k}={v}" for k, v in sorted(pairs.items()))
    return f"# smoothwords {body}"


def _starts(m: int, l_max: int) -> int:
    """Start positions in m letters, summed over the lengths 1..l_max."""
    return sum(m - L + 1 for L in range(1, l_max + 1))


@contextmanager
def _sink(args, **extra) -> Iterator[TextIO]:
    """The ``--output`` file, else stdout, opened with the config line."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            print(_config_line(args, **extra), file=handle)
            yield handle
    else:
        print(_config_line(args, **extra))
        yield sys.stdout


def _mismatch(message: str) -> int:
    """Report a verification mismatch on stderr; its exit code is 2."""
    print(message, file=sys.stderr)
    return 2


def _check_stdout(args, size: int) -> None:
    if size > STDOUT_SYMBOL_LIMIT and not getattr(args, "output", None):
        raise _UsageError(
            f"{size} symbols exceed the stdout limit of "
            f"{STDOUT_SYMBOL_LIMIT}; pass --output FILE"
        )


def _emit_word(args, word: Word) -> None:
    _check_stdout(args, len(word))
    with _sink(args) as out:
        write_words([word], out)


def _base_spec(args, alphabet: Alphabet) -> BaseSequenceSpec:
    if not getattr(args, "base_period", None):
        raise _UsageError("--base-period is required")
    period = _letters(args.base_period)
    preperiod = _letters(args.base_preperiod) if args.base_preperiod else ()
    return BaseSequenceSpec(alphabet, period, preperiod)


def _admitted(pieces: Iterator[np.ndarray], alphabet: Alphabet) -> Iterator[np.ndarray]:
    """The pieces of a word file, each checked against the alphabet."""
    for piece in pieces:
        if not alphabet.admits(piece):
            raise ValueError("word contains symbols outside its alphabet")
        yield piece


def _source(args, alphabet: Alphabet) -> PieceSource:
    """The ``--input`` word, else ``--length`` letters of the fixpoint,
    read in pieces each time the reports need it."""
    if args.input:
        path = args.input
        return PieceSource(
            alphabet, lambda: _admitted(data_line_pieces(path), alphabet)
        )
    spec, m = _base_spec(args, alphabet), args.length
    if m < 1:
        raise ValueError("m must be positive")
    return PieceSource(alphabet, lambda: kolakoski_stream(spec).pieces(m))


# ---------------------------------------------------------------------------
# subcommands


def _stream_stats(spec: BaseSequenceSpec, m: int) -> dict[str, int]:
    """A cursor's stats after ``m`` letters, from a dry run that copies none.

    ``generate --stats`` prints them in the header, before the word; the
    dry run's cursor is dropped, and its chunks freed, on return.
    """
    probe = kolakoski_stream(spec)
    probe.skip(m)
    return {"levels": probe.levels, "peak_buffered": probe.peak_buffered}


def cmd_generate(args) -> int:
    alphabet = _alphabet(args)
    spec = _base_spec(args, alphabet)
    if args.length < 1:
        raise ValueError("m must be positive")
    _check_stdout(args, args.length)
    stats = _stream_stats(spec, args.length) if args.stats else {}
    with _sink(args, **stats) as out:
        write_word_pieces(kolakoski_stream(spec).pieces(args.length), out)
    return 0


def cmd_encode(args) -> int:
    alphabet = _alphabet(args) if args.alphabet else None
    word = _read_word(args, alphabet)
    rd = rle_encode(word)
    with _sink(args, truncated=rd.last_run_truncated) as out:
        write_words([rd.exponents, rd.bases], out)
    return 0


def cmd_derive(args) -> int:
    if args.times < 0:
        raise _UsageError("--times must be non-negative")
    alphabet = _alphabet(args)
    word = _read_word(args, alphabet)
    for _ in range(min(args.times, len(word))):  # each step shortens the word
        word = derivative(word)
    _emit_word(args, word)
    return 0


def cmd_expand(args) -> int:
    order = CyclicOrder.from_letters(_letters(args.order))
    if args.alphabet and _alphabet(args) != order.alphabet:
        raise _UsageError("--alphabet disagrees with --order letters")
    target = _symbols(args.target)
    chain = _letters(args.chain) if args.chain else ()
    word = pseudo_inverse_chain(chain, target, order, budget=_budget())
    _emit_word(args, word)
    return 0


def cmd_phi_inverse(args) -> int:
    order = CyclicOrder.from_letters(_letters(args.order))
    directive = Word(_symbols(args.u), order.alphabet)
    word = phi_inverse_prefix(directive, order, budget=_budget())
    _emit_word(args, word)
    return 0


def _samples(args, length: int) -> list[int]:
    """The ``--samples`` lengths, else the whole length; none past it."""
    samples = [int(s) for s in args.samples.split(",")] if args.samples else [length]
    if max(samples) > length:
        raise _UsageError(f"sample {max(samples)} exceeds the length {length}")
    return samples


def _file_frequencies(args, alphabet: Alphabet) -> analysis.FrequencyReport:
    """``freq --input``: each parsed piece is checked and counted as it comes."""
    ks = sorted({int(s) for s in args.samples.split(",")}) if args.samples else []
    ranks = map(alphabet.ranks, _admitted(data_line_pieces(args.input), alphabet))
    counts, length = analysis.letter_counts(ranks, ks, alphabet.size + 1)
    return analysis.frequency_report(counts, _samples(args, length), alphabet)


def cmd_freq(args) -> int:
    alphabet = _alphabet(args)
    if args.input:
        report = _file_frequencies(args, alphabet)
    else:
        stream = kolakoski_stream(_base_spec(args, alphabet))
        samples = _samples(args, args.length)
        report = analysis.letter_frequencies(stream, samples, alphabet)
    with _sink(args) as out:
        report.to_csv(out)
    if args.tol is not None and report.max_deviation() > args.tol:
        return _mismatch(
            f"frequency deviation {report.max_deviation():.3e} exceeds "
            f"tolerance {args.tol:.3e}"
        )
    return 0


def cmd_recur(args) -> int:
    source = _source(args, _alphabet(args))
    report = analysis.recurrence_report(source, args.l_max, scan_len=args.scan_len)
    positions = _starts(min(report.scan_len, report.word_length), args.l_max)
    with _sink(args, positions=positions, factors=report.factor_count) as out:
        report.to_csv(out)
    if args.expect == "recurrent" and not report.all_recurrent:
        bad = next(iter(report.non_recurrent))
        return _mismatch(
            f"non-recurrent factor of length {bad.length}: "
            f"{format_symbols(bad.factor)} (first at {bad.first})"
        )
    return 0


def cmd_gaps(args) -> int:
    source = _source(args, _alphabet(args))
    index = FactorIndex(source, args.l_max)
    report = analysis.max_gap_report(source, args.l_max, index=index)
    positions = _starts(report.word_length, args.l_max)
    with _sink(args, positions=positions, factors=report.factor_count) as out:
        report.to_csv(out)
    if args.expect == "stable":
        stability = analysis.gap_stability_check(source, args.l_max, index=index)
        if not stability.all_stable:
            length, factor, before, after = stability.mismatches[0]
            return _mismatch(
                f"gap of length-{length} factor {format_symbols(factor)} "
                f"changed {before} -> {after}"
            )
    return 0


def cmd_closure(args) -> int:
    alphabet = _alphabet(args)
    source = _source(args, alphabet)
    if args.op == "reversal":
        op: str | Permutation = "reversal"
    elif args.op == "complement":
        op = Permutation.complement(alphabet)
    elif args.op == "perm":
        if not args.map:
            raise _UsageError("--map is required with --op perm")
        mapping = {}
        for pair in args.map.split(","):
            src, _, dst = pair.partition(":")
            mapping[int(src)] = int(dst)
        op = Permutation(mapping)
    else:  # pragma: no cover - argparse constrains choices
        raise _UsageError(f"unknown op {args.op}")
    index = FactorIndex(source, args.l_max)
    witnesses = analysis.closure_check(source, op, args.l_max, index=index)
    lo, hi = analysis._middle_third(len(index))
    positions = args.l_max * (hi - lo)
    factors = sum(index.window(L, lo, hi)[0].size for L in range(1, args.l_max + 1))
    extra = {"misses": len(witnesses), "positions": positions, "factors": factors}
    with _sink(args, **extra) as out:
        analysis.write_witness_csv(witnesses, out)
    if args.expect == "closed" and witnesses:
        factor = format_symbols(witnesses[0].factor)
        return _mismatch(f"image of {factor} absent from the prefix")
    if args.expect == "witness" and not witnesses:
        return _mismatch("expected at least one closure witness, found none")
    return 0


def _iterate_size(sub, seed: str, t: int, blocks: bool, cap: int) -> int:
    """Block symbols (``blocks``) or letters in the t-th iterate of seed.

    Symbol counts go level by level in Python ints and stop once they
    pass cap, so a result above cap may be short of the true size.
    """
    matrix = incidence_matrix(sub).matrix.astype(object)
    counts = np.array([int(sym == seed) for sym in sub.symbols], dtype=object)
    for _ in range(t):
        if counts.sum() > cap:
            break
        counts = matrix.dot(counts)
    sizes = [1 if blocks else len(sub.blocks[sym].expansion) for sym in sub.symbols]
    return int(counts.dot(np.array(sizes, dtype=object)))


def _built_substitution(args):
    order = CyclicOrder.from_letters(_letters(args.order))
    alphabet = order.alphabet
    if args.alphabet and _alphabet(args) != alphabet:
        raise _UsageError("--alphabet disagrees with --order letters")
    return build_substitution(alphabet, order), order


def cmd_subst(args) -> int:
    sub, order = _built_substitution(args)
    action = args.action
    if action in ("build", "show"):
        with _sink(args, seed=sub.seed) as out:
            if action == "build":
                for sym, block in sub.blocks.items():
                    print(f"{sym} = {format_symbols(block.expansion)}", file=out)
            print(sub.rule_table(), file=out)
        return 0
    if action == "iterate":
        seed, budget = args.seed_symbol or sub.seed, _budget()
        size = _iterate_size(sub, seed, args.t, args.blocks, budget)
        if size > budget:
            raise ExpansionBudgetExceeded(f"iterate exceeds budget of {budget} symbols")
        _check_stdout(args, size)
        bw = iterate(sub, seed, args.t)
        with _sink(args, seed=sub.seed) as out:
            if args.blocks:
                print(" ".join(bw), file=out)
            else:
                write_words([flatten(sub, bw)], out)
        return 0
    if action == "check-primitive":
        primitive, k = is_primitive(sub)
        with _sink(args, seed=sub.seed) as out:
            print(f"primitive={primitive} k={k}", file=out)
        return 0 if primitive else 2
    if action == "verify-fixpoint":
        spec = BaseSequenceSpec(order.alphabet, order.arrangement)
        ok = verify_substitution_fixpoint(sub, spec, args.length)
        with _sink(args, seed=sub.seed) as out:
            print(f"fixpoint_match={ok} length={args.length}", file=out)
        if not ok:
            return _mismatch("substitution iterate disagrees with the fixpoint word")
        return 0
    raise _UsageError(f"unknown subst action {action}")


def cmd_verify_all(args) -> int:
    failed: dict[str, str] = {}  # the first failing check's name
    lines: list[str | None] = []  # and its lines for --output
    for name, fn in ALL_CHECKS:
        result = run_check(fn, args.seed)
        print(result.format_line())
        if not result.passed:
            failed = {"failed": name}
            lines = [result.format_line(), result.counterexample]
            break
    if args.output:  # written on every run, so no older failure lingers
        with open(args.output, "w", encoding="utf-8") as handle:
            for line in filter(None, [_config_line(args, **failed), *lines]):
                print(line, file=handle)
    if failed and result.counterexample:
        print(f"counterexample: {result.counterexample}")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_common_word_source(p: _Parser) -> None:
    p.add_argument("--alphabet", help="comma-separated letters")
    p.add_argument("--base-preperiod", default="", help="base preperiod letters")
    p.add_argument("--base-period", default="", help="base period letters")
    p.add_argument("--length", type=int, default=10**6, help="prefix length")
    p.add_argument("--input", help="read the word from a file instead")
    p.add_argument("--output", help="write output to a file")


def build_parser() -> _Parser:
    parser = _Parser(prog="smoothwords")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a run-length fixpoint prefix")
    p.add_argument("--alphabet")
    p.add_argument("--base-preperiod", default="")
    p.add_argument("--base-period", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument(
        "--stats", action="store_true", help="report level depth and peak buffer"
    )
    p.add_argument("--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="run-length code a word")
    p.add_argument("--alphabet")
    p.add_argument("--word")
    p.add_argument("--input")
    p.add_argument("--prefix", action="store_true", help="mark the word as a prefix")
    p.add_argument("--output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("derive", help="run-length derivative of a word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word")
    p.add_argument("--input")
    p.add_argument("--prefix", action="store_true")
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("expand", help="chained pseudo-inverse expansion")
    p.add_argument("--alphabet")
    p.add_argument("--order", required=True)
    p.add_argument("--chain", default="", help="control word, outermost first")
    p.add_argument("--target", required=True, help="exponent word to expand")
    p.add_argument("--output")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("phi-inverse", help="expand a directive word")
    p.add_argument("--order", required=True)
    p.add_argument("--u", required=True, help="directive word")
    p.add_argument("--output")
    p.set_defaults(func=cmd_phi_inverse)

    p = sub.add_parser("freq", help="letter frequency report (CSV)")
    _add_common_word_source(p)
    p.add_argument("--samples", help="comma-separated sample lengths")
    p.add_argument("--tol", type=float, help="exit 2 if any deviation exceeds")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("recur", help="recurrence report (CSV)")
    _add_common_word_source(p)
    p.add_argument("--l-max", type=int, default=24)
    p.add_argument("--scan-len", type=int)
    p.add_argument("--expect", choices=["recurrent", "none"], default="recurrent")
    p.set_defaults(func=cmd_recur)

    p = sub.add_parser("gaps", help="occurrence gap report (CSV)")
    _add_common_word_source(p)
    p.add_argument("--l-max", type=int, default=8)
    p.add_argument("--expect", choices=["stable", "none"], default="none")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("closure", help="factor-set closure report (CSV)")
    _add_common_word_source(p)
    p.add_argument("--op", choices=["reversal", "complement", "perm"], required=True)
    p.add_argument("--map", help="letter mapping for --op perm, e.g. 1:2,2:1")
    p.add_argument("--l-max", type=int, default=10)
    p.add_argument(
        "--expect", choices=["closed", "witness", "none"], default="none"
    )
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("subst", help="block substitution toolbox")
    p.add_argument(
        "action",
        choices=["build", "show", "iterate", "check-primitive", "verify-fixpoint"],
    )
    p.add_argument("--alphabet")
    p.add_argument("--order", required=True)
    p.add_argument("--t", type=int, default=1, help="iteration count")
    p.add_argument("--seed-symbol", help="override the iteration seed")
    p.add_argument("--blocks", action="store_true", help="print block symbols")
    p.add_argument("--length", type=int, default=10**4)
    p.add_argument("--output")
    p.set_defaults(func=cmd_subst)

    p = sub.add_parser("verify-all", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the config line and any failure here")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SmoothwordError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
