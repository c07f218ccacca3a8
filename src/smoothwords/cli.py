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
import math
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import analysis
from .errors import ExpansionBudgetExceeded, SmoothwordError
from .factors import FactorIndex, PieceSource
from .expansion import DEFAULT_BUDGET, CyclicOrder, _chain_pieces, _phi_inverse_pieces
from .kolakoski import BaseSequenceSpec, kolakoski_stream
from .substitution import (
    build_substitution,
    incidence_matrix,
    is_primitive,
    iterate_text,
    verify_substitution_fixpoint,
)
from .words import (
    Alphabet,
    Permutation,
    Word,
    _derived_pieces,
    _run_pieces,
    data_line_pieces,
    format_symbols,
    parse_symbols,
    write_word_pieces,
)

STDOUT_SYMBOL_LIMIT = 10**5
BUDGET_ENV = "SMOOTHWORDS_MAX_EXPANSION"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values; -inf, -nan,
        # -1e3 and -1,2 are values too, so they reach their flag's own check
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

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
    if getattr(args, "alphabet", None) is not None:
        letters = _letters(args.alphabet)
    else:
        base = (getattr(args, "base_preperiod", ""), getattr(args, "base_period", ""))
        letters = _letters(",".join(base))
        if not letters:
            raise _UsageError("--alphabet is required")
    return Alphabet(tuple(sorted(set(letters))))


def _word_reader(args) -> Callable[[], Iterator[np.ndarray]]:
    """A function that reads the ``--input`` or ``--word`` word afresh in
    pieces; an empty ``--word`` is the empty word."""
    if args.input is not None:
        path = args.input
        return lambda: data_line_pieces(path)
    if args.word is not None:
        word = _symbols(args.word).to_array()
        return lambda: iter([word])
    raise _UsageError("provide --word or --input")


def _order(args) -> CyclicOrder:
    """The ``--order`` cycle; a given ``--alphabet`` must hold its letters."""
    order = CyclicOrder.from_letters(_letters(args.order))
    if getattr(args, "alphabet", None) is None or _alphabet(args) == order.alphabet:
        return order
    raise _UsageError("--alphabet disagrees with --order letters")


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
    """The ``--output`` file, else stdout, opened with the config line.

    A new or regular file is written beside its path (a symlink's
    target) and moved there when the block ends; an error in the block
    removes it, so a failure found while writing leaves no file, or the
    older file unchanged.  Any other path (a device, a FIFO, a directory
    the temporary file cannot go in) is opened and written in place.
    """
    if getattr(args, "output", None) is None:
        print(_config_line(args, **extra))
        yield sys.stdout
        return
    handle = _beside(args.output)
    if handle is None:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            print(_config_line(args, **extra), file=handle)
            yield handle
        return
    try:
        with handle:
            print(_config_line(args, **extra), file=handle)
            yield handle
        path = os.path.realpath(args.output)
        os.chmod(handle.name, _file_mode(path))
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _beside(output: str) -> TextIO | None:
    """A temporary file beside ``output``, or None where ``output`` is
    not a regular file or no file can be made in its directory."""
    path = os.path.realpath(output)  # the working directory for ""
    if os.path.exists(path) and not os.path.isfile(path):
        return None
    try:
        return tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", newline="", dir=os.path.dirname(path), delete=False
        )
    except OSError:
        return None


def _file_mode(path: str) -> int:
    """The mode ``open(path, "w")`` leaves: the file's own if it exists."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _mismatch(message: str) -> int:
    """Report a verification mismatch on stderr; its exit code is 2."""
    print(message, file=sys.stderr)
    return 2


def _check_stdout(args, size: int) -> None:
    if size > STDOUT_SYMBOL_LIMIT and getattr(args, "output", None) is None:
        raise _UsageError(
            f"{size} symbols exceed the stdout limit of "
            f"{STDOUT_SYMBOL_LIMIT}; pass --output FILE"
        )


def _emit_pieces(
    args, *lines: Iterable[np.ndarray], limit: float = STDOUT_SYMBOL_LIMIT, **extra
) -> None:
    """Write words given in pieces, one a line, after the config line.

    They are streamed to ``--output``.  Stdout gets nothing until all are
    read, so a fault found on the way writes nothing; they are held while
    within ``limit`` symbols in all and counted through past it, so a
    budget error comes before the stdout limit's.
    """
    if getattr(args, "output", None) is None:
        held, size = [], 0
        for pieces in lines:
            held.append([])
            for piece in pieces:
                size += piece.size
                if size <= limit:
                    held[-1].append(piece)
        if size > limit:
            _check_stdout(args, size)
        lines = held
    with _sink(args, **extra) as out:
        for pieces in lines:
            write_word_pieces(pieces, out)


def _base_spec(args) -> BaseSequenceSpec:
    """The fixpoint's base, checked before the alphabet that defaults to it."""
    if not getattr(args, "base_period", None):
        raise _UsageError("--base-period is required")
    period = _letters(args.base_period)
    preperiod = _letters(args.base_preperiod) if args.base_preperiod else ()
    return BaseSequenceSpec(_alphabet(args), period, preperiod)


def _source(args, needed=lambda m: m) -> PieceSource:
    """The ``--input`` word, else the first ``needed(--length)`` letters
    of the fixpoint, read in pieces each time they are needed."""
    if args.input is not None:
        path = args.input
        return PieceSource(_alphabet(args), lambda: data_line_pieces(path))
    spec, m = _base_spec(args), needed(args.length)
    if m < 1:
        raise ValueError("m must be positive")
    return PieceSource(spec.alphabet, lambda: kolakoski_stream(spec).pieces(m))


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
    spec = _base_spec(args)
    if args.length < 1:
        raise ValueError("m must be positive")
    _check_stdout(args, args.length)
    stats = _stream_stats(spec, args.length) if args.stats else {}
    with _sink(args, **stats) as out:
        write_word_pieces(kolakoski_stream(spec).pieces(args.length), out)
    return 0


def cmd_encode(args) -> int:
    read, to_letters = _word_reader(args), lambda runs: runs
    if args.alphabet is not None:  # checked as ranks, whose runs are the letters' runs
        source = PieceSource(_alphabet(args), read)
        read, to_letters = source.ranks, np.array((0, *source.alphabet)).take
    # one read for each line; stdout holds the code, as it has no limit here
    exponents = (lengths for lengths, _ in _run_pieces(read()))
    bases = (to_letters(runs) for _, runs in _run_pieces(read()))
    _emit_pieces(args, exponents, bases, limit=math.inf, truncated=args.prefix)
    return 0


def cmd_derive(args) -> int:
    if args.times < 0:
        raise _UsageError("--times must be non-negative")
    alphabet = _alphabet(args)
    # checked as ranks, whose runs are the letters' runs; with no derivative
    # to take, the ranks map back to the letters
    ranks = PieceSource(alphabet, _word_reader(args)).ranks()
    if not args.times:
        ranks = map(np.array((0, *alphabet)).take, ranks)
    _emit_pieces(args, _derived_pieces(ranks, alphabet, args.prefix, args.times))
    return 0


def cmd_expand(args) -> int:
    order = _order(args)
    target = _symbols(args.target)
    chain = _letters(args.chain) if args.chain else ()
    _emit_pieces(args, _chain_pieces(chain, target, order, _budget()))
    return 0


def cmd_phi_inverse(args) -> int:
    order = _order(args)
    directive = Word(_symbols(args.u), order.alphabet)
    _emit_pieces(args, _phi_inverse_pieces(directive, order, _budget()))
    return 0


def cmd_freq(args) -> int:
    if args.tol is not None and not args.tol >= 0:  # NaN passes every check
        raise _UsageError(f"--tol must be a non-negative number, got {args.tol}")
    samples = [] if args.samples is None else args.samples.split(",")
    try:
        samples = [int(s) for s in samples]
    except ValueError:
        raise _UsageError(f"cannot parse --samples from {args.samples!r}") from None
    # from the fixpoint, only the letters up to the largest sample, which is
    # checked against --length before any letter is generated
    source = _source(args, lambda m: analysis._sample_lengths(samples, m)[-1])
    report = analysis.letter_frequencies(source, samples, source.alphabet)
    with _sink(args) as out:
        report.to_csv(out)
    if args.tol is not None and report.max_deviation() > args.tol:
        return _mismatch(
            f"frequency deviation {report.max_deviation():.3e} exceeds "
            f"tolerance {args.tol:.3e}"
        )
    return 0


def cmd_recur(args) -> int:
    source = _source(args)
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
    source = _source(args)
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
    source = _source(args)
    if args.op == "reversal":
        op: str | Permutation = "reversal"
    elif args.op == "complement":
        op = Permutation.complement(source.alphabet)
    elif args.op == "perm":
        if args.map is None:
            raise _UsageError("--map is required with --op perm")
        try:
            # each letter is one word-text number, as in every other word flag
            pairs = (map(_letters, pair.split(":")) for pair in args.map.split(","))
            mapping = {a: b for (a,), (b,) in pairs}
        except (ValueError, _UsageError):
            raise _UsageError(f"cannot parse --map from {args.map!r}") from None
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


def cmd_subst(args) -> int:
    order = _order(args)
    sub = build_substitution(order.alphabet, order)
    action = args.action
    if action in ("build", "show"):
        with _sink(args, seed=sub.seed) as out:
            if action == "build":
                for sym, block in sub.blocks.items():
                    print(f"{sym} = {format_symbols(block.expansion)}", file=out)
            print(sub.rule_table(), file=out)
        return 0
    if action == "iterate":
        seed = sub.seed if args.seed_symbol is None else args.seed_symbol
        budget = _budget()
        size = _iterate_size(sub, seed, args.t, args.blocks, budget)
        if size > budget:
            raise ExpansionBudgetExceeded(f"iterate exceeds budget of {budget} symbols")
        _check_stdout(args, size)
        text = iterate_text(sub, seed, args.t, blocks=args.blocks)
        with _sink(args, seed=sub.seed) as out:
            out.writelines(text)
            out.write("\n")
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
    from .verify import ALL_CHECKS  # no other command compiles them
    failed: dict[str, str] = {}  # the first failing check's name
    lines: list[str | None] = []  # and its lines for --output
    # opened first, so a bad path fails before any check, and rewritten each run
    output = os.devnull if args.output is None else args.output
    with open(output, "w", encoding="utf-8") as handle:
        for name, fn in ALL_CHECKS:
            result = fn(args.seed)
            print(result.format_line())
            if not result.passed:
                failed = {"failed": name}
                lines = [result.format_line(), result.counterexample]
                break
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
