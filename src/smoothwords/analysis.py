"""Empirical verification suite: frequencies, recurrence, gaps, closure.

These routines measure finite prefixes only.  They can confirm a
theorem's desk-scale consequences or exhibit concrete witnesses, but
they never certify a property of an infinite word; report docstrings
say exactly what was scanned.

Closure checks follow a middle-third protocol: candidate factors are
drawn from the middle third of the prefix while images are searched in
the whole prefix, so a factor whose image merely falls off the edge of
the window is not reported as a miss.

Report rows use 1-based positions and are ordered by length, then
lexicographically by factor, so output is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .expansion import (
    CyclicOrder,
    phi_inverse_prefix,
    pseudo_inverse,
    pseudo_inverse_with_base,
)
from .factors import FactorIndex, PieceSource
from .kolakoski import KolakoskiStream
from .words import (
    Alphabet,
    Permutation,
    Word,
    _run_arrays,
    _split,
    _symbol_bytes,
    format_symbols,
    is_palindrome,
)

__all__ = [
    "FrequencyReport",
    "RecurrenceReport",
    "GapReport",
    "GapStability",
    "ClosureWitness",
    "EqualRunBlock",
    "letter_counts",
    "frequency_report",
    "letter_frequencies",
    "is_well_proportioned_prefix",
    "exact_frequency_check",
    "recurrence_report",
    "max_gap_report",
    "gap_stability_check",
    "closure_check",
    "equal_run_blocks",
    "phi_inverse_palindrome_check",
]


# ---------------------------------------------------------------------------
# letter frequencies

@dataclass(frozen=True)
class FrequencyRow:
    k: int
    letter: int
    count: int
    ratio: float
    deviation: float


@dataclass
class FrequencyReport:
    """Per-letter counts and ratios at sampled prefix lengths.

    ``deviation`` is the distance of each ratio from the equidistributed
    value 1/n.
    """

    alphabet: Alphabet
    samples: tuple[int, ...]
    rows: list[FrequencyRow]

    def ratios_at(self, k: int) -> dict[int, float]:
        return {r.letter: r.ratio for r in self.rows if r.k == k}

    def max_deviation(self, k: int | None = None) -> float:
        rows = self.rows if k is None else [r for r in self.rows if r.k == k]
        return max(r.deviation for r in rows)

    def to_csv(self, out: TextIO) -> None:
        writer = csv.writer(out)
        writer.writerow(["k", "letter", "count", "ratio", "deviation"])
        for r in self.rows:
            writer.writerow(
                [r.k, r.letter, r.count, f"{r.ratio:.9f}", f"{r.deviation:.9f}"]
            )


def _sample_points(samples: Sequence[int]) -> list[int]:
    if not samples or min(samples) < 1:
        raise ValueError("samples must be positive")
    return sorted(set(int(s) for s in samples))


def letter_counts(
    pieces: Iterable[np.ndarray], ks: Sequence[int], size: int
) -> tuple[dict[int, np.ndarray], int]:
    """Letter counts of the text that ``pieces`` make up, and its length.

    ``counts[k][a]`` is the number of letters ``a < size`` among the
    first ``k``, for every k of the ascending ``ks`` that the text
    reaches and for its whole length.  Each piece is folded into the
    counts as it comes, so the text is never held whole; letters of
    ``size`` and above are not counted.
    """
    counts = np.zeros(size, dtype=np.int64)
    at: dict[int, np.ndarray] = {}
    done = i = 0
    for piece in pieces:
        lo = 0
        while i < len(ks) and ks[i] <= done + piece.size:
            cut = max(ks[i] - done, lo)
            counts += np.bincount(piece[lo:cut], minlength=size)[:size]
            at[ks[i]] = counts.copy()
            lo, i = cut, i + 1
        counts += np.bincount(piece[lo:], minlength=size)[:size]
        done += piece.size
    at[done] = counts
    return at, done


def frequency_report(
    counts: dict[int, np.ndarray], samples: Sequence[int], alphabet: Alphabet
) -> FrequencyReport:
    """The report of :func:`letter_counts` counts at the sampled lengths."""
    ks = _sample_points(samples)
    n = alphabet.size
    rows = []
    for k in ks:
        total = 0
        for letter in alphabet:
            c = int(counts[k][letter])
            total += c
            ratio = c / k
            rows.append(
                FrequencyRow(k, letter, c, ratio, abs(ratio - 1.0 / n))
            )
        if total != k:
            raise ValueError("stream contains letters outside the alphabet")
    return FrequencyReport(alphabet, tuple(ks), rows)


def _pieces(stream, m: int) -> Iterator[np.ndarray]:
    """The stream's next ``m`` letters, fewer if it ends, as int64 pieces."""
    if isinstance(stream, KolakoskiStream):
        return stream.pieces(m)
    if isinstance(stream, Word):
        return _split(stream.to_array()[:m])
    return iter([np.fromiter(islice(stream, m), dtype=np.int64)])


def letter_frequencies(
    stream: Word | KolakoskiStream | Iterable[int],
    samples: Sequence[int],
    alphabet: Alphabet,
) -> FrequencyReport:
    """Exact letter counts of a stream's prefixes at the sampled lengths.

    A Word or a :class:`KolakoskiStream` is counted in the data plane's
    pieces of 2¹⁶ letters up to the largest sample, so memory stays flat
    in the sample size; the stream is read on from its position, one take
    per piece.  Any other iterable is read into one array first.
    """
    ks = _sample_points(samples)
    counts, length = letter_counts(_pieces(stream, ks[-1]), ks, alphabet.largest + 1)
    if length < ks[-1]:
        raise ValueError("stream exhausted before the largest sample")
    return frequency_report(counts, ks, alphabet)


def is_well_proportioned_prefix(bases: Word) -> bool:
    """Whether every complete n-block of the base word permutes the alphabet.

    Only complete blocks are checked; a trailing partial block is
    ignored, matching the prefix reading of the property.
    """
    if bases.alphabet is None:
        raise ValueError("base word needs an alphabet")
    letters = np.asarray(bases.alphabet.letters, dtype=np.int64)
    arr = bases.to_array()
    blocks = arr[: arr.size - arr.size % letters.size].reshape(-1, letters.size)
    return bool((np.sort(blocks, axis=1) == letters).all())


def exact_frequency_check(u: Word, v: Word) -> bool:
    """Whether the expansion of exponents ``u`` over bases ``v`` is
    exactly equidistributed (every letter count equal to length/n).

    Structural requirements are enforced: all alphabet letters divisible
    by n, equal lengths divisible by n, and the n-blocks of ``v`` each a
    permutation of the alphabet.  The run-length structure of ``u`` is
    *not* constrained here: equidistribution is guaranteed when the run
    lengths of ``u`` are all divisible by n, and callers probing that
    boundary get the honest count comparison either way.
    """
    if v.alphabet is None:
        raise ValueError("base word needs an alphabet")
    alphabet = v.alphabet
    n = alphabet.size
    if any(a % n for a in alphabet):
        raise ValueError("every alphabet letter must be divisible by n")
    if len(u) != len(v):
        raise ValueError("exponent and base words must have equal length")
    if len(u) % n:
        raise ValueError("word length must be divisible by n")
    if not is_well_proportioned_prefix(v):
        raise ValueError("base word blocks must permute the alphabet")
    if len(u) == 0:
        return True
    expansion = pseudo_inverse_with_base(u, v).to_array()
    counts = np.bincount(expansion, minlength=alphabet.largest + 1)
    share, rem = divmod(expansion.size, n)
    if rem:
        return False
    return all(int(counts[a]) == share for a in alphabet)


# ---------------------------------------------------------------------------
# recurrence and gaps


@dataclass(frozen=True)
class RecurrenceRow:
    length: int
    factor: tuple[int, ...]
    first: int  # 1-based
    second: int | None  # 1-based, None if no second occurrence found


@dataclass
class RecurrenceReport:
    """Recurrence of every factor seen early in the prefix.

    A row per distinct factor (length <= l_max) that occurs fully inside
    the first ``scan_len`` letters, with the position of its second
    occurrence anywhere in the whole prefix, if one exists.
    """

    word_length: int
    l_max: int
    scan_len: int
    rows: list[RecurrenceRow]

    @property
    def non_recurrent(self) -> list[RecurrenceRow]:
        return [r for r in self.rows if r.second is None]

    @property
    def all_recurrent(self) -> bool:
        return not self.non_recurrent

    def to_csv(self, out: TextIO) -> None:
        # no field needs quoting, so the csv module's lines are built directly
        out.write("L,factor,first,second,recurrent\r\n")
        for rows, texts in _by_length(self.rows):
            out.write("".join(
                f"{r.length},{text},{r.first},{'' if r.second is None else r.second},"
                f"{int(r.second is not None)}\r\n"
                for r, text in zip(rows, texts)
            ))


def _by_length(rows) -> Iterator[tuple[list, list[str]]]:
    """Runs of rows of one length, each with the ``format_symbols`` text
    of its factors, made by one byte-kernel call per run."""
    for length, run in groupby(rows, key=lambda r: r.length):
        run = list(run)
        flat = chain.from_iterable(r.factor for r in run)
        text = _symbol_bytes(np.fromiter(flat, np.int64, len(run) * length))
        # every length-th space ends a factor
        text[np.flatnonzero(text == ord(" "))[length - 1 :: length]] = ord("\n")
        yield run, text.tobytes().decode("ascii").split("\n")[:-1]


def _index(
    w: Word | PieceSource, l_max: int, index: FactorIndex | None, least: int, why: str
) -> FactorIndex:
    """``index``, else the index of ``w``; raises ``why`` if ``w`` is
    shorter than ``least``.  A source's length is known once it is read,
    so it is checked when the build reaches its end."""
    if index is None:
        if isinstance(w, PieceSource):
            read = w.read

            def checked():
                size = 0
                for piece in read():
                    size += len(piece)
                    yield piece
                if size < least:
                    raise ValueError(why)

            w = PieceSource(w.alphabet, checked)
        elif len(w) < least:
            raise ValueError(why)
        index = FactorIndex(w, l_max)
    if len(index) < least:
        raise ValueError(why)
    return index


_TOO_SHORT = "word too short for the requested l_max"


def recurrence_report(
    w: Word | PieceSource,
    l_max: int,
    *,
    scan_len: int | None = None,
    index: FactorIndex | None = None,
) -> RecurrenceReport:
    """Check that early factors reappear somewhere in the prefix.

    ``scan_len`` defaults to 1% of the word (at least ``l_max``); a
    shorter one raises ``ValueError``, since it would scan no factor of
    the longer lengths.
    """
    idx = _index(w, l_max, index, 2 * l_max, _TOO_SHORT)
    n = len(idx)
    if scan_len is None:
        scan_len = max(l_max, n // 100)
    if scan_len < l_max:
        raise ValueError(f"scan_len {scan_len} is shorter than l_max {l_max}")
    rows: list[RecurrenceRow] = []
    for length in range(1, l_max + 1):
        groups = idx.groups(length)
        chosen = idx.groups_starting_in(length, 0, scan_len - length + 1)
        rows.extend(
            RecurrenceRow(length, tuple(f), a + 1, b + 1 if b >= 0 else None)
            for f, a, b in zip(
                idx.factors(length, chosen).tolist(),
                groups.first[chosen].tolist(),
                groups.second[chosen].tolist(),
            )
        )
    return RecurrenceReport(n, l_max, scan_len, rows)


@dataclass(frozen=True)
class GapRow:
    length: int
    factor: tuple[int, ...]
    occurrences: int
    max_gap: int  # 0 when the factor occurs once


@dataclass
class GapReport:
    """Maximal gap between consecutive occurrences, per distinct factor."""

    word_length: int
    l_max: int
    rows: list[GapRow]

    def to_csv(self, out: TextIO) -> None:
        # no field needs quoting, so the csv module's lines are built directly
        out.write("L,factor,occurrences,max_gap\r\n")
        for rows, texts in _by_length(self.rows):
            out.write("".join(
                f"{r.length},{text},{r.occurrences},{r.max_gap}\r\n"
                for r, text in zip(rows, texts)
            ))


def max_gap_report(
    w: Word | PieceSource,
    l_max: int,
    *,
    index: FactorIndex | None = None,
) -> GapReport:
    """Occurrence counts and maximal gaps for every factor up to l_max."""
    idx = _index(w, l_max, index, 2 * l_max, _TOO_SHORT)
    rows: list[GapRow] = []
    for length in range(1, l_max + 1):
        groups = idx.groups(length)
        rows.extend(
            GapRow(length, tuple(f), count, gap)
            for f, count, gap in zip(
                idx.factors(length).tolist(),
                groups.count.tolist(),
                groups.max_gap.tolist(),
            )
        )
    return GapReport(len(idx), l_max, rows)


@dataclass
class GapStability:
    """Comparison of per-factor max gaps at half and full prefix length.

    ``mismatches`` lists (length, factor, gap_half, gap_full) for factors
    of the half prefix whose maximal gap changed in the second half.
    Stable gaps at growing scales are the measurable face of uniform
    recurrence; instability is reported, never asserted away.
    """

    half_length: int
    full_length: int
    l_max: int
    compared: int
    mismatches: list[tuple[int, tuple[int, ...], int, int]]

    @property
    def all_stable(self) -> bool:
        return not self.mismatches


def gap_stability_check(
    w: Word | PieceSource,
    l_max: int,
    *,
    index: FactorIndex | None = None,
) -> GapStability:
    """Compare max gaps per factor measured at |w|/2 and |w|, on one index."""
    idx = _index(w, l_max, index, 2 * l_max, "half prefix shorter than l_max")
    n = len(idx)
    half = n // 2
    mismatches = []
    compared = 0
    for length in range(1, l_max + 1):
        full = idx.groups(length)
        # the factors of the half prefix start before half - L + 1
        present = np.flatnonzero(full.first < half - length + 1)
        compared += present.size
        gap_half, gap_full = full.half_max_gap[present], full.max_gap[present]
        moved = np.flatnonzero(gap_half != gap_full)
        factors = idx.factors(length, present[moved]).tolist()
        for g, factor in zip(moved.tolist(), factors):
            before, after = int(gap_half[g]), int(gap_full[g])
            mismatches.append((length, tuple(factor), before, after))
    return GapStability(half, n, l_max, compared, mismatches)


# ---------------------------------------------------------------------------
# closure under reversal / permutation


@dataclass(frozen=True)
class ClosureWitness:
    """A factor whose image under the operation is absent from the prefix."""

    op: str
    factor: tuple[int, ...]
    image: tuple[int, ...]
    factor_position: int  # 1-based, inside the middle third


def _closure_op(
    op: str | Permutation,
) -> tuple[str, Callable[[tuple[int, ...]], tuple[int, ...]]]:
    if op == "reversal":
        return "reversal", lambda f: f[::-1]
    if isinstance(op, Permutation):
        return op.label(), lambda f: tuple(op(x) for x in f)
    raise ValueError("op must be 'reversal' or a Permutation")


def closure_check(
    w: Word | PieceSource,
    op: str | Permutation,
    l_max: int,
    *,
    index: FactorIndex | None = None,
) -> list[ClosureWitness]:
    """Misses of the middle-third closure protocol.

    Every distinct factor of length <= l_max starting in the middle
    third of the prefix is mapped through ``op`` and its image searched
    in the whole prefix; factors whose image never occurs come back as
    witnesses.  An empty list means the prefix looks closed under the
    operation at this scale.
    """
    why = "word too short for the middle-third protocol"
    idx = _index(w, l_max, index, 3 * l_max, why)
    label, transform = _closure_op(op)
    lo, hi = _middle_third(len(idx))
    misses: list[ClosureWitness] = []
    for length in range(1, l_max + 1):
        fset = idx.factor_set(length)
        chosen, starts = idx.window(length, lo, hi)
        for factor, pos in zip(idx.factors(length, chosen).tolist(), starts.tolist()):
            factor = tuple(factor)
            image = transform(factor)
            if image not in fset:
                misses.append(ClosureWitness(label, factor, image, pos + 1))
    return misses


def _middle_third(n: int) -> tuple[int, int]:
    return n // 3, 2 * n // 3


def write_witness_csv(witnesses: list[ClosureWitness], out: TextIO) -> None:
    writer = csv.writer(out)
    writer.writerow(["op", "factor", "image", "verdict", "position"])
    for wit in witnesses:
        writer.writerow(
            [
                wit.op,
                format_symbols(wit.factor),
                format_symbols(wit.image),
                "absent",
                wit.factor_position,
            ]
        )


# ---------------------------------------------------------------------------
# equal-run blocks


@dataclass(frozen=True)
class EqualRunBlock:
    """A maximal factor whose runs all share one length (the exponent)."""

    factor: tuple[int, ...]
    exponent: int
    run_count: int
    start: int  # 1-based
    end: int  # 1-based inclusive


def equal_run_blocks(
    w: Word,
    *,
    min_exponent: int = 1,
    min_runs: int = 1,
) -> list[EqualRunBlock]:
    """Maximal blocks of consecutive runs sharing one length.

    Filters keep the output small on long words; the defaults return
    every block, which is only sensible for short inputs.
    """
    arr = w.to_array()
    lengths, letters = _run_arrays(arr)
    if lengths.size == 0:
        return []
    run_starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
    )
    change = np.flatnonzero(lengths[1:] != lengths[:-1])
    grp_start = np.concatenate((np.zeros(1, dtype=np.int64), change + 1))
    grp_end = np.concatenate((change, np.array([lengths.size - 1])))
    out: list[EqualRunBlock] = []
    for a, b in zip(grp_start, grp_end):
        exponent = int(lengths[a])
        runs = int(b - a + 1)
        if exponent < min_exponent or runs < min_runs:
            continue
        start = int(run_starts[a])
        end = int(run_starts[b] + lengths[b])  # exclusive
        out.append(
            EqualRunBlock(
                tuple(arr[start:end].tolist()), exponent, runs, start + 1, end
            )
        )
    return out


# ---------------------------------------------------------------------------
# palindromic expansions


def phi_inverse_palindrome_check(order: CyclicOrder, k_max: int) -> bool:
    """Exhaustively check that every directive word up to length k_max
    expands to an odd-length palindrome.

    Only meaningful (and only accepted) for 2-letter alphabets of odd
    letters, where the expansion of a single letter is an odd palindrome
    and the pseudo-inverse preserves that shape.

    Directive words grow by prepending a letter, which costs one
    pseudo-inverse: the expansion of ``a·u`` is ``pseudo_inverse(a, ·)``
    of the expansion of ``u``.
    """
    alphabet = order.alphabet
    if alphabet.size != 2 or any(a % 2 == 0 for a in alphabet):
        raise ValueError("check requires a 2-letter alphabet of odd letters")
    letters = alphabet.letters
    stack = [(1, phi_inverse_prefix(Word((a,), alphabet), order)) for a in letters]
    while stack:
        length, expansion = stack.pop()
        if len(expansion) % 2 == 0 or not is_palindrome(expansion):
            return False
        if length < k_max:
            stack.extend(
                (length + 1, pseudo_inverse(a, expansion, order)) for a in letters
            )
    return True
