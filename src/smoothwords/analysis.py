"""Empirical verification suite: frequencies, recurrence, gaps, closure.

These routines measure finite prefixes only.  They can confirm a
theorem's desk-scale consequences or exhibit concrete witnesses, but
they never certify a property of an infinite word; report docstrings
say exactly what was scanned.

Closure checks follow a middle-third protocol: candidate factors are
drawn from the middle third of the prefix while images are searched in
the whole prefix, so a factor whose image merely falls off the edge of
the window is not reported as a miss.

Reports keep the factor index's arrays per length and decode letters
one length at a time; rows use 1-based positions and are ordered by
length, then lexicographically by factor, so output is deterministic.
Closure images are mapped as letter-rank arrays and looked up by key.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .expansion import (
    CyclicOrder,
    phi_inverse_prefix,
    pseudo_inverse,
    pseudo_inverse_with_base,
)
from .factors import FactorIndex, PieceSource
from .words import (
    Alphabet,
    Permutation,
    Word,
    _run_arrays,
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


def _sample_lengths(samples: Sequence[int], length: int) -> list[int]:
    """The samples ascending and distinct, or ``[length]`` if there are none."""
    ks = sorted(set(map(int, samples))) or [length]
    if ks[0] < 1:
        raise ValueError("samples must be positive")
    if ks[-1] > length:
        raise ValueError(f"sample {ks[-1]} exceeds the length {length}")
    return ks


def letter_frequencies(
    word: Word | PieceSource, samples: Sequence[int], alphabet: Alphabet
) -> FrequencyReport:
    """Exact letter counts of a word's prefixes at the sampled lengths, or
    of the whole word with no samples; a sample below 1 raises
    ``ValueError`` before any letter is read, and one past the word once
    its length is known.  The letters are read as a :class:`PieceSource`
    over ``alphabet``: ranked and checked there and counted in pieces of at
    most 2¹⁶, a slot per letter.  A ``Word`` is read only up to its largest
    sample."""
    ks = sorted(set(map(int, samples)))
    if ks and ks[0] < 1:
        raise ValueError("samples must be positive")
    if isinstance(word, PieceSource):
        pieces = word.read()
    else:
        pieces = (word.to_array()[: _sample_lengths(ks, len(word))[-1]],)
    ranks = PieceSource(alphabet, lambda: pieces).ranks()
    counts, length = letter_counts(ranks, ks, alphabet.size + 1)
    ks = _sample_lengths(ks, length)
    n = alphabet.size
    rows = []
    for k in ks:
        for letter, c in zip(alphabet, counts[k][1:].tolist()):
            rows.append(FrequencyRow(k, letter, c, c / k, abs(c / k - 1.0 / n)))
    return FrequencyReport(alphabet, tuple(ks), rows)


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
    expansion = pseudo_inverse_with_base(u, v)
    report = letter_frequencies(expansion, [len(expansion)], alphabet)
    return all(row.count * n == len(expansion) for row in report.rows)


# ---------------------------------------------------------------------------
# recurrence and gaps


@dataclass(eq=False)
class _FactorColumns:
    """A factor report's columns: per length, the index's groups it lists
    (``None``: every group) and two statistics of each.  ``rows`` is
    built on first read."""

    _index: FactorIndex = field(repr=False, kw_only=True)
    _columns: list[tuple] = field(repr=False, kw_only=True)

    @property
    def factor_count(self) -> int:
        """The number of factors listed: ``len(rows)``, without the rows."""
        return sum(a.size for _, a, _ in self._columns)

    def _lengths(self, keep: Callable | None = None) -> Iterator[tuple]:
        """Per length: the letters of the factors listed, or of those that
        ``keep`` picks by their ``b``, as a 2-D array, and ``a`` and ``b``."""
        for length, (groups, a, b) in enumerate(self._columns, 1):
            if keep is not None:
                pick = keep(b)
                groups, a, b = groups[pick], a[pick], b[pick]
            yield length, self._index.factors(length, groups), a.tolist(), b.tolist()

    def _rows(self, row: Callable, keep: Callable | None = None) -> Iterator:
        """``row(length, factor, a, b)`` per factor that ``_lengths`` gives,
        as they are read."""
        return (
            row(length, tuple(f), x, y)
            for length, letters, a, b in self._lengths(keep)
            for f, x, y in zip(letters.tolist(), a, b)
        )

    def _csv(self, out: TextIO, header: str, line: Callable[..., str]) -> None:
        """Write ``header``, then ``line(length, text, a, b)`` per factor
        listed: ``text`` is its ``format_symbols`` text, made for each
        length by one byte-kernel call.  No field needs quoting, so the
        csv module's lines are built directly."""
        out.write(header)
        for length, letters, a, b in self._lengths():
            text = np.frombuffer(_symbol_bytes(letters.reshape(-1)), dtype=np.uint8)
            # every length-th space ends a factor
            text[np.flatnonzero(text == ord(" "))[length - 1 :: length]] = ord("\n")
            texts = text.tobytes().decode("ascii").split("\n")[:-1]
            out.write("".join([line(length, t, x, y) for t, x, y in zip(texts, a, b)]))


@dataclass(frozen=True)
class RecurrenceRow:
    length: int
    factor: tuple[int, ...]
    first: int  # 1-based
    second: int | None  # 1-based, None if no second occurrence found


@dataclass(eq=False)
class RecurrenceReport(_FactorColumns):
    """Recurrence of every factor seen early in the prefix.

    A row per distinct factor (length <= l_max) that occurs fully inside
    the first ``scan_len`` letters, with the position of its second
    occurrence anywhere in the whole prefix, if one exists.  The columns
    are the first and second starts (0-based, -1 if none).
    """

    word_length: int
    l_max: int
    scan_len: int

    @staticmethod
    def _row(length: int, factor: tuple[int, ...], a: int, b: int) -> RecurrenceRow:
        return RecurrenceRow(length, factor, a + 1, b + 1 if b >= 0 else None)

    @cached_property
    def rows(self) -> list[RecurrenceRow]:
        return list(self._rows(self._row))

    @property
    def non_recurrent(self) -> Iterator[RecurrenceRow]:
        """The rows of the factors with no second occurrence, decoded one
        length at a time as they are read."""
        return self._rows(self._row, lambda second: second < 0)

    @property
    def all_recurrent(self) -> bool:
        return all((second >= 0).all() for _, _, second in self._columns)

    def to_csv(self, out: TextIO) -> None:
        self._csv(out, "L,factor,first,second,recurrent\r\n", self._line)

    @staticmethod
    def _line(length: int, text: str, first: int, second: int) -> str:
        if second < 0:
            return f"{length},{text},{first + 1},,0\r\n"
        return f"{length},{text},{first + 1},{second + 1},1\r\n"


def _index(
    w: Word | PieceSource, l_max: int, index: FactorIndex | None, least: int, why: str
) -> FactorIndex:
    """``index``, else the index of ``w``; raises ``why`` if the word is
    shorter than ``least``.  The length is known once the index is built;
    a word shorter than ``l_max`` fails the build itself."""
    if index is None:
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
    columns = []
    for length in range(1, l_max + 1):
        groups = idx.groups(length)
        chosen = np.flatnonzero(groups.first < scan_len - length + 1)
        columns.append((chosen, groups.first[chosen], groups.second[chosen]))
    return RecurrenceReport(n, l_max, scan_len, _index=idx, _columns=columns)


@dataclass(frozen=True)
class GapRow:
    length: int
    factor: tuple[int, ...]
    occurrences: int
    max_gap: int  # 0 when the factor occurs once


@dataclass(eq=False)
class GapReport(_FactorColumns):
    """Maximal gap between consecutive occurrences, per distinct factor:
    the columns are every group's count and maximal gap."""

    word_length: int
    l_max: int

    @cached_property
    def rows(self) -> list[GapRow]:
        return list(self._rows(GapRow))

    def to_csv(self, out: TextIO) -> None:
        self._csv(out, "L,factor,occurrences,max_gap\r\n", "{},{},{},{}\r\n".format)


def max_gap_report(
    w: Word | PieceSource,
    l_max: int,
    *,
    index: FactorIndex | None = None,
) -> GapReport:
    """Occurrence counts and maximal gaps for every factor up to l_max."""
    idx = _index(w, l_max, index, 2 * l_max, _TOO_SHORT)
    columns = [
        (None, idx.groups(length).count, idx.max_gaps(length)[0])
        for length in range(1, l_max + 1)
    ]
    return GapReport(len(idx), l_max, _index=idx, _columns=columns)


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
        # the factors of the half prefix start before half - L + 1
        present = np.flatnonzero(idx.groups(length).first < half - length + 1)
        compared += present.size
        gap_full, gap_half = (gaps[present] for gaps in idx.max_gaps(length))
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
    if op == "reversal":
        label, image = "reversal", lambda ranks: ranks[:, ::-1]
    elif isinstance(op, Permutation):
        # rank 0: no image in the alphabet, so the factor is a miss, and
        # building its witness raises for a letter outside the domain
        images = np.array([0, *(op.mapping.get(a, 0) for a in idx.alphabet)])
        label, image = op.label(), idx.alphabet.ranks(images).__getitem__
    else:
        raise ValueError("op must be 'reversal' or a Permutation")
    lo, hi = _middle_third(len(idx))
    misses: list[ClosureWitness] = []
    for length in range(1, l_max + 1):
        chosen, starts = idx.window(length, lo, hi)
        ranks = idx.ranks(length, chosen)
        absent = np.flatnonzero(~idx.occurs(image(ranks)))
        factors = idx.letters[ranks[absent] - 1].tolist()
        for factor, pos in zip(factors, starts[absent].tolist()):
            factor = tuple(factor)
            mapped = factor[::-1] if op == "reversal" else tuple(map(op, factor))
            misses.append(ClosureWitness(label, factor, mapped, pos + 1))
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
    # the maximal blocks are the runs of the run lengths
    runs, exponents = _run_arrays(_run_arrays(arr)[0])
    ends = np.cumsum(runs * exponents).tolist()
    out: list[EqualRunBlock] = []
    for count, exponent, end in zip(runs.tolist(), exponents.tolist(), ends):
        if exponent >= min_exponent and count >= min_runs:
            start = end - count * exponent
            block = tuple(arr[start:end].tolist())
            out.append(EqualRunBlock(block, exponent, count, start + 1, end))
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
