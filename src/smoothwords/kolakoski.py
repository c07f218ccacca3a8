"""Generalized Kolakoski words: the fixpoints of run-length coding.

For every base sequence ``u`` with no two equal adjacent letters there
is exactly one word equal to its own run-length sequence whose j-th run
uses letter ``u_j``: run j is ``u_j`` repeated ``w[j]`` times.  At the
head of the word a run can contain the very position that defines its
length; there the length must equal the run's own letter (the first
letter of run j is at position j in that case), which also seeds
``w[1] = u_1``.  Past the head the generator reads the run lengths from
an independent copy of itself (J. Nilsson, J. Integer Sequences 15,
2012), so its memory grows with the logarithm of the letters generated.
The level driver of :mod:`.expansion` runs these copies as a flat list
of levels; it streams the fixpoints of the block substitutions the same
way, each level emitting the rule images of a deeper copy's symbols.

Base sequences are restricted to the eventually periodic ones
(preperiod + period), which covers every word exercised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .expansion import _drive, _expansion, _Level
from .words import _WRITE_CHUNK, Alphabet, Word, _joined, _run_arrays

__all__ = [
    "BaseSequenceSpec",
    "KolakoskiStream",
    "kolakoski_prefix",
    "kolakoski_stream",
    "verify_fixpoint_prefix",
]


@dataclass(frozen=True)
class BaseSequenceSpec:
    """An eventually periodic base sequence ``preperiod · period^ω``.

    Adjacent letters must differ everywhere in the realised infinite
    sequence: inside each part, across the preperiod/period seam, and
    across the period's wrap-around.
    """

    alphabet: Alphabet
    period: tuple[int, ...]
    preperiod: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        period = tuple(int(x) for x in self.period)
        preperiod = tuple(int(x) for x in self.preperiod)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "preperiod", preperiod)
        if not period:
            raise ValueError("period must be nonempty")
        for x in preperiod + period:
            if x not in self.alphabet:
                raise ValueError(f"base letter {x} outside the alphabet")
        seq = preperiod + period
        if any(a == b for a, b in zip(seq, seq[1:])):
            raise ValueError("adjacent base letters must differ")
        if len(period) == 1 or period[-1] == period[0]:
            if len(period) == 1:
                raise ValueError("period of length 1 repeats a letter")
            raise ValueError("period seam repeats a letter")
        if preperiod and preperiod[-1] == period[0]:
            raise ValueError("preperiod/period seam repeats a letter")

    def base_letter(self, j: int) -> int:
        """The j-th (1-based) letter of the realised base sequence."""
        if j < 1:
            raise ValueError("base index is 1-based")
        j -= 1
        if j < len(self.preperiod):
            return self.preperiod[j]
        return self.period[(j - len(self.preperiod)) % len(self.period)]


# Runs each level takes from the self-reading loop (more for a longer
# preperiod).  Past run 2 a run starts after the letter holding its length,
# so a copy skipped to the head never reads ahead; a longer head saves levels.
_HEAD = 64


class KolakoskiStream:
    """Lazy chunked cursor over a run-length fixpoint.

    Each level emits its first ``H`` runs from a self-reading loop and
    every later run over the period, with lengths read from the next
    level: a copy of the word skipped to letter ``H``.  The level driver
    adds levels as they are first read, so ``m`` letters with mean run
    length r take about log_r(m/H) levels of one chunk (at most _CHUNK
    letters) each, up to _MAX_LEVELS.  ``levels`` counts them;
    ``peak_buffered`` sums each level's largest chunk.  Chunks hold
    letters in the smallest unsigned dtype of the alphabet's largest
    letter (uint8 up to 255; int64 from 2³² on); ``take`` returns int64
    Words.  Single-owner mutable state: one thread at a time.
    """

    def __init__(self, spec: BaseSequenceSpec) -> None:
        self.spec = spec
        self.position = 0  # letters taken so far
        head = max(_HEAD, len(spec.preperiod))
        bases = [spec.base_letter(j) for j in range(1, head + 1)]
        lengths: list[int] = []
        for j, letter in enumerate(bases):
            # a run that starts at position j contains the letter that
            # defines its own length, so that length is the run's letter;
            # capping a run at ``head`` letters keeps lengths[:head] exact
            run = letter if j == len(lengths) else lengths[j]
            lengths.extend([letter] * min(run, head))
        dtype = spec.alphabet.dtype
        bases, runs = np.array(bases, dtype), np.array(lengths[:head], dtype)
        period = np.array(spec.period, dtype)
        start = (head - len(spec.preperiod)) % period.size

        def grow(depth: int) -> _Level:
            # a fresh head, as a head run may be long; each level below the
            # top skips the ``head`` letters the head runs' lengths came from
            heads = _expansion(bases, 0)(runs)
            return _Level(_expansion(period, start), heads, head if depth else 0)

        # the levels hold no reference to the cursor, so dropping it frees
        # their chunks at once instead of at the next cycle collection
        self._levels: list[_Level] = []
        self._chunks = _drive(self._levels, grow)
        self._pending = np.empty(0, dtype)

    @property
    def levels(self) -> int:
        return len(self._levels)

    @property
    def peak_buffered(self) -> int:
        return sum(level.peak for level in self._levels)

    def take(self, m: int) -> Word:
        """The next ``m`` letters; prefix-marked when they start the word."""
        if m < 1:
            raise ValueError("m must be positive")
        return _joined(self._advance(m), self.spec.alphabet, self.position == 0)

    def pieces(self, m: int) -> Iterator[np.ndarray]:
        """The next ``m`` letters in fresh arrays of at most 2¹⁶ letters,
        in the levels' dtype."""
        for done in range(0, m, _WRITE_CHUNK):
            yield np.concatenate(list(self._advance(min(_WRITE_CHUNK, m - done))))

    def skip(self, m: int) -> None:
        """Move past the next ``m`` letters without copying them out."""
        if m < 0:
            raise ValueError("m must be non-negative")
        for _ in self._advance(m):
            pass

    def _advance(self, m: int) -> Iterator[np.ndarray]:
        """Slices of the level chunks that hold the next ``m`` letters."""
        self.position += m
        while m > 0:
            if not self._pending.size:
                self._pending = next(self._chunks)
            piece, self._pending = self._pending[:m], self._pending[m:]
            m -= piece.size
            yield piece


def kolakoski_stream(spec: BaseSequenceSpec) -> KolakoskiStream:
    """A fresh lazy cursor over ``spec``."""
    return KolakoskiStream(spec)


def kolakoski_prefix(spec: BaseSequenceSpec, m: int) -> Word:
    """The first ``m`` letters of the run-length fixpoint over ``spec``.

    The result is prefix-marked: its final run may continue beyond the
    requested length.
    """
    return KolakoskiStream(spec).take(m)


def verify_fixpoint_prefix(w: Word) -> bool:
    """Check the fixpoint property on a prefix.

    True iff the run-length sequence of ``w``, with its (truncated) final
    exponent dropped, is a prefix of ``w`` itself.
    """
    arr = w.to_array()
    if arr.size == 0:
        raise ValueError("word must be nonempty")
    lengths, _ = _run_arrays(arr)
    exps = lengths[:-1]
    return bool((exps == arr[: exps.size]).all())
