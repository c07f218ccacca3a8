"""Exact factor indexing for long words.

Start positions are sorted by their first 2^K >= l_max letters (a
truncated suffix order, by Manber & Myers' prefix doubling), with the
common-prefix length of each adjacent pair capped at l_max (the capped
LCP).  Factors of length L are the runs of that order cut where the LCP
is below L: ids in lexicographic factor order, in the smallest unsigned
dtype, with no sort per length.  Two positions share an id iff the
factors are equal, so all the statistics derived from ids (occurrence
counts, first/second/last occurrence, maximal gaps) are exact.

A deliberately naive quadratic scanner with the same interface is kept
as a test oracle.

Indexes are read-only after construction; scans over disjoint lengths
are independent, and reports built from them are merged by length then
lexicographic factor order, so results do not depend on scan order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word

__all__ = ["FactorGroups", "FactorIndex", "NaiveFactorScan"]


@dataclass(frozen=True)
class FactorGroups:
    """Per-distinct-factor occurrence statistics for one length.

    Group g collects the start positions (0-based) of the g-th distinct
    factor in lexicographic order; ``max_gap`` is 0 if it occurs once.
    """

    length: int
    ids: np.ndarray  # group id per start position, smallest unsigned dtype
    first: np.ndarray
    second: np.ndarray  # -1 where the factor occurs only once
    last: np.ndarray
    count: np.ndarray
    max_gap: np.ndarray

    @property
    def group_count(self) -> int:
        return self.first.size


def _occurrence_stats(ids: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """``(present, first, second, last, count, max_gap)`` of the start
    positions grouped by id (ids < size), for each id present, in id order."""
    order = np.argsort(ids, kind="stable")  # radix sort for 8/16-bit ids
    count = np.bincount(ids, minlength=size)
    present = np.flatnonzero(count)
    count = count[present]
    ends = np.cumsum(count)
    starts = ends - count
    first = order[starts]
    last = order[ends - 1]
    second = np.where(count >= 2, order[np.minimum(starts + 1, order.size - 1)], -1)
    # gaps between consecutive occurrences; zeros at group boundaries
    gaps = np.empty_like(order)
    np.subtract(order[1:], order[:-1], out=gaps[:-1])
    gaps[ends - 1] = 0
    max_gap = np.maximum.reduceat(gaps, starts)
    return present, first, second, last, count, max_gap


class FactorIndex:
    """Exact factor ids and occurrence statistics for lengths 1..l_max.

    ``order`` is the truncated suffix order and ``lcp[j]`` the capped LCP
    of ``order[j-1]`` and ``order[j]`` (``lcp[0] = 0``).  Letters rank as
    dense ranks + 1 and the word is padded with rank 0, so a position near
    the end sorts below every factor it is a proper prefix of.
    """

    def __init__(self, word: Word | np.ndarray, l_max: int):
        arr = word.to_array() if isinstance(word, Word) else np.asarray(word)
        if l_max < 1:
            raise ValueError("l_max must be positive")
        if arr.size < l_max:
            raise ValueError("word shorter than l_max")
        self.arr = arr.astype(np.int64, copy=False)
        self.l_max = l_max
        self._groups_cache: dict[int, FactorGroups] = {}
        self._sets_cache: dict[int, set[tuple[int, ...]]] = {}
        n = self.arr.size
        letters = np.unique(self.arr)
        rank = np.searchsorted(letters, self.arr) + 1  # rank 0 is the padding
        rank = rank.astype(np.min_scalar_type(letters.size))
        order = np.argsort(rank, kind="stable")
        ranked = rank[order]  # ranks in sorted order
        levels = []  # ranks of widths 1, 2, 4, ... below the final one
        width = 1
        while width < l_max:
            levels.append(np.pad(rank, (0, 1)))
            # sort by (rank[i], rank[i + width]): positions whose second
            # half is all padding first, then by the order already known
            tail = order >= width
            by_second = np.concatenate((np.arange(n - width, n), order[tail] - width))
            second = np.concatenate((np.zeros(width, ranked.dtype), ranked[tail]))
            first = rank[by_second]
            perm = np.argsort(first, kind="stable")  # radix sort for 8/16-bit ranks
            order = by_second[perm]
            first, second = first[perm], second[perm]
            new = np.ones(n, dtype=bool)
            new[1:] = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
            ranked = np.cumsum(new, dtype=np.min_scalar_type(np.count_nonzero(new)))
            rank = np.empty_like(ranked)
            rank[order] = ranked
            width *= 2
        # binary lifting, for the adjacent pairs that differ within the
        # final width; every other pair shares at least l_max letters
        j = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        a, b = order[j - 1], order[j]
        common = np.zeros(j.size, dtype=np.int64)
        for k in reversed(range(len(levels))):
            r = levels[k]
            common += (r[a + common] == r[b + common]) * (1 << k)
        self.order = order
        self.lcp = np.full(n, l_max, dtype=np.min_scalar_type(l_max))
        self.lcp[0] = 0
        self.lcp[j] = np.minimum(common, l_max)

    def __len__(self) -> int:
        return self.arr.size

    def starts(self, length: int) -> int:
        """Number of start positions for factors of this length."""
        return self.arr.size - length + 1

    def ids(self, length: int) -> np.ndarray:
        """Group id at every start position, for one length."""
        return self.groups(length).ids

    def groups(self, length: int) -> FactorGroups:
        """Occurrence statistics per distinct factor of one length."""
        if not 1 <= length <= self.l_max:
            raise ValueError(f"length must be in 1..{self.l_max}")
        cached = self._groups_cache.get(length)
        if cached is not None:
            return cached
        m = self.starts(length)
        # by the padding rule, dropping the last L - 1 positions splits no group
        keep = self.order < m
        new = self.lcp[keep] < length
        count = int(np.count_nonzero(new))
        new[0] = False
        ids = np.empty(m, dtype=np.min_scalar_type(count - 1))
        ids[self.order[keep]] = np.cumsum(new, dtype=ids.dtype)
        _, first, second, last, counts, max_gap = _occurrence_stats(ids, count)
        groups = FactorGroups(length, ids, first, second, last, counts, max_gap)
        self._groups_cache[length] = groups
        return groups

    def factor_at(self, pos: int, length: int) -> tuple[int, ...]:
        return tuple(self.arr[pos : pos + length].tolist())

    def factor_of_group(self, length: int, g: int) -> tuple[int, ...]:
        return self.factor_at(int(self.groups(length).first[g]), length)

    def distinct_count(self, length: int) -> int:
        return self.groups(length).group_count

    def factor_set(self, length: int) -> set[tuple[int, ...]]:
        """All distinct factors of one length, as tuples."""
        cached = self._sets_cache.get(length)
        if cached is not None:
            return cached
        g = self.groups(length)
        out = {self.factor_at(int(p), length) for p in g.first}
        self._sets_cache[length] = out
        return out

    def contains(self, factor: tuple[int, ...]) -> bool:
        length = len(factor)
        if not 1 <= length <= self.l_max:
            raise ValueError(f"factor length must be in 1..{self.l_max}")
        return tuple(factor) in self.factor_set(length)

    def groups_starting_in(self, length: int, lo: int, hi: int) -> np.ndarray:
        """Group indices with at least one occurrence starting in [lo, hi).

        Ids double as group indices, so the distinct ids in the window
        are exactly the groups sought.
        """
        return np.unique(self.ids(length)[max(lo, 0) : max(hi, 0)])


class NaiveFactorScan:
    """Quadratic reference scanner with the same answers as FactorIndex."""

    def __init__(self, word: Word | np.ndarray, l_max: int):
        arr = word.to_array() if isinstance(word, Word) else np.asarray(word)
        self.symbols = tuple(int(x) for x in arr.tolist())
        self.l_max = l_max
        self._occ: dict[int, dict[tuple[int, ...], list[int]]] = {}
        for length in range(1, l_max + 1):
            table: dict[tuple[int, ...], list[int]] = {}
            for i in range(len(self.symbols) - length + 1):
                table.setdefault(self.symbols[i : i + length], []).append(i)
            self._occ[length] = table

    def occurrences(self, factor: tuple[int, ...]) -> list[int]:
        return self._occ[len(factor)].get(tuple(factor), [])

    def distinct_count(self, length: int) -> int:
        return len(self._occ[length])

    def factor_set(self, length: int) -> set[tuple[int, ...]]:
        return set(self._occ[length])

    def contains(self, factor: tuple[int, ...]) -> bool:
        return tuple(factor) in self._occ[len(factor)]

    def max_gap(self, factor: tuple[int, ...]) -> int:
        occ = self.occurrences(factor)
        if len(occ) < 2:
            return 0
        return max(b - a for a, b in zip(occ, occ[1:]))
