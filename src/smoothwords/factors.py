"""Exact factor indexing for long words.

Each start position gets an exact key: its next l_max letters, ranked
1..b and padded with 0 past the end, packed as base-(b+1) digits into
as few uint64 columns as hold them.  Key order is lexicographic factor
order, so one sort of the keys gives the positions sorted by their
first l_max letters (a truncated suffix order).  The runs of equal keys
are the *fine groups*: the distinct factors of length l_max, plus one
singleton per position too close to the end to start one.  Adjacent
runs share as many letters as their keys share leading digits (the
capped LCP), and one reduction over the order gives each fine group's
first, second and last start and its size.

The groups of a shorter length L are LCP intervals too, so they are
runs of adjacent fine groups: a fine group starts a new group where its
LCP with the previous one is below L, and a singleton whose start is
past n - L is dropped (Abouelhoda, Kurtz & Ohlebusch, "Replacing suffix
trees with enhanced suffix arrays", 2004).  Each length is therefore a
merge of O(#fine groups) entries, in lexicographic factor order, with no
pass over the word.  Group ids per start position are a gather through
the length's fine-to-group table, made only when read, and so are the
maximal gaps that need them.  Two positions share an id iff the factors
are equal, so all the statistics (occurrence counts, first/second/last
occurrence, maximal gaps) are exact.

A deliberately naive quadratic scanner with the same interface is kept
as a test oracle.

Indexes are read-only after construction; scans over disjoint lengths
are independent, and reports built from them are merged by length then
lexicographic factor order, so results do not depend on scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .words import Word

__all__ = ["FactorGroups", "FactorIndex", "NaiveFactorScan"]


def _word_array(word: Word | np.ndarray) -> np.ndarray:
    arr = word.to_array() if isinstance(word, Word) else np.asarray(word)
    if arr.ndim != 1:
        raise ValueError(f"word must be 1-D, got {arr.ndim} dimensions")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"word must have an integer dtype, got {arr.dtype}")
    if not np.can_cast(arr.dtype, np.int64) and arr.size and arr.max() >= 1 << 63:
        raise ValueError("word letters must fit in int64")
    return arr


@dataclass(frozen=True)
class FactorGroups:
    """Per-distinct-factor occurrence statistics for one length.

    Group g collects the start positions (0-based) of the g-th distinct
    factor in lexicographic order; ``second`` is -1 and ``max_gap`` 0 if
    it occurs once.  ``ids`` and ``max_gap`` are computed when first read.
    """

    length: int
    first: np.ndarray
    second: np.ndarray
    last: np.ndarray
    count: np.ndarray
    # the group of every fine group, and the fine group of every position
    _table: np.ndarray = field(repr=False, compare=False, kw_only=True)
    _fine: np.ndarray = field(repr=False, compare=False, kw_only=True)

    @property
    def group_count(self) -> int:
        return self.first.size

    @cached_property
    def ids(self) -> np.ndarray:
        """Group id per start position, in the smallest unsigned dtype."""
        return self._table[self._fine[: self._fine.size - self.length + 1]]

    @cached_property
    def max_gap(self) -> np.ndarray:
        return _max_gaps(self.ids, self.group_count)[1]


def _max_gaps(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(present, max_gap)``: the ids (< size) present, and for each in
    order the largest distance between consecutive positions holding it."""
    order = np.argsort(ids, kind="stable")  # radix sort for 8/16-bit ids
    count = np.bincount(ids, minlength=size)
    present = np.flatnonzero(count)
    ends = np.cumsum(count[present])
    # gaps between consecutive occurrences; zeros at group boundaries
    gaps = np.empty_like(order)
    np.subtract(order[1:], order[:-1], out=gaps[:-1])
    gaps[ends - 1] = 0
    return present, np.maximum.reduceat(gaps, ends - count[present])


class FactorIndex:
    """Exact factor ids and occurrence statistics for lengths 1..l_max.

    ``order`` holds the start positions sorted by their first l_max
    letters, ties in any order (int32 below 2^31 letters), and ``fine``
    the fine group of every position, in text order.  Letters rank as
    dense ranks + 1 and the word is padded with rank 0, so a position
    near the end sorts below every factor it is a proper prefix of, in a
    fine group of its own.
    """

    def __init__(self, word: Word | np.ndarray, l_max: int):
        arr = _word_array(word)
        if l_max < 1:
            raise ValueError("l_max must be positive")
        if arr.size < l_max:
            raise ValueError("word shorter than l_max")
        self.arr = arr.astype(np.int64, copy=False)
        self.l_max = l_max
        self._groups_cache: dict[int, FactorGroups] = {}
        self._sets_cache: dict[int, set[tuple[int, ...]]] = {}
        self._from_cache: dict[int, np.ndarray] = {}
        n = self.arr.size
        distinct = np.unique(self.arr)
        base = distinct.size + 1  # rank 0 is the padding
        rank = np.searchsorted(distinct, self.arr) + 1
        letters = np.pad(rank.astype(np.min_scalar_type(base - 1)), (0, l_max))
        del distinct, rank
        # key columns: each packs the next ``per`` ranks as an exact
        # base-(b+1) number below 2^64, so key order is factor order
        per = 1
        while per < l_max and base ** (per + 1) <= 1 << 64:
            per += 1
        digits = [min(per, l_max - lo) for lo in range(0, l_max, per)]
        cols = []
        for lo, d in zip(range(0, l_max, per), digits):
            key = letters[lo : lo + n].astype(np.uint64)
            for t in range(lo + 1, lo + d):
                key *= base
                key += letters[t : t + n]
            cols.append(key)
        del letters
        # no stable sort: every fine-group statistic is a min, max or count
        order = np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols[::-1])
        order = order.astype(np.int32 if n < 2**31 else np.int64)
        # fine groups: the runs of equal keys, which share at least l_max
        # letters; adjacent positions in different runs share fewer
        new = np.zeros(n, dtype=bool)
        new[0] = True
        for key in cols:
            ranked = key[order]
            new[1:] |= ranked[1:] != ranked[:-1]
            del ranked
        self._starts = np.flatnonzero(new)
        del new
        # the capped LCP with the previous run: equal leading digits
        a, b = order[self._starts[1:] - 1], order[self._starts[1:]]
        self._lcp = np.zeros(self._starts.size, dtype=np.min_scalar_type(l_max))
        same = np.ones(a.size, dtype=bool)
        for key, d in zip(cols, digits):
            x, y = key[a], key[b]
            for e in reversed(range(d)):
                same &= x // base**e == y // base**e
                self._lcp[1:] += same
        del cols, key, a, b, x, y, same
        count = np.diff(self._starts, append=n)
        first = np.minimum.reduceat(order, self._starts)
        fine = np.repeat(
            np.arange(count.size, dtype=np.min_scalar_type(count.size - 1)), count
        )
        # the second start is the least one left once the first is masked
        masked = np.where(order == first[fine], n, order)
        self._second = np.minimum.reduceat(masked, self._starts).astype(np.int64)
        del masked
        self._first = first.astype(np.int64)
        self._last = np.maximum.reduceat(order, self._starts).astype(np.int64)
        self._count = count
        self.order = order
        self.fine = np.empty_like(fine)
        self.fine[order] = fine

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
        n = self.arr.size
        members, cuts = self._merge(length)
        first = self._first[members]
        group_first = np.minimum.reduceat(first, cuts)
        group_of = np.repeat(np.arange(cuts.size), np.diff(cuts, append=members.size))
        # the second start: the least first of the other fine groups, or
        # the second of the fine group holding the group's first start
        others = np.where(first == group_first[group_of], self._second[members], first)
        second = np.minimum.reduceat(others, cuts)
        second[second == n] = -1
        table = np.zeros(self._first.size, dtype=np.min_scalar_type(cuts.size - 1))
        table[members] = group_of
        groups = FactorGroups(
            length,
            group_first,
            second,
            np.maximum.reduceat(self._last[members], cuts),
            np.add.reduceat(self._count[members], cuts),
            _table=table,
            _fine=self.fine,
        )
        self._groups_cache[length] = groups
        return groups

    def _merge(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """``(members, cuts)`` for one length: the fine groups kept, in
        order, and where each group begins among them."""
        # a fine group starting past n - L is a near-end singleton
        members = np.flatnonzero(self._first < self.starts(length))
        new = self._lcp[members] < length
        new[0] = True
        return members, np.flatnonzero(new)

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

    def _first_from(self, lo: int) -> np.ndarray:
        """Per fine group, its least start >= lo (n if none)."""
        cached = self._from_cache.get(lo)
        if cached is None:
            n = self.arr.size
            later = np.where(self.order >= lo, self.order, n)
            cached = np.minimum.reduceat(later, self._starts).astype(np.int64)
            self._from_cache = {lo: cached}  # windows of one scan share lo
        return cached

    def window(self, length: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Groups with an occurrence starting in [lo, hi), in group order,
        and the first such start of each."""
        lo, hi = max(lo, 0), min(hi, self.starts(length))
        if lo >= hi:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
        start = self.groups(length).first
        if lo > 0:
            members, cuts = self._merge(length)
            start = np.minimum.reduceat(self._first_from(lo)[members], cuts)
        chosen = np.flatnonzero(start < hi)
        return chosen, start[chosen]

    def groups_starting_in(self, length: int, lo: int, hi: int) -> np.ndarray:
        """Group indices with at least one occurrence starting in [lo, hi)."""
        return self.window(length, lo, hi)[0]


class NaiveFactorScan:
    """Quadratic reference scanner with the same answers as FactorIndex."""

    def __init__(self, word: Word | np.ndarray, l_max: int):
        arr = _word_array(word)
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

    def max_gap(self, factor: tuple[int, ...]) -> int:
        occ = self.occurrences(factor)
        if len(occ) < 2:
            return 0
        return max(b - a for a, b in zip(occ, occ[1:]))
