"""Exact factor indexing for long words, read in pieces.

Each start position gets an exact key: its next l_max letters, ranked
1..b and padded with 0 past the end, as base-(b+1) digits in one
``uint64`` (a record of several when they need more bits).  Key order is
factor order.  The distinct keys are the *fine groups*: the distinct
factors of length l_max, plus a singleton per position too close to the
end to start one.  The index keeps only them, in order, with their
first and second start, size, and capped LCP with the previous key
(equal leading digits).  Factors are decoded from the digits as 2-D
arrays of letter ranks, and looked up as keys packed from such arrays.

The index is built from one read of the word, in pieces of at most 2¹⁶
positions that carry l_max - 1 letters over from the next.  Each piece
becomes a sorted run of distinct keys, and runs merge like a binary
counter, two of one size at a time (Bentley & Saxe, "Decomposable
searching problems I", 1980): a stable sort of the pair, then a min /
min-of-others / sum reduction over equal keys.  No per-letter array
outlives its piece.

The groups of a shorter length L are LCP intervals too, so they are
runs of adjacent fine groups: a fine group starts a new group where its
LCP with the previous one is below L, and a singleton whose start is
past n - L is dropped (Abouelhoda, Kurtz & Ohlebusch, "Replacing suffix
trees with enhanced suffix arrays", 2004).  Each length is a merge of
O(#fine groups) entries, in lexicographic factor order.

Queries about positions read the word again, piece by piece, and look
each key up among the fine keys: first starts in a window, and maximal
gaps (``max_gaps``), which one pass gives for every length, over the
whole word and its first half, by mapping each piece's fine groups to
the length's groups, sorting them and carrying each group's last start
to the next piece.  Two positions share a group iff the factors are
equal, so all the statistics are exact.  A naive quadratic scanner with
the same answers is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .words import Alphabet, Word, _rank_map, _split

__all__ = ["FactorGroups", "FactorIndex", "NaiveFactorScan", "PieceSource"]

_NONE = np.iinfo(np.int64).max  # no second start yet
_END = 1 << 62  # past every position


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
class PieceSource:
    """A word over ``alphabet`` that can be read as often as needed.

    Each call of ``read()`` yields the word's letters from the first on,
    as 1-D integer arrays of any sizes, all of them letters of
    ``alphabet``.
    """

    alphabet: Alphabet
    read: Callable[[], Iterable[np.ndarray]]


@dataclass(frozen=True)
class FactorGroups:
    """Per-distinct-factor occurrence statistics for one length.

    Group g collects the start positions (0-based) of the g-th distinct
    factor in lexicographic order; ``second`` is -1 if it occurs once.
    """

    length: int
    first: np.ndarray
    second: np.ndarray
    count: np.ndarray

    @property
    def group_count(self) -> int:
        return self.first.size


def _column(keys: np.ndarray, c: int) -> np.ndarray:
    return keys if keys.dtype.names is None else keys[keys.dtype.names[c]]


def _combine(stats: tuple[np.ndarray, ...], new: np.ndarray):
    """``(first, second, count)`` of the runs of entries that ``new``
    marks the starts of."""
    if new.all():  # every run one entry
        return stats
    heads = np.flatnonzero(new)
    first, second, count = stats
    least = np.minimum.reduceat(first, heads)
    # the second start: the least first of the other entries, or the
    # second of the entry holding the run's first start
    spread = np.repeat(least, np.diff(heads, append=new.size))
    others = np.where(first == spread, second, first)
    return (
        least,
        np.minimum.reduceat(others, heads),
        np.add.reduceat(count, heads),
    )


def _changes(values: np.ndarray) -> np.ndarray:
    """Which entries of a sorted array differ from the one before."""
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    new[1:] = values[1:] != values[:-1]
    return new


def _distinct(keys: np.ndarray, kind: str):
    """``(order, distinct, new)``: the order that sorts ``keys``, the
    distinct keys in order, and which sorted keys differ from the last."""
    if keys.dtype.names is None:
        order = np.argsort(keys, kind=kind)
    else:  # stable, and faster than numpy's generic comparison of records
        order = np.lexsort([keys[name] for name in reversed(keys.dtype.names)])
    new = _changes(keys := keys[order])
    return order, keys[new], new


def _merge_runs(a, b):
    """One sorted run of the distinct keys of two, with combined stats."""
    # two sorted runs: the stable sort merges them in linear time
    order, keys, new = _distinct(np.concatenate((a[0], b[0])), "stable")
    stats = tuple(np.concatenate(pair)[order] for pair in zip(a[1], b[1]))
    return keys, _combine(stats, new)


def _fold_gaps(ids, start: int, cut: int, last, gap, half) -> None:
    """Fold the starts ``start, start + 1, ...`` with group ``ids`` into
    each group's last start and largest gap, and ``half``: its largest
    gap between starts before ``cut``."""
    # one value sort orders the offsets in the piece by group, then offset
    shift = ids.size.bit_length()
    dtype = np.uint32 if last.size << shift <= 1 << 32 else np.uint64
    packed = ids.astype(dtype) << shift | np.arange(ids.size, dtype=dtype)
    packed.sort()
    ids, off = packed >> shift, packed & dtype((1 << shift) - 1)
    heads = np.flatnonzero(_changes(ids))
    tails = np.append(heads[1:], ids.size) - 1
    g = ids[heads]
    step = np.empty(ids.size, dtype=np.int64)
    np.subtract(off[1:], off[:-1], out=step[1:], casting="unsafe")
    prev = last[g]
    step[heads] = np.where(prev >= 0, off[heads] + start - prev, 0)
    gap[g] = np.maximum(gap[g], np.maximum.reduceat(step, heads))
    if start < cut:
        step[off >= min(cut - start, ids.size)] = 0
        half[g] = np.maximum(half[g], np.maximum.reduceat(step, heads))
    last[g] = off[tails] + start


class FactorIndex:
    """Exact factor groups and occurrence statistics for lengths 1..l_max:
    per group its first and second start and count (``groups``), its
    letters (``factors``), its first start in a window (``window``) and
    its maximal gaps (``max_gaps``).

    ``word`` is a Word, an integer array or a :class:`PieceSource`.
    Letters rank 1..b in the order of the Word's or source's alphabet,
    else of the array's distinct letters (``letters``), and the word is
    padded with rank 0, so a position near the end sorts below every
    factor it is a proper prefix of, in a fine group of its own.
    """

    def __init__(self, word: Word | np.ndarray | PieceSource, l_max: int):
        if isinstance(word, PieceSource):
            alphabet = word.alphabet
            self._read = word.read
        else:
            arr = _word_array(word)
            alphabet = word.alphabet if isinstance(word, Word) else None
            self._read = lambda: (arr,)
        if alphabet:
            letters, self._rank = np.array(alphabet.letters), alphabet.ranks
        else:
            letters = np.unique(arr)
            self._rank = _rank_map(letters.astype(np.int64))
        if l_max < 1:
            raise ValueError("l_max must be positive")
        self.l_max = l_max
        self.letters = letters
        base = self._base = letters.size + 1  # rank 0 is the padding
        self._rank_dtype = np.min_scalar_type(letters.size)
        # key columns: each packs the next ``per`` ranks as an exact
        # base-(b+1) number below 2^64, so key order is factor order
        per = 1
        while per < l_max and base ** (per + 1) <= 1 << 64:
            per += 1
        self._per = per
        self._digits = [min(per, l_max - lo) for lo in range(0, l_max, per)]
        if len(self._digits) > 1:  # records compare field by field
            fields = [(f"c{c}", np.uint64) for c in range(len(self._digits))]
            self._key_dtype = np.dtype(fields)
        else:
            self._key_dtype = np.dtype(np.uint64)
        self._from_cache: dict[tuple[int, int], np.ndarray] = {}
        self._gap_cache: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
        # sorted runs, as a binary counter: (pieces merged, run)
        stack: list[tuple[int, tuple]] = []
        n = 0
        for start, keys in self._key_pieces(0, _END):
            n = start + keys.size
            pos, distinct, new = _distinct(keys, "quicksort")
            del keys
            pos += start  # each key is one start, and its own run
            none = np.broadcast_to(np.int64(_NONE), pos.shape)
            stats = (pos, none, np.broadcast_to(np.int64(1), pos.shape))
            run, size = (distinct, _combine(stats, new)), 1
            while stack and stack[-1][0] == size:
                run, size = _merge_runs(stack.pop()[1], run), 2 * size
            stack.append((size, run))
        if n < l_max:
            raise ValueError("word shorter than l_max")
        self._n = n
        run = stack.pop()[1]
        while stack:
            run = _merge_runs(stack.pop()[1], run)
        self._keys, self._stats = run
        # the capped LCP with the previous key: equal leading digits
        self._lcp = np.zeros(self._keys.size, dtype=np.min_scalar_type(l_max))
        same = np.ones(self._keys.size - 1, dtype=bool)
        for j in range(l_max):
            c, place = self._place(j)
            lead = _column(self._keys, c) // place  # its digits up to letter j
            same &= lead[1:] == lead[:-1]
            self._lcp[1:] += same

    def __len__(self) -> int:
        return self._n

    def starts(self, length: int) -> int:
        """Number of start positions for factors of this length."""
        return self._n - length + 1

    def _key_pieces(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, keys)`` of the positions in [lo, hi), in runs of at
        most 2¹⁶, from a fresh read of the word."""
        carry = self.l_max - 1
        held = np.zeros(0, dtype=self._rank_dtype)  # letters of unkeyed starts
        start = 0
        for part in self._ranked():
            held = np.concatenate((held, part))
            m = held.size - carry  # the starts whose letters are all read
            a, b = max(lo - start, 0), min(hi - start, m)
            if a < b:
                yield start + a, self._pack(held[a:], b - a)
            if m > 0:
                start, held = start + m, held[m:]
            if start >= hi:
                return

    def _ranked(self) -> Iterator[np.ndarray]:
        for piece in self._read():
            yield from map(self._rank, _split(np.asarray(piece)))
        yield np.zeros(self.l_max - 1, dtype=self._rank_dtype)  # past the end

    def _pack(self, ranks: np.ndarray, m: int) -> np.ndarray:
        """The keys of the first ``m`` starts of ``ranks``."""
        cols = []
        for lo, d in zip(range(0, self.l_max, self._per), self._digits):
            # ``block`` holds the keys of p digits at every start, for
            # p = 1, 2, 4, ...; the column joins those the bits of d pick
            block = ranks[lo : lo + m + d - 1].astype(np.uint64)
            key, width, p = None, 0, 1
            while True:
                if d & p:
                    tail = block[width : width + m]
                    key = tail if key is None else key * self._base**p + tail
                    width += p
                if 2 * p > d:
                    break
                block = block[:-p] * self._base**p + block[p:]
                p *= 2
            cols.append(key)
        return self._record(cols)

    def _record(self, cols: list[np.ndarray]) -> np.ndarray:
        """Keys from their leading columns; the columns left out are 0."""
        if self._key_dtype.names is None:
            return cols[0]
        keys = np.zeros(cols[0].size, dtype=self._key_dtype)
        for name, key in zip(self._key_dtype.names, cols):
            keys[name] = key
        return keys

    def _fine_pieces(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, fine groups)`` of the positions in [lo, hi), piece
        by piece, from a fresh read of the word."""
        for start, keys in self._key_pieces(lo, hi):
            yield start, np.searchsorted(self._keys, keys)

    def groups(self, length: int) -> FactorGroups:
        """Occurrence statistics per distinct factor of one length."""
        members, new = self._merge(length)
        first, second, count = _combine(tuple(s[members] for s in self._stats), new)
        second[second == _NONE] = -1
        return FactorGroups(length, first, second, count)

    def _check(self, length: int) -> None:
        if not 1 <= length <= self.l_max:
            raise ValueError(f"length must be in 1..{self.l_max}")

    def _merge(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """``(members, new)`` for one length: the fine groups kept, in
        order, and which of them begin a group."""
        self._check(length)
        # a fine group starting past n - L is a near-end singleton
        members = np.flatnonzero(self._stats[0] < self.starts(length))
        new = self._lcp[members] < length
        new[0] = True
        return members, new

    def _place(self, j: int) -> tuple[int, int]:
        """The key column that holds letter j (from 0) of a factor, and
        its place value there, as ``_pack`` lays keys out: the one map of
        letters to digits that the LCP, decoding and lookups share."""
        c, e = divmod(j, self._per)
        return c, self._base ** (self._digits[c] - 1 - e)

    def _heads(self, length: int) -> np.ndarray:
        """The key of each group of one length: its least fine key."""
        members, new = self._merge(length)
        return self._keys[members[new]]

    def ranks(self, length: int, groups: np.ndarray | None = None) -> np.ndarray:
        """The letter ranks of each group's factor (of every group, or of
        the listed ones), one row per group, decoded from the key digits;
        rank r stands for ``letters[r - 1]``."""
        keys = self._heads(length)
        keys = keys if groups is None else keys[groups]
        ranks = np.empty((keys.size, length), dtype=self._rank_dtype)
        for j in range(length):
            c, place = self._place(j)
            ranks[:, j] = _column(keys, c) // place % self._base
        return ranks

    def factors(self, length: int, groups: np.ndarray | None = None) -> np.ndarray:
        """The letters of each group's factor, as :meth:`ranks` lists them."""
        return self.letters[self.ranks(length, groups) - 1]

    def occurs(self, ranks: np.ndarray) -> np.ndarray:
        """Whether each row of ``ranks`` (as :meth:`ranks` gives them; a 0,
        for a letter outside the alphabet, matches no group) is a factor."""
        length = ranks.shape[1]
        heads = self._heads(length)
        # the group keys and the rows as keys, all digits past ``length`` 0
        end, place = self._place(length - 1)
        cut = [_column(heads, c) for c in range(end)]
        cut = self._record([*cut, _column(heads, end) // place * place])
        cols = [np.zeros(len(ranks), dtype=np.uint64) for _ in range(end + 1)]
        for j in range(length):
            c, place = self._place(j)
            cols[c] += ranks[:, j].astype(np.uint64) * place
        keys = self._record(cols)
        at = np.minimum(np.searchsorted(cut, keys), cut.size - 1)
        return cut[at] == keys

    def _first_from(self, lo: int, hi: int) -> np.ndarray:
        """Per fine group, its least start in [lo, hi) (n if none)."""
        cached = self._from_cache.get((lo, hi))
        if cached is None:
            cached = np.full(self._keys.size, self._n, dtype=np.int64)
            for start, fine in self._fine_pieces(lo, hi):
                np.minimum.at(cached, fine, np.arange(start, start + fine.size))
            self._from_cache = {(lo, hi): cached}  # windows of one scan share it
        return cached

    def window(self, length: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Groups with an occurrence starting in [lo, hi), in group order,
        and the first such start of each, from a read of the word."""
        members, new = self._merge(length)
        lo, hi = max(lo, 0), min(hi, self.starts(length))
        if lo >= hi:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
        first = self._first_from(lo, hi)[members]
        start = np.minimum.reduceat(first, np.flatnonzero(new))
        chosen = np.flatnonzero(start < hi)
        return chosen, start[chosen]

    def max_gaps(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """``(max_gap, half_max_gap)`` per group of one length: the
        largest distance between consecutive starts (0 if one), over the
        whole word and over the starts of its first n // 2 letters.  The
        first call makes one pass over the word for every length."""
        self._check(length)
        if self._gap_cache is None:
            half = self._n // 2
            dtype = np.min_scalar_type(-self._n)
            state = []  # per length: table, last start, max gap, half max gap
            for L in range(1, self.l_max + 1):
                members, new = self._merge(L)
                # the group of every fine group (0 for those not kept)
                owner = np.cumsum(new) - 1
                size = owner[-1] + 1
                table = np.zeros(self._keys.size, dtype=np.min_scalar_type(owner[-1]))
                table[members] = owner
                zeros = [np.zeros(size, dtype=dtype) for _ in range(2)]
                state.append((table, np.full(size, -1, dtype=dtype), *zeros))
            for start, fine in self._fine_pieces(0, self._n):
                for L, (table, last, gap, gap_half) in enumerate(state, 1):
                    ids = table[fine[: max(self.starts(L) - start, 0)]]
                    if ids.size:
                        _fold_gaps(ids, start, half - L + 1, last, gap, gap_half)
            self._gap_cache = {L: s[2:] for L, s in enumerate(state, 1)}
        return self._gap_cache[length]


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
