"""Cyclic-order pseudo-inverses of the run-length coding.

A fixed cyclic order ``b_1 b_2 ... b_n`` of the alphabet pins down every
expansion: the pseudo-inverse of an exponent word ``u`` starting at
letter ``α`` is ``α^u[1] s(α)^u[2] s²(α)^u[3] ...`` where ``s`` is the
cyclic successor.  Chaining pseudo-inverses through a control word grows
exponentially, so every materialising operation takes an output budget
and fails cleanly past it.  Chains expand level by level in bounded
chunks, the levels held in one flat list, so a chain of any depth
expands in memory linear in it, with no call nested per level.

Everything here is pure except :func:`expand_stream`'s returned
iterator, which is a single-owner cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ExpansionBudgetExceeded, InsufficientDepth
from .words import (
    DEFAULT_BUDGET,
    Alphabet,
    RunDecomposition,
    Word,
    _joined,
    _run_arrays,
    rle_reconstruct,
)

__all__ = [
    "DEFAULT_BUDGET",
    "CyclicOrder",
    "pseudo_inverse",
    "pseudo_inverse_chain",
    "pseudo_inverse_with_base",
    "phi_inverse_prefix",
    "phi_prefix",
    "expand_stream",
]


@dataclass(frozen=True)
class CyclicOrder:
    """A cyclic arrangement of the alphabet's letters.

    ``arrangement`` lists the letters in cycle order; the successor of
    the last letter wraps to the first.
    """

    alphabet: Alphabet
    arrangement: tuple[int, ...]

    def __post_init__(self) -> None:
        arrangement = tuple(int(x) for x in self.arrangement)
        object.__setattr__(self, "arrangement", arrangement)
        if sorted(arrangement) != list(self.alphabet.letters):
            raise ValueError("arrangement must be a permutation of the alphabet")

    @classmethod
    def from_letters(cls, letters: Iterable[int]) -> "CyclicOrder":
        """Build order and alphabet together from the cycle listing."""
        arrangement = tuple(int(x) for x in letters)
        return cls(Alphabet(tuple(sorted(arrangement))), arrangement)

    @property
    def size(self) -> int:
        return len(self.arrangement)

    @cached_property
    def cycle(self) -> np.ndarray:
        """The arrangement as a read-only array in the alphabet's dtype
        (one byte a letter up to 255), built once."""
        cycle = np.array(self.arrangement, dtype=self.alphabet.dtype)
        cycle.setflags(write=False)
        return cycle

    def position(self, letter: int) -> int:
        """0-based position of ``letter`` in the cycle."""
        try:
            return self.arrangement.index(letter)
        except ValueError:
            raise ValueError(f"{letter} is not in the cyclic order") from None

    def successor(self, letter: int) -> int:
        return self.advance(letter, 1)

    def advance(self, letter: int, k: int) -> int:
        """The letter ``k`` cyclic steps after ``letter``."""
        i = self.position(letter)
        return self.arrangement[(i + k) % self.size]


def _check_exponents(u: Word | np.ndarray) -> np.ndarray:
    arr = u.to_array() if isinstance(u, Word) else np.asarray(u, dtype=np.int64)
    if arr.size and int(arr.min()) < 1:
        raise ValueError("exponents must be positive")
    return arr


def pseudo_inverse(
    alpha: int,
    u: Word,
    order: CyclicOrder,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Word:
    """Expand an exponent word into runs whose bases walk the cyclic order.

    The i-th run is the (i-1)-th cyclic successor of ``alpha`` repeated
    ``u[i]`` times; the output length is the sum of the exponents.
    """
    order.position(alpha)  # validates membership
    exps = _check_exponents(u)
    # before anything is expanded; a float sum cannot wrap past int64
    if (total := exps.sum(dtype=np.float64)) > budget:
        raise ExpansionBudgetExceeded(
            f"expansion of {total:.0f} symbols exceeds budget {budget}"
        )
    return _joined(_chain_chunks((alpha,), exps, order), order.alphabet)


def pseudo_inverse_chain(
    p: Word | Iterable[int],
    u: Word,
    order: CyclicOrder,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Word:
    """Apply pseudo-inverses right-to-left through the control word ``p``.

    ``chain(p, u)`` expands with the last letter of ``p`` first, so the
    composition law ``chain(p1+p2, u) = chain(p1, chain(p2, u))`` holds.
    """
    letters = tuple(p)
    if not letters:
        _check_exponents(u)
        return u
    return _joined(_chain_pieces(letters, u, order, budget), order.alphabet)


def pseudo_inverse_with_base(u: Word, v: Word) -> Word:
    """Expand exponents ``u`` against an explicit base word ``v``.

    Requires equal lengths and adjacent-distinct bases, which makes the
    expansion exactly invertible by run-length coding: this is
    :func:`rle_reconstruct` of the decomposition ``(u, v)``.
    """
    return rle_reconstruct(RunDecomposition(u, v))


# ---------------------------------------------------------------------------
# level-by-level expansion
#
# Chains, substitution iterates and self-reading fixpoints are built level
# by level, each level mapping the chunks of the one below to its own.  One
# driver runs them over a flat list of level states, so depth meets no
# recursion limit and memory is one chunk per level.  A chain level turns
# exponent chunks into chunks of at most _CHUNK letters (a longer run is
# split), carrying its place in the cycle of run letters from one chunk to
# the next; the Kolakoski cursor's levels do the same over the period.

_CHUNK = 1 << 14
_MAX_LEVELS = 128  # mean run length r takes log_r(m/_HEAD) levels for m letters


class _Level:
    """``stage`` maps a chunk of the level below to an iterable of chunks
    of this one; ``pending`` holds those not yet taken, ``skip`` the
    letters still to drop from them and ``peak`` the largest taken."""

    __slots__ = ("stage", "pending", "skip", "peak")

    def __init__(self, stage, pending=(), skip=0) -> None:
        self.stage, self.pending, self.skip, self.peak = stage, iter(pending), skip, 0


def _drive(levels: list[_Level], grow=None) -> Iterator[np.ndarray]:
    """The chunks of ``levels[0]``: a level that runs dry maps the next
    chunk of the level below.  Past the last level the word ends, unless
    ``grow(depth)`` adds a level, as a self-reading word does up to
    _MAX_LEVELS of them."""
    depth = 0
    while True:
        if depth == len(levels):
            if grow is None:
                return
            if depth == _MAX_LEVELS:
                raise ValueError("the word grows too slowly to read itself")
            levels.append(grow(depth))
        level = levels[depth]
        chunk = next(level.pending, None)
        if chunk is None:
            depth += 1
            continue
        if level.skip:
            chunk, level.skip = chunk[level.skip :], max(level.skip - chunk.size, 0)
        if chunk.size > level.peak:
            level.peak = chunk.size
        if not depth:
            yield chunk
            continue
        depth -= 1
        levels[depth].pending = iter(levels[depth].stage(chunk))


def _expansion(cycle: np.ndarray, start: int):
    """A chain level's stage: an exponent chunk to the runs ``c[start]^e1
    c[start+1]^e2 ...`` (indices wrap) of the cycle ``c``, in chunks of its
    dtype; ``start`` carries on to the next chunk.

    A chunk's bases are one slice of a ring that repeats the cycle, tiled
    when a chunk first needs it and again only for a longer chunk.
    """
    ring = cycle

    def stage(exps: np.ndarray) -> Iterable[np.ndarray]:
        nonlocal ring, start
        if start + exps.size > ring.size:
            # np.tile's own steps cost more than this for a short ring
            ring = cycle[None].repeat(exps.size // cycle.size + 2, 0).ravel()
        bases = ring[start : start + exps.size]
        start = (start + exps.size) % cycle.size
        top = int(exps.max(initial=0))
        if exps.size * top <= 2 * _CHUNK:
            # one repeat and no running sum; two chunks are views of it
            out = bases.repeat(exps)
            return (out,) if out.size <= _CHUNK else (out[:_CHUNK], out[_CHUNK:])
        # parts whose running sums fit in intp, as letters and exponents may
        # come near 2^63; a chunk of 2^14 letters below 2^48 is one part
        step = exps.size if exps.size * top < 1 << 62 else (1 << 62) // top
        parts = range(0, exps.size, step)
        return (c for i in parts for c in _cut(bases[i : i + step], exps[i : i + step]))

    return stage


def _cut(bases: np.ndarray, exps: np.ndarray) -> Iterator[np.ndarray]:
    """``bases`` repeated ``exps`` times, in chunks of _CHUNK letters."""
    ends = exps.cumsum(dtype=np.intp)
    total = int(ends[-1])
    # kept in the narrowest dtype of its total, and searched with keys of
    # that dtype: a mixed-dtype search converts the whole array
    ends = ends.astype(np.min_scalar_type(total))
    key = ends.dtype.type
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        # runs i..j overlap the output slice [lo, hi); clip the outer two
        i, j = ends.searchsorted(key(lo), "right"), ends.searchsorted(key(hi))
        counts = exps[i : j + 1].copy()
        counts[0] -= lo - int(ends[i]) + int(exps[i])
        counts[-1] -= int(ends[j]) - hi
        yield bases[i : j + 1].repeat(counts)


def _chain_chunks(
    p: tuple[int, ...], exps: np.ndarray, order: CyclicOrder
) -> Iterator[np.ndarray]:
    """``chain(p, u)`` in chunks, ``u`` given as its checked exponents."""
    # built from the last letter, which expands first, so the first letter
    # outside the order that is reported is the last one in ``p``
    levels = [_Level(None, (exps,))]
    for alpha in reversed(p):
        levels.append(_Level(_expansion(order.cycle, order.position(alpha))))
    levels.reverse()
    return _drive(levels)


def _chain_pieces(
    p: tuple[int, ...], u: Word | np.ndarray, order: CyclicOrder, budget: int
) -> Iterator[np.ndarray]:
    """The letters of ``chain(p, u)`` in chunks, ``u`` whole if ``p`` is
    empty.  The arguments are checked on the call, the budget as chunks
    arrive: the chunk that passes it raises instead."""
    exps = _check_exponents(u)
    return _budgeted(_chain_chunks(p, exps, order), budget) if p else iter((exps,))


def _budgeted(chunks: Iterator[np.ndarray], budget: int) -> Iterator[np.ndarray]:
    total = 0
    for chunk in chunks:
        total += chunk.size
        if total > budget:
            raise ExpansionBudgetExceeded(
                f"expansion exceeds budget of {budget} symbols"
            )
        yield chunk


def expand_stream(
    p: Word | Iterable[int], u: Word, order: CyclicOrder
) -> Iterator[int]:
    """Letters of ``pseudo_inverse_chain(p, u)`` on demand.

    Never materialises intermediate words; state is one bounded chunk
    and one cyclic-order position per chain level.  The iterator is a
    single-owner cursor: do not share it between threads mid-iteration.
    """
    for chunk in _chain_chunks(tuple(p), _check_exponents(u), order):
        yield from chunk.tolist()


# ---------------------------------------------------------------------------
# the first-letter projection and its expansion inverse, on finite prefixes


def phi_inverse_prefix(
    u: Word,
    order: CyclicOrder,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Word:
    """Expand a directive word: chain its init through the final letter.

    ``u[1..k]`` maps to ``chain(u[1..k-1], (u[k],))``.  The map preserves
    the prefix relation, so growing directive words trace out prefixes of
    a single smooth infinite word.
    """
    return _joined(_phi_inverse_pieces(u, order, budget), order.alphabet)


def _phi_inverse_pieces(
    u: Word, order: CyclicOrder, budget: int
) -> Iterator[np.ndarray]:
    """:func:`phi_inverse_prefix` in chunks, as :func:`_chain_pieces`."""
    if not u:
        raise ValueError("directive word must be nonempty")
    arr = u.to_array()
    if not order.alphabet.admits(arr):
        raise ValueError("directive word has letters outside the cyclic order")
    return _chain_pieces(tuple(arr[:-1].tolist()), arr[-1:], order, budget)


def phi_prefix(w: Word, order: CyclicOrder, m: int) -> Word:
    """First letters of ``w`` and its first ``m-1`` run-length iterates.

    A prefix-marked word loses its final (truncated) exponent at every
    iteration level, so each reported first letter is certain; the depth
    that trimming can support is limited and a too-short prefix raises
    :class:`InsufficientDepth`.  An unmarked word is treated as exact
    and keeps its full run structure, which makes this the left inverse
    of :func:`phi_inverse_prefix` on available depth: expansions of a
    directive word round-trip to the directive exactly.
    """
    if m < 1:
        raise ValueError("m must be positive")
    out: list[int] = []
    cur = w.to_array()
    for depth in range(m):
        if cur.size == 0:
            raise InsufficientDepth(
                f"run-length iterate {depth} of the word is empty"
            )
        out.append(int(cur[0]))
        if depth < m - 1:
            cur, _ = _run_arrays(cur)
            if w.is_prefix:
                cur = cur[:-1]  # the final run's true length is unknown
    return Word(out, order.alphabet)
