"""Cyclic-order pseudo-inverses of the run-length coding.

A fixed cyclic order ``b_1 b_2 ... b_n`` of the alphabet pins down every
expansion: the pseudo-inverse of an exponent word ``u`` starting at
letter ``α`` is ``α^u[1] s(α)^u[2] s²(α)^u[3] ...`` where ``s`` is the
cyclic successor.  Chaining pseudo-inverses through a control word grows
exponentially, so every materialising operation takes an output budget
and fails cleanly past it.  Chains expand level by level in bounded
chunks, so the streaming expander covers the long-prefix cases with
memory linear in chain depth.

Everything here is pure except :func:`expand_stream`'s returned
iterator, which is a single-owner cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ExpansionBudgetExceeded, InsufficientDepth
from .words import (
    DEFAULT_BUDGET,
    Alphabet,
    RunDecomposition,
    Word,
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
    total = int(_check_exponents(u).sum())
    if total > budget:  # before the chain expander allocates anything
        raise ExpansionBudgetExceeded(
            f"expansion of {total} symbols exceeds budget {budget}"
        )
    return pseudo_inverse_chain((alpha,), u, order, budget=budget)


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
        return u
    chunks: list[np.ndarray] = []
    total = 0
    for chunk in _chain_chunks(letters, u, order):
        total += chunk.size
        if total > budget:
            raise ExpansionBudgetExceeded(
                f"expansion exceeds budget of {budget} symbols"
            )
        chunks.append(chunk)
    return Word.from_array(np.concatenate(chunks), order.alphabet, validate=False)


def pseudo_inverse_with_base(u: Word, v: Word) -> Word:
    """Expand exponents ``u`` against an explicit base word ``v``.

    Requires equal lengths and adjacent-distinct bases, which makes the
    expansion exactly invertible by run-length coding: this is
    :func:`rle_reconstruct` of the decomposition ``(u, v)``.
    """
    return rle_reconstruct(RunDecomposition(u, v))


# ---------------------------------------------------------------------------
# chunked expansion
#
# A chain level turns a stream of exponent chunks into a stream of letter
# chunks of at most _CHUNK letters (one run longer than that is split),
# carrying its position in the cycle of run letters from one chunk to the
# next.  Memory is one chunk per chain level.  The Kolakoski generator
# expands its levels with the same function, its cycle being the period.

_CHUNK = 1 << 14


def _expand_chunks(
    cycle: np.ndarray, start: int, exponent_chunks: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Runs ``cycle[start]^e1 cycle[start+1]^e2 ...`` (indices wrap) in chunks."""
    ring = None  # the cycle repeated; later chunks' bases are one slice of it
    for exps in exponent_chunks:
        if ring is None:  # most calls expand one chunk: index the cycle
            bases = cycle.take(np.arange(start, start + exps.size) % cycle.size)
            ring = cycle
        else:
            if start + exps.size > ring.size:
                ring = np.tile(cycle, exps.size // cycle.size + 2)
            bases = ring[start : start + exps.size]
        start = (start + exps.size) % cycle.size
        if exps.sum() <= _CHUNK:
            yield bases.repeat(exps)
            continue
        # int64: a uint8 chunk's cumsum is uint64, which searchsorted(lo) converts whole
        ends = exps.cumsum(dtype=np.int64)
        total = int(ends[-1])
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            # runs i..j overlap the output slice [lo, hi); clip the outer two
            i, j = ends.searchsorted(lo, "right"), ends.searchsorted(hi)
            counts = exps[i : j + 1].copy()
            counts[0] -= lo - (ends[i] - exps[i])
            counts[-1] -= ends[j] - hi
            yield bases[i : j + 1].repeat(counts)


def _chain_chunks(
    p: tuple[int, ...], u: Word, order: CyclicOrder
) -> Iterator[np.ndarray]:
    cycle = np.asarray(order.arrangement, dtype=np.int64)
    chunks: Iterator[np.ndarray] = iter((_check_exponents(u),))
    for alpha in reversed(p):
        chunks = _expand_chunks(cycle, order.position(alpha), chunks)
    return chunks


def expand_stream(
    p: Word | Iterable[int], u: Word, order: CyclicOrder
) -> Iterator[int]:
    """Letters of ``pseudo_inverse_chain(p, u)`` on demand.

    Never materialises intermediate words; state is one bounded chunk
    and one cyclic-order position per chain level.  The iterator is a
    single-owner cursor: do not share it between threads mid-iteration.
    """
    for chunk in _chain_chunks(tuple(p), u, order):
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
    if not u:
        raise ValueError("directive word must be nonempty")
    arr = u.to_array()
    if not order.alphabet.admits(arr):
        raise ValueError("directive word has letters outside the cyclic order")
    last = Word.from_array(arr[-1:], order.alphabet, validate=False)
    return pseudo_inverse_chain(arr[:-1].tolist(), last, order, budget=budget)


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
