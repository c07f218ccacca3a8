"""Primitive substitutions whose fixpoints are generalized Kolakoski words.

Construction happens at the level of blocks: each block symbol stands
for a short word over the alphabet (``Ai`` for the i-th cycle letter
repeated n times, ``Bi`` for a pair of adjacent cycle letters repeated r
times each), and the substitution maps block symbols to block words.
Three families are provided:

* remainder-0 alphabets of any size;
* positive-remainder alphabets of even size (two parity sub-cases that
  share one indexing scheme);
* 2-letter alphabets of even letters and of odd letters: the classical
  two- and three-block systems over symbols A, B, C, built as the n = 2
  cases of the two general families with their symbols renamed.

Raw subscripts in the general rules are reduced into range modulo n
(for A-blocks) and modulo n/2 (for B-blocks) at construction time.

A prolongable substitution's fixpoint ``u = σ(u)`` reads itself as the
Kolakoski word does, so one level engine (``kolakoski._level``) serves
both fixpoints: the fixpoint check streams the two words side by side
in bounded chunks instead of building an iterate.

Substitutions are immutable after construction; iteration is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NotProlongable
from .expansion import _CHUNK, CyclicOrder
from .kolakoski import _HEAD, BaseSequenceSpec, KolakoskiStream, _level
from .words import Alphabet, Word

__all__ = [
    "Block",
    "Substitution",
    "IncidenceMatrix",
    "build_sing_even",
    "build_sing_odd",
    "build_sigma_r0",
    "build_sigma_even_n",
    "build_substitution",
    "apply",
    "iterate",
    "flatten",
    "incidence_matrix",
    "is_primitive",
    "verify_substitution_fixpoint",
]

BlockWord = tuple[str, ...]
_Ragged = tuple[np.ndarray, np.ndarray]  # rows padded to the longest, entry mask


@dataclass(frozen=True)
class Block:
    """A named block and the word over the alphabet it stands for."""

    symbol: str
    expansion: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.expansion:
            raise ValueError("block expansion must be nonempty")


@dataclass
class Substitution:
    """A block morphism: rules from block symbols to nonempty block words."""

    rules: dict[str, BlockWord]
    blocks: dict[str, Block]
    alphabet: Alphabet
    order: CyclicOrder | None = None
    seed: str = ""

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("substitution needs at least one rule")
        for sym, rhs in self.rules.items():
            if not rhs:
                raise ValueError(f"rule for {sym} is empty")
            for s in rhs:
                if s not in self.rules:
                    raise ValueError(f"rule for {sym} uses unknown symbol {s}")
            if sym not in self.blocks:
                raise ValueError(f"no block definition for {sym}")
        if not self.seed:
            self.seed = _find_seed(self.rules)
        # symbol codes, rule images as codes and blocks as letters, in rules order
        self._code = code = {s: i for i, s in enumerate(self.rules)}
        self._images = _ragged([[code[s] for s in r] for r in self.rules.values()])
        self._letters = _ragged([self.blocks[s].expansion for s in self.rules])

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.rules)

    def rule_table(self) -> str:
        """The rules, one ``sym -> rhs`` line per symbol."""
        lines = [
            f"{sym} -> {' '.join(rhs)}" for sym, rhs in self.rules.items()
        ]
        return "\n".join(lines)


def _ragged(rows: list) -> _Ragged:
    width = max(map(len, rows))
    grid = np.array([[*r] + [0] * (width - len(r)) for r in rows], dtype=np.int64)
    return grid, np.arange(width) < np.array([len(r) for r in rows])[:, None]


def _gather(table: _Ragged, codes: np.ndarray) -> np.ndarray:
    """The rows ``codes`` of a ragged table, concatenated."""
    grid, mask = table
    return grid.take(codes, axis=0)[mask.take(codes, axis=0)]


def _find_seed(rules: dict[str, BlockWord]) -> str:
    """First symbol whose rule starts with itself, so iteration converges."""
    for sym, rhs in rules.items():
        if rhs[0] == sym:
            return sym
    return ""


def apply(sub: Substitution, bw: Sequence[str]) -> BlockWord:
    """Homomorphic extension of the rules to block words."""
    out: list[str] = []
    for sym in bw:
        try:
            out.extend(sub.rules[sym])
        except KeyError:
            raise ValueError(f"unknown block symbol {sym}") from None
    return tuple(out)


def iterate(sub: Substitution, seed: str, t: int) -> BlockWord:
    """Apply the substitution ``t`` times to the single symbol ``seed``."""
    if seed not in sub.rules:
        raise ValueError(f"unknown block symbol {seed}")
    if t < 0:
        raise ValueError("t must be non-negative")
    bw: BlockWord = (seed,)
    for _ in range(t):
        bw = apply(sub, bw)
    return bw


def flatten(sub: Substitution, bw: Sequence[str]) -> Word:
    """Replace each block symbol by its expansion over the alphabet."""
    codes = np.array([sub._code[sym] for sym in bw], dtype=np.intp)
    return Word.from_array(_gather(sub._letters, codes), sub.alphabet, validate=False)


# ---------------------------------------------------------------------------
# incidence matrix and primitivity


@dataclass(frozen=True)
class IncidenceMatrix:
    """Symbol-occurrence counts: entry (i, j) counts symbol i in rule j."""

    symbols: tuple[str, ...]
    matrix: np.ndarray

    def power(self, t: int) -> np.ndarray:
        return np.linalg.matrix_power(self.matrix, t)


def incidence_matrix(sub: Substitution) -> IncidenceMatrix:
    grid, mask = sub._images
    s = grid.shape[0]  # entry (i, j) counts symbol i in rule j
    m = np.bincount((grid * s + np.arange(s)[:, None])[mask], minlength=s * s)
    return IncidenceMatrix(sub.symbols, m.reshape(s, s))


def is_primitive(sub: Substitution) -> tuple[bool, int | None]:
    """Least power of the incidence matrix that is entrywise positive.

    Returns ``(True, k)`` with the least such k, which is at most
    (s-1)^2 + 1 for s symbols when it exists, else ``(False, None)``.
    """
    m = incidence_matrix(sub).matrix
    s = m.shape[0]
    reach = (m > 0).astype(np.int64)
    step = reach.copy()
    bound = (s - 1) ** 2 + 1
    for k in range(1, bound + 1):
        if k > 1:
            step = (step @ reach > 0).astype(np.int64)
        if step.all():
            return True, k
    return False, None


# ---------------------------------------------------------------------------
# builders


def _block_table(pairs: Iterable[tuple[str, tuple[int, ...]]]) -> dict[str, Block]:
    return {sym: Block(sym, exp) for sym, exp in pairs}


def _relabel(sub: Substitution, names: dict[str, str]) -> Substitution:
    """``sub`` with its symbols renamed by ``names``, rules in ``names`` order."""
    rules = {names[s]: tuple(names[x] for x in sub.rules[s]) for s in names}
    blocks = _block_table((names[s], sub.blocks[s].expansion) for s in names)
    return Substitution(rules, blocks, sub.alphabet, seed=names[sub.seed])


def build_sing_even(c1: int, c2: int) -> Substitution:
    """The two-block system for a 2-letter alphabet of even letters.

    Blocks A = c1 c1 and B = c2 c2; with c1 = 2m and c2 = 2n the rules
    are A -> A^m B^m and B -> A^n B^n.  This is :func:`build_sigma_r0`
    on the order (c1, c2) with A1, A2 renamed A, B.
    """
    if c1 % 2 or c2 % 2 or c1 < 2 or c2 < 2:
        raise ValueError("letters must be positive even integers")
    if c1 >= c2:
        raise ValueError("letters must be given in increasing order")
    order = CyclicOrder.from_letters((c1, c2))
    return _relabel(build_sigma_r0(order.alphabet, order), {"A1": "A", "A2": "B"})


def build_sing_odd(c1: int, c2: int) -> Substitution:
    """The three-block system for a 2-letter alphabet of odd letters.

    Blocks A = c1 c1, B = c1 c2, C = c2 c2; with c1 = 2m+1 and c2 = 2n+1
    the rules are A -> A^m B C^m, B -> A^m B C^n, C -> A^n B C^n.
    This is :func:`build_sigma_even_n` on the order (c1, c2) with A1,
    B1, A2 renamed A, B, C.  The degenerate case c1 = 1 (m = 0, rule
    A -> B) is rejected.
    """
    if c1 % 2 == 0 or c2 % 2 == 0 or c1 < 1 or c2 < 1:
        raise ValueError("letters must be positive odd integers")
    if c1 >= c2:
        raise ValueError("letters must be given in increasing order")
    if c1 == 1:
        raise ValueError("c1 = 1 degenerates the A rule; not constructible")
    order = CyclicOrder.from_letters((c1, c2))
    names = {"A1": "A", "B1": "B", "A2": "C"}
    return _relabel(build_sigma_even_n(order.alphabet, order), names)


def _order_quotients(order: CyclicOrder) -> tuple[int, tuple[int, ...]]:
    alphabet = order.alphabet
    r = alphabet.remainder
    if r is None:
        raise ValueError("alphabet letters must share a remainder mod n")
    n = alphabet.size
    qs = tuple((c - r) // n for c in order.arrangement)
    return r, qs


def build_sigma_r0(alphabet: Alphabet, order: CyclicOrder) -> Substitution:
    """The substitution for remainder-0 alphabets of any size.

    With cycle letters c_1..c_n (all multiples of n) and blocks
    A_i = c_i^n, each A_i maps to A_1^{q_i} A_2^{q_i} ... A_n^{q_i}.
    """
    if order.alphabet != alphabet:
        raise ValueError("order must arrange the given alphabet")
    r, qs = _order_quotients(order)
    if r != 0:
        raise ValueError("alphabet remainder must be 0")
    n = alphabet.size
    names = [f"A{i}" for i in range(1, n + 1)]
    rules: dict[str, BlockWord] = {}
    for i, q in enumerate(qs, start=1):
        if q < 1:
            raise ValueError("every quotient must be positive when r = 0")
        rhs: list[str] = []
        for name in names:
            rhs.extend([name] * q)
        rules[f"A{i}"] = tuple(rhs)
    blocks = _block_table(
        (f"A{i}", (c,) * n)
        for i, c in enumerate(order.arrangement, start=1)
    )
    return Substitution(rules, blocks, alphabet, order=order, seed="A1")


def build_sigma_even_n(alphabet: Alphabet, order: CyclicOrder) -> Substitution:
    """The substitution for positive-remainder alphabets of even size.

    Blocks are A_i = c_i^n for the n cycle letters and B_i =
    c_{2i-1}^r c_{2i}^r for the n/2 adjacent pairs.  The two parity
    sub-cases of r share the same A rules; they differ only in where the
    exponent switches from q_{2k+1} to q_{2k+2} inside the B rules.
    At most one quotient may be zero (its A powers simply vanish).
    """
    if order.alphabet != alphabet:
        raise ValueError("order must arrange the given alphabet")
    r, qs = _order_quotients(order)
    n = alphabet.size
    if r == 0:
        raise ValueError("remainder must be positive; use the r = 0 builder")
    if n % 2:
        raise ValueError("alphabet size must be even when the remainder is positive")
    m = n // 2
    h = r // 2
    if sum(1 for q in qs if q == 0) > 1:
        raise ValueError("at most one quotient may be zero")

    def a_name(raw: int) -> str:
        return f"A{(raw - 1) % n + 1}"

    def b_name(raw: int) -> str:
        return f"B{(raw - 1) % m + 1}"

    c = order.arrangement
    rules: dict[str, BlockWord] = {}

    def group(a_lo: int, b_raw: int, lead_q: int, trail_q: int) -> list[str]:
        part = [a_name(a_lo)] * lead_q
        part.append(b_name(b_raw))
        part.extend([a_name(a_lo + 1)] * trail_q)
        return part

    for i in range(1, n + 1):
        q = qs[i - 1]
        b_off = (i // 2) * r  # odd i: ((i-1)/2)r, even i: (i/2)r
        rhs: list[str] = []
        for t in range(1, m + 1):
            rhs.extend(group(2 * b_off + 2 * t - 1, b_off + t, q, q))
        rules[f"A{i}"] = tuple(rhs)

    for k in range(m):
        qa = qs[2 * k]  # q_{2k+1}
        qb = qs[2 * k + 1]  # q_{2k+2}
        rhs = []
        for t in range(1, r + 1):
            if r % 2 == 0:
                lead = trail = qa if t <= h else qb
            else:
                lead = qa if t <= h + 1 else qb
                trail = qa if t <= h else qb
            rhs.extend(group(2 * k * r + 2 * t - 1, k * r + t, lead, trail))
        rules[f"B{k + 1}"] = tuple(rhs)

    block_pairs = [
        (f"A{i}", (c[i - 1],) * n) for i in range(1, n + 1)
    ] + [
        (f"B{i}", (c[2 * i - 2],) * r + (c[2 * i - 1],) * r)
        for i in range(1, m + 1)
    ]
    # the seed's block starts the fixpoint word: A1 = c_1^n, or B1 =
    # c_1^r c_2^r when q_1 = 0 (A1's rule then opens with B1)
    seed = "A1" if qs[0] else "B1"
    return Substitution(
        rules, _block_table(block_pairs), alphabet, order=order, seed=seed
    )


def build_substitution(alphabet: Alphabet, order: CyclicOrder) -> Substitution:
    """Dispatch on the alphabet's arithmetic: r = 0 or r > 0 with even n."""
    if alphabet.remainder == 0:
        return build_sigma_r0(alphabet, order)
    return build_sigma_even_n(alphabet, order)


# ---------------------------------------------------------------------------
# fixpoint verification


def verify_substitution_fixpoint(
    sub: Substitution, spec: BaseSequenceSpec, m: int
) -> bool:
    """Whether the substitution's fixpoint agrees with the fixpoint word.

    The seed's fixpoint reads itself like the run-length fixpoint: each
    level emits the rule images of a deeper copy's symbols.  Its first
    ``m`` letters are compared chunk by chunk with the word over ``spec``.
    """
    seed = sub.seed
    if not seed or sub.rules[seed][0] != seed:
        raise NotProlongable("substitution has no prolongable seed")
    head = np.array([sub._code[seed]])
    while head.size < _HEAD:  # σ^t(seed) = σ(u[:reads]) = u[:head.size]
        reads, head = head.size, _gather(sub._images, head)
        if head.size == reads:
            raise ValueError("substitution does not grow from its seed")
    step = max(_CHUNK // sub._images[0].shape[1], 1)

    def images(chunks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
        for chunk in chunks:  # pieces whose images hold at most _CHUNK symbols
            for lo in range(0, chunk.size, step):
                yield _gather(sub._images, chunk[lo : lo + step])

    target = KolakoskiStream(spec)
    for chunk in _level(lambda: iter((head,)), images, reads, 0, []):
        # m < 1 leaves no letters, and taking none raises ValueError
        letters = _gather(sub._letters, chunk)[: max(m - target.position, 0)]
        if not np.array_equal(letters, target.take(letters.size).to_array()):
            return False
        if target.position == m:
            return True
