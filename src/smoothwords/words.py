"""Alphabets, finite words, run-length coding and the run-length derivative.

A word over an ordered alphabet ``a_1 < a_2 < ... < a_n`` of positive
integers decomposes uniquely into maximal runs.  The pair of sequences
(run lengths, run letters) is the run-length coding; the derivative is
the run-length sequence with short edge runs trimmed.  These operators,
together with reversal and letter permutations, are the primitive
vocabulary everything else in the package builds on.

All types here are immutable values and every operation is a pure
function, so they are safe to share between threads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidRuns, NotDifferentiable

__all__ = [
    "Alphabet",
    "Word",
    "RunDecomposition",
    "Permutation",
    "rle_encode",
    "rle_reconstruct",
    "derivative",
    "differentiability_order",
    "is_smooth_finite",
    "reverse",
    "apply_permutation",
    "is_palindrome",
    "parse_symbols",
    "format_symbols",
    "data_line_pieces",
    "write_word_pieces",
]

DEFAULT_BUDGET = 10**8  # most symbols one expansion may materialise
# letters per piece of the data plane: formatted, validated or counted at once
_WRITE_CHUNK = 2**16


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of positive integer letters.

    The letters' common remainder modulo ``n`` (the alphabet size), when
    it exists, controls most of the arithmetic in this package; alphabets
    whose letters disagree modulo ``n`` are still usable but report a
    ``remainder`` of ``None``.
    """

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = tuple(int(x) for x in self.letters)
        object.__setattr__(self, "letters", letters)
        if len(letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        if any(x < 1 for x in letters):
            raise ValueError("letters must be positive integers")
        if any(a >= b for a, b in zip(letters, letters[1:])):
            raise ValueError("letters must be strictly increasing")
        if letters[-1] >= 1 << 63:
            raise ValueError("alphabet letters must fit int64")

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def largest(self) -> int:
        return self.letters[-1]

    @property
    def remainder(self) -> int | None:
        """Common remainder of all letters modulo the alphabet size, or None."""
        n = self.size
        r = self.letters[0] % n
        return r if all(x % n == r for x in self.letters) else None

    @cached_property
    def dtype(self) -> np.dtype:
        """The smallest unsigned dtype of the letters, int64 from 2³² on,
        as numpy repeats no uint64 counts."""
        largest = np.int64(self.largest)
        return np.min_scalar_type(largest) if largest < 1 << 32 else np.dtype(np.int64)

    @cached_property
    def ranks(self) -> Callable[[np.ndarray], np.ndarray]:
        """Map of an integer array to each entry's rank among the letters:
        1 for ``a_1`` up to n for ``a_n``, 0 for an entry that is no letter."""
        return _rank_map(np.array(self.letters, dtype=np.int64))

    def admits(self, arr: np.ndarray) -> bool:
        """Whether every entry of an integer array is a letter."""
        # take copies a read-only index array, so long arrays go through
        # in bounded pieces
        if len(arr) <= _WRITE_CHUNK:
            return bool(self.ranks(arr).all())
        return all(self.ranks(piece).all() for piece in _split(arr))

    def __contains__(self, letter: int) -> bool:
        return letter in self.letters

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


def _rank_map(letters: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """:attr:`Alphabet.ranks` for the sorted distinct int64 ``letters``."""
    dtype = np.min_scalar_type(letters.size)
    if not letters.size or letters[0] >= 1 and letters[-1] < 1 << 16:
        # slot a holds a's rank; clipping sends negatives to slot 0 and
        # values past the last letter to the final slot, both 0
        table = np.zeros(int(letters.max(initial=0)) + 2, dtype=dtype)
        table[letters] = np.arange(1, letters.size + 1)
        return partial(table.take, mode="clip")
    return partial(_searched_ranks, letters, dtype)


def _searched_ranks(letters: np.ndarray, dtype: np.dtype, arr: np.ndarray):
    arr = arr.astype(np.int64, copy=False)  # uint64 against int64 is float
    at = letters.searchsorted(arr).clip(max=letters.size - 1)
    return np.where(letters.take(at) == arr, at + 1, 0).astype(dtype)


class Word:
    """A finite sequence of positive integer symbols.

    The symbols live in one read-only int64 numpy array (``to_array``);
    iteration and indexing return Python ints, and ``symbols`` is the
    same sequence as a tuple, built on demand.

    ``alphabet`` is optional: exponent words (images of the run-length
    coding) carry arbitrary positive integers and no alphabet.  When an
    alphabet is present every symbol must belong to it.

    ``is_prefix`` marks the word as a prefix of a longer (typically
    infinite) word, which makes the final run length a lower bound only.
    Operators that care (run-length coding, fixpoint checks) honour the
    mark; it never affects equality.  A slice that starts at 0 with step
    1 is again a prefix and keeps the mark; every other slice is
    unmarked.

    Equality and hashing compare symbols only.
    """

    __slots__ = ("_array", "alphabet", "is_prefix")

    def __init__(
        self,
        symbols: Iterable[int],
        alphabet: Alphabet | None = None,
        is_prefix: bool = False,
    ) -> None:
        if isinstance(symbols, Word):
            arr = symbols.to_array()  # read-only, so safe to share
        elif isinstance(symbols, np.ndarray):
            arr = symbols.astype(np.int64)
        else:
            arr = np.fromiter(symbols, dtype=np.int64)
        self._init(arr, alphabet, is_prefix, validate=True)

    @classmethod
    def from_array(
        cls,
        arr: np.ndarray,
        alphabet: Alphabet | None = None,
        *,
        is_prefix: bool = False,
        validate: bool = True,
    ) -> "Word":
        """Wrap a numpy array without copying, optionally skipping validation.

        The word keeps a read-only view of ``arr``; the caller must not
        write to ``arr`` afterwards.
        """
        w = cls.__new__(cls)
        w._init(np.asarray(arr, dtype=np.int64), alphabet, is_prefix, validate)
        return w

    def _init(
        self,
        arr: np.ndarray,
        alphabet: Alphabet | None,
        is_prefix: bool,
        validate: bool,
    ) -> None:
        arr = arr.view()
        arr.setflags(write=False)
        if validate and alphabet is not None and not alphabet.admits(arr):
            raise ValueError("word contains symbols outside its alphabet")
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "is_prefix", is_prefix)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self._array, self.alphabet, self.is_prefix))

    @property
    def symbols(self) -> tuple[int, ...]:
        """The symbols as a tuple of Python ints."""
        return tuple(self._array.tolist())

    def to_array(self) -> np.ndarray:
        """The symbols as a read-only int64 numpy array."""
        return self._array

    def __len__(self) -> int:
        return self._array.size

    def __bool__(self) -> bool:
        return self._array.size > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._array.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, _, step = item.indices(self._array.size)
            return Word.from_array(
                self._array[item],
                self.alphabet,
                is_prefix=self.is_prefix and start == 0 and step == 1,
                validate=False,
            )
        return int(self._array[item])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            # buffer equality: same shape and elements, cheap on short words
            return self._array.data == other._array.data
        if isinstance(other, (tuple, list)):
            return self._array.tolist() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        body = " ".join(map(str, self._array.tolist())) if self else "ε"
        return f"Word({body})"


def _joined(
    pieces: Iterable[np.ndarray],
    alphabet: Alphabet | None = None,
    is_prefix: bool = False,
) -> Word:
    """One int64 word of integer pieces, each held in its narrowest dtype
    until the join; a piece one byte wide or at its narrowest is not copied."""
    held = [np.empty(0, dtype=np.int64)]
    for piece in pieces:
        if piece.dtype.itemsize > 1 and piece.size:
            lo, hi = int(piece.min()), int(piece.max())
            narrow = np.min_scalar_type(hi if lo >= 0 else min(lo, -hi - 1))
            if narrow.itemsize < piece.dtype.itemsize:
                piece = piece.astype(narrow)
        held.append(piece)
    flat = np.concatenate(held, dtype=np.int64)
    return Word.from_array(flat, alphabet, is_prefix=is_prefix, validate=False)


@dataclass(frozen=True)
class RunDecomposition:
    """Run-length coding of a word: exponents (run lengths) and bases
    (run letters), plus a flag marking the final exponent as truncated.

    Invariants: equal lengths, adjacent bases distinct, and repeating
    each base by its exponent reproduces the source word.
    """

    exponents: Word
    bases: Word
    last_run_truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.bases):
            raise InvalidRuns("exponents and bases must have equal length")

    def __len__(self) -> int:
        return len(self.exponents)


class Permutation:
    """A bijection on letters that fit int64, applied symbol-wise to words."""

    def __init__(self, mapping: dict[int, int]):
        self.mapping = dict(mapping)
        if set(self.mapping) != set(self.mapping.values()):
            raise ValueError("mapping is not a bijection on its domain")
        if any(not -(1 << 63) <= a < 1 << 63 for a in self.mapping):
            raise ValueError("permutation letters must fit int64")

    @classmethod
    def complement(cls, alphabet: Alphabet) -> "Permutation":
        """The unique nonidentical permutation of a 2-letter alphabet."""
        if alphabet.size != 2:
            raise ValueError("complement is defined for 2-letter alphabets")
        a, b = alphabet.letters
        return cls({a: b, b: a})

    def __call__(self, letter: int) -> int:
        try:
            return self.mapping[letter]
        except KeyError:
            raise ValueError(
                f"symbol {letter} outside the permutation's domain"
            ) from None

    def label(self) -> str:
        """Deterministic textual form, e.g. 'perm:1->2,2->1'."""
        body = ",".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"perm:{body}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"Permutation({self.mapping!r})"


# ---------------------------------------------------------------------------
# run-length coding


def _run_arrays(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, letters) of the maximal runs of ``arr``."""
    # edge[i]: a run starts at position i; edge[n] marks the end
    edge = np.empty(arr.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(arr[1:], arr[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    return bounds[1:] - bounds[:-1], arr[bounds[:-1]]


def rle_encode(w: Word) -> RunDecomposition:
    """Run-length code a word into exponents and bases.

    Each run is maximal, so adjacent bases always differ.  The exponent
    word carries no alphabet (run lengths are arbitrary positive
    integers); the base word keeps the source alphabet.  A prefix-marked
    input yields ``last_run_truncated=True``: its final exponent is only
    a lower bound for the run it came from.
    """
    lengths, letters = _run_arrays(w.to_array())
    exponents = Word.from_array(lengths, None, validate=False)
    bases = Word.from_array(letters, w.alphabet, validate=False)
    return RunDecomposition(exponents, bases, last_run_truncated=w.is_prefix)


def rle_reconstruct(rd: RunDecomposition) -> Word:
    """Rebuild the word a run decomposition came from.

    Rejects decompositions with adjacent equal bases (the runs would
    merge, so no word has that coding) or non-positive exponents.
    """
    exps = rd.exponents.to_array()
    bases = rd.bases.to_array()
    if exps.size and exps.min() < 1:
        raise InvalidRuns("exponents must be positive")
    if bases.size > 1 and np.count_nonzero(bases[1:] == bases[:-1]):
        raise InvalidRuns("adjacent bases must differ")
    flat = bases.repeat(exps)
    return Word.from_array(flat, rd.bases.alphabet, validate=False)


# ---------------------------------------------------------------------------
# derivative


def derivative(w: Word) -> Word:
    """The run-length derivative: run lengths with short edge runs trimmed.

    Defined only when every interior run length is an alphabet letter and
    no run is longer than the largest letter ``a_n``; otherwise raises
    :class:`NotDifferentiable`.  Edge runs shorter than ``a_n`` are
    discarded; edge runs of length exactly ``a_n`` are kept.

    A prefix-marked word first loses its final run unconditionally (its
    true length is unknown), and the result is returned unmarked.
    """
    pieces = _derived_pieces(_split(w.to_array()), w.alphabet, w.is_prefix, 1)
    return _joined(pieces, w.alphabet)


class _Runs:
    """Run-length coding of a word fed in pieces: ``feed`` gives the
    (lengths, letters) of the runs that a piece closes, and the open last
    run waits for the next piece or for ``close``."""

    def __init__(self) -> None:
        self._open = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64))

    def feed(self, piece: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not piece.size:
            return self._open[0][:0], self._open[1][:0]
        lengths, letters = _run_arrays(piece)
        length, letter = self._open
        if length.size and letter[0] == letters[0]:
            lengths[0] += length[0]
        elif length.size:
            lengths = np.concatenate((length, lengths))
            letters = np.concatenate((letter, letters))
        self._open = lengths[-1:].copy(), letters[-1:].copy()
        return lengths[:-1], letters[:-1]

    def close(self) -> tuple[np.ndarray, np.ndarray]:
        return self._open


def _run_pieces(
    pieces: Iterable[np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lengths, letters) of the maximal runs of a word given in pieces,
    in pieces: the runs each piece closes, then the last run."""
    runs = _Runs()
    for piece in pieces:
        yield runs.feed(piece)
    yield runs.close()


class _Derivative:
    """One derivative of a word fed in pieces: ``feed`` gives the letters
    that a piece settles, ``close`` the rest.

    A fault stops the letters but not the checks, and is raised by
    ``close``: a run longer than ``a_n`` anywhere is reported before an
    interior run outside the alphabet, and a fault found while the word
    is still being read waits until it has all been read.
    """

    def __init__(self, alphabet: Alphabet, is_prefix: bool) -> None:
        self.alphabet, self.is_prefix = alphabet, is_prefix
        self._runs = _Runs()
        self._last = np.zeros(0, dtype=np.intp)  # an edge unless a run follows
        self._first = True  # the next settled run is the first edge
        self._fault: str | None = None

    def feed(self, piece: np.ndarray) -> np.ndarray:
        return self._settle(self._runs.feed(piece)[0])

    def close(self) -> np.ndarray:
        final = self._runs.close()[0]
        # a prefix's final run may go on past it: its length is unknown
        out = self._settle(final[:0] if self.is_prefix else final)
        if self._fault:
            raise NotDifferentiable(self._fault)
        a_n = self.alphabet.largest
        return np.concatenate((out, self._last[self._last == a_n]))

    def _settle(self, lengths: np.ndarray) -> np.ndarray:
        a_n = self.alphabet.largest
        if lengths.size and lengths.max() > a_n:  # reported before any other
            self._fault = f"run longer than a_n={a_n}"
        if self._fault:
            return lengths[:0]
        runs = np.concatenate((self._last, lengths))
        runs, self._last = runs[:-1], runs[-1:]
        edge = runs[:0]
        if self._first and runs.size:
            self._first = False
            edge, runs = runs[:1][runs[:1] == a_n], runs[1:]
        if not self.alphabet.admits(runs):
            self._fault = "interior run length outside the alphabet"
            return lengths[:0]
        return np.concatenate((edge, runs))


def _derived_pieces(
    pieces: Iterable[np.ndarray], alphabet: Alphabet, is_prefix: bool, times: int
) -> Iterator[np.ndarray]:
    """The ``times``-th derivative of a word given in pieces, in pieces.

    The derivatives are stages that each piece passes through in turn,
    not nested generators, so ``times`` meets no recursion limit.  A
    stage starts when letters first reach it; each shortens a nonempty
    word, so no more stages start than the word has letters.  Faults
    surface in the order of :func:`derivative` applied ``times`` times:
    an earlier stage's first.  A word without an alphabet raises
    ``ValueError`` when the first piece is asked for.
    """
    if alphabet is None:
        raise ValueError("derivative needs a word with an alphabet")
    stages: list[_Derivative] = []

    def through(piece: np.ndarray, first: int) -> np.ndarray:
        for k in range(first, times):
            if not piece.size:
                break
            if k == len(stages):
                stages.append(_Derivative(alphabet, is_prefix and k == 0))
            piece = stages[k].feed(piece)
        return piece

    for piece in pieces:
        yield through(piece, 0)
    # closing a stage can start the next one, which this loop then reaches
    for k, stage in enumerate(stages):
        yield through(stage.close(), k + 1)


def differentiability_order(w: Word, k: int) -> bool:
    """Whether the derivative stays defined through ``k`` applications."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if not (w and k):
        return True  # none to take, or the empty word: it differentiates forever
    try:
        for _ in _derived_pieces(_split(w.to_array()), w.alphabet, w.is_prefix, k):
            pass
    except NotDifferentiable:
        return False
    return True


def is_smooth_finite(w: Word) -> bool:
    """Whether a finite word is arbitrarily often differentiable.

    The derivative strictly shrinks nonempty words, so ``len(w)``
    applications reach the empty word.
    """
    return differentiability_order(w, len(w))


# ---------------------------------------------------------------------------
# reversal, permutations, palindromes


def reverse(w: Word) -> Word:
    return Word.from_array(w.to_array()[::-1], w.alphabet, validate=False)


def apply_permutation(w: Word, sigma: Permutation) -> Word:
    keys = sorted(sigma.mapping)
    arr = w.to_array()
    ranks = _rank_map(np.array(keys, dtype=np.int64))(arr)
    if not ranks.all():
        sigma(int(arr[ranks.argmin()]))  # raises: the symbol is outside the domain
    images = np.array([0, *map(sigma.mapping.get, keys)], dtype=np.int64)
    return Word.from_array(images[ranks], w.alphabet)


def is_palindrome(w: Word) -> bool:
    arr = w.to_array()
    return arr.data == arr[::-1].data


# ---------------------------------------------------------------------------
# shared text format: one word per line, decimal symbols separated by ASCII
# whitespace; "b^e" run tokens accepted on input, flat form on output.  Both
# directions work on bytes with numpy, in pieces of bounded size.
#
# Output formats one piece of at most _WRITE_CHUNK symbols at a time, in any
# integer dtype, so a word given in pieces (a generator's, one byte a letter
# up to letter 255) is written without being held.  Input goes through one
# piece reader, _symbol_pieces, which reads at most _PARSE_CHUNK bytes (32 KiB)
# at a time.  In a word file it reads line by line, never past a line's end:
# it skips blank and "#" lines in bounded parts, holding no line whole, and
# then parses the first data line only.  Each span it tokenises is the next
# _PARSE_CHUNK bytes of the line (or text), cut after their last whitespace,
# the rest carried into the next span; these are the spans the line would give
# if it were held whole, so tokens, errors and the per-span run budget do not
# depend on where reads end.  A non-ASCII byte
# anywhere in the line is reported before any other fault: a span that fails
# to parse has the rest of its line scanned for one first.

# text bytes read and tokenised per step; more than the longest valid token
# (39 bytes), so a span too long to hold a space is one invalid token.  A
# span's temporaries take about 20 bytes per text byte (32 for run tokens);
# at 32 KiB glibc keeps them on the heap from span to span, where 64 KiB
# spans were mapped or trimmed and faulted in again (40,500 against 5,400
# minor faults reading 5e6 one-digit letters)
_PARSE_CHUNK = 2**15
_MAX_DIGITS = 18  # every 18-digit number fits in int64

# byte classes of the text format; the sign, caret and bad-byte rules
# look only at bytes of a class above _DIGIT
_SPACE, _DIGIT, _CARET, _SIGN, _BAD = range(5)
_BYTE_CLASS = np.full(256, _BAD, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\v\f")] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[ord("^")] = _CARET
_BYTE_CLASS[list(b"+-")] = _SIGN
_CLASS_TABLE = _BYTE_CLASS.tobytes()  # the classes as a bytes.translate table
_NOT_ASCII = "word text must be ASCII"


def _token_error(data: np.ndarray, at: int, why: str) -> ValueError:
    """ValueError naming the token that holds byte ``at`` of ``data``."""
    spaces = np.flatnonzero(_BYTE_CLASS[data] == _SPACE)
    k = int(np.searchsorted(spaces, at))
    lo = int(spaces[k - 1]) + 1 if k else 0
    hi = int(spaces[k]) if k < spaces.size else data.size
    token = data[lo:hi].tobytes().decode("ascii")
    return ValueError(f"{why} in token {token[:40]!r}")


def _parse_span(data: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Symbols of a text span that starts and ends between tokens."""
    # edges[0::2] are the numbers' starts, edges[1::2] their ends
    digit = np.zeros(data.size + 2, dtype=bool)
    np.equal(classes, _DIGIT, out=digit[1:-1])
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = edges[0::2], edges[1::2]
    special = np.flatnonzero(classes > _DIGIT)
    if special.size:
        # c[i + 1] is the class of byte i, with a space at either end; a
        # sign opens a number after a space or caret, and a caret joins a
        # base's last digit to an exponent's first digit or sign
        c = np.empty(classes.size + 2, dtype=np.uint8)
        c[0] = c[-1] = _SPACE
        c[1:-1] = classes
        left, here, right = c[special], c[special + 1], c[special + 2]
        sign, caret = here == _SIGN, here == _CARET
        bad = here == _BAD
        bad |= sign & ((right != _DIGIT) | ((left != _SPACE) & (left != _CARET)))
        bad |= caret & ((left != _DIGIT) | ((right != _DIGIT) & (right != _SIGN)))
        if bad.any():
            raise _token_error(data, int(special[bad.argmax()]), "invalid text")
    if not starts.size:
        return np.empty(0, dtype=np.int64)
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_DIGITS:
        at = int(starts[lengths.argmax()])
        raise _token_error(data, at, f"more than {_MAX_DIGITS} digits")
    values = data[starts] - np.int64(ord("0"))
    for k in range(1, width):
        longer = np.flatnonzero(lengths > k)
        values[longer] = values[longer] * 10 + (data[starts[longer] + k] - ord("0"))
    if not special.size:
        return values
    # each sign sits just before the number it opens
    signs = special[sign]
    opened = np.searchsorted(starts, signs[data[signs] == ord("-")] + 1)
    values[opened] = -values[opened]
    # each caret ends its base, and the exponent is the next number
    runs = np.searchsorted(ends, special[caret]) + 1
    if not runs.size:
        return values
    chained = np.flatnonzero(np.diff(runs) == 1)  # an exponent is a base
    if chained.size:
        at = int(starts[runs[chained[0]]])
        raise _token_error(data, at, "more than one caret")
    if (values[runs] < 0).any():
        at = int(starts[runs[(values[runs] < 0).argmax()]])
        raise _token_error(data, at, "negative exponent")
    # each exponent is < 10^18, so the running sum passes the budget
    # before it can wrap around int64
    over = values[runs].cumsum() > DEFAULT_BUDGET
    if over.any():
        at = int(starts[runs[over.argmax()]])
        raise _token_error(data, at, f"runs past {DEFAULT_BUDGET} symbols")
    # a run's base is the number just before its exponent
    repeats = np.ones(values.size, dtype=np.int64)
    repeats[runs - 1] = values[runs]
    repeats[runs] = 0
    return np.repeat(values, repeats)


def _data_part(readline: Callable[[int], bytes]) -> bytes:
    """The first part of a word file's first data line that is not all
    whitespace, or ``b""`` if the file has no data line.

    Lines are read in parts of ``_PARSE_CHUNK`` bytes (a line's last part
    may be shorter), so blank and ``#`` lines are skipped without being
    held whole, and the part returned starts a whole number of spans into
    its line: where the spans of the whole line would start.
    """
    while part := readline(_PARSE_CHUNK):
        body = part.lstrip()
        if body.startswith(b"#"):  # skip the rest of the comment
            while not part.endswith(b"\n") and (part := readline(_PARSE_CHUNK)):
                pass
        elif body:
            return part
    return b""


def _symbol_pieces(handle: BinaryIO, line: bool) -> Iterator[np.ndarray]:
    """Symbols of a binary text stream, one int64 array per span.

    With ``line`` the stream is a word file: its blank and ``#`` lines
    are skipped and only the first other line is read and parsed.
    """
    read = handle.readline if line else handle.read

    def blocks(block: bytes) -> Iterator[bytes]:
        # ``block`` and the rest of the text, or of the line, after it
        while block:
            yield block
            if line and block.endswith(b"\n"):
                return
            block = read(_PARSE_CHUNK)

    rest = blocks(_data_part(read) if line else read(_PARSE_CHUNK))
    # one buffer for every span: a fresh copy per span, freed between the
    # pieces a caller keeps, fragments the heap (recur --input at 10^7
    # letters peaked 10 MB higher)
    buf = bytearray()
    while True:
        # one byte past the span tells whether the text ends with it
        while len(buf) <= _PARSE_CHUNK and (block := next(rest, b"")):
            buf += block
        if not buf:
            return
        last = len(buf) <= _PARSE_CHUNK
        data = np.frombuffer(buf, dtype=np.uint8, count=min(len(buf), _PARSE_CHUNK))
        try:
            if not buf.isascii():
                raise ValueError(_NOT_ASCII)
            classes = buf[: data.size].translate(_CLASS_TABLE)
            if not last:
                # end the span just after its last space, so no token is cut
                size = classes.rfind(_SPACE) + 1
                if not size:
                    raise _token_error(data, 0, "token too long")
                data, classes = data[:size], classes[:size]
            piece = _parse_span(data, np.frombuffer(classes, dtype=np.uint8))
        except ValueError:
            # a non-ASCII byte later in the text or line is reported first
            if not all(b.isascii() for b in chain([buf[data.size :]], rest)):
                raise ValueError(_NOT_ASCII) from None
            raise
        size = data.size
        del data  # the buffer cannot shrink while a view of it lives
        yield piece
        if last:
            return
        del buf[:size], piece  # the next span is parsed without this piece


def parse_symbols(text: str | bytes) -> Word:
    """Parse a word line, text or ASCII bytes, into a Word without an alphabet.

    Tokens are separated by ASCII whitespace (space, tab, newline,
    carriage return, vertical tab, form feed).  A token is a decimal
    number of at most 18 ASCII digits with an optional ``+`` or ``-``
    sign, or a run ``b^e`` of two such numbers, which repeats ``b``
    ``e >= 0`` times.  Any other text raises ``ValueError``, and so do
    runs of more than ``DEFAULT_BUDGET`` symbols within one 32 KiB span
    of the text.

    >>> parse_symbols("2^3 4^2 1") == (2, 2, 2, 4, 4, 1)
    True
    """
    raw = text.encode() if isinstance(text, str) else text
    return _joined(_symbol_pieces(io.BytesIO(raw), line=False))


def data_line_pieces(path: str) -> Iterator[np.ndarray]:
    """Symbols of a word file's first data line, in pieces of bounded size.

    Blank lines and ``#`` comment lines before it are skipped; the file
    is read in 32 KiB blocks, so neither it nor the line is held whole.
    A file without a data line gives no pieces (the empty word).
    """
    with open(path, "rb") as handle:
        yield from _symbol_pieces(handle, line=True)


# text of each byte value, NUL-padded to four bytes: b"7 \0\0" to b"255 "
_BYTE_TEXT = np.frombuffer(
    b"".join(f"{v} ".encode().ljust(4, b"\0") for v in range(256)), dtype=np.uint32
)


def _symbol_bytes(arr: np.ndarray) -> bytearray:
    """ASCII decimal bytes of a nonempty integer array, a space after each,
    in a new bytearray."""
    signed = arr.dtype.kind == "i" and bool(arr.min() < 0)
    if signed:
        negative = arr < 0
        # uint64 negation gives |v|, also for the smallest int64
        u = arr.astype(np.int64, copy=False).view(np.uint64)
        arr = np.where(negative, -u, u)
    top = int(arr.max())
    width = len(str(top))
    mag = arr.astype(np.min_scalar_type(top), copy=False)
    # rows of unequal width are padded with NULs, which one pass deletes
    padded = signed or width > 1 and int(mag.min()) < 10 ** (width - 1)
    if padded and mag.dtype == np.uint8 and not signed:
        buf = bytearray(4 * mag.size)
        np.take(_BYTE_TEXT, mag, out=np.frombuffer(buf, dtype=np.uint32), mode="clip")
        return buf.translate(None, b"\0")
    # one row per symbol: sign or NUL, digits or leading NULs, space
    buf = bytearray(mag.size * (signed + width + 1))
    out = np.frombuffer(buf, dtype=np.uint8).reshape(mag.size, -1)
    out[:, -1] = ord(" ")
    if signed:
        out[negative, 0] = ord("-")
    rest = mag
    for k in range(width):
        rest, digit = np.divmod(rest, 10)
        digit += ord("0")
        if k and padded:
            digit *= mag >= 10**k  # leading zeros are NULs
        out[:, -2 - k] = digit
    return buf.translate(None, b"\0") if padded else buf


def _split(arr: Sequence) -> Iterator[Sequence]:
    """An array, list or tuple in pieces of at most _WRITE_CHUNK symbols."""
    return (arr[i : i + _WRITE_CHUNK] for i in range(0, len(arr), _WRITE_CHUNK))


def _text_pieces(pieces: Iterable[np.ndarray]) -> Iterator[str]:
    """Flat text of a word given as integer pieces: each slice's text,
    and the space between slices, as strings."""
    sep = ""
    for piece in pieces:
        for part in _split(piece):
            # each part's last space is dropped and put before the next;
            # yielding it alone spares a copy of the part's text
            yield sep
            yield str(memoryview(_symbol_bytes(part))[:-1], "ascii")
            sep = " "


def _slice_text(items: Sequence) -> str:
    """Flat text of a list or tuple slice: byte kernels if it holds only
    ints (Python or numpy, no bools) that fit one integer dtype."""
    types = set(map(type, items))
    if all(t is int or issubclass(t, np.integer) for t in types):
        arr = np.asarray(items)
        if arr.dtype.kind in "iu":
            return str(memoryview(_symbol_bytes(arr))[:-1], "ascii")
    return " ".join([str(s) for s in items])


def format_symbols(symbols: Iterable[int] | np.ndarray) -> str:
    """Flat, space-separated decimal form of a word.

    A Word or an integer array is rendered with numpy byte kernels, and
    so is a list or tuple of at least _WRITE_CHUNK ints, one slice at a
    time; other symbols and shorter sequences (factors, mostly) with
    ``str``, whose text is the same.
    """
    if isinstance(symbols, Word):
        symbols = symbols.to_array()
    if isinstance(symbols, np.ndarray) and symbols.dtype.kind in "iu":
        return "".join(_text_pieces([symbols]))
    if isinstance(symbols, (list, tuple)) and len(symbols) >= _WRITE_CHUNK:
        return " ".join(map(_slice_text, _split(symbols)))
    return " ".join([str(s) for s in symbols])


def write_word_pieces(pieces: Iterable[np.ndarray], out) -> None:
    """Write one word, given as integer pieces, as one flat line.

    The pieces are formatted as they come, at most _WRITE_CHUNK symbols
    at a time, so a word produced piece by piece is never held whole.
    """
    out.writelines(_text_pieces(pieces))
    out.write("\n")
