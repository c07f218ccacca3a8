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
from typing import BinaryIO, Callable, Iterable, Iterator

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
    "read_data_line",
    "data_line_pieces",
    "write_words",
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

    @property
    def quotients(self) -> tuple[int, ...] | None:
        """Per-letter quotients q_i with a_i = n*q_i + r, when r is uniform."""
        r = self.remainder
        if r is None:
            return None
        n = self.size
        return tuple((x - r) // n for x in self.letters)

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

    def index(self, letter: int) -> int:
        return self.letters.index(letter)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


def _rank_map(letters: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """:attr:`Alphabet.ranks` for the sorted distinct int64 ``letters``."""
    dtype = np.min_scalar_type(letters.size)
    if letters.size and letters[0] >= 1 and letters[-1] < 1 << 16:
        # slot a holds a's rank; clipping sends negatives to slot 0 and
        # values past the last letter to the final slot, both 0
        table = np.zeros(int(letters[-1]) + 2, dtype=dtype)
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
        arr.flags.writeable = False
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
    """A bijection on an alphabet's letters, applied symbol-wise to words."""

    def __init__(self, mapping: dict[int, int]):
        self.mapping = dict(mapping)
        if set(self.mapping) != set(self.mapping.values()):
            raise ValueError("mapping is not a bijection on its domain")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Permutation":
        return cls({a: a for a in alphabet})

    @classmethod
    def complement(cls, alphabet: Alphabet) -> "Permutation":
        """The unique nonidentical permutation of a 2-letter alphabet."""
        if alphabet.size != 2:
            raise ValueError("complement is defined for 2-letter alphabets")
        a, b = alphabet.letters
        return cls({a: b, b: a})

    @classmethod
    def all_of(cls, alphabet: Alphabet) -> Iterator["Permutation"]:
        """All permutations of the alphabet, identity first."""
        import itertools

        letters = alphabet.letters
        for image in sorted(itertools.permutations(letters)):
            yield cls(dict(zip(letters, image)))

    def __call__(self, letter: int) -> int:
        try:
            return self.mapping[letter]
        except KeyError:
            raise ValueError(
                f"symbol {letter} outside the permutation's domain"
            ) from None

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping.items())

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
    if exps.size and (exps < 1).any():
        raise InvalidRuns("exponents must be positive")
    if bases.size > 1 and (bases[1:] == bases[:-1]).any():
        raise InvalidRuns("adjacent bases must differ")
    flat = np.repeat(bases, exps)
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
    if w.alphabet is None:
        raise ValueError("derivative needs a word with an alphabet")
    a_n = w.alphabet.largest
    lengths, _ = _run_arrays(w.to_array())
    if w.is_prefix and lengths.size:
        lengths = lengths[:-1]
    if lengths.size == 0:
        return Word((), w.alphabet)
    if int(lengths.max()) > a_n:
        raise NotDifferentiable(f"run longer than a_n={a_n}")
    interior = lengths[1:-1]
    if not w.alphabet.admits(interior):
        raise NotDifferentiable("interior run length outside the alphabet")
    lo = 1 if lengths[0] < a_n else 0
    hi = lengths.size - 1 if lengths[-1] < a_n else lengths.size
    if lengths.size == 1:
        # the single run is both first and last
        trimmed = lengths if lengths[0] == a_n else lengths[:0]
    else:
        trimmed = lengths[lo:hi] if lo <= hi else lengths[:0]
    return Word.from_array(trimmed, w.alphabet, validate=False)


def differentiability_order(w: Word, k: int) -> bool:
    """Whether the derivative stays defined through ``k`` applications."""
    if k < 0:
        raise ValueError("k must be non-negative")
    cur = w
    for _ in range(k):
        if not cur:
            return True  # the empty word differentiates forever
        try:
            cur = derivative(cur)
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
    keys = np.array(sorted(sigma.mapping), dtype=np.int64)
    arr = w.to_array()
    at = keys.searchsorted(arr)
    inside = at < keys.size
    inside[inside] = keys[at[inside]] == arr[inside]
    if not inside.all():
        sigma(int(arr[inside.argmin()]))  # raises: the symbol is outside the domain
    images = np.array([sigma.mapping[k] for k in keys.tolist()], dtype=np.int64)
    return Word.from_array(images[at], w.alphabet)


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
# piece reader, _symbol_pieces, which reads at most _PARSE_CHUNK bytes (64 KiB)
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
# (39 bytes), so a span too long to hold a space is one invalid token; a
# span's temporaries take about 24 bytes per text byte
_PARSE_CHUNK = 2**16
_MAX_DIGITS = 18  # every 18-digit number fits in int64

# byte classes of the text format; class 0 marks a byte no token may hold
_SPACE, _DIGIT, _CARET, _SIGN = 1, 2, 3, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\v\f")] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[ord("^")] = _CARET
_BYTE_CLASS[list(b"+-")] = _SIGN
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
    # padded classes: c[i + 1] is the class of data[i], with a space at
    # either end, so every byte has a left and a right neighbour
    c = np.empty(classes.size + 2, dtype=np.uint8)
    c[0] = c[-1] = _SPACE
    c[1:-1] = classes
    left, here, right = c[:-2], c[1:-1], c[2:]
    digit = here == _DIGIT
    # a sign opens a number after a space or caret; a caret joins a
    # base's last digit to an exponent's first digit or sign
    bad = here == 0
    bad |= (here == _SIGN) & (
        (right != _DIGIT) | ((left != _SPACE) & (left != _CARET))
    )
    bad |= (here == _CARET) & (
        (left != _DIGIT) | ((right != _DIGIT) & (right != _SIGN))
    )
    if bad.any():
        raise _token_error(data, int(bad.argmax()), "invalid text")
    starts = np.flatnonzero(digit & (left != _DIGIT))
    ends = np.flatnonzero(digit & (right != _DIGIT)) + 1
    lengths = ends - starts
    if not starts.size:
        return np.empty(0, dtype=np.int64)
    width = int(lengths.max())
    if width > _MAX_DIGITS:
        at = int(starts[lengths.argmax()])
        raise _token_error(data, at, f"more than {_MAX_DIGITS} digits")
    values = data[starts] - np.int64(ord("0"))
    for k in range(1, width):
        longer = np.flatnonzero(lengths > k)
        values[longer] = values[longer] * 10 + (data[starts[longer] + k] - ord("0"))
    # c[starts] is the class before each number; a sign implies starts >= 1
    signed = c[starts] == _SIGN
    np.negative(values, out=values, where=signed & (data[starts - 1] == ord("-")))
    exponent = np.where(signed, c[starts - 1], c[starts]) == _CARET
    if not exponent.any():
        return values
    chained = exponent & (c[ends + 1] == _CARET)
    if chained.any():
        at = int(starts[chained.argmax()])
        raise _token_error(data, at, "more than one caret")
    runs = np.flatnonzero(exponent)
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
    base = ~exponent
    return np.repeat(values[base], repeats[base])


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
            classes = _BYTE_CLASS[data]
            if not last:
                # end the span just after its last space, so no token is cut
                space = classes == _SPACE
                back = int(space[::-1].argmax())
                if not space[-1 - back]:
                    raise _token_error(data, 0, "token too long")
                data, classes = data[: data.size - back], classes[: data.size - back]
            piece = _parse_span(data, classes)
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
        del buf[:size]


def _join_pieces(pieces: Iterable[np.ndarray]) -> Word:
    """One word of the pieces, each held in its narrowest dtype until then."""
    held = [np.empty(0, dtype=np.int64)]
    for piece in pieces:
        if piece.size:
            top = max(-int(piece.min()), int(piece.max()))
            piece = piece.astype(np.min_scalar_type(-top - 1))
        held.append(piece)
    return Word.from_array(np.concatenate(held, dtype=np.int64), validate=False)


def parse_symbols(text: str | bytes) -> Word:
    """Parse a word line, text or ASCII bytes, into a Word without an alphabet.

    Tokens are separated by ASCII whitespace (space, tab, newline,
    carriage return, vertical tab, form feed).  A token is a decimal
    number of at most 18 ASCII digits with an optional ``+`` or ``-``
    sign, or a run ``b^e`` of two such numbers, which repeats ``b``
    ``e >= 0`` times.  Any other text raises ``ValueError``, and so do
    runs of more than ``DEFAULT_BUDGET`` symbols within one 64 KiB span
    of the text.

    >>> parse_symbols("2^3 4^2 1") == (2, 2, 2, 4, 4, 1)
    True
    """
    raw = text.encode() if isinstance(text, str) else text
    return _join_pieces(_symbol_pieces(io.BytesIO(raw), line=False))


def data_line_pieces(path: str) -> Iterator[np.ndarray]:
    """Symbols of a word file's first data line, in pieces of bounded size.

    Blank lines and ``#`` comment lines before it are skipped; the file
    is read in 64 KiB blocks, so neither it nor the line is held whole.
    A file without a data line gives no pieces (the empty word).
    """
    with open(path, "rb") as handle:
        yield from _symbol_pieces(handle, line=True)


def read_data_line(path: str) -> Word:
    """The first data line of a word file as a Word without an alphabet."""
    return _join_pieces(data_line_pieces(path))


def _symbol_bytes(arr: np.ndarray) -> np.ndarray:
    """ASCII decimal bytes of a nonempty integer array, a space after each."""
    negative = arr < 0
    signed = bool(negative.any())
    if signed:
        # uint64 negation gives |v|, also for the smallest int64
        u = arr.astype(np.int64, copy=False).view(np.uint64)
        arr = np.where(negative, -u, u)
    top = int(arr.max())
    width = len(str(top))
    mag = arr.astype(np.min_scalar_type(top))
    # one row per symbol: [sign] digits (leading zeros) space
    out = np.empty((mag.size, signed + width + 1), dtype=np.uint8)
    out[:, -1] = ord(" ")
    rest = mag
    for col in range(signed + width - 1, signed - 1, -1):
        rest, out[:, col] = np.divmod(rest, 10)
    out[:, signed:-1] += ord("0")
    if not signed and (width == 1 or mag.min() >= 10 ** (width - 1)):
        return out.reshape(-1)
    keep = np.ones(out.shape, dtype=bool)
    for k in range(1, width):
        np.greater_equal(mag, 10**k, out=keep[:, signed + width - 1 - k])
    if signed:
        out[:, 0] = ord("-")
        keep[:, 0] = negative
    return out[keep]


def _split(arr: np.ndarray) -> Iterator[np.ndarray]:
    """An array in pieces of at most _WRITE_CHUNK symbols."""
    return (arr[i : i + _WRITE_CHUNK] for i in range(0, arr.size, _WRITE_CHUNK))


def _text_pieces(pieces: Iterable[np.ndarray]) -> Iterator[str]:
    """Flat text of a word given as integer pieces, one string per piece."""
    sep = ""
    for piece in pieces:
        if piece.size:
            # each piece's last space is dropped and put before the next
            yield sep + str(_symbol_bytes(piece)[:-1].data, "ascii")
            sep = " "


def format_symbols(symbols: Iterable[int] | np.ndarray) -> str:
    """Flat, space-separated decimal form of a word.

    A Word or an integer array is rendered with numpy byte kernels; a
    tuple, list or other iterable (short factors, mostly) with ``str``.
    """
    if isinstance(symbols, Word):
        symbols = symbols.to_array()
    if isinstance(symbols, np.ndarray) and symbols.dtype.kind in "iu":
        return "".join(_text_pieces(_split(symbols)))
    return " ".join([str(s) for s in symbols])


def write_word_pieces(pieces: Iterable[np.ndarray], out) -> None:
    """Write one word, given as integer pieces, as one flat line.

    The pieces are formatted as they come, so a word produced piece by
    piece is never held whole.
    """
    out.writelines(_text_pieces(pieces))
    out.write("\n")


def write_words(words: Iterable[Word], out) -> None:
    """Write words one per line in flat form, newline-terminated.

    Each word is written in pieces of bounded size, so its whole text
    never exists at once.
    """
    for w in words:
        write_word_pieces(_split(Word(w).to_array()), out)
