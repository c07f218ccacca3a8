"""Generating the fixpoints of run-length coding.

For every base sequence with distinct adjacent letters there is exactly
one word that equals its own run-length sequence.  The generator reads
its run lengths from an independent copy of itself, one level deeper,
so a cursor over the word keeps one bounded chunk per level and the
number of levels grows with the logarithm of the letters taken.
"""

import time

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    format_symbols,
    kolakoski_prefix,
    kolakoski_stream,
    rle_encode,
    verify_fixpoint_prefix,
)

# -- the classic word over {1,2} ----------------------------------------------

spec = BaseSequenceSpec(Alphabet((1, 2)), (1, 2))
w = kolakoski_prefix(spec, 19)
print("first 19 letters:", format_symbols(w))

rd = rle_encode(w)
print("its run lengths :", format_symbols(rd.exponents), "(a prefix of itself)")
print()

# -- generalized: four letters, all sharing remainder 2 mod 4 ------------------

spec4 = BaseSequenceSpec(Alphabet((2, 6, 10, 14)), (6, 10, 14, 2))
print("K over {2,6,10,14}:", format_symbols(kolakoski_prefix(spec4, 40)))
print()

# -- a million letters, checked against the fixpoint property ------------------

start = time.perf_counter()
big = kolakoski_prefix(spec, 10**6)
generated = time.perf_counter() - start
start = time.perf_counter()
ok = verify_fixpoint_prefix(big)
checked = time.perf_counter() - start
print(f"10^6 letters generated in {generated*1e3:.0f} ms, "
      f"fixpoint verified ({ok}) in {checked*1e3:.0f} ms")
print()

# -- the cursor continues where it stopped, with logarithmic state ------------

stream = kolakoski_stream(spec)
head = stream.take(10**5)
rest = stream.take(9 * 10**5)
print("two takes equal the prefix:", head == big[:10**5] and rest == big[10**5:])
print(
    f"{stream.position} letters from {stream.levels} levels, "
    f"at most {stream.peak_buffered} letters buffered "
    f"({stream.peak_buffered / stream.position:.2%} of the output)"
)
print()

# -- any admissible base sequence works, preperiods included -------------------

mixed = BaseSequenceSpec(Alphabet((1, 2, 3)), (1, 2), preperiod=(3,))
w = kolakoski_prefix(mixed, 30)
print("preperiod 3, period (1,2):", format_symbols(w))
print("bases recovered:", format_symbols(rle_encode(w).bases))
