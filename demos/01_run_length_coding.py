"""Run-length coding and the derivative, step by step.

A word over an ordered alphabet splits uniquely into maximal runs; the
run lengths form the exponent word and the run letters the base word.
The derivative keeps the run lengths but trims edge runs shorter than
the largest letter.  Words that survive arbitrarily many derivatives
are the smooth words.
"""

from smoothwords import (
    Alphabet,
    Word,
    derivative,
    differentiability_order,
    is_palindrome,
    is_smooth_finite,
    parse_symbols,
    rle_encode,
    rle_reconstruct,
)

# -- coding a word and reading it back --------------------------------------

w = Word(parse_symbols("2^2 1^3 3^5 7^6"))
rd = rle_encode(w)
print("word         :", w)
print("exponents    :", rd.exponents)
print("bases        :", rd.bases)
print("reconstructed:", rle_reconstruct(rd) == w)
print()

# -- derivatives over {1,2} --------------------------------------------------

a12 = Alphabet((1, 2))
w = Word((2, 2, 1, 1, 2), a12)
print("w      :", w)
print("D(w)   :", derivative(w))          # short last run dropped
print("D(2,2) :", derivative(Word((2, 2), a12)))  # full run kept
print("D(1)   :", derivative(Word((1,), a12)))    # single short run -> empty
print()

# -- a word that is 4-times but not 5-times differentiable -------------------

a13 = Alphabet((1, 3))
period = parse_symbols(
    "3^3 1^3 3^3 1 3 1 3^3 1^3 3^3 1 3^3 1 3^3 1^3 3^3 1 3 1 "
    "3^3 1^3 3^3 1 3^3 1^3 3^3 1"
)
w = Word(period.symbols * 4, a13)
for k in range(1, 6):
    print(f"{k}-times differentiable:", differentiability_order(w, k))
print()

# -- palindromes mirror through the coding ------------------------------------

for symbols in [(1, 2, 2, 1), (1, 2, 1, 2)]:
    w = Word(symbols, a12)
    rd = rle_encode(w)
    print(
        w,
        "palindrome:",
        is_palindrome(w),
        "| exponent/base palindromes:",
        is_palindrome(rd.exponents),
        is_palindrome(rd.bases),
    )
print()

# -- smooth words are rare ----------------------------------------------------

import itertools

smooth = sum(
    is_smooth_finite(Word(s, a12))
    for n in range(1, 13)
    for s in itertools.product((1, 2), repeat=n)
)
print("smooth words over {1,2} up to length 12:", smooth)
