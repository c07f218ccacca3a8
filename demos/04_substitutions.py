"""Block substitutions whose fixpoints are the run-length fixpoint words.

Each block stands for a short word over the alphabet; iterating the
substitution from its seed and flattening reproduces arbitrarily long
prefixes of the corresponding fixpoint word.  Primitivity of the
incidence matrix is what makes those fixpoints uniformly recurrent.
"""

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    CyclicOrder,
    build_sigma_even_n,
    build_sigma_r0,
    build_sing_even,
    build_sing_odd,
    flatten,
    format_symbols,
    incidence_matrix,
    is_primitive,
    iterate,
    verify_substitution_fixpoint,
)

# -- the four-letter remainder-2 alphabet --------------------------------------

alphabet = Alphabet((2, 6, 10, 14))
order = CyclicOrder(alphabet, (6, 10, 14, 2))
sub = build_sigma_even_n(alphabet, order)
print("blocks:")
for sym, block in sub.blocks.items():
    print(f"  {sym} = {format_symbols(block.expansion)}")
print("rules:")
print(sub.rule_table())
print()

for t in (1, 2):
    flat = flatten(sub, iterate(sub, "A1", t))
    print(f"flatten(sigma^{t}(A1)) = {format_symbols(flat[:60])}"
          + (" ..." if len(flat) > 60 else ""))
print()

primitive, k = is_primitive(sub)
print(f"primitive: {primitive} (least positive power k = {k})")
print("incidence matrix:")
print(incidence_matrix(sub).matrix)
print()

spec = BaseSequenceSpec(alphabet, (6, 10, 14, 2))
print("agrees with the fixpoint word to 10^4 letters:",
      verify_substitution_fixpoint(sub, spec, 10**4))
print()

# -- remainder 0: one rule shape for any size ----------------------------------

a369 = Alphabet((3, 6, 9))
sub369 = build_sigma_r0(a369, CyclicOrder(a369, (3, 6, 9)))
print(sub369.rule_table())
print("fixpoint:", verify_substitution_fixpoint(
    sub369, BaseSequenceSpec(a369, (3, 6, 9)), 10**4))
print()

# -- the classical 2-letter systems --------------------------------------------

even = build_sing_even(2, 4)
odd = build_sing_odd(3, 5)
print("even pair {2,4}:")
print(even.rule_table())
print("odd pair {3,5}:")
print(odd.rule_table())
print()

# -- a zero quotient forces a searched seed ------------------------------------

a13 = Alphabet((1, 3))
sub13 = build_sigma_even_n(a13, CyclicOrder(a13, (1, 3)))
print("{1,3} rules (note A1 cannot start itself):")
print(sub13.rule_table())
print("seed:", sub13.seed)
print("fixpoint:", verify_substitution_fixpoint(
    sub13, BaseSequenceSpec(a13, (1, 3)), 10**4))
