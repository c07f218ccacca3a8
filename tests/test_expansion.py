import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    CyclicOrder,
    ExpansionBudgetExceeded,
    InsufficientDepth,
    Word,
    expand_stream,
    is_palindrome,
    kolakoski_prefix,
    parse_symbols,
    phi_inverse_prefix,
    phi_prefix,
    pseudo_inverse,
    pseudo_inverse_chain,
    pseudo_inverse_with_base,
    rle_encode,
)
from smoothwords.expansion import _CHUNK, _chain_chunks

ORDER_243 = CyclicOrder.from_letters((2, 4, 3))
ORDER_12 = CyclicOrder.from_letters((1, 2))
ORDER_13 = CyclicOrder.from_letters((1, 3))

exponent_words = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=12
).map(lambda xs: Word(tuple(xs)))


def test_cyclic_order_validation():
    with pytest.raises(ValueError):
        CyclicOrder(Alphabet((2, 3, 4)), (2, 4, 4))
    order = ORDER_243
    assert order.successor(2) == 4
    assert order.successor(4) == 3
    assert order.successor(3) == 2
    assert order.advance(2, 3) == 2
    with pytest.raises(ValueError):
        order.position(9)


def test_pseudo_inverse_worked_example():
    assert pseudo_inverse(2, Word((2, 4)), ORDER_243) == parse_symbols("2^2 4^4")


def test_pseudo_inverse_empty():
    assert pseudo_inverse(2, Word(()), ORDER_243) == ()


def test_pseudo_inverse_two_letter():
    assert pseudo_inverse(1, Word((2, 2)), ORDER_12) == (1, 1, 2, 2)


def test_pseudo_inverse_rejects_zero_exponent():
    with pytest.raises(ValueError):
        pseudo_inverse(2, Word((2, 0)), ORDER_243)


def test_pseudo_inverse_budget():
    with pytest.raises(ExpansionBudgetExceeded):
        pseudo_inverse(2, Word((5, 5, 5)), ORDER_243, budget=10)


def test_chain_worked_example():
    expected = parse_symbols(
        "2^3 4^3 3^2 2^2 4^4 3^4 2^4 4^4 3^3 2^3 4^3 3^3 "
        "2^2 4^2 3^2 2^2 4^4 3^4 2^4 4^4"
    )
    got = pseudo_inverse_chain((2, 3, 2), Word((2, 4)), ORDER_243)
    assert got == expected
    # the worked split identities for the same expansion
    inner = pseudo_inverse_chain((3, 2), Word((2, 4)), ORDER_243)
    assert pseudo_inverse_chain((2,), inner, ORDER_243) == expected
    first = pseudo_inverse_chain((2,), Word((2, 4)), ORDER_243)
    assert pseudo_inverse_chain((2, 3), first, ORDER_243) == expected


def test_chain_empty_is_identity():
    u = Word((3, 1, 4))
    assert pseudo_inverse_chain((), u, ORDER_243) is u


def test_cycle_is_built_once():
    order = CyclicOrder.from_letters((2, 4, 3))
    assert order.cycle is order.cycle
    # letters in the alphabet's smallest dtype, as the Kolakoski levels hold them
    assert order.cycle.dtype == np.uint8 and not order.cycle.flags.writeable
    assert order.cycle.tolist() == [2, 4, 3]
    # chains return int64 words, one chunk or many
    for p in [(2,), (2, 3, 4) * 3]:
        assert pseudo_inverse_chain(p, Word((2, 4)), order).to_array().dtype == np.int64


def test_chain_reports_its_last_letter_outside_the_order():
    # the last letter of p expands first, so it is checked first
    with pytest.raises(ValueError, match="^6 is not in the cyclic order$"):
        pseudo_inverse_chain((1, 5, 6), Word((1,)), ORDER_12)


def test_chain_empty_checks_exponents():
    # the same check as a nonempty chain makes
    for p in [(), (2,)]:
        with pytest.raises(ValueError, match="^exponents must be positive$"):
            pseudo_inverse_chain(p, Word((0, -5)), ORDER_243)


@settings(max_examples=200)
@given(
    exponent_words,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_chain_composition_law(u, split, depth):
    p = tuple(
        ORDER_243.arrangement[i % 3] for i in range(depth + split)
    )
    p1, p2 = p[:split], p[split:]
    whole = pseudo_inverse_chain(p, u, ORDER_243)
    nested = pseudo_inverse_chain(p1, pseudo_inverse_chain(p2, u, ORDER_243), ORDER_243)
    assert whole == nested


def test_chain_budget():
    with pytest.raises(ExpansionBudgetExceeded):
        pseudo_inverse_chain((2, 3, 2, 4, 2), Word((4, 4)), ORDER_243, budget=50)


def test_pseudo_inverse_budget_checked_before_expanding():
    # 10**15 letters: refused by the up-front check, before any chunk exists
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionBudgetExceeded):
            pseudo_inverse(2, Word((10**15,)), ORDER_243)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("exps", [(2**62,) * 3, (10**18 - 1,) * 10])
def test_pseudo_inverse_budget_check_sums_past_int64(exps):
    # the int64 sum of these wraps below the budget
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionBudgetExceeded):
            pseudo_inverse(1, Word(exps), ORDER_12, budget=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_with_base_examples():
    assert pseudo_inverse_with_base(Word((2, 3)), Word((1, 2))) == (1, 1, 2, 2, 2)
    assert pseudo_inverse_with_base(Word((1,)), Word((7,))) == (7,)
    with pytest.raises(ValueError):
        pseudo_inverse_with_base(Word((1, 2)), Word((3,)))
    with pytest.raises(ValueError):
        pseudo_inverse_with_base(Word((1, 2)), Word((5, 5)))
    with pytest.raises(ValueError):
        pseudo_inverse_with_base(Word((1, 0)), Word((3, 5)))


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=10))
def test_with_base_roundtrip(exponents):
    # any expansion run-length codes back to exactly (u, v)
    bases = [2 + (i % 2) for i in range(len(exponents))]
    u, v = Word(tuple(exponents)), Word(tuple(bases))
    rd = rle_encode(pseudo_inverse_with_base(u, v))
    assert rd.exponents == u and rd.bases == v


def test_with_base_commutes_with_permutation_and_reversal():
    # explicit-base identities: permuting the bases permutes the expansion,
    # and expanding reversed exponents over the bases reverses against the
    # reversed bases
    from smoothwords import Alphabet, Permutation, apply_permutation, reverse

    a123 = Alphabet((1, 2, 3))
    rng = np.random.default_rng(11)
    letters = a123.letters
    perms = [
        Permutation(dict(zip(letters, image)))
        for image in itertools.permutations(letters)
    ]
    for _ in range(200):
        k = int(rng.integers(1, 10))
        u = Word(tuple(rng.integers(1, 5, size=k).tolist()))
        v_syms = [int(rng.integers(1, 4))]
        while len(v_syms) < k:
            nxt = int(rng.integers(1, 4))
            if nxt != v_syms[-1]:
                v_syms.append(nxt)
        v = Word(tuple(v_syms), a123)
        for sigma in perms:
            lhs = apply_permutation(pseudo_inverse_with_base(u, v), sigma)
            rhs = pseudo_inverse_with_base(u, apply_permutation(v, sigma))
            assert lhs == rhs
        lhs = reverse(pseudo_inverse_with_base(reverse(u), v))
        rhs = pseudo_inverse_with_base(u, reverse(v))
        assert lhs == rhs


def test_stream_matches_materialised():
    u = Word((2, 4))
    chain = pseudo_inverse_chain((2, 3, 2), u, ORDER_243)
    assert list(expand_stream((2, 3, 2), u, ORDER_243)) == list(chain)
    assert list(expand_stream((), u, ORDER_243)) == list(u)


# ---------------------------------------------------------------------------
# differential tests of the chunked expander against a level-wise oracle


def levelwise_chain(p, u, order, limit):
    """chain(p, u) by one np.repeat per level; None once a level passes limit."""
    cycle = np.asarray(order.arrangement, dtype=np.int64)
    cur = np.asarray(u, dtype=np.int64)
    for alpha in reversed(p):
        start = order.position(alpha)
        cur = np.repeat(cycle[(start + np.arange(cur.size)) % order.size], cur)
        if cur.size > limit:
            return None  # levels never shrink, so the result is longer too
    return cur


@st.composite
def same_remainder_orders(draw):
    # drawn like smoothwords.verify._random_order: n letters n*q + r with
    # distinct quotients q in 1..5, in a random cyclic arrangement
    n = draw(st.integers(min_value=2, max_value=4))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    quotients = draw(
        st.lists(st.integers(1, 5), min_size=n, max_size=n, unique=True)
    )
    arrangement = draw(st.permutations([n * q + r for q in quotients]))
    return CyclicOrder.from_letters(arrangement)


@settings(max_examples=300, deadline=None)
@given(same_remainder_orders(), st.data())
def test_chain_and_stream_match_levelwise_oracle(order, data):
    p = data.draw(
        st.lists(st.sampled_from(order.arrangement), min_size=2, max_size=6)
    )
    u = Word(
        data.draw(st.lists(st.integers(1, 30), min_size=0, max_size=12))
    )
    limit = 32 * _CHUNK
    expected = levelwise_chain(p, u, order, limit)
    if expected is None:
        with pytest.raises(ExpansionBudgetExceeded):
            pseudo_inverse_chain(p, u, order, budget=limit)
        return
    got = pseudo_inverse_chain(p, u, order, budget=expected.size)
    assert np.array_equal(got.to_array(), expected)
    assert got.alphabet == order.alphabet
    streamed = np.fromiter(expand_stream(p, u, order), dtype=np.int64)
    assert np.array_equal(streamed, expected)
    if expected.size:
        with pytest.raises(ExpansionBudgetExceeded):
            pseudo_inverse_chain(p, u, order, budget=expected.size - 1)


def test_chain_crosses_chunks_and_splits_long_runs():
    # a single run longer than a chunk, and a deep chain over many chunks
    cases = [
        ((2,), (3 * _CHUNK + 5,), ORDER_12),
        ((1, 3, 1), (_CHUNK - 1, 1, _CHUNK + 1), ORDER_13),
        ((1, 2) * 12, (2, 2), ORDER_12),
        ((2, 4, 3) * 3, (7, 1, 9), ORDER_243),
    ]
    for p, u, order in cases:
        expected = levelwise_chain(p, u, order, 10**8)
        assert expected.size > 2 * _CHUNK
        got = pseudo_inverse_chain(p, Word(u), order)
        assert np.array_equal(got.to_array(), expected)
        streamed = np.fromiter(expand_stream(p, Word(u), order), dtype=np.int64)
        assert np.array_equal(streamed, expected)


def test_exponent_sums_past_int64_still_meet_the_budget():
    # ten exponents of 10^18 - 1 sum past 2^63; the running sums are taken
    # over parts of the chunk that fit, so letters come until the budget
    big = 10**18 - 1
    first = next(_chain_chunks((2,), np.array((big,) * 10), ORDER_12))
    assert first.size == _CHUNK and set(first.tolist()) == {2}
    with pytest.raises(ExpansionBudgetExceeded):
        pseudo_inverse_chain((2,), Word((big,) * 10), ORDER_12, budget=10**5)
    order = CyclicOrder.from_letters((1, big))
    with pytest.raises(ExpansionBudgetExceeded):
        pseudo_inverse_chain((1, big), Word((3, 5)), order, budget=10**5)


@pytest.mark.parametrize(
    "arrangement, p, u, dtype",
    [
        # two cases per dtype rule, each with a run longer than 2^14
        ((1, 2), (1, 2) * 9, (2, 3 * _CHUNK + 7, 1), np.uint8),
        ((2, 1), (1, 2, 2), (_CHUNK + 1, 2), np.uint8),
        ((1, 300), (300, 1), (20_000, 2), np.uint16),
        ((300, 1), (1,), (300, 20_000, 7), np.uint16),
        ((1, 70000), (70000, 1), (1, 2), np.uint32),
        ((70000, 1), (1,), (70000, 3, 40_000), np.uint32),
        ((1, 2**33), (1,), (3, 20_000, 5, 1), np.int64),
        ((2**33, 1), (2**33,), (2, _CHUNK + 3), np.int64),
    ],
)
def test_chain_chunks_match_an_int64_repeat_oracle(arrangement, p, u, dtype):
    # each chunk holds at most _CHUNK letters in the alphabet's smallest dtype
    order = CyclicOrder.from_letters(arrangement)
    assert order.cycle.dtype == dtype
    chunks = list(_chain_chunks(p, np.array(u), order))
    assert all(c.dtype == dtype and c.size <= _CHUNK for c in chunks)
    expected = levelwise_chain(p, u, order, 10**8)
    assert expected.size > _CHUNK
    assert np.array_equal(np.concatenate(chunks).astype(np.int64), expected)
    got = pseudo_inverse_chain(p, Word(u), order)
    assert got.to_array().dtype == np.int64
    assert np.array_equal(got.to_array(), expected)


@given(st.lists(st.integers(min_value=1, max_value=2**40), max_size=40))
def test_word_from_tuple_and_array_agree(xs):
    from_tuple = Word(tuple(xs))
    from_array = Word.from_array(np.array(xs, dtype=np.int64))
    assert from_tuple == from_array
    assert hash(from_tuple) == hash(from_array)
    assert hash(Word(np.array(xs, dtype=np.int64))) == hash(from_tuple)
    assert from_tuple == tuple(xs) and from_array.symbols == tuple(xs)


def test_stream_is_lazy():
    # pulling a handful of letters must not expand the whole word
    stream = expand_stream((1, 2) * 8, Word((2, 2)), ORDER_12)
    head = [next(stream) for _ in range(10)]
    assert len(head) == 10


# ---------------------------------------------------------------------------
# splitting / parity / palindrome lemmas


def test_splitting_lemma():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = Word(tuple(rng.integers(1, 5, size=rng.integers(1, 9)).tolist()))
        v = Word(tuple(rng.integers(1, 5, size=rng.integers(1, 9)).tolist()))
        alpha = int(ORDER_243.arrangement[rng.integers(0, 3)])
        uv = Word(u.symbols + v.symbols)
        beta = ORDER_243.advance(alpha, len(u) % 3)
        lhs = pseudo_inverse(alpha, uv, ORDER_243)
        rhs = Word(
            pseudo_inverse(alpha, u, ORDER_243).symbols
            + pseudo_inverse(beta, v, ORDER_243).symbols
        )
        assert lhs == rhs


def test_length_multiple_lemma():
    # same-remainder alphabet: expansions of n-divisible words stay n-divisible
    order = CyclicOrder.from_letters((9, 3, 6))
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        symbols = tuple(
            int(order.alphabet.letters[i]) for i in rng.integers(0, 3, size=3 * k)
        )
        out = pseudo_inverse(9, Word(symbols), order)
        assert len(out) % 3 == 0


def test_odd_length_lemma():
    for letters in [(1, 3), (3, 5)]:
        order = CyclicOrder.from_letters(letters)
        rng = np.random.default_rng(9)
        for _ in range(100):
            length = 2 * int(rng.integers(0, 5)) + 1
            symbols = tuple(
                int(letters[i]) for i in rng.integers(0, 2, size=length)
            )
            out = pseudo_inverse(letters[0], Word(symbols), order)
            assert len(out) % 2 == 1


def test_palindrome_preservation_exhaustive():
    # odd-length palindromes over odd 2-letter alphabets expand to the same
    for letters in [(1, 3), (3, 5)]:
        order = CyclicOrder.from_letters(letters)
        for length in range(1, 10, 2):
            half = (length + 1) // 2
            for head in itertools.product(letters, repeat=half):
                symbols = head + head[-2::-1]
                w = Word(symbols)
                assert is_palindrome(w)
                for alpha in letters:
                    out = pseudo_inverse(alpha, w, order)
                    assert len(out) % 2 == 1
                    assert is_palindrome(out)


def test_chain_splitting_over_divisible_parts():
    # concatenations of n-divisible parts split under chained expansion
    order = CyclicOrder.from_letters((9, 3, 6))
    letters = order.alphabet.letters
    rng = np.random.default_rng(10)
    for _ in range(100):
        parts = []
        for _ in range(2):  # n-1 parts with n-divisible length
            size = 3 * int(rng.integers(1, 3))
            parts.append(
                tuple(int(letters[i]) for i in rng.integers(0, 3, size=size))
            )
        parts.append(
            tuple(int(letters[i]) for i in rng.integers(0, 3, size=int(rng.integers(1, 7))))
        )
        p = tuple(int(letters[i]) for i in rng.integers(0, 3, size=int(rng.integers(1, 4))))
        whole = pseudo_inverse_chain(p, Word(sum(parts, ())), order)
        pieces = sum(
            (pseudo_inverse_chain(p, Word(part), order).symbols for part in parts),
            (),
        )
        assert whole == pieces


# ---------------------------------------------------------------------------
# directive words


def test_phi_inverse_single_letter():
    assert phi_inverse_prefix(Word((1,), ORDER_12.alphabet), ORDER_12) == (1,)


def test_phi_inverse_hand_example():
    assert phi_inverse_prefix(Word((1, 3), ORDER_13.alphabet), ORDER_13) == (1, 1, 1)


def test_phi_inverse_rejects_empty():
    with pytest.raises(ValueError):
        phi_inverse_prefix(Word((), ORDER_12.alphabet), ORDER_12)


def test_phi_inverse_limits_to_kolakoski():
    # expansions of a^k trace out growing prefixes of the fixpoint word
    # starting with a (the growth needs a > 1; all-1 directives stall)
    cases = [
        (CyclicOrder.from_letters((2, 4)), 2, (2, 4)),
        (CyclicOrder.from_letters((1, 2)), 2, (2, 1)),
        (CyclicOrder.from_letters((1, 3)), 3, (3, 1)),
    ]
    for order, a, period in cases:
        spec = BaseSequenceSpec(order.alphabet, period)
        k_word = kolakoski_prefix(spec, 20000)
        lengths = set()
        for k in range(1, 10):
            expansion = phi_inverse_prefix(Word((a,) * k, order.alphabet), order)
            lengths.add(len(expansion))
            assert expansion == Word(k_word.symbols[: len(expansion)])
        assert len(lengths) == 9  # strictly growing prefixes


def test_phi_inverse_all_ones_directive_stalls():
    # expanding a word of 1s never grows: the single-letter fixpoint edge
    for k in range(1, 8):
        got = phi_inverse_prefix(Word((1,) * k, ORDER_12.alphabet), ORDER_12)
        assert got == (1,)


def test_phi_inverse_prefix_monotone():
    for symbols in itertools.product((1, 2), repeat=8):
        u = Word(symbols, ORDER_12.alphabet)
        big = phi_inverse_prefix(u, ORDER_12)
        small = phi_inverse_prefix(Word(symbols[:-1], ORDER_12.alphabet), ORDER_12)
        assert big.symbols[: len(small)] == small.symbols


def test_phi_inverse_prepend_identity_exhaustive():
    # the palindrome check relies on phi_inverse(a·u) = pseudo_inverse(a, phi_inverse(u))
    alphabet = ORDER_13.alphabet
    for length in range(1, 8):
        for symbols in itertools.product((1, 3), repeat=length):
            parent = phi_inverse_prefix(Word(symbols, alphabet), ORDER_13)
            for a in (1, 3):
                child = phi_inverse_prefix(Word((a,) + symbols, alphabet), ORDER_13)
                assert child == pseudo_inverse(a, parent, ORDER_13)


def test_phi_prefix_on_kolakoski():
    spec = BaseSequenceSpec(ORDER_12.alphabet, (1, 2))
    w = kolakoski_prefix(spec, 200)
    assert phi_prefix(w, ORDER_12, 3) == (1, 1, 1)
    assert phi_prefix(w, ORDER_12, 1) == (w.symbols[0],)


def test_phi_prefix_roundtrip():
    assert phi_prefix(Word((1, 1, 1), ORDER_13.alphabet), ORDER_13, 2) == (1, 3)
    for symbols in itertools.product((1, 2), repeat=6):
        u = Word(symbols, ORDER_12.alphabet)
        expansion = phi_inverse_prefix(u, ORDER_12)
        assert phi_prefix(expansion, ORDER_12, len(u)) == u


def test_phi_prefix_insufficient_depth():
    with pytest.raises(InsufficientDepth):
        phi_prefix(Word((1,), ORDER_12.alphabet, is_prefix=True), ORDER_12, 3)
