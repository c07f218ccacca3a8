import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothwords import (
    Alphabet,
    BaseSequenceSpec,
    Block,
    CyclicOrder,
    NotProlongable,
    Substitution,
    apply,
    build_sigma_even_n,
    build_sigma_r0,
    build_sing_even,
    build_sing_odd,
    build_substitution,
    flatten,
    incidence_matrix,
    is_primitive,
    iterate,
    kolakoski_prefix,
    kolakoski_stream,
    parse_symbols,
    verify_substitution_fixpoint,
)
from smoothwords.expansion import _CHUNK
from smoothwords.verify import SIGMA1_ITERATE_2, SIGMA1_RULES, SIGMA2_RULES


def sigma1():
    a = Alphabet((2, 6, 10, 14))
    return build_sigma_even_n(a, CyclicOrder(a, (6, 10, 14, 2)))


def sigma2():
    a = Alphabet((1, 5, 9, 13))
    return build_sigma_even_n(a, CyclicOrder(a, (5, 9, 13, 1)))


# ---------------------------------------------------------------------------
# builders


def test_sing_even_rules():
    sub = build_sing_even(2, 4)
    assert sub.rules == {"A": ("A", "B"), "B": ("A", "A", "B", "B")}
    assert sub.blocks["A"].expansion == (2, 2)
    assert sub.blocks["B"].expansion == (4, 4)


def test_sing_even_rejects_odd():
    with pytest.raises(ValueError):
        build_sing_even(3, 4)
    with pytest.raises(ValueError):
        build_sing_even(4, 2)


def test_sing_odd_rules():
    sub = build_sing_odd(3, 5)
    assert sub.rules == {
        "A": ("A", "B", "C"),
        "B": ("A", "B", "C", "C"),
        "C": ("A", "A", "B", "C", "C"),
    }
    assert sub.blocks["B"].expansion == (3, 5)


def test_sing_odd_rejects_degenerate():
    with pytest.raises(ValueError):
        build_sing_odd(1, 3)


def test_sigma_r0_tables():
    a = Alphabet((3, 6, 9))
    sub = build_sigma_r0(a, CyclicOrder(a, (3, 6, 9)))
    assert sub.rules["A1"] == ("A1", "A2", "A3")
    assert sub.rules["A2"] == ("A1",) * 2 + ("A2",) * 2 + ("A3",) * 2
    assert sub.rules["A3"] == ("A1",) * 3 + ("A2",) * 3 + ("A3",) * 3
    a24 = Alphabet((2, 4))
    sub24 = build_sigma_r0(a24, CyclicOrder(a24, (2, 4)))
    assert sub24.rules == {
        "A1": ("A1", "A2"),
        "A2": ("A1", "A1", "A2", "A2"),
    }


def test_sigma_r0_rejects_nonzero_remainder():
    a = Alphabet((1, 2))
    with pytest.raises(ValueError):
        build_sigma_r0(a, CyclicOrder(a, (1, 2)))


def test_sigma_even_n_tables_match_worked_examples():
    assert sigma1().rules == SIGMA1_RULES
    assert sigma2().rules == SIGMA2_RULES
    assert sigma1().blocks["B1"].expansion == (6, 6, 10, 10)
    assert sigma1().blocks["B2"].expansion == (14, 14, 2, 2)
    assert sigma2().blocks["B1"].expansion == (5, 9)
    assert sigma2().blocks["B2"].expansion == (13, 1)


def test_sigma_even_n_rejects_odd_size():
    a = Alphabet((1, 4, 7))
    with pytest.raises(ValueError):
        build_sigma_even_n(a, CyclicOrder(a, (1, 4, 7)))


def test_dispatch():
    a = Alphabet((3, 6, 9))
    assert build_substitution(a, CyclicOrder(a, (3, 6, 9))).rules["A1"] == (
        "A1",
        "A2",
        "A3",
    )
    a13 = Alphabet((1, 3))
    sub = build_substitution(a13, CyclicOrder(a13, (1, 3)))
    # zero quotient: the word starts with the block of B1
    assert sub.seed == "B1"
    assert verify_substitution_fixpoint(
        sub, BaseSequenceSpec(a13, (1, 3)), 10**4
    )


ZERO_QUOTIENT_ORDERS = [
    (letters[0],) + rest
    for letters in [(1, 5, 9, 13), (3, 7, 11, 15), (1, 7, 13, 19, 25, 31)]
    for rest in itertools.permutations(letters[1:])
]


@pytest.mark.parametrize(
    "order", ZERO_QUOTIENT_ORDERS, ids=lambda o: "-".join(map(str, o))
)
def test_zero_quotient_orders_seed_from_b1(order):
    # q_1 = 0: the word starts with c_1^r c_2^r, the block of B1, not A1
    a = Alphabet(tuple(sorted(order)))
    sub = build_substitution(a, CyclicOrder(a, order))
    assert sub.seed == "B1"
    assert verify_substitution_fixpoint(sub, BaseSequenceSpec(a, order), 10**4)


def test_sing_matches_general_construction():
    # the 2-letter systems are relabelings of the general builders
    even_general = build_sigma_r0(
        Alphabet((2, 4)), CyclicOrder(Alphabet((2, 4)), (2, 4))
    )
    even_sing = build_sing_even(2, 4)
    rename = {"A1": "A", "A2": "B"}
    assert {
        rename[k]: tuple(rename[s] for s in v)
        for k, v in even_general.rules.items()
    } == even_sing.rules

    odd_general = build_sigma_even_n(
        Alphabet((3, 5)), CyclicOrder(Alphabet((3, 5)), (3, 5))
    )
    odd_sing = build_sing_odd(3, 5)
    rename = {"A1": "A", "B1": "B", "A2": "C"}
    assert {
        rename[k]: tuple(rename[s] for s in v)
        for k, v in odd_general.rules.items()
    } == odd_sing.rules


def test_sing_builders_match_their_closed_forms():
    # the docstring rules, for every pair of letters below 40
    for c1, c2 in itertools.combinations(range(2, 40, 2), 2):
        m, n = c1 // 2, c2 // 2
        sub = build_sing_even(c1, c2)
        assert sub.rules == {
            "A": ("A",) * m + ("B",) * m,
            "B": ("A",) * n + ("B",) * n,
        }
        assert {s: b.expansion for s, b in sub.blocks.items()} == {
            "A": (c1, c1),
            "B": (c2, c2),
        }
        assert (sub.seed, sub.alphabet, sub.order) == ("A", Alphabet((c1, c2)), None)
    for c1, c2 in itertools.combinations(range(3, 40, 2), 2):
        m, n = (c1 - 1) // 2, (c2 - 1) // 2
        sub = build_sing_odd(c1, c2)
        assert sub.rules == {
            "A": ("A",) * m + ("B",) + ("C",) * m,
            "B": ("A",) * m + ("B",) + ("C",) * n,
            "C": ("A",) * n + ("B",) + ("C",) * n,
        }
        assert {s: b.expansion for s, b in sub.blocks.items()} == {
            "A": (c1, c1),
            "B": (c1, c2),
            "C": (c2, c2),
        }
        assert (sub.seed, sub.alphabet, sub.order) == ("A", Alphabet((c1, c2)), None)


# ---------------------------------------------------------------------------
# morphism mechanics


def test_iterate_identity_at_zero():
    sub = sigma1()
    assert iterate(sub, "A1", 0) == ("A1",)
    assert iterate(sub, "B2", 0) == ("B2",)


def test_iterate_flatten_displays():
    sub = sigma1()
    assert flatten(sub, iterate(sub, "A1", 1)) == parse_symbols(
        "6^6 10^6 14^6 2^6"
    )
    assert flatten(sub, iterate(sub, "A1", 2)) == SIGMA1_ITERATE_2


def test_apply_rejects_unknown_symbol():
    # apply, flatten and iterate map names to codes through one checked step
    sub = sigma1()
    for bad in ("Z9", "", "a1"):
        calls = [
            lambda: apply(sub, ("A1", bad, "Z8")),
            lambda: flatten(sub, ("B1", bad)),
            lambda: iterate(sub, bad, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"unknown block symbol {bad}"


def test_substitution_validation():
    blocks = {"A": Block("A", (1,)), "B": Block("B", (2,))}
    with pytest.raises(ValueError):
        Substitution({"A": ("A", "C")}, blocks, Alphabet((1, 2)))
    with pytest.raises(ValueError):
        Substitution({"A": ()}, blocks, Alphabet((1, 2)))
    with pytest.raises(ValueError):
        Block("A", ())


# ---------------------------------------------------------------------------
# incidence matrix and primitivity


def test_incidence_matrix_columns_sum_to_rule_lengths():
    for sub in (sigma1(), sigma2()):
        im = incidence_matrix(sub)
        for j, sym in enumerate(im.symbols):
            assert im.matrix[:, j].sum() == len(sub.rules[sym])


def test_matrix_power_counts_iterates():
    sub = sigma2()
    im = incidence_matrix(sub)
    pos = {s: i for i, s in enumerate(im.symbols)}
    for t in range(1, 6):
        power = im.power(t)
        for sym in im.symbols:
            bw = iterate(sub, sym, t)
            counts = np.zeros(len(im.symbols), dtype=np.int64)
            for s in bw:
                counts[pos[s]] += 1
            assert (power[:, pos[sym]] == counts).all()


def test_abelianization_consistency():
    sub = sigma1()
    im = incidence_matrix(sub)
    pos = {s: i for i, s in enumerate(im.symbols)}
    letters = sub.alphabet.letters
    content = np.zeros((len(letters), len(im.symbols)), dtype=np.int64)
    for s, block in sub.blocks.items():
        for x in block.expansion:
            content[letters.index(x), pos[s]] += 1
    seed_vec = np.zeros(len(im.symbols), dtype=np.int64)
    seed_vec[pos["A1"]] = 1
    for t in range(5):
        flat = flatten(sub, iterate(sub, "A1", t)).to_array()
        counts = np.bincount(flat, minlength=max(letters) + 1)[list(letters)]
        predicted = content @ (im.power(t) @ seed_vec)
        assert (counts == predicted).all()


def test_primitivity():
    ok1, k1 = is_primitive(sigma1())
    ok2, k2 = is_primitive(sigma2())
    assert ok1 and k1 <= 3
    assert ok2 and k2 <= 3
    a24 = Alphabet((2, 4))
    ok, k = is_primitive(build_sigma_r0(a24, CyclicOrder(a24, (2, 4))))
    assert ok and k == 1


def test_identity_not_primitive():
    sub = Substitution(
        {"A": ("A",), "B": ("B",)},
        {"A": Block("A", (1,)), "B": Block("B", (2,))},
        Alphabet((1, 2)),
    )
    assert is_primitive(sub) == (False, None)


def test_primitivity_matches_expansion_occurrences():
    # the matrix power criterion agrees with direct symbol occurrence
    for sub in (sigma1(), sigma2()):
        _, k = is_primitive(sub)
        syms = set(sub.symbols)
        assert all(syms <= set(iterate(sub, s, k)) for s in syms)
        if k > 1:
            assert not all(syms <= set(iterate(sub, s, k - 1)) for s in syms)


# ---------------------------------------------------------------------------
# fixpoints


def test_prolongability():
    for sub in (sigma1(), sigma2()):
        assert sub.rules[sub.seed][0] == sub.seed
        assert sub.seed == "A1"


def test_fixpoint_first_letter():
    sub = sigma1()
    spec = BaseSequenceSpec(sub.alphabet, (6, 10, 14, 2))
    assert verify_substitution_fixpoint(sub, spec, 1)
    assert flatten(sub, (sub.seed,)).symbols[0] == spec.base_letter(1)


def test_fixpoints_at_scale():
    cases = [
        (sigma1(), (6, 10, 14, 2)),
        (sigma2(), (5, 9, 13, 1)),
    ]
    for sub, period in cases:
        spec = BaseSequenceSpec(sub.alphabet, period)
        assert verify_substitution_fixpoint(sub, spec, 10**4)


def test_sing_fixpoints():
    a24 = Alphabet((2, 4))
    assert verify_substitution_fixpoint(
        build_sing_even(2, 4), BaseSequenceSpec(a24, (2, 4)), 10**4
    )
    a35 = Alphabet((3, 5))
    assert verify_substitution_fixpoint(
        build_sing_odd(3, 5), BaseSequenceSpec(a35, (3, 5)), 10**4
    )


def test_r0_fixpoint():
    a = Alphabet((3, 6, 9))
    sub = build_sigma_r0(a, CyclicOrder(a, (3, 6, 9)))
    spec = BaseSequenceSpec(a, (3, 6, 9))
    assert verify_substitution_fixpoint(sub, spec, 10**4)
    # the flattened iterates are literal prefixes of the fixpoint word
    w = kolakoski_prefix(spec, 10**3)
    flat = flatten(sub, iterate(sub, "A1", 3))
    assert flat.symbols[: 10**3] == w.symbols[: min(len(flat), 10**3)]


def test_non_prolongable_seed_raises():
    sub = Substitution(
        {"A": ("B", "A"), "B": ("A", "B")},
        {"A": Block("A", (1,)), "B": Block("B", (2,))},
        Alphabet((1, 2)),
        seed="A",
    )
    with pytest.raises(NotProlongable):
        verify_substitution_fixpoint(
            sub, BaseSequenceSpec(Alphabet((1, 2)), (1, 2)), 10
        )


def test_seed_that_does_not_grow_raises():
    sub = Substitution(
        {"A": ("A",), "B": ("A", "B")},
        {"A": Block("A", (1,)), "B": Block("B", (2,))},
        Alphabet((1, 2)),
        seed="A",
    )
    spec = BaseSequenceSpec(Alphabet((1, 2)), (1, 2))
    for m in (1, 10**4):
        with pytest.raises(ValueError, match="does not grow from its seed"):
            verify_substitution_fixpoint(sub, spec, m)


def test_nonpositive_length_raises():
    spec = BaseSequenceSpec(sigma1().alphabet, (6, 10, 14, 2))
    for m in (0, -5):
        with pytest.raises(ValueError, match="m must be positive"):
            verify_substitution_fixpoint(sigma1(), spec, m)


def _iterate_oracle(sub, m):
    """The first m letters of the shortest flattened iterate that has them."""
    for t in itertools.count():
        bw = iterate(sub, sub.seed, t)
        letters = [x for s in bw for x in sub.blocks[s].expansion]
        if len(letters) >= m:
            return np.array(letters[:m])


@st.composite
def _families(draw):
    """A substitution of each supported family and the period it fixes."""
    family = draw(st.sampled_from(["r0", "even_n", "sing_even", "sing_odd"]))
    if family.startswith("sing"):
        odd = family == "sing_odd"
        letters = st.sampled_from(range(2 + odd, 18, 2))
        c1, c2 = sorted(draw(st.sets(letters, min_size=2, max_size=2)))
        build = build_sing_odd if odd else build_sing_even
        return build(c1, c2), (c1, c2)
    # like verify._random_order: letters n*q + r with distinct quotients;
    # a positive remainder needs an even n and admits one zero quotient
    if family == "r0":
        n, r = draw(st.integers(2, 4)), 0
    else:
        n = draw(st.sampled_from([2, 4]))
        r = draw(st.integers(1, n - 1))
    quotients = draw(st.sets(st.integers(0 if r else 1, 5), min_size=n, max_size=n))
    arrangement = tuple(draw(st.permutations([n * q + r for q in quotients])))
    order = CyclicOrder.from_letters(arrangement)
    return build_substitution(order.alphabet, order), arrangement


@settings(max_examples=150, deadline=None)
@given(
    _families(),
    st.one_of(st.integers(1, 300), st.integers(1, 3 * _CHUNK)),
)
def test_streamed_verdict_matches_iterate_oracle(family, m):
    sub, period = family
    oracle = _iterate_oracle(sub, m)
    spec = BaseSequenceSpec(sub.alphabet, period)
    word = kolakoski_stream(spec).take(m).to_array()
    assert np.array_equal(oracle, word)
    assert verify_substitution_fixpoint(sub, spec, m)
    reversed_spec = BaseSequenceSpec(sub.alphabet, period[::-1])
    expected = np.array_equal(oracle, kolakoski_prefix(reversed_spec, m).to_array())
    assert verify_substitution_fixpoint(sub, reversed_spec, m) == expected


def _rules_apply(sub, bw):
    """σ by its definition, over the rules dict."""
    return tuple(name for sym in bw for name in sub.rules[sym])


@settings(max_examples=150, deadline=None)
@given(_families(), st.data())
def test_apply_iterate_flatten_match_the_rules(family, data):
    sub, _ = family
    names = st.sampled_from(list(sub.rules))
    bw = tuple(data.draw(st.lists(names, max_size=40)))
    assert apply(sub, bw) == _rules_apply(sub, bw)
    letters = tuple(x for sym in bw for x in sub.blocks[sym].expansion)
    assert flatten(sub, bw).symbols == letters
    seed, t = data.draw(names), data.draw(st.integers(0, 3))
    expected = (seed,)
    for _ in range(t):
        expected = _rules_apply(sub, expected)
    assert iterate(sub, seed, t) == expected


@pytest.mark.parametrize("m", [10**6, 4 * 10**6])
def test_fixpoint_check_runs_in_flat_memory(m):
    sub = sigma1()
    spec = BaseSequenceSpec(sub.alphabet, (6, 10, 14, 2))
    tracemalloc.start()
    try:
        assert verify_substitution_fixpoint(sub, spec, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
