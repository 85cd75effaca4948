import itertools
import math

import pytest

from mzvshuffle.closed_form import (
    beta_sequence,
    coeff_general,
    expand_1_2,
    expand_1_3,
    expand_1_s,
    expand_2_2,
    expand_2_3,
    expand_3_3,
    expand_euler,
    expand_general,
    gamma_sequence,
)
from mzvshuffle.combinat import binom, weak_composition_list
from mzvshuffle.equivalence import expand_lgm_1_1, expand_lgm_1_2
from mzvshuffle.lincomb import LinComb
from mzvshuffle.restricted import (
    expand_nfold,
    expand_nfold_depth1,
    expand_res_1_1,
    expand_res_1_2,
    expand_res_2_2,
)
from mzvshuffle.shuffle import shuffle_recursive
from mzvshuffle.words import Word, from_exponent_form


def h1_forms(max_total):
    for length in range(1, max_total + 1):
        for depth in range(1, length + 1):
            yield from weak_composition_list(length - depth, depth)


def oracle(ea, eb):
    return shuffle_recursive(from_exponent_form(ea), from_exponent_form(eb))


# ---------------------------------------------------------------------------
# beta / gamma sequences


def test_beta_depth_one_each():
    # single block each: beta_1 = a_1, beta_2 = a_1 + b_1 - alpha_1
    a, b = (3,), (2,)
    for alphas in weak_composition_list(5, 2):
        assert beta_sequence((1,), (1,), alphas, a, b) == (3, 5 - alphas[0])


def test_beta_leading_block_is_plain_a():
    # the first a-block just reads off a_1, a_2, ..., then the b-block starts
    a, b = (2, 1, 3), (1,)
    alphas = (2, 1, 3, 1)
    assert beta_sequence((3,), (1,), alphas, a, b) == (2, 1, 3, 7 - 6)


def test_gamma_depth_one_each():
    # the mirror of the double-block case: gamma_1 = b_1
    a, b = (3,), (2,)
    for alphas in weak_composition_list(5, 2):
        assert gamma_sequence((1,), (1,), alphas, a, b) == (2, 5 - alphas[0])


def test_gamma_is_role_swapped_beta():
    a, b = (1, 2), (2, 0)
    for alphas in weak_composition_list(5, 4):
        for lc, nc in (((2,), (1, 1)), ((2,), (2,)), ((1, 1), (1, 1))):
            assert gamma_sequence(lc, nc, alphas, a, b) == beta_sequence(
                nc, lc, alphas, b, a
            )


def test_beta_negative_entries_allowed():
    # a beta entry can be negative; the consuming binomial then vanishes
    seq = beta_sequence((1,), (1,), (2, 0), (0,), (0,))
    assert seq == (0, -2)
    assert binom(0, -2) == 0


def test_beta_dimension_mismatch():
    with pytest.raises(ValueError):
        beta_sequence((1, 1), (1, 1, 1), (0,) * 5, (0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        beta_sequence((1,), (1,), (0, 0, 0), (0,), (0,))
    with pytest.raises(ValueError):
        beta_sequence((2,), (1,), (0, 0), (0,), (0,))


# ---------------------------------------------------------------------------
# the general coefficient


def test_coeff_general_euler_instance():
    a, b = (1,), (1,)
    assert coeff_general((1, 1), a, b) == 2
    assert coeff_general((2, 0), a, b) == 4
    assert coeff_general((0, 2), a, b) == 0


def test_coeff_general_depth_one_is_euler():
    for a in range(4):
        for b in range(4):
            for alphas in weak_composition_list(a + b, 2):
                assert coeff_general(alphas, (a,), (b,)) == binom(alphas[0], a) + binom(
                    alphas[0], b
                )


def test_coeff_general_validation():
    with pytest.raises(ValueError):
        coeff_general((1,), (1,), (1,))
    with pytest.raises(ValueError):
        coeff_general((1, 0), (1,), (1,))
    with pytest.raises(ValueError):
        coeff_general((1, -1), (0,), (0,))


def test_expand_general_paper_instances():
    assert expand_general((1,), (1,)) == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert expand_general((0,), (0,)) == LinComb({Word("yy"): 2})
    assert expand_general((2, 0), (1,)) == oracle((2, 0), (1,))


def test_expand_general_depth_two_against_oracle():
    assert expand_general((1, 1), (1, 1)) == oracle((1, 1), (1, 1))


def test_expand_general_oracle_sweep():
    for ea in h1_forms(4):
        la = sum(ea) + len(ea)
        for eb in h1_forms(7 - la):
            assert expand_general(ea, eb) == oracle(ea, eb)


def test_expand_general_walk_matches_coeff_general():
    # the walk over nonzero chains against the per-coefficient evaluation of
    # the same display at every weak composition of the x-degree
    for ea in h1_forms(6):
        la = sum(ea) + len(ea)
        for eb in h1_forms(7 - la):
            want = {}
            for alphas in weak_composition_list(sum(ea) + sum(eb), len(ea) + len(eb)):
                coeff = coeff_general(alphas, ea, eb)
                if coeff:
                    want[from_exponent_form(alphas)] = coeff
            assert expand_general(ea, eb) == LinComb(want), (ea, eb)


def test_expand_general_length_18_pair():
    ea, eb = (2, 1, 3, 0), (1, 2, 0, 1)
    got = expand_general(ea, eb)
    assert len(got) == 903
    assert got == oracle(ea, eb)


def test_expand_general_y_only_pairs():
    # C(r+s, r) layouts, up to C(60, 30): one output word, their count
    for r in range(1, 31):
        for s in range(1, 31):
            assert expand_general((0,) * r, (0,) * s) == LinComb(
                {Word("y" * (r + s)): math.comb(r + s, r)}
            )


def test_expand_general_symmetry():
    for ea in h1_forms(3):
        for eb in h1_forms(3):
            assert expand_general(ea, eb) == expand_general(eb, ea)


# ---------------------------------------------------------------------------
# Euler and 1 x s


def test_expand_euler_examples():
    assert expand_euler(1, 1) == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert expand_euler(0, 0) == LinComb({Word("yy"): 2})
    # hand-expanded: x^2y . xy
    assert expand_euler(2, 1) == LinComb(
        {Word("xxxyy"): 6, Word("xxyxy"): 3, Word("xyxxy"): 1}
    )
    assert expand_euler(2, 1) == oracle((2,), (1,))


def test_expand_euler_equals_general():
    for a in range(7):
        for b in range(7):
            assert expand_euler(a, b) == expand_general((a,), (b,))


def test_expand_1_s_examples():
    assert expand_1_s(1, (1,)) == expand_euler(1, 1)
    for a in range(3):
        for b1 in range(3):
            for b2 in range(3):
                assert expand_1_s(a, (b1, b2)) == expand_1_2(a, b1, b2)
    assert expand_1_s(1, (1, 0, 1)) == oracle((1,), (1, 0, 1))


def test_expand_1_s_oracle_sweep():
    for a in range(4):
        for s in range(1, 4):
            for eb in weak_composition_list(7 - a - 1 - s, s):
                assert expand_1_s(a, eb) == oracle((a,), eb)


# ---------------------------------------------------------------------------
# the five transcribed small cases


@pytest.mark.parametrize(
    "fn,r,s",
    [
        (expand_1_2, 1, 2),
        (expand_1_3, 1, 3),
        (expand_2_2, 2, 2),
        (expand_2_3, 2, 3),
        (expand_3_3, 3, 3),
    ],
)
def test_expand_small_oracle_sweep(fn, r, s):
    budget = 8 - r - s
    for total in range(max(budget, 0) + 1):
        for exps in weak_composition_list(total, r + s):
            assert fn(*exps) == oracle(exps[:r], exps[r:])


def test_expand_1_s_matches_general():
    for a in range(4):
        for s in range(1, 4):
            for eb in weak_composition_list(8 - a - 1 - s, s):
                assert expand_1_s(a, eb) == expand_general((a,), eb)


@pytest.mark.parametrize(
    "fn,r,s",
    [
        (expand_1_2, 1, 2),
        (expand_1_3, 1, 3),
        (expand_2_2, 2, 2),
        (expand_2_3, 2, 3),
        (expand_3_3, 3, 3),
    ],
)
def test_expand_small_matches_general(fn, r, s):
    budget = 9 - r - s
    for total in range(max(budget, 0) + 1):
        for exps in weak_composition_list(total, r + s):
            assert fn(*exps) == expand_general(exps[:r], exps[r:])


# The walked displays past the sweeps' bounds (total word length 9 or 10),
# where the oracle is too slow: against expand_general, with every
# coefficient nonzero and the coefficients summing to C(n+m, n) for words of
# n and m letters.
BEYOND_SWEEP = [
    (expand_1_s, (40, (30, 0, 25)), (40,), (30, 0, 25)),  # 23,066 terms
    (expand_1_s, (9, (2, 0, 3, 0, 1)), (9,), (2, 0, 3, 0, 1)),
    (expand_1_3, (12, 9, 0, 11), (12,), (9, 0, 11)),
    (expand_2_2, (10, 7, 9, 8), (10, 7), (9, 8)),
    (expand_2_3, (6, 2, 5, 0, 4), (6, 2), (5, 0, 4)),
    (expand_3_3, (3, 6, 1, 5, 0, 4), (3, 6, 1), (5, 0, 4)),
]


@pytest.mark.parametrize(
    "fn, args, ea, eb", BEYOND_SWEEP, ids=[f"{c[0].__name__}{c[1]}" for c in BEYOND_SWEEP]
)
def test_walked_displays_beyond_the_sweeps(fn, args, ea, eb):
    got = fn(*args)
    assert got == expand_general(ea, eb)
    assert all(coeff for _, coeff in got.items())
    n, m = sum(ea) + len(ea), sum(eb) + len(eb)
    assert got.coefficient_sum() == binom(n + m, n)


def test_expand_small_c22_self_product():
    assert expand_2_2(1, 0, 1, 0) == oracle((1, 0), (1, 0))


def test_expand_small_c33_all_zero():
    # y^3 . y^3: coefficient sum is binom(6, 3)
    result = expand_3_3(0, 0, 0, 0, 0, 0)
    assert result == LinComb({Word("yyyyyy"): 20})
    assert result.coefficient_sum() == binom(6, 3)


def test_expand_2_3_printed_a4_reading_fails():
    # the printed factor binom(alpha_3, b2 - a4) has no a4 at these arities;
    # reading it as a2 breaks on the oracle, reading it as alpha_4 (what
    # expand_2_3 implements) does not
    def with_a2_reading(a1, a2, b1, b2, b3):
        out = {}
        for al in weak_composition_list(a1 + a2 + b1 + b2 + b3, 5):
            mixed = binom(al[1], a1 + b1 - al[0])
            coeff = (
                (binom(al[0], a1) * binom(al[1], a2) if al[3] == b2 and al[4] == b3 else 0)
                + (binom(al[0], a1) * mixed * binom(al[2], b2 - a2) if al[4] == b3 else 0)
                + binom(al[0], a1) * mixed * binom(al[2], b2)
                * (binom(al[3], b3) + binom(al[3], b3 - al[4]))
                + (binom(al[0], b1) * binom(al[1], b2) * binom(al[2], b3) if al[4] == a2 else 0)
                + (binom(al[0], b1) * mixed * binom(al[2], a2) if al[4] == b3 else 0)
                + binom(al[0], b1) * binom(al[1], b2) * binom(al[2], a2 + b3 - al[3] - al[4])
                * (binom(al[3], a2) + binom(al[3], a2 - al[4]))
                + binom(al[0], b1) * mixed * binom(al[2], a2 + b3 - al[3] - al[4])
                * (binom(al[3], b3) + binom(al[3], b3 - al[4]))
            )
            if coeff:
                out[from_exponent_form(al)] = coeff
        return LinComb(out)

    mismatches = 0
    for total in range(3):
        for exps in weak_composition_list(total, 5):
            want = oracle(exps[:2], exps[2:])
            assert expand_2_3(*exps) == want
            if with_a2_reading(*exps) != want:
                mismatches += 1
    assert mismatches > 0


# ---------------------------------------------------------------------------
# every expander refuses a negative exponent and a non-int one


EXPANDER_INPUTS = [
    # (expander, arguments with a negative exponent, arguments with a float)
    (expand_general, ((2, -1), (1,)), ((2, 1.5), (1,))),
    (expand_euler, (-1, 2), (1.5, 2)),
    (expand_1_s, (2, (1, -1)), (1.5, (1, 1))),
    (expand_1_2, (-1, 2, 0), (1.5, 2, 0)),
    (expand_1_3, (2, -1, 0, 0), (2, 1.5, 0, 0)),
    (expand_2_2, (1, -1, 1, 1), (1, 1.5, 1, 1)),
    (expand_2_3, (1, -1, 1, 1, 1), (1, 1.5, 1, 1, 1)),
    (expand_3_3, (1, -1, 1, 1, 1, 1), (1, 1.5, 1, 1, 1, 1)),
    (expand_res_1_1, (-1, 1, 2, 1), (1.5, 1, 1, 1)),
    (expand_res_1_2, (1, 1, -1, 1, 2, 1), (1, 1, 1.5, 1, 2, 1)),
    (expand_res_2_2, (1, 1, -1, 1, 1, 1, 1, 1), (1, 1, 1.5, 1, 1, 1, 1, 1)),
    (expand_nfold, ([(-1, 1), (2, 1)],), ([(1.5, 1), (1, 1)],)),
    (expand_nfold_depth1, ([-1, 2],), ([1.5, 1],)),
    (expand_lgm_1_1, (-1, 1, 2, 1), (1.5, 1, 1, 1)),
    (expand_lgm_1_2, (1, 1, -1, 1, 2, 1), (1, 1, 1.5, 1, 2, 1)),
]


@pytest.mark.parametrize(
    "fn, negative, non_int", EXPANDER_INPUTS, ids=[case[0].__name__ for case in EXPANDER_INPUTS]
)
def test_expanders_refuse_bad_exponents(fn, negative, non_int):
    # each negative input keeps the total x-degree nonnegative, so no
    # composition count catches it first
    with pytest.raises(ValueError, match="nonnegative|positive"):
        fn(*negative)
    with pytest.raises(TypeError, match="int"):
        fn(*non_int)
