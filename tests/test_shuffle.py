import itertools
import random

import pytest
from hypothesis import given, strategies as st

from mzvshuffle.combinat import binom
from mzvshuffle.lincomb import LinComb
from mzvshuffle.shuffle import _SPLIT_LETTERS, _join_at
from mzvshuffle.shuffle import shuffle_nfold, shuffle_permutation, shuffle_recursive
from mzvshuffle.words import EMPTY_WORD, Word

word_strat = st.builds(Word, st.text(alphabet="xy", max_size=5))


def words_up_to(n):
    for length in range(n + 1):
        for bits in itertools.product("xy", repeat=length):
            yield Word("".join(bits))


def test_euler_case():
    want = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert shuffle_recursive(Word("xy"), Word("xy")) == want
    assert shuffle_permutation(Word("xy"), Word("xy")) == want


def test_unit():
    w = Word("xxy")
    assert shuffle_recursive(EMPTY_WORD, w) == LinComb.term(w)
    assert shuffle_recursive(w, EMPTY_WORD) == LinComb.term(w)
    assert shuffle_recursive(EMPTY_WORD, EMPTY_WORD) == LinComb.term(EMPTY_WORD)


def test_xy_shuffle_y():
    # unrolled by hand: xy . y = x(y . y) + y(xy . 1) = 2xyy + yxy
    assert shuffle_recursive(Word("xy"), Word("y")) == LinComb(
        {Word("xyy"): 2, Word("yxy"): 1}
    )


def test_permutation_small_cases():
    assert shuffle_permutation(Word("x"), Word("y")) == LinComb(
        {Word("xy"): 1, Word("yx"): 1}
    )
    # all four interleavings of xxy with y, enumerated by hand
    assert shuffle_permutation(Word("xxy"), Word("y")) == LinComb(
        {Word("xxyy"): 2, Word("xyxy"): 1, Word("yxxy"): 1}
    )


def test_nfold():
    assert shuffle_nfold([Word("xy")]) == LinComb.term("xy")
    assert shuffle_nfold([Word("y")] * 3) == LinComb({Word("yyy"): 6})
    # multinomial interleaving count binom(6,2) * binom(4,2)
    assert shuffle_nfold([Word("xy")] * 3).coefficient_sum() == 90
    with pytest.raises(ValueError):
        shuffle_nfold([])


def test_recursive_equals_permutation_small():
    for u in words_up_to(4):
        for v in words_up_to(4):
            assert shuffle_recursive(u, v) == shuffle_permutation(u, v)


def test_commutativity_small():
    ws = list(words_up_to(4))
    for u in ws:
        for v in ws:
            assert shuffle_recursive(u, v) == shuffle_recursive(v, u)


def test_associativity_small():
    ws = [w for w in words_up_to(3)]
    for u in ws:
        for v in ws:
            for w in ws:
                left = LinComb.zero()
                for t, c in shuffle_recursive(u, v).items():
                    left = left + c * shuffle_recursive(t, w)
                right = LinComb.zero()
                for t, c in shuffle_recursive(v, w).items():
                    right = right + c * shuffle_recursive(u, t)
                assert left == right


def test_homogeneity_and_counts():
    for u in words_up_to(4):
        for v in words_up_to(4):
            prod = shuffle_recursive(u, v)
            assert prod.coefficient_sum() == binom(len(u) + len(v), len(u))
            for w, _ in prod.items():
                assert len(w) == len(u) + len(v)
                assert w.y_count == u.y_count + v.y_count


@given(word_strat, word_strat)
def test_recursive_equals_permutation_random(u, v):
    assert shuffle_recursive(u, v) == shuffle_permutation(u, v)


@given(word_strat, word_strat)
def test_commutativity_random(u, v):
    assert shuffle_recursive(u, v) == shuffle_recursive(v, u)


def test_subalgebra_closure():
    h1 = [w for w in words_up_to(5) if w.is_empty or w.ends_with_y]
    for u in h1:
        for v in h1:
            for w, _ in shuffle_recursive(u, v).items():
                assert w.is_empty or w.ends_with_y
    h0 = [w for w in words_up_to(5) if w.is_admissible]
    for u in h0:
        for v in h0:
            for w, _ in shuffle_recursive(u, v).items():
                assert w.is_admissible


def test_join_at_every_diagonal():
    # no sweep grid reaches the split size, so the join is tested at every
    # cut of every pair up to 8 letters (up to 10 takes seconds)
    for total in range(9):
        for bits in itertools.product("xy", repeat=total):
            letters = "".join(bits)
            for n in range(total + 1):
                u, v = letters[:n], letters[n:]
                want = shuffle_permutation(Word(u), Word(v))
                for h in range(total + 1):
                    assert LinComb._adopt(_join_at(u, v, h)) == want, (u, v, h)


def test_recursive_equals_permutation_past_the_split():
    rng = random.Random("past-the-split")
    for _ in range(40):
        total = rng.randint(_SPLIT_LETTERS + 1, 18)
        n = rng.randint(1, total - 1)
        u = Word("".join(rng.choice("xy") for _ in range(n)))
        v = Word("".join(rng.choice("xy") for _ in range(total - n)))
        assert shuffle_recursive(u, v) == shuffle_permutation(u, v), (u, v)
