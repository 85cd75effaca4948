import itertools
import math

from mzvshuffle.combinat import (
    binom,
    binomial_chains,
    compositions,
    prefix_sums,
    weak_compositions,
)


def vandermonde_check(k: int, l: int, n: int) -> bool:
    """True iff sum_i binom(k,i) binom(l,n-i) equals binom(k+l,n)."""
    return sum(binom(k, i) * binom(l, n - i) for i in range(n + 1)) == binom(k + l, n)


def test_binom_standard():
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1
    assert binom(7, 7) == 1


def test_binom_vanishing_convention():
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    # negative upper index always vanishes under the convention
    assert binom(-1, 0) == 0
    assert binom(-3, -1) == 0


def test_vandermonde_examples():
    assert vandermonde_check(2, 2, 2)  # 1 + 4 + 1 == 6
    assert vandermonde_check(0, 5, 3)
    # direct summation for (7, 5, 6): sum is binom(12, 6) = 924
    assert sum(binom(7, i) * binom(5, 6 - i) for i in range(7)) == 924
    assert vandermonde_check(7, 5, 6)


def test_vandermonde_full_grid():
    for k in range(13):
        for l in range(13):
            for n in range(13):
                assert vandermonde_check(k, l, n)


def test_weak_compositions():
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(1, 0)) == []
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for total, parts in [(5, 3), (0, 4), (6, 1)]:
        combos = list(weak_compositions(total, parts))
        assert len(combos) == math.comb(total + parts - 1, parts - 1)
        assert len(set(combos)) == len(combos)
        assert all(sum(c) == total and len(c) == parts and min(c) >= 0 for c in combos)


def test_compositions():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(2, 3)) == []
    assert list(compositions(0, 0)) == [()]
    combos = list(compositions(6, 3))
    assert len(combos) == math.comb(5, 2)
    assert all(min(c) >= 1 and sum(c) == 6 for c in combos)


def test_prefix_sums():
    assert prefix_sums((3, 1, 2)) == (0, 3, 4, 6)
    assert prefix_sums(()) == (0,)


def test_binomial_chains_against_filtered_compositions():
    # every step kind, including free steps, negative constants and prefix
    # constants larger than the total, against the enumerate-then-filter
    # definition
    kinds = [(c, prefix) for c in (-1, 0, 1, 2, 3) for prefix in (False, True)]
    for n in range(4):
        for steps in itertools.product(kinds, repeat=n):
            for total in range(5):
                want = {}
                for w in weak_compositions(total, n + 1):
                    coeff = 1
                    for i, (c, prefix) in enumerate(steps):
                        coeff *= binom(w[i], c - sum(w[:i]) if prefix else c)
                    if coeff:
                        want[w] = coeff
                got = binomial_chains(steps, total)
                assert len(got) == len(want), (steps, total)
                assert dict(got) == want, (steps, total)
