import itertools
import math

import pytest

from mzvshuffle.combinat import (
    binom,
    binomial_walk,
    compositions,
    prefix_sums,
    suffix_sums,
    weak_compositions,
    weak_compositions_with_last,
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
    for total, parts in [(-1, 0), (-3, -1), (2, -1), (-1, 2)]:
        with pytest.raises(ValueError, match="nonnegative"):
            weak_compositions(total, parts)


def test_compositions():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(2, 3)) == []
    assert list(compositions(0, 0)) == [()]
    combos = list(compositions(6, 3))
    assert len(combos) == math.comb(5, 2)
    assert all(min(c) >= 1 and sum(c) == 6 for c in combos)
    # a negative argument is refused, as by weak_compositions, not read as
    # a total below the number of parts
    for total, parts in [(-1, 0), (-3, -1), (2, -1), (-1, 2)]:
        with pytest.raises(ValueError, match="nonnegative"):
            compositions(total, parts)


def test_compositions_in_lexicographic_order_against_brute_force():
    # `_lead`, the sweep grids and the appendix sums iterate in this order
    for total in range(7):
        for parts in range(7):
            tuples = list(itertools.product(range(total + 1), repeat=parts))
            weak = [w for w in tuples if sum(w) == total]
            assert weak_compositions(total, parts) == tuple(weak), (total, parts)
            positive = tuple(w for w in weak if all(w))
            assert compositions(total, parts) == positive, (total, parts)


def test_prefix_sums():
    assert prefix_sums((3, 1, 2)) == (0, 3, 4, 6)
    assert prefix_sums(()) == (0,)


def test_suffix_sums():
    assert suffix_sums([3, 1, 2]) == [6, 3, 2, 0]
    assert suffix_sums([]) == [0]


def test_weak_compositions_with_last_against_brute_force():
    for total in range(7):
        for parts in range(7):
            want = []
            for w in itertools.product(range(total + 1), repeat=parts):
                if sum(w) == total:
                    nonzero = [i + 1 for i, x in enumerate(w) if x]
                    want.append((w, nonzero[-1] if nonzero else 0))
            got = weak_compositions_with_last(total, parts)
            assert sorted(got) == sorted(want), (total, parts)
            assert len(got) == len(want)


def test_zero_padded_windows_summed_once():
    # sum_l m(l) [w = u + 0^(W - l), u in WC(n, l)] = [w in WC(n, W)] sum_{l >= last(w)} m(l)
    for total in range(5):
        for width in range(1, 6):
            mults = [0] + [3 * l + 1 for l in range(1, width + 1)]
            want = {}
            for l in range(1, width + 1):
                for u in weak_compositions(total, l):
                    w = u + (0,) * (width - l)
                    want[w] = want.get(w, 0) + mults[l]
            suffix = suffix_sums(mults)
            got = {w: suffix[last] for w, last in weak_compositions_with_last(total, width)}
            assert got == want, (total, width)


def chain_graph(steps, tail=()):
    """binomial_walk's graph of one chain of steps, its last state pinning tail."""
    graph = {i: ([(i + 1, c, prefix)], None) for i, (c, prefix) in enumerate(steps)}
    graph[len(steps)] = ((), (tail, 0))
    return graph


def test_binomial_walk_against_filtered_compositions():
    # every step kind, including free steps, negative constants and prefix
    # constants larger than the total, against the enumerate-then-filter
    # definition
    kinds = [(c, prefix) for c in (-1, 0, 1, 2, 3) for prefix in (False, True)]
    for n in range(1, 4):
        for steps in itertools.product(kinds, repeat=n):
            for total in range(5):
                want = {}
                for w in weak_compositions(total, n + 1):
                    coeff = 1
                    for i, (c, prefix) in enumerate(steps):
                        coeff *= binom(w[i], c - sum(w[:i]) if prefix else c)
                    if coeff:
                        want[w] = coeff
                got = {}
                binomial_walk(got, chain_graph(steps), total)
                assert got == want, (steps, total)


def test_binomial_walk_of_a_trie_sums_its_chains():
    # chains that share step prefixes, one a prefix of another, two equal,
    # with pinned tails: the trie walks to the sum of each chain walked alone
    from mzvshuffle.closed_form import _walk_terms
    from mzvshuffle.lincomb import LinComb

    terms = [
        (((1, False), (2, False)), (1,)),
        (((1, False), (2, False)), (1,)),
        (((1, False), (2, False), (4, True)), ()),
        (((1, False), (3, True)), (0, 2)),
        (((1, False),), (2,)),
        (((0, False), (2, True), (1, False)), ()),
        (((2, True),), ()),
    ]
    for total in range(3, 10):
        want = {}
        for steps, tail in terms:
            binomial_walk(want, chain_graph(steps, tail), total)
        assert want
        assert _walk_terms(terms, total) == LinComb.from_exponents(want), total

