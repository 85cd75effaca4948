"""Binomials with the vanishing convention, and composition enumeration."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever k < 0 or k > n.

    The convention covers negative n as well (then k < 0 or k > n always
    holds), which the closed-form expansions rely on.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if total < 0 or parts < 0:
        raise ValueError("total and parts must be nonnegative")
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for cut in cuts:
            out.append(cut - prev - 1)
            prev = cut
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    for weak in weak_compositions(total - parts, parts):
        yield tuple(w + 1 for w in weak)


@lru_cache(maxsize=None)
def weak_composition_list(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    return tuple(weak_compositions(total, parts))


def weak_composition_list_any(max_total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions into `parts` parts of every total from 0 to max_total."""
    for total in range(max_total + 1):
        yield from weak_composition_list(total, parts)


@lru_cache(maxsize=None)
def composition_list(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    return tuple(compositions(total, parts))


def binomial_chains(
    steps: tuple[tuple[int, bool], ...], total: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Weak compositions w of `total` into len(steps) + 1 parts whose chain
    binom(w_0, beta_0) * ... * binom(w_{n-1}, beta_{n-1}) is nonzero, each
    paired with that product.  The last part takes what is left.

    steps[i] = (c, prefix) gives beta_i = c - (w_0 + ... + w_{i-1}) when
    prefix is true and beta_i = c otherwise.  Each w_i only takes values with
    0 <= beta_i <= w_i, and cap[i], the largest prefix sum w_0 + ... + w_{i-1}
    from which the remaining steps can still be met, bounds it from above, so
    no branch of the walk dies: each level holds at most one partial
    composition per output, and the work is proportional to the output.
    """
    n = len(steps)
    cap = [0] * (n + 1)
    cap[n] = total
    for i in range(n - 1, -1, -1):
        c, prefix = steps[i]
        if prefix:
            # beta_i >= 0 needs the prefix sum at most c; w_i >= beta_i then
            # lifts the next prefix sum to at least c
            if c > cap[i + 1]:
                return ()
            cap[i] = min(c, cap[i + 1])
        else:
            if c < 0:
                return ()
            cap[i] = cap[i + 1] - c
    if cap[0] < 0:
        return ()
    comb = math.comb
    states: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
    for i, (c, prefix) in enumerate(steps):
        top = cap[i + 1]
        nxt: list[tuple[tuple[int, ...], int, int]] = []
        add = nxt.append
        for w, used, coeff in states:
            beta = c - used if prefix else c
            for x in range(beta, top - used + 1):
                add((w + (x,), used + x, coeff * comb(x, beta) if beta else coeff))
        states = nxt
    return tuple([(w + (total - used,), coeff) for w, used, coeff in states])


def distinct_orderings(items) -> tuple[list[tuple], int]:
    """Each distinct ordering of the multiset `items` once, in lexicographic
    order, and how many of the len(items)! orderings each one stands for:
    the product of the factorials of the multiplicities."""
    seq = sorted(items)
    n = len(seq)
    out = []
    while True:
        out.append(tuple(seq))
        # the next ordering in lexicographic order; equal items never swap
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            break
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])
    return out, math.factorial(n) // len(out)


def prefix_sums(seq) -> tuple[int, ...]:
    """(0, s1, s1+s2, ...): prefix_sums(seq)[i] is the sum of the first i items."""
    out = [0]
    acc = 0
    for value in seq:
        acc += value
        out.append(acc)
    return tuple(out)
