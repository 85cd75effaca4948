"""Binomials with the vanishing convention, and composition enumeration."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever k < 0 or k > n.

    The convention covers negative n as well (then k < 0 or k > n always
    holds), which the closed-form expansions rely on.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def weak_compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if total < 0 or parts < 0:
        raise ValueError("total and parts must be nonnegative")
    if parts == 0:
        return ((),) if total == 0 else ()
    # each choice of parts - 1 cuts among total + parts - 1 slots, in order
    slots = total + parts - 1
    return tuple(
        tuple(hi - lo - 1 for lo, hi in itertools.pairwise((-1, *cuts, slots)))
        for cuts in itertools.combinations(range(slots), parts - 1)
    )


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `parts` positive integers summing to `total`, in
    lexicographic order."""
    if total < 0 or parts < 0:
        raise ValueError("total and parts must be nonnegative")
    if total < parts:
        return ()
    return tuple(tuple(w + 1 for w in weak) for weak in weak_compositions(total - parts, parts))


@lru_cache(maxsize=None)
def weak_compositions_with_last(
    total: int, parts: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each weak composition of `total` into `parts` parts, with the 1-based
    index of its last nonzero part (0 when every part is zero).

    A composition whose last nonzero part is part `last` is, with its
    trailing zeros, the zero-padded form of a window of k parts for every
    k >= last; so a sum over windows of every size, each zero-padded to this
    width, meets it once for each such k (docs/FORMULA_NOTES.md, "Zero-padded
    tails summed once").  Callers append any further zeros themselves, so
    each composition is stored once whatever the padding."""
    out = []
    for comp in weak_compositions(total, parts):
        last = parts
        while last and not comp[last - 1]:
            last -= 1
        out.append((comp, last))
    return tuple(out)


def binomial_walk(out: dict, graph: dict, total: int) -> int:
    """Add to out every weak composition of `total` that a path of `graph`
    reaches with a nonzero product of binomials, times that product; return
    the number of nodes walked.

    graph maps each state to (moves, tail), the start state first and every
    state before the states its moves reach.  A move (new, c, prefix) sets
    the next part w_i with the factor binom(w_i, beta_i), where beta_i = c -
    (w_0 + ... + w_{i-1}) when prefix is true and beta_i = c otherwise.  A
    state whose tail (seq, start) is not None ends a path: the part after
    the move into it takes the x-degree left, and seq[start:] is pinned
    after that part (read only when a move reaches the state, so no tail is
    copied ahead of the walk).

    cap[state], the largest prefix sum from which a path can still finish,
    is worked out from the last states back; each part then only takes
    values with 0 <= beta_i <= w_i that stay within the cap of the state it
    leads to, so no branch dies.  Nodes are keyed by (parts, prefix sum) per
    state, so paths that reach one state with equal parts merge
    (docs/FORMULA_NOTES.md, "The binomial walk").
    """
    cap: dict = {}
    for state in reversed(graph):
        moves, tail = graph[state]
        if tail is not None:
            cap[state] = total - sum(tail[0][tail[1] :])
            continue
        top = -1
        for new, c, prefix in moves:
            # beta >= 0 needs the prefix sum at most c, and w_i >= beta lifts
            # the next one to at least c
            if prefix:
                if c <= cap[new]:
                    top = max(top, c)
            elif c >= 0:
                top = max(top, cap[new] - c)
        cap[state] = top
    comb = math.comb
    nodes = {next(iter(graph)): {((), 0): 1}}
    walked = 0
    for state, (moves, _) in graph.items():
        paths = nodes.pop(state, None)
        if not paths:
            continue
        walked += len(paths)
        for new, c, prefix in moves:
            top, tail = cap[new], graph[new][1]
            dest = nodes.setdefault(new, {}) if tail is None else out
            pinned = None if tail is None else tail[0][tail[1] :]
            for (w, used), coeff in paths.items():
                beta = c - used if prefix else c
                if beta < 0:
                    continue
                # w_i runs from beta up to what the cap of `new` leaves
                for x in range(beta, top - used + 1):
                    key = (w + (x,), used + x) if tail is None else w + (x, top - used - x) + pinned
                    dest[key] = dest.get(key, 0) + (coeff * comb(x, beta) if beta else coeff)
    return walked


def suffix_sums(seq) -> list[int]:
    """[..., s_{n-1} + s_n, s_n, 0]: suffix_sums(seq)[i] is the sum of the
    items from index i on."""
    out = list(itertools.accumulate(reversed(seq), initial=0))
    out.reverse()
    return out


def prefix_sums(seq) -> tuple[int, ...]:
    """(0, s1, s1+s2, ...): prefix_sums(seq)[i] is the sum of the first i items."""
    out = [0]
    acc = 0
    for value in seq:
        acc += value
        out.append(acc)
    return tuple(out)
