"""Closed-form shuffle expansions for words in exponent form.

expand_general implements the four-case coefficient formula: the output
exponent tuple (alpha_1, ..., alpha_{r+s}) receives one contribution per way
of interleaving the y-blocks of the two factors, and each interleaving
contributes a product of binomials binom(alpha_i, beta_i) whose beta values
are fixed by the block structure, with Kronecker deltas pinning the trailing
positions.

One step rule, _step, gives beta_p from the y-block state (i, j, side): i
y's of a and j of b placed, the last from `side`.  A y that continues its
block has its own exponent as beta, one that starts a block a constant less
alpha_1 + ... + alpha_{p-1}; each interleaving is one path of _step from
(0, 0, 1).  expand_general hands these states to combinat.binomial_walk,
which walks all paths at once and sums the paths that reach the same state
with the same alpha prefix, since they share their future.  Each alpha_i
takes only the values with binom(alpha_i, beta_i) != 0 from which the walk
can still finish (a cap per state), the Kronecker deltas fix the final
block's trailing positions and its first position takes the x-degree that
is left.  Every contribution is a positive product, so the work scales with
the number of nonzero terms of the formula instead of with all weak
compositions of the x-degree.  beta_sequence reads _step too, and
coeff_general evaluates the display itself, one block shape at a time, as an
uncached reference for the walk.

The concrete low-arity expansions (Euler, 1 x s, and the five small cases)
are independent transcriptions of their published displays and are tested
against the brute-force oracles; none of them reads _step.  Each lists its
printed terms as (steps, tail) pairs and walks them with the same
binomial_walk as a trie of their steps (_walk_terms): a term's Kronecker
deltas pin a tail, and a lower index that subtracts later alphas becomes a
prefix step by binom(n, k) = binom(n, n - k) (docs/FORMULA_NOTES.md), so
they too do work in proportion to their nonzero terms.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .combinat import binom, binomial_walk, composition_list, prefix_sums
from .lincomb import LinComb
from .words import _check_exponents


def _step(state: tuple[int, int, int], side: int, a, b, pa, pb) -> tuple[tuple, int, bool]:
    """Place the next y of a (side 0) or of b (side 1) at state (i, j, last).

    Returns the move (new state, c, prefix) as combinat.binomial_walk reads
    it: c is the y's exponent, prefix false, when the y continues its block,
    and c = pa[i'] + pb[j'], prefix true, for beta = pa[i'] + pb[j'] -
    alpha_1 - ... - alpha_{i'+j'-1} when it starts one, with (i', j') the
    new counts and pa, pb the prefix sums of a, b.  At the start (0, 0, 1)
    either factor's first y reads its first exponent.
    """
    i, j, last = state
    i, j = (i, j + 1) if side else (i + 1, j)
    if side == last:
        return (i, j, side), (b[j - 1] if side else a[i - 1]), False
    return (i, j, side), pa[i] + pb[j], True


def beta_sequence(
    lcomp: Iterable[int],
    ncomp: Iterable[int],
    alphas: Iterable[int],
    a: Iterable[int],
    b: Iterable[int],
) -> tuple[int, ...]:
    """Per-position beta values for an interleaving that starts with a-blocks.

    lcomp lists the a-side block lengths and ncomp the b-side block lengths,
    with either equally many blocks or one extra a-block.  Entries can be
    negative; the consuming binomial then vanishes.
    """
    lcomp, ncomp = tuple(lcomp), tuple(ncomp)
    alphas, a, b = tuple(alphas), tuple(a), tuple(b)
    if len(lcomp) not in (len(ncomp), len(ncomp) + 1):
        raise ValueError("lcomp must have as many parts as ncomp, or one more")
    if any(p < 1 for p in lcomp + ncomp):
        raise ValueError("composition parts must be positive")
    if sum(lcomp) != len(a) or sum(ncomp) != len(b):
        raise ValueError("compositions must sum to the factor depths")
    if len(alphas) != len(a) + len(b):
        raise ValueError("alphas must have one entry per output position")
    pa, pb, pal = prefix_sums(a), prefix_sums(b), prefix_sums(alphas)
    state, betas = (0, 0, 1), []
    for lpart, npart in itertools.zip_longest(lcomp, ncomp, fillvalue=0):
        for side in [0] * lpart + [1] * npart:
            state, c, prefix = _step(state, side, a, b, pa, pb)
            betas.append(c - pal[len(betas)] if prefix else c)
    return tuple(betas)


def gamma_sequence(lcomp, ncomp, alphas, a, b) -> tuple[int, ...]:
    """Mirror of beta_sequence for interleavings that start with b-blocks.

    Identical to beta_sequence with the roles of (a, lcomp) and (b, ncomp)
    swapped, so positions follow the b-leading block layout.
    """
    return beta_sequence(ncomp, lcomp, alphas, b, a)


def coeff_general(alphas: Iterable[int], a: Iterable[int], b: Iterable[int]) -> int:
    """Coefficient of x^{alpha_1} y ... x^{alpha_{r+s}} y in the product.

    The display summed over every block shape: binom(alpha_i, beta_i) up to
    the final block, whose first position is free and whose other positions
    carry the Kronecker deltas delta(alpha_i, beta_i).
    """
    alphas, a, b = tuple(alphas), tuple(a), tuple(b)
    _check_exponents(a, "a")
    _check_exponents(b, "b")
    if len(alphas) != len(a) + len(b):
        raise ValueError("alphas must have r + s entries")
    if any(x < 0 for x in alphas):
        raise ValueError(f"alpha entries must be nonnegative, got {alphas}")
    if sum(alphas) != sum(a) + sum(b):
        raise ValueError("alphas must sum to the total x-degree")
    total = 0
    for first, second in ((a, b), (b, a)):
        for p in range(1, len(first) + 1):
            for lc in composition_list(len(first), p):
                # the shape ends with a first-side block (p - 1 second-side
                # blocks) or with a second-side block (p of them)
                for q in (p - 1, p):
                    for nc in composition_list(len(second), q):
                        betas = beta_sequence(lc, nc, alphas, first, second)
                        free = len(alphas) - (nc[-1] if q == p else lc[-1])
                        if alphas[free + 1 :] == betas[free + 1 :]:
                            total += math.prod(map(binom, alphas[:free], betas))
    return total


def _general_graph(a: tuple[int, ...], b: tuple[int, ...]) -> dict:
    """The y-block states of a ш b as combinat.binomial_walk reads them.

    The states (i, j, last) come in lexicographic order, which is
    topological, each inner one with its two moves from _step.  Once the
    side of the last y is used up, the other side's y's form the final
    block: its first position takes the x's left and the rest are pinned to
    their exponents, a[i + 1:] or b[j + 1:], given as the tail (a, i + 1) or
    (b, j + 1) so that no tail is copied before the walk reaches its state.
    """
    r, s = len(a), len(b)
    pa, pb = prefix_sums(a), prefix_sums(b)
    graph: dict = {}
    for state in itertools.product(range(r + 1), range(s + 1), (0, 1)):
        i, j, last = state
        if not state[last] and state != (0, 0, 1):
            continue  # no y of side `last` placed yet: only the start
        if i < r and j < s:
            graph[state] = ([_step(state, side, a, b, pa, pb) for side in (0, 1)], None)
        elif i < r and last:
            graph[state] = ((), (a, i + 1))
        elif j < s and not last:
            graph[state] = ((), (b, j + 1))
    return graph


def expand_general(a: Iterable[int], b: Iterable[int]) -> LinComb:
    """Shuffle of x^{a_1}y...x^{a_r}y with x^{b_1}y...x^{b_s}y, closed form.

    One binomial_walk over the paths of _step from (0, 0, 1), with the paths
    that reach the same state with the same alpha prefix summed into one
    node (docs/FORMULA_NOTES.md, "The binomial walk").
    """
    a, b = tuple(a), tuple(b)
    _check_exponents(a, "a")
    _check_exponents(b, "b")
    out: dict[tuple[int, ...], int] = {}
    binomial_walk(out, _general_graph(a, b), sum(a) + sum(b))
    return LinComb.from_exponents(out)


def _walk_terms(terms: list, total: int) -> LinComb:
    """The display that adds up `terms`, each a pair (steps, tail): the
    chain of binomials `steps` over the head, as combinat.binomial_walk
    reads them, with the trailing alphas pinned to `tail` by Kronecker
    deltas and x-degree `total` in all.

    The terms are walked as a trie of their steps: terms that share a step
    prefix share its states, and every term ends in a terminal state of its
    own, so equal terms each still count.
    """
    graph: dict = {(): ([], None)}
    for steps, tail in terms:
        state = ()
        for step in steps[:-1]:
            new = state + (step,)
            if new not in graph:
                graph[state][0].append((new, *step))
                graph[new] = ([], None)
            state = new
        end = len(graph)
        graph[state][0].append((end, *steps[-1]))
        graph[end] = ((), (tail, 0))
    out: dict[tuple[int, ...], int] = {}
    binomial_walk(out, graph, total)
    return LinComb.from_exponents(out)


# The small displays, every printed term a (steps, tail) pair of _walk_terms
# (a sum of two binomials is two terms, a Kronecker delta a pinned tail
# entry).  (c, False) is binom(alpha_i, c) and (c, True) is binom(alpha_i, c -
# alpha_1 - ... - alpha_{i-1}); a lower index that subtracts later alphas,
# binom(alpha_k, c - alpha_{k+1} - ... - alpha_m) with alpha_m the last part
# the walk sets, is binom(alpha_k, (R - c) - alpha_1 - ... - alpha_{k-1}) for
# R the x-degree left after the pinned tail (docs/FORMULA_NOTES.md).


def expand_euler(a: int, b: int) -> LinComb:
    """Depth-1 by depth-1 product: the classical two-zeta decomposition."""
    _check_exponents((a, b), "expand_euler")
    return _walk_terms([(((a, False),), ()), (((b, False),), ())], a + b)


def expand_1_s(a: int, b: Iterable[int]) -> LinComb:
    """Depth-1 by depth-s product in closed form."""
    b = tuple(b)
    _check_exponents((a,), "a")
    _check_exponents(b, "b")
    s, t = len(b), a + sum(b)
    plain = tuple((bi, False) for bi in b)  # binom(alpha_i, b_i)
    # the lone x^a block lands in front: alpha_j pinned to b_{j-1} from j = 3 on
    terms = [(((a, False),), b[1:]), (plain, ())]
    # bridge terms: the a-block splits position k+1, pinning the tail;
    # binom(alpha_{k+1}, b_{k+1} - alpha_{k+2}) is a prefix step by symmetry
    for k in range(1, s):
        tail = b[k + 1 :]
        terms.append(((*plain[:k], (t - sum(tail) - b[k], True)), tail))
    return _walk_terms(terms, t)


def expand_1_2(a: int, b1: int, b2: int) -> LinComb:
    _check_exponents((a, b1, b2), "expand_1_2")
    t = a + b1 + b2
    return _walk_terms([
        (((a, False),), (b2,)),
        (((b1, False), (b2, False)), ()),
        (((b1, False), (t - b2, True)), ()),
    ], t)


def expand_1_3(a: int, b1: int, b2: int, b3: int) -> LinComb:
    _check_exponents((a, b1, b2, b3), "expand_1_3")
    t = a + b1 + b2 + b3
    return _walk_terms([
        (((a, False),), (b2, b3)),
        (((b1, False), (t - b3 - b2, True)), (b3,)),
        (((b1, False), (b2, False), (b3, False)), ()),
        (((b1, False), (b2, False), (t - b3, True)), ()),
    ], t)


def expand_2_2(a1: int, a2: int, b1: int, b2: int) -> LinComb:
    _check_exponents((a1, a2, b1, b2), "expand_2_2")
    t = a1 + a2 + b1 + b2
    mixed = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    return _walk_terms([
        (((a1, False), (a2, False)), (b2,)),
        (((b1, False), (b2, False)), (a2,)),
        (((a1, False), mixed, (b2, False)), ()),
        (((a1, False), mixed, (t - b2, True)), ()),
        (((b1, False), mixed, (a2, False)), ()),
        (((b1, False), mixed, (t - a2, True)), ()),
    ], t)


def expand_2_3(a1: int, a2: int, b1: int, b2: int, b3: int) -> LinComb:
    # Second term: the printed display shows binom(alpha_3, b2 - a4), but no
    # symbol a4 exists at these arities; alpha_4 is the oracle-validated
    # reading (see FORMULA_NOTES.md).
    _check_exponents((a1, a2, b1, b2, b3), "expand_2_3")
    t = a1 + a2 + b1 + b2 + b3
    mixed = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    wide = (t - a2 - b3, True)  # binom(alpha_3, a2 + b3 - alpha_4 - alpha_5)
    return _walk_terms([
        (((a1, False), (a2, False)), (b2, b3)),
        (((a1, False), mixed, (t - b3 - b2, True)), (b3,)),
        (((a1, False), mixed, (b2, False), (b3, False)), ()),
        (((a1, False), mixed, (b2, False), (t - b3, True)), ()),
        (((b1, False), (b2, False), (b3, False)), (a2,)),
        (((b1, False), mixed, (a2, False)), (b3,)),
        (((b1, False), (b2, False), wide, (a2, False)), ()),
        (((b1, False), (b2, False), wide, (t - a2, True)), ()),
        (((b1, False), mixed, wide, (b3, False)), ()),
        (((b1, False), mixed, wide, (t - b3, True)), ()),
    ], t)


def _c33(t: int, a1, a2, a3, b1, b2, b3) -> list:
    """The terms of the half of the 3x3 display whose first y-block comes from a."""
    mixed1 = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    mixed2 = (a1 + a2 + b1, True)  # binom(alpha_3, a1 + a2 + b1 - alpha_1 - alpha_2)
    wide = (t - a3 - b3, True)  # binom(alpha_4, a3 + b3 - alpha_5 - alpha_6)
    lead = ((a1, False), (a2, False))
    return [
        ((*lead, (a3, False)), (b2, b3)),
        (((a1, False), mixed1, (b2, False), (b3, False)), (a3,)),
        (((a1, False), mixed1, mixed2, (a3, False)), (b3,)),
        ((*lead, mixed2, (t - b3 - b2, True)), (b3,)),
        ((*lead, mixed2, (b2, False), (b3, False)), ()),
        ((*lead, mixed2, (b2, False), (t - b3, True)), ()),
        (((a1, False), mixed1, (b2, False), wide, (a3, False)), ()),
        (((a1, False), mixed1, (b2, False), wide, (t - a3, True)), ()),
        (((a1, False), mixed1, mixed2, wide, (b3, False)), ()),
        (((a1, False), mixed1, mixed2, wide, (t - b3, True)), ()),
    ]


def expand_3_3(a1: int, a2: int, a3: int, b1: int, b2: int, b3: int) -> LinComb:
    _check_exponents((a1, a2, a3, b1, b2, b3), "expand_3_3")
    t = a1 + a2 + a3 + b1 + b2 + b3
    terms = _c33(t, a1, a2, a3, b1, b2, b3) + _c33(t, b1, b2, b3, a1, a2, a3)
    return _walk_terms(terms, t)
