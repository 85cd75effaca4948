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
(0, 0, 1).  expand_general walks all paths at once, level by level, and sums
the paths that reach the same state with the same alpha prefix, since they
share their future.  Each alpha_i takes only the values with
binom(alpha_i, beta_i) != 0 from which the walk can still finish (a cap per
state), the Kronecker deltas fix the final block's trailing positions and
its first position takes the x-degree that is left.  Every contribution is a
positive product, so the work scales with the number of nonzero terms of the
formula instead of with all weak compositions of the x-degree.
beta_sequence reads _step too, and coeff_general evaluates the display
itself, one block shape at a time, as an uncached reference for the walk.

The concrete low-arity expansions (Euler, 1 x s, and the five small cases)
are independent transcriptions of their published displays and are tested
against the brute-force oracles; none of them reads _step.  Each adds every
printed term as one binomial_chains walk (_add_chains): its Kronecker deltas
pin a tail, and a lower index that subtracts later alphas becomes a prefix
step by binom(n, k) = binom(n, n - k) (docs/FORMULA_NOTES.md), so they too
do work in proportion to their nonzero terms.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .combinat import binom, binomial_chains, composition_list, prefix_sums
from .lincomb import LinComb
from .words import _check_exponents


def _step(state: tuple[int, int, int], side: int, a, b, pa, pb) -> tuple[tuple, tuple[int, bool]]:
    """Place the next y of a (side 0) or of b (side 1) at state (i, j, last).

    Returns the new state and the y's binomial step as
    combinat.binomial_chains reads it: (its exponent, False) when the y
    continues its block, (pa[i'] + pb[j'], True) for beta = pa[i'] + pb[j']
    - alpha_1 - ... - alpha_{i'+j'-1} when it starts one, with (i', j') the
    new counts and pa, pb the prefix sums of a, b.  At the start (0, 0, 1)
    either factor's first y reads its first exponent.
    """
    i, j, last = state
    i, j = (i, j + 1) if side else (i + 1, j)
    if side == last:
        return (i, j, side), ((b[j - 1] if side else a[i - 1]), False)
    return (i, j, side), (pa[i] + pb[j], True)


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
            state, (c, prefix) = _step(state, side, a, b, pa, pb)
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


def expand_general(a: Iterable[int], b: Iterable[int]) -> LinComb:
    """Shuffle of x^{a_1}y...x^{a_r}y with x^{b_1}y...x^{b_s}y, closed form.

    One walk over the paths of _step from (0, 0, 1), with the paths that
    reach the same state with the same alpha prefix summed into one node
    (docs/FORMULA_NOTES.md, "The general formula as one walk").
    """
    a, b = tuple(a), tuple(b)
    _check_exponents(a, "a")
    _check_exponents(b, "b")
    r, s = len(a), len(b)
    pa, pb = prefix_sums(a), prefix_sums(b)
    # cap[state]: the largest x-degree placed before the state from which the
    # walk can still finish, worked out from the later states first.  Once
    # the side of the last y is used up, the other side's y's form the final
    # block: its first position takes the x's left and the rest are pinned
    # to their exponents (tails[state]).
    cap, tails = {}, {}
    for i in range(r, -1, -1):
        for j in range(s, -1, -1):
            if i < r and j < s:
                for last in (0, 1):
                    bounds = [-1]
                    for side in (0, 1):
                        new, (c, prefix) = _step((i, j, last), side, a, b, pa, pb)
                        # beta >= 0 needs the prefix sum at most c, and alpha
                        # >= beta lifts the next one to at least c
                        bounds.append((c if c <= cap[new] else -1) if prefix else cap[new] - c)
                    cap[i, j, last] = max(bounds)
            elif i < r:
                tails[i, s, 1] = a[i + 1 :]
                cap[i, s, 1] = pa[i + 1] + pb[s]
            elif j < s:
                tails[r, j, 0] = b[j + 1 :]
                cap[r, j, 0] = pa[r] + pb[j + 1]
    comb = math.comb
    out: dict[tuple[int, ...], int] = {}
    level: dict[tuple, dict[tuple[int, ...], int]] = {(0, 0, 1): {(): 1}}
    while level:
        nxt: dict[tuple, dict[tuple[int, ...], int]] = {}
        for state, paths in level.items():
            for side in (0, 1):
                new, (c, prefix) = _step(state, side, a, b, pa, pb)
                top, tail = cap[new], tails.get(new)
                dest = nxt.setdefault(new, {}) if tail is None else out
                for w, coeff in paths.items():
                    used = sum(w)
                    beta = c - used if prefix else c
                    if beta < 0:
                        continue
                    # alpha runs from beta up to what the cap of `new` leaves
                    for x in range(beta, top - used + 1):
                        key = w + (x,) if tail is None else w + (x, top - used - x) + tail
                        dest[key] = dest.get(key, 0) + (coeff * comb(x, beta) if beta else coeff)
        level = nxt
    return LinComb.from_exponents(out)


def _add_chains(
    out: dict, steps: tuple[tuple[int, bool], ...], total: int, tail: tuple[int, ...] = ()
) -> None:
    """Add one display term to out: the chain of binomials `steps` over the
    head, as combinat.binomial_chains reads them, with the trailing alphas
    pinned to `tail` by Kronecker deltas and x-degree `total` in all."""
    for head, coeff in binomial_chains(steps, total - sum(tail)):
        key = head + tail
        out[key] = out.get(key, 0) + coeff


# The small displays, one _add_chains walk per printed term (a sum of two
# binomials is two walks, a Kronecker delta a pinned tail entry).
# (c, False) is binom(alpha_i, c) and (c, True) is binom(alpha_i, c -
# alpha_1 - ... - alpha_{i-1}); a lower index that subtracts later alphas,
# binom(alpha_k, c - alpha_{k+1} - ... - alpha_m) with alpha_m the last part
# the walk sets, is binom(alpha_k, (R - c) - alpha_1 - ... - alpha_{k-1}) for
# R the x-degree left after the pinned tail (docs/FORMULA_NOTES.md).


def expand_euler(a: int, b: int) -> LinComb:
    """Depth-1 by depth-1 product: the classical two-zeta decomposition."""
    _check_exponents((a, b), "expand_euler")
    out: dict[tuple[int, ...], int] = {}
    _add_chains(out, ((a, False),), a + b)
    _add_chains(out, ((b, False),), a + b)
    return LinComb.from_exponents(out)


def expand_1_s(a: int, b: Iterable[int]) -> LinComb:
    """Depth-1 by depth-s product in closed form."""
    b = tuple(b)
    _check_exponents((a,), "a")
    _check_exponents(b, "b")
    s, t = len(b), a + sum(b)
    plain = tuple((bi, False) for bi in b)  # binom(alpha_i, b_i)
    out: dict[tuple[int, ...], int] = {}
    # the lone x^a block lands in front: alpha_j pinned to b_{j-1} from j = 3 on
    _add_chains(out, ((a, False),), t, b[1:])
    _add_chains(out, plain, t)
    # bridge terms: the a-block splits position k+1, pinning the tail;
    # binom(alpha_{k+1}, b_{k+1} - alpha_{k+2}) is a prefix step by symmetry
    for k in range(1, s):
        tail = b[k + 1 :]
        _add_chains(out, (*plain[:k], (t - sum(tail) - b[k], True)), t, tail)
    return LinComb.from_exponents(out)


def expand_1_2(a: int, b1: int, b2: int) -> LinComb:
    _check_exponents((a, b1, b2), "expand_1_2")
    t = a + b1 + b2
    out: dict[tuple[int, ...], int] = {}
    _add_chains(out, ((a, False),), t, (b2,))
    _add_chains(out, ((b1, False), (b2, False)), t)
    _add_chains(out, ((b1, False), (t - b2, True)), t)
    return LinComb.from_exponents(out)


def expand_1_3(a: int, b1: int, b2: int, b3: int) -> LinComb:
    _check_exponents((a, b1, b2, b3), "expand_1_3")
    t = a + b1 + b2 + b3
    out: dict[tuple[int, ...], int] = {}
    _add_chains(out, ((a, False),), t, (b2, b3))
    _add_chains(out, ((b1, False), (t - b3 - b2, True)), t, (b3,))
    _add_chains(out, ((b1, False), (b2, False), (b3, False)), t)
    _add_chains(out, ((b1, False), (b2, False), (t - b3, True)), t)
    return LinComb.from_exponents(out)


def expand_2_2(a1: int, a2: int, b1: int, b2: int) -> LinComb:
    _check_exponents((a1, a2, b1, b2), "expand_2_2")
    t = a1 + a2 + b1 + b2
    mixed = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    out: dict[tuple[int, ...], int] = {}
    _add_chains(out, ((a1, False), (a2, False)), t, (b2,))
    _add_chains(out, ((b1, False), (b2, False)), t, (a2,))
    _add_chains(out, ((a1, False), mixed, (b2, False)), t)
    _add_chains(out, ((a1, False), mixed, (t - b2, True)), t)
    _add_chains(out, ((b1, False), mixed, (a2, False)), t)
    _add_chains(out, ((b1, False), mixed, (t - a2, True)), t)
    return LinComb.from_exponents(out)


def expand_2_3(a1: int, a2: int, b1: int, b2: int, b3: int) -> LinComb:
    # Second term: the printed display shows binom(alpha_3, b2 - a4), but no
    # symbol a4 exists at these arities; alpha_4 is the oracle-validated
    # reading (see FORMULA_NOTES.md).
    _check_exponents((a1, a2, b1, b2, b3), "expand_2_3")
    t = a1 + a2 + b1 + b2 + b3
    mixed = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    wide = (t - a2 - b3, True)  # binom(alpha_3, a2 + b3 - alpha_4 - alpha_5)
    out: dict[tuple[int, ...], int] = {}
    _add_chains(out, ((a1, False), (a2, False)), t, (b2, b3))
    _add_chains(out, ((a1, False), mixed, (t - b3 - b2, True)), t, (b3,))
    _add_chains(out, ((a1, False), mixed, (b2, False), (b3, False)), t)
    _add_chains(out, ((a1, False), mixed, (b2, False), (t - b3, True)), t)
    _add_chains(out, ((b1, False), (b2, False), (b3, False)), t, (a2,))
    _add_chains(out, ((b1, False), mixed, (a2, False)), t, (b3,))
    _add_chains(out, ((b1, False), (b2, False), wide, (a2, False)), t)
    _add_chains(out, ((b1, False), (b2, False), wide, (t - a2, True)), t)
    _add_chains(out, ((b1, False), mixed, wide, (b3, False)), t)
    _add_chains(out, ((b1, False), mixed, wide, (t - b3, True)), t)
    return LinComb.from_exponents(out)


def _c33(out: dict, t: int, a1, a2, a3, b1, b2, b3) -> None:
    """The half of the 3x3 display whose first y-block comes from a."""
    mixed1 = (a1 + b1, True)  # binom(alpha_2, a1 + b1 - alpha_1)
    mixed2 = (a1 + a2 + b1, True)  # binom(alpha_3, a1 + a2 + b1 - alpha_1 - alpha_2)
    wide = (t - a3 - b3, True)  # binom(alpha_4, a3 + b3 - alpha_5 - alpha_6)
    lead = ((a1, False), (a2, False))
    _add_chains(out, (*lead, (a3, False)), t, (b2, b3))
    _add_chains(out, ((a1, False), mixed1, (b2, False), (b3, False)), t, (a3,))
    _add_chains(out, ((a1, False), mixed1, mixed2, (a3, False)), t, (b3,))
    _add_chains(out, (*lead, mixed2, (t - b3 - b2, True)), t, (b3,))
    _add_chains(out, (*lead, mixed2, (b2, False), (b3, False)), t)
    _add_chains(out, (*lead, mixed2, (b2, False), (t - b3, True)), t)
    _add_chains(out, ((a1, False), mixed1, (b2, False), wide, (a3, False)), t)
    _add_chains(out, ((a1, False), mixed1, (b2, False), wide, (t - a3, True)), t)
    _add_chains(out, ((a1, False), mixed1, mixed2, wide, (b3, False)), t)
    _add_chains(out, ((a1, False), mixed1, mixed2, wide, (t - b3, True)), t)


def expand_3_3(a1: int, a2: int, a3: int, b1: int, b2: int, b3: int) -> LinComb:
    _check_exponents((a1, a2, a3, b1, b2, b3), "expand_3_3")
    t = a1 + a2 + a3 + b1 + b2 + b3
    out: dict[tuple[int, ...], int] = {}
    _c33(out, t, a1, a2, a3, b1, b2, b3)
    _c33(out, t, b1, b2, b3, a1, a2, a3)
    return LinComb.from_exponents(out)
