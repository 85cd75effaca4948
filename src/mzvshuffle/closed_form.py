"""Closed-form shuffle expansions for words in exponent form.

expand_general implements the four-case coefficient formula: the output
exponent tuple (alpha_1, ..., alpha_{r+s}) receives one contribution per way
of interleaving the y-blocks of the two factors, and each interleaving
contributes a product of binomials binom(alpha_i, beta_i) whose beta values
are fixed by the block structure, with Kronecker deltas pinning the trailing
positions.

The interleavings depend only on the depth pair (r, s), so their block
layouts are built once per pair, on first use, and cached.  Within a
layout, beta_i is either an exponent of a factor (inside a block) or a
constant minus alpha_1 + ... + alpha_{i-1} (at a block start).  The walk
goes left to right and gives each alpha_i only the values with
binom(alpha_i, beta_i) != 0; the Kronecker deltas fix the trailing
positions and the one free position takes the x-degree that is left.
Every contribution is a positive product, so the work scales with the
number of nonzero terms of the formula instead of with all weak
compositions of the x-degree.  One recipe, _beta_steps, gives the steps
of a block shape; beta_sequence evaluates them at concrete exponents,
_layouts cuts them at each layout's bound, and coeff_general evaluates each
layout's steps at one exponent tuple.

The concrete low-arity expansions (Euler, 1 x s, and the five small cases)
are independent transcriptions of their published displays and are tested
against the brute-force oracles; none of them reads _layouts.  expand_1_s
and the 1x3, 2x2, 2x3 and 3x3 displays add each printed term as one
binomial_chains walk (_add_chains): its Kronecker deltas pin a tail, and a
lower index that subtracts later alphas becomes a prefix step by
binom(n, k) = binom(n, n - k) (docs/FORMULA_NOTES.md), so they too do work
in proportion to their nonzero terms.  Euler's display and the 1x2 display
are still evaluated at every weak composition of the x-degree: on the small
totals they run at, that costs less than the walks' fixed cost.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

from .combinat import (
    binom,
    binomial_chains,
    composition_list,
    prefix_sums,
    weak_composition_list,
)
from .lincomb import LinComb


def _check_exponents(exps: tuple[int, ...], name: str) -> None:
    if len(exps) < 1:
        raise ValueError(f"{name} needs at least one exponent")
    if not all(isinstance(e, int) for e in exps):
        raise TypeError(f"{name} exponents must be ints, got {exps}")
    if any(e < 0 for e in exps):
        raise ValueError(f"{name} exponents must be nonnegative, got {exps}")


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
    return _betas(_beta_steps(lcomp, ncomp), _constants(a, b), prefix_sums(alphas))


def _beta_steps(lcomp: tuple[int, ...], ncomp: tuple[int, ...]) -> list[tuple[int, bool]]:
    """The beta recipe of the block shape (lcomp, ncomp), with the exponents
    left symbolic: one (k, prefix) step per position, read by _betas."""
    r, s = sum(lcomp), sum(ncomp)

    def start(x: int, y: int) -> tuple[int, bool]:
        return (r + s + x * (s + 1) + y, True)

    steps: list[tuple[int, bool]] = []
    ai = bi = 0
    for j, lpart in enumerate(lcomp):
        steps.append(start(ai + 1, bi))
        steps.extend((ai + t - 1, False) for t in range(2, lpart + 1))
        ai += lpart
        if j < len(ncomp):
            steps.append(start(ai, bi + 1))
            steps.extend((r + bi + t - 1, False) for t in range(2, ncomp[j] + 1))
            bi += ncomp[j]
    return steps


def _betas(
    steps: Iterable[tuple[int, bool]], table: list[int], pal: tuple[int, ...]
) -> tuple[int, ...]:
    """beta_i = table[k], less alpha_1 + ... + alpha_{i-1} (pal[i]) at a
    prefix step, for table = _constants(a, b)."""
    return tuple(table[k] - pal[i] if prefix else table[k] for i, (k, prefix) in enumerate(steps))


def gamma_sequence(lcomp, ncomp, alphas, a, b) -> tuple[int, ...]:
    """Mirror of beta_sequence for interleavings that start with b-blocks.

    Identical to beta_sequence with the roles of (a, lcomp) and (b, ncomp)
    swapped, so positions follow the b-leading block layout.
    """
    return beta_sequence(ncomp, lcomp, alphas, b, a)


class _Layout(NamedTuple):
    """One y-block interleaving, reduced to what its chain needs.

    Positions 1..bound carry binom(alpha_i, beta_i); position bound+1 is
    free; the positions after it are pinned by Kronecker deltas.  Indices
    refer to the table that _constants builds for the exponents.
    """

    bound: int
    steps: tuple[tuple[int, bool], ...]  # (table index of beta's constant, prefix)
    tail: tuple[int, ...]  # table indices of the pinned alpha values


def _constants(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """a + b, then pa[x] + pb[y] at index r + s + x * (s + 1) + y."""
    pa, pb = prefix_sums(a), prefix_sums(b)
    return [*a, *b, *(x + y for x in pa for y in pb)]


@lru_cache(maxsize=None)
def _layouts(r: int, s: int) -> tuple[_Layout, ...]:
    """Layouts of the interleavings of depths r and s that start with an a-block.

    Two shapes: ending with an a-block (one extra a-part) or with a b-block
    (equally many parts).  Depth pair (s, r) with the factors swapped gives
    the gamma-side layouts, those starting with a b-block.
    """

    def layout(lc, nc, bound, tail):
        return _Layout(bound, tuple(_beta_steps(lc, nc)[:bound]), tuple(tail))

    out = []
    # shape ending in an a-block: l has p+1 parts, n has p parts
    for p in range(1, min(r - 1, s) + 1):
        for head in range(p, r):  # L_p; the final a-block keeps r - head >= 1
            for lc_head in composition_list(head, p):
                for nc in composition_list(s, p):
                    out.append(layout(lc_head + (r - head,), nc, head + s, range(head + 1, r)))
    # shape ending in a b-block: l and n both have p parts
    for p in range(1, min(r, s) + 1):
        for head in range(p - 1, s):  # N_{p-1}; the final b-block keeps s - head >= 1
            for nc_head in composition_list(head, p - 1):
                for lc in composition_list(r, p):
                    out.append(
                        layout(lc, nc_head + (s - head,), r + head, range(r + head + 1, r + s))
                    )
    return tuple(out)


def coeff_general(alphas: Iterable[int], a: Iterable[int], b: Iterable[int]) -> int:
    """Coefficient of x^{alpha_1} y ... x^{alpha_{r+s}} y in the product."""
    alphas, a, b = tuple(alphas), tuple(a), tuple(b)
    _check_exponents(a, "a")
    _check_exponents(b, "b")
    if len(alphas) != len(a) + len(b):
        raise ValueError("alphas must have r + s entries")
    if any(x < 0 for x in alphas):
        raise ValueError(f"alpha entries must be nonnegative, got {alphas}")
    if sum(alphas) != sum(a) + sum(b):
        raise ValueError("alphas must sum to the total x-degree")
    pal = prefix_sums(alphas)
    total = 0
    for first, second in ((a, b), (b, a)):
        table = _constants(first, second)
        for lay in _layouts(len(first), len(second)):
            if alphas[lay.bound + 1 :] == tuple(table[k] for k in lay.tail):
                total += math.prod(map(binom, alphas, _betas(lay.steps, table, pal)))
    return total


def expand_general(a: Iterable[int], b: Iterable[int]) -> LinComb:
    """Shuffle of x^{a_1}y...x^{a_r}y with x^{b_1}y...x^{b_s}y, closed form."""
    a, b = tuple(a), tuple(b)
    _check_exponents(a, "a")
    _check_exponents(b, "b")
    total = sum(a) + sum(b)
    out: dict[tuple[int, ...], int] = {}
    for first, second in ((a, b), (b, a)):
        table = _constants(first, second)
        for lay in _layouts(len(first), len(second)):
            tail = tuple(table[k] for k in lay.tail)
            steps = tuple((table[k], prefix) for k, prefix in lay.steps)
            _add_chains(out, steps, total, tail)
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


def expand_euler(a: int, b: int) -> LinComb:
    """Depth-1 by depth-1 product: the classical two-zeta decomposition."""
    _check_exponents((a, b), "expand_euler")
    out = {}
    for a1 in range(a + b + 1):
        coeff = binom(a1, a) + binom(a1, b)
        out[(a1, a + b - a1)] = coeff
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


# The small displays from 1x3 on, one _add_chains walk per printed term (a
# sum of two binomials is two walks, a Kronecker delta a pinned tail entry,
# as in expand_1_s).  (c, False) is binom(alpha_i, c) and
# (c, True) is binom(alpha_i, c - alpha_1 - ... - alpha_{i-1}); a lower
# index that subtracts later alphas, binom(alpha_k, c - alpha_{k+1} - ...
# - alpha_m) with alpha_m the last part the walk sets, is binom(alpha_k,
# (R - c) - alpha_1 - ... - alpha_{k-1}) for R the x-degree left after the
# pinned tail (docs/FORMULA_NOTES.md).


def expand_1_2(a: int, b1: int, b2: int) -> LinComb:
    # Enumerated, not walked: on its small totals three walks cost more than
    # evaluating the display at each weak composition (docs/FORMULA_NOTES.md).
    _check_exponents((a, b1, b2), "expand_1_2")
    out = {}
    for al in weak_composition_list(a + b1 + b2, 3):
        coeff = (
            (binom(al[0], a) if al[2] == b2 else 0)
            + binom(al[0], b1) * binom(al[1], b2)
            + binom(al[0], b1) * binom(al[1], b2 - al[2])
        )
        out[al] = coeff
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
