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
against the brute-force oracles.
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
            for head, coeff in binomial_chains(steps, total - sum(tail)):
                key = head + tail
                out[key] = out.get(key, 0) + coeff
    return LinComb.from_exponents(out)


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
    s = len(b)
    out = {}
    for al in weak_composition_list(a + sum(b), s + 1):
        coeff = _coeff_1_s(al, a, b)
        out[al] = coeff
    return LinComb.from_exponents(out)


def _coeff_1_s(al: tuple[int, ...], a: int, b: tuple[int, ...]) -> int:
    s = len(b)
    coeff = 0
    # the lone x^a block lands in front: alpha_j pinned to b_{j-1} from j = 3 on
    if all(al[j - 1] == b[j - 2] for j in range(3, s + 2)):
        coeff += binom(al[0], a)
    prod = 1
    for i in range(1, s + 1):
        prod *= binom(al[i - 1], b[i - 1])
        if not prod:
            break
    coeff += prod
    # bridge terms: the a-block splits position k+1, pinning the tail
    for k in range(1, s):
        if any(al[j - 1] != b[j - 2] for j in range(k + 3, s + 2)):
            continue
        prod = 1
        for i in range(1, k + 1):
            prod *= binom(al[i - 1], b[i - 1])
            if not prod:
                break
        if prod:
            coeff += prod * binom(al[k], b[k] - al[k + 1])
    return coeff


def expand_1_2(a: int, b1: int, b2: int) -> LinComb:
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
    out = {}
    for al in weak_composition_list(a + b1 + b2 + b3, 4):
        coeff = (
            (binom(al[0], a) if al[2] == b2 and al[3] == b3 else 0)
            + (binom(al[0], b1) * binom(al[1], b2 - al[2]) if al[3] == b3 else 0)
            + binom(al[0], b1)
            * binom(al[1], b2)
            * (binom(al[2], b3) + binom(al[2], b3 - al[3]))
        )
        out[al] = coeff
    return LinComb.from_exponents(out)


def expand_2_2(a1: int, a2: int, b1: int, b2: int) -> LinComb:
    _check_exponents((a1, a2, b1, b2), "expand_2_2")
    out = {}
    for al in weak_composition_list(a1 + a2 + b1 + b2, 4):
        coeff = (
            (binom(al[0], a1) * binom(al[1], a2) if al[3] == b2 else 0)
            + (binom(al[0], b1) * binom(al[1], b2) if al[3] == a2 else 0)
            + binom(al[0], a1)
            * binom(al[1], a1 + b1 - al[0])
            * (binom(al[2], b2) + binom(al[2], b2 - al[3]))
            + binom(al[0], b1)
            * binom(al[1], a1 + b1 - al[0])
            * (binom(al[2], a2) + binom(al[2], a2 - al[3]))
        )
        out[al] = coeff
    return LinComb.from_exponents(out)


def expand_2_3(a1: int, a2: int, b1: int, b2: int, b3: int) -> LinComb:
    # Second term: the printed display shows binom(alpha_3, b2 - a4), but no
    # symbol a4 exists at these arities; alpha_4 is the oracle-validated
    # reading (see FORMULA_NOTES.md).
    _check_exponents((a1, a2, b1, b2, b3), "expand_2_3")
    out = {}
    for al in weak_composition_list(a1 + a2 + b1 + b2 + b3, 5):
        mixed = binom(al[1], a1 + b1 - al[0])
        coeff = (
            (binom(al[0], a1) * binom(al[1], a2) if al[3] == b2 and al[4] == b3 else 0)
            + (binom(al[0], a1) * mixed * binom(al[2], b2 - al[3]) if al[4] == b3 else 0)
            + binom(al[0], a1)
            * mixed
            * binom(al[2], b2)
            * (binom(al[3], b3) + binom(al[3], b3 - al[4]))
            + (binom(al[0], b1) * binom(al[1], b2) * binom(al[2], b3) if al[4] == a2 else 0)
            + (binom(al[0], b1) * mixed * binom(al[2], a2) if al[4] == b3 else 0)
            + binom(al[0], b1)
            * binom(al[1], b2)
            * binom(al[2], a2 + b3 - al[3] - al[4])
            * (binom(al[3], a2) + binom(al[3], a2 - al[4]))
            + binom(al[0], b1)
            * mixed
            * binom(al[2], a2 + b3 - al[3] - al[4])
            * (binom(al[3], b3) + binom(al[3], b3 - al[4]))
        )
        out[al] = coeff
    return LinComb.from_exponents(out)


def _c33(al, a1, a2, a3, b1, b2, b3) -> int:
    mixed1 = binom(al[1], a1 + b1 - al[0])
    mixed2 = binom(al[2], a1 + a2 + b1 - al[0] - al[1])
    coeff = 0
    if al[4] == b2 and al[5] == b3:
        coeff += binom(al[0], a1) * binom(al[1], a2) * binom(al[2], a3)
    if al[5] == a3:
        coeff += binom(al[0], a1) * mixed1 * binom(al[2], b2) * binom(al[3], b3)
    if al[5] == b3:
        coeff += binom(al[0], a1) * mixed1 * mixed2 * binom(al[3], a3)
        coeff += binom(al[0], a1) * binom(al[1], a2) * mixed2 * binom(al[3], b2 - al[4])
    coeff += (
        binom(al[0], a1)
        * binom(al[1], a2)
        * mixed2
        * binom(al[3], b2)
        * (binom(al[4], b3) + binom(al[4], b3 - al[5]))
    )
    coeff += (
        binom(al[0], a1)
        * mixed1
        * binom(al[2], b2)
        * binom(al[3], a3 + b3 - al[4] - al[5])
        * (binom(al[4], a3) + binom(al[4], a3 - al[5]))
    )
    coeff += (
        binom(al[0], a1)
        * mixed1
        * mixed2
        * binom(al[3], a3 + b3 - al[4] - al[5])
        * (binom(al[4], b3) + binom(al[4], b3 - al[5]))
    )
    return coeff


def expand_3_3(a1: int, a2: int, a3: int, b1: int, b2: int, b3: int) -> LinComb:
    _check_exponents((a1, a2, a3, b1, b2, b3), "expand_3_3")
    out = {}
    for al in weak_composition_list(a1 + a2 + a3 + b1 + b2 + b3, 6):
        coeff = _c33(al, a1, a2, a3, b1, b2, b3) + _c33(al, b1, b2, b3, a1, a2, a3)
        out[al] = coeff
    return LinComb.from_exponents(out)

