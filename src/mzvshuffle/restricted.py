"""Closed forms for products of words with runs of y's, and n-fold products.

Inputs are run pairs (a, r) meaning x^a y^r.  The two-factor expansions are
organized case by case, one function per y-interleaving pattern, so each
case can be checked on its own against an oracle restricted to that pattern.
"""

from __future__ import annotations

import math
from typing import Iterable

from .combinat import (
    binom,
    binomial_chains,
    composition_list,
    distinct_orderings,
    prefix_sums,
    weak_composition_list,
)
from .lincomb import LinComb

MAX_NFOLD = 8


def _add(out: dict, exps: tuple[int, ...], coeff: int) -> None:
    if coeff:
        out[exps] = out.get(exps, 0) + coeff


def _inner_shuffles(extra_ys: int, gap: int) -> int:
    """Ways to fill the region between the first and the s1-th y of one
    factor with `extra_ys` y's of the other factor.

    For gap = s1 - 2 >= 0 this is binom(extra_ys + gap, extra_ys).  When
    s1 = 1 the two boundary y's coincide, the region does not exist, and the
    printed factor binom(extra_ys - 1, extra_ys) would wrongly kill the
    whole term; the correct degenerate count is 1 for an empty region (see
    FORMULA_NOTES.md).
    """
    if gap >= 0:
        return binom(extra_ys + gap, extra_ys)
    return 1 if extra_ys == 0 else 0


def _chains(width: int, total: int, pinned: dict[int, tuple[int, bool]]):
    """binomial_chains for a window of `width` parts summing to `total`:
    binom(w_i, beta_i) at the positions `pinned` names, as (c, prefix), and
    no condition on the other parts.  Every pinned position lies before the
    last part."""
    return binomial_chains(tuple(pinned.get(i, (0, False)) for i in range(width - 1)), total)


def _check_run(a: int, r: int) -> None:
    if not isinstance(a, int) or not isinstance(r, int):
        raise TypeError(f"a run takes an int x-exponent and y-run length, got {(a, r)}")
    if a < 0:
        raise ValueError(f"x-exponent must be nonnegative, got {a}")
    if r < 1:
        raise ValueError(f"y-run length must be positive, got {r}")


def _sum_cases(cases: Iterable, *calls: tuple[int, ...]) -> LinComb:
    """Check the runs (x-exponent, y-run pairs) of calls[0], then sum every
    case function of `cases` at each argument tuple of `calls`."""
    args = calls[0]
    for a, r in zip(args[::2], args[1::2]):
        _check_run(a, r)
    out: dict = {}
    for fn in cases:
        for call in calls:
            fn(*call, out)
    return LinComb.from_exponents(out)


# ---------------------------------------------------------------------------
# x^a y^r . x^b y^s


def expand_res_1_1(a: int, r: int, b: int, s: int) -> LinComb:
    return _sum_cases([_res_1_1_half], (a, r, b, s), (b, s, a, r))


def _res_1_1_half(a: int, r: int, b: int, s: int, out: dict) -> None:
    # l leading y's come from the r-run; everything after position l+1 is empty
    k = r + s
    for l in range(1, r + 1):
        mult = binom(k - l - 1, r - l)
        if not mult:
            continue
        tail = (0,) * (k - l - 1)
        for window in weak_composition_list(a + b, l + 1):
            coeff = mult * binom(window[0], a)
            if coeff:
                _add(out, window + tail, coeff)


# ---------------------------------------------------------------------------
# x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2}


def _res12_case_i(a, r, b1, s1, b2, s2, out):
    for r1 in range(1, r + 1):
        for r2 in range(0, r - r1 + 1):
            m1 = _inner_shuffles(r2, s1 - 2)
            if not m1:
                continue
            for r3 in range(0, r - r1 - r2 + 1):
                r4 = r - r1 - r2 - r3
                mult = m1 * binom(r4 + s2 - 1, r4)
                if not mult:
                    continue
                z1 = (0,) * (r2 + s1 - 1)
                z2 = (0,) * (r4 + s2 - 1)
                for w1 in weak_composition_list(a + b1, r1 + 1):
                    coeff = mult * binom(w1[0], a)
                    if not coeff:
                        continue
                    for w2 in weak_composition_list(b2, r3 + 1):
                        _add(out, w1 + z1 + w2 + z2, coeff)


def _res12_case_ii(a, r, b1, s1, b2, s2, out):
    for l in range(1, s1):
        for r1 in range(1, r + 1):
            m1 = binom(r1 + s1 - l - 2, r1 - 1)
            if not m1:
                continue
            for r2 in range(0, r - r1 + 1):
                r3 = r - r1 - r2
                mult = m1 * binom(r3 + s2 - 1, r3)
                if not mult:
                    continue
                z1 = (0,) * (r1 + s1 - l - 1)
                z2 = (0,) * (r3 + s2 - 1)
                for w1 in weak_composition_list(a + b1, l + 1):
                    coeff = mult * binom(w1[0], b1)
                    if not coeff:
                        continue
                    for w2 in weak_composition_list(b2, r2 + 1):
                        _add(out, w1 + z1 + w2 + z2, coeff)


def _res12_case_iii(a, r, b1, s1, b2, s2, out):
    for r1 in range(1, r + 1):
        r2 = r - r1
        mult = binom(r2 + s2 - 1, r2)
        if not mult:
            continue
        tail = (0,) * (r2 + s2 - 1)
        for w, coeff in _chains(r1 + s1 + 1, a + b1 + b2, {0: (b1, False), s1: (a + b1, True)}):
            _add(out, w + tail, mult * coeff)


def _res12_case_iv(a, r, b1, s1, b2, s2, out):
    for l in range(1, s2 + 1):
        mult = binom(r + s2 - l - 1, r - 1)
        if not mult:
            continue
        tail = (0,) * (r + s2 - l - 1)
        for w, coeff in _chains(s1 + l + 1, a + b1 + b2, {0: (b1, False), s1: (b2, False)}):
            _add(out, w + tail, mult * coeff)


_RES12_CASES = {
    "i": _res12_case_i,
    "ii": _res12_case_ii,
    "iii": _res12_case_iii,
    "iv": _res12_case_iv,
}


def res_1_2_case(case: str, a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    """Contribution of a single y-interleaving case; mostly for verification."""
    if case not in _RES12_CASES:
        raise ValueError(f"unknown case {case!r}")
    return _sum_cases([_RES12_CASES[case]], (a, r, b1, s1, b2, s2))


def expand_res_1_2(a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    return _sum_cases(_RES12_CASES.values(), (a, r, b1, s1, b2, s2))


# ---------------------------------------------------------------------------
# x^{a1} y^{r1} x^{a2} y^{r2} . x^{b1} y^{s1} x^{b2} y^{s2}
#
# Only the interleavings whose first y comes from the first factor are
# expanded here; expand_res_2_2 symmetrizes by swapping the factors.


def _res22_case_i(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r2 + 1):
        for l2 in range(0, r2 - l1 + 1):
            m1 = _inner_shuffles(l2, s1 - 2)
            if not m1:
                continue
            for l3 in range(0, r2 - l1 - l2 + 1):
                l4 = r2 - l1 - l2 - l3
                mult = m1 * binom(l4 + s2 - 1, l4)
                if not mult:
                    continue
                z1 = (0,) * (l2 + s1 - 1)
                z2 = (0,) * (l4 + s2 - 1)
                for w1 in weak_composition_list(a1 + a2 + b1, r1 + l1 + 1):
                    coeff = mult * binom(w1[0], a1) * binom(w1[r1], a2)
                    if not coeff:
                        continue
                    for w2 in weak_composition_list(b2, l3 + 1):
                        _add(out, w1 + z1 + w2 + z2, coeff)


def _res22_case_ii(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for k in range(1, s1):
        for l1 in range(1, r2 + 1):
            m1 = binom(l1 + s1 - k - 2, l1 - 1)
            if not m1:
                continue
            for l2 in range(0, r2 - l1 + 1):
                l3 = r2 - l1 - l2
                mult = m1 * binom(l3 + s2 - 1, l3)
                if not mult:
                    continue
                z1 = (0,) * (l1 + s1 - k - 1)
                z2 = (0,) * (l3 + s2 - 1)
                for w1 in weak_composition_list(a1 + a2 + b1, r1 + k + 1):
                    coeff = binom(w1[0], a1)
                    if not coeff:
                        continue
                    coeff *= binom(w1[r1], a1 + b1 - sum(w1[:r1]))
                    if not coeff:
                        continue
                    coeff *= mult
                    for w2 in weak_composition_list(b2, l2 + 1):
                        _add(out, w1 + z1 + w2 + z2, coeff)


def _res22_case_iii(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r2 + 1):
        l2 = r2 - l1
        mult = binom(l2 + s2 - 1, l2)
        if not mult:
            continue
        tail = (0,) * (l2 + s2 - 1)
        pinned = {0: (a1, False), r1: (a1 + b1, True), r1 + s1: (a1 + a2 + b1, True)}
        for w, coeff in _chains(r1 + l1 + s1 + 1, a1 + a2 + b1 + b2, pinned):
            _add(out, w + tail, mult * coeff)


def _res22_case_iv(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for k in range(1, s2 + 1):
        mult = binom(r2 + s2 - k - 1, r2 - 1)
        if not mult:
            continue
        tail = (0,) * (r2 + s2 - k - 1)
        pinned = {0: (a1, False), r1: (a1 + b1, True), r1 + s1: (b2, False)}
        for w, coeff in _chains(r1 + s1 + k + 1, a1 + a2 + b1 + b2, pinned):
            _add(out, w + tail, mult * coeff)


def _res22_case_v(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l in range(1, r1):
        for k1 in range(1, s1 + 1):
            m1 = binom(r1 + k1 - l - 2, k1 - 1)
            if not m1:
                continue
            for k2 in range(0, s1 - k1 + 1):
                k3 = s1 - k1 - k2
                if k3 < 1:
                    continue
                for l1 in range(1, r2 + 1):
                    m2 = m1 * binom(k3 + l1 - 2, l1 - 1)
                    if not m2:
                        continue
                    for l2 in range(0, r2 - l1 + 1):
                        l3 = r2 - l1 - l2
                        mult = m2 * binom(l3 + s2 - 1, l3)
                        if not mult:
                            continue
                        z1 = (0,) * (r1 + k1 - l - 1)
                        z2 = (0,) * (k3 + l1 - 1)
                        z3 = (0,) * (l3 + s2 - 1)
                        for w1 in weak_composition_list(a1 + b1, l + 1):
                            c1 = mult * binom(w1[0], a1)
                            if not c1:
                                continue
                            # the a2 window is closed by its own prefix
                            # constraint; the printed display omits it (see
                            # FORMULA_NOTES.md)
                            for w2 in weak_composition_list(a2, k2 + 1):
                                for w3 in weak_composition_list(b2, l2 + 1):
                                    _add(out, w1 + z1 + w2 + z2 + w3 + z3, c1)


def _res22_case_vi(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r1):
        for k in range(1, s1):
            m1 = binom(k + r1 - l1 - 2, k - 1)
            if not m1:
                continue
            for l2 in range(1, r2 + 1):
                mult = m1 * binom(r2 + s2 - l2 - 1, s2 - 1)
                if not mult:
                    continue
                z1 = (0,) * (k + r1 - l1 - 1)
                z2 = (0,) * (r2 + s2 - l2 - 1)
                # w2 (s1 - k + 1 parts, the last closing the a2 prefix) and
                # w3 (l2 parts) walked as one window
                second = _chains(s1 - k + 1 + l2, a2 + b2, {s1 - k: (a2, True)})
                for w1, c1 in _chains(l1 + 1, a1 + b1, {0: (a1, False)}):
                    for w, c2 in second:
                        _add(out, w1 + z1 + w + z2, mult * c1 * c2)


def _res22_case_vii(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l in range(1, r1):
        for k1 in range(1, s1):
            m1 = binom(k1 + r1 - l - 2, k1 - 1)
            if not m1:
                continue
            for k2 in range(1, s2 + 1):
                mult = m1 * binom(r2 + s2 - k2 - 1, r2 - 1)
                if not mult:
                    continue
                z1 = (0,) * (k1 + r1 - l - 1)
                z2 = (0,) * (r2 + s2 - k2 - 1)
                mix = s1 - k1  # index of position r1+s1+1 within the window
                second = _chains(mix + k2 + 1, a2 + b2, {mix: (b2, False)})
                for w1, c1 in _chains(l + 1, a1 + b1, {0: (a1, False)}):
                    for w, c2 in second:
                        _add(out, w1 + z1 + w + z2, mult * c1 * c2)


def _res22_case_viii(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r1 + 1):
        for l2 in range(0, r1 - l1 + 1):
            l3 = r1 - l1 - l2
            if l3 < 1:
                continue
            m1 = _inner_shuffles(l2, s1 - 2)
            if not m1:
                continue
            for l in range(1, r2 + 1):
                mult = m1 * binom(r2 + s2 - l - 1, s2 - 1)
                if not mult:
                    continue
                z1 = (0,) * (l2 + s1 - 1)
                z2 = (0,) * (r2 + s2 - l - 1)
                width = l3 + l + 1
                mix = l3  # index of position r1+s1+1 within the window
                for w1 in weak_composition_list(a1 + b1, l1 + 1):
                    c1 = mult * binom(w1[0], a1)
                    if not c1:
                        continue
                    for w in weak_composition_list(a2 + b2, width):
                        c2 = binom(w[mix], a2)
                        if c2:
                            _add(out, w1 + z1 + w + z2, c1 * c2)


def _res22_case_ix(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r1 + 1):
        for l2 in range(0, r1 - l1 + 1):
            l3 = r1 - l1 - l2
            if l3 < 1:
                continue
            m1 = _inner_shuffles(l2, s1 - 2)
            if not m1:
                continue
            for k in range(1, s2 + 1):
                mult = m1 * binom(r2 + s2 - k - 1, r2 - 1)
                if not mult:
                    continue
                z1 = (0,) * (l2 + s1 - 1)
                z2 = (0,) * (r2 + s2 - k - 1)
                width = l3 + k + 1
                mix = l3
                for w1 in weak_composition_list(a1 + b1, l1 + 1):
                    c1 = mult * binom(w1[0], a1)
                    if not c1:
                        continue
                    for w in weak_composition_list(a2 + b2, width):
                        c2 = binom(w[mix], b2 - sum(w[:mix]))
                        if c2:
                            _add(out, w1 + z1 + w + z2, c1 * c2)


def _res22_case_x(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for l1 in range(1, r1 + 1):
        for l2 in range(0, r1 - l1 + 1):
            m1 = _inner_shuffles(l2, s1 - 2)
            if not m1:
                continue
            for l3 in range(0, r1 - l1 - l2 + 1):
                l4 = r1 - l1 - l2 - l3
                if l4 < 1:
                    continue
                for k1 in range(1, s2 + 1):
                    m2 = m1 * binom(k1 + l4 - 2, l4 - 1)
                    if not m2:
                        continue
                    for k2 in range(0, s2 - k1 + 1):
                        k3 = s2 - k1 - k2
                        mult = m2 * binom(k3 + r2 - 1, k3)
                        if not mult:
                            continue
                        z1 = (0,) * (l2 + s1 - 1)
                        z2 = (0,) * (k1 + l4 - 1)
                        z3 = (0,) * (k3 + r2 - 1)
                        for w1 in weak_composition_list(a1 + b1, l1 + 1):
                            c1 = mult * binom(w1[0], a1)
                            if not c1:
                                continue
                            # b2 window closed by its own prefix constraint,
                            # as in case (v); see FORMULA_NOTES.md
                            for w2 in weak_composition_list(b2, l3 + 1):
                                for w3 in weak_composition_list(a2, k2 + 1):
                                    _add(out, w1 + z1 + w2 + z2 + w3 + z3, c1)


_RES22_CASES = {
    "i": _res22_case_i,
    "ii": _res22_case_ii,
    "iii": _res22_case_iii,
    "iv": _res22_case_iv,
    "v": _res22_case_v,
    "vi": _res22_case_vi,
    "vii": _res22_case_vii,
    "viii": _res22_case_viii,
    "ix": _res22_case_ix,
    "x": _res22_case_x,
}


def res_2_2_case(
    case: str, a1: int, r1: int, a2: int, r2: int, b1: int, s1: int, b2: int, s2: int
) -> LinComb:
    """Contribution of one first-factor-leading y-interleaving case."""
    if case not in _RES22_CASES:
        raise ValueError(f"unknown case {case!r}")
    return _sum_cases([_RES22_CASES[case]], (a1, r1, a2, r2, b1, s1, b2, s2))


def expand_res_2_2(
    a1: int, r1: int, a2: int, r2: int, b1: int, s1: int, b2: int, s2: int
) -> LinComb:
    first, second = (a1, r1, a2, r2), (b1, s1, b2, s2)
    return _sum_cases(_RES22_CASES.values(), first + second, second + first)


# ---------------------------------------------------------------------------
# n-fold products x^{a1} y^{r1} . x^{a2} y^{r2} . ... . x^{an} y^{rn}


def _x_table(a_seq: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The x-factors of one factor ordering, tabulated by the prefix sums
    they read.

    For x-exponents a_1 ... a_n in that order and A = a_1 + ... + a_n, each
    nondecreasing (P_1, ..., P_{n-1}) with P_{n-1} <= A is paired with
    prod_j binom(P_j - (a_1 + ... + a_{j-1}), a_j) where that is nonzero.
    P_j is walked from max(P_{j-1}, a_1 + ... + a_j), where its factor
    starts to be nonzero, up to A; every branch reaches a tuple.
    """
    total = sum(a_seq)
    comb = math.comb
    states: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
    used = 0
    for a in a_seq[:-1]:
        nxt = []
        add = nxt.append
        for key, prev, coeff in states:
            for p in range(max(prev, used + a), total + 1):
                add((key + (p,), p, coeff * comb(p - used, a)))
        states = nxt
        used += a
    return [(key, coeff) for key, _, coeff in states]


def expand_nfold(pairs: Iterable[tuple[int, int]]) -> LinComb:
    """Closed form of the n-fold product of single-run words.

    The display sums over positive compositions lc of the total y-count,
    over the n! orderings of the factors and over the weak compositions
    alpha of the total x-count.  It is summed here in another order (see
    FORMULA_NOTES.md): equal factors give equal summands, so each distinct
    ordering counts once, weighted by the orderings it stands for; the
    x-factors read alpha only through its prefix sums at n - 1 pinned
    positions, so they are summed over the orderings in a table keyed by
    those sums (_x_table); and each alpha is built once per lc, from the
    segments between the pinned positions.  Factors that all differ still
    have n! distinct orderings, so n stays capped at MAX_NFOLD.
    """
    pairs = [(a, r) for a, r in pairs]
    if not pairs:
        raise ValueError("need at least one factor")
    if len(pairs) > MAX_NFOLD:
        raise ValueError(f"n-fold expansion is capped at n = {MAX_NFOLD}, got {len(pairs)}")
    for a, r in pairs:
        _check_run(a, r)
    n = len(pairs)
    if n == 1:
        a, r = pairs[0]
        return LinComb.from_exponents({(a,) + (0,) * (r - 1): 1})
    big_r = sum(r for _, r in pairs)
    big_a = sum(a for a, _ in pairs)
    orderings, weight = distinct_orderings(pairs)
    # The y-factors read only the orderings' y-runs, so the x-tables of the
    # orderings with the same y-runs are summed once, outside the lc loop.
    by_runs: dict[tuple[int, ...], dict] = {}
    for perm in orderings:
        merged = by_runs.setdefault(tuple(r for _, r in perm), {})
        for key, xcoef in _x_table(tuple(a for a, _ in perm)):
            merged[key] = merged.get(key, 0) + xcoef
    runs = [(rs, prefix_sums(rs), list(merged.items())) for rs, merged in by_runs.items()]
    out: dict = {}
    for lc in composition_list(big_r, n):
        lpre = prefix_sums(lc)
        table: dict = {}
        for rs, rpre, xtable in runs:
            # the display's binom(lc_j + ... + lc_n - r_{j+1} - ... - r_n - 1,
            # r_j - 1), its sums taken from the front since both total R
            ycoef = weight
            for j in range(2, n + 1):
                ycoef *= binom(rpre[j] - lpre[j - 1] - 1, rs[j - 1] - 1)
                if not ycoef:
                    break
            if not ycoef:
                continue
            for key, xcoef in xtable:
                table[key] = table.get(key, 0) + ycoef * xcoef
        # alpha = (P_1,) + a weak composition of P_{j+1} - P_j into lc_j
        # parts for j = 1 .. n-1, with P_n = A; then lc_n - 1 zeros
        tail = (0,) * (lc[-1] - 1)
        inner, last = lc[:-2], lc[-2]
        for key, coeff in table.items():
            heads = [key[:1]]
            for parts, lo, hi in zip(inner, key, key[1:]):
                segment = weak_composition_list(hi - lo, parts)
                heads = [head + seg for head in heads for seg in segment]
            for end in weak_composition_list(big_a - key[-1], last):
                end += tail
                for head in heads:
                    exps = head + end
                    out[exps] = out.get(exps, 0) + coeff
    return LinComb.from_exponents(out)


def expand_nfold_depth1(exps: Iterable[int]) -> LinComb:
    """n-fold product with all y-runs of length one.

    Equal exponents give equal summands, so each distinct ordering is summed
    once, weighted by the orderings it stands for."""
    exps = tuple(exps)
    if not exps:
        raise ValueError("need at least one factor")
    if len(exps) > MAX_NFOLD:
        raise ValueError(f"n-fold expansion is capped at n = {MAX_NFOLD}, got {len(exps)}")
    for a in exps:
        _check_run(a, 1)
    n = len(exps)
    orderings, weight = distinct_orderings(exps)
    ordered = [(perm, prefix_sums(perm)) for perm in orderings]
    out: dict = {}
    for alphas in weak_composition_list(sum(exps), n):
        alpre = prefix_sums(alphas)
        coeff = 0
        for perm, apre in ordered:
            prod = weight
            for j in range(1, n):
                prod *= binom(alpre[j] - apre[j - 1], perm[j - 1])
                if not prod:
                    break
            coeff += prod
        if coeff:
            out[alphas] = coeff
    return LinComb.from_exponents(out)
