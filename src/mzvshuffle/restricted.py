"""Closed forms for products of words with runs of y's, and n-fold products.

Inputs are run pairs (a, r) meaning x^a y^r.  The two-factor expansions are
organized case by case, one function per y-interleaving pattern, so each
case can be checked on its own against an oracle restricted to that pattern.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .combinat import (
    binom,
    binomial_chains,
    composition_list,
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


def _window(width: int, pinned: dict[int, tuple[int, bool]]) -> tuple[tuple[int, bool], ...]:
    """binomial_chains steps for a window of `width` parts: binom(w_i, beta_i)
    at the positions `pinned` names, as (c, prefix), and no condition on the
    other parts.  Every pinned position lies before the last part."""
    return tuple(pinned.get(i, (0, False)) for i in range(width - 1))


def _check_run(a: int, r: int) -> None:
    if a < 0:
        raise ValueError(f"x-exponent must be nonnegative, got {a}")
    if r < 1:
        raise ValueError(f"y-run length must be positive, got {r}")


# ---------------------------------------------------------------------------
# x^a y^r . x^b y^s


def expand_res_1_1(a: int, r: int, b: int, s: int) -> LinComb:
    _check_run(a, r)
    _check_run(b, s)
    out: dict = {}
    _res_1_1_half(a, r, b, s, out)
    _res_1_1_half(b, s, a, r, out)
    return LinComb.from_exponents(out)


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
        steps = _window(r1 + s1 + 1, {0: (b1, False), s1: (a + b1, True)})
        for w, coeff in binomial_chains(steps, a + b1 + b2):
            _add(out, w + tail, mult * coeff)


def _res12_case_iv(a, r, b1, s1, b2, s2, out):
    for l in range(1, s2 + 1):
        mult = binom(r + s2 - l - 1, r - 1)
        if not mult:
            continue
        tail = (0,) * (r + s2 - l - 1)
        steps = _window(s1 + l + 1, {0: (b1, False), s1: (b2, False)})
        for w, coeff in binomial_chains(steps, a + b1 + b2):
            _add(out, w + tail, mult * coeff)


_RES12_CASES = {
    "i": _res12_case_i,
    "ii": _res12_case_ii,
    "iii": _res12_case_iii,
    "iv": _res12_case_iv,
}


def res_1_2_case(case: str, a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    """Contribution of a single y-interleaving case; mostly for verification."""
    try:
        fn = _RES12_CASES[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}") from None
    _check_run(a, r)
    _check_run(b1, s1)
    _check_run(b2, s2)
    out: dict = {}
    fn(a, r, b1, s1, b2, s2, out)
    return LinComb.from_exponents(out)


def expand_res_1_2(a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    _check_run(a, r)
    _check_run(b1, s1)
    _check_run(b2, s2)
    out: dict = {}
    for fn in _RES12_CASES.values():
        fn(a, r, b1, s1, b2, s2, out)
    return LinComb.from_exponents(out)


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
        steps = _window(
            r1 + l1 + s1 + 1,
            {0: (a1, False), r1: (a1 + b1, True), r1 + s1: (a1 + a2 + b1, True)},
        )
        for w, coeff in binomial_chains(steps, a1 + a2 + b1 + b2):
            _add(out, w + tail, mult * coeff)


def _res22_case_iv(a1, r1, a2, r2, b1, s1, b2, s2, out):
    for k in range(1, s2 + 1):
        mult = binom(r2 + s2 - k - 1, r2 - 1)
        if not mult:
            continue
        tail = (0,) * (r2 + s2 - k - 1)
        steps = _window(
            r1 + s1 + k + 1, {0: (a1, False), r1: (a1 + b1, True), r1 + s1: (b2, False)}
        )
        for w, coeff in binomial_chains(steps, a1 + a2 + b1 + b2):
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
                second = binomial_chains(
                    _window(s1 - k + 1 + l2, {s1 - k: (a2, True)}), a2 + b2
                )
                for w1, c1 in binomial_chains(_window(l1 + 1, {0: (a1, False)}), a1 + b1):
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
                second = binomial_chains(_window(mix + k2 + 1, {mix: (b2, False)}), a2 + b2)
                for w1, c1 in binomial_chains(_window(l + 1, {0: (a1, False)}), a1 + b1):
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
    try:
        fn = _RES22_CASES[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}") from None
    for a, r in ((a1, r1), (a2, r2), (b1, s1), (b2, s2)):
        _check_run(a, r)
    out: dict = {}
    fn(a1, r1, a2, r2, b1, s1, b2, s2, out)
    return LinComb.from_exponents(out)


def expand_res_2_2(
    a1: int, r1: int, a2: int, r2: int, b1: int, s1: int, b2: int, s2: int
) -> LinComb:
    for a, r in ((a1, r1), (a2, r2), (b1, s1), (b2, s2)):
        _check_run(a, r)
    out: dict = {}
    for fn in _RES22_CASES.values():
        fn(a1, r1, a2, r2, b1, s1, b2, s2, out)
        fn(b1, s1, b2, s2, a1, r1, a2, r2, out)
    return LinComb.from_exponents(out)


# ---------------------------------------------------------------------------
# n-fold products x^{a1} y^{r1} . x^{a2} y^{r2} . ... . x^{an} y^{rn}


def expand_nfold(pairs: Iterable[tuple[int, int]]) -> LinComb:
    """Closed form of the n-fold product of single-run words.

    Sums over positive compositions of the total y-count and over all
    orderings of the factors; factorial growth caps n at MAX_NFOLD.
    """
    pairs = [(int(a), int(r)) for a, r in pairs]
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
    out: dict = {}
    for lc in composition_list(big_r, n):
        lpre = prefix_sums(lc)
        width = lpre[n - 1] + 1
        tail = (0,) * (big_r - width)
        for perm in itertools.permutations(pairs):
            ycoef = 1
            for j in range(2, n + 1):
                top = sum(lc[j - 1 :]) - sum(p[1] for p in perm[j:]) - 1
                ycoef *= binom(top, perm[j - 1][1] - 1)
                if not ycoef:
                    break
            if not ycoef:
                continue
            apre = prefix_sums(p[0] for p in perm)
            for alphas in weak_composition_list(big_a, width):
                alpre = prefix_sums(alphas)
                xcoef = 1
                for j in range(1, n):
                    xcoef *= binom(alpre[lpre[j - 1] + 1] - apre[j - 1], perm[j - 1][0])
                    if not xcoef:
                        break
                if xcoef:
                    _add(out, alphas + tail, ycoef * xcoef)
    return LinComb.from_exponents(out)


def expand_nfold_depth1(exps: Iterable[int]) -> LinComb:
    """n-fold product with all y-runs of length one."""
    exps = tuple(int(x) for x in exps)
    if not exps:
        raise ValueError("need at least one factor")
    if len(exps) > MAX_NFOLD:
        raise ValueError(f"n-fold expansion is capped at n = {MAX_NFOLD}, got {len(exps)}")
    if any(a < 0 for a in exps):
        raise ValueError("exponents must be nonnegative")
    n = len(exps)
    out: dict = {}
    for alphas in weak_composition_list(sum(exps), n):
        alpre = prefix_sums(alphas)
        coeff = 0
        for perm in itertools.permutations(exps):
            apre = prefix_sums(perm)
            prod = 1
            for j in range(1, n):
                prod *= binom(alpre[j] - apre[j - 1], perm[j - 1])
                if not prod:
                    break
            coeff += prod
        if coeff:
            out[alphas] = coeff
    return LinComb.from_exponents(out)
