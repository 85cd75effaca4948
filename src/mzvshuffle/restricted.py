"""Closed forms for products of words with runs of y's, and n-fold products.

Inputs are run pairs (a, r) meaning x^a y^r.  The two-factor expansions are
organized case by case, one function per y-interleaving pattern or mirrored
pair of patterns (taking the side that leads its last window), so each case
can be checked on its own against an oracle restricted to that pattern.

Every binomial and multiplicity of the displays is kept as transcribed, but
their sums over the splits (l, K - l) of a y-run, a window of l parts
followed by zeros up to a fixed width, are taken in another order: each
composition of the widest window is added once, weighted by the suffix sum
of the multiplicities of the splits it fits (docs/FORMULA_NOTES.md,
"Zero-padded tails summed once").  `expand_nfold` sums its last two
y-compositions the same way.
"""

from __future__ import annotations

from functools import partial
from math import comb  # for binomials whose 0 <= k <= n always holds
from typing import Iterable

from .combinat import (
    binom,
    composition_list,
    distinct_orderings,
    prefix_sums,
    suffix_sums,
    weak_composition_list,
    weak_compositions_with_last,
)
from .lincomb import LinComb

MAX_NFOLD = 8


def _inner_shuffles(extra_ys: int, gap: int) -> int:
    """Ways to fill the region between the first and the s1-th y of one
    factor with `extra_ys` y's of the other factor.

    For gap = s1 - 2 >= 0 this is binom(extra_ys + gap, extra_ys).  When
    s1 = 1 the two boundary y's coincide, the region does not exist, and the
    printed factor binom(extra_ys - 1, extra_ys) would wrongly kill the
    whole term; the correct degenerate count is 1 for an empty region (see
    FORMULA_NOTES.md).  Every caller has extra_ys >= 0.
    """
    if gap >= 0:
        return comb(extra_ys + gap, extra_ys)
    return 1 if extra_ys == 0 else 0


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
# The displays below sum over the splits (l, K - l) of a y-run: a window of l
# parts, then K - l - 1 zeros.  A window of l parts followed by zeros up to a
# fixed width is a composition of that width whose last nonzero part is at
# most l, so each case sums such a loop at once: it adds each composition of
# the widest window once, weighted by the sum of the multiplicities of the
# splits it fits (docs/FORMULA_NOTES.md, "Zero-padded tails summed once").
# A window whose parts carry binomials at pinned positions is cut there into
# segments, each with its first part pinned, and the loops run over the
# segments' sums; 2x2 case i filters its window by its one further pin
# instead, which is faster on these small windows.


def _lead(total: int, low: int, width: int, pad: int, suffix: list[int]) -> list:
    """The weak compositions of `total` into `width` parts whose first part
    carries binom(part, low), each followed by `pad` zeros and weighted
    suffix[last] for its last nonzero part `last`, as (exps, coeff).

    With suffix = suffix_sums(m) this is the sum over k of m[k] times the
    windows of k parts, zero-padded to `width`; low = 0 gives plain windows,
    and a suffix of ones a window of fixed width."""
    zeros = (0,) * pad
    return [
        (w + zeros, comb(w[0], low) * suffix[last])
        for w, last in weak_compositions_with_last(total, width)
        if w[0] >= low and suffix[last]
    ]


def _run_tails(total: int, runs: int, s: int) -> list:
    """sum_{j=0..runs} binom(runs - j + s - 1, runs - j) x^{w_0} y ... x^{w_j}
    y^{runs - j + s} over the weak compositions w of `total` into j + 1
    parts: the splits of a run of `runs` y's before a run of s y's."""
    suffix = suffix_sums([0] + [comb(runs - j + s - 1, s - 1) for j in range(runs + 1)])
    return _lead(total, 0, runs + 1, s - 1, suffix)


def _half(total: int, low: int, r: int, s: int, pad: int) -> list:
    """The words of x^low y^r . x^(total - low) y^s whose first y comes from
    y^r, as (exps, coeff): a word with l leading y's from y^r is a window of
    l + 1 parts of `total`, its first part carrying binom(part, low), weighted
    _inner_shuffles(r - l, s - 1) (binom(r + s - l - 1, r - l) for s >= 1),
    the l loop summed at once; `pad` zeros follow the window of r + 1 parts
    (docs/FORMULA_NOTES.md, "The 1x1 half")."""
    suffix = suffix_sums([0, 0] + [_inner_shuffles(r - l, s - 1) for l in range(1, r + 1)])
    return _lead(total, low, r + 1, pad, suffix)


def _side(side: int, xu: int, r: int, xv: int, s: int) -> list:
    """The half of x^xu y^r . x^xv y^s whose first y comes from y^r (side 0)
    or from y^s (side 1), ending the word."""
    if side:
        return _half(xu + xv, xv, s, r, r - 1)
    return _half(xu + xv, xu, r, s, s - 1)


def _closed(total: int, width: int, pad: int) -> list:
    """The windows of j = 1 .. width parts of `total`, then width - j + pad
    zeros, weighted binom(width - j + pad - 1, pad - 1), the j loop summed at
    once: the window its own prefix closes in 2x2 cases v and x."""
    suffix = suffix_sums([0] + [comb(width - j + pad - 1, pad - 1) for j in range(1, width + 1)])
    return _lead(total, 0, width, pad, suffix)


def _join(heads: list, tails: list) -> list:
    return [(h + t, c * d) for h, c in heads for t, d in tails]


_EMPTY = [((), 1)]


def _emit(out: dict, heads: list, tails: list = _EMPTY) -> None:
    """Add each h + t with coefficient c * d, over the (h, c) of `heads` and
    the (t, d) of `tails`; with no tails, the heads alone."""
    for h, c in heads:
        for t, d in tails:
            exps = h + t
            out[exps] = out.get(exps, 0) + c * d


# ---------------------------------------------------------------------------
# x^a y^r . x^b y^s


def expand_res_1_1(a: int, r: int, b: int, s: int) -> LinComb:
    return _sum_cases([_res_1_1_half], (a, r, b, s), (b, s, a, r))


def _res_1_1_half(a, r, b, s, out):
    _emit(out, _half(a + b, a, r, s, s - 1))


# ---------------------------------------------------------------------------
# x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2}


def _res12_case_i(a, r, b1, s1, b2, s2, out):
    # t = r1 + r2: the r1 loop (window r1 + 1, then r2 + s1 - 1 zeros) and the
    # r3 loop (window r3 + 1, then r4 + s2 - 1 zeros) each summed at once
    for t in range(1, r + 1):
        _emit(out, _half(a + b1, a, t, s1 - 1, s1 - 1), _run_tails(b2, r - t, s2))


def _res12_case_ii(a, r, b1, s1, b2, s2, out):
    # the l loop (window l + 1, then r1 + s1 - l - 1 zeros) and the r2 loop
    # (window r2 + 1, then r3 + s2 - 1 zeros) each summed at once
    if s1 < 2:
        return
    for r1 in range(1, r + 1):
        _emit(out, _half(a + b1, b1, s1 - 1, r1, r1), _run_tails(b2, r - r1, s2))


def _res12_case_iii_iv(side, a, r, b1, s1, b2, s2, out):
    # window r1 + s1 + 1 (iii) or s1 + l + 1 (iv), then zeros, the r1 or l
    # loop summed at once; cut at its pinned part s1, after p = alpha_1 + ...
    # + alpha_{s1}, the rest the half of x^{a+b1-p} y^r . x^{b2} y^{s2} on `side`
    flat = [1] * (s1 + 1)
    for p in range(b1, a + b1 + 1):
        _emit(out, _lead(p, b1, s1, 0, flat), _side(side, a + b1 - p, r, b2, s2))


_RES12_CASES = {
    "i": _res12_case_i,
    "ii": _res12_case_ii,
    "iii": partial(_res12_case_iii_iv, 0),
    "iv": partial(_res12_case_iii_iv, 1),
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


def _firsts(a1: int, b1: int, r1: int) -> list:
    """For p = 0 .. a1 + b1: the windows of r1 parts of p whose first part
    carries binom(part, a1) (none for p < a1), the front segment of cases
    (ii)-(iv) when their window is cut at its pinned part r1 + 1."""
    flat = [1] * (r1 + 1)
    return [_lead(p, a1, r1, 0, flat) for p in range(a1 + b1 + 1)]


def _res22_case_i(a1, r1, a2, r2, b1, s1, b2, s2, out):
    # t = l1 + l2: the l1 loop (window r1 + l1 + 1, then l2 + s1 - 1 zeros)
    # and the l3 loop (window l3 + 1, then l4 + s2 - 1 zeros) each summed
    for t in range(1, r2 + 1):
        # the widest window's multiplicity, _inner_shuffles(0, s1 - 2), is 1
        mults = [_inner_shuffles(t - l1, s1 - 2) for l1 in range(1, t + 1)]
        suffix = suffix_sums([0] * (r1 + 2) + mults)
        # part r1 carries binom(part, a2); filtering by it is faster than
        # cutting the window there into _firsts and _half (FORMULA_NOTES.md)
        windows = _lead(a1 + a2 + b1, a1, r1 + t + 1, s1 - 1, suffix)
        heads = [(w, c * comb(w[r1], a2)) for w, c in windows if w[r1] >= a2]
        _emit(out, heads, _run_tails(b2, r2 - t, s2))


def _res22_case_ii(a1, r1, a2, r2, b1, s1, b2, s2, out):
    # the k loop (window r1 + k + 1, then l1 + s1 - k - 1 zeros) and the l2
    # loop (window l2 + 1, then l3 + s2 - 1 zeros) each summed at once; the
    # first window is cut at its pinned part r1 + 1, after p, the rest the
    # half of x^{a1+b1-p} y^{s1-1} . x^{a2} y^{l1}, then l1 zeros
    if s1 < 2:
        return
    firsts = _firsts(a1, b1, r1)
    for l1 in range(1, r2 + 1):
        tails = _run_tails(b2, r2 - l1, s2)
        for p in range(a1, a1 + b1 + 1):
            seconds = _half(a1 + a2 + b1 - p, a1 + b1 - p, s1 - 1, l1, l1)
            _emit(out, _join(firsts[p], seconds), tails)


def _res22_case_iii_iv(side, a1, r1, a2, r2, b1, s1, b2, s2, out):
    # window r1 + l1 + s1 + 1 (iii) or r1 + s1 + k + 1 (iv), then zeros, the
    # l1 or k loop summed at once; cut at its pinned parts r1 and r1 + s1,
    # after p = alpha_1 + ... + alpha_{r1} and q = p + ... + alpha_{r1+s1},
    # the rest the half of x^{a1+a2+b1-q} y^{r2} . x^{b2} y^{s2} on `side`
    firsts = _firsts(a1, b1, r1)
    flat = [1] * (s1 + 1)
    for q in range(a1 + b1, a1 + a2 + b1 + 1):
        tails = _side(side, a1 + a2 + b1 - q, r2, b2, s2)
        for p in range(a1, a1 + b1 + 1):
            _emit(out, _join(firsts[p], _lead(q - p, a1 + b1 - p, s1, 0, flat)), tails)


def _res22_case_v(a1, r1, a2, r2, b1, s1, b2, s2, out):
    # the l loop, the k2 loop (window k2 + 1 of a2, then k3 + l1 - 1 zeros,
    # k3 = s1 - k1 - k2 >= 1) and the l2 loop (window l2 + 1 of b2, then
    # l3 + s2 - 1 zeros) each summed at once.  The a2 window is closed by its
    # own prefix constraint; the printed display omits it (see
    # FORMULA_NOTES.md)
    if r1 < 2 or s1 < 2:
        return
    thirds = [None] + [_run_tails(b2, r2 - l1, s2) for l1 in range(1, r2 + 1)]
    for k1 in range(1, s1):
        heads = _half(a1 + b1, a1, r1 - 1, k1, k1)
        for l1 in range(1, r2 + 1):
            _emit(out, heads, _join(_closed(a2, s1 - k1, l1), thirds[l1]))


def _res22_case_vi_vii(side, a1, r1, a2, r2, b1, s1, b2, s2, out):
    # the l1 loop, and the l2 (vi) or k2 (vii) loop (window s1 - k + l2 + 1,
    # its part s1 - k closing the a2 prefix, then r2 + s2 - l2 - 1 zeros),
    # each summed at once; the second window is cut at its part s1 - k, after
    # p, the rest the half of x^{a2-p} y^{r2} . x^{b2} y^{s2} on `side`
    if r1 < 2 or s1 < 2:
        return
    tails = [_side(side, a2 - p, r2, b2, s2) for p in range(a2 + 1)]
    for k in range(1, s1):
        heads = _half(a1 + b1, a1, r1 - 1, k, k)
        flat = [1] * (s1 - k + 1)
        for p in range(a2 + 1):
            _emit(out, _join(heads, _lead(p, 0, s1 - k, 0, flat)), tails[p])


def _res22_case_viii_ix(side, a1, r1, a2, r2, b1, s1, b2, s2, out):
    # t = l1 + l2 = r1 - l3; the l1 loop, and the l (viii) or k (ix) loop
    # (window l3 + l + 1 of a2 + b2, then r2 + s2 - l - 1 zeros), each summed
    # at once; the second window is cut at its pinned part l3 + 1, after p,
    # the rest the half of x^{a2} y^{r2} . x^{b2-p} y^{s2} on `side`
    if r1 < 2:
        return
    ends = [_side(side, a2, r2, b2 - p, s2) for p in range(b2 + 1)]
    for t in range(1, r1):
        mix = r1 - t  # l3
        flat = [1] * (mix + 1)
        tails = []
        for p in range(b2 + 1):
            tails += _join(_lead(p, 0, mix, 0, flat), ends[p])
        _emit(out, _half(a1 + b1, a1, t, s1 - 1, s1 - 1), tails)


def _res22_case_x(a1, r1, a2, r2, b1, s1, b2, s2, out):
    # t = l1 + l2 and l3 + l4 = r1 - t, l4 >= 1; the l1 loop, the l3 loop
    # (window l3 + 1 of b2, then k1 + l4 - 1 zeros) and the k2 loop (window
    # k2 + 1 of a2, then k3 + r2 - 1 zeros) each summed at once.  The b2
    # window is closed by its own prefix constraint, as in case (v); see
    # FORMULA_NOTES.md
    if r1 < 2:
        return
    thirds = [None] + [_run_tails(a2, s2 - k1, r2) for k1 in range(1, s2 + 1)]
    for t in range(1, r1):
        heads = _half(a1 + b1, a1, t, s1 - 1, s1 - 1)
        for k1 in range(1, s2 + 1):
            _emit(out, heads, _join(_closed(b2, r1 - t, k1), thirds[k1]))


_RES22_CASES = {
    "i": _res22_case_i,
    "ii": _res22_case_ii,
    "iii": partial(_res22_case_iii_iv, 0),
    "iv": partial(_res22_case_iii_iv, 1),
    "v": _res22_case_v,
    "vi": partial(_res22_case_vi_vii, 0),
    "vii": partial(_res22_case_vi_vii, 1),
    "viii": partial(_res22_case_viii_ix, 0),
    "ix": partial(_res22_case_viii_ix, 1),
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
    those sums (_x_table); and each alpha is built once per lc_1 ..
    lc_{n-2} and lc_{n-1} + lc_n, from the segments between the pinned
    positions, its last window weighted by the suffix sums over lc_{n-1}.
    Factors that all differ still have n! distinct orderings, so n stays
    capped at MAX_NFOLD.
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
    # m = lc_{n-1} + lc_n.  The compositions lc with the same front
    # lc_1 .. lc_{n-2} and the same m differ only in the window of
    # c = lc_{n-1} parts at the end of alpha, padded to m - 1 parts with the
    # lc_n - 1 zeros; each end is added once, weighted by the sum over the c
    # it fits.  Only the last y-factor, binom(lc_n - 1, r_n - 1), reads c, so
    # its suffix sums over c are taken once per run order and scaled by each
    # x-table entry.
    for m in range(2, big_r - n + 3):
        for front in composition_list(big_r - m, n - 2):
            lpre = prefix_sums(front)
            table: dict = {}
            for rs, rpre, xtable in runs:
                # the display's binom(lc_j + ... + lc_n - r_{j+1} - ... -
                # r_n - 1, r_j - 1) for j < n, its sums taken from the front
                # since both total R
                ycoef = weight
                for j in range(2, n):
                    ycoef *= binom(rpre[j] - lpre[j - 1] - 1, rs[j - 1] - 1)
                    if not ycoef:
                        break
                if not ycoef:
                    continue
                ysuf = suffix_sums([0] + [binom(m - c - 1, rs[-1] - 1) for c in range(1, m)])
                if not ysuf[0]:
                    continue
                for key, xcoef in xtable:
                    coeff = ycoef * xcoef
                    sums = table.get(key)
                    if sums is None:
                        table[key] = [coeff * y for y in ysuf]
                    else:
                        table[key] = [t + coeff * y for t, y in zip(sums, ysuf)]
            # alpha = (P_1,) + a weak composition of P_{j+1} - P_j into lc_j
            # parts for j = 1 .. n-1, with P_n = A; then lc_n - 1 zeros
            for key, suffix in table.items():
                heads = [key[:1]]
                for parts, lo, hi in zip(front, key, key[1:]):
                    segment = weak_composition_list(hi - lo, parts)
                    heads = [head + seg for head in heads for seg in segment]
                for end, last in weak_compositions_with_last(big_a - key[-1], m - 1):
                    coeff = suffix[last]
                    if not coeff:
                        continue
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
