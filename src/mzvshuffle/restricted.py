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
"Zero-padded tails summed once").  `expand_nfold` sums its display as one
walk over the output positions, its state the set of factors pinned so far
(docs/FORMULA_NOTES.md, "The n-fold display summed in another order").
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb  # for binomials whose 0 <= k <= n always holds
from typing import Iterable

from .combinat import (
    binom,
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
# instead, which is faster on these small windows.  Each window builder is a
# pure function of a few run parameters, cached for the life of the process;
# its value is a tuple, so no caller can change a shared window
# (docs/FORMULA_NOTES.md, "Windows built once per process").


def _lead(total: int, low: int, width: int, pad: int, suffix: list[int]) -> list:
    """The weak compositions of `total` into `width` parts whose first part
    carries binom(part, low), each followed by `pad` zeros and weighted
    suffix[last] for its last nonzero part `last`, as (exps, coeff).

    With suffix = suffix_sums(m) this is the sum over k of m[k] times the
    windows of k parts, zero-padded to `width`; low = 0 gives plain windows,
    and a suffix of ones a window of fixed width (`_flat`)."""
    zeros = (0,) * pad
    return [
        (w + zeros, comb(w[0], low) * suffix[last])
        for w, last in weak_compositions_with_last(total, width)
        if w[0] >= low and suffix[last]
    ]


@lru_cache(maxsize=None)
def _run_tails(total: int, runs: int, s: int) -> tuple:
    """sum_{j=0..runs} binom(runs - j + s - 1, runs - j) x^{w_0} y ... x^{w_j}
    y^{runs - j + s} over the weak compositions w of `total` into j + 1
    parts: the splits of a run of `runs` y's before a run of s y's."""
    suffix = suffix_sums([0] + [comb(runs - j + s - 1, s - 1) for j in range(runs + 1)])
    return tuple(_lead(total, 0, runs + 1, s - 1, suffix))


@lru_cache(maxsize=None)
def _half(total: int, low: int, r: int, s: int, pad: int) -> tuple:
    """The words of x^low y^r . x^(total - low) y^s whose first y comes from
    y^r, as (exps, coeff): a word with l leading y's from y^r is a window of
    l + 1 parts of `total`, its first part carrying binom(part, low), weighted
    _inner_shuffles(r - l, s - 1) (binom(r + s - l - 1, r - l) for s >= 1),
    the l loop summed at once; `pad` zeros follow the window of r + 1 parts
    (docs/FORMULA_NOTES.md, "The 1x1 half")."""
    suffix = suffix_sums([0, 0] + [_inner_shuffles(r - l, s - 1) for l in range(1, r + 1)])
    return tuple(_lead(total, low, r + 1, pad, suffix))


def _side(side: int, xu: int, r: int, xv: int, s: int) -> tuple:
    """The half of x^xu y^r . x^xv y^s whose first y comes from y^r (side 0)
    or from y^s (side 1), ending the word."""
    if side:
        return _half(xu + xv, xv, s, r, r - 1)
    return _half(xu + xv, xu, r, s, s - 1)


@lru_cache(maxsize=None)
def _closed(total: int, width: int, pad: int) -> tuple:
    """The windows of j = 1 .. width parts of `total`, then width - j + pad
    zeros, weighted binom(width - j + pad - 1, pad - 1), the j loop summed at
    once: the window its own prefix closes in 2x2 cases v and x."""
    suffix = suffix_sums([0] + [comb(width - j + pad - 1, pad - 1) for j in range(1, width + 1)])
    return tuple(_lead(total, 0, width, pad, suffix))


@lru_cache(maxsize=None)
def _flat(total: int, low: int, width: int) -> tuple:
    """The weak compositions of `total` into `width` parts, the first carrying
    binom(part, low): a flat segment of a window cut at its pinned parts."""
    return tuple(_lead(total, low, width, 0, [1] * (width + 1)))


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
    for p in range(b1, a + b1 + 1):
        _emit(out, _flat(p, b1, s1), _side(side, a + b1 - p, r, b2, s2))


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


@lru_cache(maxsize=None)
def _firsts(a1: int, b1: int, r1: int) -> tuple:
    """For p = 0 .. a1 + b1: the windows of r1 parts of p whose first part
    carries binom(part, a1) (none for p < a1), the front segment of cases
    (ii)-(iv) when their window is cut at its pinned part r1 + 1."""
    return tuple(_flat(p, a1, r1) for p in range(a1 + b1 + 1))


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
    for q in range(a1 + b1, a1 + a2 + b1 + 1):
        tails = _side(side, a1 + a2 + b1 - q, r2, b2, s2)
        for p in range(a1, a1 + b1 + 1):
            _emit(out, _join(firsts[p], _flat(q - p, a1 + b1 - p, s1)), tails)


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
        for p in range(a2 + 1):
            _emit(out, _join(heads, _flat(p, 0, s1 - k)), tails[p])


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
        tails = []
        for p in range(b2 + 1):
            tails += _join(_flat(p, 0, mix), ends[p])
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


def expand_nfold(pairs: Iterable[tuple[int, int]]) -> LinComb:
    """Closed form of the n-fold product of single-run words.

    The display sums over positive compositions l of the total y-count R,
    the n! orderings of the factors and the weak compositions alpha of the
    total x-count A.  The factor f it pins at position q = l_1 + ... +
    l_{j-1} + 1 reads only the set S pinned before it, through its degrees
    a(S) and r(S): binom(r(S) + r_f - q, r_f - 1) for y and binom(alpha_1 +
    ... + alpha_q - a(S), a_f) for x.  So the sum is taken as one walk over
    q = 1 .. R whose state is S (FORMULA_NOTES.md, "The n-fold display
    summed in another order"); equal factors are pinned in turn, each pin
    counting once per copy left.  n stays capped at MAX_NFOLD: the states
    still number 2^n when the factors all differ, and `expand_nfold_depth1`
    still sums n! orderings.
    """
    pairs = [(a, r) for a, r in pairs]
    if not pairs:
        raise ValueError("need at least one factor")
    if len(pairs) > MAX_NFOLD:
        raise ValueError(f"n-fold expansion is capped at n = {MAX_NFOLD}, got {len(pairs)}")
    for a, r in pairs:
        _check_run(a, r)
    kinds = sorted(set(pairs))
    big_a = sum(a for a, _ in pairs)
    big_r = sum(r for _, r in pairs)
    out: dict = {}
    # a state is the copies left of each kind with a(S) and r(S); a node is
    # the parts placed and their sum, merged as in combinat.binomial_walk
    states = {(tuple(pairs.count(kind) for kind in kinds), 0, 0): {((), 0): 1}}
    for q in range(1, big_r + 1):
        nxt: dict = {}
        for state, paths in states.items():
            left, deg_a, deg_r = state
            # every state here has q <= r(S) + 1, so each pin is nonzero; a
            # free part, allowed while q <= r(S), is a pin of weight 1 on any x
            moves = [(state, 0, 1)] if q <= deg_r else []
            for k, (a, r) in enumerate(kinds):
                copies = left[k]
                if not copies:
                    continue
                ycoef = copies * comb(deg_r + r - q, r - 1)
                if deg_r + r == big_r:
                    tail = (0,) * (big_r - q)
                    for (w, used), coeff in paths.items():
                        exps = w + (big_a - used,) + tail
                        out[exps] = out.get(exps, 0) + ycoef * coeff
                else:
                    rest = left[:k] + (copies - 1,) + left[k + 1 :]
                    moves.append(((rest, deg_a + a, deg_r + r), a, ycoef))
            for new, a, ycoef in moves:
                dest = nxt.setdefault(new, {})
                low = deg_a + a
                for (w, used), coeff in paths.items():
                    coeff *= ycoef
                    for x in range(low - used if low > used else 0, big_a - used + 1):
                        key = (w + (x,), used + x)
                        term = coeff * comb(used + x - deg_a, a) if a else coeff
                        dest[key] = dest.get(key, 0) + term
        states = nxt
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
