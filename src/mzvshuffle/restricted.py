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
"Zero-padded tails summed once").  `expand_nfold` and `expand_nfold_depth1`
each sum their display as a walk from the last output position back to the
first (docs/FORMULA_NOTES.md, "The n-fold display summed in another order").
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb  # for binomials whose 0 <= k <= n always holds
from typing import Iterable, Sequence

from .combinat import suffix_sums, weak_compositions_with_last
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
# segments' sums.  Each window builder is a pure function of a few run
# parameters, cached for the life of the process; its value is a tuple, so
# no caller can change a shared window (docs/FORMULA_NOTES.md, "Windows
# built once per process").


def _lead(total: int, low: int, width: int, pad: int, suffix: list[int]) -> tuple:
    """The weak compositions of `total` into `width` parts whose first part
    carries binom(part, low), each followed by `pad` zeros and weighted
    suffix[last] for its last nonzero part `last`, as (exps, coeff).

    With suffix = suffix_sums(m) this is the sum over k of m[k] times the
    windows of k parts, zero-padded to `width`; low = 0 gives plain windows,
    and a suffix of ones a window of fixed width (`_flat`)."""
    zeros = (0,) * pad
    return tuple(
        (w + zeros, comb(w[0], low) * suffix[last])
        for w, last in weak_compositions_with_last(total, width)
        if w[0] >= low and suffix[last]
    )


@lru_cache(maxsize=None)
def _run_tails(total: int, runs: int, s: int) -> tuple:
    """sum_{j=0..runs} binom(runs - j + s - 1, runs - j) x^{w_0} y ... x^{w_j}
    y^{runs - j + s} over the weak compositions w of `total` into j + 1
    parts: the splits of a run of `runs` y's before a run of s y's."""
    suffix = suffix_sums([0] + [comb(runs - j + s - 1, s - 1) for j in range(runs + 1)])
    return _lead(total, 0, runs + 1, s - 1, suffix)


@lru_cache(maxsize=None)
def _half(a: int, r: int, b: int, s: int, pad: int) -> tuple:
    """The words of x^a y^r . x^b y^s whose first y comes from y^r, as (exps,
    coeff): a word with l leading y's from y^r is a window of l + 1 parts of
    a + b, its first part carrying binom(part, a), weighted
    _inner_shuffles(r - l, s - 1) (binom(r + s - l - 1, r - l) for s >= 1),
    the l loop summed at once; `pad` zeros follow the window of r + 1 parts
    (docs/FORMULA_NOTES.md, "The 1x1 half")."""
    suffix = suffix_sums([0, 0] + [_inner_shuffles(r - l, s - 1) for l in range(1, r + 1)])
    return _lead(a + b, a, r + 1, pad, suffix)


def _side(side: int, xu: int, r: int, xv: int, s: int, more: int = 0) -> tuple:
    """The half of x^xu y^r . x^xv y^s whose first y comes from y^r (side 0)
    or from y^s (side 1), padded to end the word (more = 0) or to be closed
    by one more y (more = 1)."""
    if side:
        return _half(xv, s, xu, r, r - 1 + more)
    return _half(xu, r, xv, s, s - 1 + more)


@lru_cache(maxsize=None)
def _closed(total: int, width: int, pad: int) -> tuple:
    """The windows of j = 1 .. width parts of `total`, then width - j + pad
    zeros, weighted binom(width - j + pad - 1, pad - 1), the j loop summed at
    once: the window its own prefix closes in 2x2 cases v and x, the splits
    of width - 1 y's before pad y's with one more zero."""
    return tuple((w + (0,), c) for w, c in _run_tails(total, width - 1, pad))


@lru_cache(maxsize=None)
def _flat(total: int, low: int, width: int) -> tuple:
    """The weak compositions of `total` into `width` parts, the first carrying
    binom(part, low): a flat segment of a window cut at its pinned parts."""
    return _lead(total, low, width, 0, [1] * (width + 1))


def _join(heads: list, tails: list) -> list:
    return [(h + t, c * d) for h, c in heads for t, d in tails]


def _emit(out: dict, heads: Sequence, tails: Sequence = (((), 1),)) -> None:
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
    _emit(out, _side(0, a, r, b, s))


# ---------------------------------------------------------------------------
# x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2}


def _res12_case_i_ii(side, a, r, b1, s1, b2, s2, out):
    # t = r1 + r2 (i) or r1 (ii): the r1 (i) or l (ii) loop, in the half of
    # x^a y^t . x^{b1} y^{s1-1} on `side` that the s1-th y closes, and the r3
    # (i) or r2 (ii) loop, in the splits of the r - t y's left before y^{s2},
    # each summed at once
    for t in range(1, r + 1):
        _emit(out, _side(side, a, t, b1, s1 - 1, 1), _run_tails(b2, r - t, s2))


def _res12_case_iii_iv(side, a, r, b1, s1, b2, s2, out):
    # window r1 + s1 + 1 (iii) or s1 + l + 1 (iv), then zeros, the r1 or l
    # loop summed at once; cut at its pinned part s1, after p = alpha_1 + ...
    # + alpha_{s1}, the rest the half of x^{a+b1-p} y^r . x^{b2} y^{s2} on `side`
    for p in range(b1, a + b1 + 1):
        _emit(out, _flat(p, b1, s1), _side(side, a + b1 - p, r, b2, s2))


_RES12_CASES = {
    "i": partial(_res12_case_i_ii, 0),
    "ii": partial(_res12_case_i_ii, 1),
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
    (i)-(iv) when their window is cut at its pinned part r1 + 1."""
    return tuple(_flat(p, a1, r1) for p in range(a1 + b1 + 1))


def _res22_case_i_ii(side, a1, r1, a2, r2, b1, s1, b2, s2, out):
    # t = l1 + l2 (i) or l1 (ii): the l1 (i) or k (ii) loop and the l3 (i) or
    # l2 (ii) loop, in the splits of the r2 - t y's left before y^{s2}, each
    # summed at once; the first window is cut at its pinned part r1 + 1, after
    # p, the rest the half of x^{a2} y^t . x^{a1+b1-p} y^{s1-1} on `side` that
    # the s1-th y closes
    firsts = _firsts(a1, b1, r1)
    for t in range(1, r2 + 1):
        tails = _run_tails(b2, r2 - t, s2)
        for p in range(a1, a1 + b1 + 1):
            _emit(out, _join(firsts[p], _side(side, a2, t, a1 + b1 - p, s1 - 1, 1)), tails)


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
        heads = _side(0, a1, r1 - 1, b1, k1, 1)
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
        heads = _side(0, a1, r1 - 1, b1, k, 1)
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
        tails = []
        for p in range(b2 + 1):
            tails += _join(_flat(p, 0, r1 - t), ends[p])
        _emit(out, _side(0, a1, t, b1, s1 - 1, 1), tails)


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
        heads = _side(0, a1, t, b1, s1 - 1, 1)
        for k1 in range(1, s2 + 1):
            _emit(out, heads, _join(_closed(b2, r1 - t, k1), thirds[k1]))


_RES22_CASES = {
    "i": partial(_res22_case_i_ii, 0),
    "ii": partial(_res22_case_i_ii, 1),
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


def _nfold_kinds(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Check the factors of an n-fold product; return their kinds, sorted."""
    if not pairs:
        raise ValueError("need at least one factor")
    if len(pairs) > MAX_NFOLD:
        raise ValueError(f"n-fold expansion is capped at n = {MAX_NFOLD}, got {len(pairs)}")
    for a, r in pairs:
        _check_run(a, r)
    return sorted(set(pairs))


def expand_nfold(pairs: Iterable[tuple[int, int]]) -> LinComb:
    """Closed form of the n-fold product of single-run words.

    Its display (FORMULA_NOTES.md, "The n-fold display summed in another
    order") pins factor f at q = l_1 + ... + l_{j-1} + 1 with the weights
    binom(R - q - r(T), r_f - 1) and binom(a(T) + a_f - u, a_f), which read
    only the set T pinned after q and the sum u of the parts after q.  So it
    is summed as one walk over q = R .. 1 whose state is T; equal factors
    are pinned in turn, each pin counting once per copy left.
    """
    pairs = [(a, r) for a, r in pairs]
    kinds = _nfold_kinds(pairs)
    big_a = sum(a for a, _ in pairs)
    big_r = sum(r for _, r in pairs)
    out: dict = {}
    # a state is the copies left of each kind, their number n, a(T) and r(T);
    # a node is the parts placed and their sum u, merged as in combinat.binomial_walk
    states = {(tuple(pairs.count(kind) for kind in kinds), len(pairs), 0, 0): {((), 0): 1}}
    for q in range(big_r, 0, -1):
        nxt: dict = {}
        for state, paths in states.items():
            left, n, deg_a, deg_r = state
            # n <= q: the y at q belongs to a factor pinned further left while
            # n < q, or pins f; alpha_q runs to a(T + f) - u, past which the
            # next pin to the left has a zero x-binomial, and at q = 1 is A - u
            moves = [(state, 0, 1)] if n < q else []
            room = big_r - q - deg_r
            for k, ((a, r), copies) in enumerate(zip(kinds, left)):
                if copies and room >= r - 1:
                    rest = (left[:k] + (copies - 1,) + left[k + 1 :], n - 1, deg_a + a, deg_r + r)
                    moves.append((rest, a, copies * comb(room, r - 1)))
            for new, a, ycoef in moves:
                if q == 1:
                    for (w, used), coeff in paths.items():
                        word = (big_a - used,) + w
                        out[word] = out.get(word, 0) + coeff * ycoef * comb(big_a - used, a)
                    continue
                dest = nxt.setdefault(new, {})
                for (w, used), coeff in paths.items():
                    span = new[2] - used
                    coeff *= ycoef * comb(span, a)
                    for x in range(span + 1):
                        key = ((x,) + w, used + x)
                        dest[key] = dest.get(key, 0) + coeff
        states = nxt
    return LinComb.from_exponents(out)


def expand_nfold_depth1(exps: Iterable[int]) -> LinComb:
    """Closed form of the n-fold product of the words x^{a_i} y.

    Its display is `expand_nfold`'s with every r_i = 1 (FORMULA_NOTES.md,
    "The depth-1 n-fold display"), summed by a walk of its own over j = n ..
    1: a state is the copies left and the degree a(T) pinned after j, and
    the pin of a_f at j weighs copies * binom(a(T) + a_f - u, a_f) for the
    sum u of the parts after j.
    """
    exps = list(exps)
    kinds = [a for a, _ in _nfold_kinds([(a, 1) for a in exps])]
    big_a = sum(exps)
    out: dict = {}
    # a node is the parts placed and their sum, merged as in expand_nfold
    states = {(tuple(exps.count(a) for a in kinds), 0): {((), 0): 1}}
    for j in range(len(exps), 0, -1):
        nxt: dict = {}
        for (left, deg_a), paths in states.items():
            for k, (a, copies) in enumerate(zip(kinds, left)):
                if not copies:
                    continue
                if j == 1:
                    for (w, used), coeff in paths.items():
                        word = (big_a - used,) + w
                        out[word] = out.get(word, 0) + coeff * comb(big_a - used, a)
                    continue
                dest = nxt.setdefault((left[:k] + (copies - 1,) + left[k + 1 :], deg_a + a), {})
                for (w, used), coeff in paths.items():
                    span = deg_a + a - used
                    coeff *= copies * comb(span, a)
                    for x in range(span + 1):
                        key = ((x,) + w, used + x)
                        dest[key] = dest.get(key, 0) + coeff
        states = nxt
    return LinComb.from_exponents(out)
