"""Independent transcriptions of the alternative restricted formulas.

These expansions are written from the alternative published displays, not
from the case machinery in `restricted`, so exact agreement between the two
is a meaningful machine check; they share only the primitives of
`combinat`.  The alternative formulas require strictly positive parameters;
zero parameters are rejected rather than guessed.

Each output word is built as a tuple of exponents, head then tail.  A sum
over the splits of a y-run is taken at once, as in `restricted`: each
composition of the widest window once, weighted by the suffix sum of the
binomials of the splits it fits, or, where the window's last part carries
the display's + 1, by the one split it has (docs/FORMULA_NOTES.md,
"Zero-padded tails summed once").  Each such window is built once per
process and kept as a tuple.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb  # for binomials whose 0 <= k <= n always holds
from typing import Iterable

from .combinat import binom, suffix_sums, weak_compositions, weak_compositions_with_last
from .lincomb import LinComb
from .restricted import expand_res_1_1, expand_res_1_2


class PositivityRequiredError(ValueError):
    """The alternative formulas are only stated for positive parameters."""


def _require_positive(**params: int) -> None:
    if not all(isinstance(v, int) for v in params.values()):
        raise TypeError(f"parameters must be ints, got {params}")
    bad = {k: v for k, v in params.items() if v < 1}
    if bad:
        raise PositivityRequiredError(
            f"parameters must be positive, got {', '.join(f'{k}={v}' for k, v in bad.items())}"
        )


# A word x^{a_1} y x^{a_2} y ... is the tuple (a_1, a_2, ...); y^k adds k - 1
# zeros.


@lru_cache(maxsize=None)
def _runs(total: int, runs: int, s: int) -> tuple:
    """sum_{j=0..runs} binom(runs - j + s - 1, s - 1) x^{p_0} y ... x^{p_j}
    y^{runs - j + s} over the weak compositions p of `total` into j + 1
    parts, as exponent tuples: each composition of the widest window once,
    weighted by the binomials of the splits j whose window it fits."""
    mults = [0] + [comb(runs - j + s - 1, s - 1) for j in range(runs + 1)]
    suffix = suffix_sums(mults)
    zeros = (0,) * (s - 1)
    return tuple(
        (w + zeros, suffix[last])
        for w, last in weak_compositions_with_last(total, runs + 1)
        if suffix[last]
    )


@lru_cache(maxsize=None)
def _marked_runs(total: int, r: int, s: int) -> tuple:
    """sum_{l=1..s} binom(r + s - l, r) x^{p_0} y ... x^{p_l + 1} y^{r + s - l}
    over the weak compositions p of `total` into l + 1 parts, the term with
    y^0 (r = 0, l = s) left out: with the 1 added, the window's last part is
    its last nonzero part, so each word has one l."""
    width = r + s
    parts = min(s + 1, width)
    zeros = (0,) * (width - parts)
    return tuple(
        (w + zeros, comb(width - last + 1, r))
        for w, last in weak_compositions_with_last(total + 1, parts)
        if last >= 2
    )


def _raised(words: list, first: int) -> list:
    """The words with `first` added to their first exponent."""
    return [((w[0] + first,) + w[1:], c) for w, c in words]


def _emit(out: dict, heads: list, tails: list, mult: int) -> None:
    for h, c in heads:
        c *= mult
        for t, d in tails:
            exps = h + t
            out[exps] = out.get(exps, 0) + c * d


def expand_lgm_1_1(a: int, r: int, b: int, s: int) -> LinComb:
    """Alternative closed form of x^a y^r . x^b y^s (positive parameters)."""
    _require_positive(a=a, r=r, b=b, s=s)
    out: dict = {}
    one = [((), 1)]
    # first sum: words carrying the whole x^a block up front, the r1/r2
    # split summed at once
    for k in range(0, b + 1):
        _emit(out, one, _raised(_runs(b - k, r, s), a + k), binom(a - 1 + k, a - 1))
    # second sum: the x^a block split around position l+1, the l loop summed
    for a1 in range(0, a):
        _emit(out, one, _raised(_marked_runs(a - 1 - a1, r, s), a1 + b), binom(a1 + b - 1, b - 1))
    return LinComb.from_exponents(out)


def _lgm12_sum1(a, r, b1, s1, b2, s2, out):
    # the r1/r2 split (head) and the r3/r4 split (tail) each summed at once;
    # t = r1 + r2, and the tail x^{atilde_1 + 1} y ... holds b2 x's
    tails = [_raised(_runs(b2 - 1, rest, s2), 1) for rest in range(r + 1)]
    for k in range(0, b1 + 1):
        m1 = binom(a - 1 + k, a - 1)
        for t in range(0, r + 1):
            _emit(out, _raised(_runs(b1 - k, t, s1), a + k), tails[r - t], m1)


def _lgm12_sum2(a, r, b1, s1, b2, s2, out):
    # the l loop (head) and the r2/r3 split (tail) each summed at once
    tails = [_raised(_runs(b2 - 1, rest, s2), 1) for rest in range(r + 1)]
    for a1 in range(0, a):
        a2 = a - 1 - a1
        m1 = binom(a1 + b1 - 1, b1 - 1)
        for r1 in range(0, r + 1):
            _emit(out, _raised(_marked_runs(a2, r1, s1), a1 + b1), tails[r - r1], m1)
        # r1 = 0, l = s1: the y-run after x^{alpha_{s1+1} + 1} is empty, so
        # those x's join the first block of the tail
        for al in weak_compositions(a2, s1 + 1):
            head = (al[0] + a1 + b1,) + al[1:-1]
            carry = al[-1] + 1
            for t, c in tails[r]:
                exps = head + (t[0] + carry,) + t[1:]
                out[exps] = out.get(exps, 0) + m1 * c


def _lgm12_sum3(a, r, b1, s1, b2, s2, out):
    # the r1/r2 split (tail) summed at once
    for k in range(1, b2 + 1):
        tails = [(t[0], t[1:], c) for t, c in _runs(b2 - k, r, s2)]
        for a1 in range(0, a):
            for a3 in range(0, a - a1):
                a2 = a - 1 - a1 - a3
                m1 = binom(a1 + b1 - 1, b1 - 1) * binom(a3 + k - 1, k - 1)
                if not m1:
                    continue
                for al in weak_compositions(a2, s1 + 1):
                    head = (al[0] + a1 + b1,) + al[1:-1]
                    # the merged run x^{alpha_{s1+1} + atilde_1 + a3 + k + 1};
                    # at r1 = 0 it takes the whole tail y-run (see
                    # FORMULA_NOTES.md)
                    merged = al[-1] + a3 + k + 1
                    for t0, rest, c in tails:
                        exps = head + (t0 + merged,) + rest
                        out[exps] = out.get(exps, 0) + m1 * c


def _lgm12_sum4(a, r, b1, s1, b2, s2, out):
    # the l loop summed at once
    for a1 in range(0, a):
        m1 = binom(a1 + b1 - 1, b1 - 1)
        for a3 in range(0, a - a1):
            m2 = m1 * binom(a3 + b2 - 1, b2 - 1)
            if not m2:
                continue
            for a2 in range(0, a - a1 - a3):
                heads = _raised([(al, 1) for al in weak_compositions(a2, s1)], a1 + b1)
                tails = _raised(_marked_runs(a - 1 - a1 - a3 - a2, r, s2), a3 + b2)
                _emit(out, heads, tails, m2)


_LGM12_SUMS = {1: _lgm12_sum1, 2: _lgm12_sum2, 3: _lgm12_sum3, 4: _lgm12_sum4}


def _sum_lgm12(sums: Iterable, a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    """Check the parameters are positive, then add up the given sums."""
    _require_positive(a=a, r=r, b1=b1, s1=s1, b2=b2, s2=s2)
    out: dict = {}
    for fn in sums:
        fn(a, r, b1, s1, b2, s2, out)
    return LinComb.from_exponents(out)


def lgm_1_2_sum(index: int, a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    """One of the four sums of the alternative 1x2 formula, on its own."""
    if index not in _LGM12_SUMS:
        raise ValueError(f"sum index must be 1..4, got {index}")
    return _sum_lgm12([_LGM12_SUMS[index]], a, r, b1, s1, b2, s2)


def expand_lgm_1_2(a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> LinComb:
    """Alternative closed form of x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2}."""
    return _sum_lgm12(_LGM12_SUMS.values(), a, r, b1, s1, b2, s2)


# ---------------------------------------------------------------------------
# per-point checks of the appendixA and appendixB sweeps in `verify`


def check_lgm_1_1(point) -> str | None:
    """expand_lgm_1_1 against expand_res_1_1 at (a, r, b, s)."""
    if expand_lgm_1_1(*point) != expand_res_1_1(*point):
        return f"appendixA mismatch at (a,r,b,s)={point}"
    return None


def check_lgm_1_2(point) -> str | None:
    """expand_lgm_1_2 against expand_res_1_2 at (a, r, b1, s1, b2, s2)."""
    if expand_lgm_1_2(*point) != expand_res_1_2(*point):
        return f"appendixB mismatch at (a,r,b1,s1,b2,s2)={point}"
    return None
