"""Independent transcriptions of the alternative restricted formulas.

These expansions are written from the alternative published displays, not
from the case machinery in `restricted`, so exact agreement between the two
is a meaningful machine check.  The alternative formulas require strictly
positive parameters; zero parameters are rejected rather than guessed.
"""

from __future__ import annotations

from typing import Iterable

from .combinat import binom, weak_composition_list
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


def _assemble(blocks: list[tuple[int, int]]) -> tuple[int, ...]:
    # blocks of (x-exponent, y-run length); a zero-length y-run merges its
    # x's into the following block
    exps: list[int] = []
    carry = 0
    for x_exp, y_run in blocks:
        carry += x_exp
        if y_run > 0:
            exps.append(carry)
            exps.extend([0] * (y_run - 1))
            carry = 0
    if carry:
        raise ValueError("word does not end in y")
    return tuple(exps)


def _blocks(parts: tuple[int, ...], first: int, last: int, run: int) -> list[tuple[int, int]]:
    """x^{p_0 + first} y x^{p_1} y ... x^{p_k + last} y^run for parts p as
    blocks; a single part gives x^{p_0 + first + last} y^run, the r1 = 0
    degeneration of FORMULA_NOTES.md."""
    blocks = [(x, 1) for x in parts]
    blocks[0] = (blocks[0][0] + first, 1)
    blocks[-1] = (blocks[-1][0] + last, run)
    return blocks


def expand_lgm_1_1(a: int, r: int, b: int, s: int) -> LinComb:
    """Alternative closed form of x^a y^r . x^b y^s (positive parameters)."""
    _require_positive(a=a, r=r, b=b, s=s)
    out: dict = {}
    # first sum: words carrying the whole x^a block up front
    for k in range(0, b + 1):
        m1 = binom(a - 1 + k, a - 1)
        if not m1:
            continue
        for r1 in range(0, r + 1):
            r2 = r - r1
            mult = m1 * binom(r2 + s - 1, s - 1)
            if not mult:
                continue
            for al in weak_composition_list(b - k, r1 + 1):
                exps = _assemble(_blocks(al, a + k, 0, r2 + s))
                out[exps] = out.get(exps, 0) + mult
    # second sum: the x^a block split around position l+1
    for l in range(1, s + 1):
        m1 = binom(r + s - l, r)
        if not m1:
            continue
        for a1 in range(0, a):
            a2 = a - 1 - a1
            mult = m1 * binom(a1 + b - 1, b - 1)
            if not mult:
                continue
            for al in weak_composition_list(a2, l + 1):
                exps = _assemble(_blocks(al, a1 + b, 1, r + s - l))
                out[exps] = out.get(exps, 0) + mult
    return LinComb.from_exponents(out)


def _lgm12_sum1(a, r, b1, s1, b2, s2, out):
    for k in range(0, b1 + 1):
        m1 = binom(a - 1 + k, a - 1)
        if not m1:
            continue
        for r1 in range(0, r + 1):
            for r2 in range(0, r - r1 + 1):
                m2 = m1 * binom(r2 + s1 - 1, s1 - 1)
                if not m2:
                    continue
                for r3 in range(0, r - r1 - r2 + 1):
                    r4 = r - r1 - r2 - r3
                    mult = m2 * binom(r4 + s2 - 1, s2 - 1)
                    if not mult:
                        continue
                    for al in weak_composition_list(b1 - k, r1 + 1):
                        head = _blocks(al, a + k, 0, r2 + s1)
                        for tl in weak_composition_list(b2 - 1, r3 + 1):
                            exps = _assemble(head + _blocks(tl, 1, 0, r4 + s2))
                            out[exps] = out.get(exps, 0) + mult


def _lgm12_sum2(a, r, b1, s1, b2, s2, out):
    for l in range(1, s1 + 1):
        for a1 in range(0, a):
            a2 = a - 1 - a1
            m1 = binom(a1 + b1 - 1, b1 - 1)
            if not m1:
                continue
            for r1 in range(0, r + 1):
                m2 = m1 * binom(r1 + s1 - l, s1 - l)
                if not m2:
                    continue
                for r2 in range(0, r - r1 + 1):
                    r3 = r - r1 - r2
                    mult = m2 * binom(r3 + s2 - 1, s2 - 1)
                    if not mult:
                        continue
                    for al in weak_composition_list(a2, l + 1):
                        head = _blocks(al, a1 + b1, 1, r1 + s1 - l)
                        for tl in weak_composition_list(b2 - 1, r2 + 1):
                            exps = _assemble(head + _blocks(tl, 1, 0, r3 + s2))
                            out[exps] = out.get(exps, 0) + mult


def _lgm12_sum3(a, r, b1, s1, b2, s2, out):
    for k in range(1, b2 + 1):
        for a1 in range(0, a):
            for a3 in range(0, a - a1):
                a2 = a - 1 - a1 - a3
                m1 = binom(a1 + b1 - 1, b1 - 1) * binom(a3 + k - 1, k - 1)
                if not m1:
                    continue
                for r1 in range(0, r + 1):
                    r2 = r - r1
                    mult = m1 * binom(r2 + s2 - 1, s2 - 1)
                    if not mult:
                        continue
                    for al in weak_composition_list(a2, s1 + 1):
                        head = _blocks(al[:-1], a1 + b1, 0, 1)
                        for tl in weak_composition_list(b2 - k, r1 + 1):
                            # the merged run x^{alpha_{s1+1} + atilde_1 + a3 + k + 1};
                            # at r1 = 0 it takes the whole tail y-run (see
                            # FORMULA_NOTES.md)
                            tail = _blocks(tl, al[-1] + a3 + k + 1, 0, r2 + s2)
                            exps = _assemble(head + tail)
                            out[exps] = out.get(exps, 0) + mult


def _lgm12_sum4(a, r, b1, s1, b2, s2, out):
    for l in range(1, s2 + 1):
        m0 = binom(r + s2 - l, r)
        if not m0:
            continue
        for a1 in range(0, a):
            m1 = m0 * binom(a1 + b1 - 1, b1 - 1)
            if not m1:
                continue
            for a3 in range(0, a - a1):
                m2 = m1 * binom(a3 + b2 - 1, b2 - 1)
                if not m2:
                    continue
                for a2 in range(0, a - 1 - a1 - a3 + 1):
                    a4 = a - 1 - a1 - a3 - a2
                    for al in weak_composition_list(a2, s1):
                        head = _blocks(al, a1 + b1, 0, 1)
                        for tl in weak_composition_list(a4, l + 1):
                            exps = _assemble(head + _blocks(tl, a3 + b2, 1, r + s2 - l))
                            out[exps] = out.get(exps, 0) + m2


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
