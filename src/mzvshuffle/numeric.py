"""Multiple zeta values in integer fixed point, with proven error bounds.

Evaluation uses the p = 2 Hölder convolution of Borwein, Bradley, Broadhurst
and Lisoněk ("Special values of multiple polylogarithms", Trans. AMS 353
(2001), arXiv:math/9910045).  Splitting the iterated integral of an
admissible word w at 1/2 gives

    zeta(w) = sum_{j=0}^{|w|} Li_{rho(w[:j])}(1/2) * Li_{w[j:]}(1/2),

where rho reverses a word and swaps x and y, and Li_∅ = 1.  rho(w[:j]) is the
suffix of length j of the dual word rho(w), so the sum needs Li(1/2) of every
suffix of w and of rho(w).  All of those words end in y.

The series.  Write Li_s(z) = sum_n c_s(n) z^n.  Then c_∅ = [1, 0, 0, ...],
c_{xs}(n) = c_s(n) / n and c_{ys}(n) = (1/n) sum_{m<n} c_s(m), with
c_{xs}(0) = c_{ys}(0) = 0.  By induction 0 <= c_s(n) <= 1: dividing by n
keeps an entry at most 1, and so does averaging n entries that are at most 1.

The tail.  Li_s(1/2) = sum_{n>=1} c_s(n) 2^-n, and the terms beyond
n = SERIES_TERMS add at most sum_{n>N} 2^-n = 2^-N, whatever the depth.

The rounding.  A row holds R_s(n) ~ 2^P c_s(n) for n <= N, in integers with
P = FRAC_BITS fraction bits.  Each letter step floors once per entry:
R_{xs}(n) = floor(R_s(n) / n) and R_{ys}(n) = floor(sum_{m<n} R_s(m) / n).
If 0 <= 2^P c_s(n) - R_s(n) <= e for every n, the step leaves an error of at
most e/n + (n-1)/n <= e + 1, still from below.  The empty row is exact, so a
row of the word s is low by at most |s| units.  Summing the row,
V_s = floor(sum_{n<=N} R_s(n) 2^-n), loses at most one unit more, and the
tail adds 2^(P-N) = 1 unit since N = P.  So

    0 <= 2^P Li_s(1/2) - V_s <= |s| + 2   (s nonempty; V_∅ = 2^P exactly).

The product.  Each factor is at most 1 (sum 2^-n), so with A = a 2^P - da and
B = b 2^P - db, the product a b 2^2P - A B = A db + B da + da db is at most
2^P (da + db).  Summed over j = 0..L for a word of L letters, the two ends
(one empty factor) give L + 2 each and the L - 1 inner terms L + 4 each:
(L^2 + 5L) 2^P units of 2^-2P in all, the mantissa being low by at most that.

The float.  `value` is the mantissa rounded to the nearest float, off by at
most half an ulp, and `err_est` rounds the sum of both bounds upward.

The precision is fixed.  The mantissa's bound, (L^2 + 5L) 2^-128, is below
1e-30 for words of up to about 10^4 letters, and below half an ulp of any
value above 1e-14.  The `terms` arguments are accepted and range-checked
for compatibility, but they do not change the value.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache
from itertools import accumulate
from operator import floordiv, lshift, mul
from typing import Iterable, NamedTuple

from .lincomb import LinComb
from .words import NotAdmissibleError, _admissible, _canonical, _run_lengths, mzv_to_word

DEFAULT_TERMS = 20_000
MIN_TERMS = 16
MAX_TERMS = 10_000_000

FRAC_BITS = 128
SERIES_TERMS = FRAC_BITS
# fraction bits of a zeta mantissa: the convolution multiplies two P-bit values
SCALE_BITS = 2 * FRAC_BITS

_ONE = 1 << FRAC_BITS
_NS = range(1, SERIES_TERMS + 1)
_SHIFTS = range(SERIES_TERMS, -1, -1)
_EMPTY_ROW = [_ONE] + [0] * SERIES_TERMS
_DUAL = str.maketrans("xy", "yx")
_OTHER = {"x": "y", "y": "x"}

# Caches shared by the words of one process, keyed by suffixes of at most
# _CACHED_LETTERS letters: V of up to 2^14 suffixes (about 3 MB at most) and
# the rows of the 256 most recently computed ones (about 1.7 MB)
_CACHED_LETTERS = 64
_CACHED_VALUES = 1 << 14
_CACHED_ROWS = 256
_SUFFIX_VALUES: dict[str, int] = {}
_SUFFIX_ROWS: OrderedDict[str, list[int]] = OrderedDict()


class _Fields(NamedTuple):
    value: float
    err_est: float
    terms_used: int
    mantissa: int | None = None
    mantissa_err: int = 0


class NumericResult(_Fields):
    """A value within err_est of the true one.

    `mantissa` is the fixed-point result the value was rounded from:
    |true * 2^SCALE_BITS - mantissa| <= mantissa_err.  `terms_used` is the
    number of terms of each power series summed.
    """

    __slots__ = ()

    def __new__(cls, value, err_est, terms_used, mantissa=None, mantissa_err=0):
        if err_est < 0 or not math.isfinite(value):
            raise ValueError("numeric result must be finite with err_est >= 0")
        return super().__new__(cls, value, err_est, terms_used, mantissa, mantissa_err)


def _check_terms(terms: int) -> int:
    terms = int(terms)
    if not MIN_TERMS <= terms <= MAX_TERMS:
        raise ValueError(f"terms must be between {MIN_TERMS} and {MAX_TERMS}, got {terms}")
    return terms


def _step(letter: str, row: list[int]) -> list[int]:
    """The row of letter + s from the row of s: entries n = 0..N, floored."""
    if letter == "x":
        return [0, *map(floordiv, row[1:], _NS)]
    return [0, *map(floordiv, accumulate(row[:-1]), _NS)]


def _li(row: list[int]) -> int:
    """floor(sum_{n<=N} row[n] 2^-n)."""
    return sum(map(lshift, row, _SHIFTS)) >> SERIES_TERMS


def _row(word: str) -> list[int]:
    """The row of a suffix of at most _CACHED_LETTERS letters, from the
    longest of its suffixes whose row is cached."""
    start = 0
    while start < len(word) and word[start:] not in _SUFFIX_ROWS:
        start += 1
    row = _SUFFIX_ROWS[word[start:]] if start < len(word) else _EMPTY_ROW
    for letter in reversed(word[:start]):
        row = _step(letter, row)
    return row


def _suffix_values(word: str) -> list[int]:
    """V of word[j:] for j = 0..len(word), for a word ending in y."""
    size = len(word)
    cached = max(size - _CACHED_LETTERS, 0)  # suffixes word[cached:] and shorter
    values = [_ONE] * (size + 1)
    known = size  # values[known:] are filled
    while known > cached and (value := _SUFFIX_VALUES.get(word[known - 1 :])) is not None:
        known -= 1
        values[known] = value
    if not known:
        return values
    row = _row(word[known:])
    i = known
    while i:
        i -= 1
        letter = word[i]
        new = _step(letter, row)
        if new == row:
            # a fixed point of this letter (only n = 1 left after x's, or all
            # zero after N y's): the rest of its run changes nothing
            start = word.rfind(_OTHER[letter], 0, i) + 1
            values[start : i + 1] = [values[i + 1]] * (i + 1 - start)
            i = start
            continue
        row = new
        values[i] = _li(row)
        if i >= cached:
            suffix = word[i:]
            if len(_SUFFIX_VALUES) < _CACHED_VALUES:
                _SUFFIX_VALUES[suffix] = values[i]
            _SUFFIX_ROWS[suffix] = row
            if len(_SUFFIX_ROWS) > _CACHED_ROWS:
                _SUFFIX_ROWS.popitem(last=False)
    return values


@lru_cache(maxsize=8192)
def _zeta_fixed(word: str) -> tuple[int, int]:
    """(mantissa, error bound) of zeta(word), in units of 2^-SCALE_BITS; the
    empty word gives exactly (2^SCALE_BITS, 0)."""
    suffixes = _suffix_values(word)
    dual_suffixes = _suffix_values(word[::-1].translate(_DUAL))
    mantissa = sum(map(mul, reversed(dual_suffixes), suffixes))
    size = len(word)
    return mantissa, (size * size + 5 * size) << FRAC_BITS


def _round_up(num: int, den: int) -> float:
    """The least float >= num / den, for den > 0."""
    out = num / den  # int division rounds correctly
    p, q = out.as_integer_ratio()
    return out if p * den >= num * q else math.nextafter(out, math.inf)


def _result(mantissa: int, err: int) -> NumericResult:
    value = mantissa / (1 << SCALE_BITS)
    # |value - true| <= err / 2^SCALE_BITS, plus ulp(value) / 2 if value is
    # not the mantissa exactly
    p, q = value.as_integer_ratio()
    exact = p << SCALE_BITS == mantissa * q
    half_ulp, den = (0, 1) if exact else (math.ulp(value) / 2).as_integer_ratio()
    err_est = _round_up(err * den + (half_ulp << SCALE_BITS), den << SCALE_BITS)
    return NumericResult(value, err_est, SERIES_TERMS, mantissa, err)


def mzv_eval(idx: Iterable[int], terms: int = DEFAULT_TERMS) -> NumericResult:
    """Evaluate zeta(k_1, ..., k_n) with a proven error bound.

    `terms` must lie in [MIN_TERMS, MAX_TERMS] but does not change the
    result, which is computed at a fixed precision (see the module
    docstring).
    """
    word = mzv_to_word(int(k) for k in idx)
    _check_terms(terms)
    return _result(*_zeta_fixed(word.text))


def zeta_of_lincomb(comb: LinComb, terms: int = DEFAULT_TERMS) -> NumericResult:
    """Apply the zeta map linearly; the empty word evaluates to exactly 1."""
    offending = [text for text in comb._terms if not _admissible(text)]
    if offending:
        names = ", ".join(_run_lengths(_canonical(offending)))
        raise NotAdmissibleError(f"words without a zeta value: {names}")
    _check_terms(terms)
    mantissa = err = 0
    for text, coeff in comb._terms.items():
        value, value_err = _zeta_fixed(text)
        mantissa += coeff * value
        err += abs(coeff) * value_err
    return _result(mantissa, err)


def identity_residual_with_bound(u, v, terms: int = DEFAULT_TERMS) -> tuple[float, float]:
    """The computed residual and a proven bound on it.

    Both come from the fixed-point mantissas: the residual is
    |U V - W| for U, V, W the mantissas of zeta(u), zeta(v) and
    zeta(u shuffle v), and since the true residual is 0, the bound is the
    error the mantissas can carry into it.
    """
    from .shuffle import shuffle_recursive

    for w in (u, v):
        if not w.is_admissible:
            raise NotAdmissibleError(f"{w!r} is not admissible")
    # checked before the shuffle, whose cost a bad value should not pay
    terms = _check_terms(terms)
    left_u, err_u = _zeta_fixed(u.text)
    left_v, err_v = _zeta_fixed(v.text)
    right = zeta_of_lincomb(shuffle_recursive(u, v), terms)
    residual = abs(left_u * left_v - (right.mantissa << SCALE_BITS))
    # |x y - U V| <= |x| |y - V| + |V| |x - U|
    bound = (
        (abs(left_u) + err_u) * err_v
        + abs(left_v) * err_u
        + (right.mantissa_err << SCALE_BITS)
    )
    scale = 1 << (2 * SCALE_BITS)
    return residual / scale, _round_up(bound, scale)
