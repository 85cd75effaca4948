"""Floating-point evaluation of multiple zeta values by truncated summation.

The evaluator runs the nested-sum dynamic program
    A_n(m) = sum_{0 < m' < m} 1 / m'^{k_n},
    A_j(m) = sum_{0 < m' < m} A_{j+1}(m') / m'^{k_j},
and returns A_1(M + 1) together with a heuristic error estimate: the
difference between the M and M/2 truncations plus the analytic tail bound
for the outer exponent.  Inner tails are covered only heuristically; the
numbers here are a smoke test for identities that are exact symbolically.

The dynamic program is one numpy cumulative sum per nesting level, the one
numeric kernel in the package.  Its arrays have M + 2 entries, so M is
bounded by MAX_TERMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .lincomb import LinComb
from .words import NotAdmissibleError, word_to_mzv

DEFAULT_TERMS = 20_000
MIN_TERMS = 16
# the kernel holds at most four float64 arrays of terms + 2 entries at once,
# 320 MB at the cap
MAX_TERMS = 10_000_000


def _dp_numpy(ks: np.ndarray, terms: int) -> tuple[float, float]:
    """The truncations at `terms` and `terms // 2`: one cumulative sum per nesting level."""
    m = np.arange(terms + 2, dtype=np.float64)
    level = np.ones(terms + 2)
    for k in ks[::-1]:
        summand = np.zeros(terms + 2)
        summand[1 : terms + 1] = level[1 : terms + 1] * m[1 : terms + 1] ** (-float(k))
        level = np.zeros(terms + 2)
        level[1:] = np.cumsum(summand)[: terms + 1]
    return float(level[terms + 1]), float(level[terms // 2 + 1])


@dataclass(frozen=True)
class NumericResult:
    value: float
    err_est: float
    terms_used: int

    def __post_init__(self):
        if self.err_est < 0 or not np.isfinite(self.value):
            raise ValueError("numeric result must be finite with err_est >= 0")


def _check_index(ks: tuple[int, ...]) -> None:
    if not ks or any(k < 1 for k in ks) or ks[0] < 2:
        raise NotAdmissibleError(
            f"zeta index must have k_1 >= 2 and all entries >= 1, got {ks}"
        )


def _check_terms(terms: int) -> int:
    terms = int(terms)
    if not MIN_TERMS <= terms <= MAX_TERMS:
        raise ValueError(f"terms must be between {MIN_TERMS} and {MAX_TERMS}, got {terms}")
    return terms


@lru_cache(maxsize=8192)
def _eval_cached(ks: tuple[int, ...], terms: int) -> NumericResult:
    value, half = _dp_numpy(np.asarray(ks, dtype=np.int64), terms)
    tail = float(terms) ** (1 - ks[0]) / (ks[0] - 1)
    return NumericResult(value=value, err_est=abs(value - half) + tail, terms_used=terms)


def mzv_eval(idx: Iterable[int], terms: int = DEFAULT_TERMS) -> NumericResult:
    """Evaluate zeta(k_1, ..., k_n) by truncating the nested sum at `terms`,
    which must lie in [MIN_TERMS, MAX_TERMS]."""
    ks = tuple(int(k) for k in idx)
    _check_index(ks)
    return _eval_cached(ks, _check_terms(terms))


def zeta_of_lincomb(comb: LinComb, terms: int = DEFAULT_TERMS) -> NumericResult:
    """Apply the zeta map linearly; the empty word evaluates to exactly 1."""
    offending = [str(w) for w, _ in comb.items() if not w.is_admissible]
    if offending:
        raise NotAdmissibleError(f"words without a zeta value: {', '.join(offending)}")
    value = err = 0.0
    for word, coeff in comb.items():
        res = _zeta_word(word, terms)
        value += coeff * res.value
        err += abs(coeff) * res.err_est
    return NumericResult(value=value, err_est=err, terms_used=terms)


def identity_residual(u, v, terms: int = DEFAULT_TERMS) -> float:
    """|zeta(u) zeta(v) - zeta(u shuffle v)| at the given truncation."""
    residual, _ = identity_residual_with_bound(u, v, terms)
    return residual


def identity_residual_with_bound(u, v, terms: int = DEFAULT_TERMS) -> tuple[float, float]:
    """Residual plus the adaptive tolerance max(1e-6, 3 * combined err_est)."""
    from .shuffle import shuffle_recursive

    for w in (u, v):
        if not w.is_admissible:
            raise NotAdmissibleError(f"{w!r} is not admissible")
    # checked here too: a pair of empty words never reaches mzv_eval
    terms = _check_terms(terms)
    left_u = _zeta_word(u, terms)
    left_v = _zeta_word(v, terms)
    right = zeta_of_lincomb(shuffle_recursive(u, v), terms)
    residual = abs(left_u.value * left_v.value - right.value)
    combined = (
        left_u.err_est * abs(left_v.value)
        + left_v.err_est * abs(left_u.value)
        + right.err_est
    )
    return residual, max(1e-6, 3.0 * combined)


def _zeta_word(w, terms: int) -> NumericResult:
    if w.is_empty:
        return NumericResult(value=1.0, err_est=0.0, terms_used=0)
    return mzv_eval(word_to_mzv(w), terms)
