import math

import pytest

from mzvshuffle.lincomb import LinComb
from mzvshuffle.numeric import (
    MAX_TERMS,
    NumericResult,
    identity_residual,
    identity_residual_with_bound,
    mzv_eval,
    zeta_of_lincomb,
)
from mzvshuffle.words import NotAdmissibleError, Word


def test_zeta2_against_direct_partial_sum():
    # same-algorithm sanity: the DP at depth 1 is exactly the partial sum
    terms = 50_000
    result = mzv_eval((2,), terms)
    direct = math.fsum(1.0 / m**2 for m in range(1, terms + 1))
    assert abs(result.value - direct) < 1e-12


def test_zeta2_value_within_err():
    result = mzv_eval((2,), 100_000)
    assert abs(result.value - math.pi**2 / 6) <= result.err_est


def test_euler_zeta21_equals_zeta3():
    r21 = mzv_eval((2, 1))
    r3 = mzv_eval((3,))
    assert abs(r21.value - r3.value) <= 3 * (r21.err_est + r3.err_est)


def test_classical_depth_two_values():
    # zeta(2,2) = pi^4/120 and zeta(3,1) = pi^4/360
    r22 = mzv_eval((2, 2))
    assert abs(r22.value - math.pi**4 / 120) <= r22.err_est
    r31 = mzv_eval((3, 1))
    assert abs(r31.value - math.pi**4 / 360) <= r31.err_est


def test_inadmissible_and_small_m():
    with pytest.raises(NotAdmissibleError):
        mzv_eval((1,))
    with pytest.raises(NotAdmissibleError):
        mzv_eval((1, 2))
    with pytest.raises(ValueError):
        mzv_eval((2,), 8)
    with pytest.raises(ValueError):
        mzv_eval((2,), MAX_TERMS + 1)


def test_monotone_refinement():
    indices = [(2,), (3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (4, 1, 1), (2, 2, 2)]
    for ks in indices:
        assert sum(ks) <= 6
        coarse = mzv_eval(ks, 10_000)
        fine = mzv_eval(ks, 20_000)
        assert fine.err_est <= coarse.err_est


def test_zeta_of_lincomb_paper_identity():
    comb = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    lhs = mzv_eval((2,))
    rhs = zeta_of_lincomb(comb)
    assert abs(lhs.value**2 - rhs.value) <= max(1e-6, 3 * rhs.err_est + 2 * lhs.err_est)


def test_zeta_of_lincomb_zero_and_unit():
    zero = zeta_of_lincomb(LinComb.zero())
    assert zero.value == 0.0 and zero.err_est == 0.0
    unit = zeta_of_lincomb(LinComb.term(Word(), 5))
    assert unit.value == 5.0 and unit.err_est == 0.0
    single = zeta_of_lincomb(LinComb.term(Word("xy")))
    assert single.value == pytest.approx(mzv_eval((2,)).value)


def test_zeta_of_lincomb_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError) as err:
        zeta_of_lincomb(LinComb({Word("yx"): 1, Word("xy"): 1}))
    assert "yx" in str(err.value)


def test_identity_residual_examples():
    assert identity_residual(Word("xy"), Word("xy")) <= 1e-6
    assert identity_residual(Word("xxy"), Word("xy")) <= 1e-6
    with pytest.raises(NotAdmissibleError):
        identity_residual(Word("xy"), Word("yx"))


def test_identity_residual_bound():
    residual, bound = identity_residual_with_bound(Word("xyy"), Word("xy"))
    assert residual <= bound
    assert bound >= 1e-6


def test_identity_with_empty_word():
    residual, bound = identity_residual_with_bound(Word(), Word("xy"))
    assert residual <= bound
    # no zeta value is evaluated for two empty words; the bound still applies
    with pytest.raises(ValueError):
        identity_residual_with_bound(Word(), Word(), MAX_TERMS + 1)


def test_numeric_result_validation():
    with pytest.raises(ValueError):
        NumericResult(value=1.0, err_est=-1.0, terms_used=10)
    with pytest.raises(ValueError):
        NumericResult(value=float("inf"), err_est=0.0, terms_used=10)
