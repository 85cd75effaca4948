import functools
import itertools
import math

import pytest

from mzvshuffle.lincomb import LinComb
from mzvshuffle.numeric import (
    MAX_TERMS,
    MIN_TERMS,
    SCALE_BITS,
    SERIES_TERMS,
    NumericResult,
    identity_residual_with_bound,
    mzv_eval,
    zeta_of_lincomb,
)
from mzvshuffle.words import NotAdmissibleError, Word, word_to_mzv


def test_zeta2_value_within_err():
    result = mzv_eval((2,), 100_000)
    assert abs(result.value - math.pi**2 / 6) <= result.err_est


def test_euler_zeta21_equals_zeta3():
    r21 = mzv_eval((2, 1))
    r3 = mzv_eval((3,))
    assert abs(r21.value - r3.value) <= 3 * (r21.err_est + r3.err_est)


def test_classical_depth_two_values():
    # zeta(2,2) = pi^4/120 and zeta(3,1) = pi^4/360; the references need more
    # than float precision, since err_est is about half an ulp
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    r22 = mzv_eval((2, 2))
    assert abs(r22.value - mpmath.pi**4 / 120) <= r22.err_est
    r31 = mzv_eval((3, 1))
    assert abs(r31.value - mpmath.pi**4 / 360) <= r31.err_est


def test_inadmissible_and_small_m():
    with pytest.raises(NotAdmissibleError):
        mzv_eval((1,))
    with pytest.raises(NotAdmissibleError):
        mzv_eval((1, 2))
    with pytest.raises(ValueError):
        mzv_eval((2,), 8)
    with pytest.raises(ValueError):
        mzv_eval((2,), MAX_TERMS + 1)


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
    one = zeta_of_lincomb(LinComb.term(Word()))
    assert one.mantissa == 1 << SCALE_BITS and one.mantissa_err == 0
    single = zeta_of_lincomb(LinComb.term(Word("xy")))
    assert single.value == pytest.approx(mzv_eval((2,)).value)


def test_zeta_of_lincomb_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError) as err:
        zeta_of_lincomb(LinComb({Word("yx"): 1, Word("xy"): 1}))
    assert "yx" in str(err.value)
    # the offending words in canonical order, whatever the insertion order
    with pytest.raises(NotAdmissibleError) as err:
        zeta_of_lincomb(LinComb({"xx": 1, "yx": 1, "xy": 1}))
    assert str(err.value) == "words without a zeta value: yx, x^2"


def test_zeta_of_lincomb_checks_terms():
    for comb in (LinComb.zero(), LinComb.term(Word()), LinComb.term(Word("xy"))):
        with pytest.raises(ValueError):
            zeta_of_lincomb(comb, MIN_TERMS - 1)


def test_identity_residual_examples():
    assert identity_residual_with_bound(Word("xy"), Word("xy"))[0] <= 1e-30
    assert identity_residual_with_bound(Word("xxy"), Word("xy"))[0] <= 1e-30
    with pytest.raises(NotAdmissibleError):
        identity_residual_with_bound(Word("xy"), Word("yx"))


def test_identity_residual_bound():
    residual, bound = identity_residual_with_bound(Word("xyy"), Word("xy"))
    assert residual <= bound <= 1e-30


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


# --- the fixed-point evaluator against independent values --------------------


def _admissible_indices(max_weight):
    words = (
        "x" + "".join(middle) + "y"
        for weight in range(2, max_weight + 1)
        for middle in itertools.product("xy", repeat=weight - 2)
    )
    return [word_to_mzv(Word(w)) for w in words]


def _exact(mpmath, result):
    return mpmath.mpf(result.mantissa) / mpmath.mpf(2) ** SCALE_BITS


def _nested_li(mpmath, ks, z_powers, inverse_powers):
    """Li_{k_1..k_r}(z) = sum over m_1 > ... > m_r >= 1 of
    z^{m_1} / (m_1^{k_1} ... m_r^{k_r}), truncated at m_1 < len(z_powers);
    inverse_powers(k)[m - 1] is m^-k."""
    if not ks:
        return mpmath.mpf(1)
    level = inverse_powers(ks[-1])
    for k in reversed(ks[:-1]):
        running, inner, level = mpmath.mpf(0), level, []
        for below, inverse in zip(inner, inverse_powers(k)):
            level.append(running * inverse)
            running += below
    return mpmath.fsum(term * zm for term, zm in zip(level, z_powers[1:]))


def _indices_of(letters):
    """Index (k_1, ..., k_r), k_1 >= 1, of a word ending in y (or empty)."""
    return tuple(len(run) + 1 for run in letters.split("y")[:-1])


def test_agrees_with_mpmath_to_1e30():
    # an independent evaluation: the integral split at 2/5 instead of 1/2,
    # each polylogarithm summed as a nested sum in mpmath floats
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    lam = mpmath.mpf(2) / 5
    terms = 200  # (3/5)^200 < 1e-44
    powers = {z: [z**m for m in range(terms + 1)] for z in (lam, 1 - lam)}
    inverse_powers = functools.lru_cache(maxsize=None)(
        lambda k: [mpmath.mpf(m) ** -k for m in range(1, terms + 1)]
    )
    li = functools.lru_cache(maxsize=None)(
        lambda letters, z: _nested_li(mpmath, _indices_of(letters), powers[z], inverse_powers)
    )
    dual = str.maketrans("xy", "yx")
    indices = _admissible_indices(8)
    assert len(indices) == 127
    for ks in indices:
        w = Word("".join("x" * (k - 1) + "y" for k in ks)).text
        want = sum(
            li(w[j:], lam) * li(w[:j][::-1].translate(dual), 1 - lam) for j in range(len(w) + 1)
        )
        result = mzv_eval(ks)
        err = abs(_exact(mpmath, result) - want)
        assert err <= 1e-30, ks
        assert err * 2**SCALE_BITS <= result.mantissa_err, ks
        assert abs(result.value - want) <= result.err_est, ks


def _references(mpmath):
    refs = [((k,), mpmath.zeta(k)) for k in range(2, 9)]
    # duality: zeta(2, {1}^n) = zeta(n + 2)
    refs += [((2,) + (1,) * n, mpmath.zeta(n + 2)) for n in range(1, 8)]
    # zeta({2}^n) = pi^(2n) / (2n + 1)!
    refs += [((2,) * n, mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)) for n in range(2, 6)]
    refs.append(((3, 1), mpmath.pi**4 / 360))
    return refs


def test_err_est_bounds_the_error_on_references():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for ks, exact in _references(mpmath):
        result = mzv_eval(ks, 100_000)
        assert abs(result.value - exact) <= result.err_est, ks
        assert result.err_est <= 2.3e-16, ks  # half an ulp and a little more
        assert abs(_exact(mpmath, result) - exact) * 2**SCALE_BITS <= result.mantissa_err, ks


def test_long_runs_keep_the_bound():
    # 202 letters each: x^201 y, and x y^201, the dual word with the same value
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    exact = mpmath.zeta(202)
    for ks in [(202,), (2,) + (1,) * 200]:
        result = mzv_eval(ks)
        assert result.value == 1.0
        assert abs(result.value - exact) <= result.err_est
        assert abs(_exact(mpmath, result) - exact) * 2**SCALE_BITS <= result.mantissa_err
    assert mzv_eval((1201,)).value == 1.0


def test_stuffle_depth_two():
    # zeta(a) zeta(b) = zeta(a, b) + zeta(b, a) + zeta(a + b): the harmonic
    # product, independent of the shuffle and of the convolution
    for a in range(2, 7):
        for b in range(2, 7):
            za, zb = mzv_eval((a,)), mzv_eval((b,))
            parts = [mzv_eval((a, b)), mzv_eval((b, a)), mzv_eval((a + b,))]
            lhs = za.mantissa * zb.mantissa
            rhs = sum(p.mantissa for p in parts) << SCALE_BITS
            bound = (za.mantissa + za.mantissa_err) * zb.mantissa_err + zb.mantissa * za.mantissa_err
            bound += sum(p.mantissa_err for p in parts) << SCALE_BITS
            assert abs(lhs - rhs) <= bound, (a, b)


def test_terms_do_not_change_the_value():
    assert mzv_eval((3, 1), MIN_TERMS) == mzv_eval((3, 1), MAX_TERMS)
    assert mzv_eval((3, 1)).terms_used == SERIES_TERMS


def test_suffix_caches_do_not_change_values():
    from mzvshuffle import numeric

    words = [Word("".join("x" * (k - 1) + "y" for k in ks)).text for ks in _admissible_indices(9)]

    def fresh(order):
        numeric._suffix.cache_clear()
        # the values themselves, not the per-word cache in front of them
        return {w: numeric._zeta_fixed.__wrapped__(w) for w in order}

    assert fresh(words) == fresh(words[::-1])


def test_index_and_word_evaluations_agree():
    # mzv_eval converts an index to its word and zeta_of_lincomb reads the
    # word; both go through the per-word cache, so each call order starts
    # from empty caches
    from mzvshuffle import numeric

    def by_index(w):
        result = mzv_eval(word_to_mzv(w))
        return result.mantissa, result.mantissa_err

    def by_word(w):
        result = zeta_of_lincomb(LinComb.term(w))
        return result.mantissa, result.mantissa_err

    words = [Word("x" + "".join(middle) + "y")
             for weight in range(2, 9) for middle in itertools.product("xy", repeat=weight - 2)]
    values = []
    for order in ((by_index, by_word), (by_word, by_index)):
        numeric._zeta_fixed.cache_clear()
        numeric._suffix.cache_clear()
        values.append([[evaluate(w) for evaluate in order] for w in words])
    assert all(first == second for first, second in values[0])
    assert values[0] == values[1]


def test_run_skipping_matches_letter_by_letter():
    # long runs reach fixed points of their letter, which _suffix_values skips
    from mzvshuffle import numeric

    for word in ["x" * 300 + "y", "x" + "y" * 300, "x" * 150 + "yyy" + "x" * 140 + "y",
                 "x" + "y" * 200 + "x" * 200 + "y"]:
        row, want = numeric._EMPTY_ROW, [numeric._ONE]
        for letter in reversed(word):
            row = numeric._step(letter, row)
            want.append(numeric._li(row))
        numeric._suffix.cache_clear()
        assert numeric._suffix_values(word) == want[::-1], word


def test_each_suffix_is_stepped_and_summed_once(monkeypatch):
    # the 45 words of x^8 y ш x^5 y^2 and their duals have 709 distinct
    # nonempty suffixes, all short enough for the suffix cache
    from mzvshuffle import numeric
    from mzvshuffle.shuffle import shuffle_recursive

    calls = {"_step": 0, "_li": 0}

    def counted(name):
        function = getattr(numeric, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(numeric, name, counted(name))
    product = shuffle_recursive(Word("x" * 8 + "y"), Word("x" * 5 + "yy"))
    dual = str.maketrans("xy", "yx")
    suffixes = {w[j:] for text in product._terms for w in (text, text[::-1].translate(dual))
                for j in range(len(w))}
    assert (len(product._terms), len(suffixes)) == (45, 709)
    numeric._zeta_fixed.cache_clear()
    numeric._suffix.cache_clear()
    zeta_of_lincomb(product)
    assert calls == {"_step": 709, "_li": 709}


def test_suffix_eviction_does_not_change_values(monkeypatch):
    # words that cross the cached length, evaluated in both orders through a
    # two-entry suffix cache, against the values at the full cache size
    from functools import lru_cache

    from mzvshuffle import numeric

    long = "x" * 70 + "y" + "xxx" + "y"
    words = [long, "y" + long, "xy" + long, long.translate(str.maketrans("xy", "yx"))[::-1],
             "xxy", "x" * 64 + "y", "x" * 65 + "y"]
    numeric._suffix.cache_clear()
    want = {w: numeric._suffix_values(w) for w in words}
    monkeypatch.setattr(numeric, "_suffix", lru_cache(maxsize=2)(numeric._suffix.__wrapped__))
    for order in (words, words[::-1]):
        assert {w: numeric._suffix_values(w) for w in order} == want
    assert numeric._suffix.cache_info().currsize == 2


def test_round_up():
    from fractions import Fraction

    from mzvshuffle.numeric import _round_up

    for num, den in [(1, 3), (2, 3), (1, 10), (10**40 + 1, 3 * 2**200)]:
        out = _round_up(num, den)
        assert Fraction(out) >= Fraction(num, den) > Fraction(math.nextafter(out, 0.0))
    assert _round_up(1, 4) == 0.25
