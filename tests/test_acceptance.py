"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the plain suite asserts the same conditions.
"""

import itertools
import time

from mzvshuffle.closed_form import expand_general
from mzvshuffle.lincomb import LinComb
from mzvshuffle.restricted import expand_nfold, expand_nfold_depth1, expand_res_1_1
from mzvshuffle.shuffle import shuffle_nfold, shuffle_permutation, shuffle_recursive
from mzvshuffle.words import Word
from mzvshuffle import verify
from test_combinat import vandermonde_check


def _report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _suite_ok(report, budget_s):
    return report.ok and report.elapsed_ms <= budget_s * 1000.0


def _suite_detail(reports):
    checked = sum(r.checked for r in reports)
    failures = sum(len(r.failures) for r in reports)
    elapsed = sum(r.elapsed_ms for r in reports) / 1000.0
    return f"{checked} checked, {failures} failures, {elapsed:.1f}s"


def test_euler_case_all_four_methods():
    want = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    xy = Word("xy")
    methods = {
        "recursive": lambda: shuffle_recursive(xy, xy),
        "permutation": lambda: shuffle_permutation(xy, xy),
        "general": lambda: expand_general((1,), (1,)),
        "res11": lambda: expand_res_1_1(1, 1, 1, 1),
    }
    worst = 0.0
    for name, fn in methods.items():
        assert fn() == want, name
        best = min(_time_once(fn) for _ in range(20))
        worst = max(worst, best)
    _report(
        "euler-four-methods",
        worst < 1e-3,
        f"exact via all four methods, slowest {worst * 1e6:.0f}us",
    )


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_general_formula_suite():
    report = verify.run_suite("general", 8)
    _report("general-formula<=8", _suite_ok(report, 60), _suite_detail([report]))


def test_general_formula_suite_weight_10():
    report = verify.run_suite("general", 10)
    _report("general-formula<=10", _suite_ok(report, 60), _suite_detail([report]))


def test_specialization_suite():
    report = verify.run_specialization_sweep(9)
    _report("specializations<=9", _suite_ok(report, 120), _suite_detail([report]))


def test_specialization_suite_bound_11(monkeypatch):
    # 3,830 points past the weight cap of 10; about 1 s on a 2-core x86 box
    monkeypatch.setenv(verify.ENV_WEIGHT_CAP, "11")
    report = verify.run_suite("specializations", 11)
    ok = _suite_ok(report, 30) and report.checked == 3830
    _report("specializations<=11", ok, _suite_detail([report]))


def test_restricted_suite():
    start = time.perf_counter()
    reports = [verify.run_suite(name, 10) for name in ("res11", "res12", "res22")]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed <= 180
    _report("restricted<=10", ok, _suite_detail(reports))


def test_res22_suite_bound_11(monkeypatch):
    # 6,435 points past the weight cap of 10; about 2.5 s on a 2-core x86 box
    monkeypatch.setenv(verify.ENV_WEIGHT_CAP, "11")
    report = verify.run_suite("res22", 11)
    ok = _suite_ok(report, 60) and report.checked == 6435
    _report("res22<=11", ok, _suite_detail([report]))


def test_nfold_suite():
    report = verify.run_suite("nfold", 9)
    _report("nfold<=9", _suite_ok(report, 120), _suite_detail([report]))


def test_nfold_suite_bound_10():
    # 2,211 points past the registered bound of 9; about 1.5 s on a 2-core x86 box
    report = verify.run_suite("nfold", 10)
    ok = _suite_ok(report, 30) and report.checked == 2211
    _report("nfold<=10", ok, _suite_detail([report]))


def test_nfold_seven_distinct_factors():
    # 5,040 orderings, no two alike: the walk over the 128 sets of factors
    # pinned takes about 0.5 s on a 2-core x86 box
    pairs = [(0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (2, 1), (0, 4)]
    start = time.perf_counter()
    got = expand_nfold(pairs)
    elapsed = time.perf_counter() - start
    ok = got == shuffle_nfold([Word("x" * a + "y" * r) for a, r in pairs]) and elapsed <= 5
    _report("nfold-seven-distinct", ok, f"{len(got.items())} terms, {elapsed:.2f}s")


def test_nfold_depth1_six_distinct_exponents():
    # y . xy . x^2 y ... x^5 y (11,961 words), past the sweep grid: the
    # depth-1 walk against the oracle and against expand_nfold; the walk
    # takes about 0.3 s on a 2-core x86 box
    start = time.perf_counter()
    got = expand_nfold_depth1(range(6))
    elapsed = time.perf_counter() - start
    ok = (
        got == shuffle_nfold([Word("x" * a + "y") for a in range(6)])
        and got == expand_nfold([(a, 1) for a in range(6)])
        and elapsed <= 5
    )
    _report("nfold-depth1-six-distinct", ok, f"{len(got.items())} terms, {elapsed:.2f}s")


def test_appendix_equivalences():
    start = time.perf_counter()
    reports = [verify.run_suite(name, 10) for name in ("appendixA", "appendixB")]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed <= 120
    _report("appendix-equivalences<=10", ok, _suite_detail(reports))


def test_appendix_b_suite_bound_12(monkeypatch):
    # 924 points past the weight cap of 10; about 0.3 s on a 2-core x86 box
    monkeypatch.setenv(verify.ENV_WEIGHT_CAP, "12")
    report = verify.run_suite("appendixB", 12)
    ok = _suite_ok(report, 30) and report.checked == 924
    _report("appendixB<=12", ok, _suite_detail([report]))


def test_algebraic_properties():
    start = time.perf_counter()
    props = verify.run_suite("shuffle-properties", 10)
    assoc = verify.run_suite("associativity", 9)
    elapsed = time.perf_counter() - start
    ok = props.ok and assoc.ok and elapsed <= 60
    _report("algebraic-properties", ok, _suite_detail([props, assoc]))


def test_vandermonde_identity():
    start = time.perf_counter()
    ok = all(
        vandermonde_check(k, l, n)
        for k in range(13)
        for l in range(13)
        for n in range(13)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 1.0
    _report("vandermonde<=12", ok, f"13^3 instances, {elapsed:.2f}s")


def test_numeric_homomorphism():
    from mzvshuffle.numeric import identity_residual_with_bound

    admissible = [
        Word("".join(bits))
        for length in range(2, 9)
        for bits in itertools.product("xy", repeat=length)
        if Word("".join(bits)).is_admissible
    ]
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for i, u in enumerate(admissible):
        for v in admissible[i:]:
            if len(u) + len(v) > 10:
                continue
            checked += 1
            residual, bound = identity_residual_with_bound(u, v)
            assert residual <= bound <= 1e-25, (str(u), str(v), residual, bound)
            worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = checked == 392 and elapsed <= 30
    _report(
        "numeric-homomorphism<=10",
        ok,
        f"{checked} pairs, worst residual {worst:.2e}, {elapsed:.1f}s",
    )
