import dataclasses
import os

import pytest

from mzvshuffle import verify

# points each sweep checks at total word length <= 6
CHECKED_AT_6 = {
    "general": 129,
    "res11": 70,
    "res12": 84,
    "res22": 45,
    "nfold": 154,
    "appendixA": 15,
    "appendixB": 1,
    "specializations": 124,
    "shuffle-properties": 392,
    "associativity": 584,
}


def test_unknown_suite():
    with pytest.raises(ValueError, match="appendixB"):
        verify.run_suite("bogus")


def test_suite_names_cover_cli_choices():
    assert set(verify.SWEEPS) == set(CHECKED_AT_6)


@pytest.mark.parametrize("name", list(CHECKED_AT_6))
def test_checked_at_bound_6(name):
    report = verify.run_suite(name, 6)
    assert report.checked == CHECKED_AT_6[name]
    assert report.ok
    assert report.grid.endswith("<= 6")


def test_weight_cap(monkeypatch):
    # refused before the grid is built: the bound-13 grids reach 267,424 points
    def no_grid(bound):
        raise AssertionError("grid built past the cap")

    for name, sweep in list(verify.SWEEPS.items()):
        monkeypatch.setitem(verify.SWEEPS, name, dataclasses.replace(sweep, grid=no_grid))
        with pytest.raises(ValueError, match=r"^max weight 13 exceeds the cap 12$"):
            verify.run_suite(name, 13)


@pytest.mark.parametrize("bound", [0, -3])
def test_bound_below_one_rejected(bound):
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suite("res22", bound)


def test_environment_sets_no_cap(monkeypatch):
    monkeypatch.setenv("MZV_MAX_WEIGHT", "5")
    report = verify.run_suite("res11")
    assert report.checked == 495
    assert report.grid.endswith("<= 10")
    assert report.ok


# the smallest bound at which each grid passes the pool's 64 points
POOL_BOUND = {
    "general": 6,
    "res11": 6,
    "res12": 6,
    "res22": 7,
    "nfold": 6,
    "appendixA": 8,
    "appendixB": 9,
    "specializations": 6,
    "shuffle-properties": 4,
    "associativity": 4,
}


@pytest.mark.parametrize("name", list(verify.SWEEPS))
def test_jobs_match_sequential(name):
    # the pool pickles each sweep's check, so this fails for one that cannot be
    seq = verify.run_suite(name, POOL_BOUND[name], jobs=1)
    par = verify.run_suite(name, POOL_BOUND[name], jobs=2)
    assert seq.checked == par.checked > 64
    assert seq.failures == par.failures == []


@pytest.mark.parametrize(
    "name, expansion, first",
    [
        ("res11", "expand_res_1_1", "res11 mismatch at (a,r,b,s)=(0, 1, 0, 1)"),
        ("res12", "expand_res_1_2", "res12 mismatch at (a,r,b1,s1,b2,s2)=(0, 1, 0, 1, 0, 1)"),
        ("res22", "expand_res_2_2",
         "res22 mismatch at (a1,r1,a2,r2,b1,s1,b2,s2)=(0, 1, 0, 1, 0, 1, 0, 1)"),
    ],
)
def test_run_product_check_reports_each_point(monkeypatch, name, expansion, first):
    # the check looks the expansion up at call time, so a stub reaches it
    from mzvshuffle.lincomb import LinComb

    monkeypatch.setattr(verify, expansion, lambda *point: LinComb.zero())
    report = verify.run_suite(name, 8)
    assert len(report.failures) == report.checked > 0
    assert report.failures[0] == first


def test_clamp_jobs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [verify.clamp_jobs(j) for j in (-5, 0, 1, 3, 4, 100_000)] == [1, 1, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.clamp_jobs(8) == 1


def test_report_json_obj():
    report = verify.run_suite("general", 5)
    obj = report.to_json_obj()
    assert obj["suite"] == "general"
    assert obj["checked"] == report.checked
    assert obj["failures"] == []
    assert obj["elapsed_ms"] >= 0
    obj["failures"].append("changed")  # a copy: the report keeps its own list
    assert report.failures == []


def test_h1_exponent_forms_count():
    # 2^(length-1) words ending in y per length
    forms = list(verify.h1_exponent_forms(5))
    assert len(forms) == sum(2 ** (n - 1) for n in range(1, 6))


def test_pattern_cases_partition_the_product():
    # the 1x2 and 2x2 splits share one enumerator: each split's buckets
    # sum to the product of the defining rules
    from mzvshuffle.shuffle import shuffle_recursive
    from mzvshuffle.words import Word
    from mzvshuffle.lincomb import LinComb

    points = [
        (1, 1, 1, 2, 0, 1),
        (0, 2, 1, 1, 1, 2),
        (2, 3, 0, 2, 1, 1),
        (1, 2, 2, 3, 0, 2),
        (1, 1, 0, 2, 1, 2, 0, 1),
        (0, 2, 1, 1, 1, 1, 0, 2),
        (2, 1, 0, 1, 0, 2, 1, 1),
        (1, 2, 1, 1, 1, 1, 1, 2),
    ]
    for point in points:
        split = verify.pattern_cases_1_2 if len(point) == 6 else verify.pattern_cases_2_2
        total = LinComb.zero()
        for comb in split(*point).values():
            total = total + comb
        first = 2 if len(point) == 6 else 4
        u = Word("".join("x" * a + "y" * r for a, r in zip(point[:first:2], point[1:first:2])))
        v = Word("".join("x" * b + "y" * s for b, s in zip(point[first::2], point[first + 1::2])))
        assert total == shuffle_recursive(u, v), point
