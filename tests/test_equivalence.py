import json

import pytest

from mzvshuffle.equivalence import (
    PositivityRequiredError,
    expand_lgm_1_1,
    expand_lgm_1_2,
    lgm_1_2_sum,
)
from mzvshuffle.lincomb import LinComb
from mzvshuffle.restricted import expand_res_1_1, expand_res_1_2
from mzvshuffle.shuffle import shuffle_recursive
from mzvshuffle.words import Word
from mzvshuffle import verify


def test_lgm_1_1_euler_case():
    assert expand_lgm_1_1(1, 1, 1, 1) == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})


def test_lgm_1_1_examples():
    assert expand_lgm_1_1(2, 1, 1, 1) == shuffle_recursive(Word("xxy"), Word("xy"))
    assert expand_lgm_1_1(1, 2, 1, 2) == expand_res_1_1(1, 2, 1, 2)


def test_lgm_1_1_positivity():
    with pytest.raises(PositivityRequiredError):
        expand_lgm_1_1(0, 1, 1, 1)
    with pytest.raises(PositivityRequiredError):
        expand_lgm_1_1(1, 1, 0, 1)


def test_lgm_1_1_three_way_agreement():
    for a in range(1, 4):
        for r in range(1, 4):
            for b in range(1, 4):
                for s in range(1, 4):
                    if a + r + b + s <= 9:
                        oracle = shuffle_recursive(
                            Word("x" * a + "y" * r), Word("x" * b + "y" * s)
                        )
                        assert expand_lgm_1_1(a, r, b, s) == oracle
                        assert expand_res_1_1(a, r, b, s) == oracle


def test_lgm_1_2_examples():
    assert expand_lgm_1_2(1, 1, 1, 1, 1, 1) == expand_res_1_2(1, 1, 1, 1, 1, 1)
    assert expand_lgm_1_2(1, 1, 1, 1, 1, 2) == shuffle_recursive(
        Word("xy"), Word("xyxyy")
    )


def test_lgm_1_2_positivity():
    with pytest.raises(PositivityRequiredError):
        expand_lgm_1_2(1, 1, 0, 1, 1, 1)


def test_lgm_1_2_three_way_grid():
    for point in [
        (1, 1, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
        (1, 2, 1, 1, 1, 2),
        (1, 1, 2, 1, 1, 1),
        (1, 1, 1, 2, 1, 1),
        (1, 1, 1, 1, 2, 2),
        (1, 3, 1, 1, 1, 1),
    ]:
        a, r, b1, s1, b2, s2 = point
        oracle = shuffle_recursive(
            Word("x" * a + "y" * r), Word("x" * b1 + "y" * s1 + "x" * b2 + "y" * s2)
        )
        assert expand_lgm_1_2(*point) == oracle
        assert expand_res_1_2(*point) == oracle


def test_lgm_1_2_per_sum_accessor():
    # frozen from this transcription and cross-checked by the total: the four
    # sums follow a different case split than expand_res_1_2, so only their
    # sum is oracle-comparable
    point = (1, 1, 1, 1, 1, 1)
    sum1 = lgm_1_2_sum(1, *point)
    assert sum1 == LinComb(
        {Word("xyxyxy"): 1, Word("xxyyxy"): 4, Word("xxyxyy"): 4}
    )
    total = LinComb.zero()
    for index in (1, 2, 3, 4):
        total = total + lgm_1_2_sum(index, *point)
    assert total == expand_res_1_2(*point)
    with pytest.raises(ValueError):
        lgm_1_2_sum(5, *point)


def test_check_equivalence_pair_a(monkeypatch):
    # the grid at 12 contains the whole [1,3]^4 box
    monkeypatch.setenv(verify.ENV_WEIGHT_CAP, "12")
    report = verify.run_suite("appendixA", 12)
    assert report.suite == "appendixA"
    assert report.checked == 495  # binom(12, 4) positive 4-tuples with sum <= 12
    assert report.failures == []
    assert report.ok


def test_check_equivalence_pair_b():
    report = verify.run_suite("appendixB", 8)
    assert report.checked == 28  # binom(8, 6) positive 6-tuples with sum <= 8
    assert report.failures == []


def test_check_equivalence_empty_grid():
    report = verify.run_suite("appendixA", 3)
    assert report.checked == 0
    assert report.failures == []
    assert report.ok


def test_report_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (
            Path(__file__).resolve().parents[1]
            / "docs"
            / "schemas"
            / "verify_report.schema.json"
        ).read_text()
    )
    report = verify.run_suite("appendixA", 6)
    obj = json.loads(json.dumps(report.to_json_obj()))
    jsonschema.validate(obj, schema)
    assert set(obj) == {"suite", "grid", "checked", "failures", "elapsed_ms"}
