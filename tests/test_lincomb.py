import json

import pytest
from hypothesis import given, strategies as st

from mzvshuffle.lincomb import LinComb
from mzvshuffle.words import Word

words = st.builds(Word, st.text(alphabet="xy", max_size=5))
combs = st.builds(
    LinComb,
    st.lists(st.tuples(words, st.integers(min_value=-50, max_value=50)), max_size=6),
)


def test_add_examples():
    p = LinComb({Word("xyxy"): 2}) + LinComb({Word("xxyy"): 4})
    assert p == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert p + LinComb.zero() == p
    assert LinComb.term("xy", 3) + LinComb.term("xy", -3) == LinComb.zero()


def test_scale_examples():
    assert 2 * LinComb.term("xy") == LinComb({Word("xy"): 2})
    assert 0 * LinComb.term("xy", 5) == LinComb.zero()
    assert -1 * LinComb.term("xxyy", 4) == LinComb({Word("xxyy"): -4})


def test_coefficient_sum():
    assert LinComb({Word("xyxy"): 2, Word("xxyy"): 4}).coefficient_sum() == 6
    assert LinComb.zero().coefficient_sum() == 0
    assert LinComb({Word("xy"): -1, Word("yy"): 1}).coefficient_sum() == 0


def test_render_plain():
    p = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert p.render() == "2*xyxy + 4*x^2y^2"
    assert LinComb.zero().render() == "0"
    assert LinComb.term("xy").render() == "xy"
    assert (LinComb.term("xy", -3) + LinComb.term("yy")).render() == "y^2 - 3*xy"
    assert (LinComb.term("yy", -1) + LinComb.term("xy", 3)).render() == "-y^2 + 3*xy"


def test_render_latex_zeta_mode():
    p = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert p.render("latex") == "2\\zeta(2,2)+4\\zeta(3,1)"
    # non-admissible words fall back to word notation
    q = LinComb({Word("yx"): 1, Word("xxyy"): 2})
    assert q.render("latex") == "yx+2x^{2}y^{2}"
    assert q.render("latex", zeta=False) == "yx+2x^{2}y^{2}"


def test_render_literals():
    # long runs, the empty word and a coefficient beyond 64 bits, in all
    # three formats; each string is the output of the Word-keyed printer
    p = LinComb({"": 3, "x" * 10 + "y": -1, "yx": 2**70})
    assert p.render() == "3*1 + 1180591620717411303424*yx - x^10y"
    assert p.render("latex", zeta=False) == "3+1180591620717411303424yx-x^{10}y"
    assert p.render("json") == (
        '{"terms": [{"word": "1", "coeff": "3"}, '
        '{"word": "yx", "coeff": "1180591620717411303424"}, '
        '{"word": "x^10y", "coeff": "-1"}]}'
    )
    q = LinComb({"": -3, "x" * 10 + "y": 1})
    assert q.render() == "-3*1 + x^10y"
    assert q.render("latex") == "-3+\\zeta(11)"


def test_string_and_word_keys_agree():
    p = LinComb({"xxy": 2, Word("yx"): -1})
    assert p == LinComb({Word("xxy"): 2, "yx": -1})
    assert p.coefficient("xxy") == p.coefficient(Word("xxy")) == 2
    assert p.items() == [(Word("yx"), -1), (Word("xxy"), 2)]
    assert p.words() == [Word("yx"), Word("xxy")]


def test_string_keys_are_checked():
    with pytest.raises(ValueError, match="word letters must be 'x' or 'y', got 'x\\^2y'"):
        LinComb({"x^2y": 1})
    with pytest.raises(ValueError):
        LinComb.zero().coefficient("xz")


def test_render_latex_explicit_zeta_on_bad_words():
    from mzvshuffle.words import NotAdmissibleError

    q = LinComb({Word("yx"): 1})
    with pytest.raises(NotAdmissibleError):
        q.render("latex", zeta=True)


def test_render_unknown_format():
    with pytest.raises(ValueError):
        LinComb.zero().render("html")


def test_render_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "schemas" / "lincomb.schema.json").read_text()
    )
    p = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    obj = json.loads(p.render("json"))
    jsonschema.validate(obj, schema)
    assert obj == {
        "terms": [
            {"word": "xyxy", "coeff": "2"},
            {"word": "x^2y^2", "coeff": "4"},
        ]
    }
    assert LinComb.from_json_obj(obj) == p


def test_big_coefficients_roundtrip():
    big = 10**30
    p = LinComb({Word("xy"): big})
    assert LinComb.from_json_obj(json.loads(p.render("json"))) == p


def test_canonical_iteration_order():
    p = LinComb({Word("xxyy"): 4, Word("xyxy"): 2, Word("yy"): 1})
    assert [str(w) for w, _ in p.items()] == ["y^2", "xyxy", "x^2y^2"]


def test_render_plain_injective_on_small_set():
    import itertools

    seen = {}
    for n1 in range(-2, 3):
        for n2 in range(-2, 3):
            p = LinComb({Word("xy"): n1, Word("yx"): n2})
            r = p.render()
            assert r not in seen or seen[r] == p
            seen[r] = p


def test_coefficients_must_be_int():
    with pytest.raises(TypeError):
        LinComb({Word("xy"): 1.5})


@given(combs, combs)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(combs, combs, combs)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(st.integers(min_value=-20, max_value=20), combs, combs)
def test_scale_distributes(c, p, q):
    assert c * (p + q) == c * p + c * q


@given(combs)
def test_neg_cancels(p):
    assert p + (-p) == LinComb.zero()
