import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from mzvshuffle.closed_form import expand_general
from mzvshuffle.lincomb import LinComb
from mzvshuffle.shuffle import shuffle_recursive
from mzvshuffle.words import _RUN_CHUNK, Word, _canonical, _order_key, parse_word

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "schemas" / "lincomb.schema.json").read_text()
)

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


def test_render_literals():
    # long runs, the empty word and a coefficient beyond 64 bits, in all
    # three formats; each string is the output of the Word-keyed printer
    p = LinComb({"": 3, "x" * 10 + "y": -1, "yx": 2**70})
    assert p.render() == "3*1 + 1180591620717411303424*yx - x^10y"
    assert p.render("latex") == "3+1180591620717411303424yx-x^{10}y"
    assert p.render("json") == (
        '{"terms": [{"word": "1", "coeff": "3"}, '
        '{"word": "yx", "coeff": "1180591620717411303424"}, '
        '{"word": "x^10y", "coeff": "-1"}]}'
    )
    q = LinComb({"": -3, "x" * 10 + "y": 1})
    assert q.render() == "-3*1 + x^10y"
    assert q.render("latex") == "-3+\\zeta(11)"


# sha256 of each rendering of two oracle products of 12 + 12 letters, taken
# from the per-run printer the bulk printer replaced; any changed byte fails.
# The first pair's words are all admissible, so its latex is in zeta notation.
GOLDEN = {
    ("x^3 y x^2 y^2 x y^3", "x^2 y^3 x^4 y^3"): (12151, {
        "plain": "cf5ffc5a0c48a816852a6e8277f6376ab9902948558fb446bb53b739789d61cc",
        "latex": "0d96996cc4af50fec74f410b166ef2028f0dc1e348a8bffe6ef161e5a5d11412",
        "json": "14cf326c869cf18150bc45ed344fb6880235c6539e46e27625c9e20d564f62c8",
    }),
    ("y^2 x^3 y x^4 y^2", "x^5 y x y^2 x^2 y"): (27689, {
        "plain": "8da7cd303edc8da69132b2b259d48ee64fbccc3a9548a9f919837763c16cb810",
        "latex": "1a9ee7a424645c3920ff93cea83ee3a4b150cd4075e83287fd5eb77836a0718f",
        "json": "4aed3e5dc1c12a73ecc017add276e3ff947fdbe871efbe3f6b391343f9818f81",
    }),
}


@pytest.mark.parametrize("pair", list(GOLDEN))
def test_render_golden_digests(pair):
    p = shuffle_recursive(parse_word(pair[0]), parse_word(pair[1]))
    terms, digests = GOLDEN[pair]
    assert len(p) == terms
    assert p.render("latex").startswith("\\zeta(") == p.all_admissible()
    for fmt, digest in digests.items():
        assert hashlib.sha256(p.render(fmt).encode()).hexdigest() == digest, fmt
    assert LinComb.from_json_obj(json.loads(p.render("json"))) == p


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


def test_render_unknown_format():
    with pytest.raises(ValueError):
        LinComb.zero().render("html")


def test_render_json_schema():
    jsonschema = pytest.importorskip("jsonschema")

    p = LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    obj = json.loads(p.render("json"))
    jsonschema.validate(obj, SCHEMA)
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


@given(st.sets(st.text(alphabet="xy", max_size=8)))
def test_canonical_order_matches_order_key(texts):
    assert _canonical(texts) == sorted(texts, key=_order_key)


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


# --- rendering against a per-term reference printer ------------------------


def groups(text, latex):
    """Run-length form of one word, a run at a time."""
    if not text:
        return "" if latex else "1"
    parts = []
    for letter, run in itertools.groupby(text):
        n = len(list(run))
        parts.append(letter if n == 1 else f"{letter}^{{{n}}}" if latex else f"{letter}^{n}")
    return "".join(parts)


def reference_render(p, fmt, zeta=False):
    """One term at a time: the sign ('-' or nothing on the first term, then
    a separator), |coeff| unless it is 1 and the body is nonempty, and the
    body; '0' for the zero combination."""
    latex = fmt == "latex"
    plus, minus, times = ("+", "-", "") if latex else (" + ", " - ", "*")
    out = []
    for i, (word, coeff) in enumerate(sorted(p.items(), key=lambda t: t[0].sort_key())):
        text = word.text
        if zeta and text:
            body = "\\zeta(" + ",".join(str(len(run) + 1) for run in text.split("y")[:-1]) + ")"
        else:
            body = groups(text, latex)
        sign = ("-" if coeff < 0 else "") if i == 0 else (minus if coeff < 0 else plus)
        mag = abs(coeff)
        out.append(sign + (body if mag == 1 and body else f"{mag}{times}{body}"))
    return "".join(out) or "0"


ALL_WORDS = ["".join(w) for n in range(14) for w in itertools.product("xy", repeat=n)]
BIG = 10**30


@st.composite
def render_cases(draw):
    """Combinations of 0 to 2 * _RUN_CHUNK + 1 terms, so that chunk edges are
    crossed, with or without the unit word, and coefficients of +-1, small,
    and around +-10^30."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    size = draw(st.sampled_from([0, 1, 2, 3, 5, 40, _RUN_CHUNK, 2 * _RUN_CHUNK + 1]))
    texts = rng.sample(ALL_WORDS[1:], size)
    if size and draw(st.booleans()):
        texts[0] = ""
    kinds = (
        lambda: rng.choice((1, -1)),
        lambda: rng.choice((-1, 1)) * rng.randint(2, 50),
        lambda: rng.choice((-1, 1)) * rng.randint(BIG - 3, BIG + 3),
    )
    mix = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    return LinComb({text: rng.choice(mix)() for text in texts})


def admissible_part(p):
    return LinComb({w: c for w, c in p.items() if w.is_admissible})


# An example is a seed; shrinking it would only draw other combinations, each
# of up to 8,193 terms, so a failure is reported as found.
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(render_cases())
def test_render_matches_reference(p):
    assert p.render() == reference_render(p, "plain")
    assert p.render("latex") == reference_render(p, "latex", zeta=p.all_admissible())
    q = admissible_part(p)
    assert q.render("latex") == reference_render(q, "latex", zeta=True)
    assert p.render("json") == json.dumps(p.to_json_obj())
    assert LinComb.from_json_obj(json.loads(p.render("json"))) == p


# --- reading JSON: what the schema accepts and nothing else ----------------

SCHEMA_TERM = SCHEMA["properties"]["terms"]["items"]["properties"]
WORD_PATTERN = SCHEMA_TERM["word"]["pattern"]
COEFF_PATTERN = SCHEMA_TERM["coeff"]["pattern"]


@pytest.mark.parametrize("terms", [
    [{"word": "xy", "coeff": "1_000"}],
    [{"word": "xy", "coeff": " +7 "}],
    [{"word": "xy", "coeff": "٣"}],
    [{"word": "x x^0 y 1", "coeff": "1"}],
    [{"word": "xy", "coeff": "2"}, {"word": "x y", "coeff": "-2"}],
    [{"word": "xy\nxy", "coeff": "2"}],
    [{"word": "xy", "coeff": "2\n3"}],
    [{"word": "1x^0", "coeff": "2"}],
    [{"word": "", "coeff": "2"}],
    [{"word": "x^1000001y", "coeff": "2"}],
    [{"word": "x^" + "9" * 5000, "coeff": "2"}],
    [{"word": "xy", "coeff": "9" * 5000}],
    [{"word": "xy", "coeff": "2", "note": ""}],
    [{"word": "xy"}],
    [["xy", "2"]],
    ["xy"],
    [{"word": 1, "coeff": "2"}],
])
def test_from_json_rejects_and_names_the_term(terms):
    with pytest.raises(ValueError, match=f"term {len(terms) - 1}"):
        LinComb.from_json_obj({"terms": terms})


@pytest.mark.parametrize("obj", [{"terms": {}}, {"terms": [], "extra": 1}, [], {}])
def test_from_json_rejects_bad_containers(obj):
    with pytest.raises(ValueError, match="'terms'"):
        LinComb.from_json_obj(obj)


def test_from_json_reads_what_the_schema_allows():
    obj = {"terms": [
        {"word": "x^002y^1", "coeff": "5"}, {"word": "1", "coeff": "-3"},
        {"word": "x^0y", "coeff": "0"}, {"word": "x^1000000", "coeff": str(-BIG)},
    ]}
    assert LinComb.from_json_obj(obj) == LinComb({"xxy": 5, "": -3, "x" * 10**6: -BIG})
    assert LinComb.from_json_obj({"terms": []}) == LinComb.zero()
    # a word given twice sums, as in the constructor
    twice = {"terms": [{"word": "xy", "coeff": "2"}, {"word": "x^1y", "coeff": "-2"},
                       {"word": "1", "coeff": "2"}, {"word": "x^0", "coeff": "5"}]}
    assert LinComb.from_json_obj(twice) == LinComb({"": 7})
    p = expand_general((4000,), (1,))
    assert LinComb.from_json_obj(json.loads(p.render("json"))) == p


def expected_read(terms):
    """What from_json_obj must return for `terms`, by the schema's patterns
    and parse_word, one term at a time; None where it must raise."""
    pairs = []
    for term in terms:
        if not (re.fullmatch(WORD_PATTERN, term["word"]) and re.fullmatch(COEFF_PATTERN, term["coeff"])):
            return None
        pairs.append((parse_word(term["word"]), int(term["coeff"])))
    return LinComb(pairs)


@given(st.lists(
    st.fixed_dictionaries({
        "word": st.text(alphabet="xy^0123 \n", max_size=6) | st.sampled_from(["1", "xy", "x^2y"]),
        "coeff": st.text(alphabet="-0123 _\n+", max_size=4) | st.sampled_from(["1", "-7"]),
    }),
    max_size=4,
))
def test_from_json_accepts_what_the_schema_accepts(terms):
    expected = expected_read(terms)
    if expected is None:
        with pytest.raises(ValueError):
            LinComb.from_json_obj({"terms": terms})
    else:
        assert LinComb.from_json_obj({"terms": terms}) == expected
