import itertools
import re

import pytest
from hypothesis import given, strategies as st

from mzvshuffle import words
from mzvshuffle.numeric import mzv_eval
from mzvshuffle.words import (
    EMPTY_WORD,
    ExponentOverflowError,
    NotAdmissibleError,
    NotInH1Error,
    Word,
    WordSyntaxError,
    from_exponent_form,
    mzv_to_word,
    parse_mzv_index,
    parse_word,
    to_exponent_form,
    word_to_mzv,
)


def all_words(max_len):
    for length in range(max_len + 1):
        for bits in itertools.product("xy", repeat=length):
            yield Word("".join(bits))


def test_parse_plain_letters():
    assert parse_word("xxyy") == Word("xxyy")
    assert parse_word("xxyy").text == "xxyy"


def test_parse_exponents_and_whitespace():
    assert parse_word("x^2 y x y") == Word("xxyxy")
    assert parse_word("x^0y") == Word("y")


def test_parse_empty_and_unit():
    assert parse_word("") == EMPTY_WORD
    assert parse_word("1") == EMPTY_WORD
    assert str(EMPTY_WORD) == "1"


def test_parse_syntax_error_offset():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("xy z")
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x^")
    assert err.value.offset == 2


def test_parse_exponent_cap():
    with pytest.raises(ExponentOverflowError):
        parse_word("x^1000001")
    assert len(parse_word("x^1000000")) == 10**6
    # leading zeros do not count against the cap
    assert parse_word("x^" + "0" * 5000 + "2 y") == Word("xxy")
    # more than the 4,300 digits int() takes: refused by the digit count
    with pytest.raises(ExponentOverflowError, match="of 5000 digits exceeds cap 1000000") as err:
        parse_word("x^" + "9" * 5000 + " y")
    assert err.value.offset == 2
    # a superscript passes str.isdigit but not int()
    with pytest.raises(WordSyntaxError):
        parse_word("x^\u00b2 y")


def test_admissibility():
    assert Word("xy").is_admissible
    assert not Word("yx").is_admissible
    assert EMPTY_WORD.is_admissible
    assert not Word("xyx").is_admissible


def test_exponent_form_examples():
    assert to_exponent_form(Word("xxyy")) == (2, 0)
    assert to_exponent_form(Word("xyxy")) == (1, 1)
    assert to_exponent_form(Word("xxy")) == (2,)
    with pytest.raises(NotInH1Error):
        to_exponent_form(Word("yx"))
    with pytest.raises(NotInH1Error):
        to_exponent_form(EMPTY_WORD)


def test_word_to_mzv_examples():
    assert word_to_mzv(Word("xxyy")) == (3, 1)
    assert word_to_mzv(Word("xyxy")) == (2, 2)
    assert word_to_mzv(Word("xyy")) == (2, 1)
    with pytest.raises(NotAdmissibleError):
        word_to_mzv(Word("yx"))
    with pytest.raises(NotAdmissibleError):
        word_to_mzv(EMPTY_WORD)


def test_mzv_to_word_roundtrip():
    assert mzv_to_word((3, 1)) == Word("xxyy")
    with pytest.raises(NotAdmissibleError):
        mzv_to_word((1, 2))


@pytest.mark.parametrize("convert", [mzv_eval, mzv_to_word, from_exponent_form])
@pytest.mark.parametrize("index", [(2.5,), ("3", "1")])
def test_index_entries_must_be_ints(convert, index):
    # a float or a string is refused, not truncated or parsed: mzv_eval once
    # returned zeta(2) for (2.5,) and zeta(3, 1) for ("3", "1")
    with pytest.raises(TypeError, match=re.escape(repr(index))):
        convert(index)


def test_parse_mzv_index():
    assert parse_mzv_index("3,1") == (3, 1)
    assert parse_mzv_index(" 2 , 2 ") == (2, 2)
    for bad in ("", "3,", "a", "0,2", "-1"):
        with pytest.raises(ValueError):
            parse_mzv_index(bad)
    # at most MAX_WORD_LETTERS letters, the index's weight; parse_word's
    # limit is tested through the CLI in a memory-capped process
    # (test_cli_inputs), since a parser without it would build the word
    assert parse_mzv_index(f"{words.MAX_WORD_LETTERS}") == (words.MAX_WORD_LETTERS,)
    for big in ("10000000000", ",".join(["1000000"] * 10_000)):
        with pytest.raises(ValueError, match=f"limit of {words.MAX_WORD_LETTERS} letters"):
            parse_mzv_index(big)


def test_exponent_form_roundtrip_exhaustive():
    # both directions, exhaustively up to length 12
    for w in all_words(12):
        if w.ends_with_y:
            exps = to_exponent_form(w)
            assert from_exponent_form(exps) == w
    from mzvshuffle.verify import h1_exponent_forms

    for exps in h1_exponent_forms(12):
        assert to_exponent_form(from_exponent_form(exps)) == exps


def test_print_parse_roundtrip_exhaustive():
    for w in all_words(12):
        assert parse_word(str(w)) == w


def test_mzv_weight_and_depth():
    for w in all_words(12):
        if not w.is_empty and w.is_admissible:
            ks = word_to_mzv(w)
            assert sum(ks) == len(w)
            assert len(ks) == w.y_count


def test_canonical_order():
    # y sorts before x; shorter words first
    assert Word("xyxy") < Word("xxyy")
    assert Word("y") < Word("x")
    assert Word("xy") < Word("xyy")
    assert sorted([Word("xxyy"), Word("xyxy")]) == [Word("xyxy"), Word("xxyy")]


def test_str_collapses_runs():
    assert str(Word("xxyy")) == "x^2y^2"
    assert str(Word("xyxy")) == "xyxy"
    assert str(Word("xxxyx")) == "x^3yx"


def run_length_by_groups(text, latex=False):
    """Reference printer: one word, one run of equal letters at a time."""
    if not text:
        return "1"
    parts = []
    for letter, run in itertools.groupby(text):
        n = len(list(run))
        parts.append(letter if n == 1 else f"{letter}^{{{n}}}" if latex else f"{letter}^{n}")
    return "".join(parts)


def run_lengths(texts, latex):
    """_run_lengths, or in latex _run_length_text over the texts joined by
    newlines, as the latex render passes its chunks."""
    if not latex:
        return words._run_lengths(texts)
    joined = words._run_length_text("\n".join(texts), latex=True)
    return [text or "1" for text in joined.split("\n")] if texts else []


@pytest.mark.parametrize("latex", [False, True])
def test_run_lengths_match_reference(latex):
    texts = [w.text for w in all_words(10)]
    expected = [run_length_by_groups(t, latex) for t in texts]
    assert run_lengths(texts, latex) == expected
    assert [run_lengths([t], latex)[0] for t in texts] == expected
    assert run_lengths([], latex) == []


@pytest.mark.parametrize("latex", [False, True])
def test_run_lengths_across_chunk_edges(latex):
    # 2 * chunk + 1 words; empty words on both sides of each chunk edge
    chunk = words._RUN_CHUNK
    short = [w.text for w in all_words(10)]
    texts = [short[(7 * i) % len(short)] for i in range(2 * chunk + 1)]
    for edge in (chunk, 2 * chunk):
        texts[edge - 1] = texts[edge] = ""
    assert run_lengths(texts, latex) == [run_length_by_groups(t, latex) for t in texts]


@pytest.mark.parametrize("latex", [False, True])
def test_run_lengths_of_long_runs(latex):
    long = "x" * 4000
    texts = [long + "y", "y" * 4000, long + "yy" + long, "xy" + long, "", long]
    assert run_lengths(texts, latex) == [run_length_by_groups(t, latex) for t in texts]
    assert run_lengths([long + "y"], latex) == ["x^{4000}y" if latex else "x^4000y"]


@given(st.text(alphabet="xy", max_size=30))
def test_parse_print_roundtrip_random(text):
    w = Word(text)
    assert parse_word(str(w)) == w


def test_word_validation():
    with pytest.raises(ValueError):
        Word("xz")
