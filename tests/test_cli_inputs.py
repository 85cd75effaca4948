"""Bounded random inputs to the CLI: every call ends in an exit code from 0
to 3, never in an exception."""

import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mzvshuffle.cli import main
from mzvshuffle.words import parse_word

MAX_LETTERS = 12  # parsed letters per word
# shuffle_permutation enumerates C(n+m, n) interleavings and expand_general
# builds about as many block layouts, so their pairs get fewer letters
SMALL_PAIR = 12

letter = st.sampled_from("xy") | st.builds("{}^{}".format, st.sampled_from("xy"), st.integers(0, 4))
piece = letter | st.sampled_from(["1", " "])
junk = st.sampled_from("^z*#")


def parsed_letters(text: str) -> int:
    try:
        return len(parse_word(text))
    except ValueError:
        return 0


@st.composite
def word_texts(draw):
    """A word expression of at most MAX_LETTERS parsed letters, with one
    junk character in about half of them."""
    text = "".join(draw(st.lists(piece, max_size=8)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(junk) + text[at:]
    assume(parsed_letters(text) <= MAX_LETTERS)
    return text


def exit_code(argv: list[str]) -> int:
    """main(argv) with its output discarded; argparse's exit counts as a code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, deadline=None)
@given(
    word_texts(),
    word_texts(),
    st.sampled_from(["recursive", "permutation", "general", "auto"]),
    st.sampled_from(["plain", "latex", "json"]),
    st.just(False),
)
# Pairs past a method's work limit, refused before any work (see test_cli):
# more than cli.ORACLE_MAX_LETTERS letters for the shuffle oracle,
@example("x^4000 y", "x", "auto", "plain", True)
@example("y^4000", "y", "recursive", "json", True)
@example("x^4000", "y", "recursive", "latex", True)
@example("x^400 y", "x^400 y", "recursive", "plain", True)
# more than cli.ORACLE_MAX_PRINTED letters by the oracle's output bound,
@example("x^70 y x^3 y", "x y^80 x y", "recursive", "plain", True)
# more than cli.PERMUTATION_MAX_INTERLEAVINGS interleavings,
@example("x^40 y", "x^40 y", "permutation", "plain", True)
# more than cli.GENERAL_MAX_LAYOUTS y-block layouts for the closed form,
@example("y^300", "y^300", "general", "json", True)
@example("y^300", "y^300", "auto", "plain", True)
# and more than cli.GENERAL_MAX_LETTERS letters by its output bound
@example("x^1000000 y", "x^1000000 y", "general", "latex", True)
@example("x^1000000 y", "x^1000000 y", "auto", "plain", True)
def test_shuffle_exits_with_a_code(u, v, method, fmt, refused):
    if method in ("permutation", "general") and not refused:
        assume(parsed_letters(u) + parsed_letters(v) <= SMALL_PAIR)
    code = exit_code(["shuffle", u, v, "--method", method, "--format", fmt])
    assert code == 3 if refused else code in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(word_texts(), word_texts(), st.integers(1, 64), st.just(False))
@example("x^4000 y", "xy", 64, True)
@example("x^70 y x^3 y", "x y^80 x y", 64, True)
def test_identity_exits_with_a_code(u, v, terms, refused):
    code = exit_code(["identity", u, v, "--terms", str(terms)])
    assert code == 3 if refused else code in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4), st.none() | junk, st.integers(1, 64))
def test_zeta_exits_with_a_code(index, bad, terms):
    text = ",".join(map(str, index)) + (bad or "")
    assert exit_code(["zeta", text, "--terms", str(terms)]) in (0, 1, 2, 3)


NINES = "9" * 5000  # more digits than int() takes
# each needs at least 10^10 letters, so a missing check fails at once
LONG_WORD = "x^1000000" * 10_000
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_limited(argv, limit):
    """`python -m mzvshuffle *argv` under an address-space limit of `limit` bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "mzvshuffle", *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shuffle", f"x^{NINES} y", "xy"], "exponent of 5000 digits exceeds cap 1000000"),
        (["identity", f"x^{NINES} y", "xy"], "exponent of 5000 digits exceeds cap 1000000"),
        (["shuffle", "x^² y", "xy"], "expected digits after '^'"),
        (["shuffle", LONG_WORD, "xy"], "exceeds the limit of 10000000 letters"),
        (["identity", LONG_WORD + " y", "xy"], "exceeds the limit of 10000000 letters"),
        (["zeta", "10000000000"], "exceeds the limit of 10000000 letters"),
    ],
    ids=["shuffle-digits", "identity-digits", "superscript", "shuffle-letters",
         "identity-letters", "zeta-letters"],
)
def test_parse_refusals_exit_2(argv, message):
    # a parser that builds the word anyway fails at 1 GiB, not at 10 GB
    done = _run_limited(argv, 2**30)
    assert (done.returncode, done.stdout) == (2, "")
    assert message in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["shuffle", "x^12", "y^13", "--method", "recursive"],
        ["identity", "x y^12", "x^12 y"],
    ],
    ids=["shuffle", "identity"],
)
def test_out_of_memory_exits_3(argv):
    # each product passes the oracle's output budget but needs several
    # hundred MiB, so it runs out of memory about a second into the run
    done = _run_limited(argv, 128 * 2**20)
    assert (done.returncode, done.stdout) == (3, "")
    assert "ran out of memory (address-space limit: 128 MiB)" in done.stderr
