"""Words over the alphabet {x, y}, their exponent encodings, and zeta indices.

The empty word is the multiplicative unit.  A nonempty word ending in y has
an exponent form (a_1, ..., a_r) encoding x^{a_1} y x^{a_2} y ... x^{a_r} y,
and an admissible word (empty, or starting with x and ending with y) maps to
the zeta index (a_1 + 1, ..., a_r + 1), whose first entry is >= 2.
"""

from __future__ import annotations

import re
from typing import Iterable

DEFAULT_EXPONENT_CAP = 10**6
# The most letters a parsed word may have, checked on the exponents before
# any string is built.  `zeta 10000000` (10^7 letters) takes 1.7 s and
# 349 MB; a word past it would take gigabytes.
MAX_WORD_LETTERS = 10**7
_CAP_DIGITS = len(str(DEFAULT_EXPONENT_CAP))

# Canonical term order sorts y before x, which matches lexicographic order on
# exponent forms and zeta indices (so xyxy sorts before x^2y^2).
_ORDER_TR = str.maketrans("xy", "ba")
_RUNS = re.compile(r"(xx+|yy+)")
# The printers join and split this many words at a time.  Rendering the
# 89,564 words of 25 letters of one product, tracemalloc's peak was 70-75 MB
# in one piece, and 7.0 MB plain, 8.6 MB latex and 10.9 MB json in chunks of
# 4,096 words: twice the output (3.0, 3.9 and 5.1 MB), chunks and their join.
_RUN_CHUNK = 4096


class WordSyntaxError(ValueError):
    """The input text is not a valid word expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExponentOverflowError(ValueError):
    """An exponent in the input exceeds DEFAULT_EXPONENT_CAP."""

    def __init__(self, digits: str, offset: int):
        # a long digit string is named by its length: int() and str() refuse
        # numbers of more than 4,300 digits
        shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
        super().__init__(f"exponent {shown} exceeds cap {DEFAULT_EXPONENT_CAP} at offset {offset}")
        self.offset = offset


class NotInH1Error(ValueError):
    """The word is empty or does not end in y, so it has no exponent form."""


class NotAdmissibleError(ValueError):
    """The word or index does not correspond to a convergent zeta value."""


# ---------------------------------------------------------------------------
# letter strings: the one term key of the package.  Word and LinComb wrap
# these; the oracles and the closed forms produce them directly.


def _checked(text: str) -> str:
    """`text`, after checking that its letters are x and y."""
    # strip stops at the first other letter, so only a letter string strips
    # to nothing
    if text.strip("xy"):
        raise ValueError(f"word letters must be 'x' or 'y', got {text!r}")
    return text


def _order_key(text: str) -> tuple[int, str]:
    """Canonical order: by length, then lexicographically with y before x."""
    return (len(text), text.translate(_ORDER_TR))


def _canonical(texts: Iterable[str]) -> list[str]:
    """Distinct letter strings in canonical order, the order of `_order_key`.

    Both sorts run in C: among words of one length, y before x is the
    reverse of code-point order, and the sort by length is stable.
    """
    out = sorted(texts, reverse=True)
    out.sort(key=len)
    return out


def _run_length_text(text: str, latex: bool = False) -> str:
    """`text` with each run of two or more x's or y's in power form: 'xxxyxyy'
    -> 'x^3yxy^2', or 'x^{3}yxy^{2}' in latex.  Other characters are kept,
    so a run ends at any of them.

    The text is split once around its runs; each distinct run is formatted
    once.
    """
    power = "{}^{{{}}}" if latex else "{}^{}"
    parts = _RUNS.split(text)
    runs = parts[1::2]
    table = {run: power.format(run[0], len(run)) for run in set(runs)}
    parts[1::2] = map(table.__getitem__, runs)
    return "".join(parts)


def _run_lengths(texts: list[str]) -> list[str]:
    """Each word in run-length form, '1' for the empty word."""
    out: list[str] = []
    for start in range(0, len(texts), _RUN_CHUNK):
        out += _run_length_text("\n".join(texts[start:start + _RUN_CHUNK])).split("\n")
    return [text or "1" for text in out]


def _admissible(text: str) -> bool:
    return not text or (text[0] == "x" and text[-1] == "y")


class _XYTable(dict):
    """"x" * a + "y" by exponent a.  The exponents below _X_Y_SIZE are
    stored; that covers every exponent of the verify grids and the
    benchmark sweep (their weights stay below 20) with room to spare.  Any
    other exponent is built when asked for, and not stored."""

    def __missing__(self, a: int) -> str:
        return "x" * a + "y"


_X_Y_SIZE = 64
_X_Y = _XYTable((a, "x" * a + "y") for a in range(_X_Y_SIZE))


def _exponent_text(exps: tuple[int, ...]) -> str:
    """(a_1, ..., a_r) -> the letters of x^{a_1} y ... x^{a_r} y."""
    return "".join(map(_X_Y.__getitem__, exps))


def _zeta_index(text: str) -> tuple[int, ...]:
    if not text or not _admissible(text):
        raise NotAdmissibleError(f"{text!r} does not define a zeta index")
    return tuple(len(run) + 1 for run in text.split("y")[:-1])


class Word:
    """An immutable word over {x, y}.

    Words compare equal by their letters and order canonically: first by
    length, then lexicographically with y before x.
    """

    __slots__ = ("_text",)

    def __init__(self, letters: str = ""):
        self._text = _checked(letters)

    @property
    def text(self) -> str:
        """The flat letter string, e.g. 'xxyy'."""
        return self._text

    @property
    def is_empty(self) -> bool:
        return not self._text

    @property
    def y_count(self) -> int:
        return self._text.count("y")

    @property
    def ends_with_y(self) -> bool:
        """True iff the word lies in the span of h^1 \\ {1}."""
        return self._text.endswith("y")

    @property
    def is_admissible(self) -> bool:
        """True iff empty, or starting with x and ending with y."""
        return _admissible(self._text)

    def sort_key(self) -> tuple[int, str]:
        return _order_key(self._text)

    def __len__(self) -> int:
        return len(self._text)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self._text == other._text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Word({self._text!r})"

    def __str__(self) -> str:
        return _run_lengths([self._text])[0]


EMPTY_WORD = Word()


def parse_word(text: str) -> Word:
    """Parse a word expression such as 'x^2 y x y' or 'xxyy'.

    Grammar: a sequence of terms 'x', 'y' (each with an optional '^<uint>')
    and '1' (the empty word); whitespace is ignored.  Each exponent is at
    most DEFAULT_EXPONENT_CAP and the word at most MAX_WORD_LETTERS letters.
    """
    runs: list[tuple[str, int]] = []
    total = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "1":
            i += 1
            continue
        if ch not in ("x", "y"):
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            # isdecimal, not isdigit: int() refuses superscripts such as '²'
            while j < n and text[j].isdecimal():
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            digits = text[i:j].lstrip("0") or "0"
            # the digit count first: int() refuses more than 4,300 digits
            if len(digits) > _CAP_DIGITS or int(digits) > DEFAULT_EXPONENT_CAP:
                raise ExponentOverflowError(digits, i)
            exp = int(digits)
            i = j
        if exp:
            runs.append((ch, exp))
            total += exp
    _check_letters(total)
    return Word("".join(ch * exp for ch, exp in runs))


def _check_letters(total: int) -> None:
    """Refuse a word of `total` letters past MAX_WORD_LETTERS."""
    if total > MAX_WORD_LETTERS:
        raise ValueError(f"a word of {total} letters exceeds the limit of "
                         f"{MAX_WORD_LETTERS} letters")


def to_exponent_form(word: Word) -> tuple[int, ...]:
    """Exponents (a_1, ..., a_r) with word = x^{a_1} y ... x^{a_r} y."""
    if not word.text or not word.text.endswith("y"):
        raise NotInH1Error(
            f"{word!r} has no exponent form (it must be nonempty and end in y)"
        )
    segments = word.text.split("y")
    return tuple(len(seg) for seg in segments[:-1])


def from_exponent_form(exps: Iterable[int]) -> Word:
    """Inverse of to_exponent_form."""
    exps = tuple(exps)
    if not exps:
        raise ValueError("exponent form needs at least one entry")
    if not all(isinstance(a, int) for a in exps):
        raise TypeError(f"exponents must be ints, got {exps}")
    if any(a < 0 for a in exps):
        raise ValueError(f"exponents must be nonnegative, got {exps}")
    return Word(_exponent_text(exps))


def word_to_mzv(word: Word) -> tuple[int, ...]:
    """Zeta index (k_1, ..., k_n) of a nonempty admissible word."""
    return _zeta_index(word.text)


def mzv_to_word(ks: Iterable[int]) -> Word:
    """Admissible word for a zeta index; inverse of word_to_mzv."""
    ks = tuple(ks)
    if not all(isinstance(k, int) for k in ks):
        raise TypeError(f"zeta index entries must be ints, got {ks}")
    if not ks or any(k < 1 for k in ks) or ks[0] < 2:
        raise NotAdmissibleError(
            f"zeta index must have k_1 >= 2 and all entries >= 1, got {ks}"
        )
    return from_exponent_form(tuple(k - 1 for k in ks))


def parse_mzv_index(text: str) -> tuple[int, ...]:
    """Parse 'k1,k2,...' into a tuple of positive integers.

    Admissibility (k_1 >= 2) is a separate, semantic check.
    """
    pieces = [piece.strip() for piece in text.split(",")]
    if not pieces or any(not piece for piece in pieces):
        raise ValueError(f"malformed zeta index {text!r}")
    try:
        ks = tuple(int(piece) for piece in pieces)
    except ValueError:
        raise ValueError(f"malformed zeta index {text!r}") from None
    if any(k < 1 for k in ks):
        raise ValueError(f"zeta index entries must be positive, got {text!r}")
    _check_letters(sum(ks))  # the letters of its word
    return ks
