"""Words over the alphabet {x, y}, their exponent encodings, and zeta indices.

The empty word is the multiplicative unit.  A nonempty word ending in y has
an exponent form (a_1, ..., a_r) encoding x^{a_1} y x^{a_2} y ... x^{a_r} y,
and an admissible word (empty, or starting with x and ending with y) maps to
the zeta index (a_1 + 1, ..., a_r + 1), whose first entry is >= 2.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator

DEFAULT_EXPONENT_CAP = 10**6

# Canonical term order sorts y before x, which matches lexicographic order on
# exponent forms and zeta indices (so xyxy sorts before x^2y^2).
_ORDER_TR = str.maketrans("xy", "ba")
_RUNS = re.compile(r"(xx+|yy+)")
# _run_lengths prints this many words per join and split.  On the 96,927
# words of 24 letters of one product, tracemalloc's peak was 62 MB in one
# piece and 12 MB in chunks of 4,096 words (8 MB of it the printed words).
_RUN_CHUNK = 4096


class WordSyntaxError(ValueError):
    """The input text is not a valid word expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExponentOverflowError(ValueError):
    """An exponent in the input exceeds the configured cap."""

    def __init__(self, exponent: int, cap: int, offset: int):
        super().__init__(f"exponent {exponent} exceeds cap {cap} at offset {offset}")
        self.exponent = exponent
        self.cap = cap
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


def _run_lengths(texts: list[str], latex: bool = False) -> list[str]:
    """Each word in run-length form: 'xxxyxyy' -> 'x^3yxy^2', or 'x^{3}yxy^{2}'
    in latex; '1' for the empty word.

    A chunk of words is joined by newlines and split once around its runs of
    two or more letters; each distinct run is formatted once.
    """
    power = "{}^{{{}}}" if latex else "{}^{}"
    out: list[str] = []
    for start in range(0, len(texts), _RUN_CHUNK):
        parts = _RUNS.split("\n".join(texts[start:start + _RUN_CHUNK]))
        runs = parts[1::2]
        table = {run: power.format(run[0], len(run)) for run in set(runs)}
        parts[1::2] = map(table.__getitem__, runs)
        out += "".join(parts).split("\n")
    return [text or "1" for text in out]


def _admissible(text: str) -> bool:
    return not text or (text[0] == "x" and text[-1] == "y")


def _exponent_text(exps: Iterable[int]) -> str:
    """(a_1, ..., a_r) -> the letters of x^{a_1} y ... x^{a_r} y."""
    return "".join("x" * a + "y" for a in exps)


def _zeta_index(text: str) -> tuple[int, ...]:
    if not text or not _admissible(text):
        raise NotAdmissibleError(f"{text!r} does not define a zeta index")
    return tuple(len(run) + 1 for run in text.split("y")[:-1])


class Letter(enum.Enum):
    X = "x"
    Y = "y"

    def __repr__(self) -> str:
        return f"Letter.{self.name}"


class Word:
    """An immutable word over {x, y}.

    Words compare equal by their letters and order canonically: first by
    length, then lexicographically with y before x.
    """

    __slots__ = ("_text",)

    def __init__(self, letters: str | Iterable[Letter] = ""):
        if not isinstance(letters, str):
            letters = "".join(letter.value for letter in letters)
        self._text = _checked(letters)

    @property
    def text(self) -> str:
        """The flat letter string, e.g. 'xxyy'."""
        return self._text

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(Letter(ch) for ch in self._text)

    @property
    def is_empty(self) -> bool:
        return not self._text

    @property
    def y_count(self) -> int:
        return self._text.count("y")

    @property
    def weight(self) -> int:
        return len(self._text)

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

    def __iter__(self) -> Iterator[Letter]:
        return (Letter(ch) for ch in self._text)

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


def parse_word(text: str, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> Word:
    """Parse a word expression such as 'x^2 y x y' or 'xxyy'.

    Grammar: a sequence of terms 'x', 'y' (each with an optional '^<uint>')
    and '1' (the empty word); whitespace is ignored.
    """
    parts: list[str] = []
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
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            exp = int(text[i:j])
            if exp > exponent_cap:
                raise ExponentOverflowError(exp, exponent_cap, i)
            i = j
        if exp:
            parts.append(ch * exp)
    return Word("".join(parts))


def print_word(word: Word) -> str:
    """Canonical textual form; inverse of parse_word."""
    return str(word)


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
    if any(a < 0 for a in exps):
        raise ValueError(f"exponents must be nonnegative, got {exps}")
    return Word(_exponent_text(exps))


def word_to_mzv(word: Word) -> tuple[int, ...]:
    """Zeta index (k_1, ..., k_n) of a nonempty admissible word."""
    return _zeta_index(word.text)


def mzv_to_word(ks: Iterable[int]) -> Word:
    """Admissible word for a zeta index; inverse of word_to_mzv."""
    ks = tuple(ks)
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
    return ks
