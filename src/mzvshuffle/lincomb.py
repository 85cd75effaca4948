"""Finite integer linear combinations of words, with canonical rendering."""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Mapping

from .words import _RUN_CHUNK, Word, _admissible, _canonical, _checked
from .words import _exponent_text, _run_length_text, _run_lengths, _zeta_index, parse_word

# docs/schemas/lincomb.schema.json's patterns for a term's word and coefficient
_JSON_WORD = re.compile(r"1|(?:[xy](?:\^[0-9]+)?)+")
_JSON_COEFF = re.compile(r"-?[0-9]+")
_JSON_OPEN = '{"word": "'


class LinComb:
    """A finite map word -> integer coefficient; zero coefficients are dropped.

    Terms are keyed by letter string.  Instances are immutable value
    objects: arithmetic returns new objects and iteration always follows the
    canonical term order (length, then lex with y before x).
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Word | str, int] | Iterable[tuple[Word | str, int]] | None = None,
    ):
        data: dict[str, int] = {}
        if terms is not None:
            pairs = terms.items() if isinstance(terms, Mapping) else terms
            for word, coeff in pairs:
                text = word.text if isinstance(word, Word) else _checked(word)
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficients must be int, got {type(coeff).__name__}")
                data[text] = data.get(text, 0) + coeff
        self._terms = {text: coeff for text, coeff in data.items() if coeff}

    @classmethod
    def _adopt(cls, terms: dict[str, int]) -> "LinComb":
        """Wrap a dict of letter strings to nonzero coefficients without copying
        or checking it; the caller hands it over."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def from_exponents(cls, terms: Mapping[tuple[int, ...], int]) -> "LinComb":
        """The combination of x^{a_1} y ... x^{a_r} y over exponent tuples a."""
        return cls._adopt({_exponent_text(exps): c for exps, c in terms.items() if c})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def term(cls, word: Word | str, coeff: int = 1) -> "LinComb":
        return cls([(word, coeff)])

    def _sorted(self) -> list[str]:
        """The letter strings in canonical order."""
        return _canonical(self._terms)

    def items(self) -> list[tuple[Word, int]]:
        """Terms in canonical order."""
        return [(Word(text), self._terms[text]) for text in self._sorted()]

    def words(self) -> list[Word]:
        return [w for w, _ in self.items()]

    def coefficient(self, word: Word | str) -> int:
        return self._terms.get(word.text if isinstance(word, Word) else _checked(word), 0)

    def coefficient_sum(self) -> int:
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinComb):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb([*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "LinComb":
        return self * -1

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: int) -> "LinComb":
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return LinComb()
        return LinComb._adopt({w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LinComb({self.render()!r})"

    def all_admissible(self) -> bool:
        return all(map(_admissible, self._terms))

    def render(self, fmt: str = "plain") -> str:
        """Deterministic rendering in 'plain', 'latex' or 'json' form.

        In latex form, zeta notation is used exactly when every word is
        admissible.
        """
        if fmt == "plain":
            return self._render_plain()
        if fmt == "latex":
            return self._render_latex()
        if fmt == "json":
            return self._render_json()
        raise ValueError(f"unknown format {fmt!r}")

    def _marks(self, plus: str, minus: str, times: str) -> dict[int, str]:
        """What each distinct coefficient prints before a term's body."""
        return {c: _sign(c, plus, minus, times) for c in set(self._terms.values())}

    def _printed(
        self, texts: list[str], marks: dict[int, str], first: dict[int, str], printer,
        after: bool = False, body=None,
    ) -> list[str]:
        """Each chunk of `texts` printed in one pass: the texts (or, with
        `body`, body(text) for each) interleaved with their coefficients'
        marks (each mark before its text, or after it with `after`), joined,
        and passed once through `printer`.  In the first chunk, the part at
        each position of `first` is replaced."""
        coeff = self._terms.__getitem__
        out = []
        for start in range(0, len(texts), _RUN_CHUNK):
            chunk = texts[start:start + _RUN_CHUNK]
            parts = chunk * 2
            parts[after::2] = map(marks.__getitem__, map(coeff, chunk))
            parts[1 - after::2] = chunk if body is None else map(body, chunk)
            if not start:
                for i, part in first.items():
                    parts[i] = part
            out.append(printer("".join(parts)))
        return out

    def _render_plain(self) -> str:
        texts = self._sorted()
        if not texts:
            return "0"
        first = {0: _sign(self._terms[texts[0]], "", "-", "*")}
        if not texts[0]:
            first[1] = "1"
        return "".join(self._printed(texts, self._marks(" + ", " - ", "*"), first, _run_length_text))

    def _render_latex(self) -> str:
        texts = self._sorted()
        if not texts:
            return "0"
        # the empty word sorts first and prints as its coefficient alone
        lead = self._terms[texts[0]]
        first = {0: str(lead) if not texts[0] else _sign(lead, "", "-", "")}
        marks = self._marks("+", "-", "")
        if self.all_admissible():
            # zeta notation prints no letters: the bodies need no run lengths
            return "".join(self._printed(texts, marks, first, str, body=_zeta_body))
        printer = partial(_run_length_text, latex=True)
        return "".join(self._printed(texts, marks, first, printer))

    def _render_json(self) -> str:
        """`json.dumps(self.to_json_obj())`, printed in chunks."""
        texts = self._sorted()
        if not texts:
            return '{"terms": []}'
        marks = {c: f'", "coeff": "{c}"}}, {_JSON_OPEN}' for c in set(self._terms.values())}
        out = self._printed(texts, marks, {} if texts[0] else {0: "1"}, _run_length_text, after=True)
        out[-1] = out[-1][:-len(", " + _JSON_OPEN)] + "]}"
        return "".join(['{"terms": [' + _JSON_OPEN, *out])

    def to_json_obj(self) -> dict:
        """Coefficients as decimal strings: they can exceed 64 bits."""
        texts = self._sorted()
        coeffs = map(self._terms.__getitem__, texts)
        return {
            "terms": [{"word": w, "coeff": str(c)} for w, c in zip(_run_lengths(texts), coeffs)]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LinComb":
        """Inverse of `to_json_obj`.

        Accepts exactly what docs/schemas/lincomb.schema.json accepts, with
        every word within parse_word's limits; a word given twice sums, as
        in the constructor.  Otherwise raises ValueError naming the first
        term at fault.
        """
        terms = obj.get("terms") if isinstance(obj, Mapping) and obj.keys() == {"terms"} else None
        if not isinstance(terms, list):
            raise ValueError("a combination is an object whose one key, 'terms', holds a list")
        pairs = []
        for i, term in enumerate(terms):
            word = coeff = None
            if isinstance(term, dict) and term.keys() == {"word", "coeff"}:
                word, coeff = term["word"], term["coeff"]
            if not (
                isinstance(word, str) and _JSON_WORD.fullmatch(word)
                and isinstance(coeff, str) and _JSON_COEFF.fullmatch(coeff)
            ):
                raise ValueError(f"term {i} does not match the lincomb schema: {term!r:.100}")
            try:
                # a word past parse_word's limits, or too many digits for int()
                pairs.append((parse_word(word).text, int(coeff)))
            except ValueError as exc:
                raise ValueError(f"term {i}, {term!r:.100}: {exc}") from None
        return cls(pairs)


def _sign(coeff: int, plus: str, minus: str, times: str) -> str:
    """`plus` or `minus` by the sign of `coeff`, then |coeff| and `times`
    unless the coefficient is ±1."""
    return (minus if coeff < 0 else plus) + ("" if coeff in (1, -1) else f"{abs(coeff)}{times}")


def _zeta_body(text: str) -> str:
    """'xxyxy' -> '\\zeta(3,2)'; the empty word has no body."""
    return "\\zeta(" + ",".join(map(str, _zeta_index(text))) + ")" if text else ""
