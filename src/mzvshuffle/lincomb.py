"""Finite integer linear combinations of words, with canonical rendering."""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .words import Word, _admissible, _checked, _exponent_text, _order_key, _run_lengths
from .words import _zeta_index, parse_word


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
        return sorted(self._terms, key=_order_key)

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

    def render(self, fmt: str = "plain", *, zeta: bool | None = None) -> str:
        """Deterministic rendering in 'plain', 'latex' or 'json' form.

        In latex form, zeta notation is used when every word is admissible
        (override with the explicit flag).
        """
        if fmt == "plain":
            return self._render_plain()
        if fmt == "latex":
            if zeta is None:
                zeta = self.all_admissible()
            return self._render_latex(zeta)
        if fmt == "json":
            return json.dumps(self.to_json_obj())
        raise ValueError(f"unknown format {fmt!r}")

    def _render_plain(self) -> str:
        texts = self._sorted()
        coeffs = map(self._terms.__getitem__, texts)
        return _signed(_run_lengths(texts), coeffs, " + ", " - ", "*")

    def _render_latex(self, zeta: bool) -> str:
        texts = self._sorted()
        # the empty word sorts first; its body is empty, so it prints as its
        # coefficient alone
        unit = texts[:1] == [""]
        if zeta:
            bodies = [
                "\\zeta(" + ",".join(map(str, _zeta_index(text))) + ")" for text in texts[unit:]
            ]
        else:
            bodies = _run_lengths(texts[unit:], latex=True)
        coeffs = map(self._terms.__getitem__, texts)
        return _signed([""] * unit + bodies, coeffs, "+", "-", "")

    def to_json_obj(self) -> dict:
        """Coefficients as decimal strings: they can exceed 64 bits."""
        texts = self._sorted()
        coeffs = map(self._terms.__getitem__, texts)
        return {
            "terms": [{"word": w, "coeff": str(c)} for w, c in zip(_run_lengths(texts), coeffs)]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LinComb":
        return cls([(parse_word(t["word"]), int(t["coeff"])) for t in obj["terms"]])


def _signed(bodies: list[str], coeffs: Iterable[int], plus: str, minus: str, times: str) -> str:
    """The terms in order, each after its sign: '-' or nothing on the first,
    `plus` or `minus` on the others.  A term is its body when its coefficient
    is ±1, and otherwise |coeff|, `times` and the body; an empty body prints
    as |coeff| alone."""
    parts, signs = [], ("", "-")
    for body, coeff in zip(bodies, coeffs):
        mag = abs(coeff)
        parts.append(signs[coeff < 0] + (body if mag == 1 and body else f"{mag}{times}{body}"))
        signs = (plus, minus)
    return "".join(parts) or "0"
