"""Ground-truth shuffle products.

Two structurally independent implementations: the defining rules
aw1 . bw2 = a(w1 . bw2) + b(aw1 . w2), applied bottom-up over suffix pairs,
and a direct enumeration of order-preserving interleavings.  They share no
code, so agreement between them catches transcription bugs in either one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .lincomb import LinComb
from .words import Word


def _shuffle_raw(su: str, sv: str) -> dict[str, int]:
    """Shuffle of two letter strings as a dict word-string -> coefficient.

    Walks the suffixes su[i:] from the empty one up and keeps one row:
    row[j] is su[i:] . sv[j:], built from row[j] of the step before (the
    rule's first summand) and row[j + 1] of this step (its second).  No
    call nests, and memory holds len(sv) + 1 products, not all of them.
    """
    nv = len(sv)
    row = [{sv[j:]: 1} for j in range(nv + 1)]
    for i in range(len(su) - 1, -1, -1):
        ci = su[i]
        row[nv] = {su[i:]: 1}
        for j in range(nv - 1, -1, -1):
            # the first summand's words are distinct, so no sum is needed yet
            out = {ci + word: coeff for word, coeff in row[j].items()}
            for word, coeff in row[j + 1].items():
                merged = sv[j] + word
                out[merged] = out.get(merged, 0) + coeff
            row[j] = out
    return row[0]


def shuffle_recursive(u: Word, v: Word) -> LinComb:
    """Shuffle product by the defining rules aw1 . bw2 = a(w1.bw2) + b(aw1.w2).

    Named for those recursive rules, not its control flow: `_shuffle_raw`
    applies them bottom-up, so no recursion limit bounds the words.
    """
    return LinComb._adopt(_shuffle_raw(u.text, v.text))


def _interleavings(su: str, sv: str):
    """Each order-preserving interleaving of su and sv once: its letters,
    and the positions of su's letters in it."""
    n, m = len(su), len(sv)
    total = n + m
    for positions in itertools.combinations(range(total), n):
        chars: list[str] = [""] * total
        for idx, pos in enumerate(positions):
            chars[pos] = su[idx]
        fill = iter(sv)
        for pos in range(total):
            if not chars[pos]:
                chars[pos] = next(fill)
        yield "".join(chars), positions


def shuffle_permutation(u: Word, v: Word) -> LinComb:
    """Shuffle product by enumerating all order-preserving interleavings.

    Deliberately unmemoized and independent of shuffle_recursive.
    """
    counts: dict[str, int] = {}
    for word, _ in _interleavings(u.text, v.text):
        counts[word] = counts.get(word, 0) + 1
    return LinComb(counts)


def _fold(texts: Sequence[str], shuffle=_shuffle_raw) -> dict[str, int]:
    """Left fold of `shuffle`, the oracle unless given, over a nonempty
    sequence of letter strings."""
    acc: dict[str, int] = {texts[0]: 1}
    for text in texts[1:]:
        nxt: dict[str, int] = {}
        for partial, coeff in acc.items():
            for word, mult in shuffle(partial, text).items():
                nxt[word] = nxt.get(word, 0) + coeff * mult
        acc = nxt
    return acc


def shuffle_nfold(words: Iterable[Word]) -> LinComb:
    """Left fold of shuffle_recursive over a nonempty list of words."""
    texts = [w.text for w in words]
    if not texts:
        raise ValueError("shuffle_nfold needs at least one word")
    return LinComb._adopt(_fold(texts))
