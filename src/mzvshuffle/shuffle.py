"""Ground-truth shuffle products.

Two structurally independent implementations: a memoized recursion on the
defining rules, and a direct enumeration of order-preserving interleavings.
They share no code, so agreement between them catches transcription bugs in
either one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .lincomb import LinComb
from .words import Word


def _shuffle_raw(su: str, sv: str) -> dict[str, int]:
    """Shuffle of two letter strings as a dict word-string -> coefficient.

    Memoized on suffix index pairs; the memo is private to this call.
    """
    nu, nv = len(su), len(sv)
    memo: dict[tuple[int, int], dict[str, int]] = {}

    def rec(i: int, j: int) -> dict[str, int]:
        if i == nu:
            return {sv[j:]: 1}
        if j == nv:
            return {su[i:]: 1}
        key = (i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: dict[str, int] = {}
        ci, cj = su[i], sv[j]
        for word, coeff in rec(i + 1, j).items():
            merged = ci + word
            out[merged] = out.get(merged, 0) + coeff
        for word, coeff in rec(i, j + 1).items():
            merged = cj + word
            out[merged] = out.get(merged, 0) + coeff
        memo[key] = out
        return out

    return rec(0, 0)


def shuffle_recursive(u: Word, v: Word) -> LinComb:
    """Shuffle product via the recursive rules aw1 . bw2 = a(w1.bw2) + b(aw1.w2)."""
    return LinComb._adopt(_shuffle_raw(u.text, v.text))


def shuffle_permutation(u: Word, v: Word) -> LinComb:
    """Shuffle product by enumerating all order-preserving interleavings.

    Deliberately unmemoized and independent of shuffle_recursive.
    """
    su, sv = u.text, v.text
    n, m = len(su), len(sv)
    total = n + m
    counts: dict[str, int] = {}
    for positions in itertools.combinations(range(total), n):
        chars: list[str] = [""] * total
        for idx, pos in enumerate(positions):
            chars[pos] = su[idx]
        fill = iter(sv)
        for pos in range(total):
            if not chars[pos]:
                chars[pos] = next(fill)
        word = "".join(chars)
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
