"""Ground-truth shuffle products.

Two structurally independent implementations.  The oracle applies the
defining rules aw1 . bw2 = a(w1 . bw2) + b(aw1 . w2) bottom-up over suffix
pairs; on a pair of more than `_SPLIT_LETTERS` letters it runs them twice,
over the suffixes and over the reversed prefixes, up to the middle
anti-diagonal, and joins the two halves (`_join_at`).  The other enumerates
the order-preserving interleavings directly.  They share no code, so
agreement between them catches transcription bugs in either one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .lincomb import LinComb
from .words import Word


# Pairs of more than this many letters are joined at the middle
# anti-diagonal; shorter ones run the recurrence alone.  The join costs
# more below about 11 letters (docs/FORMULA_NOTES.md, "The oracle joined at
# an anti-diagonal", has the measured ratios); 12, the largest length at
# which a measured run showed no gain, keeps a margin for the short pairs
# every sweep makes.
_SPLIT_LETTERS = 12


def _diagonal(su: str, sv: str, h: int) -> list[dict[str, int]]:
    """The products su[h - j:] . sv[j:] on the anti-diagonal i + j = h.

    Walks the suffixes su[i:] from the empty one up and keeps one row:
    row[j] is su[i:] . sv[j:], built from row[j] of the step before (the
    rule's first summand) and row[j + 1] of this step (its second).  Only
    the cells with i + j >= h are built, so a cell on the diagonal is never
    overwritten: the returned row holds su[h - j:] . sv[j:] at every j from
    max(h - len(su), 0) to min(h, len(sv)).  At h = 0 that is row[0],
    the whole product.  No call nests.
    """
    nv = len(sv)
    row = [{sv[j:]: 1} for j in range(nv + 1)]
    # conditionals, not max(): at h = 0 they cost the recurrence nothing
    for i in range(len(su) - 1, h - nv - 1 if h > nv else -1, -1):
        ci = su[i]
        row[nv] = {su[i:]: 1}
        for j in range(nv - 1, h - i - 1 if i < h else -1, -1):
            # the first summand's words are distinct, so no sum is needed yet
            out = {ci + word: coeff for word, coeff in row[j].items()}
            for word, coeff in row[j + 1].items():
                merged = sv[j] + word
                out[merged] = out.get(merged, 0) + coeff
            row[j] = out
    return row


def _join_at(su: str, sv: str, h: int) -> dict[str, int]:
    """su . sv joined at the anti-diagonal i + j = h, for 0 <= h <= n + m.

    Every interleaving, a lattice path from (0, 0) to (n, m), crosses the
    diagonal once, at some (h - j, j), so

        su . sv = sum over j of (su[:h - j] . sv[:j]) (su[h - j:] . sv[j:])

    with the product of the two factors taken as concatenation.  The
    suffix factors are one `_diagonal`; the prefix factors are another on
    the reversed words, since reversing every word maps a shuffle to the
    shuffle of the reversed words.  Each prefix p of h letters takes the
    tail sum over j of A_j[p] (su[h - j:] . sv[j:]), where A_j[p] is its
    coefficient in the j-th prefix factor; prefixes with one coefficient
    vector share one tail.  Words with different prefixes differ, so the
    blocks are written without a sum.
    """
    n, m = len(su), len(sv)
    tails = _diagonal(su, sv, h)
    heads = _diagonal(su[::-1], sv[::-1], n + m - h)
    # each reversed prefix -> its coefficient vector, the pairs (j, A_j)
    vectors: dict[str, list[tuple[int, int]]] = {}
    for j in range(max(h - n, 0), min(h, m) + 1):
        for head, coeff in heads[m - j].items():
            vectors.setdefault(head, []).append((j, coeff))
    prefixes: dict[tuple[tuple[int, int], ...], list[str]] = {}
    for head, vector in vectors.items():
        prefixes.setdefault(tuple(vector), []).append(head[::-1])
    out: dict[str, int] = {}
    for vector, group in prefixes.items():
        if len(vector) == 1 and vector[0][1] == 1:
            tail = tails[vector[0][0]]
        else:
            tail = {}
            for j, coeff in vector:
                for word, mult in tails[j].items():
                    tail[word] = tail.get(word, 0) + coeff * mult
        for prefix in group:
            out.update(zip(map(prefix.__add__, tail), tail.values()))
    return out


def _shuffle_raw(su: str, sv: str) -> dict[str, int]:
    """Shuffle of two letter strings as a dict word-string -> coefficient.

    A pair of at most `_SPLIT_LETTERS` letters runs the recurrence alone,
    `_diagonal` at h = 0.  A longer one is joined at the middle
    anti-diagonal by `_join_at`: each side then builds words of about half
    the length, over about half the suffix pairs.
    """
    letters = len(su) + len(sv)
    if letters <= _SPLIT_LETTERS:
        return _diagonal(su, sv, 0)[0]
    return _join_at(su, sv, letters // 2)


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
