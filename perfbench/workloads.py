"""Inputs of the three benchmark workloads, made from the seed alone.

Nothing here imports the program: the worker hands the program only the
inputs built by these functions.

- sweep: the exhaustive verification grids.  The grid is fixed by design,
  so the seed does not change it.  `grid_size` re-derives every family's
  points independently of `verify`; the benchmark checks that its point
  counts equal the reports' `checked`, and counts every point of a suite
  that raises as failed.
- products: CLI `shuffle` calls on word pairs in mixed notation.
- identity: CLI `identity` calls on pairs of admissible words.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

# --- sweep -----------------------------------------------------------------

# Bounds on total word length.  Chosen so that no family takes more than half
# of a sweep pass (measured on a 2-core x86 box: general 2.5 s, res22 1.1 s,
# nfold 0.8 s, specializations 0.7 s, the rest 0.6 s together).  All stay
# within verify's default weight cap of 10, so MZV_MAX_WEIGHT is not needed.
SWEEP_BOUNDS = {
    "general": 9,
    "res11": 10,
    "res12": 10,
    "res22": 10,
    "nfold": 9,
    "appendixA": 10,
    "appendixB": 10,
    "specializations": 10,
}
# (r, s) of the five transcribed small cases c12 ... c33
SMALL_CASES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _weak_compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def _weak_compositions_upto(max_total: int, parts: int):
    for total in range(max_total + 1):
        yield from _weak_compositions(total, parts)


def _exponent_forms(max_len: int):
    """Exponent forms of the nonempty words ending in y with <= max_len letters."""
    for length in range(1, max_len + 1):
        for depth in range(1, length + 1):
            yield from _weak_compositions(length - depth, depth)


def _run_tuples(max_total: int, runs: int, min_x: int = 0):
    """Flat tuples (a1, r1, ..., a_runs, r_runs) with a_i >= min_x, r_i >= 1
    and a total of at most max_total."""
    if runs == 0:
        yield ()
        return
    for a in range(min_x, max_total + 1):
        for r in range(1, max_total - a + 1):
            for rest in _run_tuples(max_total - a - r, runs - 1, min_x):
                yield (a, r) + rest


def _grid(family: str, bound: int):
    """Points of one sweep family, each as the arguments of its closed form."""
    if family == "general":
        for ea in _exponent_forms(bound - 1):
            for eb in _exponent_forms(bound - sum(ea) - len(ea)):
                yield ea, eb
    elif family == "res11":
        for p in _run_tuples(bound, 2):
            yield p
    elif family == "res12":
        for p in _run_tuples(bound, 3):
            yield p
    elif family == "res22":
        for p in _run_tuples(bound, 4):
            yield p
    elif family == "nfold":
        for n in (2, 3):
            for p in _run_tuples(bound, n):
                yield tuple(zip(p[::2], p[1::2]))
    elif family == "appendixA":
        for p in _run_tuples(bound, 2, min_x=1):
            yield p
    elif family == "appendixB":
        for p in _run_tuples(bound, 3, min_x=1):
            yield p
    elif family == "specializations":
        for a in range(bound - 1):
            for b in range(bound - 1 - a):
                yield a, b
        for s in range(1, bound - 1):
            for a in range(bound - 1 - s):
                for eb in _weak_compositions_upto(bound - 1 - s - a, s):
                    yield a, eb
        for r, s in SMALL_CASES:
            for exps in _weak_compositions_upto(bound - r - s, r + s):
                yield exps, r
    else:
        raise ValueError(f"unknown sweep family {family!r}")


def grid_size(family: str, bound: int) -> int:
    """Points of one sweep family up to a total word length."""
    return sum(1 for _ in _grid(family, bound))


def general_enumerated(ea, eb) -> int:
    """Weak compositions expand_general enumerates for one point."""
    parts = len(ea) + len(eb)
    return math.comb(sum(ea) + sum(eb) + parts - 1, parts - 1)


# --- products --------------------------------------------------------------

FORMATS = ("plain", "latex", "json")
# Regular ops of one pass, plus the deep inputs below.
PRODUCT_REGULAR_OPS = 37
# Deep single-run inputs (x^k y . short word) that the parser accepts.  The
# recursive oracle raises RecursionError on them; they stay in the mix and
# count as failed ops until the program handles them.
PRODUCT_DEEP_OPS = 3
DEEP_RUN = (1200, 4000)
# At 40 ops the tail percentile that leaves 10 ops beyond it is p75.
PRODUCT_OPS = PRODUCT_REGULAR_OPS + PRODUCT_DEEP_OPS
# A pair is two words of 16-26 letters together, each of at most 13, with a
# uniform total length, a uniform split between the two words, a uniform
# y-count in each word and a uniform letter arrangement.
MIN_LENGTH, MAX_LENGTH, MAX_FACTOR = 16, 26, 13
# Drawn as above, a product's number of terms spans four orders of
# magnitude: in 2,000 draws its median was 3,300, its 90th percentile
# 79,000, and 7.5% of the draws had more than 110,000 terms (one of 833,000
# terms took 15 s and 500 MB in a single op).  Pairs above MAX_TERMS, the
# size of the largest product measured for this workload (14 x 14 letters,
# 107k terms, 0.78 s in the oracle), are left out: the draw is conditioned
# on at most MAX_TERMS terms.
MAX_TERMS = 110_000
# A pass has too few ops for their sizes to average out from seed to seed,
# so the regular ops are a stratified sample of that draw.  The pool holds
# one pair of every shape (total length, split and the two y-counts; 4,719
# shapes), each word with a seeded letter arrangement, weighted by the
# shape's probability in the draw.  Sorted by the letters its product
# prints (term count times word length), the pool is cut into
# PRODUCT_REGULAR_OPS blocks of equal weight, and each op is the pair at
# the middle of its block's weight.  An op's time grows with those letters
# more closely than with its term count alone: rendering and building the
# result's words cost per letter.  Over ten seeds, the interquartile range
# of the pass's total letters, its median, 75th percentile and largest op
# was 14%, 15%, 20% and 15% of the median (in term counts) with one random
# pair from each of 37 blocks of 30 random draws; it was 4%, 6%, 5% and 3%
# with the middle pair of blocks of 120 random draws, and is 4%, 2%, 3% and 7%
# with the pool of shapes (seeds 101-110).
# The largest op sets a pass's peak RSS, mostly through the recursive
# oracle's memo, which holds one dict of words per pair of suffixes.  At one
# term count the memo's size varies twofold between pairs (368,000 to
# 794,000 words among pairs of 91,000-95,000 terms), so the top block's op
# is the pair of median memo size among the MEMO_CANDIDATES pairs at the
# middle of its block.
MEMO_CANDIDATES = 25
# Short enough for the unmemoized permutation oracle in the output check.
PERMUTATION_CHECK_MAX_INTERLEAVINGS = 20_000


def mixed_notation(text: str) -> str:
    """'xxxyxyy' -> 'x^3 y x y^2'."""
    parts = []
    for ch, run in itertools.groupby(text):
        n = sum(1 for _ in run)
        parts.append(ch if n == 1 else f"{ch}^{n}")
    return " ".join(parts)


def shuffle_term_count(u: str, v: str, cap: float = math.inf) -> float:
    """Number of distinct words in the shuffle of u and v, or inf once it
    is sure to exceed `cap`.

    Runs the subset automaton of the interleavings: a state is the set of
    (i, j) prefix pairs that can spell the word read so far, so distinct
    words are distinct paths.  Each distinct prefix extends to at least one
    distinct word, so the count of prefixes of any length bounds the result
    from below.  Independent of the program's oracles.
    """
    n, m = len(u), len(v)
    states = {frozenset([(0, 0)]): 1}
    for _ in range(n + m):
        nxt: dict = {}
        for state, count in states.items():
            for ch in "xy":
                step = frozenset(
                    [(i + 1, j) for i, j in state if i < n and u[i] == ch]
                    + [(i, j + 1) for i, j in state if j < m and v[j] == ch]
                )
                if step:
                    nxt[step] = nxt.get(step, 0) + count
        states = nxt
        if sum(states.values()) > cap:
            return math.inf
    return sum(states.values())


def oracle_memo_terms(u: str, v: str) -> int:
    """Words the recursive oracle's memo holds: the shuffle's term counts
    summed over every pair of nonempty suffixes."""
    return sum(shuffle_term_count(u[i:], v[j:]) for i in range(len(u)) for j in range(len(v)))


def _shapes():
    """(total length, length of u, y-count of u, y-count of v, probability)
    of every pair shape the draw described above can give."""
    lengths = MAX_LENGTH - MIN_LENGTH + 1
    for total in range(MIN_LENGTH, MAX_LENGTH + 1):
        splits = range(total - MAX_FACTOR, MAX_FACTOR + 1)
        for n in splits:
            for yu in range(1, n):
                for yv in range(1, total - n):
                    yield total, n, yu, yv, 1 / (lengths * len(splits) * (n - 1) * (total - n - 1))


def _arranged(rng: random.Random, n: int, ys: int) -> str:
    letters = ["y"] * ys + ["x"] * (n - ys)
    rng.shuffle(letters)
    return "".join(letters)


def product_ops(seed: int) -> list[dict]:
    """The products op list: dicts with the two words (letters and mixed
    notation), the output format and whether the op is a deep input."""
    rng = random.Random(f"products-{seed}")
    pool = []  # (printed letters, probability, u, v)
    for total, n, yu, yv, weight in _shapes():
        u, v = _arranged(rng, n, yu), _arranged(rng, total - n, yv)
        terms = shuffle_term_count(u, v, MAX_TERMS)
        if terms <= MAX_TERMS:
            pool.append((int(terms) * total, weight, u, v))
    pool.sort()
    cumulative = list(itertools.accumulate(p[1] for p in pool))
    ops = []
    for block in range(PRODUCT_REGULAR_OPS):
        share = (block + 0.5) / PRODUCT_REGULAR_OPS
        middle = bisect.bisect_left(cumulative, share * cumulative[-1])
        _, _, u, v = pool[middle]
        if block == PRODUCT_REGULAR_OPS - 1:
            half = MEMO_CANDIDATES // 2
            near = sorted(pool[middle - half:middle + half + 1], key=lambda p: oracle_memo_terms(p[2], p[3]))
            _, _, u, v = near[len(near) // 2]
        ops.append({"u": u, "v": v, "deep": False})
    for _ in range(PRODUCT_DEEP_OPS):
        k = rng.randint(*DEEP_RUN)
        other = rng.choice(("xy", "y", "xxy", "yx"))
        ops.append({"u": "x" * k + "y", "v": other, "deep": True})
    # formats rotate along the sizes, so neighbouring blocks get different
    # formats.  The ops then run in one fixed mixed order of the blocks:
    # an op's latency depends on the ops run before it in the process (by
    # up to 30% between two orders of one op list), so a seeded order would
    # move the latencies from seed to seed for that reason alone.
    for i, op in enumerate(ops):
        op["format"] = FORMATS[i % len(FORMATS)]
    random.Random("products-order").shuffle(ops)
    for op in ops:
        op["w1"], op["w2"] = mixed_notation(op["u"]), mixed_notation(op["v"])
        op["perm_check"] = (
            math.comb(len(op["u"]) + len(op["v"]), len(op["u"]))
            <= PERMUTATION_CHECK_MAX_INTERLEAVINGS
            and rng.random() < 0.5
        )
    return ops


# --- identity --------------------------------------------------------------

IDENTITY_MAX_WEIGHT = 10
# Above the CLI default of 20,000 terms.
IDENTITY_TERMS = 100_000


def _admissible_words(weight: int):
    for middle in itertools.product("xy", repeat=weight - 2):
        yield "x" + "".join(middle) + "y"


def identity_pairs(seed: int) -> list[tuple[str, str]]:
    """All 392 unordered pairs of total weight <= 10, in one fixed mixed
    order, each in a seeded orientation.  A sample of them would change
    from seed to seed how many distinct zeta indices a pass evaluates, which
    sets most of its cost.  The order sets which ops find their indices
    already cached, so it sets the slowest ops: over seeds 301-310 a seeded
    order moved a cost model's tail percentile (depth summed over each op's
    newly evaluated indices) by 15% (interquartile range over median), and
    the measured op_tail_ms by 21%.  At 392 ops the tail percentile that
    leaves 10 ops beyond it is p97.4."""
    rng = random.Random(f"identity-{seed}")
    words = [w for weight in range(2, IDENTITY_MAX_WEIGHT - 1) for w in _admissible_words(weight)]
    pool = [
        (u, v)
        for i, u in enumerate(words)
        for v in words[i:]
        if len(u) + len(v) <= IDENTITY_MAX_WEIGHT
    ]
    pairs = random.Random("identity-order").sample(pool, len(pool))
    return [(mixed_notation(u), mixed_notation(v)) if rng.random() < 0.5
            else (mixed_notation(v), mixed_notation(u)) for u, v in pairs]


def reference_values():
    """(index, exact value) pairs for the accuracy metrics, from mpmath and
    exact identities.  Fixed: the seed does not change them."""
    import mpmath

    mpmath.mp.dps = 30
    refs = [((k,), mpmath.zeta(k)) for k in range(2, 9)]
    # duality: zeta(2, {1}^n) = zeta(n + 2)
    refs += [((2,) + (1,) * n, mpmath.zeta(n + 2)) for n in range(1, 6)]
    # zeta({2}^n) = pi^(2n) / (2n + 1)!
    refs += [((2,) * n, mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)) for n in range(2, 5)]
    refs.append(((3, 1), mpmath.pi ** 4 / 360))
    return [(ks, float(value)) for ks, value in refs]
