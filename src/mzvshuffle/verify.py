"""Exhaustive verification sweeps used by the CLI and the acceptance tests.

Every sweep checks an expansion against an independent oracle, or a property
of the shuffle product, at each point of an exhaustive grid bounded by total
word length, and reports failures as data rather than raising.  `SWEEPS`
registers each sweep once under its name and `run_suite` runs any of them.
`pattern_cases_*` give the finer oracles that split a product by the
y-interleaving case, used to pin down each case of the two-factor restricted
expansions separately.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable

from . import equivalence
from .closed_form import (
    expand_1_2,
    expand_1_3,
    expand_2_2,
    expand_2_3,
    expand_3_3,
    expand_euler,
    expand_1_s,
    expand_general,
)
from .combinat import binom, weak_compositions
from .lincomb import LinComb
from .restricted import (
    expand_nfold,
    expand_nfold_depth1,
    expand_res_1_1,
    expand_res_1_2,
    expand_res_2_2,
)
from .shuffle import (
    _fold,
    _interleavings,
    _shuffle_raw,
    shuffle_nfold,
    shuffle_permutation,
    shuffle_recursive,
)
from .words import Word, _admissible, from_exponent_form

# The largest bound run_suite accepts.  The largest grids more than double
# with each letter: associativity holds 115,936 triples at 12, 267,424 at 13.
MAX_WEIGHT = 12


def clamp_jobs(jobs: int) -> int:
    """The number of worker processes to start: `jobs` limited to [1, cpu count]."""
    return max(1, min(jobs, os.cpu_count() or 1))


@dataclass
class VerifyReport:
    suite: str
    grid: str
    checked: int
    failures: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# grids


def h1_exponent_forms(max_total: int):
    """Exponent forms of all nonempty words ending in y, length <= max_total."""
    for length in range(1, max_total + 1):
        for depth in range(1, length + 1):
            yield from weak_compositions(length - depth, depth)


def words_of_length(length: int):
    for bits in itertools.product("xy", repeat=length):
        yield "".join(bits)


def run_tuples(bound: int, runs: int, min_x: int = 0):
    """Flat tuples (a1, r1, ..., a_runs, r_runs), one per word
    x^a1 y^r1 ... x^a_runs y^r_runs with every a_i >= min_x, every r_i >= 1
    and total length <= bound."""
    if runs == 0:
        yield ()
        return
    for a in range(min_x, bound + 1):
        for r in range(1, bound - a + 1):
            for rest in run_tuples(bound - a - r, runs - 1, min_x):
                yield (a, r) + rest


def word_tuples(bound: int, count: int, least: tuple[int, str] = (0, "")):
    """Tuples of `count` words over {x, y}, nondecreasing in (length, word)
    order, with total length <= bound: each multiset of words once."""
    if count == 0:
        yield ()
        return
    for length in range(least[0], bound // count + 1):
        for word in words_of_length(length):
            if (length, word) >= least:
                for rest in word_tuples(bound - length, count - 1, (length, word)):
                    yield (word,) + rest


def _general_points(bound: int):
    """Points (expansion name, its arguments, exponent forms of both factors)
    of the general formula: every pair of words ending in y."""
    for ea in h1_exponent_forms(bound - 1):
        for eb in h1_exponent_forms(bound - sum(ea) - len(ea)):
            yield "expand_general", (ea, eb), ea, eb


def _specialization_points(bound: int):
    """As _general_points, for Euler, 1 x s and the five transcribed small cases."""
    for a in range(bound - 1):
        for b in range(bound - 1 - a):
            yield "expand_euler", (a, b), (a,), (b,)
    for s in range(1, bound - 1):
        for a in range(bound - 1 - s):
            for total in range(bound - s - a):
                for eb in weak_compositions(total, s):
                    yield "expand_1_s", (a, eb), (a,), eb
    for r, s in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        for total in range(bound - r - s + 1):
            for exps in weak_compositions(total, r + s):
                yield f"expand_{r}_{s}", exps, exps[:r], exps[r:]


def _nfold_points(bound: int):
    for n in (2, 3):
        yield from run_tuples(bound, n)


# ---------------------------------------------------------------------------
# per-point checks.  Each returns a failure message or None.  They look the
# expansions and oracles up as module globals at call time, so replacing a
# module attribute (to trace or stub it) reaches every sweep.


def _run_word(*runs: int) -> Word:
    """x^a1 y^r1 x^a2 y^r2 ... from the flat tuple (a1, r1, a2, r2, ...)."""
    return Word("".join("x" * a + "y" * r for a, r in zip(runs[::2], runs[1::2])))


def _check_oracle(point) -> str | None:
    name, args, ea, eb = point
    want = shuffle_recursive(from_exponent_form(ea), from_exponent_form(eb))
    if globals()[name](*args) != want:
        return f"{name} mismatch at a={ea} b={eb}"
    return None


# parameter names of a one-run and a two-run word, as first and as second factor
_RUN_NAMES = {1: ("a,r", "b,s"), 2: ("a1,r1,a2,r2", "b1,s1,b2,s2")}


def _check_run_product(p: int, q: int, point) -> str | None:
    """expand_res_p_q against the oracle on the product of a p-run word
    (the first 2p entries of the point) and a q-run word (the rest)."""
    split = 2 * p
    got = globals()[f"expand_res_{p}_{q}"](*point)
    if got != shuffle_recursive(_run_word(*point[:split]), _run_word(*point[split:])):
        return f"res{p}{q} mismatch at ({_RUN_NAMES[p][0]},{_RUN_NAMES[q][1]})={point}"
    return None


def _check_nfold(point) -> str | None:
    pairs = list(zip(point[::2], point[1::2]))
    want = shuffle_nfold([_run_word(a, r) for a, r in pairs])
    if expand_nfold(pairs) != want:
        return f"nfold mismatch at {pairs}"
    if all(r == 1 for _, r in pairs):
        if expand_nfold_depth1([a for a, _ in pairs]) != want:
            return f"nfold depth1 mismatch at {pairs}"
    return None


def _check_shuffle_properties(pair) -> str | None:
    """recursive == permutation, commutativity, the interleaving count,
    homogeneity, and closure of the words ending in y and of the
    admissible words."""
    ua, ub = pair
    fwd = _shuffle_raw(ua, ub)
    if fwd != _shuffle_raw(ub, ua):
        return f"commutativity fails for {ua!r},{ub!r}"
    if LinComb(fwd) != shuffle_permutation(Word(ua), Word(ub)):
        return f"recursive != permutation for {ua!r},{ub!r}"
    if sum(fwd.values()) != binom(len(ua) + len(ub), len(ua)):
        return f"coefficient sum wrong for {ua!r},{ub!r}"
    ys = ua.count("y") + ub.count("y")
    if any(len(word) != len(ua) + len(ub) or word.count("y") != ys for word in fwd):
        return f"homogeneity fails for {ua!r},{ub!r}"
    in_h1 = (not ua or ua.endswith("y")) and (not ub or ub.endswith("y"))
    if in_h1 and any(word and not word.endswith("y") for word in fwd):
        return f"h1 closure fails for {ua!r},{ub!r}"
    if _admissible(ua) and _admissible(ub) and not all(map(_admissible, fwd)):
        return f"h0 closure fails for {ua!r},{ub!r}"
    return None


@lru_cache(maxsize=8192)
def _shuffle_memo(u: str, v: str) -> dict[str, int]:
    # the associativity sweep shuffles the same pairs across many triples
    return _shuffle_raw(u, v)


def _check_associativity(triple) -> str | None:
    """(u . v) . w independent of grouping and of which factor sits outside.

    Commutativity (checked by the shuffle-properties sweep) reduces the six
    orderings of each triple to the three choices of outer factor.
    """
    ua, ub, uc = triple
    first = _fold((ua, ub, uc), _shuffle_memo)
    for order in ((ua, uc, ub), (ub, uc, ua)):
        if _fold(order, _shuffle_memo) != first:
            return f"associativity fails for {ua!r},{ub!r},{uc!r}"
    return None


# ---------------------------------------------------------------------------
# the registry and its runner


@dataclass(frozen=True)
class Sweep:
    """A sweep: `grid(bound)` yields its points up to a total word length,
    `check(point)` returns a failure message or None."""

    default_bound: int
    describe: str
    grid: Callable[[int], Iterable]
    check: Callable[[object], str | None]


def _run_product_sweep(p: int, q: int, describe: str) -> Sweep:
    """expand_res_p_q on every product of a p-run and a q-run word."""
    return Sweep(10, describe, lambda n: run_tuples(n, p + q), partial(_check_run_product, p, q))


SWEEPS: dict[str, Sweep] = {
    "general": Sweep(8, "pairs of words ending in y", _general_points, _check_oracle),
    "res11": _run_product_sweep(1, 1, "x^a y^r . x^b y^s grids"),
    "res12": _run_product_sweep(1, 2, "x^a y^r . x^b1 y^s1 x^b2 y^s2 grids"),
    "res22": _run_product_sweep(2, 2, "two-run by two-run grids"),
    "nfold": Sweep(9, "2- and 3-fold run products", _nfold_points, _check_nfold),
    "appendixA": Sweep(
        10, "alternative x^a y^r . x^b y^s form, positive parameters",
        lambda n: run_tuples(n, 2, 1), equivalence.check_lgm_1_1,
    ),
    "appendixB": Sweep(
        10, "alternative x^a y^r . x^b1 y^s1 x^b2 y^s2 form, positive parameters",
        lambda n: run_tuples(n, 3, 1), equivalence.check_lgm_1_2,
    ),
    "specializations": Sweep(
        9, "Euler, 1 x s and the five small cases", _specialization_points, _check_oracle
    ),
    "shuffle-properties": Sweep(
        10, "all word pairs", lambda n: word_tuples(n, 2), _check_shuffle_properties
    ),
    "associativity": Sweep(9, "all word triples", lambda n: word_tuples(n, 3), _check_associativity),
}


def run_suite(name: str, max_weight: int | None = None, jobs: int = 1) -> VerifyReport:
    """Run one registered sweep up to a total word length.

    The bound is `max_weight`, at most MAX_WEIGHT, or the sweep's default;
    with jobs > 1 the points are checked in up to `clamp_jobs(jobs)` worker
    processes.
    """
    try:
        sweep = SWEEPS[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {tuple(SWEEPS)}") from None
    if max_weight is not None and max_weight < 1:
        raise ValueError(f"max weight must be at least 1, got {max_weight}")
    if max_weight is not None and max_weight > MAX_WEIGHT:
        raise ValueError(f"max weight {max_weight} exceeds the cap {MAX_WEIGHT}")
    bound = sweep.default_bound if max_weight is None else max_weight
    start = time.perf_counter()
    points = list(sweep.grid(bound))
    jobs = clamp_jobs(jobs)
    if jobs > 1 and len(points) > 64:
        from concurrent.futures import ProcessPoolExecutor

        # every check is a module-level function or a partial of one, so it
        # pickles by reference
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(sweep.check, points,
                                    chunksize=max(64, len(points) // (jobs * 8))))
    else:
        results = map(sweep.check, points)
    failures = sorted(filter(None, results))
    return VerifyReport(
        suite=name,
        grid=f"{sweep.describe}, total word length <= {bound}",
        checked=len(points),
        failures=failures,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_specialization_sweep(max_total: int = 9) -> VerifyReport:
    """Euler, 1 x s and the five transcribed small cases against the oracle."""
    return run_suite("specializations", max_total)


# ---------------------------------------------------------------------------
# pattern-restricted oracles (fine-grained ground truth for the case splits)


def _pattern_buckets(
    su: str, sv: str, label: Callable[[list[int], list[int]], str]
) -> dict[str, LinComb]:
    """The oracle for su . sv split into buckets: each interleaving goes to
    label(ypos_u, ypos_v), the positions its y's from su and from sv hold."""
    cases: dict[str, dict[str, int]] = {}
    for word, positions in _interleavings(su, sv):
        ypos_u = [pos for pos in positions if word[pos] == "y"]
        from_u = set(ypos_u)
        ypos_v = [pos for pos, c in enumerate(word) if c == "y" and pos not in from_u]
        bucket = cases.setdefault(label(ypos_u, ypos_v), {})
        bucket[word] = bucket.get(word, 0) + 1
    return {name: LinComb(words) for name, words in cases.items()}


def pattern_cases_1_2(a: int, r: int, b1: int, s1: int, b2: int, s2: int) -> dict[str, LinComb]:
    """Split the oracle for x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2} by the
    number of second-factor y's preceding the first first-factor y."""

    def label(ypos_u: list[int], ypos_v: list[int]) -> str:
        k = sum(1 for pos in ypos_v if pos < ypos_u[0])
        if k == 0:
            return "i"
        if k <= s1 - 1:
            return "ii"
        return "iii" if k == s1 else "iv"

    su = "x" * a + "y" * r
    sv = "x" * b1 + "y" * s1 + "x" * b2 + "y" * s2
    return _pattern_buckets(su, sv, label)


def pattern_cases_2_2(
    a1: int, r1: int, a2: int, r2: int, b1: int, s1: int, b2: int, s2: int
) -> dict[str, LinComb]:
    """Split the two-run oracle by y-interleaving case.

    Interleavings whose first y comes from the second factor land in the
    'swap' bucket (they are covered by the symmetrized term).
    """

    def label(ypos_u: list[int], ypos_v: list[int]) -> str:
        if ypos_v[0] < ypos_u[0]:
            return "swap"
        return _classify_2_2(ypos_u, ypos_v, r1, s1)

    su = "x" * a1 + "y" * r1 + "x" * a2 + "y" * r2
    sv = "x" * b1 + "y" * s1 + "x" * b2 + "y" * s2
    return _pattern_buckets(su, sv, label)


def _classify_2_2(ypos_u: list[int], ypos_v: list[int], r1: int, s1: int) -> str:
    first_v = ypos_v[0]
    end_first_u = ypos_u[r1 - 1]
    start_second_u = ypos_u[r1]
    end_first_v = ypos_v[s1 - 1]
    start_second_v = ypos_v[s1]
    if end_first_u < first_v:
        if start_second_u < first_v:
            return "i"
        k = sum(1 for q in ypos_v if q < start_second_u)
        if k <= s1 - 1:
            return "ii"
        return "iii" if k == s1 else "iv"
    if end_first_u < end_first_v:
        if start_second_u < end_first_v:
            return "v"
        return "vi" if start_second_u < start_second_v else "vii"
    if end_first_u < start_second_v:
        return "viii" if start_second_u < start_second_v else "ix"
    return "x"
