"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage error,
3 domain error (inadmissible words, method not applicable, a pair past one
of a shuffle method's limits below, a product that runs out of memory, ...).
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import math
import re
import sys

from .closed_form import expand_general
from .shuffle import shuffle_permutation, shuffle_recursive
from .words import (
    NotAdmissibleError,
    NotInH1Error,
    Word,
    parse_mzv_index,
    parse_word,
    to_exponent_form,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

# Limits tested by _refusal before any work, for words of n and m letters
# with r and s y's.  Three bound a method's work: the oracle's letters, the
# enumeration's C(n+m, n) interleavings, and the letters the closed form's
# walk can hold, at most 2(r+1)(s+1) nodes of r+s letters per output word
# (docs/FORMULA_NOTES.md, "The binomial walk").  One bounds every method's
# output, words times n+m letters, at 18 bytes a letter at most
# (tracemalloc); identity evaluates one in 20-35 us.
ORACLE_MAX_LETTERS = 500
PERMUTATION_MAX_INTERLEAVINGS = 10**6
GENERAL_MAX_WALK_LETTERS = 2 * 10**8
MAX_PRINTED_LETTERS = 3 * 10**7
IDENTITY_MAX_LETTERS = 10**5
_RUN = {"x": re.compile("x*"), "y": re.compile("y*")}

_TERMS_HELP = (
    "accepted from 16 to 10^7 but no longer changes the value, which is computed "
    "at a fixed precision with a proven error bound"
)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvshuffle",
        description="Shuffle products of words over {x, y} and zeta-value identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_shuffle = sub.add_parser("shuffle", help="shuffle two words")
    p_shuffle.add_argument("word1")
    p_shuffle.add_argument("word2")
    p_shuffle.add_argument(
        "--method",
        choices=("recursive", "permutation", "general", "auto"),
        default="auto",
        help=f"recursive refuses pairs of more than {ORACLE_MAX_LETTERS} letters; auto "
        "(the default) runs general on those if both words end in y, else recursive; "
        "general runs the closed form and needs both words ending in y; permutation "
        "and general refuse pairs past their work limits, and every method a product "
        f"of more than {MAX_PRINTED_LETTERS} printed letters",
    )
    p_shuffle.add_argument("--format", choices=("plain", "latex", "json"), default="plain")

    p_verify = sub.add_parser("verify", help="run an exhaustive verification suite")
    p_verify.add_argument("suite", help="a sweep name, or 'all' for every sweep")
    p_verify.add_argument("--max-weight", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_zeta = sub.add_parser("zeta", help="evaluate a multiple zeta value numerically")
    p_zeta.add_argument("index", help="comma-separated positive integers, e.g. 3,1")
    p_zeta.add_argument("--terms", type=int, default=None, help=_TERMS_HELP)

    p_identity = sub.add_parser("identity", help="numeric check of zeta(u)zeta(v) = zeta(u.v)")
    p_identity.add_argument("word1")
    p_identity.add_argument("word2")
    p_identity.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="pass when the residual is at most this; by default, the proven "
        "bound on the error the evaluation can carry into the residual",
    )
    p_identity.add_argument("--terms", type=int, default=None, help=_TERMS_HELP)

    return parser


def _binomial_capped(n: int, k: int, cap: int) -> int:
    """C(n, k) if it is at most cap, else some number above cap.

    For 0 <= k <= n.  C(n, i) grows with i up to n/2 and is at least 2^i
    there, so this takes at most about log2(cap) steps, however large n is.
    """
    out = 1
    for i in range(min(k, n - k)):
        if out > cap:
            break
        out = out * (n - i) // (i + 1)
    return out


def _term_count(u: str, v: str, cap: int) -> int:
    """The number of distinct words of u ш v, or cap + 1 once it is above cap.

    A subset automaton over the pairs (i, j) of letters of u and v used that
    reads one maximal output run c^t a step: a pair that can go on has used
    up u's run of c at i or v's at j, so the pairs lie on two segments.
    Distinct paths are distinct words, and each pending prefix extends to
    one, so the count stops once they and the finished words pass the cap.
    A state keeps only the i's of its pairs, since j = depth - i.
    """
    n, m = len(u), len(v)
    start = (0, "", (0,))
    pending, heap, live = {start: 1}, [start], 1
    while heap:  # in order of letters read, so that equal states merge
        depth, last, used = key = heapq.heappop(heap)
        count = pending.pop(key)
        if depth == n + m:
            continue  # a finished word, counted in live
        live -= count
        for c in "xy".replace(last, ""):
            segments = []  # (lo, hi, i, di): pairs with i + di t letters of u, lo <= t <= hi
            for i in used:
                j = depth - i
                a, b = _RUN[c].match(u, i).end() - i, _RUN[c].match(v, j).end() - j
                segments.append((max(a if i + a < n else a + b, 1), a + b, i + a, 0))
                if j + b < m:
                    segments.append((max(b, 1), a + b, i - b, 1))
            # a segment's values past its first cap + 1 are never reached
            ts = {t for lo, hi, *_ in segments for t in range(lo, min(hi, lo + cap) + 1)}
            for t in sorted(ts):
                ends = {i + di * t for lo, hi, i, di in segments if lo <= t <= hi}
                child = (depth + t, c, tuple(sorted(ends)))
                if child not in pending:
                    heapq.heappush(heap, child)
                pending[child] = pending.get(child, 0) + count
                live += count
                if live > cap:
                    return cap + 1
    return live


def _refusal(method: str, u: Word, v: Word) -> tuple[str, str | None]:
    """The method that runs, `auto` resolved, and why it refuses to shuffle
    u and v, or None; `identity` is the oracle under identity's budget.  The
    method's work limit comes first, then the output check of every method,
    which counts the words only if their sum C(n+m, n) could pass it; for
    general that one count also bounds the letters its walk holds."""
    n, m = len(u), len(v)
    size, r, s = n + m, u.y_count, v.y_count
    budget = IDENTITY_MAX_LETTERS if method == "identity" else MAX_PRINTED_LETTERS
    cap = budget // max(size, 1)
    interleavings = _binomial_capped(size, n, max(cap, PERMUTATION_MAX_INTERLEAVINGS))
    per_term = 2 * (r + 1) * (s + 1) * (r + s)  # walk letters per output word
    general = None
    if not (u.ends_with_y and v.ends_with_y):
        general = "the general closed form needs both words nonempty and ending in y"
    elif per_term > GENERAL_MAX_WALK_LETTERS:
        general = (f"the general closed form's walk can hold 2(r+1)(s+1)(r+s) = {per_term} "
                   f"letters per output word: too many, it takes at most "
                   f"{GENERAL_MAX_WALK_LETTERS} letters")
    deep = size > ORACLE_MAX_LETTERS
    if method == "auto":
        method = "general" if deep and u.ends_with_y and v.ends_with_y else "recursive"
    if deep and method in ("recursive", "identity"):
        hint = " (try --method general)" if method == "recursive" and general is None else ""
        return method, (f"{n} + {m} letters are too many for the recursive shuffle "
                        f"oracle, which takes at most {ORACLE_MAX_LETTERS}{hint}")
    if method == "permutation" and interleavings > PERMUTATION_MAX_INTERLEAVINGS:
        return method, (f"C({size}, {n}) interleavings are too many for the permutation "
                        f"enumeration, which takes at most {PERMUTATION_MAX_INTERLEAVINGS}")
    if method == "general" and general:
        return method, general
    # one count serves both checks: the walk's words, then the output's
    limit = min(cap, GENERAL_MAX_WALK_LETTERS // per_term) if method == "general" else cap
    if interleavings > limit and (terms := _term_count(u.text, v.text, limit)) > limit:
        if terms <= cap:
            return method, (f"the product has more than {limit} words, at up to {per_term} "
                            f"letters each in the general closed form's walk: too many, it "
                            f"takes at most {GENERAL_MAX_WALK_LETTERS} letters")
        use = "identity evaluates" if method == "identity" else "a shuffle prints"
        return method, (f"the product has more than {cap} words of {size} letters: too "
                        f"many, {use} at most {budget} letters")
    return method, None


def _cmd_shuffle(args) -> int:
    try:
        u = parse_word(args.word1)
        v = parse_word(args.word2)
    except ValueError as exc:  # a syntax error, or an exponent or a word too long
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    method, refusal = _refusal(args.method, u, v)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        print(_product(u, v, method).render(args.format))
    except MemoryError:
        pass  # reported below, once the traceback no longer holds the product
    else:
        return EXIT_OK
    print(f"error: {_out_of_memory(u, v)}", file=sys.stderr)
    return EXIT_DOMAIN


def _product(u: Word, v: Word, method: str):
    """u shuffled with v by `method`, a method that _refusal accepts for them."""
    if method == "general":
        return expand_general(to_exponent_form(u), to_exponent_form(v))
    if method == "permutation":
        return shuffle_permutation(u, v)
    return shuffle_recursive(u, v)


def _out_of_memory(u: Word, v: Word) -> str:
    """Why the product of u and v failed when it ran out of memory, naming
    the process's address-space limit (RLIMIT_AS)."""
    try:
        import resource  # POSIX only
    except ImportError:
        limit = "unknown"
    else:
        cap = resource.getrlimit(resource.RLIMIT_AS)[0]
        limit = "none" if cap == resource.RLIM_INFINITY else f"{cap / 2**20:.0f} MiB"
    return (f"the product of {len(u)} + {len(v)} letters ran out of memory "
            f"(address-space limit: {limit})")


def _cmd_verify(args) -> int:
    from . import verify

    names = tuple(verify.SWEEPS) if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        try:
            reports.append(verify.run_suite(name, args.max_weight, jobs=args.jobs))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if args.as_json:
        print(json.dumps([r.to_json_obj() for r in reports], indent=2))
    else:
        for report in reports:
            status = "PASS" if report.ok else "FAIL"
            print(f"{report.suite}: {report.checked} checked, "
                  f"{len(report.failures)} failures [{status}] ({report.grid})")
            if report.failures:
                print(f"  first failure: {report.failures[0]}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY_FAILED


def _cmd_zeta(args) -> int:
    from . import numeric

    try:
        ks = parse_mzv_index(args.index)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    terms = args.terms if args.terms is not None else numeric.DEFAULT_TERMS
    try:
        result = numeric.mzv_eval(ks, terms)
    except (NotAdmissibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    index = ",".join(map(str, ks))
    print(f"zeta({index}) = {result.value:.12g} +/- {result.err_est:.3g}")
    return EXIT_OK


def _cmd_identity(args) -> int:
    from . import numeric

    try:
        u = parse_word(args.word1)
        v = parse_word(args.word2)
    except ValueError as exc:  # a syntax error, or an exponent or a word too long
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if refusal := _refusal("identity", u, v)[1]:  # the residual needs the oracle's product
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_DOMAIN
    terms = args.terms if args.terms is not None else numeric.DEFAULT_TERMS
    try:
        residual, adaptive = numeric.identity_residual_with_bound(u, v, terms)
    except (NotAdmissibleError, NotInH1Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        residual = None  # reported below, once the traceback no longer holds the product
    if residual is None:
        print(f"error: {_out_of_memory(u, v)}", file=sys.stderr)
        return EXIT_DOMAIN
    bound = args.tol if args.tol is not None else adaptive
    ok = residual <= bound
    print(f"residual = {residual:.6g} (tolerance {bound:.6g}) "
          f"[{'PASS' if ok else 'FAIL'}]")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "shuffle": _cmd_shuffle,
        "verify": _cmd_verify,
        "zeta": _cmd_zeta,
        "identity": _cmd_identity,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
