"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage error,
3 domain error (inadmissible words, method not applicable, a pair past one
of a shuffle method's limits below, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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

# Limits of the shuffle methods, each tested by _refusal before any work, for
# words of n and m letters with r and s y's.  The oracle's output has up to
# min(C(n+m, n), C(n+m, r+s)) words of n+m letters.  The enumeration visits
# C(n+m, n) interleavings.  The closed form walks C(r+s, r) y-block layouts,
# and its output words have L = n+m letters, end in y and hold all Y = r+s y's.
ORACLE_MAX_LETTERS = 500
ORACLE_MAX_PRINTED = 10**9
PERMUTATION_MAX_INTERLEAVINGS = 10**6
GENERAL_MAX_LAYOUTS = 10**5
GENERAL_MAX_LETTERS = 10**8

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
        help=f"recursive refuses pairs of more than {ORACLE_MAX_LETTERS} letters or past "
        "its output limit; auto (the default) runs general on those if both words end "
        "in y, else recursive; "
        "general runs the closed form and needs both words ending in y; permutation "
        "and general refuse pairs past their work limits",
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


def _general_layouts(r: int, s: int) -> int:
    """C(r+s, r), the y-block layouts the closed form walks for y-counts r
    and s, or some number above GENERAL_MAX_LAYOUTS."""
    return _binomial_capped(r + s, r, GENERAL_MAX_LAYOUTS)


def _general_letters(n: int, m: int, ys: int) -> int:
    """min(C(L-1, Y-1), C(L, n)) * L for L = n+m letters and Y = ys y's, a
    bound on the letters the closed form prints, or some number above
    GENERAL_MAX_LETTERS."""
    size = n + m
    cap = GENERAL_MAX_LETTERS // size
    return size * min(_binomial_capped(size - 1, ys - 1, cap), _binomial_capped(size, n, cap))


def _oracle_letters(n: int, m: int, ys: int) -> int:
    """min(C(L, Y), C(L, n)) * L for L = n+m letters and Y = ys y's, a bound
    on the letters the oracle prints, or some number above
    ORACLE_MAX_PRINTED."""
    size = n + m
    if not size:
        return 0
    cap = ORACLE_MAX_PRINTED // size
    return size * min(_binomial_capped(size, ys, cap), _binomial_capped(size, n, cap))


def _refusal(method: str, u: Word, v: Word) -> str | None:
    """Why `method` refuses to shuffle u and v, or None when it takes them."""
    n, m = len(u), len(v)
    if method == "recursive":
        if n + m > ORACLE_MAX_LETTERS:
            return (f"{n} + {m} letters are too many for the recursive shuffle "
                    f"oracle, which takes at most {ORACLE_MAX_LETTERS}")
        ys = u.y_count + v.y_count
        if _oracle_letters(n, m, ys) > ORACLE_MAX_PRINTED:
            return (f"min(C({n + m}, {ys}), C({n + m}, {n})) words of {n + m} letters "
                    f"may be too many for the recursive shuffle oracle, which prints "
                    f"at most {ORACLE_MAX_PRINTED} letters")
    elif method == "permutation":
        limit = PERMUTATION_MAX_INTERLEAVINGS
        if _binomial_capped(n + m, n, limit) > limit:
            return (f"C({n + m}, {n}) interleavings are too many for the permutation "
                    f"enumeration, which takes at most {PERMUTATION_MAX_INTERLEAVINGS}")
    elif not (u.ends_with_y and v.ends_with_y):
        return "the general closed form needs both words nonempty and ending in y"
    else:
        r, s = u.y_count, v.y_count
        if _general_layouts(r, s) > GENERAL_MAX_LAYOUTS:
            return (f"C({r + s}, {r}) y-block layouts are too many for the general "
                    f"closed form, which takes at most {GENERAL_MAX_LAYOUTS}")
        if _general_letters(n, m, r + s) > GENERAL_MAX_LETTERS:
            return (f"min(C({n + m - 1}, {r + s - 1}), C({n + m}, {n})) words of {n + m} "
                    f"letters may be too many for the general closed form, which prints "
                    f"at most {GENERAL_MAX_LETTERS} letters")
    return None


def _cmd_shuffle(args) -> int:
    try:
        u = parse_word(args.word1)
        v = parse_word(args.word2)
    except ValueError as exc:  # a syntax error, or an exponent or a word too long
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    method = args.method
    if method == "auto":
        closed_form = _refusal("recursive", u, v) and u.ends_with_y and v.ends_with_y
        method = "general" if closed_form else "recursive"
    if refusal := _refusal(method, u, v):
        if method == "recursive" and _refusal("general", u, v) is None:
            refusal += " (try --method general)"
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_DOMAIN
    if method == "general":
        result = expand_general(to_exponent_form(u), to_exponent_form(v))
    elif method == "permutation":
        result = shuffle_permutation(u, v)
    else:
        result = shuffle_recursive(u, v)
    print(result.render(args.format))
    return EXIT_OK


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
    print(f"zeta({args.index.strip()}) = {result.value:.12g} +/- {result.err_est:.3g}")
    return EXIT_OK


def _cmd_identity(args) -> int:
    from . import numeric

    try:
        u = parse_word(args.word1)
        v = parse_word(args.word2)
    except ValueError as exc:  # a syntax error, or an exponent or a word too long
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if refusal := _refusal("recursive", u, v):  # the residual needs the oracle's product
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_DOMAIN
    terms = args.terms if args.terms is not None else numeric.DEFAULT_TERMS
    try:
        residual, adaptive = numeric.identity_residual_with_bound(u, v, terms)
    except (NotAdmissibleError, NotInH1Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
