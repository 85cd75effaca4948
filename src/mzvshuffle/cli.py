"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage error,
3 domain error (inadmissible words, method not applicable, a pair of more
than ORACLE_MAX_LETTERS letters for the shuffle oracle, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .closed_form import expand_general
from .lincomb import LinComb
from .shuffle import shuffle_permutation, shuffle_recursive
from .words import (
    ExponentOverflowError,
    NotAdmissibleError,
    NotInH1Error,
    Word,
    WordSyntaxError,
    parse_mzv_index,
    parse_word,
    to_exponent_form,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

# Letters of a pair the shuffle oracle takes; its output has up to
# C(n+m, n) words of n+m letters.  Longer pairs are refused before any work.
ORACLE_MAX_LETTERS = 500

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
        "general runs the closed form and needs both words ending in y",
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


def _oracle_refusal(u: Word, v: Word) -> str | None:
    """Why the shuffle oracle refuses this pair, or None when it takes it."""
    if len(u) + len(v) <= ORACLE_MAX_LETTERS:
        return None
    return (f"{len(u)} + {len(v)} letters are too many for the recursive shuffle "
            f"oracle, which takes at most {ORACLE_MAX_LETTERS}")


def _cmd_shuffle(args) -> int:
    try:
        u = parse_word(args.word1)
        v = parse_word(args.word2)
    except (WordSyntaxError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    both_end_y = u.ends_with_y and v.ends_with_y
    refusal = _oracle_refusal(u, v)
    method = args.method
    if method == "auto":
        method = "general" if refusal and both_end_y else "recursive"
    if method == "general":
        if not both_end_y:
            print(
                "error: the general closed form needs both words nonempty and ending in y",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
        result = expand_general(to_exponent_form(u), to_exponent_form(v))
    elif method == "permutation":
        result = shuffle_permutation(u, v)
    elif refusal:
        hint = " (try --method general)" if both_end_y else ""
        print(f"error: {refusal}{hint}", file=sys.stderr)
        return EXIT_DOMAIN
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
    except (WordSyntaxError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if refusal := _oracle_refusal(u, v):  # the residual needs the oracle's product
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
