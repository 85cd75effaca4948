"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py <src-dir> <workload> <mode> <launched> [<spans-file>]

`launched` is the parent's time.monotonic() just before it started this
process; both clocks are the system-wide CLOCK_MONOTONIC.  The inputs arrive
as JSON on stdin.  Modes:

- setup: import the modules the workload loads, then stop;
- timed: run the op list closed-loop, one op at a time, untraced;
- checked: as timed, but keep the outputs and verify every one after the
  ops, then measure the numeric layer's accuracy against exact references;
- traced: as timed, with the public functions the program calls wrapped
  in spans.

The last line of stdout is one JSON object with the pass's results.
"""

import sys
import time

_STARTED = time.monotonic()
_SRC, WORKLOAD, MODE, _LAUNCHED = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
sys.path.insert(0, _SRC)

# --- set-up: the imports a CLI call of this workload pays -----------------

IMPORTS = {}


def _timed_import(label, name):
    start = time.monotonic()
    __import__(name)
    IMPORTS[label] = time.monotonic() - start


_timed_import("mzvshuffle", "mzvshuffle")
_timed_import("cli", "mzvshuffle.cli")
if WORKLOAD == "sweep":
    _timed_import("verify", "mzvshuffle.verify")
if WORKLOAD == "identity":
    _timed_import("numpy", "numpy")
    _timed_import("numeric", "mzvshuffle.numeric")
SETUP_S = time.monotonic() - _LAUNCHED
INTERPRETER_S = _STARTED - _LAUNCHED

# --- everything below runs after set-up -----------------------------------

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

from mzvshuffle import cli  # noqa: E402
from mzvshuffle.lincomb import LinComb  # noqa: E402
from mzvshuffle.shuffle import shuffle_permutation  # noqa: E402
from mzvshuffle.words import Word, parse_word  # noqa: E402

IDENTITY_LINE = re.compile(r"residual = (\S+) \(tolerance (\S+)\) \[(PASS|FAIL)\]")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv):
    """cli.main on argv with stdout captured: (ok, output, error name)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        return False, buf.getvalue(), type(exc).__name__
    return code == 0, buf.getvalue(), None if code == 0 else f"exit {code}"


def op_argv(op):
    if WORKLOAD == "products":
        return ["shuffle", op["w1"], op["w2"], "--method", "recursive", "--format", op["format"]]
    return ["identity", op[0], op[1], "--terms", str(W.IDENTITY_TERMS)]


def untraced(fn, *args):
    return fn(*args)


# --- passes: timed, checked and traced passes run the same ops --------------


def cli_pass(ops, keep_outputs, call=untraced):
    """The op list closed-loop; `call` runs each op (in a span when traced)."""
    latencies, errors, outputs = [], {}, []
    digest = hashlib.sha256()
    start = perf_counter()
    for op in ops:
        t = perf_counter()
        ok, out, err = call(run_cli, op_argv(op))
        elapsed = perf_counter() - t
        if WORKLOAD == "identity" and ok and "[FAIL]" in out:
            # an identity op fails on a non-zero exit or a FAIL line
            ok, err = False, "FAIL line"
        latencies.append(elapsed * 1000.0 if ok else None)
        if not ok:
            errors[err] = errors.get(err, 0) + 1
        digest.update(out.encode() + b"\0" + str(err).encode() + b"\0")
        if keep_outputs:
            outputs.append((ok, out, err))
    wall = perf_counter() - start
    result = {
        "ops": len(ops),
        "failed": sum(lat is None for lat in latencies),
        "wall_s": wall,
        "latencies_ms": latencies,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest.hexdigest(),
        "errors": errors,
    }
    if keep_outputs:
        result["outputs"] = outputs
    return result


def sweep_call(name, bound):
    from mzvshuffle import verify

    if name == "specializations":
        return verify.run_specialization_sweep(bound)
    return verify.run_suite(name, bound, jobs=1)


def sweep_pass(bounds, call=untraced):
    """One op is one grid point.  run_suite does not time single points; the
    pass reports each suite call's time and its points checked and failed."""
    reports, suite_wall, raised = {}, {}, {}
    start = perf_counter()
    for name, bound in bounds.items():
        t = perf_counter()
        try:
            reports[name] = call(sweep_call, name, bound)
        except Exception as exc:  # a suite that raises fails all its points
            raised[name] = type(exc).__name__
        suite_wall[name] = perf_counter() - t
    wall = perf_counter() - start
    rss = peak_rss_mb()
    ops = failed = 0
    points, problems, digest = {}, [], hashlib.sha256()
    for name, bound in bounds.items():
        expected = W.grid_size(name, bound)
        report = reports.get(name)
        if report is None:
            ops += expected
            failed += expected
            points[name] = (expected, expected)
            problems.append(f"{name} raised {raised[name]}")
            digest.update(f"{name} raised {raised[name]}\n".encode())
            continue
        ops += report.checked
        failed += len(report.failures)
        points[name] = (report.checked, len(report.failures))
        if report.failures:
            problems.append(f"{name}: {len(report.failures)} failures, first {report.failures[0]}")
        if report.checked != expected:
            problems.append(f"{name}: checked {report.checked} but the grid has {expected}")
        digest.update(f"{name} {report.checked} {report.failures}\n".encode())
    return {
        "ops": ops,
        "failed": failed,
        "wall_s": wall,
        "suite_wall_s": suite_wall,
        "suite_points": points,
        "peak_rss_mb": rss,
        "digest": digest.hexdigest(),
        "problems": problems,
    }


# --- traced passes: spans around the public functions the program calls -----


def wrap(tr, owner, attr, span, tally=None):
    """Replace owner.attr, which the program looks up at call time, by a
    wrapper that runs it inside a span; tally(args, result) counts what the
    call produced."""
    fn = getattr(owner, attr)

    def traced(*args, **kwargs):
        result = tr.call(span, fn, *args, **kwargs)
        if tally:
            tally(args, result)
        return result

    setattr(owner, attr, traced)


def instrument(tr):
    """Wrap the workload's layers; returns the set the numeric lookups fill."""
    from mzvshuffle import shuffle

    def terms(name):
        return lambda args, out: tr.count(name, len(out))

    seen: set = set()
    if WORKLOAD == "sweep":
        from mzvshuffle import equivalence, verify

        def general(args, out):
            tr.count("closed_form.general.terms_out", len(out))
            tr.count("closed_form.general.enumerated", W.general_enumerated(*args))

        wrap(tr, verify, "expand_general", "closed_form.general", general)
        for attr in ("expand_euler", "expand_1_s", "expand_1_2", "expand_1_3",
                     "expand_2_2", "expand_2_3", "expand_3_3"):
            wrap(tr, verify, attr, "closed_form.small")
        restricted = {"expand_res_1_1": "res11", "expand_res_1_2": "res12",
                      "expand_res_2_2": "res22", "expand_nfold": "nfold",
                      "expand_nfold_depth1": "nfold"}
        for attr, layer in restricted.items():
            wrap(tr, verify, attr, f"restricted.{layer}", terms("restricted.terms_out"))
        # appendixA and appendixB compare these with their restricted twins
        for attr in ("expand_res_1_1", "expand_res_1_2"):
            wrap(tr, equivalence, attr, f"restricted.{restricted[attr]}", terms("restricted.terms_out"))
        for attr in ("expand_lgm_1_1", "expand_lgm_1_2"):
            wrap(tr, equivalence, attr, "equivalence.lgm")
        wrap(tr, verify, "shuffle_recursive", "shuffle.recursive", terms("shuffle.recursive.terms_out"))
        wrap(tr, verify, "shuffle_nfold", "shuffle.nfold")
        wrap(tr, LinComb, "__eq__", "lincomb.eq")
    elif WORKLOAD == "products":
        wrap(tr, cli, "parse_word", "words.parse")
        wrap(tr, cli, "shuffle_recursive", "shuffle.recursive", terms("shuffle.recursive.terms_out"))
        wrap(tr, LinComb, "render", "lincomb.render",
             lambda args, out: tr.count("lincomb.render.bytes_out", len(out)))
    else:
        from mzvshuffle import numeric

        wrap(tr, cli, "parse_word", "words.parse")
        # numeric.identity_residual_with_bound imports it at call time
        wrap(tr, shuffle, "shuffle_recursive", "shuffle.recursive", terms("shuffle.recursive.terms_out"))
        wrap(tr, numeric, "mzv_eval", "numeric.mzv_eval",
             lambda args, out: seen.add(tuple(int(k) for k in args[0])))
    return seen


def traced_pass(inputs, spans_path):
    tr = Tracer()
    seen = instrument(tr)
    if WORKLOAD == "sweep":
        result = sweep_pass(W.SWEEP_BOUNDS, tr.op)
    else:
        result = cli_pass(inputs, WORKLOAD == "products", tr.op)
        # the JSON round trip is part of the output check, outside the ops
        for op, (ok, out, _) in zip(inputs, result.pop("outputs", [])):
            if ok and op["format"] == "json":
                tr.call("lincomb.from_json", LinComb.from_json_obj, json.loads(out))
    if WORKLOAD == "identity":
        tr.count("numeric.distinct_indices", len(seen))
        tr.count("numeric.kernel_ops", sum(len(ks) * W.IDENTITY_TERMS for ks in seen))
    if spans_path:
        tr.write(spans_path)
    result.update({
        "self_s": tr.self_seconds(),
        "calls": tr.calls(),
        "counts": dict(tr.counts),
        "spans": len(tr.spans),
    })
    return result


# --- output checks, run after the timed ops of a run's first pass ---------

PLAIN_TERM = re.compile(r"(?:(\d+)\*)?((?:[xy](?:\^\d+)?)+)")
LATEX_TERM = re.compile(r"([+-]?)(\d*)(?:\\zeta\(([\d,]+)\)|((?:[xy](?:\^\{\d+\})?)+))")
RUN = re.compile(r"([xy])(?:\^\{?(\d+)\}?)?")


def _letters(printed: str) -> str:
    """'x^3yxy^{2}' -> 'xxxyxyy'; independent of the program's parser."""
    return "".join(ch * int(n or 1) for ch, n in RUN.findall(printed))


def parse_output(fmt: str, out: str) -> list[tuple[str, int]]:
    """(word letters, coefficient) pairs of a printed product."""
    text = out.strip()
    if fmt == "json":
        return [(_letters(t["word"]), int(t["coeff"])) for t in json.loads(text)["terms"]]
    terms = []
    if fmt == "plain":
        pieces = re.split(r" ([+-]) ", text)
        signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
        for sign, body in zip(signs, [pieces[0].lstrip("-")] + pieces[2::2]):
            match = PLAIN_TERM.fullmatch(body)
            if match is None:
                raise ValueError(f"unparsable plain term {body!r}")
            terms.append((_letters(match[2]), int(sign + (match[1] or "1"))))
        return terms
    pos = 0
    for match in LATEX_TERM.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unparsable latex at offset {pos}")
        pos = match.end()
        sign, coeff, index, word = match.groups()
        letters = ("".join("x" * (int(k) - 1) + "y" for k in index.split(","))
                   if index else _letters(word))
        terms.append((letters, int((sign or "+") + (coeff or "1"))))
    if pos != len(text):
        raise ValueError(f"unparsable latex at offset {pos}")
    return terms


def check_product(op, out):
    """Problems with one printed product; [] when it is correct.

    The output is parsed and checked against facts computed without the
    recursive oracle: the term count of the subset automaton, the
    coefficient sum C(n+m, n), each word's length and y-count, and on the
    subsample, shuffle_permutation.  JSON output must survive the
    LinComb.from_json_obj round trip.
    """
    u, v = op["u"], op["v"]
    if parse_word(op["w1"]).text != u or parse_word(op["w2"]).text != v:
        return ["the parser did not give back the generated words"]
    terms = parse_output(op["format"], out)
    problems = []
    if len(terms) != W.shuffle_term_count(u, v) or len({w for w, _ in terms}) != len(terms):
        problems.append("term count differs from the subset-automaton count")
    if any(c <= 0 for _, c in terms) or sum(c for _, c in terms) != math.comb(len(u) + len(v), len(u)):
        problems.append("coefficients are not positive with sum C(n+m, n)")
    ys = u.count("y") + v.count("y")
    if any(len(w) != len(u) + len(v) or w.count("y") != ys for w, _ in terms):
        problems.append("an output word has the wrong length or y-count")
    if op["format"] == "json" or op.get("perm_check"):
        printed = LinComb(terms)
        if op["format"] == "json" and LinComb.from_json_obj(json.loads(out)) != printed:
            problems.append("LinComb.from_json_obj round trip differs")
        if op.get("perm_check") and shuffle_permutation(Word(u), Word(v)) != printed:
            problems.append("differs from shuffle_permutation")
    return problems


def identity_line_consistent(match):
    """PASS exactly when residual <= tolerance, up to the 6 printed digits."""
    if match is None:
        return False
    residual, tolerance = float(match[1]), float(match[2])
    if match[3] == "PASS":
        return residual <= tolerance * (1 + 1e-5)
    return residual >= tolerance * (1 - 1e-5)


def check_cli_outputs(ops, outputs):
    """Problems with the outputs of a pass; a failed op is one, except the
    deep products inputs, which fail today."""
    problems = []
    for i, (op, (ok, out, err)) in enumerate(zip(ops, outputs)):
        if not ok:
            if WORKLOAD == "identity" or not op["deep"]:
                problems.append(f"op {i} {op_argv(op)[1:3]} failed: {err}")
        elif WORKLOAD == "products":
            try:
                found = check_product(op, out)
            except Exception as exc:
                found = [f"the check raised {type(exc).__name__}: {exc}"]
            problems += [f"op {i} ({op['w1']} . {op['w2']}, {op['format']}): {p}" for p in found]
        elif not identity_line_consistent(IDENTITY_LINE.search(out)):
            problems.append(f"op {i} {op}: malformed identity line {out!r}")
    return problems


def accuracy():
    """Error of numeric.mzv_eval at the identity truncation on exact references."""
    from mzvshuffle import numeric

    errs, held = [], 0
    for ks, exact in W.reference_values():
        result = numeric.mzv_eval(ks, W.IDENTITY_TERMS)
        err = abs(result.value - exact)
        errs.append(err)
        held += result.err_est >= err
    return {"max_abs_err": max(errs), "bound_held_frac": held / len(errs),
            "references": len(errs)}


def main():
    result = {"setup_s": SETUP_S, "interpreter_s": INTERPRETER_S, "imports": IMPORTS}
    if MODE != "setup":
        inputs = json.loads(sys.stdin.read())
        if MODE in ("timed", "checked"):
            check = MODE == "checked"
            if WORKLOAD == "sweep":
                result.update(sweep_pass(W.SWEEP_BOUNDS))
            else:
                result.update(cli_pass(inputs, check))
            if check:
                if WORKLOAD != "sweep":
                    result["problems"] = check_cli_outputs(inputs, result.pop("outputs"))
                result.update(accuracy())
        elif MODE == "traced":
            result.update(traced_pass(inputs, sys.argv[5] if len(sys.argv) > 5 else None))
        else:
            raise SystemExit(f"unknown mode {MODE!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
