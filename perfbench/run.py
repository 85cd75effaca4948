"""Benchmark of mzvshuffle: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,products,identity} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
src/.  Each pass of a workload runs in a fresh interpreter (one process, one
client, one thread), so the program's memo caches start empty as they do
for a CLI call.  The run:

1. builds the workload's inputs from --seed;
2. repeats passes until --seconds have gone by and at least MIN_PASSES are
   done.  The first pass keeps its outputs and, after its timed ops,
   verifies every one and measures the numeric layer's accuracy on exact
   references; every later pass must print the same outputs.  With
   --trace 1 the passes alternate between untraced and traced; the traced
   ones run the same ops with the public functions the program calls
   wrapped in in-memory spans, and must print the same outputs.  Around the
   passes the run starts interpreters that only import, for more set-up
   time samples.

ops_per_s is the rate over all the run's untraced passes; a latency
percentile is taken over each op's mean latency over those passes, which
all run the same ops; the other timings are medians over the run's passes
or interpreters.  The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it say what was measured, on what, and why any op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep", "products", "identity")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES_PER_PASS = 2
# The whole run must end within 180 s.
RUN_LIMIT_S = 170.0
# The tail percentile leaves at least this many ops beyond it.
TAIL_OPS_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_abs_err": "1",
    "bound_held_frac": "frac",
}

SWEEP_FAMILIES = tuple(W.SWEEP_BOUNDS)
IMPORT_LABELS = ("mzvshuffle", "cli", "verify", "numpy", "numeric")
PER_LAYER = {
    "closed_form.general.self_s": "s",
    "closed_form.general.calls": "count",
    "closed_form.general.terms_out": "count",
    "closed_form.general.us_per_term": "us",
    "closed_form.general.out_frac": "frac",
    "closed_form.small.self_s": "s",
    "restricted.res11.self_s": "s",
    "restricted.res12.self_s": "s",
    "restricted.res22.self_s": "s",
    "restricted.nfold.self_s": "s",
    "restricted.us_per_term": "us",
    "equivalence.lgm.self_s": "s",
    **{f"verify.{name}.wall_s": "s" for name in SWEEP_FAMILIES},
    "shuffle.recursive.self_s": "s",
    "shuffle.recursive.calls": "count",
    "shuffle.recursive.terms_out": "count",
    "shuffle.recursive.us_per_term": "us",
    "shuffle.nfold.self_s": "s",
    "lincomb.render.self_s": "s",
    "lincomb.render.bytes_out": "bytes",
    "lincomb.from_json.self_s": "s",
    "lincomb.eq.self_s": "s",
    "words.parse.self_s": "s",
    "words.parse.calls": "count",
    "numeric.mzv_eval.self_s": "s",
    "numeric.mzv_eval.calls": "count",
    "numeric.kernel_ops": "count",
    "numeric.index_repeat_frac": "frac",
    **{f"import.{label}_s": "s" for label in IMPORT_LABELS},
    "setup.interpreter_s": "s",
    "trace.overhead_frac": "frac",
    "trace.op_self_s": "s",
    "trace.spans": "count",
    "workload.both_end_y_frac": "frac",
}


class WorkerError(RuntimeError):
    pass


def launch(workload, mode, inputs, deadline, spans_path=None):
    """Run one worker pass and return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before the pass could start")
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, mode, repr(launched)]
    if spans_path:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, input=inputs, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} pass did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def make_inputs(workload, seed):
    if workload == "products":
        return W.product_ops(seed)
    if workload == "identity":
        return W.identity_pairs(seed)
    return {}


def both_end_y_frac(workload, inputs):
    """Share of op pairs in which both words end in y, the pairs on which
    CLI --method auto would pick the closed form.  Every sweep grid word and
    every admissible identity word ends in y."""
    if workload != "products":
        return 1.0
    return sum(op["u"].endswith("y") and op["v"].endswith("y") for op in inputs) / len(inputs)


def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def ranked_latencies(latencies):
    """Sorted latencies with each failed op (None) ranked above every success."""
    return sorted(lat for lat in latencies if lat is not None) + [math.inf] * latencies.count(None)


def tail_index(n):
    """Index of the highest percentile that leaves TAIL_OPS_BEYOND ops beyond
    it; with fewer ops the tail is the slowest op."""
    return n - TAIL_OPS_BEYOND - 1 if n > TAIL_OPS_BEYOND else n - 1


def latency_quantile(ranked, p):
    """Harrell-Davis estimate of the p-quantile of the ranked latencies, on
    a log scale: a weighted geometric mean of all of them, each weighted by
    the Beta((n+1)p, (n+1)(1-p)) probability of its share of the ranks.
    The ops of a pass spread over three orders of magnitude, so one order
    statistic moves with whichever op holds its rank; the weights spread the
    estimate over the ops around that rank.  A failed op counts at the
    slowest success."""
    finite = [lat for lat in ranked if not math.isinf(lat)]
    if not finite:
        return math.nan
    n, steps = len(ranked), 16  # midpoint rule, `steps` points per rank
    a, b = p * (n + 1), (1 - p) * (n + 1)
    xs = [(k + 0.5) / (n * steps) for k in range(n * steps)]
    log_pdf = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs]
    top = max(log_pdf)
    weights = [math.exp(v - top) for v in log_pdf]
    logs = [math.log(min(lat, finite[-1])) for lat in ranked]
    return math.exp(sum(w * logs[k // steps] for k, w in enumerate(weights)) / sum(weights))


def sweep_point_latencies(passes):
    """Per-point latencies of one sweep pass, each point at its suite's mean
    per point over all the run's passes: run_suite times no single point,
    and a suite's total over the run drifts less with the machine's speed
    than its time in one pass."""
    latencies = []
    for name, (checked, failed) in passes[0]["suite_points"].items():
        total_s = sum(p["suite_wall_s"][name] for p in passes)
        mean_ms = total_s * 1000.0 / max(1, sum(p["suite_points"][name][0] for p in passes))
        latencies += [mean_ms] * (checked - failed) + [None] * failed
    return latencies


def per_op_means(latency_lists):
    """Each op's mean latency over the passes, which all run the same ops;
    an op that failed in any pass counts as failed (None).  A run has only
    3-9 passes and the machine's speed changes within a pass, so the mean,
    like ops_per_s, averages every sample: over ten seeds of products, the
    interquartile range over median of the two percentiles was 0.13-0.14
    with per-op means and 0.22 with per-op medians of the same runs."""
    return [None if None in lats else statistics.fmean(lats) for lats in zip(*latency_lists)]


def completed_per_s(results):
    """Ops completed per second over the passes together: a failed op is
    attempted, not completed.  The machine's speed changes within seconds,
    and the rate over every pass follows the whole run, where the median of
    a few passes' rates follows whichever pass is in the middle."""
    return sum(r["ops"] - r["failed"] for r in results) / sum(r["wall_s"] for r in results)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(result):
    """Per-layer figures of one traced pass."""
    self_s, calls, counts = result["self_s"], result["calls"], result["counts"]
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    restricted = ("res11", "res12", "res22", "nfold")
    lookups = calls.get("numeric.mzv_eval", 0)
    return {
        "closed_form.general.self_s": s("closed_form.general"),
        "closed_form.general.calls": calls.get("closed_form.general", 0),
        "closed_form.general.terms_out": counts.get("closed_form.general.terms_out", 0),
        "closed_form.general.us_per_term": ratio(
            s("closed_form.general") * 1e6, counts.get("closed_form.general.terms_out", 0)),
        "closed_form.general.out_frac": ratio(
            counts.get("closed_form.general.terms_out", 0),
            counts.get("closed_form.general.enumerated", 0)),
        "closed_form.small.self_s": s("closed_form.small"),
        **{f"restricted.{k}.self_s": s(f"restricted.{k}") for k in restricted},
        "restricted.us_per_term": ratio(
            sum(s(f"restricted.{k}") for k in restricted) * 1e6,
            counts.get("restricted.terms_out", 0)),
        "equivalence.lgm.self_s": s("equivalence.lgm"),
        "shuffle.recursive.self_s": s("shuffle.recursive"),
        "shuffle.recursive.calls": calls.get("shuffle.recursive", 0),
        "shuffle.recursive.terms_out": counts.get("shuffle.recursive.terms_out", 0),
        "shuffle.recursive.us_per_term": ratio(
            s("shuffle.recursive") * 1e6, counts.get("shuffle.recursive.terms_out", 0)),
        "shuffle.nfold.self_s": s("shuffle.nfold"),
        "lincomb.render.self_s": s("lincomb.render"),
        "lincomb.render.bytes_out": counts.get("lincomb.render.bytes_out", 0),
        "lincomb.from_json.self_s": s("lincomb.from_json"),
        "lincomb.eq.self_s": s("lincomb.eq"),
        "words.parse.self_s": s("words.parse"),
        "words.parse.calls": calls.get("words.parse", 0),
        "numeric.mzv_eval.self_s": s("numeric.mzv_eval"),
        "numeric.mzv_eval.calls": lookups,
        "numeric.kernel_ops": counts.get("numeric.kernel_ops", 0),
        "numeric.index_repeat_frac": 1.0 - ratio(counts.get("numeric.distinct_indices", 0), lookups)
        if lookups else 0.0,
        "trace.op_self_s": s("op"),
        "trace.spans": result["spans"],
    }


def median_of(rows, key, default=0.0):
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "mzvshuffle" / "__init__.py").is_file():
        print(f"error: no mzvshuffle package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    inputs = make_inputs(workload, seed)
    payload = json.dumps(inputs)
    env = environment(seed)
    print(f"benchmark: workload={workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))

    if args.trace:
        # keep only this run's spans: one file per traced pass
        SPANS_DIR.mkdir(exist_ok=True)
        for stale in SPANS_DIR.glob(f"spans-{workload}-*.jsonl"):
            stale.unlink()
    try:
        probes, timed, traced = [], [], []
        loop_start = time.monotonic()
        while True:
            # set-up samples are spread over the run, as the machine's speed drifts
            probes += [launch(workload, "setup", payload, deadline) for _ in range(SETUP_PROBES_PER_PASS)]
            enough = len(timed) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_TRACED_PASSES)
            if enough and time.monotonic() - loop_start >= args.seconds:
                break
            if args.trace and len(traced) < len(timed):
                spans = SPANS_DIR / f"spans-{workload}-pass{len(traced)}.jsonl"
                traced.append(launch(workload, "traced", payload, deadline, spans))
            else:
                timed.append(launch(workload, "timed" if timed else "checked", payload, deadline))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check = timed[0]
    problems = []
    for label, results in (("pass", timed), ("traced pass", traced)):
        for i, result in enumerate(results):
            problems += [f"{label} {i}: {p}" for p in result.get("problems", [])]
            if result["digest"] != check["digest"]:
                problems.append(f"{label} {i}: output differs from the checked first pass")

    # --- end to end, untraced -------------------------------------------
    if workload == "sweep":
        latencies = sweep_point_latencies(timed)
    else:
        latencies = per_op_means([result["latencies_ms"] for result in timed])
    n_ops = len(latencies)
    tail_at = tail_index(n_ops)
    ranked = ranked_latencies(latencies)
    workers = probes + timed + traced
    end_to_end = {
        "ops_per_s": completed_per_s(timed),
        "op_p50_ms": latency_quantile(ranked, 0.5),
        "op_tail_ms": latency_quantile(ranked, (tail_at + 1) / n_ops),
        # the checked first pass holds every output until its check: its RSS is left out
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed[1:]),
    }
    end_to_end["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    end_to_end["max_abs_err"] = check["max_abs_err"]
    end_to_end["bound_held_frac"] = check["bound_held_frac"]

    attempted = sum(r["ops"] for r in timed + traced)
    failed = sum(r["failed"] for r in timed + traced)
    errors: dict = {}
    for result in timed:
        for name, count in result.get("errors", {}).items():
            errors[name] = errors.get(name, 0) + count
    op_kind = ("grid point (its suite's mean per point over the run)" if workload == "sweep"
               else "op (its mean over the run's untraced passes)")
    print(f"passes: {len(timed)} untraced, {len(traced)} traced; {len(workers)} set-up samples; "
          "pass wall s: " + ", ".join(f"{r['wall_s']:.2f}" for r in timed))
    print(f"latency: per {op_kind}, {n_ops} per pass; op_tail_ms is p{100 * (tail_at + 1) / n_ops:g} "
          f"({n_ops - tail_at - 1} of {n_ops} beyond it); both percentiles are Harrell-Davis "
          "estimates on log latencies; failed ops rank above every success")
    print(f"fail_frac = {ratio(failed, attempted):.4g} ({failed} of {attempted} ops); "
          f"failures by cause in untraced passes: {json.dumps(errors)}")
    print(f"accuracy: {check['references']} reference indices at {W.IDENTITY_TERMS} terms")
    for problem in problems:
        print(f"problem: {problem}")

    if not args.trace:
        print("trace.overhead_frac: not measured (run with --trace 1)")
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            print(f"{name} = {end_to_end[name]:.6g} {unit}")
    else:
        rows = [layer_metrics(r) for r in traced]
        layers = {key: median_of(rows, key) for key in rows[0]}
        for name in SWEEP_FAMILIES:
            layers[f"verify.{name}.wall_s"] = (
                median_of([r["suite_wall_s"] for r in timed], name) if workload == "sweep" else 0.0)
        for label in IMPORT_LABELS:
            layers[f"import.{label}_s"] = median_of([w["imports"] for w in workers], label)
        layers["setup.interpreter_s"] = statistics.median(w["interpreter_s"] for w in workers)
        traced_rate = completed_per_s(traced)
        layers["trace.overhead_frac"] = 1.0 - traced_rate / end_to_end["ops_per_s"]
        layers["workload.both_end_y_frac"] = both_end_y_frac(workload, inputs)
        print(f"trace.overhead_frac = {layers['trace.overhead_frac']:.4g} "
              f"(traced {traced_rate:.6g} vs untraced {end_to_end['ops_per_s']:.6g} ops/s); "
              f"spans written to {SPANS_DIR.relative_to(ROOT)}/")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            print(f"{name} = {layers[name]:.6g} {unit}")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
