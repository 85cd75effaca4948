"""The part of the package that the benchmark in perfbench/ reaches.

perfbench/ changes only in a benchmark change, so every name it imports,
calls or wraps must outlive any other change; without this file a deletion
could break a benchmark run while every other test stays green.  An entry
leaves this file only in the benchmark change that stops using it.
"""

import contextlib
import io
import json

from mzvshuffle import cli, equivalence, numeric, shuffle, verify
from mzvshuffle.lincomb import LinComb
from mzvshuffle.shuffle import shuffle_permutation
from mzvshuffle.words import Word, parse_word

# The module attributes perfbench/worker.py's `instrument` replaces by name.
# The program must look each one up in that module at call time, or the
# traced runs time nothing.
WRAPPED = {
    cli: ("parse_word", "shuffle_recursive"),
    verify: (
        "expand_general", "expand_euler", "expand_1_s", "expand_1_2", "expand_1_3",
        "expand_2_2", "expand_2_3", "expand_3_3", "expand_res_1_1", "expand_res_1_2",
        "expand_res_2_2", "expand_nfold", "expand_nfold_depth1", "shuffle_recursive",
        "shuffle_nfold",
    ),
    equivalence: ("expand_res_1_1", "expand_res_1_2", "expand_lgm_1_1", "expand_lgm_1_2"),
    shuffle: ("shuffle_recursive",),
    numeric: ("mzv_eval",),
}
WRAPPED_METHODS = ("__eq__", "render")  # of LinComb
# The sweeps of the benchmark's `sweep` workload (perfbench/workloads.py
# SWEEP_BOUNDS), each run at the smallest bound that reaches every wrapped name.
SWEEP_NAMES = ("general", "res11", "res12", "res22", "nfold", "appendixA", "appendixB")


def cli_run(argv):
    """cli.main(argv) with stdout captured, as the benchmark runs it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_the_benchmark_calls_run():
    assert cli_run(["identity", "xy", "xy", "--terms", "100000"])[0] == 0
    for fmt in ("plain", "latex", "json"):
        code, out = cli_run(["shuffle", "xy", "xy", "--method", "recursive", "--format", fmt])
        assert code == 0
    assert LinComb.from_json_obj(json.loads(out)) == LinComb([("xyxy", 2), ("xxyy", 4)])
    assert verify.run_suite("res11", 4, jobs=1).ok
    assert verify.run_specialization_sweep(4).ok
    result = numeric.mzv_eval((3, 1), 100_000)
    assert abs(result.value - 0.2705808084277845) <= result.err_est + 1e-15
    assert result.terms_used > 0
    assert parse_word("x^2 y").text == "xxy"
    product = LinComb.term("xyxy", 2) + LinComb.term("xxyy", 4)
    assert shuffle_permutation(Word("xy"), Word("xy")) == product


def test_wrapped_names_are_looked_up_at_call_time(monkeypatch):
    calls = {}

    def counted(owner, attr):
        fn = getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for module, attrs in WRAPPED.items():
        for attr in attrs:
            counted(module, attr)
    for attr in WRAPPED_METHODS:
        counted(LinComb, attr)

    for name in SWEEP_NAMES:
        assert verify.run_suite(name, 6, jobs=1).ok
    assert verify.run_specialization_sweep(6).ok
    assert cli_run(["shuffle", "xy", "xy", "--method", "recursive"])[0] == 0
    assert cli_run(["identity", "xy", "xy", "--terms", "100000"])[0] == 0

    # identity no longer evaluates through mzv_eval (ROADMAP item 6), which
    # the benchmark's accuracy check calls directly
    missed = {key for key, count in calls.items() if not count}
    assert missed <= {"mzvshuffle.numeric.mzv_eval"}
