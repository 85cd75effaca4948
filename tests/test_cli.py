import inspect
import itertools
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

from mzvshuffle import verify
from mzvshuffle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_latex_zeta_mode(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "xy", "xy", "--format", "latex")
    assert code == 0
    assert out == "2\\zeta(2,2)+4\\zeta(3,1)\n"


def test_shuffle_empty_word(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "", "xy")
    assert code == 0
    assert out == "xy\n"


def test_shuffle_methods_agree(capsys):
    outputs = set()
    for method in ("recursive", "permutation", "general", "auto"):
        code, out, _ = run_cli(capsys, "shuffle", "x^2y", "xy", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_shuffle_auto_runs_the_oracle(capsys, monkeypatch):
    from mzvshuffle import cli

    _, want, _ = run_cli(capsys, "shuffle", "x^2y", "xy", "--method", "recursive")

    def closed_form_must_not_run(a, b):
        raise AssertionError("--method auto ran the closed form")

    monkeypatch.setattr(cli, "expand_general", closed_form_must_not_run)
    code, out, _ = run_cli(capsys, "shuffle", "x^2y", "xy")
    assert code == 0
    assert out == want


def test_shuffle_auto_deep_pair_runs_the_closed_form(capsys):
    # 1,204 and 501 letters: more than the shuffle oracle takes
    for u, v in (("x^1200 y", "xy"), ("y^500", "y")):
        code, out, _ = run_cli(capsys, "shuffle", u, v)
        assert code == 0
        _, want, _ = run_cli(capsys, "shuffle", u, v, "--method", "general")
        assert out == want


# pairs of more than ORACLE_MAX_LETTERS letters, refused before the oracle
# runs; the hint names the closed form when both words end in y
DEEP_PAIRS = [
    pytest.param(("shuffle", "x^1200 y", "x"), False, id="shuffle-auto"),
    pytest.param(("shuffle", "y^1200", "y", "--method", "recursive"), True, id="shuffle-h1"),
    pytest.param(("shuffle", "x^1200", "y", "--method", "recursive"), False, id="shuffle-not-h1"),
    pytest.param(("identity", "x^1200 y", "xy"), False, id="identity"),
    # 802 letters: the product would fill gigabytes
    pytest.param(
        ("shuffle", "x^400 y", "x^400 y", "--method", "recursive"), True, id="shuffle-802"
    ),
    # one letter past the limit
    pytest.param(("shuffle", "y^500", "y", "--method", "recursive"), True, id="shuffle-501"),
    pytest.param(("shuffle", "y^500", "x"), False, id="shuffle-auto-501"),
    pytest.param(("identity", "x^498 y", "xy"), False, id="identity-501"),
    # no hint where the closed form refuses the pair too
    pytest.param(
        ("shuffle", "y^400", "y^400", "--method", "recursive"), False, id="shuffle-general-refuses"
    ),
]


def run_refused(capsys, *argv):
    """run_cli on a pair refused before any work, which takes at most 2 s."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    return code, out, err


@pytest.mark.parametrize("argv,hint", DEEP_PAIRS)
def test_too_deep_for_the_oracle_exits_3(capsys, argv, hint):
    code, out, err = run_refused(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "too many for the recursive shuffle oracle" in err
    assert ("--method general" in err) == hint


@pytest.mark.parametrize("u,v,method", [("y^499", "y", "recursive"), ("y^499", "x", "auto")])
def test_oracle_takes_500_letters(capsys, u, v, method):
    code, out, _ = run_cli(capsys, "shuffle", u, v, "--method", method)
    assert code == 0
    # 500 interleavings: cheap for the enumeration too
    assert out == run_cli(capsys, "shuffle", u, v, "--method", "permutation")[1]


def test_shuffle_does_not_depend_on_the_recursion_limit(capsys):
    argv = ("shuffle", "y^450", "y^40", "--method", "recursive")
    want = run_cli(capsys, *argv)
    assert want[0] == 0
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack()) + 200)
        got = run_cli(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


# pairs past a limit of the enumeration or of the closed form, or with more
# output than cli.MAX_PRINTED_LETTERS (identity: cli.IDENTITY_MAX_LETTERS)
# printed letters, refused before any work; the message names the count
WORK_LIMIT_PAIRS = [
    pytest.param(("shuffle", "x^40 y", "x^40 y", "--method", "permutation"),
                 "C(82, 41) interleavings", id="permutation-interleavings"),
    # 2(r+1)(s+1)(r+s) = 4e10 letters a word in the closed form's walk, past
    # its limit before any count, though C(100000, 1) layouts are few
    pytest.param(("shuffle", "y", "y^99999", "--method", "general"),
                 "2(r+1)(s+1)(r+s) = 40000000000 letters per output word", id="general-walk"),
    pytest.param(("shuffle", "y", "y^99999"),
                 "2(r+1)(s+1)(r+s) = 40000000000 letters per output word", id="auto-general-walk"),
    # 893,040 letters a word, so at most 223 words for the walk's limit
    pytest.param(("shuffle", "x^3 y^60", "x^3 y^60", "--method", "general"),
                 "more than 223 words, at up to 893040 letters each", id="general-walk-words"),
    pytest.param(("shuffle", "x^1000000 y", "x^1000000 y", "--method", "general"),
                 "more than 14 words of 2000002 letters: too many, a shuffle prints at most "
                 "30000000 letters", id="general-letters"),
    pytest.param(("shuffle", "x^1000000 y", "x^1000000 y"),
                 "more than 14 words of 2000002 letters", id="auto-letters"),
    # 316,456 words
    pytest.param(("shuffle", "x^70 y x^3 y", "x y^80 x y", "--method", "recursive"),
                 "more than 189873 words of 158 letters", id="oracle-letters"),
    # 5,200,300 words
    pytest.param(("shuffle", "x^12", "y^13", "--method", "recursive"),
                 "more than 1200000 words of 25 letters", id="oracle-x12-y13"),
    # 999,999 interleavings, under the enumeration's limit, and as many words
    pytest.param(("shuffle", "x^999998", "y", "--method", "permutation"),
                 "more than 30 words of 999999 letters", id="permutation-letters"),
    pytest.param(("identity", "x^70 y x^3 y", "x y^80 x y"),
                 "more than 632 words of 158 letters: too many, identity evaluates at most "
                 "100000 letters", id="identity-letters"),
    # 184,756 words
    pytest.param(("identity", "x^10 y", "x y^10"),
                 "more than 4545 words of 22 letters", id="identity-work"),
]


@pytest.mark.parametrize("argv,count", WORK_LIMIT_PAIRS)
def test_past_a_work_limit_exits_3(capsys, argv, count):
    code, out, err = run_refused(capsys, *argv)
    assert code == 3
    assert out == ""
    assert count in err


@pytest.mark.parametrize("tol", [(), ("--tol", "1e40")])
def test_identity_refuses_a_check_that_cannot_fail(capsys, tol):
    # 101 words of 193 letters: the proven bound, about 3e22, is far above
    # zeta(101) zeta(91), about 1, so a product evaluated as 0 would pass;
    # the bound is known from the two words, so the refusal comes before the
    # shuffle (which alone takes 0.2-0.5 s)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "identity", "x^100 y", "x^90 y", *tol)
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert out == ""
    assert "128 fraction bits" in err


def test_general_takes_x4000y_xy(capsys):
    # 4,001 words of 4,003 letters: 1.6e7 printed letters, within cli.MAX_PRINTED_LETTERS
    from mzvshuffle.closed_form import expand_general
    from mzvshuffle.lincomb import LinComb

    code, out, _ = run_cli(capsys, "shuffle", "x^4000 y", "xy")
    assert code == 0
    assert out.count(" + ") + 1 == 4001
    code, out, _ = run_cli(capsys, "shuffle", "x^4000 y", "xy", "--format", "latex")
    assert code == 0
    assert out.count("+") + 1 == out.count("\\zeta(") == 4001
    code, out, _ = run_cli(capsys, "shuffle", "x^4000 y", "xy", "--format", "json")
    assert code == 0
    assert LinComb.from_json_obj(json.loads(out)) == expand_general((4000,), (1,))


def test_binomial_capped():
    from mzvshuffle.cli import _binomial_capped

    for n in range(13):
        for k in range(n + 1):
            for cap in (1, 10, 100, 10**6):
                got = _binomial_capped(n, k, cap)
                assert got == math.comb(n, k) if math.comb(n, k) <= cap else got > cap
    assert _binomial_capped(2 * 10**6, 10**6, 10**6) > 10**6


def test_general_work_estimates():
    # the closed form's walk holds at most 2(r+1)(s+1) nodes of r+s letters
    # per output word: at most 2(r+1)(s+1) y-block states, no dead node, and
    # distinct prefixes at one state extend to distinct words
    import random

    from mzvshuffle.closed_form import _general_graph
    from mzvshuffle.combinat import binomial_walk

    rng = random.Random(20)
    for r in range(1, 6):
        for s in range(1, 6):
            for top in (0, 1, 3):
                a = tuple(rng.randint(0, top) for _ in range(r))
                b = tuple(rng.randint(0, top) for _ in range(s))
                graph = _general_graph(a, b)
                assert len(graph) <= 2 * (r + 1) * (s + 1)
                out = {}
                nodes = binomial_walk(out, graph, sum(a) + sum(b))
                assert 0 < nodes <= 2 * (r + 1) * (s + 1) * len(out), (a, b)


# y-only pairs of 99,681, 92,378 and C(200, 100) layouts with one output
# word: the walk sums the layouts through each y-block state
@pytest.mark.parametrize("u,v,want", [
    ("y^2", "y^445", "99681*y^447"),
    ("y^9", "y^10", "92378*y^19"),
    ("y^100", "y^100", "90548514656103281165404177077484163874504589675413336841320*y^200"),
])
def test_general_sums_the_layouts_it_shares(capsys, u, v, want):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "shuffle", u, v, "--method", "general")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == want + "\n"


def test_term_count_matches_the_oracle():
    from mzvshuffle.cli import _term_count
    from mzvshuffle.shuffle import _shuffle_raw

    words = [["".join(w) for w in itertools.product("xy", repeat=size)] for size in range(11)]
    for total in range(11):
        for size in range(total + 1):
            for u, v in itertools.product(words[size], words[total - size]):
                terms = len(_shuffle_raw(u, v))
                # exact up to its cap, cap + 1 past it
                assert _term_count(u, v, terms) == _term_count(u, v, terms - 1) == terms, (u, v)


@pytest.mark.parametrize("u,v", [("x" * 10**6 + "y",) * 2, ("x" * 10**7, "y")], ids=["xy-xy", "x-y"])
def test_term_count_stops_past_its_cap(u, v):
    from mzvshuffle.cli import MAX_PRINTED_LETTERS, _term_count

    cap = MAX_PRINTED_LETTERS // len(u + v)
    start = time.perf_counter()
    assert _term_count(u, v, cap) == cap + 1
    assert time.perf_counter() - start < 0.1


def test_shuffle_general_rejects_non_h1(capsys):
    code, _, err = run_cli(capsys, "shuffle", "xy", "yx", "--method", "general")
    assert code == 3
    assert "ending in y" in err


def test_shuffle_parse_error(capsys):
    code, _, err = run_cli(capsys, "shuffle", "x#y", "y")
    assert code == 2
    assert "offset" in err


def test_shuffle_exponent_overflow(capsys):
    code, _, err = run_cli(capsys, "shuffle", "x^99999999", "y")
    assert code == 2
    assert "cap" in err


def test_shuffle_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "schemas" / "lincomb.schema.json").read_text()
    )
    code, out, _ = run_cli(capsys, "shuffle", "xy", "xyy", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


def test_shuffle_deterministic(capsys):
    runs = {run_cli(capsys, "shuffle", "xyy", "x^2y")[1] for _ in range(3)}
    assert len(runs) == 1


def test_zeta_command(capsys):
    code, out, _ = run_cli(capsys, "zeta", "2")
    assert code == 0
    assert out == "zeta(2) = 1.64493406685 +/- 1.11e-16\n"  # pi^2/6 = 1.6449340668482...
    # the parsed index is echoed, not the text as typed
    code, out, _ = run_cli(capsys, "zeta", " 3 , 1 ")
    assert code == 0
    assert out == "zeta(3,1) = 0.270580808428 +/- 2.78e-17\n"


def test_zeta_terms_do_not_change_the_answer(capsys):
    _, out_default, _ = run_cli(capsys, "zeta", "3,1")
    _, out_more, _ = run_cli(capsys, "zeta", "3,1", "--terms", "40000")
    assert out_more == out_default == "zeta(3,1) = 0.270580808428 +/- 2.78e-17\n"


def test_zeta_long_index_answers_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "zeta", "1201")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out == "zeta(1201) = 1 +/- 1.11e-16\n"


def test_zeta_inadmissible(capsys):
    code, _, err = run_cli(capsys, "zeta", "1,2")
    assert code == 3
    code, _, err = run_cli(capsys, "zeta", "x")
    assert code == 2


def test_identity_command(capsys):
    code, out, _ = run_cli(capsys, "identity", "xy", "xy")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(capsys, "identity", "xxy", "xy")
    assert code == 0


def test_identity_inadmissible(capsys):
    code, _, _ = run_cli(capsys, "identity", "y", "xy")
    assert code == 3


def test_identity_out_of_memory_exits_3(capsys, monkeypatch):
    # identity's budget keeps its product small, so no input fills memory
    # under a test's address-space limit; the handler stays for smaller ones
    from mzvshuffle import numeric

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(numeric, "identity_residual_with_bound", out_of_memory)
    code, out, err = run_cli(capsys, "identity", "xy", "xy")
    assert (code, out) == (3, "")
    assert "the product of 2 + 2 letters ran out of memory" in err


def test_identity_impossible_tolerance(capsys):
    code, out, _ = run_cli(capsys, "identity", "xy", "xy", "--tol", "1e-300")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("terms", ["5", "1000000000000"])
@pytest.mark.parametrize("argv", [("zeta", "2"), ("identity", "xy", "xy")], ids=["zeta", "identity"])
def test_terms_out_of_range(capsys, argv, terms):
    code, out, err = run_cli(capsys, *argv, "--terms", terms)
    assert code == 3
    assert err.startswith("error: terms must be between")
    assert out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_identity_rejects_bad_tolerance(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["identity", "xy", "xy", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    _, out, _ = run_cli(capsys, "identity", "xy", "xy", "--tol", "0")  # 0 stays valid
    assert "(tolerance 0)" in out


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "res11", "--max-weight", "6")
    assert code == 0
    assert "[PASS]" in out


def test_verify_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (
            Path(__file__).resolve().parents[1]
            / "docs"
            / "schemas"
            / "verify_report.schema.json"
        ).read_text()
    )
    code, out, _ = run_cli(capsys, "verify", "all", "--max-weight", "5", "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == list(verify.SWEEPS)
    for report in reports:
        jsonschema.validate(report, schema)


def test_verify_weight_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--max-weight", "13")
    assert code == 2
    assert out == ""
    assert err == "error: max weight 13 exceeds the cap 12\n"
    code, _, _ = run_cli(capsys, "verify", "general", "--max-weight", "6")
    assert code == 0


def test_verify_jobs_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "res11", "--max-weight", "7", "--jobs", "2")
    assert code == 0
    assert "[PASS]" in out


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-weight", "6")
    assert code == 0
    assert out.count("[PASS]") == len(verify.SWEEPS) == 10


@pytest.mark.parametrize(
    "argv, message",
    [(("bogus",), "unknown suite"), (("res22", "--max-weight", "-3"), "at least 1")],
)
def test_verify_rejects_bad_suite_or_bound(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_verify_deterministic_output(capsys):
    runs = {run_cli(capsys, "verify", "res11", "--max-weight", "6")[1] for _ in range(2)}
    assert len(runs) == 1


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    def fake_run_suite(name, max_weight=None, jobs=1):
        return verify.VerifyReport(
            suite=name, grid="stub", checked=3, failures=["mismatch at (1,1)"]
        )

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "res11")
    assert code == 1
    assert "[FAIL]" in out
    assert "first failure: mismatch at (1,1)" in out


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("mzvshuffle")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "shuffle", "xy", "y"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "yxy + 2*xy^2"


def test_console_script_declaration_resolves(capsys):
    # test_console_script_installed needs the package installed; this reads
    # the entry point from pyproject.toml and calls it in process
    import importlib

    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["mzvshuffle"]
    module, _, name = target.partition(":")
    code = getattr(importlib.import_module(module), name)(["shuffle", "xy", "y"])
    assert code == 0
    assert capsys.readouterr().out == "yxy + 2*xy^2\n"


def test_python_m_runs_the_cli(capsys, monkeypatch):
    import runpy

    monkeypatch.setattr(sys, "argv", ["mzvshuffle", "shuffle", "xy", "y"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("mzvshuffle", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out == "yxy + 2*xy^2\n"


STDLIB_ONLY = """
import contextlib, importlib, io, pkgutil, sys
import mzvshuffle
from mzvshuffle import cli
for module in pkgutil.iter_modules(mzvshuffle.__path__):
    importlib.import_module("mzvshuffle." + module.name)
runs = (
    ["shuffle", "xy", "xy", "--format", "json"],
    ["verify", "res11", "--max-weight", "4", "--jobs", "2"],
    ["identity", "xy", "xy"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
top = {name.partition(".")[0] for name in sys.modules}
print(codes, sorted(top - set(sys.stdlib_module_names) - {"mzvshuffle", "__main__"}))
"""


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, but the test extras are
    # installed here, so an import of one of them would pass unnoticed: run
    # the package with -S (no site-packages) and list every module it loaded
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r})" + STDLIB_ONLY
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"
