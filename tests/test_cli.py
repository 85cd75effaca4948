import inspect
import itertools
import json
import math
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
        ("shuffle", "y^300", "y^300", "--method", "recursive"), False, id="shuffle-general-refuses"
    ),
]


@pytest.mark.parametrize("argv,hint", DEEP_PAIRS)
def test_too_deep_for_the_oracle_exits_3(capsys, argv, hint):
    code, out, err = run_cli(capsys, *argv)
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


# pairs past a limit of the enumeration or of the closed form, refused before
# any work; the message names the estimate
WORK_LIMIT_PAIRS = [
    pytest.param(("x^40 y", "x^40 y", "--method", "permutation"),
                 "C(82, 41) interleavings", id="permutation-interleavings"),
    pytest.param(("y^300", "y^300"), "C(600, 300) y-block layouts", id="general-layouts"),
    pytest.param(("x^1000000 y", "x^1000000 y", "--method", "general"),
                 "min(C(2000001, 1), C(2000002, 1000001)) words of 2000002 letters",
                 id="general-letters"),
]


@pytest.mark.parametrize("argv,estimate", WORK_LIMIT_PAIRS)
def test_past_a_work_limit_exits_3(capsys, argv, estimate):
    code, out, err = run_cli(capsys, "shuffle", *argv)
    assert code == 3
    assert out == ""
    assert estimate in err


def test_general_takes_x4000y_xy(capsys):
    # 1.6e7 letters by the bound, 4,003 words of 4,004 letters; 4,001 are printed
    code, out, _ = run_cli(capsys, "shuffle", "x^4000 y", "xy")
    assert code == 0
    assert out.count(" + ") + 1 == 4001


def test_binomial_capped():
    from mzvshuffle.cli import _binomial_capped

    for n in range(13):
        for k in range(n + 1):
            for cap in (1, 10, 100, 10**6):
                got = _binomial_capped(n, k, cap)
                assert got == math.comb(n, k) if math.comb(n, k) <= cap else got > cap
    assert _binomial_capped(2 * 10**6, 10**6, 10**6) > 10**6


def test_general_work_estimates():
    from mzvshuffle.cli import _general_layouts, _general_letters
    from mzvshuffle.closed_form import _layouts, expand_general

    for r in range(1, 7):
        for s in range(1, 7):
            assert _general_layouts(r, s) == len(_layouts(r, s)) + len(_layouts(s, r))
    forms = [exps for depth in (1, 2, 3) for exps in itertools.product(range(3), repeat=depth)]
    for a in forms:
        for b in forms:
            n, m = sum(a) + len(a), sum(b) + len(b)
            printed = len(expand_general(a, b)) * (n + m)
            assert printed <= _general_letters(n, m, len(a) + len(b)), (a, b)
    # x^k y . xy gives the k + 1 words x^i y x^(k+1-i) y, i >= 1; the bound
    # also counts the one that starts with y
    for k in range(1, 40):
        assert _general_letters(k + 1, 2, 2) == (len(expand_general((k,), (1,))) + 1) * (k + 3)


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


def test_verify_weight_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("MZV_MAX_WEIGHT", "6")
    code, _, err = run_cli(capsys, "verify", "general", "--max-weight", "8")
    assert code == 2
    assert "cap" in err
    code, _, _ = run_cli(capsys, "verify", "general", "--max-weight", "6")
    assert code == 0
    for raw in ("-4", "abc"):
        monkeypatch.setenv("MZV_MAX_WEIGHT", raw)
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == 2
        assert "MZV_MAX_WEIGHT" in err
        assert "checked" not in out


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
