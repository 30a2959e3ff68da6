import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterbayes
import iterbayes.risk as risk
import iterbayes.triangle as triangle
import iterbayes.identities as identities
from iterbayes.cli import (MAX_GOULD, MAX_MC_DRAWS, MAX_N_POINTWISE, MAX_N_SYMBOLIC,
                           MAX_RISK_TERMS, MAX_TRIAL_BITS, MAX_TRIALS, _check_trials, main)

from reference_tables import PRINT_TOL, TABLE2, TABLE3

# The benchmark's CLI script and golden outputs, loaded from bench/ by path.
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_golden_default(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "1", "--x", "1")
        assert code == 0
        assert "value      0.618034" in out
        assert "method     bisection" in out
        assert "bracket" in out

    def test_invalid_n_exits_2(self, capsys):
        code, _, err = run(capsys, "estimate", "--n", "0", "--x", "0")
        assert code == 2
        assert "error:" in err

    def test_x_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "estimate", "--n", "2", "--x", "3")
        assert code == 2 and "error:" in err

    def test_geometric(self, capsys):
        code, out, _ = run(capsys, "estimate", "--geometric", "--x", "3")
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(0.639, abs=PRINT_TOL)

    def test_geometric_x0_residual_on_the_geometric_scale(self, capsys):
        # Half the residual of the binomial solve for 0 successes in 1 trial.
        _, geo, _ = run(capsys, "estimate", "--geometric", "--x", "0")
        _, nb, _ = run(capsys, "estimate", "--neg-binomial", "1", "--x", "0")
        assert "residual   2.627e-13" in geo
        assert "residual   5.255e-13" in nb

    def test_residual_is_not_bounded_by_tol(self, capsys):
        # tol bounds the bracket width; the residual |J(midpoint)| can be
        # far above it for a large n.
        code, out, _ = run(capsys, "estimate", "--n", "1000", "--x", "400")
        assert code == 0 and "residual   2.343e-07" in out

    def test_negative_binomial(self, capsys):
        code, out, _ = run(capsys, "estimate", "--neg-binomial", "2", "--x", "0")
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(0.309, abs=PRINT_TOL)

    def test_characteristic_closed_form(self, capsys):
        code, out, _ = run(capsys, "estimate", "--characteristic", "1", "2",
                           "--n", "1", "--x", "1")
        assert code == 0
        assert "value      0.666667" in out
        assert "method     closed-form" in out

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_non_finite_characteristic_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "estimate", "--characteristic", "inf", "inf",
                             "--n", "3", "--x", "1", "--format", fmt)
        assert code == 2 and out == ""
        assert "finite" in err

    def test_geometric_with_n_rejected(self, capsys):
        code, _, err = run(capsys, "estimate", "--geometric", "--n", "2", "--x", "1")
        assert code == 2 and "error:" in err

    def test_missing_arguments_rejected(self, capsys):
        code, _, err = run(capsys, "estimate", "--x", "1")
        assert code == 2 and "error:" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "1", "--x", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.618034)
        assert payload["method"] == "bisection"
        assert len(payload["bracket"]) == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "1", "--x", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value,method,iterations,residual,bracket_lo,bracket_hi"
        assert lines[1].startswith("0.618034,bisection,")
        assert "\r\n" in out  # RFC-4180 line endings

    def test_digits_flag(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "1", "--x", "1", "--digits", "12")
        assert code == 0
        assert "0.618033988750" in out

    def test_digits_validated(self, capsys):
        code, _, err = run(capsys, "estimate", "--n", "1", "--x", "1", "--digits", "20")
        assert code == 2 and "digits" in err

    def test_tol_validated(self, capsys):
        for command in (("estimate", "--n", "1", "--x", "1"), ("table", "table2"),
                        ("table", "table3")):
            for tol in ("0", "-1e-12", "inf", "nan"):
                code, out, err = run(capsys, *command, "--tol", tol)
                assert code == 2 and "tol" in err and out == ""

    # Each way of naming the trial count: --n, x + 1 and x + R.  A coarse
    # --tol keeps the solve at the ceiling short.
    @staticmethod
    def _trials(n):
        return [("--n", str(n), "--x", str(n)),
                ("--geometric", "--x", str(n - 1)),
                ("--neg-binomial", "3", "--x", str(n - 3))]

    def test_ceiling_is_solved(self, capsys):
        for flags in self._trials(MAX_TRIALS):
            code, out, err = run(capsys, "estimate", *flags, "--tol", "0.1", "--format", "json")
            assert code == 0 and err == ""
            payload = json.loads(out)
            lo, hi = payload["bracket"]
            assert 0.999 < lo <= payload["value"] <= hi < 1

    def test_above_ceiling_exits_2(self, capsys):
        for flags in self._trials(MAX_TRIALS + 1):
            code, out, err = run(capsys, "estimate", *flags)
            assert code == 2 and out == ""
            assert err == (f"error: {MAX_TRIALS + 1} trials is above the ceiling "
                           f"of {MAX_TRIALS} that one estimate or table command solves\n")

    @pytest.mark.parametrize("form", range(3), ids=["n", "geometric", "neg-binomial"])
    def test_tol_ceiling_exits_2_without_solving(self, capsys, monkeypatch, form):
        # 1000 trials at tol 5e-324 is 1000 x 1074 bits, 8% above
        # MAX_TRIALS x log2(1e30).
        def no_solve(*args, **kwargs):
            raise AssertionError("estimate built a polynomial")

        monkeypatch.setattr(triangle, "solve_iterative_bayes", no_solve)
        monkeypatch.setattr(triangle, "estimating_polynomial", no_solve)
        code, out, err = run(capsys, "estimate", *self._trials(1000)[form], "--tol", "5e-324")
        assert code == 2 and out == ""
        assert err == (f"error: 1000 trials at --tol 5e-324 is above the ceiling of "
                       f"{MAX_TRIAL_BITS:.0f} for trials x log2(1/tol) that one estimate or "
                       f"table command solves\n")

    def test_tol_ceiling_admits_max_trials_at_1e30(self):
        _check_trials(MAX_TRIALS, 1e-30)
        _check_trials(1, 5e-324)
        with pytest.raises(ValueError, match="log2"):
            _check_trials(MAX_TRIALS, 1e-31)

    def test_ceiling_in_help(self, capsys):
        code, out, _ = run(capsys, "estimate", "--help")
        assert code == 0
        assert f"at most {MAX_TRIALS} trials" in " ".join(out.split())
        assert f"at most {MAX_TRIAL_BITS:.0f} trials x log2(1/tol)" in " ".join(out.split())


class TestTable:
    def test_table2_matches_reference(self, capsys):
        code, out, _ = run(capsys, "table", "table2", "--n-max", "10", "--digits", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        row7 = lines[6].split()
        assert row7[0] == "n=7"
        want = [TABLE2[(7, x)] for x in range(8)]
        assert [float(v) for v in row7[1:]] == pytest.approx(want, abs=PRINT_TOL)

    def test_table2_json_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "table2", "--n-max", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["estimate"] == pytest.approx(0.382, abs=PRINT_TOL)
        assert payload[1]["estimate"] == pytest.approx(0.618, abs=PRINT_TOL)

    def test_table3_row(self, capsys):
        code, out, _ = run(capsys, "table", "table3", "--digits", "3")
        assert code == 0
        values = [float(v) for v in out.split()]
        assert values == pytest.approx(list(TABLE3), abs=PRINT_TOL)

    def test_table2_csv_long_format(self, capsys):
        code, out, _ = run(capsys, "table", "table2", "--n-max", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,x,estimate"
        assert len(lines) == 1 + 2 + 3
        assert lines[1].startswith("1,0,0.38")
        assert "." in lines[1].split(",")[2]  # point decimal separator

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "table2", "--n-max", "6")
        _, second, _ = run(capsys, "table", "table2", "--n-max", "6")
        assert first == second

    def test_n_max_validated(self, capsys):
        code, _, err = run(capsys, "table", "table2", "--n-max", "0")
        assert code == 2 and "error:" in err

    # The largest tables under MAX_TRIALS: table2 --n-max 30 solves
    # 30 * 31 * 32 / 3 = 9920 trials, table3 --x-max 139 solves 140 * 141 / 2 = 9870.
    @pytest.mark.parametrize("args, rows", [(("table2", "--n-max", "30"), 31 * 32 // 2 - 1),
                                            (("table3", "--x-max", "139"), 140)],
                             ids=["table2", "table3"])
    def test_ceiling_is_solved(self, capsys, args, rows):
        code, out, err = run(capsys, "table", *args, "--format", "json")
        assert code == 0 and err == ""
        assert len(json.loads(out)) == rows

    @pytest.mark.parametrize("args, message", [
        (("table2", "--n-max", "31"), f"10912 trials is above the ceiling of {MAX_TRIALS}"),
        (("table3", "--x-max", "140"), f"10011 trials is above the ceiling of {MAX_TRIALS}"),
        (("table2", "--n-max", "30", "--tol", "1e-31"), "9920 trials at --tol 1e-31 is above"),
        (("table3", "--x-max", "139", "--tol", "1e-31"), "9870 trials at --tol 1e-31 is above"),
    ], ids=["table2", "table3", "table2-tol", "table3-tol"])
    def test_above_ceiling_exits_2_without_solving(self, capsys, monkeypatch, args, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("table solved")

        monkeypatch.setattr(triangle, "solve_iterative_bayes", no_solve)
        monkeypatch.setattr(triangle, "geometric_estimate", no_solve)
        code, out, err = run(capsys, "table", *args)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")
        assert err.endswith("that one estimate or table command solves\n")

    def test_table2_solves_only_the_lower_half(self, capsys, monkeypatch):
        # Rows x > n/2 are reflected from x < n/2: 120 of table2's 230 solves.
        solved = []
        solve = triangle.solve_iterative_bayes

        def counted(obs, tol):
            solved.append(obs)
            return solve(obs, tol=tol)

        monkeypatch.setattr(triangle, "solve_iterative_bayes", counted)
        code, out, _ = run(capsys, "table", "table2", "--n-max", "20", "--format", "json")
        assert code == 0 and len(json.loads(out)) == 230
        assert len(solved) == 120 and all(2 * obs.x <= obs.n for obs in solved)

    def test_ceiling_in_help(self, capsys):
        code, out, _ = run(capsys, "table", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert f"at most {MAX_TRIALS} trials in all" in text
        assert "so N <= 30" in text and "so X <= 139" in text


class TestVerify:
    ARGS = ("verify", "--n-max-symbolic", "3", "--n-max-pointwise", "4", "--gould-max", "4")
    CEILINGS = [("--n-max-symbolic", MAX_N_SYMBOLIC), ("--n-max-pointwise", MAX_N_POINTWISE),
                ("--gould-max", MAX_GOULD)]

    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)

    def test_self_test_fails_with_counterexample(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--self-test")
        assert code == 1
        assert any(line.startswith("FAIL") for line in out.splitlines())
        assert "coefficient" in out
        assert "self-test" in err

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all(record["passed"] for record in payload)
        again = json.dumps(json.loads(json.dumps(payload, sort_keys=True)), sort_keys=True)
        assert again == json.dumps(payload, sort_keys=True)

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "identity,params,cases,passed,counterexample"

    @pytest.mark.parametrize("flag", ["--n-max-symbolic", "--n-max-pointwise", "--gould-max"])
    def test_empty_ranges_rejected(self, capsys, flag):
        for bound in ("0", "-3"):
            code, out, err = run(capsys, *self.ARGS, flag, bound)
            assert code == 2 and flag in err and out == ""

    @pytest.mark.parametrize("flag, ceiling", CEILINGS)
    def test_above_ceiling_exits_2_before_any_identity(self, capsys, monkeypatch, flag, ceiling):
        def no_run(*args, **kwargs):
            raise AssertionError("verify ran an identity")

        monkeypatch.setattr(identities, "run_all", no_run)
        code, out, err = run(capsys, *self.ARGS, flag, str(ceiling + 1))
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be between 1 and {ceiling}\n"

    @pytest.mark.parametrize("flag, ceiling", CEILINGS)
    def test_ceiling_is_admitted(self, capsys, monkeypatch, flag, ceiling):
        # The check alone: an empty suite stands in for the identities.
        monkeypatch.setattr(identities, "run_all", lambda **kwargs: [])
        code, _, err = run(capsys, *self.ARGS, flag, str(ceiling))
        assert code == 0 and err == ""

    def test_ceilings_in_help(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert (f"--n-max-symbolic up to {MAX_N_SYMBOLIC}, --n-max-pointwise up to "
                f"{MAX_N_POINTWISE} and --gould-max up to {MAX_GOULD}; more exits with code 2") in text


class TestCompare:
    def test_shape_and_values(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "1", "--grid", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,MLE,UniformBayes,JeffreysBayes,IterativeBayesTriangle"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.5
        assert float(mid[1]) == pytest.approx(0.25)

    def test_symmetric_rows_identical(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "3", "--grid", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()[1:]
        for i in range(len(lines)):
            low = lines[i].split(",")[1:]
            high = lines[len(lines) - 1 - i].split(",")[1:]
            assert low == high

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(capsys, "compare", "--n", "1", "--grid", "3", "--mc", "100")
        assert code == 2 and "seed" in err

    def test_mc_sample_count_validated(self, capsys):
        code, _, err = run(capsys, "compare", "--n", "1", "--grid", "3",
                           "--mc", "1", "--seed", "3")
        assert code == 2 and "samples" in err

    def test_mc_columns_deterministic(self, capsys):
        args = ("compare", "--n", "1", "--grid", "3", "--mc", "200", "--seed", "9",
                "--format", "csv")
        code, first, _ = run(capsys, *args)
        assert code == 0
        assert first.splitlines()[0].endswith("IterativeBayesTriangle_mc")
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_n_above_limit_exits_2_without_solving(self, capsys, monkeypatch):
        def no_solve(n, x):
            raise AssertionError("compare solved an estimate")

        monkeypatch.setattr(risk, "_triangle_value", no_solve)
        for n in ("1030", "100000000"):
            code, out, err = run(capsys, "compare", "--n", n, "--grid", "2")
            assert code == 2 and out == ""
            assert "error:" in err and "1029" in err

    # Work per column: --grid x (--n + 1) risk terms, --grid x --mc x (--n + 7)
    # draws, seven for each sample's fixed work.
    @pytest.mark.parametrize("args, message", [
        (("--n", "5", "--grid", "100000000"), "is 600000000 risk terms per column"),
        (("--n", "1029", "--grid", "102"), "is 105060 risk terms per column"),
        (("--n", "1", "--grid", "52016"), "is 104032 risk terms per column"),
        (("--n", "5", "--grid", "11", "--mc", "1000000000"), "is 132000000000 draws per column"),
        (("--n", "10", "--grid", "10", "--mc", "58824"), "is 10000080 draws per column"),
        (("--n", "1", "--grid", "2", "--mc", "625001"), "is 10000016 draws per column"),
    ], ids=["grid", "grid-n-max", "grid-n-1", "mc", "mc-edge", "mc-n-1"])
    def test_above_ceiling_exits_2_without_solving(self, capsys, monkeypatch, args, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("compare solved")

        monkeypatch.setattr(risk, "_triangle_value", no_solve)
        monkeypatch.setattr(risk, "compare", no_solve)
        code, out, err = run(capsys, "compare", *args, "--seed", "1")
        assert code == 2 and out == ""
        assert message in err
        assert f"above the ceiling of {MAX_MC_DRAWS if '--mc' in args else MAX_RISK_TERMS}" in err

    @pytest.mark.parametrize("args", [("--n", "1029", "--grid", "101"),
                                      ("--n", "1", "--grid", "52015"),
                                      ("--n", "10", "--grid", "10", "--mc", "58823"),
                                      ("--n", "1", "--grid", "2", "--mc", "625000")],
                             ids=["grid-n-max", "grid-n-1", "mc", "mc-n-1"])
    def test_ceiling_is_admitted(self, capsys, monkeypatch, args):
        # The checks alone: a small table stands in for the solves and draws.
        small = risk.compare(1, 2)
        monkeypatch.setattr(risk, "compare", lambda n, grid_size: small)
        monkeypatch.setattr(risk, "monte_carlo_mse", lambda *args, **kwargs: (0.0, 0.0))
        code, _, err = run(capsys, "compare", *args, "--seed", "1")
        assert code == 0 and err == ""

    def test_library_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        # A ValueError from inside risk.compare (say, an estimate outside
        # [0, 1]) is a fault of the program, not exit 2.
        def fault(n, grid_size):
            raise ValueError("estimate outside [0, 1]")

        monkeypatch.setattr(risk, "compare", fault)
        with pytest.raises(ValueError, match="outside"):
            main(["compare", "--n", "2", "--grid", "3"])

    def test_limit_in_help(self, capsys):
        code, out, _ = run(capsys, "compare", "--help")
        assert code == 0 and "1029" in out
        text = " ".join(out.split())
        assert f"at most {MAX_RISK_TERMS} risk terms per column" in text
        assert f"at most {MAX_MC_DRAWS} variates per column, --grid x SAMPLES x (--n + 7)" in text

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "2", "--grid", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert set(payload[0]) == {"p", "MLE", "UniformBayes", "JeffreysBayes",
                                   "IterativeBayesTriangle"}


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "estimate" in out and "verify" in out

    def test_module_entry_point(self):
        # the child imports the same package as this test, installed or not
        src = str(Path(iterbayes.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "iterbayes", "estimate", "--n", "1", "--x", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "0.618034" in proc.stdout


# A child process runs one command through cli.main and prints its exit
# code and every iterbayes module it loaded.
LOADED_BY = """
import contextlib, io, sys
from iterbayes.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("iterbayes.")))
"""
HEAVY = {"iterbayes.identities", "iterbayes.risk", "iterbayes.conjugate"}


def _child(*argv):
    src = str(Path(iterbayes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60).stdout.split()


@pytest.mark.parametrize("argv, code, loads", [
    (("estimate", "--n", "1", "--x", "1"), "0", set()),
    (("table", "table2"), "0", set()),
    (("estimate", "--n", "3"), "2", set()),
    (("estimate", "--characteristic", "1", "2", "--n", "1", "--x", "1"), "0",
     {"iterbayes.conjugate"}),
], ids=["estimate", "table2", "usage-error", "characteristic"])
def test_each_command_loads_only_what_it_runs(argv, code, loads):
    got_code, *modules = _child("-c", LOADED_BY, *argv)
    assert got_code == code
    assert HEAVY & set(modules) == loads


def test_lazy_top_level_names_resolve():
    assert _child("-c", "import sys, iterbayes\n"
                        "print('iterbayes.conjugate' in sys.modules)\n"
                        "from iterbayes import characteristic_limit\n"
                        "print(characteristic_limit.__module__,"
                        " iterbayes.iterate_binomial_characteristic.__module__)") == [
        "False", "iterbayes.conjugate", "iterbayes.conjugate"]


@pytest.mark.parametrize("name, argv, want_code", workloads.CLI_COMMANDS,
                         ids=[name for name, _, _ in workloads.CLI_COMMANDS])
def test_golden_output(name, argv, want_code):
    # stdout captured as bench/worker.py captures it, compared byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == want_code
    assert out.getvalue().encode() == workloads.golden_stdout(name)


# Every CSV and JSON writer, byte for byte: each command and format, the
# --mc columns, verify's failing counterexample and estimate without a bracket.
MACHINE_OUTPUT = [
    ("table2-csv", ("table", "table2", "--n-max", "3", "--format", "csv"), 0,
     'n,x,estimate\r\n'
     '1,0,0.381966\r\n'
     '1,1,0.618034\r\n'
     '2,0,0.308586\r\n'
     '2,1,0.500000\r\n'
     '2,2,0.691414\r\n'
     '3,0,0.258729\r\n'
     '3,1,0.419308\r\n'
     '3,2,0.580692\r\n'
     '3,3,0.741271\r\n'),
    ("table2-json", ("table", "table2", "--n-max", "3", "--format", "json"), 0,
     '[{"n": 1, "x": 0, "estimate": 0.381966}, '
     '{"n": 1, "x": 1, "estimate": 0.618034}, '
     '{"n": 2, "x": 0, "estimate": 0.308586}, '
     '{"n": 2, "x": 1, "estimate": 0.5}, '
     '{"n": 2, "x": 2, "estimate": 0.691414}, '
     '{"n": 3, "x": 0, "estimate": 0.258729}, '
     '{"n": 3, "x": 1, "estimate": 0.419308}, '
     '{"n": 3, "x": 2, "estimate": 0.580692}, '
     '{"n": 3, "x": 3, "estimate": 0.741271}]\n'),
    ("table3-csv", ("table", "table3", "--x-max", "3", "--format", "csv"), 0,
     'x,estimate\r\n'
     '0,0.381966\r\n'
     '1,0.500000\r\n'
     '2,0.580692\r\n'
     '3,0.639122\r\n'),
    ("table3-json", ("table", "table3", "--x-max", "3", "--format", "json"), 0,
     '[{"x": 0, "estimate": 0.381966}, '
     '{"x": 1, "estimate": 0.5}, '
     '{"x": 2, "estimate": 0.580692}, '
     '{"x": 3, "estimate": 0.639122}]\n'),
    ("verify-csv", TestVerify.ARGS + ("--format", "csv"), 0,
     'identity,params,cases,passed,counterexample\r\n'
     'gould-1.41,"m<=(4), x<=(4)",20,True,\r\n'
     'gould-1.83,x<=(4),5,True,\r\n'
     'estimating-polynomial-factorization,"n<=(3), all x",9,True,\r\n'
     'core-positivity,"n<=(4), all x, 9-point grid",126,True,\r\n'
     'endpoint-signs,"n<=(4), all x",42,True,\r\n'),
    ("verify-json", TestVerify.ARGS + ("--format", "json"), 0,
     '[{"identity": "gould-1.41", "params": "m<=(4), x<=(4)", "cases": 20, "passed": true, "counterexample": null}, '
     '{"identity": "gould-1.83", "params": "x<=(4)", "cases": 5, "passed": true, "counterexample": null}, '
     '{"identity": "estimating-polynomial-factorization", "params": "n<=(3), all x", "cases": 9, "passed": true, "counterexample": null}, '
     '{"identity": "core-positivity", "params": "n<=(4), all x, 9-point grid", "cases": 126, "passed": true, "counterexample": null}, '
     '{"identity": "endpoint-signs", "params": "n<=(4), all x", "cases": 42, "passed": true, "counterexample": null}]\n'),
    ("verify-self-test-csv", TestVerify.ARGS + ("--self-test", "--format", "csv"), 1,
     'identity,params,cases,passed,counterexample\r\n'
     'gould-1.41,"m<=(4), x<=(4)",20,True,\r\n'
     'gould-1.83,x<=(4),5,True,\r\n'
     'estimating-polynomial-factorization,"n<=(3), all x",2,False,"n=1, x=1: coefficient of a^3 differs (3 vs 2)"\r\n'
     'core-positivity,"n<=(4), all x, 9-point grid",126,True,\r\n'
     'endpoint-signs,"n<=(4), all x",42,True,\r\n'),
    ("verify-self-test-json", TestVerify.ARGS + ("--self-test", "--format", "json"), 1,
     '[{"identity": "gould-1.41", "params": "m<=(4), x<=(4)", "cases": 20, "passed": true, "counterexample": null}, '
     '{"identity": "gould-1.83", "params": "x<=(4)", "cases": 5, "passed": true, "counterexample": null}, '
     '{"identity": "estimating-polynomial-factorization", "params": "n<=(3), all x", "cases": 2, "passed": false, "counterexample": "n=1, x=1: coefficient of a^3 differs (3 vs 2)"}, '
     '{"identity": "core-positivity", "params": "n<=(4), all x, 9-point grid", "cases": 126, "passed": true, "counterexample": null}, '
     '{"identity": "endpoint-signs", "params": "n<=(4), all x", "cases": 42, "passed": true, "counterexample": null}]\n'),
    ("compare-csv", ("compare", "--n", "2", "--grid", "3", "--format", "csv"), 0,
     'p,MLE,UniformBayes,JeffreysBayes,IterativeBayesTriangle\r\n'
     '0.000000,0.000000,0.062500,0.027778,0.095225\r\n'
     '0.500000,0.125000,0.031250,0.055556,0.018320\r\n'
     '1.000000,0.000000,0.062500,0.027778,0.095225\r\n'),
    ("compare-json", ("compare", "--n", "2", "--grid", "3", "--format", "json"), 0,
     '[{"p": 0.0, "MLE": 0.0, "UniformBayes": 0.0625, "JeffreysBayes": 0.027778, "IterativeBayesTriangle": 0.095225}, '
     '{"p": 0.5, "MLE": 0.125, "UniformBayes": 0.03125, "JeffreysBayes": 0.055556, "IterativeBayesTriangle": 0.01832}, '
     '{"p": 1.0, "MLE": 0.0, "UniformBayes": 0.0625, "JeffreysBayes": 0.027778, "IterativeBayesTriangle": 0.095225}]\n'),
    ("compare-mc-csv", ("compare", "--n", "2", "--grid", "3", "--mc", "50", "--seed", "1", "--format", "csv"), 0,
     'p,MLE,UniformBayes,JeffreysBayes,IterativeBayesTriangle,MLE_mc,UniformBayes_mc,JeffreysBayes_mc,IterativeBayesTriangle_mc\r\n'
     '0.000000,0.000000,0.062500,0.027778,0.095225,0.000000,0.062500,0.027778,0.095225\r\n'
     '0.500000,0.125000,0.031250,0.055556,0.018320,0.145000,0.033750,0.046667,0.020518\r\n'
     '1.000000,0.000000,0.062500,0.027778,0.095225,0.000000,0.062500,0.027778,0.095225\r\n'),
    ("compare-mc-json", ("compare", "--n", "2", "--grid", "3", "--mc", "50", "--seed", "1", "--format", "json"), 0,
     '[{"p": 0.0, "MLE": 0.0, "UniformBayes": 0.0625, "JeffreysBayes": 0.027778, "IterativeBayesTriangle": 0.095225, "MLE_mc": 0.0, "UniformBayes_mc": 0.0625, "JeffreysBayes_mc": 0.027778, "IterativeBayesTriangle_mc": 0.095225}, '
     '{"p": 0.5, "MLE": 0.125, "UniformBayes": 0.03125, "JeffreysBayes": 0.055556, "IterativeBayesTriangle": 0.01832, "MLE_mc": 0.145, "UniformBayes_mc": 0.03375, "JeffreysBayes_mc": 0.046667, "IterativeBayesTriangle_mc": 0.020518}, '
     '{"p": 1.0, "MLE": 0.0, "UniformBayes": 0.0625, "JeffreysBayes": 0.027778, "IterativeBayesTriangle": 0.095225, "MLE_mc": 0.0, "UniformBayes_mc": 0.0625, "JeffreysBayes_mc": 0.027778, "IterativeBayesTriangle_mc": 0.095225}]\n'),
    ("estimate-characteristic-csv", ("estimate", "--characteristic", "1", "2", "--n", "3", "--x", "1", "--format", "csv"), 0,
     'value,method,iterations,residual,bracket_lo,bracket_hi\r\n'
     '0.400000,closed-form,0,0.000e+00,,\r\n'),
    ("estimate-characteristic-json", ("estimate", "--characteristic", "1", "2", "--n", "3", "--x", "1", "--format", "json"), 0,
     '{"value": 0.4, "method": "closed-form", "iterations": 0, "residual": 0.0, "bracket": null}\n'),
    ("estimate-exact-root-json", ("estimate", "--n", "2", "--x", "1", "--format", "json"), 0,
     '{"value": 0.5, "method": "bisection", "iterations": 1, "residual": 0.0, "bracket": [0.4, 0.6]}\n'),
]


@pytest.mark.parametrize("name, argv, want_code, want_out", MACHINE_OUTPUT,
                         ids=[case[0] for case in MACHINE_OUTPUT])
def test_machine_readable_output(capsys, name, argv, want_code, want_out):
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert out == want_out
