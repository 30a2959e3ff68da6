import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from iterbayes.cli import main

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


class TestVerify:
    ARGS = ("verify", "--n-max-symbolic", "3", "--n-max-pointwise", "4", "--gould-max", "4")

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
        proc = subprocess.run(
            [sys.executable, "-m", "iterbayes", "estimate", "--n", "1", "--x", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "0.618034" in proc.stdout


@pytest.mark.parametrize("name, argv, want_code", workloads.CLI_COMMANDS,
                         ids=[name for name, _, _ in workloads.CLI_COMMANDS])
def test_golden_output(name, argv, want_code):
    # stdout captured as bench/worker.py captures it, compared byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == want_code
    assert out.getvalue().encode() == workloads.golden_stdout(name)
