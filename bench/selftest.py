"""Self-tests of the benchmark itself: each workload's check must turn an
injected wrong output into a failure, inputs must follow the seed, and the
metric lists must match BENCHMARK.json.

Run from the root of a checkout:  python3 bench/selftest.py
Exits 0 when every self-test passes; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402
from tracing import LAYER_METRICS, Tracer, cache_metrics, install, layer_metrics  # noqa: E402

lib = w.Library()


def failures_of(check, *args) -> dict:
    found = {}
    check(*args, found)
    return found


def small_sweep():
    ops = [op for op in w.make_inputs("table-sweep", 3) if op[1] <= 6]
    return ops, [w.run_op(lib, op) for op in ops]


def test_solve_check_catches_perturbed_estimate():
    ops, results = small_sweep()
    assert failures_of(w.check_solves, lib, ops, results, range(len(ops))) == {}
    # Shift one bracket by 1e-6: still a valid-looking narrow interval, but
    # symmetry with its mirror and the certificate both break.
    i = next(k for k, op in enumerate(ops) if op[1:3] == (5, 4))
    shift = Fraction(1, 10**6)
    est = results[i]
    results[i] = dataclasses.replace(est, value=est.value + 1e-6, value_exact=est.value_exact + shift,
                                     bracket=(est.bracket[0] + shift, est.bracket[1] + shift))
    assert i in failures_of(w.check_solves, lib, ops, results, [i])
    assert i in failures_of(w.check_solves, lib, ops, results, [])


def test_solve_check_catches_wide_bracket_and_fake_root():
    ops, results = small_sweep()
    i = next(k for k, op in enumerate(ops) if op[1:3] == (4, 1))
    est = results[i]
    results[i] = dataclasses.replace(est, bracket=(est.bracket[0] - Fraction(1, 10**9), est.bracket[1]))
    assert i in failures_of(w.check_solves, lib, ops, results, [])
    results[i] = dataclasses.replace(est, residual=0.0)
    assert i in failures_of(w.check_solves, lib, ops, results, [])


def test_golden_ratio_case():
    ops = [("solve", 1, 1, w.TABLE_TOL)]
    est = w.run_op(lib, ops[0])
    assert failures_of(w.check_solves, lib, ops, [est], [0]) == {}
    wrong = dataclasses.replace(est, value=est.value + 1e-11)
    assert 0 in failures_of(w.check_solves, lib, ops, [wrong], [])


def test_audit_check_catches_dropped_case_and_bad_cross_check():
    Report = lib.identities.IdentityReport
    reports = [Report(name, "p", cases, True) for name, cases in w.AUDIT_CASES.items()]
    assert w.check_reports(reports) == ""
    dropped = list(reports)
    dropped[3] = Report("core-positivity", "p", 7739, True)
    assert w.check_reports(dropped) != ""
    failing = list(reports)
    failing[0] = Report("gould-1.41", "p", 930, False, "m=1, x=0")
    assert w.check_reports(failing) != ""
    ops = [("fixed_point", 7, 2), ("run_all",)]
    fp = w.run_op(lib, ops[0])
    assert failures_of(w.check_audit, lib, ops, [fp, reports]) == {}
    off = dataclasses.replace(fp, value=fp.value + 1e-6)
    assert set(failures_of(w.check_audit, lib, ops, [off, dropped])) == {0, 1}


def test_cli_check_catches_wrong_exit_code_and_output():
    assert w.check_cli("usage-error", 2, b"") == ""
    assert w.check_cli("usage-error", 0, b"") != ""
    good = w.golden_stdout("estimate-golden")
    assert w.check_cli("estimate-golden", 0, good) == ""
    assert w.check_cli("estimate-golden", 1, good) != ""
    assert w.check_cli("estimate-golden", 0, good.replace(b"0.618034", b"0.618035")) != ""


def test_inputs_follow_the_seed():
    for workload in w.WORKLOADS:
        assert w.make_inputs(workload, 11) == w.make_inputs(workload, 11)
    a, b = w.make_inputs("large-n", 11), w.make_inputs("large-n", 12)
    assert a != b
    assert sorted(op[1:] for op in a) != sorted(op[1:] for op in b)
    ns = [op[1] for op in a]
    assert all(200 <= n <= 800 for n in ns) and len(a) == 4 * w.LARGE_N_STRATA
    assert sorted(w.make_inputs("table-sweep", 1)) == sorted(w.make_inputs("table-sweep", 2))
    assert len(w.make_inputs("table-sweep", 1)) == 1890
    audit = [sorted(op[1:] for op in w.make_inputs("audit", seed) if op[0] == "fixed_point")
             for seed in (11, 12)]
    assert audit[0] != audit[1] and len(audit[0]) == len(audit[1]) == len(set(audit[0]))
    for n in range(1, w.AUDIT_FIXED_POINT_N_MAX + 1):
        xs = [x for m, x in audit[0] if m == n]
        assert len(xs) == min(n + 1, w.AUDIT_X_STRATA) and all(0 <= x <= n for x in xs)


def fake_prober(starts, durations):
    prober = speed.Prober()
    prober.starts, prober.durations = list(starts), list(durations)
    prober.prepare()
    return prober


def test_reference_speed_rescaling():
    ref = speed.PROBE_REF_S
    # Probes every 10 ms, twice the reference time: everything counts half.
    steady = fake_prober([0.01 * k for k in range(100)], [2 * ref] * 100)
    assert abs(steady.normalise(0.1005, 0.1095) - 0.0045) < 1e-12
    # A probe inside an interval is taken out of it, raw and rescaled.
    assert abs(steady.raw(0.095, 0.115) - (0.02 - 4 * ref)) < 1e-12
    assert abs(steady.normalise(0.095, 0.115) - (0.01 - 2 * ref)) < 1e-12
    # Speed halves at t = 0.5: a second before it counts 1, after it 0.5.
    shift = fake_prober([0.01 * k for k in range(100)], [ref] * 50 + [2 * ref] * 50)
    assert abs(shift.normalise(0.2005, 0.2095) - 0.009) < 1e-12
    assert abs(shift.normalise(0.8005, 0.8095) - 0.0045) < 1e-12
    assert abs(speed.rescale(3.0, [0.01, 0.03, 0.03], 0.01) - 1.0) < 1e-12


def test_prober_runs_during_a_long_call():
    prober = speed.Prober()
    prober.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.3:
        pass
    end = time.perf_counter()
    prober.stop()
    inside = [t for t in prober.starts if start < t < end]
    assert len(inside) >= 5
    assert 0 < prober.raw(start, end) < end - start
    assert prober.normalise(start, end) > 0


def test_tracer_restores_and_counts():
    original = lib.exact.sign_at
    tracer = Tracer()
    install(tracer, lib)
    assert lib.exact.sign_at is not original
    lib.triangle.solve_iterative_bayes(lib.obs(3, 1))
    tracer.restore()
    assert lib.exact.sign_at is original and lib.identities.sign_at is original
    metrics = layer_metrics(tracer, cache_metrics(lib))
    assert metrics["exact.bisect_root.calls"] == 1
    assert metrics["exact.bisect_root.evals_per_call"] == (
        metrics["exact.sign_at.calls"] + metrics["exact.eval_rational.calls"])
    assert metrics["triangle.estimating_polynomial.degree_max"] == 5


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [wl["name"] for wl in spec["workloads"]] == list(w.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
