"""One pass of one workload, in a fresh interpreter.

Started by ``bench/run.py`` as ``python3 -I bench/worker.py ROOT WORKLOAD
SEED PASS MODE``, MODE 0 (untraced), 1 (traced) or ``setup`` (print the
time at which set-up is done, and stop).  Imports the package from ROOT/src (and checks that it
did), builds the seeded inputs, warms up, runs the timed operations with the
speed probe of ``speed.py``, reads peak memory, and only then checks the
outputs.  Prints one JSON object; times are given both raw and at the
reference speed, span times of a traced pass at the reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402
from speed import Prober, spans  # noqa: E402
from tracing import Tracer, cache_metrics, install, layer_metrics  # noqa: E402


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent's stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    lib = w.Library()
    if Path(lib.package.__file__).resolve().parent != src / "iterbayes":
        raise SystemExit(f"iterbayes imported from {lib.package.__file__}, not from {src}")
    return lib


def timed_in_process(lib, ops):
    """Run the operations; return (results, (start, end) stamps, failures)."""
    results, stamps, failures = [], [], {}
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result = w.run_op(lib, op)
        except Exception as exc:  # counted as a failed operation
            result = exc
            failures[i] = f"{type(exc).__name__}: {exc}"
        stamps.append((start, time.perf_counter()))
        results.append(result)
    return results, stamps, failures


def timed_cli_in_process(lib, ops):
    """Run the CLI script through ``cli.main`` in this process, capturing
    stdout; results are (exit code, stdout bytes) pairs."""
    argv_of = {name: argv for name, argv, _ in w.CLI_COMMANDS}
    results, stamps, failures = [], [], {}
    for i, (_, name) in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(list(argv_of[name]))
        except Exception as exc:  # counted as a failed operation
            code = -1
            failures[i] = f"{type(exc).__name__}: {exc}"
        stamps.append((start, time.perf_counter()))
        results.append((code, out.getvalue().encode()))
    return results, stamps, failures


def check(workload, lib, ops, results, seed, pass_index, failures) -> None:
    if workload in ("table-sweep", "large-n"):
        w.check_solves(lib, ops, results, w.certificate_sample(workload, ops, seed, pass_index), failures)
    elif workload == "audit":
        w.check_audit(lib, ops, results, failures)
    else:
        for i, ((_, name), (code, stdout)) in enumerate(zip(ops, results)):
            message = w.check_cli(name, code, stdout)
            if message:
                failures.setdefault(i, message)


def main(argv) -> int:
    root, workload = Path(argv[0]), argv[1]
    seed, pass_index, mode = int(argv[2]), int(argv[3]), argv[4]
    traced = mode == "1"
    lib = import_library(root)
    ops = w.make_inputs(workload, seed)
    # Warm-up: one small solve, which fills no cache the workloads measure.
    lib.triangle.solve_iterative_bayes(lib.obs(1, 1))
    if mode == "setup":
        print(json.dumps({"ready": monotonic()}))
        return 0
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer, lib)
    run = timed_cli_in_process if workload == "cli-session" else timed_in_process
    prober = Prober()
    prober.start()
    start = time.perf_counter()
    results, stamps, failures = run(lib, ops)
    end = time.perf_counter()
    prober.stop()
    raw, latencies = spans(prober, stamps)
    wall_raw, wall = prober.raw(start, end), prober.normalise(start, end)
    peak = w.peak_rss_mb()
    layers = None
    if tracer is not None:
        tracer.restore()
        layers = layer_metrics(tracer, cache_metrics(lib), prober.normalise)
    check(workload, lib, ops, results, seed, pass_index, failures)
    print(json.dumps({
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "latencies_ms": [s * 1e3 for s in latencies],
        "latencies_raw_ms": [s * 1e3 for s in raw],
        "peak_rss_mb": peak,
        "attempted": len(ops),
        "failures": {str(i): m for i, m in sorted(failures.items())},
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
