"""Benchmark of the iterbayes solve pipeline: one command, four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0

Every pass of a workload runs in a fresh interpreter (``bench/worker.py``, or
for ``cli-session`` one ``python -m iterbayes`` child per command), so cache
state and import cost are the same in every pass.  Passes repeat the seeded
batch until ``--seconds`` is used up.  Outputs are checked after each timed
region; a failed check counts as a failed operation.  Times are reported at
the reference speed of ``bench/speed.py``, which takes out the drift of the
host's own speed; the raw figures are printed on the ``# raw`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced in-process passes and reports the per-layer metrics of
``bench/tracing.py`` plus the tracing overhead.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import START_ARGV, START_REF_S, rescale  # noqa: E402
from tracing import EXACT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import (CLI_BOOT, CLI_COMMANDS, WORKLOADS, check_cli,  # noqa: E402
                       child_peak_rss_mb, make_inputs)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
# The whole run, passes included, must end well inside 180 s.
HARD_LIMIT_S = 150.0
MIN_PASSES = 3
# Set-ups timed alone at the start of each run; setup_s is their median.
SETUP_SAMPLES = 10
CLI_BASE = [sys.executable, "-s", "-c", CLI_BOOT]
CLI_ARGV = {name: list(argv) for name, argv, _ in CLI_COMMANDS}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """Outcome of one child process."""

    code: int
    stdout: bytes
    stderr: bytes
    seconds: float


def run_child(argv: List[str], env: Optional[Dict[str, str]], timeout: float) -> Child:
    """Run a child to completion, draining both pipes; ``seconds`` ends when
    the child has been reaped."""
    start = monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.wait()
    seconds = monotonic() - start
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), seconds)


class Run:
    """State of one benchmark run: pass results and failure counts."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.start = monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.cli_env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def fail(self, count: int, message: str, attempted: bool = False) -> None:
        """Record ``count`` failed operations; ``attempted`` also counts
        them as attempted, for checks that are not timed operations."""
        self.failed += count
        if attempted:
            self.attempted += count
        self.failures.append(message)

    def remaining(self) -> float:
        return self.start + HARD_LIMIT_S - monotonic()

    def reference_start(self) -> float:
        """Time of one bare interpreter start and exit, ``speed.START_ARGV``."""
        return run_child(list(START_ARGV), None, self.remaining()).seconds

    def setup_sample(self) -> Tuple[float, float]:
        """Raw and reference-speed time of one set-up, timed alone: a worker
        that stops when set-up is done or, for ``cli-session``, loading the
        script and one warm-up process.  Bare interpreter starts just before
        and after give the speed."""
        before = self.reference_start()
        spawned = monotonic()
        if self.workload == "cli-session":
            make_inputs(self.workload, self.seed)
            run_child(CLI_BASE + CLI_ARGV["estimate-golden"], self.cli_env, self.remaining())
            raw = monotonic() - spawned
        else:
            argv = [sys.executable, "-I", str(HERE / "worker.py"), str(self.root), self.workload,
                    str(self.seed), "0", "setup"]
            child = run_child(argv, None, self.remaining())
            try:
                raw = json.loads(child.stdout.decode().strip().splitlines()[-1])["ready"] - spawned
            except (ValueError, IndexError, KeyError):
                raise SystemExit(f"set-up worker exited {child.code}: "
                                 f"{child.stderr.decode(errors='replace')[-400:]}")
        return raw, rescale(raw, [before, self.reference_start()], START_REF_S)

    def worker_pass(self, pass_index: int, traced: bool) -> Optional[dict]:
        """One in-process pass in a fresh interpreter; None if it crashed."""
        argv = [sys.executable, "-I", str(HERE / "worker.py"), str(self.root), self.workload,
                str(self.seed), str(pass_index), "1" if traced else "0"]
        child = run_child(argv, None, self.remaining())
        try:
            result = json.loads(child.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail(len(make_inputs(self.workload, self.seed)),
                      f"pass {pass_index}: worker exited {child.code}: "
                      f"{child.stderr.decode(errors='replace')[-400:]}", attempted=True)
            return None
        self.attempted += result["attempted"]
        for i, message in result["failures"].items():
            self.fail(1, f"pass {pass_index} op {i}: {message}")
        return result

    def cli_pass(self, pass_index: int) -> dict:
        """One pass of the CLI script as separate ``python -m iterbayes``
        processes.  A bare interpreter start before the first child and
        after each gives the speed; a child is rescaled by the median of the
        (up to) four around it."""
        ops = make_inputs(self.workload, self.seed)
        starts = [self.reference_start()]
        children = []
        for _, name in ops:
            children.append(run_child(CLI_BASE + CLI_ARGV[name], self.cli_env, self.remaining()))
            starts.append(self.reference_start())
        raw = [c.seconds for c in children]
        latencies = [rescale(s, starts[max(0, i - 1): i + 3], START_REF_S) for i, s in enumerate(raw)]
        self.attempted += len(ops)
        for (_, name), child in zip(ops, children):
            message = check_cli(name, child.code, child.stdout)
            if message:
                self.fail(1, f"pass {pass_index}: {message}")
        return {"wall_s": sum(latencies), "wall_raw_s": sum(raw),
                "latencies_ms": [s * 1e3 for s in latencies], "latencies_raw_ms": [s * 1e3 for s in raw],
                "peak_rss_mb": max(child_peak_rss_mb(c.stderr) for c in children)}

    def repeat(self, one_pass, min_passes: int) -> List[dict]:
        """Call ``one_pass(index)`` until the measuring time is used up."""
        results, longest, index = [], 0.0, 0
        while True:
            began = monotonic()
            result = one_pass(index)
            index += 1
            longest = max(longest, monotonic() - began)
            if result is not None:
                results.append(result)
            now = monotonic()
            if now + longest > self.start + HARD_LIMIT_S:
                break
            if index >= min_passes and now + longest > self.start + self.seconds:
                break
        return results

    def process_costs(self) -> Tuple[float, float]:
        """Median interpreter start and package import time, from child processes."""
        starts, imports = [], []
        code = f"import sys; sys.path.insert(0, {str(self.root / 'src')!r}); import iterbayes.cli"
        for _ in range(5):
            starts.append(run_child([sys.executable, "-I", "-c", "pass"], None, 30).seconds)
            imports.append(run_child([sys.executable, "-I", "-c", code], None, 30).seconds)
        start = statistics.median(starts)
        return start, statistics.median(imports) - start

    def check_provenance(self) -> None:
        """Fail unless ``python -m iterbayes`` children import the package
        from this checkout's ``src/``."""
        child = run_child([sys.executable, "-s", "-c", "import iterbayes; print(iterbayes.__file__)"],
                          self.cli_env, 30)
        path = Path(child.stdout.decode().strip() or ".").resolve()
        if path.parent != self.root / "src" / "iterbayes":
            self.fail(1, f"CLI children import iterbayes from {path}, not from {self.root / 'src'}",
                      attempted=True)


def percentile(values: List[float], q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(run: Run) -> Dict[str, float]:
    if run.workload == "cli-session":
        run.check_provenance()
    setups = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    if run.workload == "cli-session":
        passes = run.repeat(run.cli_pass, MIN_PASSES)
    else:
        passes = run.repeat(lambda i: run.worker_pass(i, traced=False), MIN_PASSES)
    if not passes:
        raise SystemExit("no pass completed: " + "; ".join(run.failures[:3]))
    # Every pass runs the same operations in the same order.  An operation's
    # latency is its median over the passes; percentiles are taken over the
    # operations.  Pooling the passes instead put a percentile on the extreme
    # copy of one operation, so it moved with that operation's noise.
    latencies = [statistics.median(ms) for ms in zip(*(p["latencies_ms"] for p in passes))]
    raw = [statistics.median(ms) for ms in zip(*(p["latencies_raw_ms"] for p in passes))]
    print(f"# passes {len(passes)}, operations {len(latencies)}, each timed once a pass")
    print("# raw, not rescaled to the reference speed: "
          f"setup_s {statistics.median(raw_s for raw_s, _ in setups):.6f}, "
          f"wall_s {statistics.median(p['wall_raw_s'] for p in passes):.6f}, "
          f"op_p50_ms {percentile(raw, 0.5):.6f}, op_p90_ms {percentile(raw, 0.9):.6f}")
    return {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(run: Run) -> Dict[str, float]:
    """Alternate untraced and traced in-process passes; time metrics are
    medians over traced passes, count metrics must repeat exactly."""
    plain, traced = [], []

    def pair(index: int) -> Optional[dict]:
        a = run.worker_pass(2 * index, traced=False)
        b = run.worker_pass(2 * index + 1, traced=True)
        if a is None or b is None:
            return None
        plain.append(a)
        traced.append(b)
        return b

    run.repeat(pair, 1)
    if not traced:
        raise SystemExit("no traced pass completed: " + "; ".join(run.failures[:3]))
    layers = [p["layers"] for p in traced]
    metrics = {}
    for name, _, _ in LAYER_METRICS:
        values = [layer.get(name, 0) for layer in layers]
        if name in EXACT_METRICS:
            if len(set(values)) > 1:
                run.fail(1, f"{name} differs between traced passes: {values}", attempted=True)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    interp_start, import_s = run.process_costs()
    metrics["cli.process.interp_start_s"] = interp_start
    metrics["cli.process.import_s"] = import_s
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    print(f"# traced passes {len(traced)}, untraced passes {len(plain)}")
    return metrics


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "iterbayes" / "__init__.py").is_file():
        print(f"error: {root} holds no src/iterbayes; run from the root of a checkout",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    run = Run(root, args.workload, args.seed, args.seconds)
    if args.trace:
        metrics = per_layer(run)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
    failed = run.failed
    print("# provenance " + json.dumps({
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    for message in run.failures[:20]:
        print(f"# FAILED {message}")
    for name, value in metrics.items():
        print(f"{name:<55} {value:>16.6f} {units[name]}")
    print(f"{'fail_ratio':<55} {failed / max(run.attempted, 1):>16.6f} failed/attempted "
          f"({failed}/{run.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
