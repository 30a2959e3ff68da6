"""Host-speed references: the benchmark's times, rescaled to a reference speed.

The benchmark runs on virtual CPUs whose speed drifts over seconds and
minutes, by up to a factor of two on identical work.  Raw times of the same
code then differ between runs by more than the regressions the benchmark is
meant to catch.  So every time is taken together with a fixed reference
task timed next to it, and reported at the reference speed, the speed at
which that task takes its reference time:

    time at reference speed = raw time * reference time / reference task's time nearby

Two reference tasks are used, each for the work it tracks:

- ``probe``: exact big-integer Horner evaluation, the arithmetic of
  ``exact.sign_at``, written here without any iterbayes code.  In-process
  passes (``Prober``) interrupt the running operation with SIGALRM every
  ``PROBE_INTERVAL_S`` to run one, so even a single multi-second call is
  rescaled piece by piece; probe time is taken out of every interval it
  falls in.
- ``START_ARGV``: a bare interpreter start and exit, with neither site nor
  the package, timed by the parent around set-up and around every CLI child
  process.  Process start-up slows down differently from big-integer
  arithmetic, and the probe does not track it.

A change to the package touches neither task, so on a steady host it moves
the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import sys
import time
from typing import List, Sequence, Tuple

# Reference times: about the tasks' medians on an unloaded 2-vCPU host of
# the kind the benchmark was written on (Python 3.11).
PROBE_REF_S = 3.3e-4
START_REF_S = 1.1e-2
START_ARGV = (sys.executable, "-I", "-S", "-c", "pass")
# The host's speed changes within a tenth of a second, so probes are
# frequent and barely smoothed: with a probe every 20 ms and medians of 15,
# a 100 ms solve still varied by 8-11% between repeats; with one every 10 ms
# and medians of 3, by 4-5% (raw: 11-13%).
PROBE_INTERVAL_S = 0.01
# Each probe's speed is the median of the 2 * SMOOTH + 1 probes around it.
SMOOTH = 1

# A degree-40 polynomial with coefficients of about 200 bits, evaluated at a
# point with 64-bit numerator and denominator, as sign_at does mid-solve.
_COEFFS = tuple((-1) ** k * (0x9E3779B97F4A7C15 * (k + 3)) ** 3 for k in range(41))
_U, _V = 0xD1B54A32D192ED03, 0xF1357AEA2E62A9C5
_ROUNDS = 10


def probe() -> int:
    """The in-process reference task; returns the last value so it is computed."""
    d = len(_COEFFS) - 1
    acc = 0
    for _ in range(_ROUNDS):
        acc = _COEFFS[d]
        vpow = 1
        for i in range(d - 1, -1, -1):
            vpow *= _V
            acc = acc * _U + _COEFFS[i] * vpow
    return acc


def rescale(raw_s: float, task_s: Sequence[float], reference_s: float) -> float:
    """``raw_s`` at the reference speed, given the reference task's times
    ``task_s`` taken around it."""
    return raw_s * reference_s / statistics.median(task_s)


class Prober:
    """Runs one probe every ``PROBE_INTERVAL_S`` of wall time, by SIGALRM,
    and rescales intervals of ``time.perf_counter`` to the reference speed.

    A signal handler runs between bytecodes of the main thread, so a probe
    never straddles a timestamp the main thread takes: every probe lies
    wholly inside or wholly outside an interval measured around it."""

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy = False
        self._previous = None
        self._smooth: List[float] = []
        self._bounds: List[float] = []

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop probing and prepare ``raw`` and ``normalise``; a pass too
        short for any probe gets one here."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:
            self._on_alarm(signal.SIGALRM, None)
        self.prepare()

    def prepare(self) -> None:
        """Smooth the recorded probe durations and index them by time."""
        d = self.durations
        self._smooth = [statistics.median(d[max(0, j - SMOOTH): j + SMOOTH + 1]) for j in range(len(d))]
        # Probe j stands for the time from the midpoint with its predecessor
        # to the midpoint with its successor.
        self._bounds = [(a + b) / 2 for a, b in zip(self.starts, self.starts[1:])]

    def raw(self, a: float, b: float) -> float:
        """Length of [a, b] without the probes inside it."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return b - a - sum(self.durations[lo:hi])

    def normalise(self, a: float, b: float) -> float:
        """Length of [a, b] without the probes inside it, at the reference
        speed: each piece of it is rescaled by the probe speed of its time."""
        total = 0.0
        j = bisect.bisect_right(self._bounds, a)
        while True:
            lo = a if j == 0 else max(a, self._bounds[j - 1])
            hi = b if j == len(self._bounds) else min(b, self._bounds[j])
            if hi > lo:
                total += (hi - lo) * PROBE_REF_S / self._smooth[j]
            if j == len(self._bounds) or self._bounds[j] >= b:
                break
            j += 1
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        for k in range(lo, hi):
            total -= self.durations[k] * PROBE_REF_S / self._smooth[k]
        return total

def spans(prober: Prober, stamps: Sequence[Tuple[float, float]]) -> Tuple[List[float], List[float]]:
    """Raw and reference-speed lengths of each (start, end) interval."""
    return ([prober.raw(a, b) for a, b in stamps], [prober.normalise(a, b) for a, b in stamps])
