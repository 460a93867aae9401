"""Host-speed probe: time measured at a fixed, nominal core speed.

The benchmark runs on a few cores of a shared machine. A neighbour's load
slows a core by up to 2x for a few seconds at a time, and the two cores of
one guest slow down independently. Wall time of the same code then moves by
tens of percent from run to run, while the code's cost has not changed.

:class:`HostSpeed` measures that slowdown where it happens: a timer signal
interrupts the workload process every ``PROBE_INTERVAL_S`` and runs a fixed
piece of reference work (pure Python, or numpy vector code; see
``REFERENCES``) on the process's main thread. The CPU time that work takes
(``time.thread_time``, so waiting for another thread to release the GIL
does not count) over its nominal CPU time is the core's slowdown factor at
that moment. :meth:`HostSpeed.nominal` turns a wall-clock
interval into the time it would have taken at nominal speed: every stretch
between two probes is divided by the slowdown measured around it, and the
probes' own time is left out.

A change that makes the program do more work moves the nominal times as
much as the wall times; a neighbour's load moves only the wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
# Slowdowns are smoothed over this many consecutive probes (0.15 s); the
# host's slow spells last seconds.
SMOOTH_PROBES = 3


def _python_work():
    """Fixed pure-Python work: dict updates and int-to-str conversions."""

    def work() -> int:
        table: dict[int, int] = {}
        total = 0
        for i in range(960):
            table[i % 97] = table.get(i % 97, 0) + i
            total += len(str(i))
        return total

    return work


def _numpy_work():
    """Fixed vector work on 4096-element arrays, like one engine kernel."""
    import numpy as np

    rng = np.random.default_rng(0)
    floats = rng.random(4096)
    ints = rng.integers(0, 1 << 30, 4096)

    def work():
        x = floats
        for _ in range(2):
            y = np.log1p(x) * 1.5
            z = (ints * 2654435761) % 1000003
            x = np.abs(np.sin(np.where(y > 0.5, z, -z).astype(np.float64)))
        return x

    return work


# Reference kind -> (work factory, thread CPU seconds of one call on an
# unloaded core of the benchmark host: 2-core x86-64 guest, Python 3.11,
# numpy 2.4).
# A nominal-time figure reads as the wall time that core would have taken.
# Interpreter-bound and vector-bound code slow down by different amounts
# under the same load (by 1.6x and 1.2x in one spell), so each phase of a
# workload is probed with the kind of work that dominates it.
REFERENCES = {
    "python": (_python_work, 2.2e-4),
    "numpy": (_numpy_work, 3.0e-4),
}


class HostSpeed:
    """Samples the core's speed on a timer and converts wall time to nominal."""

    def __init__(self) -> None:
        # (work, its nominal CPU seconds), replaced as one attribute so a
        # probe between two assignments cannot mix kinds.
        self._reference = None
        self.starts: list[float] = []
        self.ends: list[float] = []
        # Each probe's slowdown: its thread CPU time over its kind's nominal.
        self.ratios: list[float] = []
        self._cumulative: list[float] | None = None
        self._factors: list[float] = []
        self._running = False

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        work, nominal_s = self._reference
        cpu = time.thread_time()
        work()
        self.ratios.append((time.thread_time() - cpu) / nominal_s)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def use(self, kind: str) -> None:
        """Probe with reference work of ``kind`` from now on."""
        make_work, nominal_s = REFERENCES[kind]
        self._reference = (make_work(), nominal_s)

    def start(self, kind: str = "python") -> None:
        self.use(kind)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._running = True
        self._probe(None, None)

    def stop(self) -> None:
        """Stop probing; a second call does nothing."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(None, None)
        self._build()

    def _build(self) -> None:
        n = len(self.ratios)
        half = SMOOTH_PROBES // 2
        self._factors = [
            statistics.median(self.ratios[max(0, i - half):i + half + 1]) for i in range(n)
        ]
        cumulative = [0.0]
        for k in range(1, n):
            gap = self.starts[k] - self.ends[k - 1]
            cumulative.append(cumulative[-1] + gap / self._gap_factor(k - 1))
        self._cumulative = cumulative

    def _gap_factor(self, k: int) -> float:
        """Slowdown between probe ``k`` and probe ``k + 1``."""
        if k + 1 >= len(self._factors):
            return self._factors[k]
        return (self._factors[k] + self._factors[k + 1]) / 2

    def _at(self, t: float) -> float:
        """Nominal seconds from the first probe's start to wall time ``t``."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) / self._factors[0]
        if t <= self.ends[k]:
            return self._cumulative[k]
        return self._cumulative[k] + (t - self.ends[k]) / self._gap_factor(k)

    def nominal(self, start: float, end: float) -> float:
        """Seconds the wall interval ``[start, end]`` takes at nominal speed."""
        if self._cumulative is None:
            raise RuntimeError("HostSpeed.stop() must run before nominal()")
        return self._at(end) - self._at(start)

    def slowdown(self) -> float:
        """Median slowdown factor over the process's probes."""
        return statistics.median(self._factors)
