"""A host-speed gauge: fixed work, independent of the engine, timed between jobs.

The benchmark host is a few vCPUs of a shared machine whose speed drifts over
minutes, and the engine slows with it: a wall time measured in one run is not
comparable with one measured a few minutes later. Multi-threaded work suffers
most, because a stalled vCPU holding the GIL stalls every thread.

The gauge times two fixed pieces of work many times during a run, interleaved
with the measured work and outside its timed regions: a single-threaded one
(interpreter loop, numpy sort and search, a read from the page cache) and the
same kind of work split over short-lived threads, as the engine runs its task
waves. Their medians say how fast the host was during that run, and the
factors rescale the run's wall times to a host on which the two take
`SINGLE_REFERENCE_S` and `THREADED_REFERENCE_S`: a slower engine still shows
as slower, while a slower host does not.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from pathlib import Path

import numpy as np

# The gauge's median times on the host the bounds were set on: 2 vCPUs of a
# shared x86-64 machine, Python 3.11, numpy 2.4, in a quiet period.
SINGLE_REFERENCE_S = 0.005
THREADED_REFERENCE_S = 0.0065
THREADS = 8


class Gauge:
    def __init__(self, work_dir: Path):
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 16)
        self.probes = self.values[:4096].copy()
        work_dir.mkdir(parents=True, exist_ok=True)
        self.path = work_dir / "gauge.bin"
        self.path.write_bytes(rng.bytes(1 << 20))
        self.single: list[float] = []
        self.threaded: list[float] = []

    def _single_work(self) -> None:
        total = 0
        for i in range(30_000):
            total += i * i
        np.searchsorted(np.sort(self.values), self.probes)
        self.path.read_bytes()

    def _thread_work(self) -> None:
        total = 0
        for i in range(4_000):
            total += i * i
        np.sort(self.values[:8192])

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            self._single_work()
            middle = time.perf_counter()
            threads = [threading.Thread(target=self._thread_work) for _ in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            end = time.perf_counter()
            self.single.append(middle - start)
            self.threaded.append(end - middle)

    def single_factor(self) -> float:
        """For single-threaded work (set-up): multiply a wall time by this."""
        return SINGLE_REFERENCE_S / statistics.median(self.single)

    def job_factor(self) -> float:
        """For jobs, which mix serial planning with threaded task waves.

        The geometric mean of the single-threaded and the threaded factor:
        the threaded gauge alone swings further than the engine does.
        """
        threaded = THREADED_REFERENCE_S / statistics.median(self.threaded)
        return math.sqrt(self.single_factor() * threaded)
