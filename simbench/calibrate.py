"""Fixed-work calibration loop for normalising host times.

The benchmark runs on small shared VMs whose speed drifts by a third
within half a minute and by up to 1.8x between consecutive 0.1 s
windows.  The benchmark times this loop between every two measured runs
and divides each run by the mean of the samples on either side of it;
the median of those ratios over an invocation is the reported time.  On
a 2-core VM this loop's time correlated with a simulator run's at 0.67,
and dividing by it cut the run-to-run spread from 13 % to 10 %.  The
loop imports nothing from the repository, so no change to the program
can move it.  It mixes the interpreter work the simulator does -- calls,
generator resumes, heap and dict traffic, float arithmetic and small
numpy operations.

Normalised times are reported in *reference seconds*:
``raw_s * REFERENCE_S / calibration_s``, where :data:`REFERENCE_S` is
about what the loop takes on the 2-core x86-64 VM (Python 3.11, numpy 2)
the benchmark was built on, so a normalised time reads close to
wall-clock seconds there.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: calibration seconds on the reference host (see module docstring)
REFERENCE_S = 0.1

#: loop iterations per calibration sample
_ITERATIONS = 60_000


def _ticker():
    value = 0
    while True:
        value = yield value + 1


def work() -> float:
    """The fixed work; returns a checksum so nothing is optimised away."""
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    ticker = _ticker()
    next(ticker)
    row = np.arange(32, dtype=np.float64)
    acc = 0.0
    for i in range(_ITERATIONS):
        heapq.heappush(heap, ((i * 0.618) % 1.0, i))
        if len(heap) > 256:
            acc += heapq.heappop(heap)[0]
        key = i & 1023
        counts[key] = counts.get(key, 0) + 1
        acc += ticker.send(i) * 1e-9
        if i & 7 == 0:
            acc += float((row * 1.5 + acc).max())
    return acc + len(counts)


def measure() -> float:
    """Host seconds of one :func:`work` call."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` in reference seconds, given the calibration samples
    taken right before and right after it."""
    return raw_s * REFERENCE_S / statistics.fmean((before_s, after_s))
