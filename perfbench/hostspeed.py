"""Host speed, sampled while a command runs, to scale its time to a reference speed.

The benchmark shares a few vCPUs of a host whose speed, seen from one vCPU,
swings by a fifth within a few seconds and drifts by half over minutes; the
other vCPUs' speed does not follow it. So the speed is measured in this
process, during the command: ``Sampler.sampling()`` times ``probe`` (a fixed
piece of this file's own code, never the program's) before the command,
every ``INTERVAL_S`` of wall time while it runs (from a ``SIGALRM`` handler,
which Python runs in the main thread between bytecodes) and after it. The
handler's time is taken out of the command's time, and ``Sampler.scale``
multiplies what is left by the mean speed seen, relative to
``REFERENCE_PROBE_S``. A change to the program moves scaled times as it
moves raw ones, because the probe does not depend on it. That holds while
the program computes on one thread (BLAS is pinned to one): threads of its
own kept busy during a probe would slow the probe and hide part of their
cost.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# About probe()'s seconds on a quiet host (2.1 GHz Xeon vCPU); scaled times
# are the times the commands would take at that speed.
REFERENCE_PROBE_S = 0.001
PROBE_REPEATS = 5
INTERVAL_S = 0.2

_state: tuple | None = None


def _probe_once() -> float:
    """One timing of the probe, which allocates neither from malloc nor GC-tracked objects.

    A probe runs in the middle of the program's own work. Buffers taken from
    malloc there could keep the heap from shrinking afterwards, and container
    objects would advance the cyclic collector's counters and so move the
    program's collections; either made ``peak_rss_mb`` depend on where the
    probes happened to fall.
    """
    global _state
    import numpy as np

    if _state is None:
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((128, 64))
        _state = rng.standard_normal((64, 64)), x0, np.empty_like(x0), np.empty_like(x0)
    a, x0, x, y = _state
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total += (i * 7) % 13
    np.copyto(x, x0)
    for _ in range(15):
        np.matmul(x, a, out=y)
        np.tanh(y, out=y)
        y *= 0.5
        x += y
    total += float(x.sum())
    end = time.perf_counter()
    if total != total:  # uses the result, so the work cannot be skipped
        raise RuntimeError("host probe produced NaN")
    return end - start


def probe() -> float:
    """Seconds for a fixed mix of interpreter and small numpy work, about 1 ms.

    The mix is that of the program's hot paths: interpreted arithmetic,
    small elementwise ops and a small gemm. The median of ``PROBE_REPEATS``
    timings, so that one interrupt or preemption does not count. BLAS
    threads must be pinned before the first call (``run.pin_blas_threads``).
    """
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Sampler:
    """Probes taken around and during one timed block at a time."""

    def __init__(self):
        self.samples: list[float] = []  # probe seconds of the last block
        self._handled: list[tuple[float, float]] = []  # (start, seconds) in the handler
        self._speed_sum = 0.0  # of 1 / probe seconds over every block, for the report
        self._probes = 0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self._handled.append((start, time.perf_counter() - start))

    @contextmanager
    def sampling(self, during: bool = True):
        """Probe before and after the block, and during it if ``during``."""
        self.samples, self._handled = [probe()], []
        previous = signal.signal(signal.SIGALRM, self._handler) if during else None
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            self.samples.append(probe())
            self._speed_sum += sum(1 / p for p in self.samples)
            self._probes += len(self.samples)

    def program_seconds(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the handler's time within them."""
        return end - start - sum(s for t, s in self._handled if start <= t < end)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference speed, from the last block's probes."""
        return seconds * REFERENCE_PROBE_S * statistics.fmean(1 / p for p in self.samples)

    def mean_probe(self) -> float:
        """Probe seconds at the mean speed of every probe so far."""
        return self._probes / self._speed_sum
