"""Host-speed normalization of measured latencies.

Shared hosts change speed by tens of percent over seconds to minutes, with
the same code in the same state (co-tenants on the same cores and caches;
the process's own CPU time moves with its wall time, so CPU time does not
help).  HostClock samples that speed while the benchmark runs: a SIGALRM
handler runs a fixed reference kernel every PERIOD seconds and records how
long it took.  A latency measured over [t0, t1] is then reported as

    latency * REF_S / median(kernel times sampled during [t0, t1])

that is, in seconds of a host on which the kernel takes REF_S; an interval
shorter than WINDOW is widened to WINDOW around its middle.  The kernel
mixes interpreter work, small numpy gathers, and set lookups and gathers
over a few MB, like the package's hot paths.  On a shared 2-vCPU Xeon VM it
cut the run-to-run variation of op latencies from 15-19% to 5-11%.

Time spent in the handler is excluded from every latency (see `spent`);
the handler allocates no objects that the cyclic collector tracks, so it
does not move collections into the timed ops.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PERIOD = 0.05  # seconds between kernel samples
WINDOW = 0.5   # shortest interval whose samples describe a latency
REF_S = 1.5e-3  # nominal kernel time that normalized seconds refer to

perf_counter = time.perf_counter


class HostClock:
    def __init__(self):
        import numpy as np  # after the caller has capped numeric threads
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 64, (64, 64)).astype(np.int16)
        self.rows = np.argsort(rng.random((64, 64)), axis=1)
        # a few MB, beyond the private caches, so that the kernel also feels
        # contention for the shared cache and memory
        self.big = rng.integers(0, 1 << 20, 1 << 20).astype(np.int32)
        self.big_idx = rng.integers(0, 1 << 20, 20000)
        self.members = set(range(0, 1 << 19, 4))
        self.probes = [int(k) for k in rng.integers(0, 1 << 19, 3000)]
        self.mids = array("d")
        self.durations = array("d")
        self.spent = 0.0   # total seconds spent in the handler
        self._previous = None

    def kernel(self):
        """Fixed work: integer arithmetic, small int16 gathers, set lookups
        and large gathers.  Allocates nothing the cyclic collector tracks."""
        acc = 0
        for i in range(3000):
            acc = (acc * 31 + i) % 1000003
        x, table, rows = self.rows[0], self.table, self.rows
        for r in range(120):
            x = table[x, rows[r & 63]]
        members = self.members
        for k in self.probes:
            if k in members:
                acc += 1
        for _ in range(4):
            acc += int(self.big[self.big_idx].sum())
        return acc + int(x[0])

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, latency, t0, t1):
        """latency (measured over [t0, t1]) in reference-host seconds."""
        pad = max(0.0, (WINDOW - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.mids, t0 - pad)
        hi = bisect.bisect_right(self.mids, t1 + pad)
        if lo == hi:
            raise RuntimeError("no host-speed sample near the interval")
        return latency * REF_S / statistics.median(self.durations[lo:hi])


class Stopwatch:
    """Times an interval, leaving out the time the clock's sampler spent in
    it; `span` is (t0, t1, latency)."""

    def __init__(self, clock):
        self.clock = clock

    def __enter__(self):
        self.spent0 = self.clock.spent
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = perf_counter()
        self.span = (self.t0, self.t1, self.t1 - self.t0 - (self.clock.spent - self.spent0))
        return False
