"""Machine-speed probe.

On a shared two-core host (OpenBLAS 0.3.31 on one thread) the CPU's speed
drifts: a fixed numpy kernel ran 30-40% slower for minutes at a time, with
wall time equal to CPU time, so it is the processor's throughput that
changes and not the scheduling.  Over 150 s,
probe times averaged over 1-s windows correlated at 0.96 with ``run_test``
latency.  The benchmark therefore runs this probe between requests and
reports every time scaled to a machine on which the probe takes
``REFERENCE_S``, by the bursts just before and just after it.  The probe uses numpy only, so a change to threshtest
cannot move it; it mixes the library's kinds of work: one generator per
replicate, small SVDs and a GEMM.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.020
INTERVAL_S = 1.0
BURST = 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((500, 50))
        self.z = rng.standard_normal((500, 400))
        self.bursts = []  # (start, end, median probe seconds)

    def _once(self):
        t0 = time.perf_counter()
        for j in range(300):
            np.random.default_rng(np.random.SeedSequence(7, spawn_key=(j,))).standard_normal(500)
        for _ in range(8):
            np.linalg.svd(self.a, full_matrices=False)
        for _ in range(4):
            self.a.T @ self.z
        return time.perf_counter() - t0

    def burst(self):
        start = time.perf_counter()
        median = statistics.median(self._once() for _ in range(BURST))
        self.bursts.append((start, time.perf_counter(), median))

    def maybe(self):
        """A burst when INTERVAL_S has passed since the last one."""
        if not self.bursts or time.perf_counter() - self.bursts[-1][1] >= INTERVAL_S:
            self.burst()

    def factor(self, start, end):
        """Scale for a time measured from ``start`` to ``end`` (perf_counter
        readings): the reference over the mean of the bursts just before and
        just after it."""
        before = max((b for b in self.bursts if b[1] <= start), key=lambda b: b[1])
        after = min((b for b in self.bursts if b[0] >= end), key=lambda b: b[0])
        return REFERENCE_S / ((before[2] + after[2]) / 2)

    def run_factor(self):
        """Scale from the median of every burst in the run."""
        return REFERENCE_S / statistics.median(b[2] for b in self.bursts)
