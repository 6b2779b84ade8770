"""Host-speed calibration: a fixed probe timed between the program's items.

Other tenants of a shared host slow this process by 20-80%, changing from
one second to the next, and they slow CPU time as much as wall time.  The
probe is a fixed piece of work that does not touch conexa, in the mix the
program does (dict, set and tuple traffic, exact fractions, small dense
linear algebra), so its time follows the speed the host gives this process
at that moment.  The runner calls `Probe.owe` after each item; the probe
then runs for a tenth of the program time since its last run.  `speed` of
an interval is the reference probe time over the mean time of the probes
run near it, and a timing multiplied by it reads in seconds at the
reference speed.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

import numpy as np

# Mean probe time on the reference machine (2-vCPU Xeon VM) with no other load.
REFERENCE_S = 0.0035
# Probe time owed per second of program time.
SHARE = 0.1
# An interval's speed is read from the probes that ended within WINDOW_S of
# it, and from at least MIN_PROBES probes nearest to it.
WINDOW_S = 0.5
MIN_PROBES = 8


def _work(matrix: np.ndarray, hermitian: np.ndarray) -> float:
    buckets: dict = {}
    for i in range(6000):
        key = (i * 7919) % 211
        buckets[key] = buckets.get(key, 0) + i
    seen = {frozenset((i % 13, i % 7, i % 5)) for i in range(2500)}
    total = Fraction(0)
    for k in range(1, 250):
        total += Fraction(k, 3 * k + 1)
    acc = 0.0
    for _ in range(16):
        acc += float(np.linalg.svd(matrix, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(hermitian)[-1])
        acc += float(np.tensordot(matrix, matrix, axes=([1], [0]))[0, 0].real)
    return acc + float(total) + len(buckets) + len(seen)


class Probe:
    """Probe runs as (end time, seconds), in the order they ran."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._matrix = m
        self._hermitian = m @ m.conj().T
        self.ends: list = []
        self.times: list = []
        self._owed = 0.0

    def run(self) -> None:
        start = time.perf_counter()
        _work(self._matrix, self._hermitian)
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)
        self._owed -= end - start

    def owe(self, program_s: float) -> None:
        """Add SHARE of `program_s` to the probe time owed and run that much."""
        self._owed += SHARE * program_s
        while self._owed > 0:
            self.run()

    def settle(self, minimum: int = MIN_PROBES) -> None:
        """Run `minimum` probes and forget what was owed."""
        for _ in range(minimum):
            self.run()
        self._owed = 0.0

    def speed(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time near [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.ends)):
            lo = max(0, lo - 1)
            hi = min(len(self.ends), hi + 1)
        near = self.times[lo:hi]
        return REFERENCE_S / (sum(near) / len(near))

    def mean_speed(self, start: float, end: float) -> float:
        """Reference probe time over the mean time of the probes in [start, end]."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        near = self.times[lo:hi]
        return REFERENCE_S / (sum(near) / len(near))
