"""Machine speed, read off a reference kernel that shares no code with koblab.

The cores of a shared machine switch between a fast and a slow state: on a
shared 2-core Intel Xeon this kernel takes either about 3 ms or about 5 ms, a
state lasts a fraction of a second, and the share of time spent fast drifts
over minutes.  The same work therefore took 0.104 s and 0.150 s per
model-domains cycle in runs a minute apart.  The runner times the kernel
between operations, once per EVERY_S seconds of operation time (so a long
operation is followed by several samples and weighs in by its length), and
multiplies every reported time by REFERENCE_S / (mean kernel time of the
run), so a time reads as it would on a core where the kernel takes
REFERENCE_S.  The mean, not the median, because the samples are bimodal:
the mean tracks the share of time spent in each state, which is what
stretches the operations.  The raw times are recorded beside the scaled
ones.

The kernel mixes small numpy calls, complex arithmetic and Python-level
looping in about the proportions koblab's estimators use them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's time in the slow, more common state of a shared 2-core
# Intel Xeon, so scaled times read close to raw ones there
REFERENCE_S = 0.005
EVERY_S = 0.1


def kernel_seconds() -> float:
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    total = 0.0
    start = time.perf_counter()
    for k in range(600):
        w = z * (1.0 + 1e-3j)
        total += float(np.linalg.norm(w - z)) + abs(complex(w[0]) - 0.5)
        z = w / (1.0 + 1e-9 * k)
    elapsed = time.perf_counter() - start
    if not total > 0:
        raise RuntimeError("reference kernel misbehaved")
    return elapsed


class Speedometer:
    """Kernel samples taken between operations, never inside a timed one."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = EVERY_S  # operation time not yet covered by a sample

    def sample(self):
        self.samples.append(kernel_seconds())

    def account(self, op_seconds: float):
        """Record an operation's time; sample once per EVERY_S of it."""
        self._owed += op_seconds
        while self._owed >= EVERY_S:
            self.sample()
            self._owed -= EVERY_S

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to read it at reference speed."""
        return REFERENCE_S / statistics.mean(self.samples)
