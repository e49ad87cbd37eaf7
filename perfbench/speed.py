"""Host speed, sampled while a pass runs.

The CPU speed of the hosts this benchmark runs on drifts: the same pass takes
up to half again as long from one minute to the next, in phases lasting
seconds to tens of seconds, and the drift differs between the two CPUs of one
machine.  So speed is sampled on the CPU that runs the pass, during the pass:
a timer interrupts the pass every PERIOD_S seconds and runs a short fixed
probe.  The probe is benchmark code and never changes with the program.

A pass's time in reference seconds is its own time (probes excluded) scaled by
PROBE_NOMINAL_S over the mean probe time seen during it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median probe time on the host the benchmark was tuned on (Intel Xeon, one
# BLAS thread); a reference second is a second on that host at that speed.
PROBE_NOMINAL_S = 0.003
PERIOD_S = 0.1

_MATRIX = ((np.arange(96 * 48) % 17)
           + 1j * (np.arange(96 * 48) % 13)).reshape(96, 48) / 17.0


def probe() -> float:
    """Seconds for 600 small numpy calls made from the interpreter.

    Of the probes tried (dict and tuple loops, a large dict, small numpy
    calls, a small LAPACK SVD, mixes of these) this one tracked the speed of
    theorem1, ball-lemma and br best on the tuning host."""
    t0 = perf_counter()
    x = np.zeros(40, dtype=complex)
    for j in range(600):
        x[j % 40] = complex(np.sum(_MATRIX[j % 96, :8]))
    return perf_counter() - t0


def probe_median() -> float:
    """Median of five probes, for intervals too short to sample inside."""
    return statistics.median(probe() for _ in range(5))


class SpeedMeter:
    """Runs the probe on a timer while open.  ``probed_s`` is the time the
    probes took, to be taken out of the measured interval; ``on_probe``, when
    given, is told the length of each probe as well."""

    def __init__(self, on_probe=None):
        self.samples = []
        self.probed_s = 0.0
        self._on_probe = on_probe
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(probe())
        took = perf_counter() - t0
        self.probed_s += took
        if self._on_probe is not None:
            self._on_probe(took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """Reference seconds per measured second."""
        samples = self.samples or [probe()]
        return PROBE_NOMINAL_S / statistics.mean(samples)
