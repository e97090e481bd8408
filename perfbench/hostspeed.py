"""A probe of the host's current speed, for normalising timings.

The benchmark runs on shared virtual machines whose speed moves under it:
on the two-core host where it was built, a fixed loop took 1.1 ms for a few
seconds and 2.0 ms for the next few, and the share of fast time drifted
over minutes.  No run is long enough to average that out.  So every timed
instance is bracketed by this probe, and its time is scaled to what it
would have been on a host where the probe takes ``NOMINAL_S``.

The probe's work resembles the program's own (small tuples as dict keys,
float formatting, a sort, small complex matmuls) so that both slow down
alike, and it is code of the benchmark, which no change to the program
touches.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# The probe's time on the host above when it ran fast (Python 3.11, numpy
# 2.4, one BLAS thread).  Any constant would do; this one keeps the
# normalised figures close to the times a user sees on a quiet host.
NOMINAL_S = 250e-6

_MATRIX = np.eye(8, dtype=complex) * 0.5 + 0.1j


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes now.  The garbage
    collector is off meanwhile, so the program's heap does not bleed in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        keys: dict = {}
        m = _MATRIX
        for i in range(240):
            key = (i % 5, i % 7, f"{i * 0.37:.4f}")
            keys[key] = keys.get(key, 0) + 1
            if i % 24 == 0:
                m = m @ _MATRIX
        tuple(sorted(keys))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_median() -> float:
    """The median of nine probes, for brackets around longer spans."""
    return statistics.median(probe() for _ in range(9))


def normalised(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to a
    host on which the probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_s
