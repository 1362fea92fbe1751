"""Host-speed reference for rescaling timings.

The 2-core reference host changes speed by up to 1.5x over tens of
seconds, and CPU time slows with wall time, so no estimator over one run's
samples stays steady between runs. A fixed mix of the program's kinds of
work, timed next to each op, slows in step with it: over 150 s of demo64
ops cut into 15 s windows, the spread of raw medians was 0.18 and that of
the rescaled medians 0.03.
"""

import statistics
from time import perf_counter

import numpy as np
from scipy.ndimage import convolve1d

# About the mix's time on the reference host between demo64 ops; rescaled
# timings read as seconds on a host where the mix takes this long.
NOMINAL_S = 0.0065

_rng = np.random.default_rng(0)
_IMAGE = _rng.standard_normal((128, 128))
_VOLUME = _rng.standard_normal((128, 128, 4))
_TAPS = np.hanning(25)


def _mix():
    # Separable scipy.ndimage convolution, numpy reductions, a Python loop.
    start = perf_counter()
    for _ in range(4):
        convolve1d(convolve1d(_IMAGE, _TAPS, axis=0, mode="constant"), _TAPS, axis=1, mode="constant")
        np.sqrt(np.sum(np.square(_VOLUME), axis=2))
    total = 0
    for i in range(30000):
        total += i * i % 7
    return perf_counter() - start


def reference_s(seconds=0.0):
    """Median timing of the reference mix, run at least three times and
    for at least `seconds`, so a long op is matched by a long sample."""
    times = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < seconds:
        times.append(_mix())
    return statistics.median(times)


def rescale(seconds, reference):
    return seconds * NOMINAL_S / reference
