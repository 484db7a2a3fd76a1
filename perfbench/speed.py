"""Machine-speed calibration.

On a shared machine the speed of one core drifts: on a 2-core Intel Xeon
virtual machine shared with other tenants, the same point_record call took
anywhere from 1.1 to 2.4 ms depending on what the others ran, in spells from
tens of milliseconds to minutes.  A median cannot remove a drift that covers a
whole run, so every call's time is divided by the time of a fixed
calibration kernel, run just before and just after the call for 15% as long
(at least once), and multiplied by ``REFERENCE_S``.  Reported times are
therefore in seconds of a machine on which the kernel takes ``REFERENCE_S``.

The kernel does what focalnet's hot path does: small numpy gathers and
``bincount`` convolutions on 15-coefficient arrays between Python-level
float and dict operations; it tracked all three workloads better than
pure-Python or string-formatting kernels.  Over five seeds of eval_points
the spread of the per-call median fell from 6% (one calibration per 0.2 s)
to 2% (one per call), with raw throughput moving by 40% between runs.  The
kernel is frozen: changing it changes every reported time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 3.5e-4
_ITERATIONS = 60
# Calibrate for this share of the call being converted (at least one kernel
# run), so that long calls are matched by long calibrations.
SHARE = 0.15

_BASE = np.linspace(0.1, 1.5, 15)
_rng = np.random.default_rng(0)
_IA, _IB, _IO = (_rng.integers(0, 15, 70) for _ in range(3))
del _rng


def _kernel() -> float:
    c, d, acc = _BASE.copy(), {"x": 1.0}, 0.0
    for _ in range(_ITERATIONS):
        c = np.bincount(_IO, weights=c[_IA] * _BASE[_IB], minlength=15)
        c = c * 0.1 + _BASE
        d["x"] = d["x"] * 1.0000001 + float(c[0]) * 1e-9
        acc += max(d["x"], 0.5)
    return acc


def calibrate(at_least: float = 0.0) -> float:
    """Mean seconds per kernel run now, running it for ``at_least`` s."""
    runs, t0 = 0, perf_counter()
    while True:
        _kernel()
        runs += 1
        elapsed = perf_counter() - t0
        if elapsed >= at_least:
            return elapsed / runs


class Clock:
    """Turns raw seconds measured between two calibrations into reference
    seconds, using the mean of the calibrations that bracket them."""

    def __init__(self):
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self, raw_s: float) -> float:
        """Call right after a call that took ``raw_s`` seconds; returns
        reference seconds per raw second for it."""
        now = calibrate(SHARE * raw_s)
        factor = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        self.samples.append(now)
        return factor
