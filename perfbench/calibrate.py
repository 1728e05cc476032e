"""Machine-speed calibration.

On a shared host the speed of a vCPU drifts by +-20%, within seconds and
over minutes, and every timing of this pure-Python library drifts with
it.  Between short blocks of work the benchmark times a fixed
pure-Python loop of complex arithmetic (the shape of a Taylor recurrence
and a Horner sum, written here so that no change to the package can move
it) and scales the block's time by ``NOMINAL_UNIT_S / measured``: a
reported time is the time the same work would take on a machine where
one unit of this loop takes ``NOMINAL_UNIT_S``.  A change that makes the
package faster moves the scaled times by the same ratio as the raw ones.
"""
from __future__ import annotations

import statistics
import time

# median seconds of one calibration unit on the 2-vCPU host the
# baselines were taken on
NOMINAL_UNIT_S = 2.9e-4


def _unit() -> float:
    c = [0j] * 32
    total = 0.0
    for rep in range(20):
        c[0] = 1.0 + 0.5j
        c[1] = 0.3 - 0.2j
        z = complex(rep, 1.0)
        q = 0.25 * z * z + 1.3
        hz = 0.5 * z
        for k in range(30):
            t = q * c[k]
            if k >= 1:
                t += hz * c[k - 1]
            if k >= 2:
                t += 0.25 * c[k - 2]
            c[k + 2] = t / ((k + 1) * (k + 2))
        y = c[31]
        for k in range(30, -1, -1):
            y = y * 0.3 + c[k]
        total += abs(y)
    return total


def calibrate(reps: int = 5, inner: int = 6) -> float:
    """Median seconds of one calibration unit, over ``reps`` batches of
    ``inner`` units."""
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        t0 = clock()
        for _ in range(inner):
            _unit()
        times.append((clock() - t0) / inner)
    return statistics.median(times)


class Calibrator:
    """Times blocks of work in nominal-machine seconds.

    The host's speed changes within a second, so every block is short and
    is scaled by the mean of the calibrations just before and just after
    it; consecutive blocks share the reading between them.
    """

    def __init__(self):
        self.last = calibrate()
        self.scales: list[float] = []

    def block(self, waits: bool = False) -> "Block":
        """A block of work; ``waits`` if it idles waiting for a child
        process, after which the first calibration reads slow."""
        return Block(self, waits)


class Block:
    """A timed block: ``raw`` seconds, ``scale`` and ``seconds`` =
    raw x scale, set when the block exits (also on an exception)."""

    def __init__(self, cal: Calibrator, waits: bool):
        self._cal = cal
        self._waits = waits

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self._t0
        before = self._cal.last
        if self._waits:
            calibrate()
        self._cal.last = calibrate()
        self.scale = NOMINAL_UNIT_S / (0.5 * (before + self._cal.last))
        self._cal.scales.append(self.scale)
        self.seconds = self.raw * self.scale
        return False
