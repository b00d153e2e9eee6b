"""Machine-speed calibration for wall times.

On a shared virtual machine the same code runs up to 1.9 times slower for
seconds or minutes at a time, whatever the program does, so raw wall times
of two runs differ by more than most changes under test (30-40% between
runs of the marginal workload). Every timed operation is therefore
bracketed by a short fixed calibration, and its time is rescaled to the
speed at which the calibration takes its reference time:

    scaled = raw * REF / mean(calibration before, calibration after)

In-process operations are calibrated with a kernel that does the kind of
work the library does in the interpreter: function calls, float arithmetic
and ``math`` calls, tuples, a heap and a dict (a plain arithmetic loop
tracked the library's slowdowns less well). Cold processes are calibrated
with the start of a bare interpreter, ``python -I -S -c pass``, because
their time is mostly start-up and imports, which the kernel does not track.
Raw times are printed alongside the scaled ones.
"""

from __future__ import annotations

import heapq
import math
import subprocess
import sys
from time import perf_counter

CAL_REPEATS = 3
# the kernel's time (three repeats) on a 2-vCPU Intel Xeon VM at 2.0 GHz,
# Python 3.11.7, when the machine is not slowed down
CAL_REF_S = 5.0e-3
# ``python -I -S -c pass`` on the same machine, not slowed down
STARTUP_REF_S = 1.5e-2


def _weight(u: float, a: float) -> float:
    return math.exp(-u * a) / (1.0 + u * u)


def _kernel() -> float:
    heap: list = []
    seen: dict = {}
    total = 0.0
    for i in range(1500):
        u = (i % 97) * 0.01
        y = _weight(u, 1.5)
        heapq.heappush(heap, (-y, u, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        seen[i & 63] = (u, y)
        total += math.log1p(y) + seen.get((i * 7) & 63, (u, y))[1]
    return total


def calibration_seconds() -> float:
    """Seconds the calibration kernel takes now (a few repeats, summed)."""
    t0 = perf_counter()
    for _ in range(CAL_REPEATS):
        _kernel()
    return perf_counter() - t0


def startup_seconds() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=60)
    return perf_counter() - t0


def rescale(raw: float, cal: float, ref: float = CAL_REF_S) -> float:
    """``raw`` seconds at the reference speed, given a calibration time ``cal``."""
    return raw * ref / cal


class ProcessScaler:
    """Rescales cold-process times with interpreter start-ups before and after."""

    def __init__(self):
        self.before = startup_seconds()

    def scaled(self, raw: float) -> float:
        after = startup_seconds()
        value = rescale(raw, 0.5 * (self.before + after), STARTUP_REF_S)
        self.before = after
        return value


class Scaler:
    """Calibrates between operations and records the factor for each run of them.

    A calibration runs before the first operation and again whenever at
    least ``every_s`` seconds of operations have been timed since the last
    one. The operations in between get the factor ``CAL_REF_S`` over the mean
    of the two calibrations; ``factors`` lists ``(factor, count)`` in order.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.before = calibration_seconds()
        self.count = 0
        self.pending_s = 0.0
        self.scaled_s = 0.0  # scaled seconds of the operations flushed so far
        self.factors: list[tuple[float, int]] = []

    def add(self, raw: float) -> None:
        self.count += 1
        self.pending_s += raw
        if self.pending_s >= self.every_s:
            self.flush()

    def flush(self) -> None:
        if not self.count:
            return
        after = calibration_seconds()
        factor = rescale(1.0, 0.5 * (self.before + after))
        self.factors.append((factor, self.count))
        self.scaled_s += factor * self.pending_s
        self.before = after
        self.count = 0
        self.pending_s = 0.0


def scale(raw: list[float], factors) -> list[float]:
    """Apply ``(factor, count)`` runs, in order, to the raw times."""
    per_op = [f for f, count in factors for _ in range(count)]
    if len(per_op) != len(raw):
        raise ValueError(f"{len(per_op)} calibration factors for {len(raw)} times")
    return [t * f for t, f in zip(raw, per_op)]
