"""Host speed: a fixed kernel, sampled while the timed ops run.

The benchmark runs on a shared host whose speed drifts: the same cryomux op
takes from 1.0 to 1.9 times its fastest time, in phases lasting from seconds
to minutes, with CPU time tracking wall time (no hardware counters are
exposed to measure cycles instead). A 30 s run sits in one or two such
phases, so raw wall times of two runs of the same code can differ by more
than any useful regression bound.

`HostSampler` measures that drift. A SIGALRM timer interrupts the timed loop
every `interval_s` of wall time, and the handler runs one `unit()`: a fixed
mix of small-matrix numpy products, RK2 steps, random draws, table lookups
and float formatting, the kinds of work cryomux's ops are made of. The unit uses no
cryomux code, so no change to cryomux can move it. The mean unit time of
the samples taken while an op ran (or, for an op shorter than a second, in
the second around it), divided by `UNIT_NOMINAL_S`, is the host slowdown
for that op; run.py divides the op's time by it. The handler's own time is
taken out of the op it interrupted; it is about 2 % of the run.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

# About the time of one unit sampled during the timed ops on the reference
# host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6) when it runs
# fast; samples there took 0.3-0.6 ms. It only sets the scale: reported
# times are those of a host where one unit takes this long.
UNIT_NOMINAL_S = 4.0e-4
INTERVAL_S = 0.025
# An op shorter than this is scaled by the samples of the window of this
# length centred on it, so that at least ~40 samples set its host speed.
MIN_WINDOW_S = 1.0

_L0 = (np.arange(16).reshape(4, 4) % 5 - 2) * (0.01 + 0.02j)
_LX = (np.eye(4, k=1) + np.eye(4, k=-1)) * 0.3 + 0j
_LY = (np.eye(4, k=1) - np.eye(4, k=-1)) * 0.2j
_CHANNELS = [np.linalg.qr(np.arange(16).reshape(4, 4) + k * np.eye(4))[0] + 0j for k in range(7)]
_TABLE = {k: (5 * k + 3) % 24 for k in range(24)}


def unit(rng: np.random.Generator) -> int:
    """One unit of the fixed kernel, about 0.3-0.5 ms on the reference host."""
    v = np.array([1, 0, 0, 0], dtype=complex)
    dt = 0.01
    w = rng.random(30)
    for i in range(10):
        l_a = _L0 + w[i] * _LX + w[i + 10] * _LY
        k1 = l_a @ v
        k2 = l_a @ (v + 0.5 * dt * k1)
        v = v + 0.5 * dt * (k1 + k2)
        v = v / np.abs(v).sum()
    s = 0
    for g in rng.integers(0, 24, 40):
        s = _TABLE[int(g)]
        v = _CHANNELS[s % 7] @ v
    return len(",".join(repr(float(x)) for x in w[:12])) + s


class HostSampler:
    """Context manager that samples `unit()` every `interval_s` of wall time.

    `busy_s` is the time spent in the handler so far; it only grows, so a
    caller takes differences around an op. A caller reports each op's
    interval with `add_op`; `op_slowdowns()` gives the host slowdown around
    each of them, in order.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.busy_s = 0.0
        # flat arrays keep memory flat however many samples and ops a run has
        self._ends = array("d")  # perf_counter() at the end of each sample
        self._durations = array("d")
        self._ops = array("d")  # start and end of each op, in pairs
        self._rng = np.random.default_rng(0)
        self._previous = None

    @property
    def units(self) -> int:
        return len(self._durations)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        unit(self._rng)
        end = time.perf_counter()
        self.busy_s += end - start
        self._ends.append(end)
        self._durations.append(end - start)

    def __enter__(self) -> "HostSampler":
        for _ in range(50):  # warm the unit's code paths before any sample counts
            unit(self._rng)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def add_op(self, start: float, end: float) -> None:
        self._ops.extend((start, end))

    def slowdown(self) -> float:
        """Mean unit time over the nominal one for the whole run; 1.0 with
        no samples."""
        return self.busy_s / self.units / UNIT_NOMINAL_S if self.units else 1.0

    def op_slowdowns(self) -> np.ndarray:
        """Per op, the mean unit time over the nominal one, from the samples
        taken during the op widened to at least MIN_WINDOW_S around its
        middle; the whole run's slowdown for an op with no sample in it."""
        ops = np.frombuffer(self._ops, dtype=float).reshape(-1, 2)
        middle = ops.mean(axis=1)
        half = np.maximum(ops[:, 1] - ops[:, 0], MIN_WINDOW_S) / 2.0
        ends = np.frombuffer(self._ends, dtype=float)
        lo = np.searchsorted(ends, middle - half, side="left")
        hi = np.searchsorted(ends, middle + half, side="right")
        summed = np.concatenate(([0.0], np.cumsum(np.frombuffer(self._durations, dtype=float))))
        n = hi - lo
        mean = (summed[hi] - summed[lo]) / np.maximum(n, 1) / UNIT_NOMINAL_S
        return np.where(n > 0, mean, self.slowdown())
