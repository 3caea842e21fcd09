"""Behavioral model of the SP4T cryogenic RF multiplexer.

Models the port-gating transmission envelope with finite rise time,
static/dynamic power dissipation, and a cooling-budget planner for
channel-count estimates.

Ports are the strings "RF1".."RF4".
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError

PORTS = ("RF1", "RF2", "RF3", "RF4")

# 10-90% rise time of a first-order response is ln(9) time constants.
_RISE_TO_TAU = 1.0 / math.log(9.0)


@dataclass(frozen=True)
class MuxModel:
    """Multiplexer behavioral parameters.

    v_threshold      : turn-on voltage (V)
    static_coeff     : cubic coefficient of core static power above
                       threshold (W/V^3), anchored so the total at 0.7 V
                       is 0.60 uW including the ESD share
    esd_static       : constant ESD-clamp leakage above threshold (W)
    subthreshold_leak: static power below threshold (W), default 0
    dyn_coeff        : dynamic dissipation per switch event (J/Hz/V^2),
                       parallel mode (full RF-switch gate charge)
    isolation_db     : worst-case port-to-port isolation (positive dB)
    rise_time        : 10-90% switching rise/fall time (s)
    """

    v_threshold: float = 0.6
    static_coeff: float = 2.3e-4
    esd_static: float = 0.37e-6
    subthreshold_leak: float = 0.0
    dyn_coeff: float = 1.0e-12
    isolation_db: float = 30.0
    rise_time: float = 2.6e-9

    def __post_init__(self):
        for field in fields(self):
            if not abs(getattr(self, field.name)) <= sys.float_info.max:
                raise ConfigError(f"{field.name} must be a finite number")
        if not self.v_threshold > 0:
            raise ConfigError("v_threshold must be positive")
        if not self.isolation_db >= 0:
            raise ConfigError("isolation must be >= 0 dB")
        if not self.rise_time >= 0:
            raise ConfigError("rise_time must be >= 0")

    def static_power(self, v_dd: float) -> float:
        """Static dissipation (W): leakage below threshold, cubic above."""
        if v_dd < 0:
            raise ConfigError("v_dd must be >= 0")
        if v_dd < self.v_threshold:
            return self.subthreshold_leak
        over = v_dd - self.v_threshold
        return self.subthreshold_leak + self.esd_static + self.static_coeff * over**3

    def dynamic_power(self, switch_rate: float, v_dd: float) -> float:
        """Switching dissipation (W): dyn_coeff * v_dd^2 * rate."""
        if switch_rate < 0:
            raise ConfigError("switch_rate must be >= 0")
        return self.dyn_coeff * v_dd * v_dd * switch_rate

    def floor_amplitude(self) -> float:
        """Leakage amplitude to an unselected port, 10^(-isolation/20)."""
        return 10.0 ** (-self.isolation_db / 20.0)


# ---------------------------------------------------------------------------
# Port gating envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GatingSchedule:
    """Time-ordered port selections and the leakage floor they gate against.

    events is a sequence of (time_s, port): at each time the multiplexer
    switches to the given port. Before the first event no port is selected
    and every port sits at the leakage floor.
    """

    events: tuple[tuple[float, str], ...]
    floor_amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "events", tuple((float(t), p) for t, p in self.events))
        times = [t for t, _ in self.events]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("schedule events must be strictly increasing in time")
        for _, port in self.events:
            if port not in PORTS:
                raise ConfigError(f"unknown port {port!r}")
        if not 0.0 < self.floor_amplitude <= 1.0:
            raise ConfigError("floor_amplitude must lie in (0, 1]")

    @classmethod
    def from_mux(cls, mux: MuxModel, events: Sequence[tuple[float, str]]) -> "GatingSchedule":
        return cls(events=tuple(events), floor_amplitude=mux.floor_amplitude())


class EnvelopeModulator:
    """Callable time -> [floor, 1]: the transmission amplitude factor toward
    target_port of several schedules, one per member along the trailing axis
    of t, so column b of the result is schedules[b]'s envelope at t[..., b];
    with one schedule the callable is elementwise. Transitions follow a
    first-order exponential whose 10-90% rise time equals rise_time;
    rise_time = 0 gives an ideal step (right-continuous at event times).

    The port and rise time are checked, and every schedule's knots built,
    once, here. Knot 0 of each member is the floor from time -inf on; a call
    counts the knots at or before each time and reads one knot per value,
    so a padded knot (at +inf) is never evaluated.
    """

    def __init__(self, schedules: Sequence[GatingSchedule], target_port: str, rise_time: float):
        if target_port not in PORTS:
            raise ConfigError(f"unknown port {target_port!r}")
        if not rise_time >= 0:
            raise ConfigError("rise_time must be >= 0")
        self.schedules = tuple(schedules)
        self.target_port = target_port
        self.rise_time = rise_time
        self._tau = rise_time * _RISE_TO_TAU
        n_knots = 1 + max((len(s.events) for s in self.schedules), default=0)
        # each knot's time, the level it switches to and the value approached
        # from the left at that time, chained from the floor
        table = np.zeros((len(self.schedules), n_knots, 3))
        table[..., 0] = math.inf
        for b, schedule in enumerate(self.schedules):
            floor = schedule.floor_amplitude
            y, knots = floor, [(-math.inf, floor, floor)]
            for t, port in schedule.events:
                if len(knots) > 1 and self._tau > 0.0:
                    t_prev, level, _ = knots[-1]
                    y = level + (y - level) * math.exp(-(t - t_prev) / self._tau)
                knots.append((t, 1.0 if port == target_port else floor, y))
            table[b, :len(knots)] = knots
        # flat tables, member b's knot k at entry b * n_knots + k
        self._times, self._levels, self._starts = table.reshape(-1, 3).T.copy()
        self._first = np.arange(len(self.schedules)) * n_knots
        self._event_times = table[:, 1:, 0].T  # row k - 1: every member's knot-k time

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # entry of each member's last knot at or before t (searchsorted's
        # side="right"), counted one knot row at a time
        i = np.broadcast_to(self._first, np.broadcast_shapes(t.shape, self._first.shape))
        for times in self._event_times:
            i = i + (t >= times)
        target = self._levels.take(i)
        if self._tau == 0.0:  # an ideal step
            return target
        decay = np.exp(-(t - self._times.take(i)) / self._tau)
        return target + (self._starts.take(i) - target) * decay


# ---------------------------------------------------------------------------
# Cooling budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoolingBudget:
    """Available cooling power and the per-channel dissipation (W)."""

    cooling_power: float
    per_channel_power: float

    def __post_init__(self):
        if self.cooling_power <= 0 or self.per_channel_power <= 0:
            raise ConfigError("cooling budget fields must be strictly positive")


def qubit_capacity(budget: CoolingBudget) -> int:
    """Number of channels that fit the budget: floor(cooling / per-channel).

    A 1e-12 relative guard (~4,500 ulps) keeps exact ratios from flooring down."""
    ratio = budget.cooling_power / budget.per_channel_power
    return int(math.floor(ratio * (1.0 + 1e-12)))


def per_channel_budget(cooling_power: float, qubit_count: int) -> float:
    """Inverse query: dissipation allowed per channel for a target count."""
    if cooling_power <= 0 or qubit_count <= 0:
        raise ConfigError("cooling power and qubit count must be positive")
    return cooling_power / qubit_count
