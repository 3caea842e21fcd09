"""Behavioral model of the SP4T cryogenic RF multiplexer.

Models the port-gating transmission envelope with finite rise time,
static/dynamic power dissipation, and a cooling-budget planner for
channel-count estimates.

Conventions chosen here and kept throughout:
  * Ports are the strings "RF1".."RF4"; the control word is 2 bits (D1, D0).
  * The default word-to-port map is (0,0)->RF1, (0,1)->RF2, (1,0)->RF3,
    (1,1)->RF4; only the first two assignments are fixed by the hardware,
    the rest is a documented convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

PORTS = ("RF1", "RF2", "RF3", "RF4")

DEFAULT_PORT_MAP: dict[tuple[int, int], str] = {
    (0, 0): "RF1",
    (0, 1): "RF2",
    (1, 0): "RF3",
    (1, 1): "RF4",
}

# JSON key (unit-suffixed) of each numeric MuxModel field; the port map is
# keyed "port_map", with words written as "00".."11".
_MUX_JSON_KEYS = {
    "v_threshold_v": "v_threshold",
    "static_coeff_w_per_v3": "static_coeff",
    "esd_static_w": "esd_static",
    "subthreshold_leak_w": "subthreshold_leak",
    "dyn_coeff_j_per_hz_v2": "dyn_coeff",
    "dyn_coeff_serial_j_per_hz_v2": "dyn_coeff_serial",
    "isolation_db": "isolation_db",
    "insertion_loss_db": "insertion_loss_db",
    "rise_time_s": "rise_time",
}

# 10-90% rise time of a first-order response is ln(9) time constants.
_RISE_TO_TAU = 1.0 / math.log(9.0)


def _check_port_map(port_map: Mapping[tuple[int, int], str]) -> None:
    if set(port_map.keys()) != set(DEFAULT_PORT_MAP.keys()):
        raise ConfigError("port_map must assign all four 2-bit words")
    if sorted(port_map.values()) != sorted(PORTS):
        raise ConfigError("port_map must be a bijection onto RF1..RF4")


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
    dyn_coeff_serial : same with only the digital logic toggling (a config
                       field; dynamic_power uses dyn_coeff)
    isolation_db     : worst-case port-to-port isolation (positive dB)
    insertion_loss_db: through-path loss (positive dB)
    rise_time        : 10-90% switching rise/fall time (s)
    port_map         : (D1, D0) -> RF port assignment
    """

    v_threshold: float = 0.6
    static_coeff: float = 2.3e-4
    esd_static: float = 0.37e-6
    subthreshold_leak: float = 0.0
    dyn_coeff: float = 1.0e-12
    dyn_coeff_serial: float = 0.26e-12
    isolation_db: float = 30.0
    insertion_loss_db: float = 2.3
    rise_time: float = 2.6e-9
    port_map: Mapping[tuple[int, int], str] = field(
        default_factory=lambda: dict(DEFAULT_PORT_MAP)
    )

    def __post_init__(self):
        if self.v_threshold <= 0:
            raise ConfigError("v_threshold must be positive")
        if self.isolation_db < 0 or self.insertion_loss_db < 0:
            raise ConfigError("isolation and insertion loss must be >= 0 dB")
        if self.rise_time < 0:
            raise ConfigError("rise_time must be >= 0")
        if not self.dyn_coeff_serial < self.dyn_coeff:
            raise ConfigError("serial-only switching must dissipate less than parallel")
        _check_port_map(self.port_map)

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

    def to_dict(self) -> dict:
        out = {key: getattr(self, name) for key, name in _MUX_JSON_KEYS.items()}
        out["port_map"] = {f"{d1}{d0}": port for (d1, d0), port in self.port_map.items()}
        return out

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "MuxModel":
        """Build from a JSON-style mapping with unit-suffixed keys; a malformed
        entry raises ConfigError."""
        if not isinstance(cfg, Mapping):
            raise ConfigError(f"MuxModel config must be a mapping, got {cfg!r}")
        words = {f"{d1}{d0}": (d1, d0) for d1, d0 in DEFAULT_PORT_MAP}
        kwargs = {}
        for key, value in cfg.items():
            if key == "port_map":
                if not isinstance(value, Mapping) or not all(
                    word in words and isinstance(port, str) for word, port in value.items()
                ):
                    raise ConfigError(f"port_map must map words '00'..'11' to ports, got {value!r}")
                kwargs["port_map"] = {words[word]: port for word, port in value.items()}
            elif key not in _MUX_JSON_KEYS:
                raise ConfigError(f"unknown MuxModel key {key!r}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"MuxModel key {key!r} must be a number, got {value!r}")
            else:
                kwargs[_MUX_JSON_KEYS[key]] = float(value)
        return cls(**kwargs)


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


def _knot_levels(schedule: GatingSchedule, target_port: str):
    times = np.array([t for t, _ in schedule.events])
    levels = np.array(
        [1.0 if port == target_port else schedule.floor_amplitude for _, port in schedule.events]
    )
    return times, levels


def gating_envelope(
    schedule: GatingSchedule,
    target_port: str,
    t: float | np.ndarray,
    rise_time: float,
) -> float | np.ndarray:
    """Transmission amplitude factor toward target_port at time t.

    Values lie in [floor_amplitude, 1]. Transitions follow a first-order
    exponential whose 10-90% rise time equals rise_time; rise_time = 0
    gives an ideal step (right-continuous at event times).
    """
    if target_port not in PORTS:
        raise ConfigError(f"unknown port {target_port!r}")
    if rise_time < 0:
        raise ConfigError("rise_time must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    floor = schedule.floor_amplitude
    if not schedule.events:
        out = np.full_like(t_arr, floor)
        return float(out) if np.isscalar(t) else out

    times, levels = _knot_levels(schedule, target_port)
    idx = np.searchsorted(times, t_arr, side="right") - 1

    if rise_time == 0.0:
        out = np.where(idx < 0, floor, levels[np.clip(idx, 0, None)])
        return float(out) if np.isscalar(t) else out

    tau = rise_time * _RISE_TO_TAU
    # value approached from the left at each event time, chained recursively
    y_at = np.empty(len(times))
    y = floor
    for k in range(len(times)):
        if k > 0:
            y = levels[k - 1] + (y - levels[k - 1]) * math.exp(-(times[k] - times[k - 1]) / tau)
        y_at[k] = y
    safe = np.clip(idx, 0, None)
    target = levels[safe]
    start = y_at[safe]
    decay = np.exp(-(t_arr - times[safe]) / tau)
    out = np.where(idx < 0, floor, target + (start - target) * decay)
    return float(out) if np.isscalar(t) else out


class EnvelopeModulator:
    """Callable time -> [floor, 1] for one target port of a schedule.

    Exposes the schedule's event times as breakpoints so integrators can
    align their step grid with the discontinuities.
    """

    def __init__(self, schedule: GatingSchedule, target_port: str, rise_time: float):
        self.schedule = schedule
        self.target_port = target_port
        self.rise_time = rise_time
        self.breakpoints = tuple(t for t, _ in schedule.events)

    def __call__(self, t):
        return gating_envelope(self.schedule, self.target_port, t, self.rise_time)


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

    A one-ulp relative guard keeps exact ratios from flooring down."""
    ratio = budget.cooling_power / budget.per_channel_power
    return int(math.floor(ratio * (1.0 + 1e-12)))


def per_channel_budget(cooling_power: float, qubit_count: int) -> float:
    """Inverse query: dissipation allowed per channel for a target count."""
    if cooling_power <= 0 or qubit_count <= 0:
        raise ConfigError("cooling power and qubit count must be positive")
    return cooling_power / qubit_count
