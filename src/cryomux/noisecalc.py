"""Closed-form noise calculus for the multiplexer/qubit signal chain.

Covers photon shot-noise dephasing of a dispersively coupled transmon,
Bose-Einstein occupancy/temperature conversions, attenuation propagation,
the relaxation limit imposed by voltage noise on a charge line, and the
linear dephasing-vs-switching-rate model.

All spectroscopic quantities are stored internally as angular frequencies
(rad/s); constructors accept the laboratory convention of cycles (Hz) and
convert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_K, HBAR, PLANCK_H, TWO_PI, db_to_power_ratio
from .errors import ConfigError, SingularityError

# Additional dephasing rate per unit of multiplexer switching rate,
# measured as 88.66 kHz of dephasing per MHz of switching.
SWITCHING_DEPHASING_SLOPE = 88.66e3 / 1e6
# Readout-resonator linewidth and dispersive shift (Hz) of the benchmark device
KAPPA_R_HZ, CHI_HZ = 0.697e6, -0.259e6


@dataclass(frozen=True)
class TransmonParams:
    """Readout-resonator constants of the dephasing model, angular (rad/s).

    kappa_r : resonator linewidth
    chi     : dispersive shift (signed)
    """

    kappa_r: float
    chi: float

    def __post_init__(self):
        if self.kappa_r <= 0:
            raise ConfigError("kappa_r must be positive")

    @classmethod
    def from_hz(cls, kappa_r_hz, chi_hz):
        """Build from cycle frequencies (the usual lab/table units)."""
        return cls(kappa_r=TWO_PI * kappa_r_hz, chi=TWO_PI * chi_hz)

    @classmethod
    def default(cls) -> "TransmonParams":
        """Parameters of the benchmark transmon device."""
        return cls.from_hz(KAPPA_R_HZ, CHI_HZ)


@dataclass(frozen=True)
class DriveCoupling:
    """Charge-line coupling of a drive source to the qubit.

    c_d   : drive-line coupling capacitance (F)
    c_q   : qubit capacitance (F)
    r_m   : source resistance of the multiplexer (ohm)
    t_eff : effective carrier temperature of the source (K)
    """

    c_d: float
    c_q: float
    r_m: float
    t_eff: float

    def __post_init__(self):
        if min(self.c_d, self.c_q, self.r_m) <= 0 or self.t_eff < 0:
            raise ConfigError("capacitances and resistance must be positive, t_eff >= 0")


@dataclass(frozen=True)
class CoherenceRecord:
    """Measured coherence times in seconds (t2 values bounded by 2*t1)."""

    t1: float
    t2_star: float
    t2_echo: float

    def __post_init__(self):
        if not (self.t1 > 0 and self.t2_star > 0 and self.t2_echo > 0):
            raise ConfigError("coherence times must be positive")
        if self.t2_star > 2 * self.t1 or self.t2_echo > 2 * self.t1:
            raise ConfigError("t2 may not exceed 2*t1")


def excess_rate(t_on: float, t_baseline: float) -> float:
    """Decoherence rate added on top of a baseline: 1/t_on - 1/t_baseline."""
    return 1.0 / t_on - 1.0 / t_baseline


def occupancy_from_dephasing(gamma_excess: float, params: TransmonParams) -> float:
    """Resonator thermal photon number producing a given excess dephasing rate.

    n = Gamma * (kappa_r^2 + 4 chi^2) / (4 chi^2 kappa_r), with Gamma a plain
    rate in 1/s and kappa_r, chi angular.
    """
    if gamma_excess < 0:
        raise ConfigError("gamma_excess must be >= 0")
    if params.chi == 0:
        raise SingularityError("dispersive shift chi = 0: no photon-number sensitivity")
    k, x = params.kappa_r, params.chi
    return gamma_excess * (k * k + 4 * x * x) / (4 * x * x * k)


def dephasing_from_occupancy(n: float, params: TransmonParams) -> float:
    """Exact inverse of occupancy_from_dephasing (rate in 1/s, finite)."""
    if n < 0:
        raise ConfigError("occupancy must be >= 0")
    if params.chi == 0:
        raise SingularityError("dispersive shift chi = 0: no photon-number sensitivity")
    k, x = params.kappa_r, params.chi
    rate = float(n) * (4 * x * x * k) / (k * k + 4 * x * x)  # a float overflows without a warning
    if math.isinf(rate):  # n * 4 chi^2 kappa overflowed first: take the ratio first
        rate = float(n) * ((4 * x * x * k) / (k * k + 4 * x * x))
    if math.isinf(rate):  # its lifetime 1/rate would read 0 s
        raise SingularityError(f"occupancy {n:g} gives a dephasing rate past the float range")
    return rate


def occupancy_to_temperature(n: float, f: float) -> float:
    """Temperature (K) of a Bose-Einstein mode at frequency f (Hz) with occupancy n."""
    if f <= 0:
        raise ConfigError("frequency must be positive")
    if n < 0:
        raise ConfigError("occupancy must be >= 0")
    if n == 0:
        return 0.0
    return PLANCK_H * f / BOLTZMANN_K / math.log1p(1.0 / n)


def temperature_to_occupancy(t: float, f: float) -> float:
    """Mean thermal photon number 1/(exp(hf/kT) - 1); t = 0 maps to 0."""
    if f <= 0:
        raise ConfigError("frequency must be positive")
    if t < 0:
        raise ConfigError("temperature must be >= 0")
    if t == 0:
        return 0.0
    return 1.0 / math.expm1(PLANCK_H * f / (BOLTZMANN_K * t))


def propagate_attenuation(n: float, attenuation_db: float, direction: str) -> float:
    """Scale an occupancy through an attenuator.

    'toward_qubit' multiplies by the transmitted power fraction,
    'toward_source' divides (referring the occupancy back to the source).
    Self-emission of the cold attenuator is neglected.
    """
    if n < 0:
        raise ConfigError("occupancy must be >= 0")
    factor = db_to_power_ratio(attenuation_db)
    if direction == "toward_qubit":
        return n * factor
    if direction == "toward_source":
        return n / factor
    raise ConfigError(f"unknown direction {direction!r}")


def voltage_noise_psd(omega: float, r_m: float, t_eff: float) -> float:
    """Emission-side quantum voltage noise of a resistor, V^2/Hz.

    S_VV(omega) = 4 R hbar omega / (exp(hbar omega / k_B T) - 1); vanishes
    as T -> 0 for omega > 0.
    """
    if omega <= 0 or r_m <= 0:
        raise ConfigError("omega and r_m must be positive")
    if t_eff < 0:
        raise ConfigError("t_eff must be >= 0")
    if t_eff == 0:
        return 0.0
    return 4.0 * r_m * HBAR * omega / math.expm1(HBAR * omega / (BOLTZMANN_K * t_eff))


def drive_coupling_energy(c_d: float, c_q: float, omega_q: float) -> float:
    """Transverse coupling matrix element of charge-line voltage to the qubit.

    A_d = sqrt(hbar c_q omega_q / 2) * c_d / (c_d + c_q), in coulombs.
    """
    return math.sqrt(HBAR * c_q * omega_q / 2.0) * c_d / (c_d + c_q)


def t1_limit(coupling: DriveCoupling, omega_q: float, attenuation_db: float = 0.0) -> float:
    """Relaxation-time limit set by voltage noise on the drive line (s).

    T1 = hbar^2 / (A_d^2 S_VV(omega_q)); attenuation scales the noise
    reaching the qubit. Returns inf when the source emits no noise.
    """
    svv = voltage_noise_psd(omega_q, coupling.r_m, coupling.t_eff)
    svv *= db_to_power_ratio(attenuation_db)
    if svv == 0.0:
        return math.inf
    a_d = drive_coupling_energy(coupling.c_d, coupling.c_q, omega_q)
    return HBAR * HBAR / (a_d * a_d * svv)


def dephasing_vs_switching(
    rate: float | np.ndarray,
    gamma_static: float,
    slope: float = SWITCHING_DEPHASING_SLOPE,
) -> float | np.ndarray:
    """Total dephasing rate under dynamic switching: gamma_static + slope * rate."""
    if np.any(np.asarray(rate) < 0):
        raise ConfigError("switching rate must be >= 0")
    return gamma_static + slope * rate
