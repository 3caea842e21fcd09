"""Pulse-level open-system simulator for a single transmon.

Works in the rotating frame of the drive carrier under the rotating-wave
approximation, for 2 or 3 levels. The master equation with relaxation and
pure-dephasing channels is integrated with fixed-step RK4 on the vectorized
density matrix; the step grid is aligned with any discontinuities of the
gating modulator so the integrator never straddles a step.

Pulse corrections for leakage (derivative quadrature plus Stark-tracking
detuning) are physical only when a third level exists; in a 2-level
configuration they are inert and the pulse reduces to its plain envelope,
which is the ideal-gate reference frame the corrections aim to restore.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import TWO_PI
from .errors import CalibrationError, ConfigError, IntegrationError
from .noisecalc import CoherenceRecord

DEFAULT_ANHARMONICITY = TWO_PI * -180e6  # rad/s

_TRACE_TOL = 1e-6
_PULSE_SHAPES = ("cosine", "cosine_drag")


@dataclass(frozen=True)
class PulseSpec:
    """Drive pulse definition.

    shape            : "cosine" (raised-cosine envelope, zero at both ends)
                       or "cosine_drag" (adds first-order leakage corrections)
    t_g              : gate duration (s)
    amplitude        : peak Rabi rate (rad/s)
    drag_coefficient : dimensionless scale of the derivative quadrature,
                       -1/anharmonicity convention at 1.0
    carrier_detuning : drive minus qubit frequency (rad/s)
    """

    shape: str
    t_g: float
    amplitude: float
    drag_coefficient: float = 0.0
    carrier_detuning: float = 0.0

    def __post_init__(self):
        if self.shape not in _PULSE_SHAPES:
            raise ConfigError(f"unknown pulse shape {self.shape!r}")
        if self.t_g <= 0:
            raise ConfigError("t_g must be positive")
        if self.amplitude < 0:
            raise ConfigError("amplitude must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Simulator configuration.

    levels        : 2 or 3
    dt            : integrator step (s); None derives t_g/2000 per pulse
    t1            : relaxation time (s) or None for no relaxation
    t_phi         : pure dephasing time (s) or None
    anharmonicity : level-2 shift for 3-level runs (rad/s, signed)
    """

    levels: int = 2
    dt: float | None = None
    t1: float | None = None
    t_phi: float | None = None
    anharmonicity: float = DEFAULT_ANHARMONICITY

    def __post_init__(self):
        if self.levels not in (2, 3):
            raise ConfigError("levels must be 2 or 3")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        for name in ("t1", "t_phi"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{name} must be positive when set")

    @classmethod
    def from_coherence(cls, noise: CoherenceRecord, levels: int = 2, dt: float | None = None):
        """Derive channel rates from measured times: 1/t_phi = 1/t2* - 1/(2 t1)."""
        t1 = noise.t1 if math.isfinite(noise.t1) else None
        gamma_phi = 1.0 / noise.t2_star - 1.0 / (2.0 * noise.t1)
        t_phi = 1.0 / gamma_phi if gamma_phi > 0 else None
        return cls(levels=levels, dt=dt, t1=t1, t_phi=t_phi)


@dataclass
class QubitState:
    """Density-matrix state with physicality checks."""

    density_matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.density_matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ConfigError("density matrix must be square")
        self.density_matrix = rho
        self.validate()

    @classmethod
    def ground(cls, levels: int = 2) -> "QubitState":
        rho = np.zeros((levels, levels), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho)

    @property
    def levels(self) -> int:
        return self.density_matrix.shape[0]

    def population(self, level: int) -> float:
        return float(self.density_matrix[level, level].real)

    def validate(self, trace_tol: float = 1e-9, herm_tol: float = 1e-12) -> None:
        rho = self.density_matrix
        if abs(np.trace(rho).real - 1.0) > trace_tol:
            raise IntegrationError("density matrix trace drifted from 1")
        if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
            raise IntegrationError("density matrix is not Hermitian")


# ---------------------------------------------------------------------------
# Hamiltonian / Liouvillian assembly
# ---------------------------------------------------------------------------

def _lowering(levels: int) -> np.ndarray:
    a = np.zeros((levels, levels), dtype=complex)
    for k in range(1, levels):
        a[k - 1, k] = math.sqrt(k)
    return a


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    # row-major vec convention: vec(A rho B) = (A kron B^T) vec(rho)
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _dissipator_superop(c: np.ndarray) -> np.ndarray:
    eye = np.eye(c.shape[0])
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))


def _liouvillian_parts(config: SimConfig):
    """Static Liouvillian plus the three drive generators.

    L(t) = L0 + wx(t) Lx + wy(t) Ly + wn(t) Ln, where Ln couples to the
    excitation-number operator (detuning terms).
    """
    levels = config.levels
    a = _lowering(levels)
    nmat = a.conj().T @ a
    hx = (a + a.conj().T) / 2.0
    hy = 1j * (a.conj().T - a) / 2.0
    h0 = np.zeros((levels, levels), dtype=complex)
    if levels == 3:
        h0[2, 2] = config.anharmonicity
    l0 = _hamiltonian_superop(h0)
    if config.t1 is not None:
        l0 = l0 + _dissipator_superop(a / math.sqrt(config.t1))
    if config.t_phi is not None:
        l0 = l0 + _dissipator_superop(math.sqrt(2.0 / config.t_phi) * nmat)
    return l0, _hamiltonian_superop(hx), _hamiltonian_superop(hy), _hamiltonian_superop(nmat)


def _drive_waveforms(pulse: PulseSpec, config: SimConfig, t, modulator, phase: float):
    """In-phase, quadrature and number-operator coefficients at times t.

    The raised-cosine envelope is zero outside [0, t_g]. DRAG corrections
    (quadrature -lam*denv/alpha and detuning (1/2-lam)*wx^2/alpha) are
    applied only with a third level present.
    """
    t = np.asarray(t, dtype=float)
    t_g = pulse.t_g
    inside = (t >= 0.0) & (t <= t_g)
    env = np.where(inside, 0.5 * (1.0 - np.cos(TWO_PI * t / t_g)), 0.0)
    mod = np.ones_like(env) if modulator is None else np.asarray(modulator(t), dtype=float)
    wx = pulse.amplitude * env * mod
    wn = np.full_like(wx, -pulse.carrier_detuning)
    drag_active = (
        pulse.shape == "cosine_drag"
        and pulse.drag_coefficient != 0.0
        and config.levels == 3
    )
    if drag_active:
        lam = pulse.drag_coefficient
        alpha = config.anharmonicity
        denv = np.where(inside, 0.5 * (TWO_PI / t_g) * np.sin(TWO_PI * t / t_g), 0.0)
        wy = -lam * pulse.amplitude * denv * mod / alpha
        wn = wn + (0.5 - lam) * wx * wx / alpha
    else:
        wy = np.zeros_like(wx)
    if phase != 0.0:
        wx, wy = (
            wx * math.cos(phase) - wy * math.sin(phase),
            wx * math.sin(phase) + wy * math.cos(phase),
        )
    return wx, wy, wn


def _segments(t_g: float, breakpoints: Sequence[float] | None):
    """Split [0, t_g] at modulator breakpoints falling strictly inside."""
    cuts = [0.0, t_g]
    for b in breakpoints or ():
        if 0.0 < b < t_g:
            cuts.append(float(b))
    cuts = sorted(set(cuts))
    return list(zip(cuts[:-1], cuts[1:]))


def _resolve_dt(pulse: PulseSpec, config: SimConfig) -> float:
    dt = config.dt if config.dt is not None else pulse.t_g / 2000.0
    if dt > pulse.t_g / 200.0:
        raise ConfigError("dt must not exceed t_g/200")
    return dt


def _rk4(x: np.ndarray, pulse: PulseSpec, config: SimConfig, modulator, phase, step_hook=None):
    """Step x (vec(rho), or a stack of them as columns) through [0, t_g].

    Each segment between modulator breakpoints gets its own uniform grid.
    step_hook(x, t), when given, sees x after every step and returns the
    array to continue from.
    """
    dt_target = _resolve_dt(pulse, config)
    l0, lx, ly, ln = _liouvillian_parts(config)
    breakpoints = getattr(modulator, "breakpoints", None)
    for seg_start, seg_end in _segments(pulse.t_g, breakpoints):
        n_steps = max(1, math.ceil((seg_end - seg_start) / dt_target))
        dt = (seg_end - seg_start) / n_steps
        stencil = seg_start + np.arange(n_steps)[:, None] * dt + np.array([0.0, 0.5, 1.0]) * dt
        # sample strictly inside the half-open segment so a discontinuity at
        # seg_end is never read from the wrong side
        t_eval = np.minimum(stencil, np.nextafter(seg_end, seg_start))
        wx, wy, wn = _drive_waveforms(pulse, config, t_eval, modulator, phase)
        for i in range(n_steps):
            l_a = l0 + wx[i, 0] * lx + wy[i, 0] * ly + wn[i, 0] * ln
            l_b = l0 + wx[i, 1] * lx + wy[i, 1] * ly + wn[i, 1] * ln
            l_c = l0 + wx[i, 2] * lx + wy[i, 2] * ly + wn[i, 2] * ln
            k1 = l_a @ x
            k2 = l_b @ (x + 0.5 * dt * k1)
            k3 = l_b @ (x + 0.5 * dt * k2)
            k4 = l_c @ (x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step_hook is not None:
                x = step_hook(x, stencil[i, 2])
    return x


def evolve(
    state: QubitState,
    pulse: PulseSpec,
    envelope_modulator: Callable | None = None,
    config: SimConfig = SimConfig(),
    *,
    phase: float = 0.0,
    return_trajectory: bool = False,
):
    """Integrate the master equation over the pulse window [0, t_g].

    envelope_modulator, when given, multiplies the drive amplitude by a
    value in [0, 1] at each time (a `breakpoints` attribute on it marks
    discontinuities for grid alignment). phase rotates the drive IQ pair,
    giving gates about axes other than x.

    Returns the final QubitState, or (state, times, trajectory) with
    per-step density matrices when return_trajectory is set.
    """
    if state.levels != config.levels:
        raise ConfigError("state dimension does not match config.levels")
    dim = config.levels
    trace_idx = np.arange(dim) * (dim + 1)
    v = state.density_matrix.reshape(-1).astype(complex)
    times = [0.0]
    traj = [v.copy()]

    def project(v, t):
        rho = v.reshape(dim, dim)
        v = (0.5 * (rho + rho.conj().T)).reshape(-1)
        trace = v[trace_idx].real.sum()
        if abs(trace - 1.0) > _TRACE_TOL:
            raise IntegrationError(f"trace drifted to {trace!r} during integration")
        if return_trajectory:
            times.append(t)
            traj.append(v.copy())
        return v

    v = _rk4(v, pulse, config, envelope_modulator, phase, project)
    final = QubitState(v.reshape(dim, dim))
    if return_trajectory:
        return final, np.array(times), np.array(traj).reshape(-1, dim, dim)
    return final


def gate_channel(
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    *,
    phase: float = 0.0,
    envelope_modulator: Callable | None = None,
) -> np.ndarray:
    """Quantum channel of one pulse as a superoperator on vec(rho).

    Integrates the propagator of the master equation (row-major vec, as in
    evolve), so composing channels reproduces evolve() gate by gate. Useful
    when the same gate is applied many times, e.g. in benchmarking sequences.
    """
    return _rk4(np.eye(config.levels**2, dtype=complex), pulse, config, envelope_modulator, phase)


# ---------------------------------------------------------------------------
# Calibration and experiments
# ---------------------------------------------------------------------------

def calibrate_pi_pulse(
    t_g: float,
    shape: str = "cosine",
    config: SimConfig | None = None,
    drag_coefficient: float | None = None,
) -> PulseSpec:
    """Find the amplitude driving a full ground-to-excited flip.

    The amplitude is the analytic pi / integral of the unit envelope
    (2*pi/t_g for the raised cosine). One decay-free 2-level simulation with
    the full window open, at config's step, checks that it flips the qubit
    to within 1e-6.
    """
    if t_g <= 0:
        raise ConfigError("t_g must be positive")
    if drag_coefficient is None:
        drag_coefficient = 1.0 if shape == "cosine_drag" else 0.0
    pulse = PulseSpec(shape, t_g, TWO_PI / t_g, drag_coefficient)
    cal_config = SimConfig(levels=2, dt=(config or SimConfig()).dt)
    infidelity = 1.0 - evolve(QubitState.ground(2), pulse, None, cal_config).population(1)
    if infidelity > 1e-6:
        raise CalibrationError(f"pi calibration missed a full flip by {infidelity:.3e}")
    return pulse


def tdm_experiment(
    window: float,
    mux,
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    horizon: float | None = None,
) -> float:
    """Excited-state population after gating the pulse through a time window.

    Opens the target port RF1 for `window` seconds centered on the pulse
    (idle routing to RF2), with the leakage floor set by the multiplexer
    isolation and transitions following its rise time. Returns p_e.
    """
    from .chainmodel import EnvelopeModulator, GatingSchedule

    if window < 0:
        raise ConfigError("window must be >= 0")
    if horizon is None:
        horizon = 4.0 * pulse.t_g
    if window > horizon:
        raise ConfigError("window exceeds the simulation horizon")

    mid = pulse.t_g / 2.0
    if window == 0.0:
        events = ()
    else:
        events = ((mid - window / 2.0, "RF1"), (mid + window / 2.0, "RF2"))
    schedule = GatingSchedule.from_mux(mux, events)
    modulator = EnvelopeModulator(schedule, "RF1", mux.rise_time)
    final = evolve(QubitState.ground(config.levels), pulse, modulator, config)
    return final.population(1)


def detected_population(p_e: float, detection_floor: float = 1e-2) -> float:
    """Population as the measurement chain would report it.

    Values below the readout detection floor are indistinguishable from the
    floor; use only when emulating measured data, and keep the raw p_e."""
    return max(p_e, detection_floor)


def windowed_rabi_angle(window: float, t_g: float, floor_amplitude: float) -> float:
    """Analytic rotation angle of a gated resonant pi-pulse (ideal switching).

    The open fraction of the cosine area for a centered window w is
    w/t_g + sin(pi w / t_g)/pi; leakage drives the rest at the floor.
    """
    w = min(max(window, 0.0), t_g)
    frac = w / t_g + math.sin(math.pi * w / t_g) / math.pi
    return math.pi * (floor_amplitude + (1.0 - floor_amplitude) * frac)


def synth_decay_trace(
    kind: str,
    truth: CoherenceRecord,
    detuning: float = 0.0,
    times: Sequence[float] | np.ndarray = (),
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> np.ndarray:
    """Generate an ideal decay trace with optional Gaussian observation noise.

    t1     : exp(-t/T1)
    ramsey : 0.5 * (1 + exp(-t/T2*) cos(2 pi detuning t))
    echo   : 0.5 * (1 + exp(-t/T2e))
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0 or np.any(np.diff(t) <= 0):
        raise ConfigError("times must be non-empty and strictly increasing")
    if kind == "t1":
        y = np.exp(-t / truth.t1)
    elif kind == "ramsey":
        y = 0.5 * (1.0 + np.exp(-t / truth.t2_star) * np.cos(TWO_PI * detuning * t))
    elif kind == "echo":
        y = 0.5 * (1.0 + np.exp(-t / truth.t2_echo))
    else:
        raise ConfigError(f"unknown trace kind {kind!r}")
    if noise_sigma:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=y.shape)
    return y
