"""Pulse-level open-system simulator for a single transmon.

Works in the rotating frame of the drive carrier under the rotating-wave
approximation, for 2 or 3 levels. The master equation with relaxation and
pure-dephasing channels is integrated with fixed-step RK4 on the vectorized
density matrix; the step grid is aligned with any discontinuities of the
gating modulator so the integrator never straddles a step.

States are stepped stage-wise by one RK4 loop, which steps a batch of
problems that share the pulse and the Liouvillian parts but each have their
own modulator, as in a gating-window sweep. Every member keeps its own
breakpoint-aligned grid; a member with fewer steps is padded at its end with
zero-length, zero-drive steps, which leave it unchanged. Drive waveforms are
evaluated a fixed block of steps at a time and sweeps are integrated a fixed
chunk of windows at a time, so memory does not grow with the number of steps
or windows. A single evolve call is a batch of one.

Gate channels act on all d*d basis states at once, so instead of stepping
the identity they are products of the same RK4 step's propagators, built a
block of steps at a time on the same grid and drive samples: this costs the
arithmetic of stepping d*d columns without a Python-level loop per step.

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
# lowest eigenvalue allowed in a final state is -_POSITIVITY_TOL: the golden
# runs reach -8.2e-18, 3-level runs at the coarsest step (t_g/200) -2.7e-7
_POSITIVITY_TOL = 1e-6
_PULSE_SHAPES = ("cosine", "cosine_drag")
_STAGES = np.array([0.0, 0.5, 1.0])  # RK4 stage times as fractions of a step
_BLOCK_STEPS = 256  # steps whose drive waveforms (and channel propagators) are built at once
_SWEEP_CHUNK = 32  # most gating windows integrated in one batch


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
    def from_coherence(cls, noise: CoherenceRecord):
        """Derive 2-level channel rates from measured times:
        1/t_phi = 1/t2* - 1/(2 t1)."""
        t1 = noise.t1 if math.isfinite(noise.t1) else None
        gamma_phi = 1.0 / noise.t2_star - 1.0 / (2.0 * noise.t1)
        t_phi = 1.0 / gamma_phi if gamma_phi > 0 else None
        return cls(t1=t1, t_phi=t_phi)


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

    def validate(self) -> None:
        """Raise IntegrationError unless rho has unit trace (to 1e-9), is
        Hermitian (to 1e-12) and has no eigenvalue below -_POSITIVITY_TOL;
        NaN fails every check."""
        rho = self.density_matrix
        if not abs(np.trace(rho).real - 1.0) <= 1e-9:
            raise IntegrationError("density matrix trace drifted from 1")
        if not np.max(np.abs(rho - rho.conj().T)) <= 1e-12:
            raise IntegrationError("density matrix is not Hermitian")
        # rho + tol*I is positive definite iff every pivot of its Cholesky
        # elimination is positive; unlike a LAPACK eigensolver, this pages in
        # no library code (0.9 MiB of resident memory in a TDM sweep)
        a = rho + _POSITIVITY_TOL * np.eye(len(rho))
        while len(a):
            if not a[0, 0].real > 0.0:
                raise IntegrationError(f"density matrix has an eigenvalue < {-_POSITIVITY_TOL!r}")
            a = a[1:, 1:] - np.outer(a[1:, 0], a[0, 1:]) / a[0, 0]


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


class _Grid:
    """Step grid of one batch member: each segment between its modulator's
    breakpoints gets a uniform step of at most dt_target."""

    def __init__(self, t_g: float, dt_target: float, breakpoints):
        segments = _segments(t_g, breakpoints)
        counts = [max(1, math.ceil((end - start) / dt_target)) for start, end in segments]
        self.first = np.cumsum([0] + counts)
        self.n_steps = int(self.first[-1])
        self.start = np.array([start for start, _ in segments])
        self.dt = np.array([(end - start) / n for (start, end), n in zip(segments, counts)])
        # sample strictly inside the half-open segment so a discontinuity at
        # its end is never read from the wrong side
        self.last = np.array([np.nextafter(end, start) for start, end in segments])

    def block(self, j0: int, j1: int):
        """End times (n,), stage sampling times (n, 3) and lengths (n,) of
        the grid's steps j0 <= j < j1."""
        j = np.arange(j0, min(j1, self.n_steps))
        seg = np.searchsorted(self.first, j, side="right") - 1
        dt = self.dt[seg][:, None]
        stencil = self.start[seg][:, None] + (j - self.first[seg])[:, None] * dt + _STAGES * dt
        return stencil[:, 2], np.minimum(stencil, self.last[seg][:, None]), dt[:, 0]


def _rk4(x: np.ndarray, pulse: PulseSpec, config: SimConfig, modulators, phase, step_hook=None):
    """Step a batch x of shape (B, d*d, k), member b driven through
    modulators[b], through [0, t_g] in one loop.

    Drive waveforms are evaluated _BLOCK_STEPS steps at a time into buffers
    reused by every block. A member whose grid ends early takes zero-length,
    zero-drive steps, which leave it unchanged. step_hook(x, t), when given,
    sees x after every step, with t the members' step end times, and returns
    the array to continue from.
    """
    dt_target = _resolve_dt(pulse, config)
    grids = [_Grid(pulse.t_g, dt_target, getattr(m, "breakpoints", None)) for m in modulators]
    n_max = max(grid.n_steps for grid in grids)
    l0, lx, ly, ln = _liouvillian_parts(config)
    shape = (min(_BLOCK_STEPS, n_max), len(grids))  # (step, member)
    t_end = np.empty(shape)
    dt, half_dt, sixth_dt = (np.empty((*shape, 1, 1)) for _ in range(3))
    drive = np.empty((3, *shape, 3, 1, 1))  # wx, wy, wn at each RK4 stage
    wx, wy, wn = drive
    # the Liouvillians at each step's start, midpoint and end, built in place
    l_stages, term = (np.empty((len(grids), 3, *l0.shape), dtype=complex) for _ in range(2))
    for j0 in range(0, n_max, _BLOCK_STEPS):
        for buffer in (t_end, dt, drive):
            buffer.fill(0.0)
        for b, (grid, modulator) in enumerate(zip(grids, modulators)):
            t_end_b, t_eval, dt_b = grid.block(j0, j0 + shape[0])
            n = len(dt_b)
            t_end[:n, b], dt[:n, b, 0, 0] = t_end_b, dt_b
            drive[:, :n, b, :, 0, 0] = _drive_waveforms(pulse, config, t_eval, modulator, phase)
        np.multiply(0.5, dt, out=half_dt)
        np.divide(dt, 6.0, out=sixth_dt)
        for i in range(min(_BLOCK_STEPS, n_max - j0)):
            np.add(l0, np.multiply(wx[i], lx, out=l_stages), out=l_stages)
            l_stages += np.multiply(wy[i], ly, out=term)
            l_stages += np.multiply(wn[i], ln, out=term)
            l_a, l_b, l_c = l_stages[:, 0], l_stages[:, 1], l_stages[:, 2]
            k1 = l_a @ x
            k2 = l_b @ (x + half_dt[i] * k1)
            k3 = l_b @ (x + half_dt[i] * k2)
            k4 = l_c @ (x + dt[i] * k3)
            x = x + sixth_dt[i] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step_hook is not None:
                x = step_hook(x, t_end[i])
    return x


def _evolve_batch(rho0, pulse, config: SimConfig, modulators, labels, phase=0.0, trajectory=None):
    """Integrate each density matrix rho0[b] under modulators[b] and return
    the final QubitStates.

    After every step each member is projected onto Hermitian matrices and
    its trace checked; trajectory, when a list, receives member 0's
    (time, rho) after each step. An IntegrationError from the trace check
    or the final state's validation starts with the member's label.
    """
    dim = config.levels
    diagonal = np.arange(dim) * (dim + 1)

    def project(x, t):
        rho = x.reshape(-1, dim, dim)
        x = (0.5 * (rho + rho.conj().swapaxes(1, 2))).reshape(x.shape)
        trace = x[:, diagonal, 0].real.sum(axis=1)
        drift = np.abs(trace - 1.0)
        if not drift.max() <= _TRACE_TOL:  # max propagates NaN
            b = np.flatnonzero(~(drift <= _TRACE_TOL))[0]
            drifted = float(trace[b])
            raise IntegrationError(f"{labels[b]}trace drifted to {drifted!r} during integration")
        if trajectory is not None:
            trajectory.append((t[0], x[0].reshape(dim, dim).copy()))
        return x

    x = np.asarray(rho0, dtype=complex).reshape(len(modulators), dim * dim, 1)
    x = _rk4(x, pulse, config, modulators, phase, project)
    finals = []
    for label, rho in zip(labels, x.reshape(-1, dim, dim)):
        try:
            finals.append(QubitState(rho))
        except IntegrationError as exc:
            raise IntegrationError(f"{label}{exc}") from None
    return finals


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
    trajectory = [(0.0, state.density_matrix)] if return_trajectory else None
    (final,) = _evolve_batch(
        state.density_matrix[None], pulse, config, [envelope_modulator], [""], phase, trajectory
    )
    if return_trajectory:
        times, traj = zip(*trajectory)
        return final, np.array(times), np.array(traj)
    return final


def gate_channel(
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    *,
    phase: float = 0.0,
    envelope_modulator: Callable | None = None,
) -> np.ndarray:
    """Quantum channel of one pulse as a superoperator on vec(rho).

    The channel (row-major vec, as in evolve) is the product of the RK4 step
    propagators on evolve's grid and drive samples, so composing channels
    reproduces evolve() gate by gate. RK4 is linear in the state, so step j
    maps x to P_j x with
        A2 = Lb + h/2 Lb La,  A3 = Lb + h/2 Lb A2,  A4 = Lc + h Lc A3,
        P_j = I + h/6 (La + 2 A2 + 2 A3 + A4),
    La, Lb and Lc being the Liouvillians at the step's start, midpoint and
    end. The propagators of _BLOCK_STEPS steps are built at once and
    multiplied pairwise, later steps on the left. Raises IntegrationError
    unless every entry is finite and the channel preserves trace to within
    _TRACE_TOL. Useful when the same gate is applied many times, e.g. in
    benchmarking sequences.
    """
    dim2 = config.levels**2
    breakpoints = getattr(envelope_modulator, "breakpoints", None)
    grid = _Grid(pulse.t_g, _resolve_dt(pulse, config), breakpoints)
    l0, lx, ly, ln = _liouvillian_parts(config)
    channel = np.eye(dim2, dtype=complex)
    for j0 in range(0, grid.n_steps, _BLOCK_STEPS):
        _, t_eval, h = grid.block(j0, j0 + _BLOCK_STEPS)
        drive = _drive_waveforms(pulse, config, t_eval, envelope_modulator, phase)
        wx, wy, wn = (w[..., None, None] for w in drive)
        l_stages = l0 + wx * lx + wy * ly + wn * ln  # (n, 3, d*d, d*d)
        l_a, l_b, l_c = l_stages[:, 0], l_stages[:, 1], l_stages[:, 2]
        h = h[:, None, None]
        a2 = l_b + 0.5 * h * (l_b @ l_a)
        a3 = l_b + 0.5 * h * (l_b @ a2)
        a4 = l_c + h * (l_c @ a3)
        props = np.eye(dim2) + h / 6.0 * (l_a + 2.0 * a2 + 2.0 * a3 + a4)
        while len(props) > 1:
            paired = props[1::2] @ props[0:len(props) - 1:2]
            props = np.concatenate([paired, props[-1:]]) if len(props) % 2 else paired
        channel = props[0] @ channel
    vec_identity = np.eye(config.levels).reshape(-1)
    drift = float(np.abs(vec_identity @ channel - vec_identity).max())
    if not (np.isfinite(channel).all() and drift <= _TRACE_TOL):
        raise IntegrationError(f"gate channel is not finite and trace-preserving (drift {drift!r})")
    return channel


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
    if not infidelity <= 1e-6:
        raise CalibrationError(f"pi calibration missed a full flip by {infidelity:.3e}")
    return pulse


def tdm_sweep(
    windows: Sequence[float],
    mux,
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    horizon: float | None = None,
) -> np.ndarray:
    """Excited-state population after gating the pulse through each window.

    Window w opens the target port RF1 for w seconds centered on the pulse
    (idle routing to RF2), with the leakage floor set by the multiplexer
    isolation and transitions following its rise time. Every window is
    checked against [0, horizon] before any is integrated; the windows are
    then integrated together, in chunks of at most _SWEEP_CHUNK. Returns
    p_e per window.
    """
    from .chainmodel import EnvelopeModulator, GatingSchedule

    windows = [float(w) for w in windows]
    if horizon is None:
        horizon = 4.0 * pulse.t_g
    for w in windows:
        if not w >= 0:
            raise ConfigError(f"window must be >= 0, got {w!r}")
        if w > horizon:
            raise ConfigError(f"window {w!r} s exceeds the simulation horizon {horizon!r} s")

    mid = pulse.t_g / 2.0

    def gated(window):
        events = () if window == 0.0 else ((mid - window / 2.0, "RF1"), (mid + window / 2.0, "RF2"))
        return EnvelopeModulator(GatingSchedule.from_mux(mux, events), "RF1", mux.rise_time)

    ground = QubitState.ground(config.levels).density_matrix
    p_e = []
    n_chunks = -(-len(windows) // _SWEEP_CHUNK)
    for k in range(n_chunks):
        chunk = windows[k * len(windows) // n_chunks:(k + 1) * len(windows) // n_chunks]
        rho0 = np.broadcast_to(ground, (len(chunk), *ground.shape))
        labels = [f"window {w!r} s: " for w in chunk]
        finals = _evolve_batch(rho0, pulse, config, [gated(w) for w in chunk], labels)
        p_e += [final.population(1) for final in finals]
    return np.array(p_e)


def tdm_experiment(
    window: float,
    mux,
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    horizon: float | None = None,
) -> float:
    """Excited-state population after gating the pulse through one window:
    the one-window tdm_sweep."""
    return float(tdm_sweep([window], mux, pulse, config, horizon)[0])


def detected_population(p_e: float, detection_floor: float) -> float:
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
