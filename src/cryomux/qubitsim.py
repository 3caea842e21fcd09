"""Pulse-level open-system simulator for a single transmon.

Works in the rotating frame of the drive carrier under the rotating-wave
approximation, for 2 or 3 levels. The master equation with relaxation and
pure-dephasing channels is integrated with fixed-step RK4; the step grid is
aligned with any discontinuities of the gating modulator so the integrator
never straddles a step.

The master equation preserves Hermiticity, so in an orthonormal Hermitian
operator basis every Liouvillian, propagator and density matrix is real.
States and gate channels are both integrated in float64 there, on the
Liouvillian parts mapped into that basis, and mapped back to row-major
vec(rho) at the end (trajectories at each recorded step).

States are stepped by one loop over a batch of density matrices that share
the pulse but each have their own gating, as in a gating-window sweep (see
_evolve_batch); gate channels act on all d*d basis states at once (see
gate_channel). Both take the same RK4 stage operators: the Liouvillian is a
weighted sum of four fixed parts, and _stage_weights gives every step's
weights of them at each stage, already scaled by half the step, from one
breakpoint-aligned step grid per member. Both then take the same RK4 step,
_rk4_increment: states apply it to their state vectors, and gate channels to
the identity, which gives each step's propagator less the identity.

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
_BLOCK_STEPS = 256  # steps whose gate-channel propagators are built at once
_FILL_PAIRS = 2048  # most (step, member) pairs filled, stepped and trace-checked in one pass


@dataclass(frozen=True)
class PulseSpec:
    """Drive pulse definition, resonant with the qubit.

    shape     : "cosine" (raised-cosine envelope, zero at both ends) or
                "cosine_drag" (adds DRAG leakage corrections at 3 levels)
    t_g       : gate duration (s)
    amplitude : peak Rabi rate (rad/s)
    """

    shape: str
    t_g: float
    amplitude: float

    def __post_init__(self):
        if self.shape not in _PULSE_SHAPES:
            raise ConfigError(f"unknown pulse shape {self.shape!r}")
        if not self.t_g > 0:
            raise ConfigError("t_g must be positive")
        if not self.amplitude >= 0:
            raise ConfigError("amplitude must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Simulator configuration; 3-level runs shift level 2 by
    DEFAULT_ANHARMONICITY.

    levels : 2 or 3
    dt     : integrator step (s); None derives t_g/2000 per pulse
    t1     : relaxation time (s) or None for no relaxation
    t_phi  : pure dephasing time (s) or None
    """

    levels: int = 2
    dt: float | None = None
    t1: float | None = None
    t_phi: float | None = None

    def __post_init__(self):
        if self.levels not in (2, 3):
            raise ConfigError("levels must be 2 or 3")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("dt must be positive")
        for name in ("t1", "t_phi"):
            val = getattr(self, name)
            if val is not None and not val > 0:
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two d x d matrices as one broadcast product, without
    np.kron's general-shape overhead; every entry is the same single
    multiplication, so the result is bit-identical."""
    d = len(a)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    # row-major vec convention: vec(A rho B) = (A kron B^T) vec(rho)
    eye = np.eye(h.shape[0])
    return -1j * (_kron(h, eye) - _kron(eye, h.T))


def _dissipator_superop(c: np.ndarray) -> np.ndarray:
    eye = np.eye(c.shape[0])
    cdc = c.conj().T @ c
    return _kron(c, c.conj()) - 0.5 * (_kron(cdc, eye) + _kron(eye, cdc.T))


def _liouvillian_parts(config: SimConfig):
    """Static Liouvillian plus the three drive generators.

    L(t) = L0 + wx(t) Lx + wy(t) Ly + wn(t) Ln, where Ln couples to the
    excitation-number operator (the DRAG detuning term).
    """
    levels = config.levels
    a = _lowering(levels)
    nmat = a.conj().T @ a
    hx = (a + a.conj().T) / 2.0
    hy = 1j * (a.conj().T - a) / 2.0
    h0 = np.zeros((levels, levels), dtype=complex)
    if levels == 3:
        h0[2, 2] = DEFAULT_ANHARMONICITY
    l0 = _hamiltonian_superop(h0)
    if config.t1 is not None:
        l0 = l0 + _dissipator_superop(a / math.sqrt(config.t1))
    if config.t_phi is not None:
        l0 = l0 + _dissipator_superop(math.sqrt(2.0 / config.t_phi) * nmat)
    return l0, _hamiltonian_superop(hx), _hamiltonian_superop(hy), _hamiltonian_superop(nmat)


def _drive_waveforms(pulse: PulseSpec, config: SimConfig, t, modulator):
    """In-phase, quadrature and number-operator coefficients at times t,
    which lie in [0, t_g): _Grid.block clamps every stage time to its
    segment's last sampling time, so the raised-cosine envelope is read
    without a mask. A cosine_drag pulse adds the DRAG quadrature
    -amplitude*denv*mod/alpha and detuning -wx^2/(2 alpha) only with a
    third level present.
    """
    t = np.asarray(t, dtype=float)
    t_g = pulse.t_g
    env = 0.5 * (1.0 - np.cos(TWO_PI * t / t_g))
    mod = np.ones_like(env) if modulator is None else np.asarray(modulator(t), dtype=float)
    wx = pulse.amplitude * env * mod
    if pulse.shape != "cosine_drag" or config.levels != 3:
        return wx, np.zeros_like(wx), np.zeros_like(wx)
    alpha = DEFAULT_ANHARMONICITY
    denv = 0.5 * (TWO_PI / t_g) * np.sin(TWO_PI * t / t_g)
    wy = -pulse.amplitude * denv * mod / alpha
    wn = -0.5 * wx * wx / alpha
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
    """Step grids of a batch, one per member and stacked along a trailing
    member axis: each segment between the member's breakpoints (one
    sequence, or None, per member) gets a uniform step of at most dt_target.
    n_steps[b] is member b's step count and n_max the largest."""

    def __init__(self, t_g: float, dt_target: float, breakpoints):
        members = [_segments(t_g, b) for b in breakpoints]
        n_seg = max(map(len, members))
        # each segment's first step, start, step, last sampling time, end and
        # first step past it; a member with fewer segments is padded with
        # ones that no step reaches
        table = np.zeros((len(members), n_seg, 6))
        table[..., 0] = np.inf
        self.n_steps = np.empty(len(members), dtype=np.intp)
        for b, segments in enumerate(members):
            counts = [max(1, math.ceil((end - start) / dt_target)) for start, end in segments]
            first = np.cumsum([0] + counts)
            self.n_steps[b] = first[-1]
            # sample strictly inside the half-open segment so a discontinuity
            # at its end is never read from the wrong side
            table[b, :len(segments)] = [
                (j, start, (end - start) / n, np.nextafter(end, start), end, j + n)
                for j, n, (start, end) in zip(first, counts, segments)
            ]
        self.n_max = int(self.n_steps.max())
        # one row per field; member b's segment k is column b * n_seg + k
        self._table = table.reshape(-1, 6).T.copy()
        self._offsets = np.arange(len(members)) * n_seg
        self._bounds = table[:, 1:, 0].T  # row k - 1: every member's first step of segment k

    def block(self, j0: int, j1: int):
        """End times (n, member), stage sampling times (n, 3, member) and
        lengths (n, member) of every member's steps j0 <= j < j1 <= n_max,
        in one pass over the batch; a member's steps past its own grid
        have length 0."""
        j = np.arange(j0, j1)[:, None]
        # column of each step's segment; (member,) while no grid has a second
        i = self._offsets
        for bound in self._bounds:
            i = i + (j >= bound)
        first, start, dt, last, end, stop = self._table.take(i, axis=1)
        stencil = (start + (j - first) * dt)[:, None] + _STAGES[:, None] * dt[..., None, :]
        t_eval = np.minimum(stencil, last[..., None, :])
        # a segment's last step ends exactly at its end, which the stencil's
        # rounding can miss by an ulp
        t_end = np.where(j + 1 == stop, end, stencil[:, 2])
        return t_end, t_eval, np.where(j < self.n_steps, dt, 0.0)


def _hermitian_basis(levels: int) -> np.ndarray:
    """Unitary T whose row a is vec(B_a)* for the orthonormal Hermitian
    basis E_jj, (E_jk + E_kj)/sqrt2 and i(E_kj - E_jk)/sqrt2 (j < k), in that
    order, so that E_00 comes first.

    T vec(rho) holds the coordinates Tr(B_a rho), which are real for a
    Hermitian rho, and a Hermiticity-preserving superoperator S has the real
    form T S T^+ (at d = 2, the Pauli-transfer matrix up to an orthogonal
    change of basis).
    """
    eye = np.eye(levels)
    basis = [np.outer(eye[j], eye[j]) for j in range(levels)]
    for j in range(levels):
        for k in range(j + 1, levels):
            e_jk = np.outer(eye[j], eye[k])
            basis += [(e_jk + e_jk.T) / math.sqrt(2.0), 1j * (e_jk.T - e_jk) / math.sqrt(2.0)]
    return np.array([b.reshape(-1) for b in basis]).conj()


def _real_liouvillian_parts(config: SimConfig) -> np.ndarray:
    """L0, Lx, Ly and Ln of _liouvillian_parts in the Hermitian basis of
    _hermitian_basis, stacked as rows of flattened transposes, so that
    weights @ parts gives sum_p w_p L_p^T. Each part preserves Hermiticity,
    so T L T^+ is real and only rounding is dropped with its imaginary part."""
    basis = _hermitian_basis(config.levels)
    return np.stack([
        (basis @ part @ basis.conj().T).real.T.reshape(-1) for part in _liouvillian_parts(config)
    ])


def _stage_weights(pulse: PulseSpec, config: SimConfig, grid: _Grid, j0: int, j1: int, modulator):
    """End times (n, member) of every member's steps j0 <= j < j1, and the
    weights (n, 3, member, 4) of L0, Lx, Ly and Ln at each RK4 stage of
    those steps, times half the step's length h: (h/2)(1, wx, wy, wn).

    The stacked grids give all stage times and step lengths as (step, stage,
    member) arrays, so _drive_waveforms and the modulator (or None, for the
    full drive) run once on them, with no loop over members. A zero-length
    step keeps all-zero weights, whatever its drive.
    """
    t_end, t_eval, h = grid.block(j0, j1)
    half_h = 0.5 * h[:, None]  # (step, 1, member)
    weights = np.zeros((*t_eval.shape, 4))
    weights[..., 0] = half_h
    live = half_h > 0.0
    for p, w in enumerate(_drive_waveforms(pulse, config, t_eval, modulator), 1):
        np.multiply(half_h, w, out=weights[..., p], where=live)
    return t_end, weights


def _rk4_increment(x, m_a, m_b, m_c):
    """Increment of one RK4 step of rows x under the stage operators
    m_a, m_b and m_c, each (h/2) L^T at the step's start, midpoint and end:
    a_s = x_s @ m = (h/2) k_s on stage inputs x, x + a1, x + a2 and
    x + 2 a3, and the step adds (a1 + a4 + 2 (a2 + a3)) / 3."""
    a1 = x @ m_a
    a2 = (x + a1) @ m_b
    a3 = (x + a2) @ m_b
    a4 = (x + 2.0 * a3) @ m_c
    return (a1 + a4 + 2.0 * (a2 + a3)) / 3.0


def _evolve_batch(rho0, pulse, config: SimConfig, modulator, breakpoints, labels, trajectory=None):
    """Integrate each density matrix rho0[b] through [0, t_g], all in one
    RK4 loop, and return the final QubitStates.

    modulator (or None, for the full drive) maps times (..., member) to
    member b's drive factor in column b; an elementwise callable serves a
    batch of one. breakpoints[b] (a sequence, or None) marks member b's
    discontinuities, with which its step grid is aligned; labels[b] starts
    its error messages.

    States are real coordinates in the Hermitian basis, so they stay
    Hermitian; each member's are a row x[b, 0]. Each RK4 stage is applied to
    the state vectors themselves. One loop runs over passes of at most
    _FILL_PAIRS (step, member) pairs: a whole 2,000-step pulse for a batch of
    one, 66 steps for 31 members. Its arrays are sized for one pass, and the
    state and operator buffers are reused by every pass, so memory does not
    grow with the number of steps.
    Each pass
    1. fills every member's _stage_weights;
    2. steps every member, writing the states after step i into xs[i + 1].
       At each step one product of the weights with the stacked parts fills
       a buffer with every member's stage operators (h/2) L^T at the step's
       start, midpoint and end, and _rk4_increment applies each stage as one
       batched row-times-matrix product;
    3. records every step's trace, the sum of a state's first d coordinates,
       with one reduction over xs and checks them: the first drift in step
       order (the lowest member within a step) raises IntegrationError.
       trajectory, when a list, then receives member 0's (time, rho) after
       each step;
    4. carries its last states over to xs[0].
    Assembling and applying the operators costs 16 D^2 multiply-adds per
    member and step (D = d*d), as many as applying the four parts at each of
    the four stages. No member forms a step propagator, which would cost d*d
    times more, and no member's arithmetic depends on its batch. A member
    whose grid ends early takes zero-length steps with all-zero weights,
    which leave it unchanged. An unstable member can overflow before its
    pass ends, so the steps run with numpy's overflow and invalid-value
    warnings off; the check still fails on its inf or NaN trace. An
    IntegrationError from the trace check or the final state's validation
    starts with the member's label.
    """
    dim = config.levels
    basis = _hermitian_basis(dim)
    grid = _Grid(pulse.t_g, _resolve_dt(pulse, config), breakpoints)
    parts = _real_liouvillian_parts(config)
    n_members = len(labels)
    n_pass = min(max(1, _FILL_PAIRS // n_members), grid.n_max)
    # (h/2) L^T at stage a, b and c of every member's current step
    ops_flat = np.empty((3 * n_members, dim**4))
    m_a, m_b, m_c = ops_flat.reshape(3, n_members, dim * dim, dim * dim)
    # xs[i + 1] holds every member's state after step i of the pass
    xs = np.empty((n_pass + 1, n_members, 1, dim * dim))
    xs[0] = (np.asarray(rho0).reshape(n_members, 1, dim * dim) @ basis.T).real
    for j0 in range(0, grid.n_max, n_pass):
        n = min(n_pass, grid.n_max - j0)
        t_end, weights = _stage_weights(pulse, config, grid, j0, j0 + n, modulator)
        with np.errstate(over="ignore", invalid="ignore"):
            # a row per step holds every (stage, member) of its weights
            for row, x, x_next in zip(weights.reshape(n, -1, len(parts)), xs[:n], xs[1:n + 1]):
                np.matmul(row, parts, out=ops_flat)
                np.add(x, _rk4_increment(x, m_a, m_b, m_c), out=x_next)
            traces = np.add.reduce(xs[1:n + 1, :, 0, :dim], axis=2)
            drift = np.abs(traces - 1.0)
        if not drift.max() <= _TRACE_TOL:  # max propagates NaN
            i, b = np.argwhere(~(drift <= _TRACE_TOL))[0]  # first in step order
            raise IntegrationError(
                f"{labels[b]}trace drifted to {float(traces[i, b])!r} during integration"
            )
        if trajectory is not None:
            rhos = (xs[1:n + 1, 0, 0] @ basis.conj()).reshape(n, dim, dim)
            trajectory += zip(t_end[:, 0], rhos)
        xs[0] = xs[n]
    finals = []
    for label, rho in zip(labels, (xs[0, :, 0] @ basis.conj()).reshape(-1, dim, dim)):
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
    return_trajectory: bool = False,
):
    """Integrate the master equation over the pulse window [0, t_g].

    envelope_modulator, when given, multiplies the drive amplitude by a
    value in [0, 1] at each time; it is called elementwise on arrays of
    times, and a `breakpoints` attribute on it marks discontinuities for
    grid alignment.

    Returns the final QubitState, or (state, times, trajectory) with
    per-step density matrices when return_trajectory is set.
    """
    if state.levels != config.levels:
        raise ConfigError("state dimension does not match config.levels")
    trajectory = [(0.0, state.density_matrix)] if return_trajectory else None
    breakpoints = [getattr(envelope_modulator, "breakpoints", None)]
    (final,) = _evolve_batch(
        state.density_matrix[None], pulse, config, envelope_modulator, breakpoints, [""], trajectory
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
) -> np.ndarray:
    """Quantum channel of one ungated pulse as a superoperator on vec(rho).

    phase rotates the drive IQ pair, giving gates about axes other than x;
    it is applied to the parts, Lx' = c Lx + s Ly and Ly' = c Ly - s Lx, so
    the drive samples are evolve's. The channel (row-major vec, as in
    evolve) is the product of the RK4 steps of evolve's grid, so composing
    channels reproduces evolve() gate by gate, up to rounding. It is built
    in float64 on the real Liouvillian parts, _BLOCK_STEPS steps at a time:
    _rk4_increment on the identity gives each step's row-form propagator
    I + delta, and the steps are multiplied pairwise in that delta form, an
    earlier A and a later B giving A + B + A @ B, so the identity is added
    once at the end. The real row-form product I + delta is returned as
    T^+ (I + delta)^T T. Raises IntegrationError unless every entry is finite
    and the channel preserves trace to within _TRACE_TOL. Useful when the
    same gate is applied many times, e.g. in benchmarking sequences.
    """
    grid = _Grid(pulse.t_g, _resolve_dt(pulse, config), [None])
    basis = _hermitian_basis(config.levels)
    dim = config.levels**2
    parts = _real_liouvillian_parts(config)
    c, s = math.cos(phase), math.sin(phase)
    parts[1:3] = c * parts[1] + s * parts[2], c * parts[2] - s * parts[1]
    eye = np.eye(dim)
    delta = np.zeros((dim, dim))
    for j0 in range(0, grid.n_max, _BLOCK_STEPS):
        n = min(_BLOCK_STEPS, grid.n_max - j0)
        _, weights = _stage_weights(pulse, config, grid, j0, j0 + n, None)
        m_a, m_b, m_c = (weights[:, :, 0] @ parts).reshape(n, 3, dim, dim).swapaxes(0, 1)
        steps = _rk4_increment(eye, m_a, m_b, m_c)
        while len(steps) > 1:
            earlier, later = steps[0:len(steps) - 1:2], steps[1::2]
            paired = earlier + later + earlier @ later
            steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
        delta = delta + steps[0] + delta @ steps[0]
    channel = basis.conj().T @ (eye + delta).T @ basis
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
) -> PulseSpec:
    """Find the amplitude driving a full ground-to-excited flip.

    The amplitude is the analytic pi / integral of the unit envelope
    (2*pi/t_g for the raised cosine), for either shape. One decay-free
    2-level simulation with the full window open, at config's step, checks
    that it flips the qubit to within 1e-6.
    """
    if not t_g > 0:
        raise ConfigError("t_g must be positive")
    pulse = PulseSpec(shape, t_g, TWO_PI / t_g)
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
) -> np.ndarray:
    """Excited-state population after gating the pulse through each window.

    Window w opens the target port RF1 for w seconds centered on the pulse
    (idle routing to RF2), with the leakage floor set by the multiplexer
    isolation and transitions following its rise time. Every window is
    checked against the simulation horizon [0, 4 t_g] before any is
    integrated; the windows are then integrated in one batch, gated by one
    EnvelopeModulator over all their schedules, whose memory the batch's
    pass bound caps. Returns p_e per window.
    """
    from .chainmodel import EnvelopeModulator, GatingSchedule

    windows = [float(w) for w in windows]
    horizon = 4.0 * pulse.t_g
    for w in windows:
        if not w >= 0:
            raise ConfigError(f"window must be >= 0, got {w!r}")
        if w > horizon:
            raise ConfigError(f"window {w!r} s exceeds the simulation horizon {horizon!r} s")
    if not windows:
        return np.empty(0)

    mid = pulse.t_g / 2.0
    schedules = [
        GatingSchedule.from_mux(
            mux, () if w == 0.0 else ((mid - w / 2.0, "RF1"), (mid + w / 2.0, "RF2"))
        )
        for w in windows
    ]
    modulator = EnvelopeModulator(schedules, "RF1", mux.rise_time)
    breakpoints = [[t for t, _ in schedule.events] for schedule in schedules]
    ground = QubitState.ground(config.levels).density_matrix
    rho0 = np.broadcast_to(ground, (len(windows), *ground.shape))
    labels = [f"window {w!r} s: " for w in windows]
    finals = _evolve_batch(rho0, pulse, config, modulator, breakpoints, labels)
    return np.array([final.population(1) for final in finals])


def tdm_experiment(
    window: float,
    mux,
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
) -> float:
    """Excited-state population after gating the pulse through one window:
    the one-window tdm_sweep."""
    return float(tdm_sweep([window], mux, pulse, config)[0])


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
    times: Sequence[float] | np.ndarray,
    detuning: float = 0.0,
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
