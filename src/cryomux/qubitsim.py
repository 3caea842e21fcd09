"""Pulse-level open-system simulator for a single transmon.

Works in the rotating frame of the drive carrier under the rotating-wave
approximation, for 2 or 3 levels. The master equation with relaxation and
pure-dephasing channels is integrated with fixed-step RK4. evolve drives the
full pulse; tdm_sweep gates it through windows. Every route steps on one
lattice, the n = ceil(t_g/dt) steps k t_g/n; _lattice_pieces splits those
that hold a window's switching times, so no step straddles one. A sweep
takes one of two gated routes over those steps:
- at a finite rise time, _evolve_batch steps every window's state through
  its grid (_Grid);
- at ideal switching (rise time 0) the gated drive is piecewise constant, and
  _evolve_piecewise covers each window's runs of whole lattice steps with
  the nodes of one pairwise tree per drive level, and takes its split steps
  one by one.
On either route a window's p_e has the same bits whatever its batch.

The master equation preserves Hermiticity, so in an orthonormal Hermitian
operator basis every Liouvillian, propagator and density matrix is real.
States and gate channels are both integrated in float64 there, on the
Liouvillian parts mapped into that basis, and mapped back to row-major
vec(rho) at the end (trajectories at each recorded step).

_evolve_batch steps a batch of density matrices that share the pulse but
each have their own gating in one loop; gate channels act on all d*d basis
states at once (see gate_channel). All routes take the same RK4 stage
operators: the Liouvillian is a weighted sum of four fixed parts, and
_stage_weights gives every step's weights of them at each stage, already
scaled by half the step, from its stage times and length. All then take the
same RK4 step, _rk4_increment: _evolve_batch applies it to state vectors,
while gate channels and _evolve_piecewise apply it to the identity
(_step_deltas), which gives each step's propagator less the identity. Only
_tree_nodes multiplies steps, pairwise in that delta form (_pair_products);
a gate channel is the root of its pulse's full-drive tree.

Pulse corrections for leakage (derivative quadrature plus Stark-tracking
detuning) are physical only when a third level exists; in a 2-level
configuration they are inert and the pulse reduces to its plain envelope,
which is the ideal-gate reference frame the corrections aim to restore.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
_BLOCK_STEPS = 256  # tree leaves that _tree_nodes builds and pairs at once
_FILL_PAIRS = 2048  # most (step, member) pairs filled, stepped and trace-checked in one pass
# a switching time this many lattice steps from a lattice point is moved onto
# it: the default windows miss the 20 ps lattice by rounding only (< 1e-12
# steps), and 1e-9 steps moves an edge by 2e-20 s at the default step
_SNAP_STEPS = 1e-9


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
    which lie in [0, t_g] up to rounding (_Grid.block clamps every stage
    time into its half-open segment, and _evolve_piecewise's own steps end
    by t_g), so the raised-cosine envelope is read without a mask. A
    cosine_drag pulse adds the DRAG quadrature -amplitude*denv*mod/alpha and
    detuning -wx^2/(2 alpha) only with a third level present.
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
    """Split [0, t_g] at the breakpoints falling strictly inside."""
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


def _lattice_time(k: int, t_g: float, n: int) -> float:
    """Time of point k of the lattice of n steps k t_g/n; point n is t_g."""
    return t_g if k == n else k * (t_g / n)


def _lattice_pieces(segments, t_g: float, n: int):
    """Pieces of the segments on the lattice of n steps k t_g/n, in time
    order, as (segment, k0, k1, start, stop): a run of the whole lattice
    steps k0 <= k < k1 from start to stop or, with k0 and k1 None, one step
    of the segment's own from start to stop.

    A segment end within _SNAP_STEPS steps of a lattice point is moved onto
    it; any other splits the lattice step that holds it, and the parts are
    steps of their own. The pieces depend on nothing but the segments, so
    the stepped grid (_Grid) and the piecewise plan (_piecewise_plan) split
    the same steps.
    """
    pieces = []
    k, t = 0, None  # at lattice point k, or at time t inside lattice step k
    for s, (_, end) in enumerate(segments):
        u = end / (t_g / n)
        if abs(u - round(u)) <= _SNAP_STEPS:
            k_end, t_end = round(u), None
        else:
            k_end, t_end = math.floor(u), end
        if t is not None and k_end == k:  # the segment ends inside step k
            pieces.append((s, None, None, t, t_end))
            t = t_end
            continue
        if t is not None:  # finish the split step k
            pieces.append((s, None, None, t, _lattice_time(k + 1, t_g, n)))
            k, t = k + 1, None
        if k_end > k:
            pieces.append((s, k, k_end, _lattice_time(k, t_g, n), _lattice_time(k_end, t_g, n)))
        k = k_end
        if t_end is not None:
            pieces.append((s, None, None, _lattice_time(k, t_g, n), t_end))
            t = t_end
    return pieces


class _Grid:
    """Step grids of a batch, one per member and stacked along a trailing
    member axis, all on the lattice of n = ceil(t_g/dt_target) steps
    k t_g/n: a member takes the lattice steps whole, except those that its
    breakpoints (one sequence, or None, per member) split into steps of
    their own (_lattice_pieces). n_steps[b] is member b's step count and
    n_max the largest."""

    def __init__(self, t_g: float, dt_target: float, breakpoints):
        n = max(1, math.ceil(t_g / dt_target))
        members = []
        for b in breakpoints:
            segments = _segments(t_g, b)
            # each piece's first step, the step and time its stage times
            # count from (lattice point 0 for a run, so they are the unsplit
            # lattice's), its step, its segment's start and last sampling
            # time (read inside the half-open segment, a switch is never read
            # from the wrong side), its end and its first step past it
            rows, j = [], 0
            for s, k0, k1, start, stop in _lattice_pieces(segments, t_g, n):
                lo, hi = segments[s]
                if k0 is None:
                    origin, start, step, count = j, start, stop - start, 1
                else:
                    origin, start, step, count = j - k0, 0.0, t_g / n, k1 - k0
                rows.append((j, origin, start, step, lo, np.nextafter(hi, lo), stop, j + count))
                j += count
            members.append(rows)
        n_rows = max(map(len, members))
        # a member with fewer pieces is padded with ones that no step reaches
        table = np.zeros((len(members), n_rows, 8))
        table[..., 0] = np.inf
        for b, rows in enumerate(members):
            table[b, :len(rows)] = rows
        self.n_steps = np.array([rows[-1][-1] for rows in members], dtype=np.intp)
        self.n_max = int(self.n_steps.max())
        # one row per field; member b's piece k is column b * n_rows + k
        self._table = table.reshape(-1, 8).T.copy()
        self._offsets = np.arange(len(members)) * n_rows
        self._bounds = table[:, 1:, 0].T  # row k - 1: every member's first step of piece k

    def block(self, j0: int, j1: int):
        """End times (n, member), stage sampling times (n, 3, member) and
        lengths (n, member) of every member's steps j0 <= j < j1 <= n_max,
        in one pass over the batch; a member's steps past its own grid
        have length 0."""
        j = np.arange(j0, j1)[:, None]
        # column of each step's piece; (member,) while no grid has a second
        i = self._offsets
        for bound in self._bounds:
            i = i + (j >= bound)
        _, origin, start, dt, lo, last, end, stop = self._table.take(i, axis=1)
        stencil = (start + (j - origin) * dt)[:, None] + _STAGES[:, None] * dt[..., None, :]
        t_eval = np.minimum(np.maximum(stencil, lo[..., None, :]), last[..., None, :])
        # a piece's last step ends exactly at its end, which the stencil's
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


def _stage_weights(pulse: PulseSpec, config: SimConfig, t_eval, h, modulator):
    """Weights (n, 3, member, 4) of L0, Lx, Ly and Ln at each RK4 stage of
    n steps of every member, from their stage sampling times t_eval (n, 3,
    member) and lengths h (n, member), as _Grid.block gives them, times half
    the step's length: (h/2)(1, wx, wy, wn).

    _drive_waveforms and the modulator (or None, for the full drive) run
    once on all the steps, with no loop over members. A zero-length step
    keeps all-zero weights, whatever its drive.
    """
    half_h = 0.5 * h[:, None]  # (step, 1, member)
    weights = np.zeros((*t_eval.shape, 4))
    weights[..., 0] = half_h
    live = half_h > 0.0
    for p, w in enumerate(_drive_waveforms(pulse, config, t_eval, modulator), 1):
        np.multiply(half_h, w, out=weights[..., p], where=live)
    return weights


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


def _step_deltas(weights, parts):
    """Row-form propagators less the identity, (n, D, D), of n RK4 steps
    from their stage weights (n, 3, 4): _rk4_increment on the identity.
    Every step is its own (3, 4) @ (4, D^2) and D x D products, so its bits
    do not depend on how many steps are built at once."""
    dim = math.isqrt(parts.shape[1])
    m_a, m_b, m_c = (weights @ parts).reshape(len(weights), 3, dim, dim).swapaxes(0, 1)
    return _rk4_increment(np.eye(dim), m_a, m_b, m_c)


def _pair_products(steps):
    """Delta-form products of consecutive pairs of an even-length stack of
    steps: an earlier A and a later B give A + B + A @ B, the product
    (I + A)(I + B) less the identity."""
    earlier, later = steps[0::2], steps[1::2]
    return earlier + later + earlier @ later


def _final_states(x, basis, labels):
    """QubitStates of the real Hermitian-basis rows x (member, D); an
    IntegrationError from a state's validation starts with its label."""
    dim = math.isqrt(x.shape[-1])
    finals = []
    for label, rho in zip(labels, (x @ basis.conj()).reshape(-1, dim, dim)):
        try:
            finals.append(QubitState(rho))
        except IntegrationError as exc:
            raise IntegrationError(f"{label}{exc}") from None
    return finals


def _evolve_batch(rho0, pulse, config: SimConfig, modulator, breakpoints, labels, trajectory=None):
    """Integrate each density matrix rho0[b] through [0, t_g], all in one
    RK4 loop, and return the final QubitStates.

    modulator (or None, for the full drive) maps times (..., member) to
    member b's drive factor in column b; an elementwise callable serves a
    batch of one. breakpoints[b] (a sequence, or None) marks member b's
    discontinuities, which _Grid places on the shared lattice; labels[b]
    starts its error messages.

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
        t_end, t_eval, h = grid.block(j0, j0 + n)
        weights = _stage_weights(pulse, config, t_eval, h, modulator)
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
    return _final_states(xs[0, :, 0], basis, labels)


def _tree_cover(a: int, b: int, depth: int):
    """(k, i) of the nodes of a pairwise tree over 2**depth leaves that tile
    leaves a <= j < b, in time order. Node (k, i) holds leaves
    i 2^k <= j < (i + 1) 2^k; each is the largest that starts at the next
    leaf and fits, so at most 2 depth nodes tile any range."""
    nodes = []
    while a < b:
        k = depth if a == 0 else (a & -a).bit_length() - 1
        while a + (1 << k) > b:
            k -= 1
        nodes.append((k, a >> k))
        a += 1 << k
    return nodes


def _piecewise_plan(segments, levels, t_g: float, n: int, depth: int):
    """One member's operations through [0, t_g] in time order, each as (end
    time, operation): ("node", level, (k, i)) applies node (k, i) of that
    level's tree over the n-step lattice, padded to 2**depth steps, and
    ("sub", level, start, stop) takes one RK4 step of its own.

    The member's drive is levels[s] on segments[s]. Each run of whole
    lattice steps of _lattice_pieces is covered with tree nodes, and each of
    its own steps is a "sub", so the plan depends on nothing but the
    member's segments and levels.
    """
    plan = []
    for s, k0, k1, start, stop in _lattice_pieces(segments, t_g, n):
        if k0 is None:
            plan.append((stop, ("sub", levels[s], start, stop)))
            continue
        # the padding past the lattice is the identity, so a run that ends
        # at t_g may take its nodes up to the padded end
        for d, i in _tree_cover(k0, 1 << depth if k1 == n else k1, depth):
            plan.append((_lattice_time(min((i + 1) << d, n), t_g, n), ("node", levels[s], (d, i))))
    return plan


def _tree_nodes(pulse: PulseSpec, config: SimConfig, parts, lattice: _Grid, level, depth: int,
                wanted, out):
    """Write each wanted node (k, i) of the level's pairwise tree to
    out[wanted[(k, i)]]: the delta-form product, earliest first, of the
    lattice steps i 2^k <= j < (i + 1) 2^k under the constant drive factor
    level, with steps past the lattice's n_max the identity (zero delta).

    The leaves are _step_deltas of the lattice's own stage weights, built
    _BLOCK_STEPS at a time; each block is paired up to its root before the
    next is built, and the block roots then up to the tree's, so memory
    does not grow with the steps and only wanted nodes are kept. depth must
    give whole blocks, 2**depth >= _BLOCK_STEPS.
    """
    by_depth = {}
    for (k, i), row in wanted.items():
        by_depth.setdefault(k, []).append((i, row))

    def climb(steps, k, first):
        # steps are the nodes first <= i < first + len(steps) at depth k
        while True:
            for i, row in by_depth.get(k, ()):
                if first <= i < first + len(steps):
                    out[row] = steps[i - first]
            if len(steps) == 1:
                return steps[0]
            steps, k, first = _pair_products(steps), k + 1, first // 2

    roots = []
    for j0 in range(0, 1 << depth, _BLOCK_STEPS):
        steps = np.zeros((_BLOCK_STEPS, *out.shape[1:]))
        j1 = min(j0 + _BLOCK_STEPS, lattice.n_max)
        if j1 > j0:
            _, t_eval, h = lattice.block(j0, j1)
            weights = _stage_weights(pulse, config, t_eval, h, lambda t: level)
            steps[:j1 - j0] = _step_deltas(weights[:, :, 0], parts)
        roots.append(climb(steps, 0, j0))
    climb(np.array(roots), _BLOCK_STEPS.bit_length() - 1, 0)


def _evolve_piecewise(rho0, pulse, config: SimConfig, modulator, breakpoints, labels):
    """Integrate each density matrix rho0[b] through [0, t_g] and return
    the final QubitStates, as _evolve_batch does with the same arguments,
    for a modulator that is constant between each member's breakpoints
    (ideal switching).

    Each member's drive factor on each of its segments is read from the
    modulator at the segment's midpoint; a sweep takes few distinct values
    (the leakage floor and the full drive). All members step on one uniform
    lattice, the one-segment grid of n steps that _Grid gives [0, t_g].
    1. Each member's _piecewise_plan covers its runs of whole lattice steps
       (_lattice_pieces, as _Grid places them) with the nodes of its level's
       pairwise tree, and takes the lattice steps its own breakpoints split
       as steps of their own, from _step_deltas of their own stage weights.
    2. _tree_nodes builds each level's tree over the lattice padded with
       identities to 2**depth >= n leaves, keeping the nodes the plans use.
       A window of 0 or >= t_g applies one tree root.
    3. Every member applies its operations in time order, x -> x + x @ delta,
       each round one batched row-times-matrix product over the members;
       a member whose plan has ended takes the identity.
    4. The trace after every operation is checked: the drift earliest in
       time (the lowest member on a tie) raises IntegrationError starting
       with the member's label. Unstable drives overflow inside the trees,
       so all this runs with numpy's overflow and invalid-value warnings
       off. Final states are validated as in _evolve_batch.
    A member's bits depend only on its own breakpoints and drive: its plan,
    each tree (built alone, one level at a time), each of its own steps and
    its row of each batched product are computed the same way whatever the
    batch.
    """
    dim = config.levels
    basis = _hermitian_basis(dim)
    parts = _real_liouvillian_parts(config)
    t_g = pulse.t_g
    lattice = _Grid(t_g, _resolve_dt(pulse, config), [None])
    n = lattice.n_max
    depth = (n - 1).bit_length()  # n >= 200, so 2**depth >= n leaves in whole blocks
    members = [_segments(t_g, b) for b in breakpoints]
    mids = np.full((max(map(len, members)), len(members)), t_g / 2.0)
    for b, segments in enumerate(members):
        mids[:len(segments), b] = [(start + end) / 2.0 for start, end in segments]
    drive = np.asarray(modulator(mids), dtype=float)
    # each segment's drive factor as its level, in hex form so that every
    # NaN is one; np.unique would page in 0.4 MiB of sorting code
    plans = [
        _piecewise_plan(segments, [v.hex() for v in column[:len(segments)]], t_g, n, depth)
        for segments, column in zip(members, drive.T.tolist())
    ]
    # row of each distinct operation in one table of deltas; row 0 is the identity
    rows = {}
    for plan in plans:
        for _, op in plan:
            rows.setdefault(op, len(rows) + 1)
    table = np.zeros((len(rows) + 1, dim * dim, dim * dim))
    n_ops = max(map(len, plans))
    index = np.zeros((n_ops, len(plans)), dtype=np.intp)
    ends = np.full((n_ops, len(plans)), np.inf)
    for b, plan in enumerate(plans):
        ends[:len(plan), b] = [end for end, _ in plan]
        index[:len(plan), b] = [rows[op] for _, op in plan]
    xs = np.empty((n_ops + 1, len(plans), 1, dim * dim))
    xs[0] = (np.asarray(rho0).reshape(len(plans), 1, dim * dim) @ basis.T).real
    with np.errstate(over="ignore", invalid="ignore"):
        subs = {row: op[1:] for op, row in rows.items() if op[0] == "sub"}
        if subs:
            level, start, stop = np.array([(float.fromhex(v), a, b) for v, a, b in subs.values()]).T
            h = (stop - start)[:, None]
            t_eval = (start[:, None] + _STAGES * h)[..., None]
            weights = _stage_weights(pulse, config, t_eval, h, lambda t: level[:, None, None])
            table[list(subs)] = _step_deltas(weights[:, :, 0], parts)
        for key in dict.fromkeys(op[1] for op in rows if op[0] == "node"):
            wanted = {op[2]: row for op, row in rows.items() if op[:2] == ("node", key)}
            _tree_nodes(pulse, config, parts, lattice, float.fromhex(key), depth, wanted, table)
        for i, x, x_next in zip(index, xs, xs[1:]):
            np.add(x, x @ table[i], out=x_next)
        traces = np.add.reduce(xs[1:, :, 0, :dim], axis=2)
        drift = np.abs(traces - 1.0)
    if not drift.max() <= _TRACE_TOL:  # max propagates NaN
        ops, bs = np.nonzero(~(drift <= _TRACE_TOL))
        first = np.lexsort((bs, ends[ops, bs]))[0]  # earliest in time, then lowest member
        i, b = ops[first], bs[first]
        raise IntegrationError(f"{labels[b]}trace drifted to {float(traces[i, b])!r} during integration")
    return _final_states(xs[-1, :, 0], basis, labels)


def evolve(
    state: QubitState,
    pulse: PulseSpec,
    config: SimConfig = SimConfig(),
    *,
    return_trajectory: bool = False,
):
    """Integrate the master equation over the pulse window [0, t_g] under
    the full, ungated drive; tdm_sweep integrates gated pulses.

    Returns the final QubitState, or (state, times, trajectory) with
    per-step density matrices when return_trajectory is set.
    """
    if state.levels != config.levels:
        raise ConfigError("state dimension does not match config.levels")
    trajectory = [(0.0, state.density_matrix)] if return_trajectory else None
    (final,) = _evolve_batch(state.density_matrix[None], pulse, config, None, [None], [""], trajectory)
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
    channels reproduces evolve() gate by gate, up to rounding. It is the
    root of _tree_nodes' tree at drive factor 1.0 on the rotated real
    Liouvillian parts: each step's row-form propagator I + delta, multiplied
    pairwise in delta form, with identity (zero-delta) leaves padding the
    steps to a power of two, so the identity is added once at the end. The
    real row-form product I + delta is returned as T^+ (I + delta)^T T.
    Raises IntegrationError unless every entry is finite and the channel
    preserves trace to within _TRACE_TOL. Useful when the same gate is
    applied many times, e.g. in benchmarking sequences.
    """
    lattice = _Grid(pulse.t_g, _resolve_dt(pulse, config), [None])
    basis = _hermitian_basis(config.levels)
    parts = _real_liouvillian_parts(config)
    c, s = math.cos(phase), math.sin(phase)
    parts[1:3] = c * parts[1] + s * parts[2], c * parts[2] - s * parts[1]
    depth = (lattice.n_max - 1).bit_length()  # n_max >= 200: whole blocks
    delta = np.empty((1, config.levels**2, config.levels**2))
    _tree_nodes(pulse, config, parts, lattice, 1.0, depth, {(depth, 0): 0}, delta)
    channel = basis.conj().T @ (np.eye(config.levels**2) + delta[0]).T @ basis
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
    infidelity = 1.0 - evolve(QubitState.ground(2), pulse, cal_config).population(1)
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
    EnvelopeModulator over all their schedules:
    - at a finite rise time, by _evolve_batch, whose pass bound caps the
      batch's memory;
    - at ideal switching (rise time 0), by _evolve_piecewise, from shared
      products of steps on one lattice.
    On either route a window's p_e is bit for bit the one it has alone, in
    whatever batch. Returns p_e per window.
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
    route = _evolve_piecewise if mux.rise_time == 0.0 else _evolve_batch
    finals = route(rho0, pulse, config, modulator, breakpoints, labels)
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
