"""Single-qubit randomized benchmarking on the pulse simulator.

The 24-element Clifford group is shipped as a literal decomposition table
over the physical generator set {I, +-X90, +-Y90, X180, Y180} (45 generator
gates in total, MEAN_GENERATOR_COUNT = 1.875 per Clifford) and verified by
the test suite rather than asserted. A run takes a list of noise records
(one per T2* of Fig. 4a); for each it integrates every generator's channel
once from the pulse simulator and composes the 24 Clifford channels. By
linearity a sequence's survival is their product applied to the ground
state. The channels act on real coordinates in a Hermitian operator basis,
and the run is one pass: every sequence of every length and noise advances
in one loop over Clifford positions, in which the sequences still running
take one batched step, each with its own noise's channels, and a length's
sequences take their recovery element when they end. Noise i draws its
sequences from SeedSequence(seed + i), so its survivals are those of a
one-noise run at seed + i.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, FitError
from .fitkit import FitResult, fit_rb_decay
from .noisecalc import CoherenceRecord
from .qubitsim import PulseSpec, SimConfig, _hermitian_basis, gate_channel

# Log-spaced ladder up to 1000 Cliffords (the published lengths are not
# listed; this is a documented choice).
DEFAULT_SEQUENCE_LENGTHS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)

# (rotation-angle fraction of pi, drive phase) for each generator
_GENERATOR_DRIVE: dict[str, tuple[float, float]] = {
    "I": (0.0, 0.0),
    "X90": (0.5, 0.0),
    "X90m": (0.5, math.pi),
    "Y90": (0.5, math.pi / 2.0),
    "Y90m": (0.5, -math.pi / 2.0),
    "X180": (1.0, 0.0),
    "Y180": (1.0, math.pi / 2.0),
}

# exp(-i theta/2 (cos(phase) X + sin(phase) Y)) with theta = angle_frac * pi
GENERATOR_UNITARIES: dict[str, np.ndarray] = {
    name: math.cos(frac * math.pi / 2.0) * np.eye(2)
    - 1j * math.sin(frac * math.pi / 2.0)
    * np.array([[0.0, cmath.exp(-1j * phase)], [cmath.exp(1j * phase), 0.0]])
    for name, (frac, phase) in _GENERATOR_DRIVE.items()
}

# Time-ordered generator sequences for the 24 Cliffords: the identity, the
# Pauli rotations, the eight 2pi/3 axis permutations, the pi/2 rotations
# (z by composition), and the Hadamard-like pi rotations.
CLIFFORD_DECOMPOSITIONS: tuple[tuple[str, ...], ...] = (
    ("I",),
    ("X180",),
    ("Y180",),
    ("Y180", "X180"),
    ("X90", "Y90"),
    ("X90", "Y90m"),
    ("X90m", "Y90"),
    ("X90m", "Y90m"),
    ("Y90", "X90"),
    ("Y90", "X90m"),
    ("Y90m", "X90"),
    ("Y90m", "X90m"),
    ("X90",),
    ("X90m",),
    ("Y90",),
    ("Y90m",),
    ("X90", "Y90", "X90m"),
    ("X90", "Y90m", "X90m"),
    ("Y90", "X180"),
    ("Y90m", "X180"),
    ("X90", "Y180"),
    ("X90m", "Y180"),
    ("X90", "Y90", "X90"),
    ("X90m", "Y90", "X90m"),
)

# Average physical gates per Clifford, which converts the error per Clifford
# into the error per gate.
MEAN_GENERATOR_COUNT = sum(map(len, CLIFFORD_DECOMPOSITIONS)) / len(CLIFFORD_DECOMPOSITIONS)


def _phase_key(u: np.ndarray) -> bytes:
    """Fingerprint of a unitary up to global phase (Clifford entries have
    magnitudes 0, 1/sqrt2 or 1, so a 0.3 threshold finds a clean pivot)."""
    flat = u.reshape(-1)
    pivot = flat[np.abs(flat) > 0.3][0]
    v = np.round(u * (np.conj(pivot) / abs(pivot)), 6) + (0.0 + 0.0j)
    return v.tobytes()


def sequence_unitary(sequence: Sequence[str], gates: Mapping[str, np.ndarray]) -> np.ndarray:
    """Product of a time-ordered generator sequence (leftmost acts first)
    under `gates`: GENERATOR_UNITARIES, or the channels of
    generator_channels."""
    u = gates[sequence[0]]
    for gate in sequence[1:]:
        u = gates[gate] @ u
    return u


@dataclass(frozen=True)
class CliffordTable:
    """The single-qubit Clifford group, element i decomposed as
    CLIFFORD_DECOMPOSITIONS[i] (element 0 is the identity).

    composition[i, j] is the index of applying i then j, and inverses[i]
    the index of the inverse of i.
    """

    unitaries: tuple
    composition: np.ndarray
    inverses: np.ndarray


@lru_cache(maxsize=1)
def build_clifford_table() -> CliffordTable:
    """Construct (and cache) the verified 24-element table."""
    unitaries = tuple(sequence_unitary(s, GENERATOR_UNITARIES) for s in CLIFFORD_DECOMPOSITIONS)
    lookup = {_phase_key(u): i for i, u in enumerate(unitaries)}
    composition = np.array(
        [[lookup[_phase_key(then @ first)] for then in unitaries] for first in unitaries],
        dtype=np.int8,
    )
    inverses = np.array([lookup[_phase_key(u.conj().T)] for u in unitaries], dtype=np.int8)
    return CliffordTable(unitaries, composition, inverses)


def generator_channels(
    pulse: PulseSpec, config: SimConfig
) -> dict[str, np.ndarray]:
    """Quantum channel of each physical generator gate.

    `pulse` is the calibrated pi pulse; 90-degree gates use half amplitude,
    the identity is an idle of the same duration (decay still applies).
    """
    channels = {}
    for name, (angle_frac, phase) in _GENERATOR_DRIVE.items():
        gate_pulse = replace(pulse, amplitude=pulse.amplitude * angle_frac)
        channels[name] = gate_channel(gate_pulse, config, phase=phase)
    return channels


def run_rb(
    lengths: Sequence[int],
    repeats: int,
    noises: Sequence[CoherenceRecord | None],
    pulse: PulseSpec,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Average sequence survival versus sequence length, for each noise record.

    noises[i] (None for none) sets every gate's decay in row i of the
    survivals, which have shape (len(noises), len(lengths)); the calibrated
    pulse runs at 2 levels, where its shape is inert. Noise i draws each
    (length, repeat)'s m Cliffords from its own child of
    SeedSequence(seed + i), spawned in (length, repeat) order, so row i does
    not depend on the other noises and equals a one-noise call at seed + i;
    the recovery element inverts the ideal product of the draws.
    Survival is computed on the real coordinates of _hermitian_basis, in one
    pass: one loop of max(lengths) positions advances every running sequence
    of every noise.
    """
    lengths = list(lengths)
    if any(m2 <= m1 for m1, m2 in zip([0] + lengths, lengths)):
        raise ConfigError("lengths must be >= 1 and strictly increasing")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    table = build_clifford_table()
    n_cliffords = len(CLIFFORD_DECOMPOSITIONS)
    # each noise's Clifford channels in the real Hermitian basis, whose first
    # element is |0><0|: the ground state is e_0, and a state's survival is
    # its coordinate 0
    basis = _hermitian_basis(2)
    cliffords = np.empty((len(noises), n_cliffords, len(basis), len(basis)))
    for i, noise in enumerate(noises):
        config = SimConfig() if noise is None else SimConfig.from_coherence(noise)
        channels = generator_channels(pulse, config)
        cliffords[i] = [
            (basis @ sequence_unitary(seq, channels) @ basis.conj().T).real
            for seq in CLIFFORD_DECOMPOSITIONS
        ]
    # noise i's Clifford c is row n_cliffords * i + c
    cliffords = cliffords.reshape(-1, len(basis), len(basis))
    # one row per sequence, ordered by length, then noise, then repeat, so
    # the sequences still running at any position are a suffix of the rows.
    # Each length's draws are one (row, position) array of its block of rows.
    block = len(noises) * repeats  # the rows of one length
    # spawning one length's streams at a time continues each root's child
    # counter, so the streams are those of a single spawn of all of them
    roots = [np.random.SeedSequence(seed + i) for i in range(len(noises))]
    draws = [np.empty((block, m), dtype=np.int8) for m in lengths]
    for length_draws, m in zip(draws, lengths):
        streams = [stream for root in roots for stream in root.spawn(repeats)]
        for row, stream in enumerate(streams):
            length_draws[row] = np.random.default_rng(stream).integers(0, n_cliffords, size=m)
    # each row's offset to its noise's Clifford channels
    offsets = np.tile(np.arange(len(noises)).repeat(repeats) * n_cliffords, len(lengths))
    # states and net (each ideal product so far, whose inverse is the
    # recovery element) hold only the running sequences; those of the
    # shortest running length come first and are dropped when it ends
    states = np.zeros((len(offsets), len(basis)))
    states[:, 0] = 1.0  # the ground state
    net = np.zeros(len(offsets), dtype=np.int8)  # the identity
    survivals = np.empty((len(noises), len(lengths)))
    for a, (start, m) in enumerate(zip([0] + lengths[:-1], lengths)):
        running = offsets[a * block:]
        # positions start <= k < m of every running row, as one contiguous
        # (position, running row) array
        segment = np.concatenate([d[:, start:m].T for d in draws[a:]], axis=1)
        for step in segment:
            states = np.einsum("rij,rj->ri", cliffords[running + step], states)
            net = table.composition[net, step]
        recovery = cliffords[running[:block] + table.inverses[net[:block]], 0]
        ends = np.einsum("rj,rj->r", recovery, states[:block])
        survivals[:, a] = [row.mean() for row in ends.reshape(len(noises), repeats)]
        states, net = states[block:], net[block:]
    return np.asarray(lengths, dtype=float), survivals


@dataclass(frozen=True)
class RbResult:
    """Decay-fit parameters and the derived per-gate fidelity (d = 2)."""

    a: float
    b: float
    p: float
    r_clifford: float
    r_g: float
    f_1q: float
    p_stderr: float
    f_1q_stderr: float
    fit: FitResult


def error_rates_from_decay(p: float) -> tuple[float, float, float]:
    """Map the decay parameter to (r_clifford, r_g, f_1q).

    r_clifford = (1-p)(d-1)/d = (1-p)/2 for a qubit (d = 2); the per-gate
    error divides by MEAN_GENERATOR_COUNT; f_1q = 1 - r_g.
    """
    if not 0.0 < p <= 1.0:
        raise FitError(f"decay rate p = {p!r} outside (0, 1]")
    r_clifford = (1.0 - p) / 2.0
    r_g = r_clifford / MEAN_GENERATOR_COUNT
    return r_clifford, r_g, 1.0 - r_g


def fit_rb(lengths, fidelities) -> RbResult:
    """Fit F = A p^m + B and derive error per Clifford and per gate (d = 2)."""
    result = fit_rb_decay(lengths, fidelities)
    if not result.converged:
        raise FitError(f"benchmarking decay fit did not converge: {result.status}")
    p = result.parameters["p"]
    r_clifford, r_g, f_1q = error_rates_from_decay(p)
    p_stderr = result.standard_errors["p"] if result.standard_errors else float("nan")
    scale = 0.5 / MEAN_GENERATOR_COUNT  # |d f_1q / d p|
    return RbResult(
        a=result.parameters["a"],
        b=result.parameters["b"],
        p=p,
        r_clifford=r_clifford,
        r_g=r_g,
        f_1q=f_1q,
        p_stderr=p_stderr,
        f_1q_stderr=p_stderr * scale,
        fit=result,
    )


def coherence_limited_fidelity(
    t_g: float,
    t1: float,
    t2_star: float,
    t2_star_baseline: float,
    c0_extra: float = 0.0,
    *,
    k1: float,
) -> float:
    """Gate fidelity predicted from coherence times.

    fidelity = 1 - c0 - k1 / t_phi_mux, where c0 = t_g / (3 t1) + c0_extra
    collects relaxation plus any calibration floor, and 1/t_phi_mux is the
    dephasing added relative to the baseline. k1 is the dephasing scale (s):
    t_g / 3 for white (Markovian) dephasing. A t2_star above baseline makes
    the added-dephasing term vanish.
    """
    if min(t_g, t1, t2_star, t2_star_baseline) <= 0:
        raise ConfigError("times must be positive")
    inv_mux = 1.0 / t2_star - 1.0 / t2_star_baseline
    t_phi_mux = 1.0 / inv_mux if inv_mux > 0 else math.inf
    return 1.0 - (t_g / (3.0 * t1) + c0_extra) - k1 / t_phi_mux
