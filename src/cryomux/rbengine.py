"""Single-qubit randomized benchmarking on the pulse simulator.

The 24-element Clifford group is shipped as a literal decomposition table
over the physical generator set {I, +-X90, +-Y90, X180, Y180} (45 generator
gates in total, MEAN_GENERATOR_COUNT = 1.875 per Clifford) and verified by
the test suite rather than asserted. A run takes a list of noise records
(one per T2* of Fig. 4a); for each it takes every generator's channel from
the pulse simulator, which integrates only the idle, X90 and X180 and gives
X90m, Y90, Y90m and Y180 by rotating the drive phase of the X90 or X180 it
has just integrated, and composes the 24 Clifford channels. By linearity a
sequence's survival is their product applied to the ground state. The
channels act on real coordinates in a Hermitian operator basis, and the run
is one pass: every sequence of every length and noise advances in one loop
over pairs of Clifford positions, in which the sequences still running take
one batched step by the product of their pair, each with its own noise's
channels (a segment of odd length takes its last position alone), and a
length's sequences take their recovery element when they end. Noise i draws
its sequences from SeedSequence(seed + i), so its survivals are those of a
one-noise run at seed + i. Each sequence's Cliffords are numpy's
integers(0, 24) from default_rng of its own spawned child, which
clifford_draws computes for all children at once from their spawn keys, bit
for bit, without a generator per sequence.
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


# intp codes of Clifford pairs that _products reads per block of rows, which
# bounds each of its temporaries at 128 KiB: the codes of a whole
# 1,000-Clifford length (0.9 MiB) raised rb_paper's peak RSS by 1.9 MiB
_PRODUCT_CODES = 1 << 14


def _products(composition: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Index of each row's product of the Cliffords draws[r, 0], draws[r, 1],
    ... (the first applied first) under composition. Neighbouring columns are
    composed pairwise, which the group's associativity makes the left fold:
    a pair (a, b) is entry n a + b of the flattened n x n table, read with
    intp codes. Rows are composed a block at a time, at most _PRODUCT_CODES
    codes per block."""
    flat, n = composition.reshape(-1), len(composition)
    step = max(1, 2 * _PRODUCT_CODES // draws.shape[1])
    nets = np.empty(len(draws), dtype=draws.dtype)
    for start in range(0, len(draws), step):
        block = draws[start:start + step]
        while block.shape[1] > 1:
            codes = block[:, 0:-1:2].astype(np.intp) * n
            codes += block[:, 1::2]
            paired = flat.take(codes)
            block = np.concatenate([paired, block[:, -1:]], axis=1) if block.shape[1] % 2 else paired
        nets[start:start + step] = block[:, 0]
    return nets


# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants: a
# spawned child's stream is fixed integer arithmetic on its spawn key
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# integers(0, 24) takes (24 x) >> 32 of a 32-bit x (Lemire's multiply-shift)
# unless 24 x mod 2^32 falls below this, 2^32 mod 24; then it draws again
_REJECT_BELOW = (1 << 32) % len(CLIFFORD_DECOMPOSITIONS)
# halves of draw words mapped per block of rows, which bounds the uint64
# temporaries of the map at 128 KiB each
_MAP_HALVES = 1 << 14


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hash of uint32 values (hashmix with _HASH_MULT_A, a
    generate_state word with _HASH_MULT_B), and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _child_seed_words(root: np.random.SeedSequence, n_children: int) -> np.ndarray:
    """generate_state(4, np.uint64) of root's children 0, 1, ...,
    n_children - 1, as root.spawn(n_children) would make them: a
    (4, n_children) uint64 array.

    A child's entropy is root's run entropy, padded to the pool size, then
    its spawn key; root.pool has already mixed all but the key, each padded
    run word taking 4 hashmix calls.
    """
    n_run_words = max(1, -(-int(root.entropy).bit_length() // 32))
    n_calls = _POOL_SIZE * max(_POOL_SIZE, n_run_words)
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, n_calls, 1 << 32) & _MASK32
    keys = np.arange(n_children, dtype=np.uint32)
    pool = [np.full(n_children, word, dtype=np.uint32) for word in root.pool]
    for dst in range(_POOL_SIZE):
        mixed, hash_const = _hashmix(keys, hash_const, _HASH_MULT_A)
        pool[dst] = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * mixed
        pool[dst] ^= pool[dst] >> 16
    # 8 uint32 words cycling through the pool, paired low word first
    hash_const = _HASH_INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _HASH_MULT_B)
        words.append(value.astype(np.uint64))
    return np.array([words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)])


def clifford_draws(lengths: Sequence[int], repeats: int, n_noises: int, seed: int) -> list[np.ndarray]:
    """Each length's (n_noises * repeats, m) int8 Clifford draws of run_rb.

    Row i * repeats + r of length a's array is
    default_rng(child).integers(0, 24, size=m), bit for bit, where child is
    SeedSequence(seed + i)'s child a * repeats + r in spawn order. One
    reused PCG64, set to each child's seeded state, gives its raw 64-bit
    words, whose 32-bit halves, low half first, map to Cliffords by
    multiply-shift. A row with a half that integers would redraw is drawn by
    integers itself. Rows are drawn and mapped a block at a time, so no
    uint64 array spans a whole length.
    """
    n_cliffords = len(CLIFFORD_DECOMPOSITIONS)
    roots = [np.random.SeedSequence(seed + i) for i in range(n_noises)]
    # each root's children's generate_state(4, np.uint64) by (word, length, repeat)
    seed_words = [
        _child_seed_words(root, len(lengths) * repeats).reshape(4, len(lengths), repeats) for root in roots
    ]
    bitgen = np.random.PCG64(0)
    # one state dict, whose inner state and inc each child overwrites
    pcg_state = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": "PCG64", "state": pcg_state, "has_uint32": 0, "uinteger": 0}
    draws = []
    for a, m in enumerate(lengths):
        rows = [row for root_words in seed_words for row in zip(*root_words[:, a].tolist())]
        length_draws = np.empty((len(rows), m), dtype=np.int8)
        step = max(1, _MAP_HALVES // m)
        words = np.empty((step, (m + 1) // 2), dtype=np.uint64)
        for start in range(0, len(rows), step):
            # PCG64 seeds its state from words 0 and 1 and its sequence from
            # words 2 and 3, high word first: pcg_setseq_128_srandom_r takes
            # two LCG steps from state 0, adding the seed state between them
            for row, (s_hi, s_lo, q_hi, q_lo) in enumerate(rows[start:start + step]):
                inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
                pcg_state["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
                pcg_state["inc"] = inc
                bitgen.state = bitgen_state
                words[row] = bitgen.random_raw(words.shape[1])
            block = words[:len(rows) - start]
            halves = np.empty((len(block), 2 * block.shape[1]), dtype=np.uint64)
            halves[:, 0::2] = block & _MASK32  # PCG64's next32 hands out the low half first
            halves[:, 1::2] = block >> 32
            scaled = halves[:, :m] * n_cliffords
            length_draws[start:start + len(block)] = scaled >> 32
            for row in start + np.flatnonzero(((scaled & _MASK32) < _REJECT_BELOW).any(axis=1)):
                i, r = divmod(row, repeats)
                child = np.random.SeedSequence(roots[i].entropy, spawn_key=(a * repeats + r,))
                length_draws[row] = np.random.default_rng(child).integers(0, n_cliffords, size=m)
        draws.append(length_draws)
    return draws


def generator_channels(
    pulse: PulseSpec, config: SimConfig
) -> dict[str, np.ndarray]:
    """Quantum channel of each physical generator gate.

    `pulse` is the calibrated pi pulse; 90-degree gates use half amplitude,
    the identity is an idle of the same duration (decay still applies).
    Each 90- and 180-degree family is asked for in turn, phase 0 first, so
    gate_channel integrates one tree per family and rotates the others.
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
    clifford_draws gives those draws, bit for bit, without building the
    children. The recovery element inverts the ideal product of the draws.
    Survival is computed on the real coordinates of _hermitian_basis, in one
    pass: one loop advances every running sequence of every noise two
    positions at a time, by the product of their two Cliffords from a
    per-noise table of all 24 x 24 ordered pairs that each call builds. The
    positions between two lengths whose count is odd end with one position
    applied alone, so the loop takes about max(lengths) / 2 steps.
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
    # noise i's Clifford a then b, C[i, b] @ C[i, a], is row
    # n_cliffords * (n_cliffords * i + a) + b of the pair table, and its
    # Clifford c is row n_cliffords * i + c of cliffords
    pairs = (cliffords[:, None] @ cliffords[:, :, None]).reshape(-1, len(basis), len(basis))
    cliffords = cliffords.reshape(-1, len(basis), len(basis))
    # one row per sequence, ordered by length, then noise, then repeat, so
    # the sequences still running at any position are a suffix of the rows.
    # Each length's draws are one (row, position) array of its block of rows.
    block = len(noises) * repeats  # the rows of one length
    draws = clifford_draws(lengths, repeats, len(noises), seed)
    # each row's offset to its noise's Clifford channels
    offsets = np.tile(np.arange(len(noises)).repeat(repeats) * n_cliffords, len(lengths))
    # states hold only the running sequences; those of the shortest running
    # length come first and are dropped when it ends
    states = np.zeros((len(offsets), len(basis)))
    states[:, 0] = 1.0  # the ground state
    survivals = np.empty((len(noises), len(lengths)))
    for a, (start, m) in enumerate(zip([0] + lengths[:-1], lengths)):
        running = offsets[a * block:]
        paired = running * n_cliffords
        # positions start <= k < m of every running row, as one contiguous
        # (position, running row) array
        segment = np.concatenate([d[:, start:m].T for d in draws[a:]], axis=1)
        # each pass applies the pair of positions 2q and 2q + 1, and an odd
        # segment its last position alone
        codes = segment[0:-1:2].astype(np.int16) * n_cliffords + segment[1::2]
        for code in codes:
            states = np.einsum("rij,rj->ri", pairs.take(paired + code, axis=0), states)
        if len(segment) % 2:
            states = np.einsum("rij,rj->ri", cliffords.take(running + segment[-1], axis=0), states)
        # the recovery element inverts the ideal product of each row's draws
        net = _products(table.composition, draws[a])
        recovery = cliffords[running[:block] + table.inverses[net], 0]
        ends = np.einsum("rj,rj->r", recovery, states[:block])
        survivals[:, a] = [row.mean() for row in ends.reshape(len(noises), repeats)]
        states = states[block:]
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
