"""Exact expected survival of single-qubit randomized benchmarking.

The survival averaged over uniformly random Clifford sequences is linear in
the state, so it follows from one vector: the pair (net ideal Clifford c,
state) as 24 blocks of the real Hermitian coordinates run_rb uses, 96
entries at d = 2. One random Clifford g takes block c to block
composition[c, g] through g's channel C_g, so one step is the real 96 x 96
matrix

    T[(c', .), (c, .)] = (1/24) sum_g 1{composition[c, g] = c'} C_g.

A sequence of m Cliffords starts from the identity and the ground state,
v0 = (e_0 in block 0), and its recovery inverts the net Clifford, so the
mean survival at length m is sum_c <e_0| C_{inverses[c]} (T^m v0)_c. T's
eigenvalue of second largest modulus is the RB decay p (Wallman, Quantum 2,
47, 2018; Magesan, Gambetta and Emerson, PRL 106, 180504, 2011).

The test suite uses this as a reference; nothing in the package calls it.
"""
import numpy as np

from cryomux import qubitsim as qs
from cryomux import rbengine as rb


def clifford_channels(pulse, noise) -> np.ndarray:
    """The (24, 4, 4) real channels of the Clifford group that run_rb
    builds for one noise record (None for none), in the basis of
    qubitsim._hermitian_basis(2)."""
    config = qs.SimConfig() if noise is None else qs.SimConfig.from_coherence(noise)
    channels = rb.generator_channels(pulse, config)
    basis = qs._hermitian_basis(2)
    return np.array([
        (basis @ rb.sequence_unitary(seq, channels) @ basis.conj().T).real
        for seq in rb.CLIFFORD_DECOMPOSITIONS
    ])


def step_matrix(cliffords: np.ndarray) -> np.ndarray:
    """T, one uniformly random Clifford applied to the (net Clifford, state)
    vector, as a (24 d^2, 24 d^2) matrix."""
    composition = rb.build_clifford_table().composition
    n, dim = cliffords.shape[:2]
    step = np.zeros((n, dim, n, dim))
    for c in range(n):
        for g in range(n):
            step[composition[c, g], :, c, :] += cliffords[g] / n
    return step.reshape(n * dim, n * dim)


def expected_survival(lengths, cliffords: np.ndarray) -> np.ndarray:
    """The exact mean survival at each of the increasing lengths."""
    n, dim = cliffords.shape[:2]
    step = step_matrix(cliffords)
    # block c of the readout is row 0 of the recovery's channel
    readout = cliffords[rb.build_clifford_table().inverses, 0].reshape(-1)
    v = np.zeros(n * dim)
    v[0] = 1.0  # the identity and the ground state
    survival, done = [], 0
    for m in lengths:
        for _ in range(m - done):
            v = step @ v
        done = m
        survival.append(readout @ v)
    return np.array(survival)


def decay_eigenvalue(cliffords: np.ndarray) -> float:
    """|lambda_2(T)|, the modulus of T's eigenvalue second largest in
    modulus."""
    return float(np.sort(np.abs(np.linalg.eigvals(step_matrix(cliffords))))[-2])
