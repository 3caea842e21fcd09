"""Pulse simulator: analytic Rabi anchors, integrator invariants, gating."""
import math
import warnings

import numpy as np
import pytest

from decay_traces import synth_decay_trace
from memos import clear_qubitsim_memos

from cryomux import chainmodel as cm
from cryomux import qubitsim as qs
from cryomux.errors import CalibrationError, ConfigError, IntegrationError
from cryomux.noisecalc import CoherenceRecord

T_G = 40e-9


@pytest.fixture(scope="module")
def pi_pulse():
    return qs.calibrate_pi_pulse(T_G, "cosine")


class ConstantModulator:
    def __init__(self, value):
        self.value = value

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)


class NanFrom:
    """Full drive before t0 and NaN from t0 on; an array t0 gives each
    member along the trailing axis its own."""

    def __init__(self, t0):
        self.t0 = t0

    def __call__(self, t):
        return np.where(np.asarray(t) < self.t0, 1.0, math.nan)


class TestEvolve:
    def test_zero_amplitude_is_identity(self):
        pulse = qs.PulseSpec("cosine", T_G, 0.0)
        start = qs.QubitState.ground(2)
        final = qs.evolve(start, pulse)
        assert np.allclose(final.density_matrix, start.density_matrix, atol=1e-12)

    def test_resonant_pi_pulse_flips(self, pi_pulse):
        final = qs.evolve(qs.QubitState.ground(2), pi_pulse)
        assert final.population(1) >= 1 - 1e-6

    def test_floor_modulator_rabi_angle(self, pi_pulse):
        floor = 10 ** (-30 / 20)
        ground = qs.QubitState.ground(2).density_matrix
        (final,) = qs._evolve_batch(
            ground[None], pi_pulse, qs.SimConfig(), ConstantModulator(floor), [None], [""]
        )
        expected = math.sin(floor * math.pi / 2) ** 2
        assert final.population(1) == pytest.approx(expected, abs=1e-6)
        assert final.population(1) == pytest.approx(2.46e-3, rel=5e-3)

    def test_trajectory_invariants_with_noise(self, pi_pulse):
        config = qs.SimConfig(levels=2, t1=30e-6, t_phi=20e-6)
        final, times, traj = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, config, return_trajectory=True
        )
        for rho in traj:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_three_level_trajectory_invariants(self):
        pulse = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        config = qs.SimConfig(levels=3, t1=30e-6, t_phi=20e-6)
        final, _, traj = qs.evolve(
            qs.QubitState.ground(3), pulse, config, return_trajectory=True
        )
        for rho in traj[:: len(traj) // 50]:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_gated_trajectory_ends_in_the_final_state(self, levels, shape):
        """A gated window's breakpoints split the grid into segments of
        different steps; the trajectory still rises strictly to exactly
        t_g and ends in the state _evolve_batch returns."""
        config = qs.SimConfig(levels=levels, t1=30e-6, t_phi=20e-6)
        pulse = qs.calibrate_pi_pulse(T_G, shape, config)
        mux = cm.MuxModel(isolation_db=30.0, rise_time=2.6e-9)
        modulator, breakpoints = gated_batch(mux, [12.345e-9])
        assert breakpoints[0]
        ground = qs.QubitState.ground(levels).density_matrix
        trajectory = [(0.0, ground)]
        (final,) = qs._evolve_batch(
            ground[None], pulse, config, modulator, breakpoints, [""], trajectory
        )
        times, traj = map(np.array, zip(*trajectory))
        assert times[0] == 0.0 and np.all(np.diff(times) > 0) and times[-1] == T_G
        assert len(traj) == len(times)
        assert np.array_equal(traj[-1], final.density_matrix)

    def test_trajectory_spans_passes(self, pi_pulse):
        """At dt = t_g/4100 a batch of one takes 4,100 steps in three passes;
        the trajectory still has an entry per step plus the start, rises
        strictly to exactly t_g and ends in the state evolve returns."""
        config = qs.SimConfig(dt=T_G / 4100, t1=30e-6, t_phi=20e-6)
        n_steps = qs._Grid(T_G, config.dt, [None]).n_max
        assert -(-n_steps // qs._FILL_PAIRS) == 3
        final, times, traj = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, config, return_trajectory=True
        )
        assert len(times) == len(traj) == n_steps + 1
        assert times[0] == 0.0 and np.all(np.diff(times) > 0) and times[-1] == T_G
        assert np.array_equal(traj[-1], final.density_matrix)

    def test_dt_convergence(self, pi_pulse):
        base = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, qs.SimConfig(dt=T_G / 2000)
        ).population(1)
        fine = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, qs.SimConfig(dt=T_G / 4000)
        ).population(1)
        assert abs(base - fine) < 1e-7

    def test_dt_precondition(self, pi_pulse):
        with pytest.raises(ConfigError):
            qs.evolve(qs.QubitState.ground(2), pi_pulse, qs.SimConfig(dt=T_G / 100))

    def test_unstable_integration_detected(self):
        # a drive hundreds of times past the resolvable rate breaks RK4
        pulse = qs.PulseSpec("cosine", T_G, 800 * 2 * math.pi / T_G)
        with pytest.raises(IntegrationError):
            qs.evolve(qs.QubitState.ground(2), pulse, qs.SimConfig(dt=T_G / 200))

    def test_nan_modulator_raises(self, pi_pulse):
        ground = qs.QubitState.ground(2).density_matrix
        with pytest.raises(IntegrationError, match="nan"):
            qs._evolve_batch(
                ground[None], pi_pulse, qs.SimConfig(), ConstantModulator(math.nan), [None], [""]
            )

    def test_decay_lowers_excited_population(self, pi_pulse):
        noisy = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, qs.SimConfig(t1=10e-6, t_phi=10e-6)
        )
        assert noisy.population(1) < 1 - 1e-4

    def test_two_vs_three_level_agreement_with_drag(self):
        pulse = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        pe2 = qs.evolve(qs.QubitState.ground(2), pulse, qs.SimConfig(levels=2)).population(1)
        pe3 = qs.evolve(qs.QubitState.ground(3), pulse, qs.SimConfig(levels=3)).population(1)
        assert abs(pe2 - pe3) < 1e-3

    def test_drag_suppresses_leakage(self):
        plain = qs.calibrate_pi_pulse(T_G, "cosine")
        drag = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        config = qs.SimConfig(levels=3)
        leak_plain = qs.evolve(qs.QubitState.ground(3), plain, config).population(2)
        leak_drag = qs.evolve(qs.QubitState.ground(3), drag, config).population(2)
        assert leak_plain > 1e-7
        assert leak_drag < leak_plain / 1e3


def probe_states(levels):
    """levels**2 density matrices whose vecs span the operator space: |j><j|
    and the pure states of (|j> + |k>)/sqrt2 and (|j> + i|k>)/sqrt2, j < k."""
    eye = np.eye(levels)
    kets = list(eye)
    for j in range(levels):
        for k in range(j + 1, levels):
            kets += [(eye[j] + eye[k]) / math.sqrt(2), (eye[j] + 1j * eye[k]) / math.sqrt(2)]
    return np.array([np.outer(ket, ket.conj()) for ket in kets])


class TestGateChannel:
    CONFIG = dict(t1=30e-6, t_phi=20e-6)

    @staticmethod
    def pulse(shape):
        return qs.PulseSpec(shape, T_G, 2 * math.pi / T_G)

    # T_G/2002.5 gives 2,003 steps, an odd count that the channel's tree
    # pads with 45 identity leaves to 2,048
    @pytest.mark.parametrize("dt", [None, T_G / 2002.5], ids=["default_grid", "ragged_grid"])
    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_matches_evolve_batch(self, levels, shape, dt):
        """gate_channel multiplies the RK4 steps of evolve's grid and drive
        samples, and evolve applies the same RK4 stages to the states: on an
        informationally complete set of states the two agree up to
        rounding."""
        config = qs.SimConfig(levels=levels, dt=dt, **self.CONFIG)
        pulse = self.pulse(shape)
        if dt is not None:
            assert qs._Grid(T_G, dt, [None]).n_max == 2003
        states = probe_states(levels)
        vecs = states.reshape(len(states), -1)
        assert np.linalg.matrix_rank(vecs) == levels**2
        n = len(states)
        finals = qs._evolve_batch(states, pulse, config, None, [None] * n, [""] * n)
        evolved = np.array([final.density_matrix.reshape(-1) for final in finals])
        channel = qs.gate_channel(pulse, config)
        # measured gap: 1.6e-15 (default grid) and 1.9e-15 (ragged) at 2
        # levels, 3.2e-15 and 2.1e-15 at 3 levels
        assert np.max(np.abs(vecs @ channel.T - evolved)) <= 1e-13

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64 here"
    )
    @pytest.mark.parametrize(
        "levels, shape, dt",
        [(2, "cosine", T_G / 2002.5), (3, "cosine_drag", None)],
        ids=["2level_ragged_grid", "3level_default_grid"],
    )
    def test_matches_longdouble_steps(self, levels, shape, dt):
        """gate_channel against the same RK4 steps (grid, drive samples and
        real Liouvillian parts) multiplied in numpy longdouble, in the real
        Hermitian basis where the channel is a real matrix."""
        config = qs.SimConfig(levels=levels, dt=dt, **self.CONFIG)
        pulse = self.pulse(shape)
        grid = qs._Grid(T_G, qs._resolve_dt(pulse, config), [None])
        _, t_eval, h = grid.block(0, grid.n_max)
        drive = qs._drive_waveforms(pulse, config, t_eval[..., 0], None)
        basis = qs._hermitian_basis(levels)
        l0, lx, ly, ln = (
            (basis @ part @ basis.conj().T).real.astype(np.longdouble)
            for part in qs._liouvillian_parts(config)
        )
        # a pulse without DRAG drives Ly and Ln with zero
        drive += (np.zeros_like(drive[0]),) * (3 - len(drive))
        wx, wy, wn = (w.astype(np.longdouble)[..., None, None] for w in drive)
        l_stages = l0 + wx * lx + wy * ly + wn * ln
        want = np.eye(levels**2, dtype=np.longdouble)
        for (l_a, l_b, l_c), step in zip(l_stages, h[:, 0].astype(np.longdouble)):
            k1 = l_a @ want
            k2 = l_b @ (want + step / 2 * k1)
            k3 = l_b @ (want + step / 2 * k2)
            k4 = l_c @ (want + step * k3)
            want = want + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = (basis @ qs.gate_channel(pulse, config) @ basis.conj().T).real
        # measured gap: 3.6e-16 (2 levels, ragged grid) and 3.6e-15 (3
        # levels); products of the full step propagators gave 9.2e-14 and
        # 1.1e-14
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_phase_is_a_frame_rotation(self, levels, shape):
        """A drive phase phi rotates the frame: G(phi) = Z(-phi) G(0) Z(-phi)^+
        with Z(phi) = U kron U* and U = diag(exp(-i phi k)). gate_channel
        applies this rotation to its phase-0 channel; the reference instead
        integrates the tree on the rotated drive parts, Lx' = c Lx + s Ly
        and Ly' = c Ly - s Lx, and maps its root back to vec(rho)."""
        config = qs.SimConfig(levels=levels, **self.CONFIG)
        pulse = self.pulse(shape)
        phase = 0.7
        u = np.diag(np.exp(1j * phase * np.arange(levels)))  # U(-phase)
        z = np.kron(u, u.conj())
        rotated = z @ qs.gate_channel(pulse, config) @ z.conj().T
        got = qs.gate_channel(pulse, config, phase=phase)
        # measured gap: 2.8e-17 at 2 levels, 1.6e-16 at 3 levels
        assert np.max(np.abs(got - rotated)) <= 1e-13
        l0, lx, ly, ln = qs._real_liouvillian_parts(config)
        c, s = math.cos(phase), math.sin(phase)
        parts = np.stack([l0, c * lx + s * ly, c * ly - s * lx, ln])
        depth = (qs._lattice_steps(T_G, qs._resolve_dt(pulse, config)) - 1).bit_length()
        delta = np.empty((1, levels**2, levels**2))
        qs._tree_nodes(pulse, config, parts, 1.0, depth, {(depth, 0): 0}, delta)
        basis = qs._hermitian_basis(levels)
        want = basis.conj().T @ (np.eye(levels**2) + delta[0]).T @ basis
        # measured gap: 3.3e-16 at 2 levels, 1.8e-15 at 3 levels
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, 0.7])
    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_channel_does_not_depend_on_call_history(self, levels, shape, phase):
        """A channel has the same bits built cold (every memo cleared),
        right after another phase of the same pulse and config, and right
        after the same pulse under another config."""
        config = qs.SimConfig(levels=levels, **self.CONFIG)
        pulse = self.pulse(shape)

        def after(*first):
            clear_qubitsim_memos()
            for first_config, first_phase in first:
                qs.gate_channel(pulse, first_config, phase=first_phase)
            return qs.gate_channel(pulse, config, phase=phase)

        cold = after()
        other_phase = after((config, math.pi - phase))
        other_config = after((qs.SimConfig(levels=levels, t1=10e-6), phase))
        assert other_phase.tobytes() == cold.tobytes()
        assert other_config.tobytes() == cold.tobytes()

    @pytest.mark.parametrize("levels, shape, bound", [(2, "cosine", 1e-12), (3, "cosine_drag", 2e-7)])
    def test_converges_to_finer_step(self, levels, shape, bound):
        pulse = self.pulse(shape)
        channel = qs.gate_channel(pulse, qs.SimConfig(levels=levels, **self.CONFIG), phase=0.7)
        fine = qs.SimConfig(levels=levels, dt=T_G / 8000, **self.CONFIG)
        # measured gap: 6.2e-13 at 2 levels, 9.9e-8 at 3 levels
        assert np.max(np.abs(channel - qs.gate_channel(pulse, fine, phase=0.7))) <= bound

    def test_nan_modulator_raises(self, pi_pulse, monkeypatch):
        drive = qs._drive_waveforms

        def nan_modulated(pulse, config, t, modulator):
            return drive(pulse, config, t, ConstantModulator(math.nan))

        # warm memos would hand back this good channel without building the
        # patched tree
        qs.gate_channel(pi_pulse)
        monkeypatch.setattr(qs, "_drive_waveforms", nan_modulated)
        # the tree weights and channel are built afresh from the NaN drive,
        # and not kept
        clear_qubitsim_memos()
        try:
            with pytest.raises(IntegrationError, match="trace-preserving"):
                qs.gate_channel(pi_pulse)
        finally:
            clear_qubitsim_memos()

    @pytest.mark.parametrize("levels", [2, 3])
    def test_hermitian_basis_gives_real_coordinates(self, levels):
        basis = qs._hermitian_basis(levels)
        # measured: 2.2e-16 at 2 and 3 levels
        assert np.max(np.abs(basis @ basis.conj().T - np.eye(levels**2))) <= 1e-15
        assert np.array_equal(basis[0], np.eye(levels**2)[0])  # E_00 comes first
        rng = np.random.default_rng(levels)
        m = rng.normal(size=(5, levels, levels)) + 1j * rng.normal(size=(5, levels, levels))
        rho = m + m.conj().swapaxes(1, 2)
        coords = rho.reshape(5, -1) @ basis.T
        # measured: 9.8e-17 (2 levels) and 1.2e-16 (3 levels) on entries up to 6.6
        assert np.max(np.abs(coords.imag)) <= 1e-15
        assert np.allclose(coords.real @ basis.conj(), rho.reshape(5, -1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_liouvillian_parts_are_real_in_hermitian_basis(self, levels):
        """_real_liouvillian_parts keeps only the real part of T L T^+ for
        each of L0, Lx, Ly and Ln; what it discards is rounding."""
        basis = qs._hermitian_basis(levels)
        for part in qs._liouvillian_parts(qs.SimConfig(levels=levels, **self.CONFIG)):
            discarded = np.max(np.abs((basis @ part @ basis.conj().T).imag))
            # measured: at most 3.6e-17 of the part's largest entry (L0 at
            # 3 levels, whose anharmonicity entries are 1.1e9 rad/s)
            assert discarded <= 1e-15 * np.max(np.abs(part))

    # 2,000 steps pad to 2,048 leaves, 200 to 256 (one block) and 3,000 to
    # 4,096 (a tree past its last whole block of steps)
    @pytest.mark.parametrize("steps", [2000, 200, 3000])
    @pytest.mark.parametrize("decay", [{}, CONFIG], ids=["no_decay", "decay"])
    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    @pytest.mark.parametrize("amplitude, level", [(0.0, 1.0), (2 * math.pi / T_G, 0.0)],
                             ids=["idle", "zero_level"])
    def test_zero_drive_tree_matches_pairwise_reduction(
        self, amplitude, level, levels, shape, decay, steps
    ):
        """Under zero drive _tree_nodes squares one leaf; every node it
        writes (full, empty or holding the lattice's end) equals the plain
        pairwise reduction of the padded stack of lattice steps."""
        config = qs.SimConfig(levels=levels, dt=T_G / steps, **decay)
        pulse = qs.PulseSpec(shape, T_G, amplitude)
        lattice = qs._Grid(T_G, T_G / steps, [None])
        assert lattice.n_max == steps
        depth = (steps - 1).bit_length()
        parts = qs._real_liouvillian_parts(config)
        _, t_eval, h = lattice.block(0, steps)
        weights = qs._stage_weights(pulse, config, t_eval, h, lambda t: level)
        tree = [np.zeros((1 << depth, levels**2, levels**2))]
        tree[0][:steps] = qs._step_deltas(weights[:, :, 0], parts)
        while len(tree[-1]) > 1:
            tree.append(qs._pair_products(tree[-1]))
        nodes = [(k, i) for k, level_nodes in enumerate(tree) for i in range(len(level_nodes))]
        out = np.full((len(nodes), *tree[0].shape[1:]), np.nan)
        wanted = {node: row for row, node in enumerate(nodes)}
        qs._tree_nodes(pulse, config, parts, level, depth, wanted, out)
        for (k, i), got in zip(nodes, out):
            assert np.array_equal(got, tree[k][i]), (k, i)

    # at 2 levels a block holds 512 leaves, at 3 levels 64: 200 steps give
    # one block, 2,000 blocks that all hold steps and 3,000 some past the
    # lattice's end
    @pytest.mark.parametrize("steps", [200, 2000, 3000])
    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_driven_tree_matches_pairwise_reduction(self, levels, shape, steps):
        """Under a drive _tree_nodes builds the leaves a block at a time,
        pairs each block down to its tops and then all the tops in one
        climb; every node it writes, at every depth, equals the plain
        pairwise reduction of the padded stack of all lattice steps at
        once."""
        config = qs.SimConfig(levels=levels, dt=T_G / steps, **self.CONFIG)
        pulse = self.pulse(shape)
        level = 0.3
        lattice = qs._Grid(T_G, T_G / steps, [None])
        assert lattice.n_max == steps
        depth = (steps - 1).bit_length()
        parts = qs._real_liouvillian_parts(config)
        _, t_eval, h = lattice.block(0, steps)
        weights = qs._stage_weights(pulse, config, t_eval, h, lambda t: level)
        tree = [np.zeros((1 << depth, levels**2, levels**2))]
        tree[0][:steps] = qs._step_deltas(weights[:, :, 0], parts)
        while len(tree[-1]) > 1:
            tree.append(qs._pair_products(tree[-1]))
        nodes = [(k, i) for k, level_nodes in enumerate(tree) for i in range(len(level_nodes))]
        # every node, each to a row of its own in shuffled order
        rows = np.random.default_rng(steps).permutation(len(nodes))
        out = np.full((len(nodes), *tree[0].shape[1:]), np.nan)
        qs._tree_nodes(pulse, config, parts, level, depth, dict(zip(nodes, rows)), out)
        for (k, i), row in zip(nodes, rows):
            assert np.array_equal(out[row], tree[k][i]), (k, i)

    def test_memos_give_the_channels_built_cold(self):
        """Channels built one after another in one process, reading the
        tree weights, Liouvillian parts and phase-0 channel that earlier
        calls left in their memos, have the bits of the same channels built
        right after every qubitsim memo is cleared: one pulse at phase 0.7 and
        then 0, under a second config at the same step, at a second step, at
        a second t_g, and a 3-level DRAG pulse. The memos hand out read-only
        arrays."""
        decay = qs.SimConfig(**self.CONFIG)
        cases = [
            (self.pulse("cosine"), decay, 0.7),
            (self.pulse("cosine"), decay, 0.0),
            (self.pulse("cosine"), qs.SimConfig(t1=10e-6), 0.0),
            (self.pulse("cosine"), qs.SimConfig(dt=T_G / 2002.5, **self.CONFIG), 0.0),
            (qs.PulseSpec("cosine", 2 * T_G, math.pi / T_G), decay, 0.0),
            (self.pulse("cosine_drag"), qs.SimConfig(levels=3, **self.CONFIG), 0.7),
        ]

        memos = {qs._tree_weights, qs._real_liouvillian_parts, qs._phase_free_channel, qs._level_constants}
        assert memos <= set(clear_qubitsim_memos())
        cold = []
        for pulse, config, phase in cases:
            clear_qubitsim_memos()
            cold.append(qs.gate_channel(pulse, config, phase=phase))
        clear_qubitsim_memos()
        warm = [qs.gate_channel(pulse, config, phase=phase) for pulse, config, phase in cases]
        assert qs._tree_weights.cache_info().hits > 0
        assert qs._real_liouvillian_parts.cache_info().hits > 0
        assert qs._phase_free_channel.cache_info().hits > 0
        for case, want, got in zip(cases, cold, warm):
            assert np.array_equal(got, want), case
        for pulse, config, _ in cases:
            dt = qs._resolve_dt(pulse, config)
            memos = (
                qs._tree_weights(pulse, config.levels, dt, 1.0),
                qs._real_liouvillian_parts(config),
                qs._phase_free_channel(pulse, config),
                *qs._level_constants(config.levels),
            )
            assert not any(array.flags.writeable for array in memos)


class TestValidation:
    @pytest.mark.parametrize("t_g, amplitude", [(math.nan, 1.0), (T_G, math.nan)])
    def test_pulse_spec_rejects_nan(self, t_g, amplitude):
        with pytest.raises(ConfigError):
            qs.PulseSpec("cosine", t_g, amplitude)

    @pytest.mark.parametrize("field", ["dt", "t1", "t_phi"])
    def test_sim_config_rejects_nan(self, field):
        with pytest.raises(ConfigError):
            qs.SimConfig(**{field: math.nan})

    def test_infinite_t1_is_legal(self):
        assert qs.SimConfig(t1=math.inf).t1 == math.inf


class TestFromCoherence:
    def test_infinite_t1_means_no_relaxation(self):
        config = qs.SimConfig.from_coherence(CoherenceRecord(math.inf, 6e-6, 6e-6))
        assert config.t1 is None
        assert config.t_phi == pytest.approx(6e-6, rel=1e-15)

    def test_t2_star_at_twice_t1_means_no_dephasing(self):
        config = qs.SimConfig.from_coherence(CoherenceRecord(30e-6, 60e-6, 60e-6))
        assert config.t1 == 30e-6
        assert config.t_phi is None

    def test_pure_dephasing_rate(self):
        config = qs.SimConfig.from_coherence(CoherenceRecord(30e-6, 6e-6, 6e-6))
        assert config.t1 == 30e-6
        assert 1.0 / config.t_phi == pytest.approx(1.0 / 6e-6 - 1.0 / 60e-6, rel=1e-12)
        assert (config.levels, config.dt) == (2, None)


class TestCalibration:
    def test_cosine_amplitude_is_area_condition(self, pi_pulse):
        assert pi_pulse.amplitude == pytest.approx(2 * math.pi / T_G, rel=1e-12)

    def test_doubling_duration_halves_amplitude(self, pi_pulse):
        slow = qs.calibrate_pi_pulse(2 * T_G, "cosine")
        assert slow.amplitude == pytest.approx(pi_pulse.amplitude / 2, rel=1e-9)

    def test_zero_drag_reduces_to_cosine(self, pi_pulse):
        # calibration is 2-level, where the DRAG corrections are inert
        drag = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        assert drag.shape == "cosine_drag"
        assert drag.amplitude == pytest.approx(pi_pulse.amplitude, rel=1e-12)

    def test_invalid_duration(self):
        for t_g in (0.0, math.nan):
            with pytest.raises(ConfigError):
                qs.calibrate_pi_pulse(t_g)

    def test_missed_flip_raises(self, monkeypatch):
        monkeypatch.setattr(qs, "evolve", lambda state, *args, **kwargs: state)
        with pytest.raises(CalibrationError):
            qs.calibrate_pi_pulse(T_G, "cosine")

    def test_detection_floor(self):
        assert qs.detected_population(0.3, detection_floor=1e-2) == 0.3
        assert qs.detected_population(1e-4, detection_floor=1e-2) == 1e-2
        assert qs.detected_population(2e-3, detection_floor=1e-3) == 2e-3


class TestTdmExperiment:
    MUX = cm.MuxModel(isolation_db=30.0, rise_time=0.0)

    def test_closed_window_leakage_floor(self, pi_pulse):
        p_e = qs.tdm_experiment(0.0, self.MUX, pi_pulse)
        assert p_e <= 3e-3
        theta = qs.windowed_rabi_angle(0.0, T_G, self.MUX.floor_amplitude())
        assert p_e == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-6)

    def test_window_sweep_matches_analytic_oracle(self, pi_pulse):
        floor = self.MUX.floor_amplitude()
        for w in np.linspace(0.0, 60e-9, 16):
            p_e = qs.tdm_experiment(float(w), self.MUX, pi_pulse)
            theta = qs.windowed_rabi_angle(float(w), T_G, floor)
            assert p_e == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-6)

    def test_monotone_in_window(self, pi_pulse):
        values = [
            qs.tdm_experiment(float(w), self.MUX, pi_pulse)
            for w in np.linspace(0.0, T_G, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_window_within_detection_of_long_window(self, pi_pulse):
        p30 = qs.tdm_experiment(30e-9, self.MUX, pi_pulse)
        p40 = qs.tdm_experiment(40e-9, self.MUX, pi_pulse)
        assert abs(p30 - p40) / p40 < 0.01

    def test_finite_rise_time_reduces_population(self, pi_pulse):
        slow = cm.MuxModel(isolation_db=30.0, rise_time=2.6e-9)
        p_ideal = qs.tdm_experiment(T_G, self.MUX, pi_pulse)
        p_slow = qs.tdm_experiment(T_G, slow, pi_pulse)
        assert p_slow < p_ideal

    def test_window_beyond_horizon(self, pi_pulse):
        with pytest.raises(ConfigError):
            qs.tdm_experiment(1e-6, self.MUX, pi_pulse)


def gated_batch(mux, windows):
    """The modulator tdm_sweep builds for windows centered on the pulse, one
    member per window, and each member's breakpoints."""
    mid = T_G / 2
    schedules = [
        cm.GatingSchedule.from_mux(
            mux, [] if w == 0.0 else [(mid - w / 2, "RF1"), (mid + w / 2, "RF2")]
        )
        for w in windows
    ]
    breakpoints = [[t for t, _ in schedule.events] for schedule in schedules]
    return cm.EnvelopeModulator(schedules, "RF1", mux.rise_time), breakpoints


def modulated_rabi_angle(window, pulse, floor, rise_time):
    """Rotation angle of a resonant raised-cosine pulse gated through a
    window centered on it, with first-order switching.

    A 2-level cosine pulse drives only sigma_x/2, so without decay p_e =
    sin^2(theta/2) with theta = amplitude * int_0^t_g env(t) m(t) dt, env =
    (1 - cos(omega t))/2 and omega = 2 pi/t_g. The transmission m is the floor
    until the window opens at t1 = (t_g - window)/2; there it relaxes
    toward 1 from the floor, and from t2 = t1 + window back toward the
    floor from the value it reached, each with tau = rise time/ln 9. On
    each such piece m = level + (start - level) e^(-(t - t0)/tau), and the
    integral of env times it is closed form.
    """
    t_g, omega = pulse.t_g, 2 * math.pi / pulse.t_g
    tau = rise_time / math.log(9.0)
    lam = 1.0 / tau
    # (from, to, level, start, t0) of each piece of m
    pieces = [(-math.inf, math.inf, floor, floor, 0.0)]
    if window > 0.0:
        t1 = (t_g - window) / 2
        t2 = t1 + window
        top = 1.0 + (floor - 1.0) * math.exp(-(t2 - t1) / tau)
        pieces = [(-math.inf, t1, floor, floor, t1), (t1, t2, 1.0, floor, t1), (t2, math.inf, floor, top, t2)]

    def env_integral(t):  # antiderivative of env
        return t / 2 - math.sin(omega * t) / (2 * omega)

    def env_exp_integral(t, t0):  # antiderivative of env(t) e^(-(t - t0)/tau)
        e = math.exp(-(t - t0) / tau)
        return -tau * e / 2 - e * (omega * math.sin(omega * t) - lam * math.cos(omega * t)) / (2 * (omega**2 + lam**2))

    theta = 0.0
    for lo, hi, level, start, t0 in pieces:
        a, b = max(lo, 0.0), min(hi, t_g)
        if a < b:
            theta += level * (env_integral(b) - env_integral(a))
            theta += (start - level) * (env_exp_integral(b, t0) - env_exp_integral(a, t0))
    return pulse.amplitude * theta


class TestTdmSweep:
    MUX = cm.MuxModel(isolation_db=30.0, rise_time=0.0)

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_member_does_not_depend_on_its_batch(self, levels, shape):
        """Each member's drive weights are evaluated on its own grid and each
        member steps through its own stage operators, so a member integrated
        in a batch is bit-identical to the member alone."""
        config = qs.SimConfig(levels=levels, t1=30e-6, t_phi=20e-6)
        pulse = qs.calibrate_pi_pulse(T_G, shape, config)
        mux = cm.MuxModel(isolation_db=30.0, rise_time=2.6e-9)
        # 0 and 60 ns (wider than t_g, so both events fall outside it) give
        # one-segment grids, the others three segments
        windows = [0.0, 7e-9, 12.345e-9, 30e-9, 60e-9]
        modulator, breakpoints = gated_batch(mux, windows)
        assert [len(qs._segments(T_G, b)) for b in breakpoints] == [1, 3, 3, 3, 1]
        rho0 = np.broadcast_to(qs.QubitState.ground(levels).density_matrix, (5, levels, levels))
        batch = qs._evolve_batch(rho0, pulse, config, modulator, breakpoints, [""] * 5)
        for b, window in enumerate(windows):
            (alone,) = qs._evolve_batch(rho0[:1], pulse, config, *gated_batch(mux, [window]), [""])
            assert np.array_equal(batch[b].density_matrix, alone.density_matrix)

    @pytest.mark.parametrize(
        "windows, dt, steps",
        [
            # a window whose edges split lattice steps takes two steps more
            (list(np.linspace(0.0, 2 * T_G, 34)), T_G / 200, {200, 202}),
            # 0, t_g and > t_g take 2,000 steps; 12.345 ns splits lattice
            # steps 691 and 1308, 2,002 steps, so the others are padded
            ([0.0, 12.345e-9, T_G, 60e-9], None, {2000, 2002}),
        ],
        ids=["34_windows", "default_step"],
    )
    @pytest.mark.parametrize(
        "levels, shape, rise_time", [(2, "cosine", 0.0), (3, "cosine_drag", 2.6e-9)]
    )
    def test_one_batch_matches_each_window_alone(
        self, levels, shape, rise_time, windows, dt, steps
    ):
        """Every p_e of a sweep, integrated as one batch, has the bits of its
        window alone: 34 windows at the coarsest step, and 4 at the default
        step whose _evolve_batch grids differ in length. A finite rise time
        compares with the window's one-member _evolve_batch; ideal switching
        takes _evolve_piecewise, so it compares with one-window sweeps."""
        config = qs.SimConfig(levels=levels, dt=dt)
        pulse = qs.calibrate_pi_pulse(T_G, shape, config)
        mux = cm.MuxModel(isolation_db=30.0, rise_time=rise_time)
        _, breakpoints = gated_batch(mux, windows)
        assert set(qs._Grid(T_G, qs._resolve_dt(pulse, config), breakpoints).n_steps) == steps
        swept = qs.tdm_sweep(windows, mux, pulse, config)
        if rise_time == 0.0:
            alone = [qs.tdm_sweep([w], mux, pulse, config)[0] for w in windows]
        else:
            rho0 = qs.QubitState.ground(levels).density_matrix[None]
            alone = [
                qs._evolve_batch(rho0, pulse, config, *gated_batch(mux, [w]), [""])[0].population(1)
                for w in windows
            ]
        assert np.array_equal(swept, alone)

    # fig4b_tdm's 31 default windows, 0 to 60 ns in 2 ns steps
    SHIPPED_WINDOWS = [round(float(w), 9) * 1e-9 for w in np.linspace(0.0, 60.0, 31)]

    # bounds are 10x the gaps measured under the default, Haswell BLAS and
    # numpy AVX2 kernels, which agree to 1e-16: RK4's h^4 truncation at the
    # default step, rounding alone at t_g/8000
    @pytest.mark.parametrize(
        "dt, bound", [(None, 5.3e-12), (T_G / 8000, 2.3e-14)], ids=["default_step", "t_g/8000"]
    )
    def test_shipped_sweep_matches_closed_form(self, dt, bound):
        """The decay-free 2-level sweep of fig4b_tdm's windows against
        sin^2(theta/2) of windowed_rabi_angle; measured 5.3e-13 and 2.2e-15."""
        pulse = qs.calibrate_pi_pulse(T_G, "cosine")
        windows = self.SHIPPED_WINDOWS
        floor = self.MUX.floor_amplitude()
        theory = [math.sin(qs.windowed_rabi_angle(w, T_G, floor) / 2) ** 2 for w in windows]
        gap = np.max(np.abs(qs.tdm_sweep(windows, self.MUX, pulse, qs.SimConfig(dt=dt)) - theory))
        assert gap <= bound, f"gap {gap:.3g}"

    @pytest.mark.parametrize(
        "dt, bound", [(None, 5.3e-12), (T_G / 8000, 3.7e-14)], ids=["default_step", "t_g/8000"]
    )
    def test_stepped_route_matches_closed_form(self, dt, bound):
        """The same windows, each through a one-member _evolve_batch under
        its ideal-switching modulator; measured 5.3e-13 and 3.7e-15."""
        pulse = qs.calibrate_pi_pulse(T_G, "cosine")
        floor = self.MUX.floor_amplitude()
        rho0 = qs.QubitState.ground(2).density_matrix[None]
        config = qs.SimConfig(dt=dt)
        gaps = []
        for w in self.SHIPPED_WINDOWS:
            (final,) = qs._evolve_batch(rho0, pulse, config, *gated_batch(self.MUX, [w]), [""])
            theory = math.sin(qs.windowed_rabi_angle(w, T_G, floor) / 2) ** 2
            gaps.append(abs(final.population(1) - theory))
        assert max(gaps) <= bound, f"gap {max(gaps):.3g}"

    # bounds are 10x the gaps measured under the default, Haswell BLAS and
    # numpy AVX2 kernels, which agree to the last digit: 6.8e-13 and
    # 5.6e-15 at 2.6 ns and 30 dB, 5.3e-12 and 1.9e-14 at 1.1 ns and 20 dB,
    # RK4's h^4 truncation (256x smaller at t_g/8000) plus rounding
    @pytest.mark.parametrize(
        "rise_time, isolation_db, dt, bound",
        [
            (2.6e-9, 30.0, None, 6.8e-12),
            (2.6e-9, 30.0, T_G / 8000, 5.6e-14),
            (1.1e-9, 20.0, None, 5.3e-11),
            (1.1e-9, 20.0, T_G / 8000, 1.9e-13),
        ],
        ids=["2.6ns_30dB_default_step", "2.6ns_30dB_t_g/8000", "1.1ns_20dB_default_step",
             "1.1ns_20dB_t_g/8000"],
    )
    def test_finite_rise_sweep_matches_closed_form(self, rise_time, isolation_db, dt, bound):
        """The decay-free 2-level sweep of fig4b_tdm's windows at a finite
        rise time against sin^2(theta/2), theta the closed-form integral of
        the modulated drive (modulated_rabi_angle)."""
        pulse = qs.calibrate_pi_pulse(T_G, "cosine")
        mux = cm.MuxModel(isolation_db=isolation_db, rise_time=rise_time)
        theory = [
            math.sin(modulated_rabi_angle(w, pulse, mux.floor_amplitude(), rise_time) / 2) ** 2
            for w in self.SHIPPED_WINDOWS
        ]
        gap = np.max(np.abs(qs.tdm_sweep(self.SHIPPED_WINDOWS, mux, pulse, qs.SimConfig(dt=dt)) - theory))
        assert gap <= bound, f"gap {gap:.3g}, bound {bound:.3g}"

    # ragged 3-decimal windows, whose edges split lattice steps, and the
    # windows that reduce to one tree root (0, t_g and 60 ns)
    PIECEWISE_WINDOWS = [0.0, 3.517e-9, 12.345e-9, 27.089e-9, T_G, 60e-9]

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_piecewise_member_does_not_depend_on_its_batch(self, levels, shape):
        """At ideal switching a window's plan, trees and split steps depend
        only on its own schedule, so its p_e alone has the bits it has in
        any batch, here in the sweep of all windows and of all in reverse."""
        pulse = qs.calibrate_pi_pulse(T_G, shape, qs.SimConfig(levels=levels))
        config = qs.SimConfig(levels=levels, t1=30e-6, t_phi=20e-6)
        windows = self.PIECEWISE_WINDOWS
        swept = qs.tdm_sweep(windows, self.MUX, pulse, config)
        reversed_sweep = qs.tdm_sweep(windows[::-1], self.MUX, pulse, config)[::-1]
        alone = [qs.tdm_sweep([w], self.MUX, pulse, config)[0] for w in windows]
        assert np.array_equal(swept, alone) and np.array_equal(reversed_sweep, alone)

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_piecewise_agrees_with_the_stepped_route(self, levels, shape):
        """_evolve_piecewise (tree products of lattice steps, and split
        steps) against a one-member _evolve_batch of every window. Both
        routes step on one grid (_lattice_pieces), so only their rounding
        differs."""
        pulse = qs.calibrate_pi_pulse(T_G, shape, qs.SimConfig(levels=levels))
        config = qs.SimConfig(levels=levels, t1=30e-6, t_phi=20e-6)
        windows = self.PIECEWISE_WINDOWS
        swept = qs.tdm_sweep(windows, self.MUX, pulse, config)
        rho0 = qs.QubitState.ground(levels).density_matrix[None]
        stepped = [
            qs._evolve_batch(rho0, pulse, config, *gated_batch(self.MUX, [w]), [""])[0]
            for w in windows
        ]
        # measured: 1.3e-15 at 2 levels and 3.0e-15 at 3 levels (27.089
        # ns); over perfbench's 31 seed-0 windows at 3 levels, 1.9e-15 with
        # this decay and 3.6e-15 without
        assert np.max(np.abs(swept - [state.population(1) for state in stepped])) <= 1e-13

    def test_piecewise_plan_splits_only_its_own_steps(self):
        """A 12.345 ns window's edges, 691.375 and 1308.625 steps of 20 ps
        in, split lattice steps 691 and 1308 of 2,000 in two
        (_lattice_pieces), and the rest of its drive is whole lattice runs,
        which its plan covers with tree nodes; a 20 ns window, whose edges
        miss the lattice by rounding only, splits none."""
        n, depth = 2000, 11
        mid = T_G / 2

        def segments(w):
            return qs._segments(T_G, [mid - w / 2, mid + w / 2])

        ragged = qs._lattice_pieces(segments(12.345e-9), T_G, n)
        own = [(start, stop) for _, k0, _, start, stop in ragged if k0 is None]
        h = T_G / n
        assert [(round(start / h, 6), round(stop / h, 6)) for start, stop in own] == [
            (691, 691.375), (691.375, 692), (1308, 1308.625), (1308.625, 1309),
        ]
        plan = qs._piecewise_plan(segments(12.345e-9), [0, 1, 0], T_G, n, depth)
        assert [op[2:] for _, op in plan if op[0] == "sub"] == own
        for ends in ([stop for *_, stop in ragged], [end for end, _ in plan]):
            assert ends == sorted(ends) and ends[-1] == T_G
        assert len(plan) <= 4 + 3 * 2 * depth
        runs = qs._lattice_pieces(segments(20e-9), T_G, n)
        assert [(k0, k1) for _, k0, k1, *_ in runs] == [(0, 500), (500, 1500), (1500, 2000)]
        snapped = [op for _, op in qs._piecewise_plan(segments(20e-9), [0, 1, 0], T_G, n, depth)]
        assert all(op[0] == "node" for op in snapped)
        full = [(k, i) for _, level, (k, i) in snapped if level == 1]
        # the full drive tiles steps 500 <= j < 1500, from 10 ns to 30 ns
        assert (full[0][1] << full[0][0], sum(1 << k for k, _ in full)) == (500, 1000)

    @pytest.mark.parametrize("levels, shape", [(2, "cosine"), (3, "cosine_drag")])
    def test_stepped_grid_splits_the_plans_steps(self, levels, shape):
        """The stepped grid and the piecewise plans read one rule
        (_lattice_pieces): every window's steps that are not whole lattice
        steps are exactly its plan's own steps, start and stop."""
        config = qs.SimConfig(levels=levels)
        dt = qs._resolve_dt(qs.calibrate_pi_pulse(T_G, shape, config), config)
        n = qs._Grid(T_G, dt, [None]).n_max
        _, breakpoints = gated_batch(self.MUX, self.PIECEWISE_WINDOWS)
        grid = qs._Grid(T_G, dt, breakpoints)
        t_end, t_eval, h = grid.block(0, grid.n_max)
        counts = []
        for b, points in enumerate(breakpoints):
            split = (h[:, b] > 0.0) & (h[:, b] != T_G / n)
            segments = qs._segments(T_G, points)
            plan = qs._piecewise_plan(segments, [0] * len(segments), T_G, n, (n - 1).bit_length())
            subs = [op[2:] for _, op in plan if op[0] == "sub"]
            assert list(zip(t_eval[split, 0, b].tolist(), t_end[split, b].tolist())) == subs
            counts.append(len(subs))
        assert counts == [0, 4, 4, 4, 0, 0]

    def test_no_step_reads_two_drive_levels(self):
        """Switching times 5e-21 s (2.5e-10 steps) to either side of
        lattice points are moved onto them, yet every stage of every step
        reads the ideal-switching drive of the segment the step lies in,
        as its midpoint does."""
        h = T_G / 2000
        events = [(950 * h + 5e-21, 1050 * h - 5e-21), (950 * h - 5e-21, 1050 * h + 5e-21)]
        schedules = [
            cm.GatingSchedule.from_mux(self.MUX, ((on, "RF1"), (off, "RF2"))) for on, off in events
        ]
        grid = qs._Grid(T_G, h, [list(pair) for pair in events])
        assert list(grid.n_steps) == [2000, 2000]
        _, t_eval, _ = grid.block(0, grid.n_max)
        drive = cm.EnvelopeModulator(schedules, "RF1", 0.0)(t_eval)
        assert np.array_equal(drive, np.broadcast_to(drive[:, 1:2], drive.shape))

    def test_empty_sweep(self, pi_pulse):
        assert qs.tdm_sweep([], self.MUX, pi_pulse).shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, 1e-6])  # 1e-6 s is past the horizon
    def test_every_window_checked_before_integration(self, pi_pulse, monkeypatch, bad):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the window check")

        monkeypatch.setattr(qs, "_evolve_batch", no_integration)
        monkeypatch.setattr(qs, "_evolve_piecewise", no_integration)
        with pytest.raises(ConfigError, match="window"):
            qs.tdm_sweep([10e-9, 20e-9, bad], self.MUX, pi_pulse)

    def test_nan_member_names_its_window(self, pi_pulse, monkeypatch):
        bad = 20e-9
        gated = cm.EnvelopeModulator.__call__

        def nan_for_bad_window(self, t):
            values = gated(self, t)
            for b, schedule in enumerate(self.schedules):
                if schedule.events and schedule.events[0][0] == T_G / 2 - bad / 2:
                    values[..., b] = math.nan
            return values

        monkeypatch.setattr(cm.EnvelopeModulator, "__call__", nan_for_bad_window)
        with pytest.raises(IntegrationError, match=rf"^window {bad!r} s: trace drifted to nan"):
            qs.tdm_sweep([10e-9, bad, 30e-9], self.MUX, pi_pulse)

    def test_piecewise_drift_earliest_in_time_names_its_window(self, pi_pulse, monkeypatch):
        """With the full drive NaN, the 60 ns window drifts in its first and
        only operation, the tree root that ends at t_g; the 10 ns window
        drifts in its eighth, the first full-drive node after seven floor
        nodes, which ends at 15.04 ns. The error names the 10 ns window,
        the first to drift in time, not the first to drift in operation
        order."""
        gated = cm.EnvelopeModulator.__call__

        def nan_full_drive(self, t):
            values = gated(self, t)
            return np.where(values == 1.0, math.nan, values)

        monkeypatch.setattr(cm.EnvelopeModulator, "__call__", nan_full_drive)
        with pytest.raises(IntegrationError, match=r"^window 1e-08 s: trace drifted to nan"):
            qs.tdm_sweep([60e-9, 10e-9], self.MUX, pi_pulse)

    # fractions of T_G from which members a, b and c see a NaN drive; all
    # NaN steps fall in the last of three passes
    @pytest.mark.parametrize(
        "nan_from, label", [((None, 0.75, None), "b: "), ((None, 0.76, 0.75), "c: ")]
    )
    def test_first_drifted_step_names_its_member(self, pi_pulse, nan_from, label):
        """Traces are checked once per pass; the error names the member
        that drifted at the earliest step, not the lowest-numbered one."""
        modulator = NanFrom(np.array([math.inf if f is None else f * T_G for f in nan_from]))
        rho0 = np.broadcast_to(qs.QubitState.ground(2).density_matrix, (3, 2, 2))
        labels = ["a: ", "b: ", "c: "]
        with pytest.raises(IntegrationError, match=rf"^{label}trace drifted to nan"):
            qs._evolve_batch(rho0, pi_pulse, qs.SimConfig(), modulator, [None] * 3, labels)

    # steps (in units of the default step) from which members of a batch of
    # 31 see a NaN drive; a quarter step past an integer, no stage of the
    # step before samples it. Step 66 opens the second 66-step pass.
    @pytest.mark.parametrize(
        "nan_from, named",
        [
            ({10: 66.25, 30: 70.25}, 10),  # a higher member drifts later in the pass
            ({10: 66.25, 2: 100.25}, 10),  # so does a lower one
            ({10: 66.25, 30: 65.25}, 30),  # the first pass's last step comes first
        ],
    )
    def test_drift_in_a_later_pass_names_its_member(self, pi_pulse, nan_from, named):
        """The check after each pass names the member that drifted at the
        earliest step, whichever pass and member number that is."""
        assert qs._FILL_PAIRS // 31 == 66
        t0 = np.full(31, math.inf)
        for b, step in nan_from.items():
            t0[b] = step * T_G / 2000
        rho0 = np.broadcast_to(qs.QubitState.ground(2).density_matrix, (31, 2, 2))
        labels = [f"member {b}: " for b in range(31)]
        with pytest.raises(IntegrationError, match=rf"^member {named}: trace drifted to nan"):
            qs._evolve_batch(rho0, pi_pulse, qs.SimConfig(), NanFrom(t0), [None] * 31, labels)

    def test_unstable_sweep_names_its_first_window(self):
        """A drive hundreds of times past the resolvable rate overflows
        every window within the one pass of 200 steps; the sweep still
        ends in IntegrationError naming the first window, and no overflow
        warning escapes."""
        pulse = qs.PulseSpec("cosine", T_G, 800 * 2 * math.pi / T_G)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=rf"^window {T_G!r} s: trace drifted to"):
                qs.tdm_sweep([T_G, 50e-9], self.MUX, pulse, qs.SimConfig(dt=T_G / 200))


class TestSynthTraces:
    TRUTH = CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=35e-6)

    def test_t1_trace_endpoints(self):
        times = np.array([0.0, 30e-6])
        y = synth_decay_trace("t1", self.TRUTH, times=times)
        assert y[0] == 1.0
        assert y[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_ramsey_period(self):
        times = np.linspace(0, 8e-6, 4001)
        y = synth_decay_trace("ramsey", self.TRUTH, detuning=0.5e6, times=times)
        # 0.5 MHz beats: maxima 2 us apart
        maxima = times[1:-1][(y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])]
        assert np.allclose(np.diff(maxima), 2e-6, atol=2e-8)

    def test_echo_midpoint(self):
        y = synth_decay_trace("echo", self.TRUTH, times=np.array([1e-9, 35e-6]))
        assert y[1] == pytest.approx(0.5 * (1 + math.exp(-1.0)), rel=1e-9)

    def test_noise_is_seeded(self):
        times = np.linspace(0, 1e-4, 64)
        a = synth_decay_trace("t1", self.TRUTH, times=times, noise_sigma=0.01, seed=9)
        b = synth_decay_trace("t1", self.TRUTH, times=times, noise_sigma=0.01, seed=9)
        assert np.array_equal(a, b)

    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            synth_decay_trace("t1", self.TRUTH, times=[1e-6, 1e-6])


class TestQubitState:
    def test_non_hermitian_rejected(self):
        with pytest.raises(IntegrationError):
            qs.QubitState(np.array([[1.0, 0.1], [0.0, 0.0]]))

    def test_trace_must_be_one(self):
        with pytest.raises(IntegrationError):
            qs.QubitState(np.eye(2, dtype=complex))

    def test_nan_rejected(self):
        with pytest.raises(IntegrationError):
            qs.QubitState(np.full((2, 2), math.nan))

    @pytest.mark.parametrize(
        "rho",
        [np.diag([1.1, -0.1]), np.array([[0.5, 0.6], [0.6, 0.5]]), np.diag([0.6, 0.5, -0.1])],
    )
    def test_negative_eigenvalue_rejected(self, rho):
        # Hermitian with unit trace, but with eigenvalue -0.1
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-0.1)
        with pytest.raises(IntegrationError, match="eigenvalue"):
            qs.QubitState(rho)

    def test_eigenvalue_within_tolerance_accepted(self):
        qs.QubitState(np.diag([1.0 + 1e-7, -1e-7]))
        qs.QubitState(np.array([[0.5, 0.5 + 1e-7], [0.5 + 1e-7, 0.5]]))

    def test_ground_state(self):
        state = qs.QubitState.ground(3)
        assert state.population(0) == 1.0
        assert state.levels == 3
