"""Pulse simulator: analytic Rabi anchors, integrator invariants, gating."""
import math

import numpy as np
import pytest

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
        self.breakpoints = ()

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)


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
        final = qs.evolve(qs.QubitState.ground(2), pi_pulse, ConstantModulator(floor))
        expected = math.sin(floor * math.pi / 2) ** 2
        assert final.population(1) == pytest.approx(expected, abs=1e-6)
        assert final.population(1) == pytest.approx(2.46e-3, rel=5e-3)

    def test_trajectory_invariants_with_noise(self, pi_pulse):
        config = qs.SimConfig(levels=2, t1=30e-6, t_phi=20e-6)
        final, times, traj = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, None, config, return_trajectory=True
        )
        for rho in traj:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_three_level_trajectory_invariants(self):
        pulse = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        config = qs.SimConfig(levels=3, t1=30e-6, t_phi=20e-6)
        final, _, traj = qs.evolve(
            qs.QubitState.ground(3), pulse, None, config, return_trajectory=True
        )
        for rho in traj[:: len(traj) // 50]:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_dt_convergence(self, pi_pulse):
        base = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, None, qs.SimConfig(dt=T_G / 2000)
        ).population(1)
        fine = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, None, qs.SimConfig(dt=T_G / 4000)
        ).population(1)
        assert abs(base - fine) < 1e-7

    def test_dt_precondition(self, pi_pulse):
        with pytest.raises(ConfigError):
            qs.evolve(qs.QubitState.ground(2), pi_pulse, None, qs.SimConfig(dt=T_G / 100))

    def test_unstable_integration_detected(self):
        # a drive hundreds of times past the resolvable rate breaks RK4
        pulse = qs.PulseSpec("cosine", T_G, 800 * 2 * math.pi / T_G)
        with pytest.raises(IntegrationError):
            qs.evolve(qs.QubitState.ground(2), pulse, None, qs.SimConfig(dt=T_G / 200))

    def test_nan_modulator_raises(self, pi_pulse):
        with pytest.raises(IntegrationError, match="nan"):
            qs.evolve(qs.QubitState.ground(2), pi_pulse, ConstantModulator(math.nan))

    def test_decay_lowers_excited_population(self, pi_pulse):
        noisy = qs.evolve(
            qs.QubitState.ground(2), pi_pulse, None, qs.SimConfig(t1=10e-6, t_phi=10e-6)
        )
        assert noisy.population(1) < 1 - 1e-4

    def test_two_vs_three_level_agreement_with_drag(self):
        pulse = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        pe2 = qs.evolve(qs.QubitState.ground(2), pulse, None, qs.SimConfig(levels=2)).population(1)
        pe3 = qs.evolve(qs.QubitState.ground(3), pulse, None, qs.SimConfig(levels=3)).population(1)
        assert abs(pe2 - pe3) < 1e-3

    def test_drag_suppresses_leakage(self):
        plain = qs.calibrate_pi_pulse(T_G, "cosine")
        drag = qs.calibrate_pi_pulse(T_G, "cosine_drag")
        config = qs.SimConfig(levels=3)
        leak_plain = qs.evolve(qs.QubitState.ground(3), plain, None, config).population(2)
        leak_drag = qs.evolve(qs.QubitState.ground(3), drag, None, config).population(2)
        assert leak_plain > 1e-7
        assert leak_drag < leak_plain / 1e3


@pytest.mark.parametrize(
    "levels, shape, rise_time", [(2, "cosine", 0.0), (3, "cosine_drag", 2.6e-9)]
)
def test_gate_channel_matches_evolve(levels, shape, rise_time):
    """gate_channel multiplies the RK4 step propagators of evolve's grid and
    drive samples: the channel applied to vec(rho0) is the evolved state, up
    to evolve's Hermitian projection and rounding."""
    config = qs.SimConfig(levels=levels, t1=30e-6, t_phi=20e-6)
    pulse = qs.PulseSpec(shape, T_G, 2 * math.pi / T_G, drag_coefficient=1.0)
    sched = cm.GatingSchedule.from_mux(cm.MuxModel(), [(10e-9, "RF1"), (30e-9, "RF2")])
    modulator = cm.EnvelopeModulator(sched, "RF1", rise_time)
    rho0 = np.zeros((levels, levels), dtype=complex)
    rho0[:2, :2] = [[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]
    final = qs.evolve(qs.QubitState(rho0), pulse, modulator, config, phase=0.7)
    channel = qs.gate_channel(pulse, config, phase=0.7, envelope_modulator=modulator)
    gap = np.max(np.abs(channel @ rho0.reshape(-1) - final.density_matrix.reshape(-1)))
    assert gap <= 1e-12


class TestGateChannel:
    CONFIG = dict(t1=30e-6, t_phi=20e-6)

    @staticmethod
    def pulse(shape):
        return qs.PulseSpec(shape, T_G, 2 * math.pi / T_G, drag_coefficient=1.0)

    @pytest.mark.parametrize(
        "levels, shape, rise_time", [(2, "cosine", 0.0), (3, "cosine_drag", 2.6e-9)]
    )
    def test_matches_stage_wise_rk4(self, levels, shape, rise_time):
        config = qs.SimConfig(levels=levels, **self.CONFIG)
        # segments of 501 + 1000 + 501 steps: neither a multiple of the
        # 256-step block nor a power of two, so the last block is ragged
        events = [(10.001e-9, "RF1"), (29.999e-9, "RF2")]
        sched = cm.GatingSchedule.from_mux(cm.MuxModel(), events)
        modulator = cm.EnvelopeModulator(sched, "RF1", rise_time)
        assert qs._Grid(T_G, T_G / 2000, modulator.breakpoints).n_steps == 2002
        pulse = self.pulse(shape)
        channel = qs.gate_channel(pulse, config, phase=0.7, envelope_modulator=modulator)
        identity = np.eye(levels**2, dtype=complex)[None]
        stage_wise = qs._rk4(identity, pulse, config, [modulator], 0.7)[0]
        # measured gap: 4.9e-15 at 2 levels, 5.1e-15 at 3 levels
        assert np.max(np.abs(channel - stage_wise)) <= 1e-13

    @pytest.mark.parametrize("levels, shape, bound", [(2, "cosine", 1e-12), (3, "cosine_drag", 2e-7)])
    def test_converges_to_finer_step(self, levels, shape, bound):
        pulse = self.pulse(shape)
        channel = qs.gate_channel(pulse, qs.SimConfig(levels=levels, **self.CONFIG), phase=0.7)
        fine = qs.SimConfig(levels=levels, dt=T_G / 8000, **self.CONFIG)
        # measured gap: 6.3e-13 at 2 levels, 1.0e-7 at 3 levels
        assert np.max(np.abs(channel - qs.gate_channel(pulse, fine, phase=0.7))) <= bound

    def test_nan_modulator_raises(self, pi_pulse):
        with pytest.raises(IntegrationError, match="trace-preserving"):
            qs.gate_channel(pi_pulse, envelope_modulator=ConstantModulator(math.nan))


class TestCalibration:
    def test_cosine_amplitude_is_area_condition(self, pi_pulse):
        assert pi_pulse.amplitude == pytest.approx(2 * math.pi / T_G, rel=1e-12)

    def test_doubling_duration_halves_amplitude(self, pi_pulse):
        slow = qs.calibrate_pi_pulse(2 * T_G, "cosine")
        assert slow.amplitude == pytest.approx(pi_pulse.amplitude / 2, rel=1e-9)

    def test_zero_drag_reduces_to_cosine(self, pi_pulse):
        drag0 = qs.calibrate_pi_pulse(T_G, "cosine_drag", drag_coefficient=0.0)
        assert drag0.amplitude == pytest.approx(pi_pulse.amplitude, rel=1e-12)

    def test_invalid_duration(self):
        with pytest.raises(ConfigError):
            qs.calibrate_pi_pulse(0.0)

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


def gated_modulator(mux, window):
    """The modulator tdm_sweep builds for one window centered on the pulse."""
    mid = T_G / 2
    events = [] if window == 0.0 else [(mid - window / 2, "RF1"), (mid + window / 2, "RF2")]
    return cm.EnvelopeModulator(cm.GatingSchedule.from_mux(mux, events), "RF1", mux.rise_time)


class TestTdmSweep:
    MUX = cm.MuxModel(isolation_db=30.0, rise_time=0.0)
    # 0, t_g and > t_g take 2,000 steps; 12.345 ns cuts the grid into
    # segments of 692 + 618 + 692 steps, so the others are padded
    WINDOWS = [0.0, 12.345e-9, T_G, 60e-9]

    @pytest.mark.parametrize(
        "levels, shape, rise_time", [(2, "cosine", 0.0), (3, "cosine_drag", 2.6e-9)]
    )
    def test_matches_per_window_evolve(self, levels, shape, rise_time):
        config = qs.SimConfig(levels=levels)
        pulse = qs.calibrate_pi_pulse(T_G, shape, config)
        mux = cm.MuxModel(isolation_db=30.0, rise_time=rise_time)
        modulators = [gated_modulator(mux, w) for w in self.WINDOWS]
        steps = {qs._Grid(T_G, T_G / 2000, m.breakpoints).n_steps for m in modulators}
        assert steps == {2000, 2002}
        swept = qs.tdm_sweep(self.WINDOWS, mux, pulse, config)
        alone = [
            qs.evolve(qs.QubitState.ground(levels), pulse, m, config).population(1)
            for m in modulators
        ]
        # measured gap: 0 (bit-identical) at both settings
        assert np.max(np.abs(swept - alone)) <= 1e-15

    def test_chunks_match_one_batch(self, pi_pulse, monkeypatch):
        whole = qs.tdm_sweep(self.WINDOWS, self.MUX, pi_pulse)
        monkeypatch.setattr(qs, "_SWEEP_CHUNK", 3)
        assert np.array_equal(qs.tdm_sweep(self.WINDOWS, self.MUX, pi_pulse), whole)

    def test_empty_sweep(self, pi_pulse):
        assert qs.tdm_sweep([], self.MUX, pi_pulse).shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, 1e-6])  # 1e-6 s is past the horizon
    def test_every_window_checked_before_integration(self, pi_pulse, monkeypatch, bad):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the window check")

        monkeypatch.setattr(qs, "_rk4", no_integration)
        with pytest.raises(ConfigError, match="window"):
            qs.tdm_sweep([10e-9, 20e-9, bad], self.MUX, pi_pulse)

    def test_nan_member_names_its_window(self, pi_pulse, monkeypatch):
        bad = 20e-9
        gated = cm.EnvelopeModulator.__call__

        def nan_for_bad_window(self, t):
            if self.schedule.events and self.schedule.events[0][0] == T_G / 2 - bad / 2:
                return np.full_like(t, math.nan)
            return gated(self, t)

        monkeypatch.setattr(cm.EnvelopeModulator, "__call__", nan_for_bad_window)
        with pytest.raises(IntegrationError, match=rf"^window {bad!r} s: trace drifted to nan"):
            qs.tdm_sweep([10e-9, bad, 30e-9], self.MUX, pi_pulse)


class TestSynthTraces:
    TRUTH = CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=35e-6)

    def test_t1_trace_endpoints(self):
        times = np.array([0.0, 30e-6])
        y = qs.synth_decay_trace("t1", self.TRUTH, times=times)
        assert y[0] == 1.0
        assert y[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_ramsey_period(self):
        times = np.linspace(0, 8e-6, 4001)
        y = qs.synth_decay_trace("ramsey", self.TRUTH, detuning=0.5e6, times=times)
        # 0.5 MHz beats: maxima 2 us apart
        maxima = times[1:-1][(y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])]
        assert np.allclose(np.diff(maxima), 2e-6, atol=2e-8)

    def test_echo_midpoint(self):
        y = qs.synth_decay_trace("echo", self.TRUTH, times=np.array([1e-9, 35e-6]))
        assert y[1] == pytest.approx(0.5 * (1 + math.exp(-1.0)), rel=1e-9)

    def test_noise_is_seeded(self):
        times = np.linspace(0, 1e-4, 64)
        a = qs.synth_decay_trace("t1", self.TRUTH, times=times, noise_sigma=0.01, seed=9)
        b = qs.synth_decay_trace("t1", self.TRUTH, times=times, noise_sigma=0.01, seed=9)
        assert np.array_equal(a, b)

    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            qs.synth_decay_trace("t1", self.TRUTH, times=[1e-6, 1e-6])


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
