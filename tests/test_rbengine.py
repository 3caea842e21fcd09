"""Clifford group verification, benchmarking runs and the fidelity model."""
import math

import numpy as np
import pytest

from cryomux import qubitsim as qs
from cryomux import rbengine as rb
from cryomux.errors import ConfigError, FitError
from cryomux.noisecalc import CoherenceRecord

T_G = 40e-9


@pytest.fixture(scope="module")
def table():
    return rb.build_clifford_table()


@pytest.fixture(scope="module")
def pi_pulse():
    return qs.calibrate_pi_pulse(T_G, "cosine")


def _phase_distance(u, v):
    overlap = abs(np.trace(u.conj().T @ v)) / 2.0
    return 1.0 - overlap


class TestCliffordTable:
    def test_has_24_distinct_elements(self, table):
        assert len(table.unitaries) == len(rb.CLIFFORD_DECOMPOSITIONS) == 24
        keys = {rb._phase_key(u) for u in table.unitaries}
        assert len(keys) == 24

    def test_elements_are_unitary(self, table):
        for u in table.unitaries:
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_identity_is_element_zero(self, table):
        assert _phase_distance(table.unitaries[0], np.eye(2)) < 1e-12
        assert rb.CLIFFORD_DECOMPOSITIONS[0] == ("I",)

    def test_group_closure(self, table):
        for i in range(24):
            for j in range(24):
                k = table.composition[i, j]
                expected = table.unitaries[j] @ table.unitaries[i]
                assert _phase_distance(table.unitaries[k], expected) < 1e-12

    def test_every_element_has_inverse(self, table):
        for i, inv in enumerate(table.inverses):
            assert table.composition[i, inv] == 0
            assert _phase_distance(table.unitaries[inv] @ table.unitaries[i], np.eye(2)) < 1e-12

    @pytest.mark.parametrize("m", [1, 37, 1000])
    def test_pairwise_products_equal_the_left_fold(self, table, m):
        draws = np.random.default_rng(m).integers(0, 24, size=(16, m), dtype=np.int8)
        net = np.zeros(16, dtype=np.int8)  # the identity
        for step in draws.T:
            net = table.composition[net, step]
        assert np.array_equal(rb._products(table.composition, draws), net)

    def test_mean_generator_count(self):
        assert rb.MEAN_GENERATOR_COUNT == pytest.approx(1.875, abs=1e-12)
        assert sum(len(d) for d in rb.CLIFFORD_DECOMPOSITIONS) == 45

    def test_decompositions_match_unitaries(self, table):
        for seq, u in zip(rb.CLIFFORD_DECOMPOSITIONS, table.unitaries):
            assert _phase_distance(rb.sequence_unitary(seq, rb.GENERATOR_UNITARIES), u) < 1e-12

    def test_generator_unitaries_match_textbook_matrices(self):
        s = 1.0 / math.sqrt(2.0)
        textbook = {
            "I": np.eye(2),
            "X90": s * np.array([[1, -1j], [-1j, 1]]),
            "X90m": s * np.array([[1, 1j], [1j, 1]]),
            "Y90": s * np.array([[1, -1], [1, 1]]),
            "Y90m": s * np.array([[1, 1], [-1, 1]]),
            "X180": np.array([[0, -1j], [-1j, 0]]),
            "Y180": np.array([[0, -1], [1, 0]]),
        }
        assert list(rb.GENERATOR_UNITARIES) == list(textbook)
        for name, u in textbook.items():
            assert np.max(np.abs(rb.GENERATOR_UNITARIES[name] - u)) <= 1e-15, name


def _recovery(table, sequence):
    """Index of the Clifford that returns the ideal product of `sequence` to
    the identity, found by phase distance rather than the composition table."""
    u = np.eye(2, dtype=complex)
    for idx in sequence:
        u = table.unitaries[idx] @ u
    return min(range(24), key=lambda k: _phase_distance(table.unitaries[k] @ u, np.eye(2)))


class TestSequences:
    def test_minimal_sequence_composes_to_identity(self, pi_pulse):
        # one Clifford plus its recovery, noise free, returns every repeat
        # to the ground state
        lengths, (survival,) = rb.run_rb([1], 8, [None], pi_pulse, seed=5)
        assert np.array_equal(lengths, [1.0])
        assert survival[0] >= 1 - 1e-9

    def test_seeded_reproducibility(self, pi_pulse):
        noise = CoherenceRecord(t1=20e-6, t2_star=5e-6, t2_echo=5e-6)
        first = rb.run_rb([3, 30], 4, [noise], pi_pulse, seed=123)[1]
        assert np.array_equal(first, rb.run_rb([3, 30], 4, [noise], pi_pulse, seed=123)[1])
        assert not np.array_equal(first, rb.run_rb([3, 30], 4, [noise], pi_pulse, seed=124)[1])

    @pytest.mark.parametrize("m", [3, 10, 40])
    def test_recovery_inverts_any_sequence(self, pi_pulse, m):
        # a survival of at most 1 per repeat averages to 1 only if every
        # repeat's recovery inverts its sequence
        _, (survival,) = rb.run_rb([m], 8, [None], pi_pulse, seed=m)
        assert survival[0] >= 1 - 1e-9

    @pytest.mark.parametrize("lengths", [[0, 2], [-1, 2], [0]])
    def test_lengths_below_one_rejected(self, pi_pulse, lengths):
        with pytest.raises(ConfigError):
            rb.run_rb(lengths, 2, [None], pi_pulse)

    def test_empty_lengths_give_an_empty_curve(self, pi_pulse):
        lengths, (survival,) = rb.run_rb([], 2, [None], pi_pulse)
        assert lengths.shape == survival.shape == (0,)

    def test_noise_free_execution_returns_to_ground(self, pi_pulse):
        lengths, (survival,) = rb.run_rb([1, 5, 20], 4, [None], pi_pulse, seed=11)
        assert np.all(survival >= 1 - 1e-9)


class TestRunRb:
    NOISE = CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=25e-6)

    def test_fidelity_above_999_at_nominal_coherence(self, pi_pulse):
        lengths, (survival,) = rb.run_rb(
            [2, 4, 8, 16, 32, 64, 128, 256, 400], 20, [self.NOISE], pi_pulse, seed=7
        )
        result = rb.fit_rb(lengths, survival)
        assert result.f_1q > 0.999
        assert 0.0 < result.p <= 1.0

    def test_halving_t2_lowers_decay_parameter(self, pi_pulse):
        lengths = [2, 8, 32, 128, 400]
        strong = CoherenceRecord(t1=1e6, t2_star=20e-6, t2_echo=20e-6)
        weak = CoherenceRecord(t1=1e6, t2_star=10e-6, t2_echo=10e-6)
        _, (surv_strong,) = rb.run_rb(lengths, 10, [strong], pi_pulse, seed=3)
        _, (surv_weak,) = rb.run_rb(lengths, 10, [weak], pi_pulse, seed=3)
        p_strong = rb.fit_rb(lengths, surv_strong).p
        p_weak = rb.fit_rb(lengths, surv_weak).p
        assert p_weak < p_strong

    def test_batched_run_matches_gate_by_gate_reference(self, pi_pulse):
        # each sequence applied one generator channel at a time to rho_0,
        # with the same spawned stream per (length, repeat)
        lengths, repeats, seed = [1, 5, 20, 64], 6, 9
        noise = CoherenceRecord(t1=20e-6, t2_star=5e-6, t2_echo=5e-6)
        table = rb.build_clifford_table()
        channels = rb.generator_channels(pi_pulse, qs.SimConfig.from_coherence(noise))
        streams = np.random.SeedSequence(seed).spawn(len(lengths) * repeats)
        expected = np.empty((len(lengths), repeats))
        for i, m in enumerate(lengths):
            for j in range(repeats):
                sequence = np.random.default_rng(streams[i * repeats + j]).integers(0, 24, size=m)
                v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
                for idx in [*sequence, _recovery(table, sequence)]:
                    for gate in rb.CLIFFORD_DECOMPOSITIONS[idx]:
                        v = channels[gate] @ v
                expected[i, j] = v[0].real
        ls, (survival,) = rb.run_rb(lengths, repeats, [noise], pi_pulse, seed=seed)
        assert np.array_equal(ls, lengths)
        assert np.max(np.abs(survival - expected.mean(axis=1))) <= 1e-12
        assert survival[-1] < 0.99  # the noise is visible at the longest length

    def test_each_noise_row_equals_a_one_noise_call(self, pi_pulse):
        # noise i draws from seed + i, so its row depends on no other noise
        lengths, repeats, seed = [1, 5, 20], 4, 31
        noises = [
            CoherenceRecord(t1=20e-6, t2_star=5e-6, t2_echo=5e-6),
            CoherenceRecord(t1=20e-6, t2_star=10e-6, t2_echo=10e-6),
        ]
        ls, survivals = rb.run_rb(lengths, repeats, noises, pi_pulse, seed=seed)
        assert survivals.shape == (2, 3)
        assert not np.array_equal(survivals[0], survivals[1])
        for i, noise in enumerate(noises):
            one_ls, (one,) = rb.run_rb(lengths, repeats, [noise], pi_pulse, seed=seed + i)
            assert np.array_equal(one_ls, ls)
            assert np.array_equal(survivals[i], one)

    def test_no_noises_give_no_rows(self, pi_pulse):
        lengths, survivals = rb.run_rb([2, 4, 8], 3, [], pi_pulse)
        assert np.array_equal(lengths, [2.0, 4.0, 8.0])
        assert survivals.shape == (0, 3)

    def test_lengths_must_increase(self, pi_pulse):
        with pytest.raises(ValueError):
            rb.run_rb([4, 2], 2, [None], pi_pulse)

    def test_simulation_matches_white_noise_model(self, pi_pulse):
        # pure-dephasing channels are Markovian: the coherence model with
        # k1 = t_g/3 must agree with the simulation within the fit error,
        # pooled over 5 seeds
        t2 = 10e-6
        noise = CoherenceRecord(t1=1e6, t2_star=t2, t2_echo=t2)
        predicted = rb.coherence_limited_fidelity(T_G, 1e6, t2, 2e6, k1=T_G / 3.0)
        fitted, errors = [], []
        for seed in range(5):
            lengths, (survival,) = rb.run_rb(
                [2, 4, 8, 16, 32, 64, 128, 256, 400], 20, [noise], pi_pulse, seed=seed
            )
            result = rb.fit_rb(lengths, survival)
            fitted.append(result.f_1q)
            errors.append(result.f_1q_stderr)
        assert abs(np.mean(fitted) - predicted) <= np.mean(errors)


class TestFitRb:
    def test_error_per_clifford_arithmetic(self):
        m = np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], dtype=float)
        y = 0.5 * 0.999**m + 0.5
        result = rb.fit_rb(m, y)
        assert result.p == pytest.approx(0.999, abs=1e-7)
        assert result.r_clifford == pytest.approx(5e-4, rel=1e-4)
        assert result.r_g == pytest.approx(2.667e-4, rel=1e-3)
        assert result.f_1q == pytest.approx(0.99973, abs=1e-5)

    def test_result_invariants(self):
        m = np.array([1, 5, 20, 80, 300], dtype=float)
        y = 0.48 * 0.995**m + 0.51
        result = rb.fit_rb(m, y)
        assert result.f_1q == pytest.approx(1.0 - result.r_g, rel=1e-12)
        assert result.r_g == pytest.approx(result.r_clifford / 1.875, rel=1e-12)
        assert result.r_clifford == pytest.approx((1 - result.p) / 2, rel=1e-12)

    def test_perfect_decay_parameter_gives_unit_fidelity(self):
        r_clifford, r_g, f_1q = rb.error_rates_from_decay(1.0)
        assert r_clifford == 0.0
        assert r_g == 0.0
        assert f_1q == 1.0

    def test_decay_outside_unit_interval_rejected(self):
        with pytest.raises(FitError):
            rb.error_rates_from_decay(1.2)
        with pytest.raises(FitError):
            rb.error_rates_from_decay(0.0)

    def test_noisy_recovery_within_confidence(self):
        # additive gaussian noise sigma = 0.005: recovered p within 3x the
        # propagated standard error (seeded)
        m = np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], dtype=float)
        rng = np.random.default_rng(17)
        truth_p = 0.997
        failures = 0
        for _ in range(10):
            y = 0.5 * truth_p**m + 0.5 + rng.normal(0, 0.005, m.size)
            result = rb.fit_rb(m, y)
            if abs(result.p - truth_p) > 3 * result.p_stderr:
                failures += 1
        assert failures <= 1

    def test_gibberish_data_raises(self):
        with pytest.raises(FitError):
            rb.fit_rb([1, 2, 3, 4, 5], [0.1, 0.9, 0.05, 0.95, 0.5])


class TestCoherenceLimitedFidelity:
    # the Lorentzian photon-shot-noise scale fitted for a 40 ns gate
    K1 = 0.433 * 40e-9 / 3

    def test_baseline_coherence_removes_mux_term(self):
        f = rb.coherence_limited_fidelity(40e-9, 30e-6, 25e-6, 25e-6, k1=self.K1)
        assert f == pytest.approx(1 - 40e-9 / (3 * 30e-6), rel=1e-12)

    def test_calibration_plateau(self):
        c0_extra = 0.9993 - 1 + 40e-9 / (3 * 30e-6)
        f = rb.coherence_limited_fidelity(
            40e-9, 30e-6, 25e-6, 25e-6, c0_extra=-c0_extra, k1=self.K1
        )
        # c0_extra tuned so the saturated fidelity sits at the plateau
        assert f == pytest.approx(0.9993, abs=1e-9)

    def test_added_dephasing_penalty(self):
        base = rb.coherence_limited_fidelity(40e-9, 30e-6, 40e-6, 40e-6, k1=self.K1)
        lowered = rb.coherence_limited_fidelity(40e-9, 30e-6, 10e-6, 40e-6, k1=self.K1)
        penalty = base - lowered
        assert penalty == pytest.approx(self.K1 * (1 / 10e-6 - 1 / 40e-6), rel=1e-9)
        assert penalty == pytest.approx(4.33e-4, rel=2e-3)

    def test_monotone_in_coherence_and_gate_time(self):
        f = [
            rb.coherence_limited_fidelity(40e-9, 30e-6, t2, 40e-6, k1=self.K1)
            for t2 in (40e-6, 30e-6, 20e-6, 10e-6, 5e-6)
        ]
        assert all(b <= a for a, b in zip(f, f[1:]))
        g = [
            rb.coherence_limited_fidelity(tg, 30e-6, 20e-6, 40e-6, k1=0.433 * tg / 3)
            for tg in (20e-9, 40e-9, 80e-9)
        ]
        assert all(b <= a for a, b in zip(g, g[1:]))

    def test_above_baseline_is_a_valid_limit(self):
        f = rb.coherence_limited_fidelity(40e-9, 30e-6, 50e-6, 40e-6, k1=self.K1)
        assert f == pytest.approx(1 - 40e-9 / (3 * 30e-6), rel=1e-12)


class TestGeneratorChannels:
    def test_channels_match_unitaries_when_noise_free(self, pi_pulse):
        channels = rb.generator_channels(pi_pulse, qs.SimConfig(levels=2))
        for name, u in rb.GENERATOR_UNITARIES.items():
            expected = np.kron(u, u.conj())
            assert np.max(np.abs(channels[name] - expected)) < 1e-9

    # bounds are 10x the gaps measured under the default, Haswell BLAS and
    # numpy AVX2 kernels, which agree to 1e-16: RK4's h^4 truncation at the
    # default step, rounding alone at t_g/8000
    @pytest.mark.parametrize(
        "name, dt, bound",
        [
            ("X180", None, 6.3e-12),
            ("X90", None, 2.0e-13),
            ("X180", T_G / 8000, 2.7e-14),
            ("X90", T_G / 8000, 3.9e-15),
        ],
    )
    def test_decay_free_channel_matches_its_unitary(self, pi_pulse, name, dt, bound):
        """X180 and X90 against U kron U*: measured 6.3e-13 and 2.0e-14 at
        the default step, 2.7e-15 and 3.9e-16 at t_g/8000."""
        channels = rb.generator_channels(pi_pulse, qs.SimConfig(levels=2, dt=dt))
        u = rb.GENERATOR_UNITARIES[name]
        gap = np.max(np.abs(channels[name] - np.kron(u, u.conj())))
        assert gap <= bound, f"gap {gap:.3g}"

    def test_identity_channel_decays(self, pi_pulse):
        config = qs.SimConfig(levels=2, t1=10e-6)
        channels = rb.generator_channels(pi_pulse, config)
        excited = np.zeros(4, dtype=complex)
        excited[3] = 1.0
        after = channels["I"] @ excited
        assert after[3].real == pytest.approx(math.exp(-T_G / 10e-6), rel=1e-9)

    def test_identity_channel_dephases(self, pi_pulse):
        """The idle's coherence rho_01 decays as exp(-t_g/T2), with
        1/T2 = 1/(2 T1) + 1/T_phi, and feeds no other entry."""
        t1, t_phi = 10e-6, 4e-6
        channels = rb.generator_channels(pi_pulse, qs.SimConfig(levels=2, t1=t1, t_phi=t_phi))
        coherence = np.zeros(4, dtype=complex)
        coherence[1] = 1.0  # vec of |0><1|
        after = channels["I"] @ coherence
        expected = math.exp(-T_G * (1.0 / (2.0 * t1) + 1.0 / t_phi))
        assert after[1].real == pytest.approx(expected, rel=1e-9)  # measured: 1.1e-16
        assert np.max(np.abs(np.delete(after, 1))) < 1e-15 and abs(after[1].imag) < 1e-15
