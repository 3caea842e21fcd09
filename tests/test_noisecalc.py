"""Closed-form noise calculus: frozen anchors and algebraic round-trips.

Expected values are recomputed here with standalone formulas (own constants,
separate code path) before being asserted against the package.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from cryomux import noisecalc
from cryomux.errors import SingularityError

H = 6.62607015e-34
KB = 1.380649e-23
HBAR = H / (2 * math.pi)

DEVICE = noisecalc.TransmonParams.default()

# independent evaluation of the shot-noise conversion factor
_KAPPA = 2 * math.pi * 0.697e6
_CHI = 2 * math.pi * 0.259e6
N_PER_GAMMA = (_KAPPA**2 + 4 * _CHI**2) / (4 * _CHI**2 * _KAPPA)

GAMMA_EXCESS = 1 / 25e-6 - 1 / 35e-6  # on-state vs baseline echo rates


class TestShotNoiseOccupancy:
    def test_zero_rate_gives_zero_photons(self):
        assert noisecalc.occupancy_from_dephasing(0.0, DEVICE) == 0.0

    def test_linearity_in_rate(self):
        n1 = noisecalc.occupancy_from_dephasing(GAMMA_EXCESS, DEVICE)
        n2 = noisecalc.occupancy_from_dephasing(2 * GAMMA_EXCESS, DEVICE)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_resonator_occupancy_from_echo_contrast(self):
        n = noisecalc.occupancy_from_dephasing(GAMMA_EXCESS, DEVICE)
        assert n == pytest.approx(GAMMA_EXCESS * N_PER_GAMMA, rel=1e-12)
        assert n == pytest.approx(7.33e-3, rel=0.01)

    def test_inverse_value(self):
        gamma = noisecalc.dephasing_from_occupancy(7.3e-3, DEVICE)
        assert gamma == pytest.approx(7.3e-3 / N_PER_GAMMA, rel=1e-12)
        assert gamma == pytest.approx(1.14e4, rel=0.01)

    def test_roundtrip_exact(self):
        gamma = 12345.6789
        n = noisecalc.occupancy_from_dephasing(gamma, DEVICE)
        assert noisecalc.dephasing_from_occupancy(n, DEVICE) == pytest.approx(
            gamma, rel=1e-12
        )

    def test_zero_dispersive_shift_is_singular(self):
        broken = noisecalc.TransmonParams(
            omega_q=DEVICE.omega_q,
            omega_r=DEVICE.omega_r,
            kappa_r=DEVICE.kappa_r,
            chi=0.0,
            alpha=DEVICE.alpha,
            g=DEVICE.g,
        )
        with pytest.raises(SingularityError):
            noisecalc.occupancy_from_dephasing(1.0, broken)
        with pytest.raises(SingularityError):
            noisecalc.dephasing_from_occupancy(1.0, broken)


class TestBoseEinstein:
    def test_analytic_point(self):
        # n = 1/(e - 1) at temperature hf/kB
        f = 6.471e9
        n = 1 / (math.e - 1)
        assert noisecalc.occupancy_to_temperature(n, f) == pytest.approx(
            H * f / KB, rel=1e-12
        )

    def test_multiplexer_static_temperature(self):
        t = noisecalc.occupancy_to_temperature(0.146, 6.471e9)
        assert t == pytest.approx(0.150, abs=0.015)

    def test_multiplexer_dynamic_temperature(self):
        t = noisecalc.occupancy_to_temperature(1.10, 6.471e9)
        assert t == pytest.approx(0.500, rel=0.10)

    def test_zero_maps_both_ways(self):
        assert noisecalc.temperature_to_occupancy(0.0, 1e9) == 0.0
        assert noisecalc.occupancy_to_temperature(0.0, 1e9) == 0.0

    @settings(max_examples=60, derandomize=True)
    @given(
        n=st.floats(min_value=1e-6, max_value=10.0),
        f=st.floats(min_value=1e8, max_value=2e10),
    )
    def test_roundtrip_property(self, n, f):
        t = noisecalc.occupancy_to_temperature(n, f)
        assert noisecalc.temperature_to_occupancy(t, f) == pytest.approx(n, rel=1e-10)


class TestAttenuation:
    def test_zero_db_is_identity(self):
        assert noisecalc.propagate_attenuation(0.37, 0.0, "toward_qubit") == 0.37

    def test_thirteen_db_toward_qubit(self):
        n = noisecalc.propagate_attenuation(0.146, 13.0, "toward_qubit")
        assert n == pytest.approx(0.146 * 10 ** (-1.3), rel=1e-12)
        assert n == pytest.approx(7.3e-3, rel=0.01)

    def test_twenty_db_projection_exceeds_400us(self):
        n_mux = noisecalc.occupancy_from_dephasing(GAMMA_EXCESS, DEVICE) * 10**1.3
        n_res = noisecalc.propagate_attenuation(n_mux, 20.0, "toward_qubit")
        assert n_res == pytest.approx(1.46e-3, rel=0.01)
        t2 = 1.0 / noisecalc.dephasing_from_occupancy(n_res, DEVICE)
        assert t2 > 400e-6

    @settings(max_examples=60, derandomize=True)
    @given(
        n=st.floats(min_value=1e-9, max_value=100.0),
        db=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_direction_roundtrip(self, n, db):
        out = noisecalc.propagate_attenuation(
            noisecalc.propagate_attenuation(n, db, "toward_source"), db, "toward_qubit"
        )
        assert out == pytest.approx(n, rel=1e-12)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            noisecalc.propagate_attenuation(1.0, 3.0, "sideways")


class TestT1Limit:
    COUPLING = noisecalc.DriveCoupling(c_d=0.1e-15, c_q=110e-15, r_m=5.0, t_eff=7.0)
    OMEGA_Q = 2 * math.pi * 3.957e9

    def _independent_t1(self, attenuation_db=0.0):
        svv = 4 * 5.0 * HBAR * self.OMEGA_Q / math.expm1(HBAR * self.OMEGA_Q / (KB * 7.0))
        svv *= 10 ** (-attenuation_db / 10)
        a_d = math.sqrt(HBAR * 110e-15 * self.OMEGA_Q / 2) * 0.1e-15 / (110.1e-15)
        return HBAR**2 / (a_d**2 * svv)

    def test_charge_line_example(self):
        t1 = noisecalc.t1_limit(self.COUPLING, self.OMEGA_Q)
        assert t1 == pytest.approx(self._independent_t1(), rel=1e-10)
        assert t1 == pytest.approx(50e-6, rel=0.05)

    def test_with_attenuation(self):
        t1 = noisecalc.t1_limit(self.COUPLING, self.OMEGA_Q, attenuation_db=20.0)
        assert t1 == pytest.approx(100 * noisecalc.t1_limit(self.COUPLING, self.OMEGA_Q))
        assert t1 >= 4.5e-3

    def test_decoupled_limit(self):
        base = noisecalc.t1_limit(self.COUPLING, self.OMEGA_Q)
        weaker = noisecalc.DriveCoupling(c_d=0.01e-15, c_q=110e-15, r_m=5.0, t_eff=7.0)
        # t1 scales as 1/c_d^2 (up to the tiny c_d/(c_d+c_q) shift)
        assert noisecalc.t1_limit(weaker, self.OMEGA_Q) > 90 * base

    def test_cold_source_returns_infinity(self):
        cold = noisecalc.DriveCoupling(c_d=0.1e-15, c_q=110e-15, r_m=5.0, t_eff=0.0)
        assert math.isinf(noisecalc.t1_limit(cold, self.OMEGA_Q))

    def test_noise_psd_vanishes_at_zero_temperature(self):
        omega = self.OMEGA_Q
        values = [
            noisecalc.voltage_noise_psd(omega, 5.0, t) for t in (7.0, 1.0, 0.1, 0.01)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_t1_increases_as_source_cools(self):
        t1s = [
            noisecalc.t1_limit(
                noisecalc.DriveCoupling(0.1e-15, 110e-15, 5.0, t), self.OMEGA_Q
            )
            for t in (7.0, 4.0, 1.0, 0.3)
        ]
        assert all(b > a for a, b in zip(t1s, t1s[1:]))


class TestSwitchingDephasing:
    def test_zero_rate(self):
        assert noisecalc.dephasing_vs_switching(0.0, 40000.0) == 40000.0

    def test_megahertz_switching(self):
        gamma = noisecalc.dephasing_vs_switching(1e6, 1 / 25e-6)
        assert gamma == pytest.approx(128660.0, rel=1e-3)
        assert 1 / gamma == pytest.approx(7.8e-6, rel=0.01)

    def test_zero_slope(self):
        assert noisecalc.dephasing_vs_switching(5e6, 123.0, slope=0.0) == 123.0

    def test_dynamic_projection_exceeds_50us(self):
        gamma_total = noisecalc.dephasing_vs_switching(1e6, 1 / 25e-6)
        gamma_excess = gamma_total - 1 / 35e-6
        n_mux = noisecalc.occupancy_from_dephasing(gamma_excess, DEVICE) * 10**1.3
        n_proj = noisecalc.propagate_attenuation(n_mux, 20.0, "toward_qubit")
        t2 = 1.0 / noisecalc.dephasing_from_occupancy(n_proj, DEVICE)
        assert t2 > 50e-6


class TestRecords:
    def test_coherence_record_physicality(self):
        with pytest.raises(ValueError):
            noisecalc.CoherenceRecord(t1=10e-6, t2_star=25e-6, t2_echo=10e-6)

    def test_transmon_params_hz_conversion(self):
        assert DEVICE.kappa_r == pytest.approx(2 * math.pi * 0.697e6)
        assert DEVICE.chi == pytest.approx(-2 * math.pi * 0.259e6)
        with pytest.raises(ValueError):
            noisecalc.TransmonParams(omega_q=-1.0, omega_r=1.0, kappa_r=1.0, chi=1.0, alpha=1.0, g=1.0)
