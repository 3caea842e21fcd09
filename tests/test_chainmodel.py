"""Multiplexer gating envelope, power, capacity and config models."""
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryomux import chainmodel as cm
from cryomux.errors import ConfigError


class TestStaticPower:
    def test_below_threshold_is_leakage_only(self):
        mux = cm.MuxModel()
        assert mux.static_power(0.5) == 0.0
        assert cm.MuxModel(subthreshold_leak=2e-9).static_power(0.5) == 2e-9

    def test_anchor_at_operating_point(self):
        assert cm.MuxModel().static_power(0.7) == pytest.approx(0.60e-6, rel=1e-12)

    def test_esd_share_is_60_percent(self):
        mux = cm.MuxModel()
        share = mux.esd_static / mux.static_power(0.7)
        assert share == pytest.approx(0.37 / 0.60, rel=1e-9)

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            cm.MuxModel().static_power(-0.1)

    def test_monotone_above_threshold(self):
        mux = cm.MuxModel()
        grid = np.linspace(mux.v_threshold, 1.2, 50)
        powers = [mux.static_power(float(v)) for v in grid]
        assert all(b >= a for a, b in zip(powers, powers[1:]))


class TestDynamicPower:
    def test_operating_point(self):
        p = cm.MuxModel().dynamic_power(1e6, 0.7)
        assert p == pytest.approx(0.49e-6, abs=1e-9)

    def test_low_voltage_projection(self):
        assert cm.MuxModel().dynamic_power(1e6, 0.3) == pytest.approx(90e-9, rel=1e-12)

    @settings(max_examples=40, derandomize=True)
    @given(
        rate=st.floats(min_value=1.0, max_value=1e8),
        v=st.floats(min_value=0.1, max_value=1.2),
    )
    def test_linear_in_rate_quadratic_in_voltage(self, rate, v):
        mux = cm.MuxModel()
        assert mux.dynamic_power(2 * rate, v) == pytest.approx(
            2 * mux.dynamic_power(rate, v), rel=1e-12
        )
        assert mux.dynamic_power(rate, 2 * v) == pytest.approx(
            4 * mux.dynamic_power(rate, v), rel=1e-12
        )


class TestGatingEnvelope:
    MUX = cm.MuxModel(isolation_db=30.0, rise_time=0.0)

    def test_open_window_is_unity(self):
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF1"), (30e-9, "RF2")])
        assert cm.EnvelopeModulator([sched], "RF1", 0.0)(20e-9) == 1.0

    def test_never_selected_sits_at_floor(self):
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF2")])
        value = cm.EnvelopeModulator([sched], "RF4", 0.0)(50e-9)
        assert value == pytest.approx(10 ** (-30 / 20), rel=1e-12)
        assert value == pytest.approx(0.0316, rel=1e-2)

    def test_first_order_transition_at_one_time_constant(self):
        rise = 2.6e-9
        tau = rise / math.log(9.0)
        sched = cm.GatingSchedule.from_mux(self.MUX, [(0.0, "RF1")])
        floor = sched.floor_amplitude
        expected = floor + (1 - floor) * (1 - math.exp(-1.0))
        assert cm.EnvelopeModulator([sched], "RF1", rise)(tau) == pytest.approx(
            expected, rel=1e-12
        )

    def test_ten_ninety_rise_time_definition(self):
        rise = 2.6e-9
        sched = cm.GatingSchedule(events=((0.0, "RF1"),), floor_amplitude=1e-6)
        t10 = rise * math.log(10 / 9) / math.log(9)
        modulator = cm.EnvelopeModulator([sched], "RF1", rise)
        y10 = modulator(t10)
        y90 = modulator(t10 + rise)
        assert y10 == pytest.approx(0.1, abs=1e-5)
        assert y90 == pytest.approx(0.9, abs=1e-5)

    @settings(max_examples=60, derandomize=True)
    @given(
        t=st.floats(min_value=-20e-9, max_value=100e-9),
        rise=st.sampled_from([0.0, 0.4e-9, 2.6e-9]),
    )
    def test_bounds_property(self, t, rise):
        sched = cm.GatingSchedule.from_mux(
            self.MUX, [(0.0, "RF2"), (10e-9, "RF1"), (30e-9, "RF2"), (55e-9, "RF1")]
        )
        value = cm.EnvelopeModulator([sched], "RF1", rise)(t)
        assert sched.floor_amplitude - 1e-12 <= value <= 1.0 + 1e-12

    def test_continuity_with_finite_rise(self):
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF1"), (30e-9, "RF2")])
        ts = np.linspace(0, 60e-9, 6001)
        values = cm.EnvelopeModulator([sched], "RF1", 2.6e-9)(ts)
        assert np.max(np.abs(np.diff(values))) < 0.01

    def test_step_when_rise_time_zero(self):
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF1")])
        modulator = cm.EnvelopeModulator([sched], "RF1", 0.0)
        assert modulator(10e-9 - 1e-15) < 0.04
        assert modulator(10e-9) == 1.0

    def test_events_must_increase(self):
        with pytest.raises(ConfigError):
            cm.GatingSchedule(events=((2e-9, "RF1"), (1e-9, "RF2")), floor_amplitude=0.03)

    def test_floor_matches_isolation(self):
        sched = cm.GatingSchedule.from_mux(cm.MuxModel(isolation_db=35.0), [])
        assert sched.floor_amplitude == pytest.approx(10 ** (-35 / 20), rel=1e-12)


class TestEnvelopeModulator:
    MUX = cm.MuxModel(isolation_db=30.0)
    # 0, 1 and 2 events; a window wider than the 40 ns pulse puts both of
    # its events outside (0, t_g)
    EVENTS = [
        (),
        ((15e-9, "RF1"),),
        ((10e-9, "RF1"), (30e-9, "RF2")),
        ((-10e-9, "RF1"), (50e-9, "RF2")),
        ((5e-9, "RF2"), (25e-9, "RF1")),
    ]

    @pytest.mark.parametrize("rise_time", [0.0, 2.6e-9])
    def test_each_member_matches_its_schedule_alone(self, rise_time):
        """Every member of one stacked modulator gives the same bits as the
        one-schedule modulator of its schedule alone, at each event time
        and one ulp before it; no padded knot is evaluated, so no warning is
        raised."""
        schedules = [cm.GatingSchedule.from_mux(self.MUX, events) for events in self.EVENTS]
        event_times = np.array(sorted({t for events in self.EVENTS for t, _ in events}))
        times = np.concatenate(
            [np.linspace(-20e-9, 60e-9, 401), event_times, np.nextafter(event_times, -np.inf)]
        )
        # each member sees the times in its own order: (time, stage, member)
        rng = np.random.default_rng(0)
        t = rng.permuted(np.tile(times[:, None, None], (1, 3, len(schedules))), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modulator = cm.EnvelopeModulator(schedules, "RF1", rise_time)
            stacked = modulator(t)
            alone = [
                cm.EnvelopeModulator([s], "RF1", rise_time)(t[..., b])
                for b, s in enumerate(schedules)
            ]
        assert stacked.shape == t.shape
        for b, values in enumerate(alone):
            assert np.array_equal(stacked[..., b], values)

    def test_one_schedule_is_elementwise(self):
        """A one-schedule modulator called on times of any shape gives the
        bits of the same times as a trailing member axis of one."""
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF1"), (30e-9, "RF2")])
        t = np.linspace(0.0, 40e-9, 12).reshape(4, 3)
        modulator = cm.EnvelopeModulator([sched], "RF1", 2.6e-9)
        assert np.array_equal(modulator(t), modulator(t[..., None])[..., 0])

    @pytest.mark.parametrize(
        "port, rise_time", [("RF5", 0.0), ("rf1", 2.6e-9), ("RF1", -1e-9), ("RF1", math.nan)]
    )
    def test_rejected_when_built(self, port, rise_time):
        """An unknown port or a negative (or NaN) rise time fails when the
        modulator is built, before any integration calls it, for one
        schedule or several."""
        sched = cm.GatingSchedule.from_mux(self.MUX, [(10e-9, "RF1")])
        with pytest.raises(ConfigError):
            cm.EnvelopeModulator([sched], port, rise_time)
        with pytest.raises(ConfigError):
            cm.EnvelopeModulator([sched, sched], port, rise_time)


class TestCoolingBudget:
    def test_nominal_capacity(self):
        assert cm.qubit_capacity(cm.CoolingBudget(20e-6, 0.2e-6)) == 100

    def test_low_voltage_capacity(self):
        assert cm.qubit_capacity(cm.CoolingBudget(20e-6, 25e-9)) == 800

    def test_inverse_query_for_a_million(self):
        per = cm.per_channel_budget(20e-6, 10**6)
        assert per == pytest.approx(20e-12, rel=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(
        cooling=st.floats(min_value=1e-9, max_value=1e-3),
        per=st.floats(min_value=1e-12, max_value=1e-5),
    )
    def test_capacity_never_exceeds_budget(self, cooling, per):
        count = cm.qubit_capacity(cm.CoolingBudget(cooling, per))
        assert count * per <= cooling * (1 + 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            cm.CoolingBudget(0.0, 1e-9)


class TestMuxModelConfig:
    # static_coeff, esd_static and subthreshold_leak have no range check of
    # their own: a NaN there made static_power return NaN
    @pytest.mark.parametrize(
        "name",
        [
            "v_threshold", "isolation_db", "rise_time", "static_coeff", "esd_static",
            "subthreshold_leak", "dyn_coeff",
        ],
    )
    def test_nan_field_rejected(self, name):
        with pytest.raises(ConfigError):
            cm.MuxModel(**{name: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(field.name for field in fields(cm.MuxModel)))
    def test_infinite_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            cm.MuxModel(**{name: value})
