"""Error of the shipped integration defaults against a finer reference.

Every default below integrates with RK4 at dt = t_g/2000; the reference
repeats it at dt = t_g/8000, whose own error is 256 times smaller. Each
bound sits above the distance measured when it was set, which is written
beside it, so a change that makes the defaults less accurate fails here.
"""
import dataclasses

import numpy as np
import pytest

from test_qubitsim import T_G, gated_batch

from cryomux import chainmodel as cm
from cryomux import qubitsim as qs
from cryomux import rbengine
from cryomux.noisecalc import CoherenceRecord

FINE_DT = T_G / 8000
# 12.345 ns splits the grid into ragged segments; 40 ns opens the whole pulse
WINDOWS = [12.345e-9, 24e-9, T_G]


@pytest.mark.parametrize(
    "levels, shape, rise_time, route, bound",
    [
        # measured: 6.2e-13 (the 40 ns window), 5.3e-13 at 12.345 ns, whose
        # edges split lattice steps; 6.3e-13 on the stepped route
        (2, "cosine", 0.0, "_evolve_piecewise", 1e-12),
        # measured: 7.3e-10 (the 12.345 ns window); its p_e moves by 2.3e-12
        (3, "cosine_drag", 2.6e-9, "_evolve_batch", 2e-9),
    ],
    ids=["fig4b_tdm", "fig4b_tdm_3level"],
)
def test_tdm_sweep_states(levels, shape, rise_time, route, bound):
    """Final density matrices of the fig4b_tdm sweep and its 3-level
    config, largest entry distance over the windows, each on the route
    tdm_sweep takes at its rise time."""
    config = qs.SimConfig(levels=levels)
    pulse = qs.calibrate_pi_pulse(T_G, shape, config)
    mux = cm.MuxModel(isolation_db=30.0, rise_time=rise_time)
    modulator, breakpoints = gated_batch(mux, WINDOWS)
    ground = qs.QubitState.ground(levels).density_matrix
    rho0 = np.broadcast_to(ground, (len(WINDOWS), levels, levels))

    def finals(cfg):
        states = getattr(qs, route)(rho0, pulse, cfg, modulator, breakpoints, [""] * len(WINDOWS))
        return np.array([state.density_matrix for state in states])

    reference = finals(dataclasses.replace(config, dt=FINE_DT))
    assert np.max(np.abs(finals(config) - reference)) <= bound


def test_rb_generator_channels():
    """The 7 generator channels of fig4a_rb at its shortest T2* (6 us, the
    strongest dephasing), each a product of step propagators."""
    pulse = qs.calibrate_pi_pulse(T_G, "cosine")
    config = qs.SimConfig.from_coherence(CoherenceRecord(t1=30e-6, t2_star=6e-6, t2_echo=6e-6))
    channels = rbengine.generator_channels(pulse, config)
    reference = rbengine.generator_channels(pulse, dataclasses.replace(config, dt=FINE_DT))
    assert channels.keys() == reference.keys() and len(channels) == 7
    distance = max(np.max(np.abs(channels[name] - reference[name])) for name in channels)
    # measured: 6.2e-13 (X180 and Y180)
    assert distance <= 1e-12
