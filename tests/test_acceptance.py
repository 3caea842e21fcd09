"""Acceptance criteria, one test per criterion with a printed verdict line.

Each criterion pins its tolerance explicitly. Excluded by design (not
reproducible at desk scale): measured fridge heating, raw S-parameter
traces (only the isolation is modelled, as the gating leakage floor), and
quantitative quasiparticle densities (covered by round-trip fitting).
"""
import math
import time

import numpy as np

from decay_traces import synth_decay_trace

from cryomux import chainmodel, fitkit, noisecalc, qubitsim, rbengine
from cryomux.scenarios import run_scenario

T_G = 40e-9


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_effective_temperature_reconstruction():
    start = time.perf_counter()
    device = noisecalc.TransmonParams.default()
    gamma_excess = noisecalc.excess_rate(25e-6, 35e-6)
    n_res = noisecalc.occupancy_from_dephasing(gamma_excess, device)
    n_mux = noisecalc.propagate_attenuation(n_res, 13.0, "toward_source")
    t_mux = noisecalc.occupancy_to_temperature(n_mux, 6.471e9)
    elapsed = time.perf_counter() - start
    ok = (
        abs(n_mux - 0.15) <= 0.02
        and abs(t_mux - 0.150) <= 0.015
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        f"multiplexer occupancy {n_mux:.4f} (0.15 +- 0.02), "
        f"temperature {t_mux*1e3:.1f} mK (150 +- 15), {elapsed:.3f} s",
    )


def test_criterion_2_t1_limit_formula():
    start = time.perf_counter()
    coupling = noisecalc.DriveCoupling(c_d=0.1e-15, c_q=110e-15, r_m=5.0, t_eff=7.0)
    omega_q = 2 * math.pi * 3.957e9
    t1 = noisecalc.t1_limit(coupling, omega_q)
    t1_attenuated = noisecalc.t1_limit(coupling, omega_q, attenuation_db=20.0)
    elapsed = time.perf_counter() - start
    ok = abs(t1 - 50e-6) / 50e-6 <= 0.05 and t1_attenuated >= 4.5e-3 and elapsed < 1.0
    verdict(
        2,
        ok,
        f"t1 limit {t1*1e6:.2f} us (50 +- 5%), with 20 dB {t1_attenuated*1e3:.2f} ms "
        f"(>= 4.5 ms), {elapsed:.3f} s",
    )


def test_criterion_3_attenuation_projections():
    start = time.perf_counter()
    device = noisecalc.TransmonParams.default()
    # static: measured 13 dB occupancy referred to the multiplexer, then 20 dB total
    n_mux = noisecalc.propagate_attenuation(
        noisecalc.occupancy_from_dephasing(noisecalc.excess_rate(25e-6, 35e-6), device),
        13.0,
        "toward_source",
    )
    n_static = noisecalc.propagate_attenuation(n_mux, 20.0, "toward_qubit")
    t2_static = 1.0 / noisecalc.dephasing_from_occupancy(n_static, device)
    # dynamic: 1 MHz switching via the measured dephasing slope
    gamma_total = noisecalc.dephasing_vs_switching(1e6, 1 / 25e-6)
    gamma_excess = gamma_total - 1 / 35e-6
    n_mux_dyn = noisecalc.propagate_attenuation(
        noisecalc.occupancy_from_dephasing(gamma_excess, device), 13.0, "toward_source"
    )
    n_dyn = noisecalc.propagate_attenuation(n_mux_dyn, 20.0, "toward_qubit")
    t2_dyn = 1.0 / noisecalc.dephasing_from_occupancy(n_dyn, device)
    elapsed = time.perf_counter() - start
    ok = t2_static > 400e-6 and t2_dyn > 50e-6 and elapsed < 1.0
    verdict(
        3,
        ok,
        f"projected T2 at 20 dB: static {t2_static*1e6:.1f} us (> 400), "
        f"1 MHz switching {t2_dyn*1e6:.2f} us (> 50), {elapsed:.3f} s",
    )


def test_criterion_4_tdm_window_curve():
    start = time.perf_counter()
    mux = chainmodel.MuxModel(isolation_db=30.0, rise_time=0.0)
    pulse = qubitsim.calibrate_pi_pulse(T_G, "cosine")
    floor = mux.floor_amplitude()
    windows = np.linspace(0.0, 60e-9, 30)
    p_e = qubitsim.tdm_sweep(windows, mux, pulse)
    analytic = np.array(
        [
            math.sin(qubitsim.windowed_rabi_angle(float(w), T_G, floor) / 2.0) ** 2
            for w in windows
        ]
    )
    elapsed = time.perf_counter() - start

    in_pulse = windows <= T_G + 1e-15
    monotone = bool(np.all(np.diff(p_e[in_pulse]) >= -1e-12))
    worst = float(np.max(np.abs(p_e - analytic)))
    p30 = qubitsim.tdm_experiment(30e-9, mux, pulse)
    p40 = qubitsim.tdm_experiment(40e-9, mux, pulse)
    ok = (
        p_e[0] <= 3e-3
        and monotone
        and abs(p30 - p40) / p40 < 0.01
        and worst <= 1e-6
        and elapsed < 60.0
    )
    verdict(
        4,
        ok,
        f"p_e(0)={p_e[0]:.2e} (<= 3e-3), monotone={monotone}, "
        f"|p_e(30ns)-p_e(40ns)|/p_e(40ns)={abs(p30-p40)/p40:.2e} (< 1%), "
        f"max |sim-analytic|={worst:.2e} (<= 1e-6), {elapsed:.1f} s (< 60)",
    )


def test_criterion_5_rb_fidelity_regime():
    start = time.perf_counter()
    pulse = qubitsim.calibrate_pi_pulse(T_G, "cosine")
    lengths = [2, 4, 8, 16, 32, 64, 128, 256, 400]

    # fidelity above 99.9% at the nominal-operation coherence point
    noise = noisecalc.CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=25e-6)
    ls, (survival,) = rbengine.run_rb(lengths, 20, [noise], pulse, seed=7)
    fitted = rbengine.fit_rb(ls, survival)

    # the measured 99.93% plateau is a calibration artifact, substituted by
    # the coherence-model check: white (Markovian) dephasing means k1 = t_g/3
    t2 = 10e-6
    pure_t2 = noisecalc.CoherenceRecord(t1=1e6, t2_star=t2, t2_echo=t2)
    predicted = rbengine.coherence_limited_fidelity(T_G, 1e6, t2, 2e6, k1=T_G / 3.0)
    fidelities, errors = [], []
    for seed in range(5):
        ls5, (surv5,) = rbengine.run_rb(lengths, 20, [pure_t2], pulse, seed=seed)
        res = rbengine.fit_rb(ls5, surv5)
        fidelities.append(res.f_1q)
        errors.append(res.f_1q_stderr)
    model_gap = abs(float(np.mean(fidelities)) - predicted)
    model_tol = float(np.mean(errors))
    elapsed = time.perf_counter() - start

    ok = fitted.f_1q > 0.999 and model_gap <= model_tol and elapsed < 300.0
    verdict(
        5,
        ok,
        f"F_1q={fitted.f_1q:.5f} (> 0.999); model check over 5 seeds: "
        f"|mean - prediction|={model_gap:.2e} <= fit stderr {model_tol:.2e}; "
        f"{elapsed:.1f} s (< 300)",
    )


def test_criterion_6_power_model():
    mux = chainmodel.MuxModel()
    dynamic = mux.dynamic_power(1e6, 0.7)
    static = mux.static_power(0.7)
    share = mux.esd_static / static
    ok = (
        abs(dynamic - 0.49e-6) <= 1e-9
        and abs(static - 0.60e-6) <= 1e-18
        and abs(share - 0.37 / 0.60) <= 1e-9
    )
    verdict(
        6,
        ok,
        f"dynamic(1 MHz, 0.7 V)={dynamic*1e6:.4f} uW (0.49 +- 0.001), "
        f"static(0.7 V)={static*1e6:.4f} uW (anchored 0.60), "
        f"ESD share={share:.1%} (~60%)",
    )


def test_criterion_7_capacity_arithmetic():
    capacity = chainmodel.qubit_capacity(chainmodel.CoolingBudget(20e-6, 0.2e-6))
    per_channel = chainmodel.per_channel_budget(20e-6, 10**6)
    ok = capacity == 100 and abs(per_channel - 20e-12) <= 1e-18
    verdict(
        7,
        ok,
        f"capacity(20 uW, 0.2 uW)={capacity} (= 100), "
        f"per-channel for 1e6 qubits={per_channel*1e12:.3f} pW (= 20)",
    )


def test_criterion_8_property_suites(tmp_path):
    checks = []

    # density-matrix physicality along a noisy driven trajectory
    pulse = qubitsim.calibrate_pi_pulse(T_G, "cosine")
    config = qubitsim.SimConfig(levels=2, t1=30e-6, t_phi=20e-6)
    _, _, traj = qubitsim.evolve(
        qubitsim.QubitState.ground(2), pulse, config, return_trajectory=True
    )
    checks.append(
        (
            "state physicality",
            all(
                abs(np.trace(r).real - 1) < 1e-9
                and np.max(np.abs(r - r.conj().T)) < 1e-12
                and np.linalg.eigvalsh(r).min() > -1e-9
                for r in traj
            ),
        )
    )

    # Clifford group closure (a Latin square: every row and column of the
    # composition table is a permutation of the 24 elements) and the
    # generator average
    composition = rbengine.build_clifford_table().composition
    elements = list(range(24))
    closed = composition.shape == (24, 24) and all(
        sorted(composition[i]) == elements and sorted(composition[:, i]) == elements
        for i in elements
    )
    checks.append(
        ("clifford group", closed and rbengine.MEAN_GENERATOR_COUNT == 1.875)
    )

    # noiseless fit round-trips at 1e-6
    t = np.linspace(0, 120e-6, 200)
    truth = noisecalc.CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=35e-6)
    tau, _ = fitkit.fit_t1(t, synth_decay_trace("t1", truth, times=t))
    t2e, _ = fitkit.fit_echo(t, synth_decay_trace("echo", truth, times=t))
    tr = np.linspace(0, 60e-6, 400)
    t2s, det, _ = fitkit.fit_ramsey(
        tr, synth_decay_trace("ramsey", truth, detuning=0.5e6, times=tr)
    )
    qp, _ = fitkit.fit_qp_double_exp(
        t + 1e-9, np.exp(0.5 * (np.exp(-(t + 1e-9) / 10e-6) - 1)) * np.exp(-(t + 1e-9) / 40e-6)
    )
    rbfit = fitkit.fit_rb_decay(
        np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], float),
        0.5 * 0.999 ** np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], float) + 0.5,
    )
    checks.append(
        (
            "fit round-trips",
            abs(tau - 30e-6) / 30e-6 < 1e-6
            and abs(t2e - 35e-6) / 35e-6 < 1e-6
            and abs(t2s - 25e-6) / 25e-6 < 1e-6
            and abs(det - 0.5e6) / 0.5e6 < 1e-6
            and abs(qp.t1_qp - 10e-6) / 10e-6 < 1e-6
            and abs(rbfit.parameters["p"] - 0.999) < 1e-6,
        )
    )

    # Bose-Einstein and shot-noise round-trips at 1e-10
    device = noisecalc.TransmonParams.default()
    be_ok = all(
        abs(
            noisecalc.temperature_to_occupancy(
                noisecalc.occupancy_to_temperature(n, 6.471e9), 6.471e9
            )
            - n
        )
        <= 1e-10 * n
        for n in (1e-6, 1e-3, 0.15, 1.1, 10.0)
    )
    eq1_ok = all(
        abs(
            noisecalc.dephasing_from_occupancy(
                noisecalc.occupancy_from_dephasing(g, device), device
            )
            - g
        )
        <= 1e-10 * g
        for g in (1e2, 1e4, 1e6)
    )
    checks.append(("conversion round-trips", be_ok and eq1_ok))

    # byte-identical seeded reruns of a scenario
    a = run_scenario("fig4a_rb", {}, seed=1, out_dir=tmp_path / "a")
    b = run_scenario("fig4a_rb", {}, seed=1, out_dir=tmp_path / "b")
    checks.append(
        (
            "deterministic outputs",
            all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b)),
        )
    )

    ok = all(passed for _, passed in checks)
    detail = ", ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed in checks)
    verdict(8, ok, detail)
