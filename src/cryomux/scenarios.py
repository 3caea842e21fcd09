"""Named desk-scale experiments wiring the physics modules together.

Each scenario has a registry entry with defaults, accepts overrides from a
JSON config, and emits plot-ready tables. Outputs are deterministic for a
fixed (config, seed) pair: every file carries the scenario name, seed and a
hash of the effective configuration, and numbers are written in their
shortest round-trip form.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import chainmodel, noisecalc, qubitsim, rbengine
from .errors import ConfigError, SingularityError


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def format_number(value) -> str:
    """Shortest round-trip decimal, scientific beyond 1e+-6; NaN and
    infinities raise SingularityError instead of being written."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise SingularityError(f"non-finite result {x!r} cannot be written")
    if abs(x) >= 1e6 or abs(x) < 1e-6:
        return np.format_float_scientific(x, unique=True, trim="-")
    return np.format_float_positional(x, unique=True, trim="-")


@dataclass
class Table:
    """One output table: column names plus rows of numbers/strings."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]

    def render_csv(self, header_comment: str) -> str:
        lines = [f"# {header_comment}", ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(
                cell if isinstance(cell, str) else format_number(cell) for cell in row
            ))
        return "\n".join(lines) + "\n"

    def render_json(self, meta: Mapping) -> str:
        payload = {
            "meta": dict(meta),
            "columns": list(self.columns),
            "rows": [
                [cell if isinstance(cell, str) else float(cell) for cell in row]
                for row in self.rows
            ],
        }
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise SingularityError(f"non-finite result in table {self.name!r}") from exc


def config_hash(name: str, params: Mapping, seed: int) -> str:
    blob = json.dumps({"scenario": name, "params": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Scenario implementations (each returns a list of Tables)
# ---------------------------------------------------------------------------

def _mux_from_params(params) -> chainmodel.MuxModel:
    overrides = params.get("mux", {})
    return chainmodel.MuxModel.from_dict(overrides) if overrides else chainmodel.MuxModel()


def _run_fig2_power(params, rng) -> list[Table]:
    mux = _mux_from_params(params)
    volts = np.linspace(params["v_start_v"], params["v_stop_v"], int(params["v_points"]))
    static = Table(
        "static_power",
        ("v_dd_v", "power_w", "unit"),
        [(v, mux.static_power(float(v)), "W") for v in volts],
    )
    rates = np.linspace(0.0, params["rate_stop_hz"], int(params["rate_points"]))
    dyn_rows = []
    for v_dd in params["dynamic_v_dd_v"]:
        for rate in rates:
            dyn_rows.append((float(rate), float(v_dd), mux.dynamic_power(float(rate), float(v_dd)), "W"))
    dynamic = Table("dynamic_power", ("switch_rate_hz", "v_dd_v", "power_w", "unit"), dyn_rows)
    return [static, dynamic]


def _run_fig3_coherence(params, rng) -> list[Table]:
    device = noisecalc.TransmonParams.default()
    mux = _mux_from_params(params)
    t1 = params["t1_s"]
    t2s_base = params["t2_star_baseline_s"]
    t2e_base = params["t2_echo_baseline_s"]
    n_on = params["n_mux_on"]
    att = params["attenuation_db"]
    v_on = params["v_full_on_v"]
    volts = np.linspace(params["v_start_v"], params["v_stop_v"], int(params["v_points"]))
    rows = []
    for v in volts:
        turn_on = min(max((v - mux.v_threshold) / (v_on - mux.v_threshold), 0.0), 1.0)
        n_mux = n_on * turn_on
        n_res = noisecalc.propagate_attenuation(n_mux, att, "toward_qubit")
        gamma_add = noisecalc.dephasing_from_occupancy(n_res, device)
        t2s = 1.0 / (1.0 / t2s_base + gamma_add)
        t2e = 1.0 / (1.0 / t2e_base + gamma_add)
        rows.append((float(v), t1, t2s, t2e, n_res, n_mux))
    return [
        Table(
            "coherence_vs_bias",
            ("v_dd_v", "t1_s", "t2_star_s", "t2_echo_s", "n_resonator", "n_mux"),
            rows,
        )
    ]


def _run_fig3f_slope(params, rng) -> list[Table]:
    device = noisecalc.TransmonParams.default()
    gamma_static = 1.0 / params["t2_echo_on_s"]
    gamma_baseline = 1.0 / params["t2_echo_baseline_s"]
    att = params["attenuation_db"]
    rates = np.linspace(0.0, params["rate_stop_hz"], int(params["rate_points"]))
    rows = []
    for rate in rates:
        gamma = noisecalc.dephasing_vs_switching(float(rate), gamma_static, params["slope"])
        excess = gamma - gamma_baseline
        n_res = noisecalc.occupancy_from_dephasing(excess, device)
        n_mux = noisecalc.propagate_attenuation(n_res, att, "toward_source")
        rows.append((float(rate), gamma, 1.0 / gamma, n_res, n_mux))
    return [
        Table(
            "dephasing_vs_switching",
            ("switch_rate_hz", "gamma_1_per_s", "t2_s", "n_resonator", "n_mux"),
            rows,
        )
    ]


def _run_fig4a_rb(params, rng) -> list[Table]:
    t_g = params["t_g_s"]
    t1 = params["t1_s"]
    lengths = [int(m) for m in params["lengths"]]
    repeats = int(params["repeats"])
    seed_root = int(rng.integers(0, 2**63 - 1))
    pulse = qubitsim.calibrate_pi_pulse(t_g, params["pulse_shape"])
    rows = []
    decay_rows = []
    for i, t2s in enumerate(params["t2_star_values_s"]):
        noise = noisecalc.CoherenceRecord(t1=t1, t2_star=t2s, t2_echo=t2s)
        ls, survival = rbengine.run_rb(lengths, repeats, noise, pulse, seed=seed_root + i)
        fit = rbengine.fit_rb(ls, survival)
        # white-noise prediction: baseline 2*t1 makes the added-dephasing
        # term exactly the pure-dephasing rate of the simulated channels
        model = rbengine.coherence_limited_fidelity(
            t_g, t1, t2s, 2.0 * t1, k1=t_g / 3.0
        )
        rows.append((t2s, 1.0 / t2s, fit.f_1q, fit.f_1q_stderr, model))
        for m, f in zip(ls, survival):
            decay_rows.append((t2s, int(m), f))
    return [
        Table(
            "rb_fidelity_vs_coherence",
            ("t2_star_s", "inv_t2_star_1_per_s", "f_1q_fit", "f_1q_stderr", "f_1q_model"),
            rows,
        ),
        Table(
            "rb_decay_curves",
            ("t2_star_s", "sequence_length", "mean_survival"),
            decay_rows,
        ),
    ]


def _run_fig4b_tdm(params, rng) -> list[Table]:
    mux = chainmodel.MuxModel(
        isolation_db=params["isolation_db"], rise_time=params["rise_time_s"]
    )
    config = qubitsim.SimConfig(levels=int(params["levels"]))
    pulse = qubitsim.calibrate_pi_pulse(params["t_g_s"], params["pulse_shape"], config)
    if params["windows_ns"] is not None:
        windows_ns = [float(w) for w in params["windows_ns"]]
    else:
        windows_ns = np.linspace(
            params["window_start_s"] * 1e9,
            params["window_stop_s"] * 1e9,
            int(params["window_points"]),
        )
    floor = params["detection_floor"]
    columns = ["window_ns", "p_e", "one_minus_p_e"]
    if floor is not None:
        columns.append("p_e_detected")
    rows = []
    for w_ns in windows_ns:
        w_ns = round(float(w_ns), 9)
        p_e = qubitsim.tdm_experiment(w_ns * 1e-9, mux, pulse, config)
        row = [w_ns, p_e, 1.0 - p_e]
        if floor is not None:
            row.append(qubitsim.detected_population(p_e, floor))
        rows.append(tuple(row))
    return [Table("tdm_window_sweep", tuple(columns), rows)]


def _run_methods_t1_limit(params, rng) -> list[Table]:
    coupling = noisecalc.DriveCoupling(
        c_d=params["c_d_f"],
        c_q=params["c_q_f"],
        r_m=params["r_m_ohm"],
        t_eff=params["t_eff_k"],
    )
    omega_q = 2.0 * math.pi * params["omega_q_hz"]
    rows = [
        (float(att), noisecalc.t1_limit(coupling, omega_q, float(att)), "s")
        for att in params["attenuations_db"]
    ]
    return [Table("t1_limit", ("attenuation_db", "t1_limit_s", "unit"), rows)]


def _run_methods_teff(params, rng) -> list[Table]:
    device = noisecalc.TransmonParams.from_hz(
        omega_q_hz=params["omega_q_hz"],
        omega_r_hz=params["omega_r_hz"],
        kappa_r_hz=params["kappa_r_hz"],
        chi_hz=params["chi_hz"],
        alpha_hz=params["alpha_hz"],
        g_hz=params["g_hz"],
    )
    f_r = params["omega_r_hz"]
    att = params["attenuation_db"]
    gamma_excess = noisecalc.excess_rate(params["t2_echo_on_s"], params["t2_echo_baseline_s"])
    n_res = noisecalc.occupancy_from_dephasing(gamma_excess, device)
    n_mux = noisecalc.propagate_attenuation(n_res, att, "toward_source")
    t_mux = noisecalc.occupancy_to_temperature(n_mux, f_r)

    proj_att = params["projection_attenuation_db"]
    n_proj = noisecalc.propagate_attenuation(n_mux, proj_att, "toward_qubit")
    t2_static = 1.0 / noisecalc.dephasing_from_occupancy(n_proj, device)

    gamma_dyn = (
        noisecalc.dephasing_vs_switching(
            params["switch_rate_hz"], 1.0 / params["t2_echo_on_s"], params["slope"]
        )
        - 1.0 / params["t2_echo_baseline_s"]
    )
    n_mux_dyn = noisecalc.propagate_attenuation(
        noisecalc.occupancy_from_dephasing(gamma_dyn, device), att, "toward_source"
    )
    n_proj_dyn = noisecalc.propagate_attenuation(n_mux_dyn, proj_att, "toward_qubit")
    t2_dynamic = 1.0 / noisecalc.dephasing_from_occupancy(n_proj_dyn, device)

    rows = [
        ("n_resonator", n_res, "photons"),
        ("n_mux", n_mux, "photons"),
        ("t_eff_mux", t_mux, "K"),
        ("n_mux_dynamic", n_mux_dyn, "photons"),
        ("t_eff_mux_dynamic", noisecalc.occupancy_to_temperature(n_mux_dyn, f_r), "K"),
        ("t2_limit_static_projected", t2_static, "s"),
        ("t2_limit_dynamic_projected", t2_dynamic, "s"),
    ]
    return [Table("effective_temperature", ("quantity", "value", "unit"), rows)]


def _run_scaling_capacity(params, rng) -> list[Table]:
    mux = _mux_from_params(params)
    cooling = params["cooling_power_w"]
    v_dd = params["v_dd_v"]
    rate = params["switch_rate_hz"]
    ports = int(params["ports_per_chip"])
    model_per_channel = (
        mux.static_power(v_dd) - mux.esd_static + mux.dynamic_power(rate, v_dd)
    ) / ports
    rows = [
        (
            "model_per_channel_power",
            model_per_channel,
            "W",
        ),
        (
            "channels_at_nominal",
            chainmodel.qubit_capacity(
                chainmodel.CoolingBudget(cooling, params["per_channel_nominal_w"])
            ),
            "qubits",
        ),
        (
            "channels_at_low_voltage",
            chainmodel.qubit_capacity(
                chainmodel.CoolingBudget(cooling, params["per_channel_low_v_w"])
            ),
            "qubits",
        ),
        (
            "per_channel_for_target",
            chainmodel.per_channel_budget(cooling, int(params["target_qubits"])),
            "W",
        ),
    ]
    return [Table("capacity", ("quantity", "value", "unit"), rows)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: Mapping
    runner: Callable


REGISTRY: dict[str, Scenario] = {}


def _register(name, description, defaults, runner):
    REGISTRY[name] = Scenario(name, description, defaults, runner)


_register(
    "fig2_power",
    "Static and dynamic power dissipation sweeps of the multiplexer",
    {
        "v_start_v": 0.0,
        "v_stop_v": 0.9,
        "v_points": 91,
        "dynamic_v_dd_v": [0.7, 0.9],
        "rate_stop_hz": 10e6,
        "rate_points": 21,
        "mux": {},
    },
    _run_fig2_power,
)
_register(
    "fig3_coherence",
    "Qubit coherence versus multiplexer bias from the occupancy model",
    {
        "t1_s": 30e-6,
        "t2_star_baseline_s": 40e-6,
        "t2_echo_baseline_s": 35e-6,
        "n_mux_on": 0.146,
        "attenuation_db": 13.0,
        "v_full_on_v": 0.7,
        "v_start_v": 0.0,
        "v_stop_v": 0.9,
        "v_points": 46,
        "mux": {},
    },
    _run_fig3_coherence,
)
_register(
    "fig3f_slope",
    "Dephasing rate and occupancy versus multiplexer switching rate",
    {
        "t2_echo_on_s": 25e-6,
        "t2_echo_baseline_s": 35e-6,
        "slope": noisecalc.SWITCHING_DEPHASING_SLOPE,
        "attenuation_db": 13.0,
        "rate_stop_hz": 1e6,
        "rate_points": 21,
    },
    _run_fig3f_slope,
)
_register(
    "fig4a_rb",
    "Simulated randomized benchmarking fidelity versus 1/T2*",
    {
        "t_g_s": 40e-9,
        "t1_s": 30e-6,
        "t2_star_values_s": [6e-6, 12e-6, 25e-6],
        "lengths": [2, 4, 8, 16, 32, 64, 128, 256],
        "repeats": 20,
        "pulse_shape": "cosine",
    },
    _run_fig4a_rb,
)
_register(
    "fig4b_tdm",
    "Excited-state population versus gating window around the pi pulse",
    {
        "t_g_s": 40e-9,
        "isolation_db": 30.0,
        "rise_time_s": 0.0,
        "levels": 2,
        "pulse_shape": "cosine",
        "window_start_s": 0.0,
        "window_stop_s": 60e-9,
        "window_points": 31,
        "windows_ns": None,
        "detection_floor": None,
    },
    _run_fig4b_tdm,
)
_register(
    "methods_t1_limit",
    "Relaxation limit from drive-line voltage noise, with attenuation",
    {
        "c_d_f": 0.1e-15,
        "c_q_f": 110e-15,
        "r_m_ohm": 5.0,
        "t_eff_k": 7.0,
        "omega_q_hz": 3.957e9,
        "attenuations_db": [0.0],
    },
    _run_methods_t1_limit,
)
_register(
    "methods_teff",
    "Effective multiplexer temperature from coherence data, plus projections",
    {
        "omega_q_hz": 3.957e9,
        "omega_r_hz": 6.471e9,
        "kappa_r_hz": 0.697e6,
        "chi_hz": -0.259e6,
        "alpha_hz": -180e6,
        "g_hz": 90e6,
        "t2_echo_on_s": 25e-6,
        "t2_echo_baseline_s": 35e-6,
        "attenuation_db": 13.0,
        "projection_attenuation_db": 20.0,
        "switch_rate_hz": 1e6,
        "slope": noisecalc.SWITCHING_DEPHASING_SLOPE,
    },
    _run_methods_teff,
)
_register(
    "scaling_capacity",
    "Channel counts within the cooling budget and per-channel targets",
    {
        "cooling_power_w": 20e-6,
        "per_channel_nominal_w": 0.2e-6,
        "per_channel_low_v_w": 25e-9,
        "target_qubits": 1_000_000,
        "v_dd_v": 0.7,
        "switch_rate_hz": 1e6,
        "ports_per_chip": 4,
        "mux": {},
    },
    _run_scaling_capacity,
)


def list_scenarios() -> list[tuple[str, str]]:
    """Stable (name, description) listing of the registry."""
    return [(name, REGISTRY[name].description) for name in sorted(REGISTRY)]


def merge_params(scenario: Scenario, overrides: Mapping) -> dict:
    params = dict(scenario.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ConfigError(f"unknown parameter {key!r} for scenario {scenario.name!r}")
        params[key] = value
    return params


def run_scenario(
    name: str,
    overrides: Mapping | None = None,
    seed: int = 0,
    out_dir: str | Path = ".",
    fmt: str = "csv",
) -> list[Path]:
    """Execute a registered scenario and write its tables.

    Outputs are computed and rendered fully before anything is written, so
    a failing run, including one with a non-finite result, leaves no
    partial files. Returns the written paths.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown scenario {name!r}")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    scenario = REGISTRY[name]
    params = merge_params(scenario, overrides or {})
    digest = config_hash(name, params, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tables = scenario.runner(params, rng)

    meta = {"scenario": name, "seed": seed, "config_sha256": digest}
    header = f"scenario={name} seed={seed} config_sha256={digest}"
    out_dir = Path(out_dir)
    texts = {}
    for table in tables:
        text = table.render_csv(header) if fmt == "csv" else table.render_json(meta)
        texts[out_dir / f"{name}_{table.name}.{fmt}"] = text
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text)
    return list(texts)
