"""Named desk-scale experiments wiring the physics modules together.

Each scenario is a runner whose keyword-only signature declares its
parameters; it accepts type-checked overrides from a JSON config and emits
plot-ready tables. Outputs are deterministic for a fixed (config, seed)
pair on one machine: every file carries the scenario name, seed and a
hash of the effective configuration, and numbers are written in their
shortest round-trip form.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import Annotated, Callable, Literal, Mapping, Union, get_args, get_origin

import numpy as np

from . import chainmodel, noisecalc, qubitsim, rbengine
from .errors import ConfigError, SingularityError


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def format_number(value) -> str:
    """Shortest round-trip decimal, scientific beyond 1e+-6; NaN and
    infinities raise SingularityError instead of being written.

    The digits are repr's (shortest round-trip), laid out as numpy's
    format_float_positional and format_float_scientific write them with
    unique=True and trim="-": no trailing ".0", at least two exponent digits.
    """
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise SingularityError(f"non-finite result {x!r} cannot be written")
    text = repr(x)
    magnitude = abs(x)
    # repr is positional from 1e-4 up to 1e16 and scientific outside
    if 1e-4 <= magnitude < 1e6:
        return text[:-2] if text.endswith(".0") else text
    if magnitude < 1e-6 or magnitude >= 1e16:
        return text
    sign = "-" if x < 0.0 else ""
    if magnitude < 1e-4:  # 1.5e-05 -> 0.000015
        mantissa, _, exponent = text.lstrip("-").partition("e")
        return f"{sign}0.{'0' * (-int(exponent) - 1)}{mantissa.replace('.', '')}"
    whole, _, fraction = text.lstrip("-").partition(".")  # 1234567.5 -> 1.2345675e+06
    digits = (whole + fraction).rstrip("0")
    mantissa = f"{digits[0]}.{digits[1:]}" if len(digits) > 1 else digits
    return f"{sign}{mantissa}e+{len(whole) - 1:02d}"


_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # repr of the non-finite floats


def _json_list(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded items laid out as json.dumps(indent=2) writes a list (or,
    with brackets "{}", an object) that starts at this indent."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


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
        """The bytes of json.dumps(payload, indent=2, sort_keys=True,
        allow_nan=False) + "\\n" for payload {"meta", "columns", "rows"},
        where meta maps names to JSON scalars and every non-string cell is
        written as a float, built without json's pure-Python indenting
        encoder."""
        try:
            meta_items = [
                f"{encode_basestring_ascii(key)}: {json.dumps(value, allow_nan=False)}"
                for key, value in sorted(meta.items())
            ]
        except ValueError as exc:
            raise SingularityError(f"non-finite result in table {self.name!r}") from exc
        rows = []
        for row in self.rows:
            cells = [
                encode_basestring_ascii(cell) if isinstance(cell, str) else repr(float(cell))
                for cell in row
            ]
            # repr writes a non-finite float bare; string cells are quoted
            if not _NON_FINITE.isdisjoint(cells):
                raise SingularityError(f"non-finite result in table {self.name!r}")
            rows.append(_json_list(cells, "    "))
        columns = [encode_basestring_ascii(column) for column in self.columns]
        return _json_list(
            [
                f'"columns": {_json_list(columns, "  ")}',
                f'"meta": {_json_list(meta_items, "  ", "{}")}',
                f'"rows": {_json_list(rows, "  ")}',
            ],
            "",
            "{}",
        ) + "\n"


def config_hash(name: str, params: Mapping, seed: int) -> str:
    blob = json.dumps({"scenario": name, "params": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Within:
    """Annotated metadata bounding a parameter: low <= value <= high."""

    low: float
    high: float = math.inf

    def admits(self, value) -> bool:
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return f">= {self.low:g}" + (f", <= {self.high:g}" if self.high < math.inf else "")


# a time span (s); a normal float, so its rate 1/x is finite
Duration = Annotated[float, Within(sys.float_info.min)]
Offset = Annotated[float, Within(0.0)]  # a time that may be zero
# a resonance (Hz) and the multiplexer's turn-on voltage (V), positive as a Duration is
Frequency = Annotated[float, Within(sys.float_info.min)]
Threshold = Annotated[float, Within(sys.float_info.min)]
Voltage = Annotated[float, Within(0.0)]  # a bias (V)
Rate = Annotated[float, Within(0.0)]  # a switching rate (Hz)
# a capacitance (F), resistance (ohm) or power budget (W): any float above 0
Positive = Annotated[float, Within(math.ulp(0.0))]
# a power-model coefficient (W/V^3, W or J/(Hz V^2)), which may be 0
Coefficient = Annotated[float, Within(0.0)]
PulseShape = Literal["cosine", "cosine_drag"]
# a loss (dB) whose amplitude 10^(-x/20) is a normal float: at most 6153 dB
Attenuation = Annotated[float, Within(0.0, math.floor(-20.0 * math.log10(sys.float_info.min)))]
# a loss (dB) that an occupancy is divided by, as the power ratio 10^(-x/10):
# at most 3076 dB, so the ratio is a normal float and the division finite
OccupancyAttenuation = Annotated[float, Within(0.0, math.floor(-10.0 * math.log10(sys.float_info.min)))]
# counts are bounded so that no single one can make a run last hours: a
# closed-form sweep point costs microseconds, a gating window milliseconds
Points = Annotated[int, Within(1, 10_000)]
# 1 to 20 RB sequence lengths (a bound on a tuple bounds its number of
# items), each at most 10,000; paper scale is 10 lengths up to 1,000
SequenceLengths = Annotated[tuple[Annotated[int, Within(1, 10_000)], ...], Within(1, 20)]


# ---------------------------------------------------------------------------
# Scenario implementations (each returns a list of Tables)
# ---------------------------------------------------------------------------

def fig2_power(
    rng, *,
    v_start_v: Voltage = 0.0,
    v_stop_v: Voltage = 0.9,
    v_points: Points = 91,
    dynamic_v_dd_v: tuple[Voltage, ...] = (0.7, 0.9),
    rate_stop_hz: Rate = 10e6,
    rate_points: Points = 21,
    v_threshold_v: Threshold = chainmodel.MuxModel.v_threshold,
    static_coeff_w_per_v3: Coefficient = chainmodel.MuxModel.static_coeff,
    esd_static_w: Coefficient = chainmodel.MuxModel.esd_static,
    subthreshold_leak_w: Coefficient = chainmodel.MuxModel.subthreshold_leak,
    dyn_coeff_j_per_hz_v2: Coefficient = chainmodel.MuxModel.dyn_coeff,
) -> list[Table]:
    """Static and dynamic power dissipation sweeps of the multiplexer"""
    chip = chainmodel.MuxModel(
        v_threshold=v_threshold_v, static_coeff=static_coeff_w_per_v3, esd_static=esd_static_w,
        subthreshold_leak=subthreshold_leak_w, dyn_coeff=dyn_coeff_j_per_hz_v2,
    )
    volts = np.linspace(v_start_v, v_stop_v, v_points)
    static = Table(
        "static_power",
        ("v_dd_v", "power_w", "unit"),
        [(v, chip.static_power(float(v)), "W") for v in volts],
    )
    rates = np.linspace(0.0, rate_stop_hz, rate_points)
    dyn_rows = []
    for v_dd in dynamic_v_dd_v:
        for rate in rates:
            dyn_rows.append((float(rate), float(v_dd), chip.dynamic_power(float(rate), float(v_dd)), "W"))
    dynamic = Table("dynamic_power", ("switch_rate_hz", "v_dd_v", "power_w", "unit"), dyn_rows)
    return [static, dynamic]


def fig3_coherence(
    rng, *,
    t1_s: Duration = 30e-6,
    t2_star_baseline_s: Duration = 40e-6,
    t2_echo_baseline_s: Duration = 35e-6,
    n_mux_on: Annotated[float, Within(0.0)] = 0.146,
    attenuation_db: OccupancyAttenuation = 13.0,
    v_full_on_v: Voltage = 0.7,
    v_start_v: Voltage = 0.0,
    v_stop_v: Voltage = 0.9,
    v_points: Points = 46,
    v_threshold_v: Threshold = chainmodel.MuxModel.v_threshold,
) -> list[Table]:
    """Qubit coherence versus multiplexer bias from the occupancy model"""
    device = noisecalc.TransmonParams.default()
    if v_full_on_v <= v_threshold_v:
        raise SingularityError(f"v_full_on_v must lie above the {v_threshold_v} V mux threshold")
    rows = []
    for v in np.linspace(v_start_v, v_stop_v, v_points):
        turn_on = min(max((v - v_threshold_v) / (v_full_on_v - v_threshold_v), 0.0), 1.0)
        n_mux = n_mux_on * turn_on
        n_res = noisecalc.propagate_attenuation(n_mux, attenuation_db, "toward_qubit")
        gamma_add = noisecalc.dephasing_from_occupancy(n_res, device)
        t2s = 1.0 / (1.0 / t2_star_baseline_s + gamma_add)
        t2e = 1.0 / (1.0 / t2_echo_baseline_s + gamma_add)
        rows.append((float(v), t1_s, t2s, t2e, n_res, n_mux))
    return [
        Table(
            "coherence_vs_bias",
            ("v_dd_v", "t1_s", "t2_star_s", "t2_echo_s", "n_resonator", "n_mux"),
            rows,
        )
    ]


def fig3f_slope(
    rng, *,
    t2_echo_on_s: Duration = 25e-6,
    t2_echo_baseline_s: Duration = 35e-6,
    slope: float = noisecalc.SWITCHING_DEPHASING_SLOPE,
    attenuation_db: OccupancyAttenuation = 13.0,
    rate_stop_hz: Rate = 1e6,
    rate_points: Points = 21,
) -> list[Table]:
    """Dephasing rate and occupancy versus multiplexer switching rate"""
    device = noisecalc.TransmonParams.default()
    gamma_static = 1.0 / t2_echo_on_s
    gamma_baseline = 1.0 / t2_echo_baseline_s
    rows = []
    for rate in np.linspace(0.0, rate_stop_hz, rate_points):
        gamma = noisecalc.dephasing_vs_switching(float(rate), gamma_static, slope)
        excess = gamma - gamma_baseline
        n_res = noisecalc.occupancy_from_dephasing(excess, device)
        n_mux = noisecalc.propagate_attenuation(n_res, attenuation_db, "toward_source")
        rows.append((float(rate), gamma, 1.0 / gamma, n_res, n_mux))
    return [
        Table(
            "dephasing_vs_switching",
            ("switch_rate_hz", "gamma_1_per_s", "t2_s", "n_resonator", "n_mux"),
            rows,
        )
    ]


def fig4a_rb(
    rng, *,
    t_g_s: Duration = 40e-9,
    t1_s: Duration = 30e-6,
    t2_star_values_s: Annotated[tuple[Duration, ...], Within(0, 20)] = (6e-6, 12e-6, 25e-6),
    lengths: SequenceLengths = (2, 4, 8, 16, 32, 64, 128, 256),
    repeats: Annotated[int, Within(1, 1_000)] = 20,
) -> list[Table]:
    """Simulated randomized benchmarking fidelity versus 1/T2*"""
    seed_root = int(rng.integers(0, 2**63 - 1))
    pulse = qubitsim.calibrate_pi_pulse(t_g_s)
    noises = [noisecalc.CoherenceRecord(t1=t1_s, t2_star=t2s, t2_echo=t2s) for t2s in t2_star_values_s]
    ls, survivals = rbengine.run_rb(lengths, repeats, noises, pulse, seed=seed_root)
    rows = []
    decay_rows = []
    for t2s, survival in zip(t2_star_values_s, survivals):
        fit = rbengine.fit_rb(ls, survival)
        # white-noise prediction: baseline 2*t1 makes the added-dephasing
        # term exactly the pure-dephasing rate of the simulated channels
        model = rbengine.coherence_limited_fidelity(t_g_s, t1_s, t2s, 2.0 * t1_s, k1=t_g_s / 3.0)
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


def fig4b_tdm(
    rng, *,
    t_g_s: Duration = 40e-9,
    isolation_db: Attenuation = 30.0,
    rise_time_s: Offset = 0.0,
    levels: Annotated[int, Within(2, 3)] = 2,
    pulse_shape: PulseShape = "cosine",
    window_start_s: Offset = 0.0,
    window_stop_s: Duration = 60e-9,
    window_points: Annotated[int, Within(1, 1_000)] = 31,
    windows_ns: Annotated[tuple[Offset, ...], Within(0, 1_000)] | None = None,
    detection_floor: Annotated[float, Within(0.0, 1.0)] | None = None,
) -> list[Table]:
    """Excited-state population versus gating window around the pi pulse"""
    mux = chainmodel.MuxModel(isolation_db=isolation_db, rise_time=rise_time_s)
    config = qubitsim.SimConfig(levels=levels)
    pulse = qubitsim.calibrate_pi_pulse(t_g_s, pulse_shape, config)
    if windows_ns is None:
        windows_ns = np.linspace(window_start_s * 1e9, window_stop_s * 1e9, window_points)
    windows_ns = [round(float(w_ns), 9) for w_ns in windows_ns]
    p_es = qubitsim.tdm_sweep([w_ns * 1e-9 for w_ns in windows_ns], mux, pulse, config)
    columns = ["window_ns", "p_e", "one_minus_p_e"]
    if detection_floor is not None:
        columns.append("p_e_detected")
    rows = []
    for w_ns, p_e in zip(windows_ns, p_es.tolist()):
        row = [w_ns, p_e, 1.0 - p_e]
        if detection_floor is not None:
            row.append(qubitsim.detected_population(p_e, detection_floor))
        rows.append(tuple(row))
    return [Table("tdm_window_sweep", tuple(columns), rows)]


def methods_t1_limit(
    rng, *,
    c_d_f: Positive = 0.1e-15,
    c_q_f: Positive = 110e-15,
    r_m_ohm: Positive = 5.0,
    t_eff_k: Annotated[float, Within(0.0)] = 7.0,  # 0 K has no finite T1 limit (exit 4)
    omega_q_hz: Frequency = 3.957e9,
    attenuations_db: tuple[Attenuation, ...] = (0.0,),
) -> list[Table]:
    """Relaxation limit from drive-line voltage noise, with attenuation"""
    coupling = noisecalc.DriveCoupling(c_d=c_d_f, c_q=c_q_f, r_m=r_m_ohm, t_eff=t_eff_k)
    omega_q = 2.0 * math.pi * omega_q_hz
    rows = [
        (float(att), noisecalc.t1_limit(coupling, omega_q, float(att)), "s")
        for att in attenuations_db
    ]
    return [Table("t1_limit", ("attenuation_db", "t1_limit_s", "unit"), rows)]


def methods_teff(
    rng, *,
    omega_r_hz: Frequency = 6.471e9,
    kappa_r_hz: Frequency = noisecalc.KAPPA_R_HZ,
    chi_hz: float = noisecalc.CHI_HZ,
    t2_echo_on_s: Duration = 25e-6,
    t2_echo_baseline_s: Duration = 35e-6,
    attenuation_db: OccupancyAttenuation = 13.0,
    projection_attenuation_db: OccupancyAttenuation = 20.0,
    switch_rate_hz: Rate = 1e6,
    slope: float = noisecalc.SWITCHING_DEPHASING_SLOPE,
) -> list[Table]:
    """Effective multiplexer temperature from coherence data, plus projections"""
    device = noisecalc.TransmonParams.from_hz(kappa_r_hz, chi_hz)
    gamma_excess = noisecalc.excess_rate(t2_echo_on_s, t2_echo_baseline_s)
    n_res = noisecalc.occupancy_from_dephasing(gamma_excess, device)
    n_mux = noisecalc.propagate_attenuation(n_res, attenuation_db, "toward_source")
    t_mux = noisecalc.occupancy_to_temperature(n_mux, omega_r_hz)

    n_proj = noisecalc.propagate_attenuation(n_mux, projection_attenuation_db, "toward_qubit")
    t2_static = 1.0 / noisecalc.dephasing_from_occupancy(n_proj, device)

    gamma_dyn = (
        noisecalc.dephasing_vs_switching(switch_rate_hz, 1.0 / t2_echo_on_s, slope)
        - 1.0 / t2_echo_baseline_s
    )
    n_mux_dyn = noisecalc.propagate_attenuation(
        noisecalc.occupancy_from_dephasing(gamma_dyn, device), attenuation_db, "toward_source"
    )
    n_proj_dyn = noisecalc.propagate_attenuation(
        n_mux_dyn, projection_attenuation_db, "toward_qubit"
    )
    t2_dynamic = 1.0 / noisecalc.dephasing_from_occupancy(n_proj_dyn, device)

    rows = [
        ("n_resonator", n_res, "photons"),
        ("n_mux", n_mux, "photons"),
        ("t_eff_mux", t_mux, "K"),
        ("n_mux_dynamic", n_mux_dyn, "photons"),
        ("t_eff_mux_dynamic", noisecalc.occupancy_to_temperature(n_mux_dyn, omega_r_hz), "K"),
        ("t2_limit_static_projected", t2_static, "s"),
        ("t2_limit_dynamic_projected", t2_dynamic, "s"),
    ]
    return [Table("effective_temperature", ("quantity", "value", "unit"), rows)]


def scaling_capacity(
    rng, *,
    cooling_power_w: Positive = 20e-6,
    per_channel_nominal_w: Positive = 0.2e-6,
    per_channel_low_v_w: Positive = 25e-9,
    target_qubits: int = 1_000_000,
    v_dd_v: Voltage = 0.7,
    switch_rate_hz: Rate = 1e6,
    ports_per_chip: int = 4,
    v_threshold_v: Threshold = chainmodel.MuxModel.v_threshold,
    static_coeff_w_per_v3: Coefficient = chainmodel.MuxModel.static_coeff,
    subthreshold_leak_w: Coefficient = chainmodel.MuxModel.subthreshold_leak,
    dyn_coeff_j_per_hz_v2: Coefficient = chainmodel.MuxModel.dyn_coeff,
) -> list[Table]:
    """Channel counts within the cooling budget and per-channel targets"""
    # the ESD share that static_power adds is taken out again, so it is no parameter
    chip = chainmodel.MuxModel(
        v_threshold=v_threshold_v, static_coeff=static_coeff_w_per_v3,
        subthreshold_leak=subthreshold_leak_w, dyn_coeff=dyn_coeff_j_per_hz_v2,
    )
    model_per_channel = (
        chip.static_power(v_dd_v) - chip.esd_static + chip.dynamic_power(switch_rate_hz, v_dd_v)
    ) / ports_per_chip
    rows = [
        (
            "model_per_channel_power",
            model_per_channel,
            "W",
        ),
        (
            "channels_at_nominal",
            chainmodel.qubit_capacity(
                chainmodel.CoolingBudget(cooling_power_w, per_channel_nominal_w)
            ),
            "qubits",
        ),
        (
            "channels_at_low_voltage",
            chainmodel.qubit_capacity(
                chainmodel.CoolingBudget(cooling_power_w, per_channel_low_v_w)
            ),
            "qubits",
        ),
        (
            "per_channel_for_target",
            chainmodel.per_channel_budget(cooling_power_w, target_qubits),
            "W",
        ),
    ]
    return [Table("capacity", ("quantity", "value", "unit"), rows)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A runner with the parameter spec of its keyword-only signature: each
    name's default and annotation; its docstring starts with the description."""

    name: str
    description: str
    defaults: Mapping
    types: Mapping
    runner: Callable

    @classmethod
    def from_runner(cls, runner: Callable) -> "Scenario":
        params = inspect.signature(runner, eval_str=True).parameters.values()
        spec = [p for p in params if p.kind is p.KEYWORD_ONLY]
        description = inspect.getdoc(runner).splitlines()[0]
        defaults = {p.name: p.default for p in spec}
        types = {p.name: p.annotation for p in spec}
        return cls(runner.__name__, description, defaults, types, runner)


REGISTRY: dict[str, Scenario] = {
    runner.__name__: Scenario.from_runner(runner)
    for runner in (
        fig2_power, fig3_coherence, fig3f_slope, fig4a_rb, fig4b_tdm,
        methods_t1_limit, methods_teff, scaling_capacity,
    )
}


def list_scenarios() -> list[tuple[str, str]]:
    """Stable (name, description) listing of the registry."""
    return [(name, REGISTRY[name].description) for name in sorted(REGISTRY)]


def _conforms(value, kind) -> bool:
    """Whether a JSON value matches a runner annotation. float is a number
    within float range, int a count >= 1, tuple[X, ...] a list of X, and
    X | None also admits null; booleans are never numbers. Annotated[X,
    bound, ...] is an X that every bound admits (for a tuple X, its number
    of items), and Literal[...] one of its values, of the same type."""
    if get_origin(kind) in (Union, UnionType):  # Annotated[...] | None is a typing.Union
        return any(_conforms(value, k) for k in get_args(kind))
    if get_origin(kind) is Literal:
        return any(type(value) is type(choice) and value == choice for choice in get_args(kind))
    if get_origin(kind) is Annotated:
        base, *bounds = get_args(kind)
        if not _conforms(value, base):
            return False
        size = len(value) if get_origin(base) is tuple else value
        return all(bound.admits(size) for bound in bounds)
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool):
        return False
    if kind is float:
        # NaN fails the comparison; ints compare exactly, so huge ones fail too
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is int:
        return isinstance(value, int) and value >= 1
    return isinstance(value, kind)


def merge_params(scenario: Scenario, overrides: Mapping) -> dict:
    """The scenario's defaults with overrides applied. An unknown name or a
    value that does not match its parameter's annotation raises ConfigError.
    A mismatched value is quoted abbreviated by reprlib, after its item
    count if it is a list, so an over-long list still gives a short error
    line."""
    params = dict(scenario.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ConfigError(f"unknown parameter {key!r} for scenario {scenario.name!r}")
        if not _conforms(value, scenario.types[key]):
            kind = inspect.formatannotation(scenario.types[key]).replace("typing.", "")
            got = reprlib.repr(value)
            if isinstance(value, list):
                got = f"{len(value)} items {got}"
            raise ConfigError(f"parameter {key!r} of {scenario.name!r} must be {kind}, got {got}")
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

    Outputs are computed and rendered fully before anything is written, and
    each table goes to a temporary file in out_dir that replaces its target
    only once all are written, so a failing run, including one with a
    non-finite result or a failed write, leaves no file. Returns the
    written paths.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown scenario {name!r}")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    scenario = REGISTRY[name]
    params = merge_params(scenario, overrides or {})
    digest = config_hash(name, params, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        tables = scenario.runner(rng, **params)
    except ArithmeticError as exc:
        raise SingularityError(f"arithmetic failure in scenario {name!r}: {exc!r}") from exc

    meta = {"scenario": name, "seed": seed, "config_sha256": digest}
    header = f"scenario={name} seed={seed} config_sha256={digest}"
    out_dir = Path(out_dir)
    texts = {}
    for table in tables:
        text = table.render_csv(header) if fmt == "csv" else table.render_json(meta)
        texts[out_dir / f"{name}_{table.name}.{fmt}"] = text
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in texts}
    try:
        for path, text in texts.items():
            temps[path].write_text(text)
    except OSError:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    for path, temp in temps.items():
        os.replace(temp, path)
    return list(texts)
