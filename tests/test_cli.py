"""CLI contract: verbs, exit codes, determinism and golden outputs."""
import json
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cryomux import rbengine
from cryomux.chainmodel import MuxModel
from cryomux.cli import main
from cryomux.scenarios import REGISTRY, merge_params

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).parents[1] / "configs"

SCENARIOS = [
    "fig2_power",
    "fig3_coherence",
    "fig3f_slope",
    "fig4a_rb",
    "fig4b_tdm",
    "methods_t1_limit",
    "methods_teff",
    "scaling_capacity",
]

CLOSED_FORM = [name for name in SCENARIOS if name not in ("fig4a_rb", "fig4b_tdm")]

# Small fig4a_rb and fig4b_tdm settings, so that a malformed value the
# checks miss still fails fast.
FAST_RB = {"t2_star_values_s": [1e-5], "lengths": [2, 4, 8], "repeats": 2}
FAST_TDM = {"windows_ns": [10]}


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


class TestList:
    def test_registry_contents(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_stable_ordering(self, capsys):
        run_cli("list")
        first = capsys.readouterr().out
        run_cli("list")
        second = capsys.readouterr().out
        assert first == second

    def test_json_listing_matches(self, capsys):
        run_cli("list", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == SCENARIOS


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "methods_teff"})
        assert run_cli("validate", cfg) == 0

    def test_unknown_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "fig9_nonsense"})
        assert run_cli("validate", cfg) == 2

    def test_unknown_parameter_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, {"scenario": "methods_teff", "params": {"bogus_key": 1}}
        )
        assert run_cli("validate", cfg) == 3


class TestRun:
    def test_empty_file_exits_3_without_outputs(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("")
        out_dir = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out-dir", str(out_dir)) == 3
        assert not out_dir.exists()

    def test_non_object_config_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run_cli("run", str(cfg)) == 3

    def test_unknown_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "not_registered"})
        assert run_cli("run", cfg) == 2

    def test_downstream_error_exits_4_without_outputs(self, tmp_path):
        # a gating window far beyond the simulation horizon fails inside
        # the simulator, after schema validation has passed
        cfg = write_config(
            tmp_path,
            {
                "scenario": "fig4b_tdm",
                "params": {"window_stop_s": 1e-6, "window_points": 3},
            },
        )
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 4
        assert not (out_dir / "fig4b_tdm_tdm_window_sweep.csv").exists()

    @pytest.mark.parametrize(
        "payload, flags",
        [
            ({"scenario": "methods_teff", "seed": True}, ()),
            ({"scenario": "methods_teff", "seed": -1}, ()),
            ({"scenario": "methods_teff"}, ("--seed", "-1")),
        ],
    )
    def test_bad_seed_exits_3_without_outputs(self, tmp_path, capsys, payload, flags):
        cfg = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir), *flags) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, params, fmt",
        [
            ("methods_t1_limit", {"t_eff_k": 0}, "csv"),
            ("methods_t1_limit", {"t_eff_k": 0}, "json"),
            ("fig3_coherence", {"v_full_on_v": 0.6}, "csv"),
        ],
    )
    def test_non_finite_result_exits_4_without_outputs(
        self, tmp_path, capsys, scenario, params, fmt
    ):
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir), "--format", fmt) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("fig3_coherence", {"v_full_on_v": 0.6}),
            ("fig3f_slope", {"slope": 1e303}),  # its rate overflows
            # occupancies whose dephasing rates overflow, so their T2 limits
            # would read 0 s: a ~1e303-photon mux occupancy at the bound
            ("methods_teff", {"attenuation_db": 3076}),
            ("scaling_capacity", {"per_channel_nominal_w": 1e-320}),
            ("fig3_coherence", {"n_mux_on": 1e305}),  # its dephasing rate overflows
        ],
    )
    def test_failing_run_exits_4_with_one_error_line(self, tmp_path, capsys, scenario, params):
        # warnings are errors, so a numpy warning ahead of the failure shows
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 4
        assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_memory_error_exits_4_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setitem(REGISTRY, "fig2_power", replace(REGISTRY["fig2_power"], runner=out_of_memory))
        cfg = write_config(tmp_path, {"scenario": "fig2_power"})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 4
        assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_non_increasing_lengths_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path, {"scenario": "fig4a_rb", "params": {"lengths": [8, 4]}}
        )
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 4

    def test_out_dir_below_a_file_exits_4_with_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_config(tmp_path, {"scenario": "fig2_power"})
        assert run_cli("run", cfg, "--out-dir", str(blocker / "out")) == 4
        assert_one_error_line(capsys)

    def test_failed_write_leaves_no_file_from_the_run(self, tmp_path, capsys, monkeypatch):
        # fig2_power writes two tables; the second write fails, after the
        # first table has gone to its temporary file
        cfg = write_config(tmp_path, {"scenario": "fig2_power", "seed": 1})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert len(before) == 2
        write_text = Path.write_text
        calls = []

        def failing_second_write(self, text, *args, **kwargs):
            calls.append(self)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", str(self))
            return write_text(self, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_second_write)
        assert run_cli("run", cfg, "--out-dir", str(out_dir), "--seed", "2") == 4
        assert_one_error_line(capsys)
        assert len(calls) == 2
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before

    def test_run_writes_header_and_units(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "methods_teff", "seed": 3})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        text = (out_dir / "methods_teff_effective_temperature.csv").read_text()
        header = text.splitlines()[0]
        assert header.startswith("# scenario=methods_teff seed=3 config_sha256=")
        assert "quantity,value,unit" in text

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "fig3f_slope", "seed": 5})
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", cfg, "--out-dir", str(a_dir)) == 0
        assert run_cli("run", cfg, "--out-dir", str(b_dir)) == 0
        a = (a_dir / "fig3f_slope_dephasing_vs_switching.csv").read_bytes()
        b = (b_dir / "fig3f_slope_dephasing_vs_switching.csv").read_bytes()
        assert a == b

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "methods_teff", "seed": 1})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir), "--seed", "42") == 0
        text = (out_dir / "methods_teff_effective_temperature.csv").read_text()
        assert "seed=42" in text.splitlines()[0]

    def test_json_output_format(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "scaling_capacity"})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir), "--format", "json") == 0
        payload = json.loads((out_dir / "scaling_capacity_capacity.json").read_text())
        assert payload["meta"]["scenario"] == "scaling_capacity"
        assert payload["columns"] == ["quantity", "value", "unit"]

    def test_tdm_sweep_spans_60ns(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "fig4b_tdm"})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "fig4b_tdm_tdm_window_sweep.csv").read_text().splitlines()
        data = [line.split(",") for line in lines[2:]]
        assert float(data[0][0]) == 0.0
        assert float(data[-1][0]) == 60.0
        assert len(data) == 31

    def test_t1_limit_scenario_is_single_row_near_50us(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "methods_t1_limit"})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "methods_t1_limit_t1_limit.csv").read_text().splitlines()
        assert len(lines) == 3  # header comment + column row + one data row
        row0 = lines[2].split(",")
        assert abs(float(row0[1]) - 50e-6) / 50e-6 < 0.05

    def test_explicit_window_list(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"scenario": "fig4b_tdm", "params": {"windows_ns": [0.0, 17.3, 40.0]}},
        )
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "fig4b_tdm_tdm_window_sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[2:]] == ["0", "17.3", "40"]

    def test_rb_scenario_emits_decay_curves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "fig4a_rb",
                "params": {
                    "t2_star_values_s": [10e-6],
                    "lengths": [2, 8, 32, 128],
                    "repeats": 3,
                },
            },
        )
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "fig4a_rb_rb_decay_curves.csv").read_text().splitlines()
        assert lines[1] == "t2_star_s,sequence_length,mean_survival"
        assert len(lines) == 2 + 4


class TestParameterSpec:
    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("fig2_power", {"v_points": "abc"}),
            ("fig2_power", {"v_points": -1}),
            ("fig2_power", {"dynamic_v_dd_v": 0.7}),
            ("fig2_power", {"mux": 5}),
            ("fig2_power", {"mux": []}),
            ("fig4b_tdm", {"window_points": -3}),
            ("fig4b_tdm", {**FAST_TDM, "levels": "3"}),
            ("fig4b_tdm", {**FAST_TDM, "windows_ns": "abc"}),
            ("fig4b_tdm", {**FAST_TDM, "detection_floor": "x"}),
            ("fig4b_tdm", {**FAST_TDM, "pulse_shape": 3}),
            ("scaling_capacity", {"ports_per_chip": 0}),
            ("scaling_capacity", {"target_qubits": True}),
            ("fig4a_rb", {**FAST_RB, "t2_star_values_s": "abc"}),
            ("fig4a_rb", {**FAST_RB, "repeats": 2.5}),
            ("fig4a_rb", {**FAST_RB, "lengths": [-2, 4, 8]}),
            ("fig3f_slope", {"attenuation_db": "13"}),
            ("fig3f_slope", {"slope": float("nan")}),
            ("fig2_power", {"mux": {"esd_static_w": "abc"}}),
            ("fig3_coherence", {"t2_star_baseline_s": -1e-5}),
            ("fig3_coherence", {"t2_star_baseline_s": 0}),
            ("fig3_coherence", {"t1_s": 0.0}),
            ("fig3f_slope", {"t2_echo_on_s": 0}),
            ("fig3f_slope", {"t2_echo_on_s": -25e-6}),
            ("methods_teff", {"t2_echo_baseline_s": 0}),
            ("fig4a_rb", {**FAST_RB, "t_g_s": -40e-9}),
            ("fig4a_rb", {**FAST_RB, "t2_star_values_s": [1e-5, -1e-5]}),
            ("fig4a_rb", {**FAST_RB, "t2_star_values_s": [0.0]}),
            ("fig4b_tdm", {**FAST_TDM, "rise_time_s": -1e-9}),
            ("fig4b_tdm", {"window_start_s": -1e-9}),
            ("fig4b_tdm", {"window_stop_s": 0.0}),
            # subnormal lifetimes, whose rates 1/x overflow
            ("fig3_coherence", {"t2_star_baseline_s": 1e-320}),
            ("fig3f_slope", {"t2_echo_on_s": 1e-320}),
            # mux numbers that are not finite floats
            ("fig2_power", {"mux": {"v_threshold_v": float("nan")}}),
            ("fig2_power", {"mux": {"static_coeff_w_per_v3": float("inf")}}),
            ("fig2_power", {"mux": {"subthreshold_leak_w": 10**400}}),
            # isolation outside [0, 6153] dB, where the floor amplitude is normal
            ("fig4b_tdm", {"window_points": 2, "isolation_db": -5}),
            ("fig4b_tdm", {"window_points": 2, "isolation_db": 7000}),
            # levels, pulse shapes and windows the simulator cannot run
            ("fig4b_tdm", {**FAST_TDM, "levels": 5}),
            ("fig4b_tdm", {**FAST_TDM, "pulse_shape": "square"}),
            ("fig4a_rb", {**FAST_RB, "pulse_shape": "square"}),
            ("fig4b_tdm", {"windows_ns": [-5]}),
            # a detection floor is a population, in [0, 1]
            ("fig4b_tdm", {**FAST_TDM, "detection_floor": 2.0}),
            ("fig4b_tdm", {**FAST_TDM, "detection_floor": -0.1}),
            # the retired word-to-port map and serial switching coefficient
            ("fig2_power", {"mux": {"port_map": {"00": "RF2", "01": "RF1", "10": "RF3", "11": "RF4"}}}),
            ("fig2_power", {"mux": {"dyn_coeff_serial_j_per_hz_v2": 0.26e-12}}),
            # occupancy attenuations outside [0, 3076] dB, where the power
            # ratio 10^(-x/10) is a normal float, attenuations outside
            # [0, 6153] dB, and a negative occupancy
            ("fig3f_slope", {"attenuation_db": 6000}),
            ("methods_teff", {"projection_attenuation_db": 3077}),
            ("fig3_coherence", {"attenuation_db": -5000}),
            ("fig3f_slope", {"attenuation_db": -5000}),
            ("fig3_coherence", {"attenuation_db": -400.0}),
            ("fig3f_slope", {"attenuation_db": -400.0}),
            ("methods_teff", {"attenuation_db": -400.0}),
            ("methods_teff", {"projection_attenuation_db": -400.0}),
            ("methods_t1_limit", {"attenuations_db": [0.0, -400.0]}),
            ("fig3_coherence", {"n_mux_on": -1.0}),
            # the retired insertion loss, transmon constants that no table
            # read, and the RB pulse shape, inert at 2 levels
            ("fig2_power", {"mux": {"insertion_loss_db": 2.3}}),
            ("methods_teff", {"omega_q_hz": 3.957e9}),
            ("methods_teff", {"alpha_hz": -180e6}),
            ("methods_teff", {"g_hz": 90e6}),
            ("fig4a_rb", {**FAST_RB, "pulse_shape": "cosine"}),
            # the isolation and rise time, which only fig4b_tdm reads, as mux
            # keys; fig3_coherence, which reads only the threshold, has no mux
            ("fig2_power", {"mux": {"isolation_db": 30.0}}),
            ("scaling_capacity", {"mux": {"rise_time_s": 2.6e-9}}),
            ("fig3_coherence", {"mux": {"v_threshold_v": 0.6}}),
            ("fig3_coherence", {"v_threshold_v": 0.0}),
            # the power-model keys, parameters of their own since the `mux`
            # object was retired: numbers that are not finite floats, a
            # threshold that is not positive, and keys that are not power keys
            ("fig2_power", {"esd_static_w": "abc"}),
            ("fig2_power", {"dyn_coeff_j_per_hz_v2": True}),
            ("fig2_power", {"v_threshold_v": float("nan")}),
            ("fig2_power", {"static_coeff_w_per_v3": float("inf")}),
            ("fig2_power", {"subthreshold_leak_w": 10**400}),
            ("scaling_capacity", {"dyn_coeff_j_per_hz_v2": float("nan")}),
            ("fig2_power", {"v_threshold_v": 0.0}),
            ("scaling_capacity", {"v_threshold_v": 0.0}),
            ("fig2_power", {"voltage_v": 0.7}),
            ("fig2_power", {"port_map": {"00": "RF2", "01": "RF1", "10": "RF3", "11": "RF4"}}),
            ("fig2_power", {"isolation_db": 30.0}),
            ("scaling_capacity", {"rise_time_s": 2.6e-9}),
            # the ESD share, which cancels in the per-channel power
            ("scaling_capacity", {"esd_static_w": 0.37e-6}),
            # negative bias voltages and switching rates, and resonances that
            # are not positive
            ("fig2_power", {"v_start_v": -0.1}),
            ("fig2_power", {"v_stop_v": -0.1}),
            ("fig2_power", {"dynamic_v_dd_v": [-0.7]}),
            ("fig2_power", {"rate_stop_hz": -1}),
            ("fig3_coherence", {"v_start_v": -0.1}),
            ("fig3_coherence", {"v_full_on_v": -0.1}),
            ("fig3f_slope", {"rate_stop_hz": -1}),
            ("methods_teff", {"switch_rate_hz": -1}),
            ("methods_teff", {"omega_r_hz": -1}),
            ("methods_teff", {"kappa_r_hz": -1}),
            ("methods_teff", {"omega_r_hz": 0}),
            ("methods_t1_limit", {"omega_q_hz": -1}),
            ("methods_t1_limit", {"omega_q_hz": 0}),
            ("scaling_capacity", {"v_dd_v": -0.7}),
            ("scaling_capacity", {"switch_rate_hz": -1}),
            # capacitances, resistances and power budgets that are not
            # positive, and a negative temperature (0 K exits 4, as a
            # non-finite result)
            ("methods_t1_limit", {"c_d_f": -1e-16}),
            ("methods_t1_limit", {"c_d_f": 0}),
            ("methods_t1_limit", {"c_q_f": -110e-15}),
            ("methods_t1_limit", {"r_m_ohm": -5}),
            ("methods_t1_limit", {"r_m_ohm": 0.0}),
            ("methods_t1_limit", {"t_eff_k": -1}),
            ("scaling_capacity", {"cooling_power_w": -1e-6}),
            ("scaling_capacity", {"cooling_power_w": 0}),
            ("scaling_capacity", {"per_channel_nominal_w": -0.2e-6}),
            ("scaling_capacity", {"per_channel_low_v_w": 0}),
            # negative power-model coefficients
            ("fig2_power", {"static_coeff_w_per_v3": -1}),
            ("fig2_power", {"esd_static_w": -0.37e-6}),
            ("fig2_power", {"subthreshold_leak_w": -1e-9}),
            ("fig2_power", {"dyn_coeff_j_per_hz_v2": -0.26e-12}),
            ("scaling_capacity", {"static_coeff_w_per_v3": -1}),
            ("scaling_capacity", {"subthreshold_leak_w": -1e-9}),
            ("scaling_capacity", {"dyn_coeff_j_per_hz_v2": -0.26e-12}),
        ],
    )
    def test_malformed_value_exits_3(self, tmp_path, capsys, verb, scenario, params):
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        flags = ("--out-dir", str(out_dir)) if verb == "run" else ()
        assert run_cli(verb, cfg, *flags) == 3
        assert_one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("fig2_power", {"v_points": 10_001}),
            ("fig2_power", {"rate_points": 10**12}),
            ("fig3_coherence", {"v_points": 10**12}),
            ("fig3f_slope", {"rate_points": 10_001}),
            ("fig4b_tdm", {"window_points": 1_001}),
            ("fig4b_tdm", {"windows_ns": [10] * 1_001}),
            ("fig4a_rb", {"t2_star_values_s": [1e-5] * 21}),
            ("fig4a_rb", {"repeats": 1_001}),
            ("fig4a_rb", {"repeats": 10**12}),
            ("fig4a_rb", {"lengths": [2, 10_001]}),
            ("fig4a_rb", {"lengths": list(range(1, 22))}),
            ("fig4a_rb", {"lengths": []}),
        ],
    )
    def test_count_over_its_bound_exits_3_before_any_work(
        self, tmp_path, capsys, monkeypatch, verb, scenario, params
    ):
        """The scenario runner, which sizes every array and loop from the
        counts, is never reached."""

        def never_run(*args, **kwargs):
            raise AssertionError("the scenario ran before its counts were checked")

        monkeypatch.setitem(REGISTRY, scenario, replace(REGISTRY[scenario], runner=never_run))
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        flags = ("--out-dir", str(out_dir)) if verb == "run" else ()
        assert run_cli(verb, cfg, *flags) == 3
        assert_one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_over_long_list_gives_a_short_error_line(self, tmp_path, capsys, verb):
        """The rejected list is quoted abbreviated, with its item count, so
        the error line stays short and still names the bound."""
        params = {"windows_ns": [10.0] * 1_001}
        cfg = write_config(tmp_path, {"scenario": "fig4b_tdm", "params": params})
        out_dir = tmp_path / "out"
        flags = ("--out-dir", str(out_dir)) if verb == "run" else ()
        assert run_cli(verb, cfg, *flags) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and len(line.encode()) <= 300, line
        assert "<= 1000" in line and "1001 items" in line
        assert not out_dir.exists()

    def test_count_bounds_are_inclusive_and_admit_paper_scale(self):
        at_bounds = {
            "fig2_power": {"v_points": 10_000, "rate_points": 10_000},
            "fig3_coherence": {"v_points": 10_000},
            "fig3f_slope": {"rate_points": 10_000},
            "fig4b_tdm": {"window_points": 1_000, "windows_ns": [10] * 1_000},
            "fig4a_rb": {
                "lengths": list(range(9_981, 10_001)),
                "repeats": 1_000,
                "t2_star_values_s": [1e-5] * 20,
            },
        }
        for scenario, params in at_bounds.items():
            merged = merge_params(REGISTRY[scenario], params)
            assert {key: merged[key] for key in params} == params
        for scenario, key in (("fig4b_tdm", "windows_ns"), ("fig4a_rb", "t2_star_values_s")):
            assert merge_params(REGISTRY[scenario], {key: []})[key] == []  # no items is no work
        paper = {"lengths": list(rbengine.DEFAULT_SEQUENCE_LENGTHS), "repeats": 80}
        assert merge_params(REGISTRY["fig4a_rb"], paper)["repeats"] == 80

    @pytest.mark.parametrize(
        "scenario, params, names",
        [
            (
                "fig4a_rb",
                {**FAST_RB, "t2_star_values_s": []},
                ["fig4a_rb_rb_decay_curves.csv", "fig4a_rb_rb_fidelity_vs_coherence.csv"],
            ),
            ("fig4b_tdm", {"windows_ns": []}, ["fig4b_tdm_tdm_window_sweep.csv"]),
        ],
        ids=["fig4a_rb", "fig4b_tdm"],
    )
    def test_sweep_without_items_writes_header_only_tables(self, tmp_path, scenario, params, names):
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        tables = {path.name: path.read_text().splitlines() for path in out_dir.iterdir()}
        assert sorted(tables) == names
        for lines in tables.values():
            # the header comment and the column names, and no row
            assert len(lines) == 2 and lines[0].startswith("# ") and "," in lines[1]

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("fig4b_tdm", {**FAST_TDM, "isolation_db": 6153}),
            ("fig3_coherence", {"attenuation_db": 3076}),
            ("fig3f_slope", {"attenuation_db": 3076}),
            ("methods_teff", {"projection_attenuation_db": 3076}),
        ],
    )
    def test_attenuation_bound_is_inclusive(self, tmp_path, scenario, params):
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert run_cli("validate", cfg) == 0
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("scenario", ["fig2_power", "scaling_capacity"])
    def test_power_coefficients_may_be_zero(self, tmp_path, scenario):
        keys = ["static_coeff_w_per_v3", "subthreshold_leak_w", "dyn_coeff_j_per_hz_v2"]
        if scenario == "fig2_power":
            keys.append("esd_static_w")
        cfg = write_config(tmp_path, {"scenario": scenario, "params": dict.fromkeys(keys, 0.0)})
        assert run_cli("validate", cfg) == 0
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 0

    def test_power_keys_set_their_model_fields(self, tmp_path):
        """The power tables hold the powers of the model the keys describe,
        and the per-channel power leaves out the default ESD share."""
        keys = {
            "v_threshold_v": 0.55, "static_coeff_w_per_v3": 3e-4, "esd_static_w": 0.2e-6,
            "subthreshold_leak_w": 1e-9, "dyn_coeff_j_per_hz_v2": 2e-12,
        }
        chip = MuxModel(
            v_threshold=0.55, static_coeff=3e-4, esd_static=0.2e-6, subthreshold_leak=1e-9,
            dyn_coeff=2e-12,
        )
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, {"scenario": "fig2_power", "params": keys})
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        static = (out_dir / "fig2_power_static_power.csv").read_text().splitlines()[2:]
        for v, power, _ in (line.split(",") for line in static):
            assert float(power) == chip.static_power(float(v))
        dynamic = (out_dir / "fig2_power_dynamic_power.csv").read_text().splitlines()[2:]
        for rate, v, power, _ in (line.split(",") for line in dynamic):
            assert float(power) == chip.dynamic_power(float(rate), float(v))

        del keys["esd_static_w"]
        cfg = write_config(tmp_path, {"scenario": "scaling_capacity", "params": keys})
        assert run_cli("run", cfg, "--out-dir", str(out_dir)) == 0
        rows = (out_dir / "scaling_capacity_capacity.csv").read_text().splitlines()[2:]
        per_channel = float(rows[0].split(",")[1])
        chip = replace(chip, esd_static=MuxModel.esd_static)
        assert per_channel == (
            chip.static_power(0.7) - chip.esd_static + chip.dynamic_power(1e6, 0.7)
        ) / 4

    def test_defaults_match_their_annotations(self):
        for scenario in REGISTRY.values():
            assert merge_params(scenario, scenario.defaults) == scenario.defaults

    def test_shipped_configs_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        assert [p.name for p in paths if run_cli("validate", str(p)) != 0] == []


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-3, 60),
    st.floats(),
    st.sampled_from([0.0, -1.0, 1e300, -1e300, 1e-320]),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(scenario=st.sampled_from(SCENARIOS), data=st.data())
def test_fuzzed_params_exit_cleanly(scenario, data):
    """validate every scenario and run the closed-form ones on 1-2 mutated
    parameters: any escaping exception fails, and the exit code is 0, 3 or 4."""
    names = sorted(REGISTRY[scenario].defaults)
    keys = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    params = {key: data.draw(_VALUES) for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), {"scenario": scenario, "params": params})
        assert run_cli("validate", cfg) in (0, 3, 4)
        if scenario in CLOSED_FORM:
            assert run_cli("run", cfg, "--out-dir", str(Path(tmp) / "out")) in (0, 3, 4)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "cryomux.cli", "list"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "fig4b_tdm" in result.stdout


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_outputs(scenario, tmp_path):
    """Desk-scale regression: default config, seed 0, byte-compared."""
    from cryomux.scenarios import run_scenario

    written = run_scenario(scenario, {}, seed=0, out_dir=tmp_path)
    for path in written:
        golden = GOLDEN_DIR / path.name
        assert golden.exists(), f"missing golden file {golden.name}"
        assert path.read_bytes() == golden.read_bytes(), f"{path.name} drifted"


def test_three_level_tdm_golden(tmp_path):
    """The shipped 3-level DRAG config with a finite rise time, against its
    golden: the text cells and windows match exactly, every number to 1e-9
    relative, so a BLAS kernel that rounds the batched products differently
    still passes. On the kernel that made the golden it matches byte for
    byte."""
    cfg = str(CONFIG_DIR / "fig4b_tdm_3level.json")
    assert run_cli("run", cfg, "--out-dir", str(tmp_path)) == 0
    got = (tmp_path / "fig4b_tdm_tdm_window_sweep.csv").read_text().splitlines()
    want = (GOLDEN_DIR / "fig4b_tdm_3level_tdm_window_sweep.csv").read_text().splitlines()
    assert got[:2] == want[:2] and len(got) == len(want)
    for got_row, want_row in zip(got[2:], want[2:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert got_cells[0] == want_cells[0]
        assert [float(c) for c in got_cells[1:]] == pytest.approx(
            [float(c) for c in want_cells[1:]], rel=1e-9, abs=0.0
        )
