"""CLI contract: verbs, exit codes, determinism and golden outputs."""
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
            ("fig3_coherence", {"attenuation_db": -5000}),
            ("fig3f_slope", {"attenuation_db": -5000}),
            ("scaling_capacity", {"per_channel_nominal_w": 1e-320}),
            # a 7 PiB sweep array: the allocation fails before memory is used
            ("fig2_power", {"v_points": 10**15}),
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
            ("fig2_power", {"mux": {"isolation_db": "abc"}}),
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
        ],
    )
    def test_malformed_value_exits_3(self, tmp_path, capsys, verb, scenario, params):
        cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
        out_dir = tmp_path / "out"
        flags = ("--out-dir", str(out_dir)) if verb == "run" else ()
        assert run_cli(verb, cfg, *flags) == 3
        assert_one_error_line(capsys)
        assert not out_dir.exists()

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
# objects reach MuxModel.from_dict through the `mux` parameters
_MUX_OBJECTS = st.dictionaries(
    st.sampled_from(["v_threshold_v", "isolation_db", "rise_time_s", "port_map", "bogus"]),
    st.one_of(_SCALARS, st.dictionaries(st.text(max_size=2), _SCALARS)),
    max_size=2,
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), _MUX_OBJECTS)


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
