"""CLI contract: verbs, exit codes, determinism and golden outputs."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cryomux.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_non_increasing_lengths_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path, {"scenario": "fig4a_rb", "params": {"lengths": [8, 4]}}
        )
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 4

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
