"""Report which mutants of the source the tests catch.

Each mutant names a file under src/, an exact piece of its text, the text
that replaces it and a test selection. For each mutant this copies src/ into
a temporary directory, applies the mutant there and runs the selection
against the copy with `pytest -x`. The mutant is caught when a selected test
fails and survives when all pass. It prints a Markdown table with the first
failing test of each caught mutant.

A mutant whose old text is missing from its file, or appears more than once,
is an error: it is reported and the script exits with status 1, so the list
follows the code. Caught and survived mutants only report.

    python3 tests/mutants.py

pytest does not collect this file (its name does not start with test_).
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUBITSIM = "src/cryomux/qubitsim.py"
FITKIT = "src/cryomux/fitkit.py"
RBENGINE = "src/cryomux/rbengine.py"
NOISECALC = "src/cryomux/noisecalc.py"
SCENARIOS = "src/cryomux/scenarios.py"
CHAINMODEL = "src/cryomux/chainmodel.py"
SWEEP = "tests/test_qubitsim.py::TestTdmSweep"
CHANNEL = "tests/test_qubitsim.py::TestGateChannel"
ORACLE = "tests/test_rbengine.py::TestExactOracle"

# (name, file, old text, new text, test selection)
MUTANTS = [
    (
        "reversed _pair_products order",
        QUBITSIM,
        "pairs += earlier @ later",
        "pairs += later @ earlier",
        [f"{CHANNEL}::test_matches_evolve_batch"],
    ),
    (
        "RK4 stage buffer not reset to x before the third stage",
        QUBITSIM,
        "np.add(x, a2, out=x_s)",
        "x_s += a2",
        [f"{CHANNEL}::test_matches_longdouble_steps"],
    ),
    (
        "non-identity padding leaves",
        QUBITSIM,
        "steps = np.zeros((leaves, *out.shape[1:]))",
        "steps = np.full((leaves, *out.shape[1:]), 1e-12)",
        [f"{CHANNEL}::test_matches_evolve_batch"],
    ),
    (
        "joint climb over the block tops one depth too high",
        QUBITSIM,
        "root = climb(np.concatenate(blocks), tops_depth, 0, 1)",
        "root = climb(np.concatenate(blocks), tops_depth + 1, 0, 1)",
        [f"{CHANNEL}::test_driven_tree_matches_pairwise_reduction"],
    ),
    (
        "zero-drive end node taken as full",
        QUBITSIM,
        "if (i + 1) << k <= n:",
        "if i << k < n:",
        [f"{CHANNEL}::test_zero_drive_tree_matches_pairwise_reduction"],
    ),
    (
        "reversed RB pair table order",
        RBENGINE,
        "pairs = (cliffords[:, None] @ cliffords[:, :, None])",
        "pairs = (cliffords[:, :, None] @ cliffords[:, None])",
        ["tests/test_rbengine.py::TestRunRb::test_batched_run_matches_gate_by_gate_reference"],
    ),
    (
        "_SNAP_STEPS 1e-9 -> 0.5",
        QUBITSIM,
        "_SNAP_STEPS = 1e-9",
        "_SNAP_STEPS = 0.5",
        [
            f"{SWEEP}::test_piecewise_plan_splits_only_its_own_steps",
            f"{SWEEP}::test_shipped_sweep_matches_closed_form",
        ],
    ),
    (
        "gate_channel's phase rotation by the conjugate of U",
        QUBITSIM,
        "u = np.exp(1j * phase * np.arange(config.levels))",
        "u = np.exp(-1j * phase * np.arange(config.levels))",
        [
            f"{CHANNEL}::test_phase_is_a_frame_rotation",
            "tests/test_rbengine.py::TestGeneratorChannels",
        ],
    ),
    (
        "tree weights memo keyed without the step",
        QUBITSIM,
        "    weights = _tree_weights(pulse, config.levels, dt, level)\n",
        '    any_step = type("AnyStep", (float,), {"__hash__": lambda self: 0, "__eq__": lambda self, other: True})\n'
        "    weights = _tree_weights(pulse, config.levels, any_step(dt), level)\n",
        [f"{CHANNEL}::test_memos_give_the_channels_built_cold"],
    ),
    (
        "gate_channel rotating the memo's channel in place",
        QUBITSIM,
        "        channel = z[:, None] * channel * z.conj()[None, :]\n",
        "        channel.flags.writeable = True\n"
        "        channel *= z[:, None]\n"
        "        channel *= z.conj()[None, :]\n"
        "        channel = channel.copy()\n",
        [f"{CHANNEL}::test_memos_give_the_channels_built_cold"],
    ),
    (
        "phase-0 channel memo keyed on the pulse alone",
        QUBITSIM,
        "@lru_cache(maxsize=1)\ndef _phase_free_channel(",
        "def _pulse_keyed(build):\n"
        "    passed = {}\n"
        "    memo = lru_cache(maxsize=1)(lambda pulse: build(pulse, passed['config']))\n"
        "\n"
        "    def call(pulse, config):\n"
        "        passed['config'] = config\n"
        "        return memo(pulse)\n"
        "\n"
        "    call.cache_clear, call.cache_info = memo.cache_clear, memo.cache_info\n"
        "    return call\n"
        "\n"
        "\n"
        "@_pulse_keyed\ndef _phase_free_channel(",
        [f"{CHANNEL}::test_channel_does_not_depend_on_call_history"],
    ),
    (
        "modulator's time constant 1 % long",
        CHAINMODEL,
        "self._tau = rise_time * _RISE_TO_TAU",
        "self._tau = 1.01 * rise_time * _RISE_TO_TAU",
        [f"{SWEEP}::test_finite_rise_sweep_matches_closed_form"],
    ),
    (
        "split step on the previous segment's drive level",
        QUBITSIM,
        'plan.append((stop, ("sub", levels[s], start, stop)))',
        'plan.append((stop, ("sub", levels[s - 1], start, stop)))',
        [f"{SWEEP}::test_piecewise_agrees_with_the_stepped_route"],
    ),
    (
        "stage times not clamped up to their segment's start",
        QUBITSIM,
        "t_eval = np.minimum(np.maximum(stencil, lo[..., None, :]), last[..., None, :])",
        "t_eval = np.minimum(stencil, last[..., None, :])",
        [
            f"{SWEEP}::test_no_step_reads_two_drive_levels",
            f"{SWEEP}::test_stepped_route_matches_closed_form",
        ],
    ),
    (
        "T_phi's factor 2 -> 1",
        QUBITSIM,
        "math.sqrt(2.0 / config.t_phi)",
        "math.sqrt(1.0 / config.t_phi)",
        ["tests/test_rbengine.py::TestGeneratorChannels"],
    ),
    (
        "0 polish steps",
        FITKIT,
        "_POLISH_STEPS = 3",
        "_POLISH_STEPS = 0",
        ["tests/test_fitkit.py::TestLeastSquaresCore"],
    ),
    (
        "RB Jacobian's p column without its amplitude",
        FITKIT,
        "_columns(p**m, a * m * p ** (m - 1), 1.0)",
        "_columns(p**m, m * p ** (m - 1), 1.0)",
        ["tests/test_fitkit.py::TestLeastSquaresCore::test_rb_jacobian_matches_finite_differences"],
    ),
    (
        "format_number's 1e-4 <= boundary taken as <",
        SCENARIOS,
        "if 1e-4 <= magnitude < 1e6:",
        "if 1e-4 < magnitude < 1e6:",
        ["tests/test_output_format.py::TestFormatNumber::test_matches_numpy_at_the_boundaries"],
    ),
    (
        "render_json's row indent 4 -> 3 spaces",
        SCENARIOS,
        'rows.append(_json_list(cells, "    "))',
        'rows.append(_json_list(cells, "   "))',
        ["tests/test_output_format.py::TestRenderJson::test_matches_json_dumps"],
    ),
    (
        "batch-dependent start state",
        QUBITSIM,
        "xs[0] = (np.asarray(rho0).reshape(len(plans), 1, dim * dim) @ basis.T).real",
        "xs[0] = (np.asarray(rho0).reshape(len(plans), 1, dim * dim) @ basis.T).real"
        " * (1.0 + 1e-15 * (len(plans) > 1))",
        [f"{SWEEP}::test_piecewise_member_does_not_depend_on_its_batch"],
    ),
    (
        "carried net table's rows read with stride 575",
        RBENGINE,
        "[table.composition].reshape(-1) * n_pairs",
        "[table.composition].reshape(-1) * (n_pairs - 1)",
        ["tests/test_rbengine.py::TestSequences::test_carried_nets_equal_the_left_fold"],
    ),
    (
        "carried nets of an ended length dropped from the back",
        RBENGINE,
        "states, nets = states[:, block:], nets[block:]",
        "states, nets = states[:, block:], nets[:len(nets) - block]",
        ["tests/test_rbengine.py::TestSequences::test_carried_nets_equal_the_left_fold"],
    ),
    (
        "no spare RB column",
        RBENGINE,
        "    draws.append(np.zeros((1, max(lengths, default=0)), dtype=np.int8))\n"
        "    noise_of = np.append(np.tile(np.arange(len(noises)).repeat(repeats), len(lengths)), 0)\n",
        "    noise_of = np.tile(np.arange(len(noises)).repeat(repeats), len(lengths))\n",
        ["tests/test_rbengine.py::TestRunRb::test_each_noise_row_equals_a_one_noise_call"],
    ),
    (
        "RB pair channel gathered with i and j swapped",
        RBENGINE,
        "pairs.take(offsets + code, axis=1).reshape(dim, dim, -1)",
        "pairs.take(offsets + code, axis=1).reshape(dim, dim, -1).swapaxes(0, 1)",
        ["tests/test_rbengine.py::TestRunRb::test_batched_run_matches_gate_by_gate_reference"],
    ),
    (
        "every noise draws from default_rng(seed)",
        RBENGINE,
        "rng = np.random.default_rng(seed + i)",
        "rng = np.random.default_rng(seed)",
        ["tests/test_rbengine.py::TestRunRb::test_each_noise_row_equals_a_one_noise_call"],
    ),
    (
        "RB draws never the identity",
        RBENGINE,
        "rng.integers(\n                0, len(CLIFFORD_DECOMPOSITIONS)",
        "rng.integers(\n                1, len(CLIFFORD_DECOMPOSITIONS)",
        [f"{ORACLE}::test_run_rb_means_are_unbiased"],
    ),
    (
        "dephasing rate without its ratio-first fallback",
        NOISECALC,
        "        rate = float(n) * ((4 * x * x * k) / (k * k + 4 * x * x))\n",
        "        pass\n",
        ["tests/test_noisecalc.py::TestShotNoiseOccupancy"],
    ),
    (
        "non-numeric trace row after the data skipped",
        FITKIT,
        "                if times:\n",
        "                if False:\n",
        ["tests/test_fitkit.py::TestCsvIo"],
    ),
    (
        "third cell of a numeric trace row dropped",
        FITKIT,
        "            if len(row) > 2:\n",
        "            if False:\n",
        ["tests/test_fitkit.py::TestCsvIo"],
    ),
]


def run_mutant(file: str, old: str, new: str, tests: list[str]):
    """("caught", first failing test), ("survived", "") or ("error", why)."""
    text = (ROOT / file).read_text()
    if text.count(old) != 1:
        return "error", f"old text found {text.count(old)} times in {file}"
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        (Path(tmp) / file).write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return "survived", ""
    failed = re.findall(r"^FAILED (\S+)", result.stdout, flags=re.MULTILINE)
    if result.returncode == 1 and failed:
        return "caught", failed[0]
    return "error", f"pytest exited {result.returncode}: {result.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    print("| mutant | result | first failing test | seconds |")
    print("|---|---|---|---|")
    errors = 0
    for name, file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        result, detail = run_mutant(file, old, new, tests)
        errors += result == "error"
        print(f"| {name} | {result} | {detail} | {time.perf_counter() - start:.1f} |", flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
