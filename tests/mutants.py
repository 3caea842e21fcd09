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
SWEEP = "tests/test_qubitsim.py::TestTdmSweep"
CHANNEL = "tests/test_qubitsim.py::TestGateChannel"

# (name, file, old text, new text, test selection)
MUTANTS = [
    (
        "reversed _pair_products order",
        QUBITSIM,
        "return earlier + later + earlier @ later",
        "return earlier + later + later @ earlier",
        [f"{CHANNEL}::test_matches_evolve_batch"],
    ),
    (
        "non-identity padding leaves",
        QUBITSIM,
        "steps = np.zeros((_BLOCK_STEPS, *out.shape[1:]))",
        "steps = np.full((_BLOCK_STEPS, *out.shape[1:]), 1e-12)",
        [f"{CHANNEL}::test_matches_evolve_batch"],
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
        "sign of gate_channel's phase rotation",
        QUBITSIM,
        "c * parts[1] + s * parts[2], c * parts[2] - s * parts[1]",
        "c * parts[1] - s * parts[2], c * parts[2] + s * parts[1]",
        [
            f"{CHANNEL}::test_phase_is_a_frame_rotation",
            "tests/test_rbengine.py::TestGeneratorChannels",
        ],
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
        "batch-dependent start state",
        QUBITSIM,
        "xs[0] = (np.asarray(rho0).reshape(len(plans), 1, dim * dim) @ basis.T).real",
        "xs[0] = (np.asarray(rho0).reshape(len(plans), 1, dim * dim) @ basis.T).real"
        " * (1.0 + 1e-15 * (len(plans) > 1))",
        [f"{SWEEP}::test_piecewise_member_does_not_depend_on_its_batch"],
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
