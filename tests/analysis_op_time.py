"""Time each kind of analysis_mix op, split into its stages.

perfbench's analysis_mix workload runs, in a shuffled order, one of six
closed-form scenarios (in csv or json) or one of four fits of a noisy trace
read back from CSV. This script builds that workload's inputs (seed 901),
runs every scenario REPEATS times per format and every fit once per trace,
REPEATS times over, and prints the median microseconds of each op kind and
of its stages:

- a scenario op: compute (parameters, hash and the runner), render (every
  table) and write (the temporary files and their replace);
- a fit op: read (read_trace_csv), initial guess (from the fit's entry to
  its least_squares call), LM (the damped loop), polish (the undamped
  steps after convergence) and covariance (the last Jacobian and pinv).

The stages are read from time stamps that wrappers take around
run_scenario's runner and renderers, and around least_squares and the
Jacobian it is given: the last Jacobian call starts the covariance, and the
_POLISH_STEPS calls before it the polish. It only reports; the benchmark
decides what passes.

    python3 tests/analysis_op_time.py

pytest does not collect this file (its name does not start with test_).
"""
import dataclasses
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

run.load_cryomux()

import workloads  # noqa: E402

from cryomux import fitkit, scenarios  # noqa: E402

SEED = 901
REPEATS = 50
FIT_CALLS = {
    "t1": fitkit.fit_t1,
    "echo": fitkit.fit_echo,
    "ramsey": fitkit.fit_ramsey,
    "rb": fitkit.fit_rb_decay,
}
SCENARIO_STAGES = ("compute", "render", "write")
FIT_STAGES = ("read", "initial guess", "LM", "polish", "covariance")

stamps: dict[str, float] = {}


def stamped(name: str, call):
    """call, recording when it returned under name."""
    def wrapper(*args, **kwargs):
        result = call(*args, **kwargs)
        stamps[name] = time.perf_counter()
        return result
    return wrapper


def timed_least_squares(least_squares):
    """least_squares, recording when it started and when each Jacobian call began."""
    def wrapper(model, data, initial, *args, jacobian, **kwargs):
        stamps["fit_start"] = time.perf_counter()
        starts = stamps["jacobians"] = []

        def jac(x):
            starts.append(time.perf_counter())
            return jacobian(x)

        result = least_squares(model, data, initial, *args, jacobian=jac, **kwargs)
        if not result.converged:
            raise RuntimeError(f"fit did not converge: {result.status}")
        return result
    return wrapper


def scenario_stages(name: str, fmt: str, out_dir: Path) -> list[float]:
    start = time.perf_counter()
    scenarios.run_scenario(name, out_dir=out_dir, fmt=fmt)
    end = time.perf_counter()
    return [stamps["computed"] - start, stamps["rendered"] - stamps["computed"], end - stamps["rendered"]]


def fit_stages(kind: str, path: str) -> list[float]:
    start = time.perf_counter()
    times, signal = fitkit.read_trace_csv(path)
    read = time.perf_counter()
    FIT_CALLS[kind](times, signal)
    end = time.perf_counter()
    jacobians = stamps["jacobians"]
    polish = jacobians[-1 - fitkit._POLISH_STEPS]
    return [
        read - start,
        stamps["fit_start"] - read,
        polish - stamps["fit_start"],
        jacobians[-1] - polish,
        end - jacobians[-1],
    ]


def header(stages: tuple[str, ...]) -> None:
    print()
    print("| op | runs | total | " + " | ".join(stages) + " |")
    print("|---" * (len(stages) + 3) + "|")


def report(label: str, samples: list[list[float]]) -> None:
    columns = [[sum(sample) for sample in samples], *zip(*samples)]
    cells = " | ".join(f"{1e6 * statistics.median(column):.0f}" for column in columns)
    print(f"| {label} | {len(samples)} | {cells} |")


def main() -> int:
    for name in workloads.CLOSED_FORM:
        scenario = scenarios.REGISTRY[name]
        scenarios.REGISTRY[name] = dataclasses.replace(scenario, runner=stamped("computed", scenario.runner))
    for method in ("render_csv", "render_json"):
        setattr(scenarios.Table, method, stamped("rendered", getattr(scenarios.Table, method)))
    fitkit.least_squares = timed_least_squares(fitkit.least_squares)

    print(f"analysis_mix op times (seed {SEED}), median µs")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs("analysis_mix", SEED, Path(tmp))
        out_dir = Path(tmp) / "out"
        header(SCENARIO_STAGES)
        for name in workloads.CLOSED_FORM:
            for fmt in ("csv", "json"):
                scenario_stages(name, fmt, out_dir)  # warm-up
                samples = [scenario_stages(name, fmt, out_dir) for _ in range(REPEATS)]
                report(f"{name} {fmt}", samples)
        header(FIT_STAGES)
        for kind in workloads.FITS:
            paths = [path for path, _ in inputs["traces"][kind]]
            fit_stages(kind, paths[0])  # warm-up
            samples = [fit_stages(kind, path) for _ in range(REPEATS) for path in paths]
            report(f"fit {kind}", samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
