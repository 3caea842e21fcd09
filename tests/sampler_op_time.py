"""Time the tdm_sweep ops whose margins the integrator's speed and memory
move, and the integrator step layer inside them.

perfbench/test_perfbench.py::test_sampler_time_is_taken_out_of_the_ops needs
more than 10 host-speed samples, 5 ms apart, inside one tdm_sweep op, so the
op must last over ~55 ms. This script builds that op the way the test's
small_inputs fixture does (2 windows, 1 reference window, seed 0), runs it 10
times and prints the min, median and max op time, so the margin left above
~55 ms is visible. It then builds one full op the way perfbench's tdm_sweep
workload does (31 windows, 3 reference windows, seed 0), times it 5 times,
and prints the process's peak resident memory, which covers both. Last it
times the integrator layer of that op, 5 calls each after a warm-up, in ms:
the 2-level calibration evolve and the 2-level (ideal switching) and 3-level
(2.6 ns rise time) 31-window sweeps of seed 0. It only reports; the sampler
test and the benchmark decide what passes.

    python3 tests/sampler_op_time.py

pytest does not collect this file (its name does not start with test_).
"""
import resource
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

from cryomux import chainmodel, qubitsim, scenarios  # noqa: E402

SHRUNKEN_OPS = 10
FULL_OPS = 5
LAYER_CALLS = 5


def time_ops(n_ops: int) -> list[float] | None:
    """Milliseconds of n_ops tdm_sweep ops at the workload's current sizes,
    sorted, or None if an op fails its check."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs("tdm_sweep", 0, Path(tmp))
        bench = workloads.build("tdm_sweep", inputs, Path(tmp), run.ROOT)
        bench.prepare()
        seconds = []
        for i in range(n_ops):
            start = time.perf_counter()
            result = bench.op(i)
            seconds.append(time.perf_counter() - start)
            problems = bench.check(i, result)
            if problems:
                print(f"op {i} failed: {problems[0]}", file=sys.stderr)
                return None
    return sorted(1e3 * s for s in seconds)


def time_calls(call) -> list[float]:
    """Seconds of LAYER_CALLS calls of call, after one warm-up call, sorted."""
    call()
    seconds = []
    for _ in range(LAYER_CALLS):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return sorted(seconds)


def integrator_layer() -> None:
    """Print the ms of the calibration evolve and of each 31-window sweep,
    as fig4b_tdm runs them at its defaults and at perfbench's 3-level
    settings."""
    defaults = scenarios.REGISTRY["fig4b_tdm"].defaults
    t_g = defaults["t_g_s"]
    with tempfile.TemporaryDirectory() as tmp:
        windows_ns = workloads.make_inputs("tdm_sweep", 0, Path(tmp))["windows_ns"]
    windows = [w * 1e-9 for w in windows_ns]

    config = qubitsim.SimConfig(levels=2)
    pulse = qubitsim.calibrate_pi_pulse(t_g, "cosine", config)
    ground = qubitsim.QubitState.ground(2)
    ms = [1e3 * s for s in time_calls(lambda: qubitsim.evolve(ground, pulse, config))]
    print(
        f"calibration evolve (2-level, 2,000 steps), {LAYER_CALLS} runs: "
        f"min {ms[0]:.1f} ms, median {statistics.median(ms):.1f} ms"
    )
    level3 = workloads.TDM_LEVEL3
    for levels, shape, rise_time in (
        (2, "cosine", defaults["rise_time_s"]),
        (3, level3["pulse_shape"], level3["rise_time_s"]),
    ):
        config = qubitsim.SimConfig(levels=levels)
        pulse = qubitsim.calibrate_pi_pulse(t_g, shape, config)
        mux = chainmodel.MuxModel(isolation_db=defaults["isolation_db"], rise_time=rise_time)
        ms = [1e3 * s for s in time_calls(lambda: qubitsim.tdm_sweep(windows, mux, pulse, config))]
        print(
            f"{len(windows)}-window {levels}-level sweep (rise time {rise_time!r} s), "
            f"{LAYER_CALLS} runs: min {ms[0]:.1f} ms, median {statistics.median(ms):.1f} ms"
        )


def main() -> int:
    full = workloads.TDM_WINDOWS, workloads.TDM_REFERENCE_WINDOWS
    workloads.TDM_WINDOWS = 2
    workloads.TDM_REFERENCE_WINDOWS = 1
    ms = time_ops(SHRUNKEN_OPS)
    if ms is None:
        return 1
    print(
        f"shrunken tdm_sweep op, {SHRUNKEN_OPS} runs: min {ms[0]:.1f} ms, "
        f"median {statistics.median(ms):.1f} ms, max {ms[-1]:.1f} ms"
    )
    workloads.TDM_WINDOWS, workloads.TDM_REFERENCE_WINDOWS = full
    ms = time_ops(FULL_OPS)
    if ms is None:
        return 1
    print(
        f"full tdm_sweep op ({full[0]} windows), {FULL_OPS} runs: min {ms[0]:.1f} ms, "
        f"median {statistics.median(ms):.1f} ms, max {ms[-1]:.1f} ms"
    )
    # ru_maxrss is in KiB on Linux
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS of this process: {peak_mib:.1f} MiB")
    integrator_layer()
    return 0


if __name__ == "__main__":
    sys.exit(main())
