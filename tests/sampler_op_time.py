"""Time the shrunken tdm_sweep op that perfbench's sampler test runs.

perfbench/test_perfbench.py::test_sampler_time_is_taken_out_of_the_ops needs
more than 10 host-speed samples, 5 ms apart, inside one tdm_sweep op, so the
op must last over ~55 ms. This script builds that op the way the test's
small_inputs fixture does (2 windows, 1 reference window, seed 0), runs it 10
times and prints the min, median and max op time, so the margin left above
~55 ms is visible. It only reports; the sampler test decides what passes.

    python3 tests/sampler_op_time.py

pytest does not collect this file (its name does not start with test_).
"""
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

OPS = 10


def main() -> int:
    workloads.TDM_WINDOWS = 2
    workloads.TDM_REFERENCE_WINDOWS = 1
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs("tdm_sweep", 0, Path(tmp))
        bench = workloads.build("tdm_sweep", inputs, Path(tmp), run.ROOT)
        bench.prepare()
        seconds = []
        for i in range(OPS):
            start = time.perf_counter()
            result = bench.op(i)
            seconds.append(time.perf_counter() - start)
            problems = bench.check(i, result)
            if problems:
                print(f"op {i} failed: {problems[0]}", file=sys.stderr)
                return 1
    ms = sorted(1e3 * s for s in seconds)
    print(
        f"shrunken tdm_sweep op, {OPS} runs: min {ms[0]:.1f} ms, "
        f"median {statistics.median(ms):.1f} ms, max {ms[-1]:.1f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
