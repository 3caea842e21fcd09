"""Time the paper-scale fig4a_rb op, split into its stages.

perfbench's rb_paper workload runs fig4a_rb at 3 T2* values x 10 lengths x
80 repeats (2,400 sequences) per op. This script builds that workload's
inputs (seed 901), runs one warm-up op and then OPS ops, and prints the
median milliseconds of the op and of its stages:

- calibration: from the op's start to calibrate_pi_pulse's return (the
  parameter checks, the config hash and the calibration evolve);
- channels: the 21 generator channel calls (9 tree builds: each T2*'s
  idle, X90 and X180; the other phases are rotations of the X90 or X180
  channel just built), mapped to real coordinates, with the Clifford
  channels composed from them and the pair and net tables (up to
  clifford_draws' call);
- draws: clifford_draws, the 2,400 sequences' Clifford draws (one
  generator per T2*);
- positions: the loop over pairs of Clifford positions, each step one
  product over every running sequence with each sequence's net Clifford
  carried along, and each length's recovery (up to run_rb's return);
- fits: fit_rb and the model for each T2*, up to the runner's return;
- render/write: the rest of run_scenario.

The stages are read from time stamps that wrappers take around those calls.
Each op is checked as the benchmark checks it. Last it prints the min and
median milliseconds of CHANNEL_CALLS calls of one gate_channel at
fig4a_rb's defaults (40 ns pulse, T1 30 us, T2* 12 us), the channel
construction layer:
- a 2-level X90, like the 2 driven tree builds that each op makes per
  T2*, cold (every qubitsim memo cleared, so its tree's stage weights and
  the config's Liouvillian parts are built anew, as a tree's first call
  builds them) and warm (both read from their memo, as the op's other
  driven builds read them), and the cold median less the warm one, the
  saving per warm call;
- a 2-level Y90 right after the X90, rotated from the X90's phase-0
  channel with no tree built, as 4 of each T2*'s 7 calls are;
- the 2-level idle, the one undriven generator;
- a 3-level DRAG pi pulse, which no op builds, warm.
The warm rows clear the phase-0 channel memo before each call, so that
they time a tree build.
It only reports; the benchmark decides what passes.

    python3 tests/rb_op_time.py

pytest does not collect this file (its name does not start with test_).
"""
import dataclasses
import math
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

from cryomux import noisecalc, qubitsim, rbengine, scenarios  # noqa: E402
from memos import clear_qubitsim_memos  # noqa: E402

SEED = 901
OPS = 15
CHANNEL_CALLS = 15
STAGES = ("calibration", "channels", "draws", "positions", "fits", "render/write")
# the stamps that end each stage but the last, in order
ENDS = ("calibrated", "draws_start", "draws_end", "rb_end", "computed")

stamps: dict[str, float] = {}


def stamped(name: str, call, start: str | None = None):
    """call, recording when it returned under name, and when it began
    under start if one is given."""
    def wrapper(*args, **kwargs):
        if start:
            stamps[start] = time.perf_counter()
        result = call(*args, **kwargs)
        stamps[name] = time.perf_counter()
        return result
    return wrapper


def op_stages(bench, i: int) -> list[float]:
    stamps.clear()
    begin = time.perf_counter()
    paths = bench.op(i)
    end = time.perf_counter()
    problems = bench.check(i, paths)
    if problems:
        raise RuntimeError(f"op {i} failed its check: {problems[0]}")
    times = [begin, *(stamps[name] for name in ENDS), end]
    return [later - earlier for earlier, later in zip(times, times[1:])]


def channel_times() -> list[tuple[str, float, float]]:
    """(label, min ms, median ms) of CHANNEL_CALLS gate_channel calls of
    each channel, with its row's memo clearing run before each call."""
    pi_pulse = qubitsim.calibrate_pi_pulse(40e-9)
    x90 = dataclasses.replace(pi_pulse, amplitude=pi_pulse.amplitude / 2)
    noise = qubitsim.SimConfig.from_coherence(noisecalc.CoherenceRecord(30e-6, 12e-6, 12e-6))
    warm = qubitsim._phase_free_channel.cache_clear
    channels = (
        ("2-level X90, cold", x90, noise, 0.0, clear_qubitsim_memos),
        ("2-level X90, warm", x90, noise, 0.0, warm),
        ("2-level Y90 after X90 (rotated)", x90, noise, math.pi / 2.0, lambda: None),
        ("2-level idle, warm", dataclasses.replace(pi_pulse, amplitude=0.0), noise, 0.0, warm),
        ("3-level DRAG pi pulse, warm", dataclasses.replace(pi_pulse, shape="cosine_drag"),
         dataclasses.replace(noise, levels=3), 0.0, warm),
    )
    rows = []
    for label, pulse, config, phase, clear in channels:
        qubitsim.gate_channel(pulse, config)  # warm-up
        seconds = []
        for _ in range(CHANNEL_CALLS):
            clear()
            start = time.perf_counter()
            qubitsim.gate_channel(pulse, config, phase=phase)
            seconds.append(time.perf_counter() - start)
        rows.append((label, 1e3 * min(seconds), 1e3 * statistics.median(seconds)))
    return rows


def main() -> int:
    scenario = scenarios.REGISTRY["fig4a_rb"]
    scenarios.REGISTRY["fig4a_rb"] = dataclasses.replace(scenario, runner=stamped("computed", scenario.runner))
    qubitsim.calibrate_pi_pulse = stamped("calibrated", qubitsim.calibrate_pi_pulse)
    rbengine.clifford_draws = stamped("draws_end", rbengine.clifford_draws, start="draws_start")
    rbengine.run_rb = stamped("rb_end", rbengine.run_rb)

    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.make_inputs("rb_paper", SEED, Path(tmp))
        bench = workloads.build("rb_paper", inputs, Path(tmp), run.ROOT)
        bench.prepare()
        op_stages(bench, 0)  # warm-up
        samples = [op_stages(bench, i) for i in range(1, OPS + 1)]
    print(f"paper-scale fig4a_rb op ({bench.items_per_op} sequences, seed {SEED}), median ms")
    print()
    print("| op | runs | total | " + " | ".join(STAGES) + " |")
    print("|---" * (len(STAGES) + 3) + "|")
    columns = [[sum(sample) for sample in samples], *zip(*samples)]
    cells = " | ".join(f"{1e3 * statistics.median(column):.1f}" for column in columns)
    print(f"| fig4a_rb | {len(samples)} | {cells} |")
    print()
    print(f"one gate_channel at fig4a_rb's defaults, {CHANNEL_CALLS} calls, ms")
    print()
    print("| channel | min | median |")
    print("|---|---|---|")
    rows = channel_times()
    for label, fastest, median in rows:
        print(f"| {label} | {fastest:.2f} | {median:.2f} |")
    print()
    saving = rows[0][2] - rows[1][2]
    print(f"saving per warm 2-level X90 call (cold median - warm median): {saving:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
