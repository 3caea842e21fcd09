"""Tests of the benchmark itself, on shrunken inputs:

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_cryomux()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cryomux import qubitsim  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "TDM_WINDOWS", 2)
    monkeypatch.setattr(workloads, "TDM_REFERENCE_WINDOWS", 1)
    monkeypatch.setattr(workloads, "RB_LENGTHS", (2, 8, 32, 128, 512))
    monkeypatch.setattr(workloads, "RB_REPEATS", 4)
    # 4 repeats instead of 80 widen the statistical fit-to-model gap
    monkeypatch.setattr(workloads, "RB_FIDELITY_TOL", 1e-3)
    monkeypatch.setattr(workloads, "MIX_SCHEDULE_DECKS", 3)


def build(workload, tmp_path, seed=0):
    inputs = workloads.make_inputs(workload, seed, tmp_path)
    bench = workloads.build(workload, inputs, tmp_path, run.ROOT)
    bench.prepare()
    return bench


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    report = run.run(workload, seed=3, seconds=0.0, trace=trace)
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert list(report["metrics"]) == list(expected)
    for name, (value, unit, samples) in report["metrics"].items():
        assert math.isfinite(value) and unit == expected[name] and samples >= 1, name
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert list(report["printed"]) == (["failed_frac"] if trace else list(run.PRINTED_ONLY))
    assert not (run.ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}").exists()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    bench = build(workload, tmp_path)
    tracer = tracing.Tracer()
    n_ops = len(bench.schedule) // workloads.MIX_SCHEDULE_DECKS if workload == "analysis_mix" else 1
    for i in range(n_ops):
        plain = bench.op(i)
        plain_bytes = [p.read_bytes() for p in plain] if isinstance(plain, list) else repr(plain)
        traced, _ = tracer.run_op(bench.op, i)
        traced_bytes = [p.read_bytes() for p in traced] if isinstance(traced, list) else repr(traced)
        assert traced_bytes == plain_bytes
    metrics = tracer.metrics(0.0)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_names_bound_in_other_modules_are_traced(tmp_path):
    bench = build("rb_paper", tmp_path)
    tracer = tracing.Tracer()
    tracer.run_op(bench.op, 0)
    metrics = tracer.metrics(0.0)
    # rbengine binds gate_channel and fit_rb_decay by name
    assert metrics["qubitsim.gate_channel.calls"] == 21
    assert metrics["fitkit.fit.calls"] == 3 and metrics["fitkit.least_squares.calls"] == 3
    assert metrics["rbengine.run_rb.ns_per_clifford"] > 0
    assert metrics["qubitsim.evolve.calls"] >= 1  # pulse calibration
    from cryomux import rbengine

    assert rbengine.gate_channel is qubitsim.gate_channel
    assert not hasattr(qubitsim.gate_channel, "__wrapped__")


def test_removed_function_is_skipped_with_a_note(tmp_path, monkeypatch):
    monkeypatch.delattr(qubitsim, "tdm_experiment")
    tracer = tracing.Tracer(tracing.SITES + (tracing.Site("cryomux.rbengine:no_such_gate", "x"),))
    assert any("qubitsim:tdm_experiment" in note for note in tracer.notes)
    assert any("no_such_gate" in note for note in tracer.notes)
    bench = build("analysis_mix", tmp_path)
    tracer.run_op(bench.op, 0)
    metrics = tracer.metrics(0.0)
    assert metrics["qubitsim.tdm_experiment.calls"] == 0
    assert metrics["qubitsim.evolve.calls"] == 0


def test_wrong_golden_value_counts_as_failed(tmp_path):
    bench = build("analysis_mix", tmp_path)
    bench.golden["methods_t1_limit_t1_limit"]["rows"][0][1] *= 1.0 + 1e-6
    records = run.run_ops(bench, 0.3)
    ops = [bench.schedule[i % len(bench.schedule)][0] for i in range(len(records))]
    assert list(map(bool, records.ok)) == [name != "methods_t1_limit" for name in ops]


def test_wrong_reference_counts_as_failed(tmp_path):
    bench = build("tdm_sweep", tmp_path)
    bench.reference[next(iter(bench.reference))] += 1e-3
    assert list(map(bool, run.run_ops(bench, 0.0).ok)) == [False]


def test_raising_op_counts_as_failed_and_the_run_goes_on(tmp_path):
    bench = build("analysis_mix", tmp_path)
    op = bench.op
    bench.op = lambda i: 1 / 0 if i == 1 else op(i)
    records = run.run_ops(bench, 0.05)
    assert list(map(bool, records.ok[:3])) == [True, False, True]


def test_wrong_fit_truth_counts_as_failed(tmp_path):
    bench = build("analysis_mix", tmp_path)
    i = next(i for i, (name, _) in enumerate(bench.schedule) if name == "rb")
    assert bench.check(i, bench.op(i)) == []
    _, truth = bench.traces["rb"][bench.schedule[i][1]]
    truth["p"] -= 0.01
    assert bench.check(i, bench.op(i))


def test_sampler_time_is_taken_out_of_the_ops(tmp_path):
    bench = build("tdm_sweep", tmp_path)
    with hostspeed.HostSampler(interval_s=0.005) as sampler:
        start = time.perf_counter()
        records = run.run_ops(bench, 0.0, sampler=sampler)
        wall = time.perf_counter() - start
    assert sampler.units > 10 and records.ok[0]
    # the op's time excludes the samples that interrupted it
    assert records.seconds[0] == pytest.approx(wall - sampler.busy_s, abs=0.02)
    assert len(sampler.op_slowdowns()) == 1


def test_slowdown_comes_from_the_samples_around_an_op(monkeypatch):
    monkeypatch.setattr(hostspeed, "UNIT_NOMINAL_S", 4e-4)
    sampler = hostspeed.HostSampler()
    assert sampler.slowdown() == 1.0
    sampler._ends.extend([1.0, 2.0, 3.0, 10.0])
    sampler._durations.extend([4e-4, 8e-4, 8e-4, 12e-4])
    sampler.busy_s = sum(sampler._durations)
    for op in [(1.5, 3.5), (0.9, 1.1), (5.0, 6.0)]:
        sampler.add_op(*op)
    assert sampler.slowdown() == pytest.approx(2.0)  # the whole run
    # samples during the op; widened to a second; none, so the whole run
    assert list(sampler.op_slowdowns()) == pytest.approx([2.0, 1.0, 2.0])


def test_host_slowdown_scales_the_time_metrics(monkeypatch):
    monkeypatch.setattr(hostspeed, "UNIT_NOMINAL_S", 1.0)  # no real unit takes a second
    report = run.run("analysis_mix", seed=3, seconds=0.5, trace=False)
    metrics, printed = report["metrics"], report["printed"]
    assert printed["host_slowdown"][0] < 0.01
    assert metrics["op_p50_s"][0] > 100 * printed["wall_op_p50_s"][0]
    assert metrics["throughput_per_s"][0] < printed["wall_throughput_per_s"][0] / 100
