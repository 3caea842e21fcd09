"""Run one cryomux benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tdm_sweep --seed 0 --seconds 20 --trace 0

Run from anywhere; the cryomux sources are taken from the `src/` directory
next to this one. With --trace 0 the run reports the end-to-end metrics
with tracing off, with op times scaled to a nominal host speed measured by
hostspeed.py; with --trace 1 it alternates traced and untraced ops and
reports the per-layer metrics in plain wall time. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# One thread per process, set before numpy loads its BLAS.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tdm_sweep", "rb_paper", "analysis_mix")
SETUP_PROBES = 5

# End-to-end metric name -> unit, as listed in BENCHMARK.json.
END_TO_END = {
    "throughput_per_s": "items/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed with the others but left out of the JSON result: op_p99_s spread
# too far between runs on a shared host to carry a bound, and failed_frac
# is 0 when the program is correct (the result carries failed/attempted).
# The wall_* values are the gated time metrics before the host-speed scaling
# of hostspeed.py; host_slowdown is the run's mean and sampler_share the
# part of the timed loop spent sampling.
PRINTED_ONLY = {
    "op_p99_s": "s",
    "wall_throughput_per_s": "items/s",
    "wall_op_p50_s": "s",
    "wall_setup_s": "s",
    "host_slowdown": "1",
    "sampler_share": "1",
    "failed_frac": "1",
}


def load_cryomux():
    """Import cryomux from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cryomux

    if src.resolve() not in Path(cryomux.__file__).resolve().parents:
        raise ImportError(f"cryomux imported from {cryomux.__file__}, not from {src}")
    return cryomux


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            revision = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_revision": revision,
    }


class Records:
    """Per op of a timed loop: wall seconds (the sampler's time taken out),
    whether it was traced, and whether its output passed its checks.

    Flat arrays: peak_rss_mib includes the benchmark's own memory, and with
    a list of per-op objects it grew by ~200 bytes per op, so a 2x faster
    analysis_mix read 10 % more. These arrays and the sampler's op intervals
    take 26 bytes per op."""

    def __init__(self):
        self.seconds = array("d")
        self.traced = bytearray()
        self.ok = bytearray()

    def __len__(self) -> int:
        return len(self.seconds)

    def append(self, seconds: float, traced: bool, ok: bool) -> None:
        self.seconds.append(seconds)
        self.traced.append(traced)
        self.ok.append(ok)


def setup_seconds(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Time fresh interpreters that import cryomux and make the inputs.

    Returns their wall times and the same times scaled by the host slowdown
    that this process samples while it waits."""
    walls = []
    with hostspeed.HostSampler() as sampler:
        for k in range(SETUP_PROBES):
            probe_dir = workdir / f"probe{k}"
            start = time.perf_counter()
            # no timeout: Popen.wait with one polls in sleeps of up to 50 ms
            subprocess.run(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(probe_dir)],
                check=True,
            )
            end = time.perf_counter()
            sampler.add_op(start, end)
            walls.append(end - start)
            shutil.rmtree(probe_dir, ignore_errors=True)
    return walls, list(walls / sampler.op_slowdowns())


def run_ops(bench, seconds: float, tracer=None, sampler=None) -> Records:
    """Closed loop with one client: run ops for `seconds` of wall time.

    With a tracer, even-numbered ops are traced and odd ones are not. With a
    running HostSampler, the time its samples took is taken out of the op
    they interrupted, and each op's interval is reported to it."""
    def sampled_s() -> float:
        return sampler.busy_s if sampler else 0.0

    records = Records()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 0
        s0 = sampled_s()
        t0 = time.perf_counter()
        t1 = None
        try:
            if traced:
                result, elapsed = tracer.run_op(bench.op, i)
                t1 = time.perf_counter()
            else:
                result = bench.op(i)
                t1 = time.perf_counter()
                elapsed = t1 - t0 - (sampled_s() - s0)
            problems = bench.check(i, result)
        except Exception:
            if t1 is None:  # the op raised, not its check
                t1 = time.perf_counter()
                elapsed = t1 - t0 - (sampled_s() - s0)
            problems = [traceback.format_exc()]
        if sampler:
            sampler.add_op(t0, t1)
        for problem in problems[:3]:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        records.append(elapsed, traced, not problems)
        i += 1
    return records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up and time one workload; returns the full report."""
    # both import cryomux, so they load only after load_cryomux()
    import tracing
    import workloads

    load_start = os.getloadavg()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_wall, setup = ([], []) if trace else setup_seconds(workload, seed, workdir)
        inputs = workloads.make_inputs(workload, seed, workdir)
        bench = workloads.build(workload, inputs, workdir, ROOT)
        bench.prepare()
        run_ops(bench, 0.0)  # one untimed warm-up op
        if trace:
            tracer = tracing.Tracer()
            records = run_ops(bench, seconds, tracer)
        else:
            timed_start = time.perf_counter()
            with hostspeed.HostSampler() as sampler:
                records = run_ops(bench, seconds, sampler=sampler)
            timed_s = time.perf_counter() - timed_start
            # read before the summary below, whose temporaries grow with the op count
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    seconds = np.frombuffer(records.seconds)
    traced = np.frombuffer(records.traced, dtype=bool)
    times = seconds[~traced]
    failed = len(records) - sum(records.ok)
    n_ok = len(records) - failed
    summary = {"attempted": len(records), "failed": failed}
    printed = {}
    if trace:
        traced_times = seconds[traced]
        overhead = statistics.median(traced_times) / statistics.median(times) - 1.0 if len(times) else 0.0
        metrics = {
            name: (value, tracing.PER_LAYER[name], len(traced_times))
            for name, value in tracer.metrics(overhead).items()
        }
        notes = tracer.notes
    else:
        # each op's and set-up's time in seconds of a host running at the
        # sampler's nominal speed
        scaled = times / sampler.op_slowdowns()
        items = n_ok * bench.items_per_op
        metrics = {
            "throughput_per_s": (items / scaled.sum(), len(times)),
            "op_p50_s": (statistics.median(scaled), len(times)),
            "setup_s": (statistics.median(setup), len(setup)),
            "peak_rss_mib": (peak_rss_mib, 1),
        }
        metrics = {k: (v, END_TO_END[k], n) for k, (v, n) in metrics.items()}
        printed = {
            "op_p99_s": (percentile(scaled, 99), len(times)),
            "wall_throughput_per_s": (items / times.sum(), len(times)),
            "wall_op_p50_s": (statistics.median(times), len(times)),
            "wall_setup_s": (statistics.median(setup_wall), len(setup)),
            "host_slowdown": (sampler.slowdown(), sampler.units),
            "sampler_share": (sampler.busy_s / timed_s, sampler.units),
        }
        printed = {k: (v, PRINTED_ONLY[k], n) for k, (v, n) in printed.items()}
        notes = [] if len(times) >= 1000 else [
            "op_p99_s: fewer than 1,000 ops, so it is the slowest op, not a tail estimate"
        ]
    printed["failed_frac"] = (failed / len(records), PRINTED_ONLY["failed_frac"], len(records))
    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    return {**summary, "metrics": metrics, "printed": printed, "notes": notes, "environment": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_cryomux()
    except ImportError as exc:
        print(f"perfbench: cannot import cryomux from this checkout: {exc}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, samples) in {**report["metrics"], **report["printed"]}.items():
        print(f"  {name:40s} {value:<24.10g} {unit:10s} n={samples}")
    for note in report["notes"]:
        print(f"  note: {note}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
